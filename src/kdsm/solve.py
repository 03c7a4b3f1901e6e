"""Exhaustive and budgeted search for weakly stable matchings.

Enumeration is exact and desk-scale: it refuses to run, through
``core.check_space``, when the number of candidate families exceeds
``MAX_CANDIDATE_FAMILIES`` (or, on complete instances, the number of perfect
matchings exceeds ``MAX_PERFECT_MATCHINGS``), and otherwise stops with the
same error once its walk passes ``MAX_CANDIDATE_FAMILIES`` matchings. On
complete instances the enumeration restricts itself to perfect matchings,
which is lossless because a weakly stable matching of a complete instance
never leaves an agent unmatched (one unmatched agent per type would form a
strongly blocking family).

Counting on a complete instance with n >= 1, for every k, is one
permutation scan (``_scan_complete``): a perfect matching is one
permutation per type 1..k-1, and bitmask arithmetic on the instance's
"better than" table decides each without building it. The permutations
of types 1..k-2 are walked on a stack, so k is not limited by Python's
recursion limit. Up to n = ``PERM_CACHE_MAX_N`` a count, full or capped,
decides all n! permutations of the last type at once: bit j of one int
stands for the j-th, and per prefix one OR of precomputed rows gives the
blocked ones; a capped count stops at the first prefix that reaches its
cap. Enumeration, ``count_matchings``, the count on every other
instance and ``genlab.certify_no_stable`` walk the matching space with one
subset walk (``_matchings``), which gives the canonical order and,
restricted to perfect matchings, serves as the scan's oracle in the tests.

Whether complete instances admit a weakly stable matching at all is
decided a batch at a time by ``_scan_batch``, the existence experiments'
kernel, for 1 <= n <= ``PERM_CACHE_MAX_N``: the scan's walk over the
perfect matchings, run once for the whole batch, with bit b of every mask
standing for the b-th instance (its lane). ``count_weakly_stable`` with
``limit=1`` stays the per-instance answer and the kernel's oracle.

The budgeted solver is a backtracking search over per-type-0-agent
decisions (join a family or stay unmatched), run as one loop over a stack
of per-level decision iterators, the shape of ``_matchings``. A decision
is abandoned as soon as a family through one of its agents is strongly
blocking with all k members' assignments finalized; such a family can
never be repaired deeper in the branch. A blocked complete candidate
backjumps to the deepest level that finalized a member of its blocking
family: the levels deeper than it are undone and popped. A stable leaf or the
spent budget ends the loop with its status. A family blocked by the walk
anchored at its type-0 member leaves a memo of the agents that walk read:
a later family of the level that differs from it only in its last member,
outside that set, is blocked by the same walk at the same work, so it is
counted as a node without being committed or walked.

The subset walk and the budgeted solver keep per agent its improvement
mask, ``imp[t][i]``: its ``_better`` entry at its partner, its acceptable
mask while unmatched. They keep per type a free mask, the bitmask of its
unmatched agents. A commit or an undo updates both for the family's k
members only, so a complete candidate is tested with
``next(lex_families(imp), None)``, the naive verifier's first blocker
(``verify.first_blocker``), without rebuilding a mask. The solver also
holds its matching in the partner-row form of :mod:`kdsm.verify`
(``rows[t][i]`` is the partner index of agent (t, i), -1 when unmatched)
for its anchored walk and its backjumps. Every family comes from
``verify.lex_families``; the open families of a step are those over the
acceptable masks restricted to the free masks and its type-0 starts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import cache, reduce
from itertools import chain, islice, permutations
from numbers import Real
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .core import (
    PERM_CACHE_MAX_N,
    ArgumentError,
    Instance,
    KdsmError,
    Matching,
    check_space,
    shared_permutations,
    shared_rows,
    space_within,
)
from .verify import find_blocking_naive, improvement_masks, lex_families

MAX_CANDIDATE_FAMILIES = 10**6
MAX_PERFECT_MATCHINGS = 10**8
# per-decision cap on incremental blocking detection work; purely an
# optimization knob, exhaustive leaves are always verified in full
PRUNE_WORK_CAP = 256


class SolveStatus(Enum):
    FOUND = "FOUND"
    EXHAUSTED_NONE = "EXHAUSTED-NONE"
    BUDGET_EXCEEDED = "BUDGET-EXCEEDED"


@dataclass(frozen=True)
class Budget:
    """Limits of ``find_weakly_stable``: None is unset. A ``max_nodes`` that
    is not an int or a ``max_seconds`` that is not a real number (a bool is
    neither) raises ArgumentError, a negative one KdsmError."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes is not None and type(self.max_nodes) is not int:
            raise ArgumentError(f"max_nodes must be an integer, got {self.max_nodes!r}")
        seconds = self.max_seconds
        if seconds is not None and (isinstance(seconds, bool) or not isinstance(seconds, Real)):
            raise ArgumentError(f"max_seconds must be a real number, got {seconds!r}")
        for name in ("max_nodes", "max_seconds"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # NaN fails too
                raise KdsmError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class SolveOutcome:
    status: SolveStatus
    matching: Matching | None
    nodes_explored: int
    elapsed: float


def _acceptable(inst: Instance) -> list[list[int]]:
    """Per agent, the mask of the entries it lists: its improvement mask
    while unmatched."""
    return improvement_masks(inst, [[-1] * inst.n] * inst.k)


def _check_family_bound(acc: list[list[int]]) -> list[tuple[int, ...]]:
    """All valid families over the acceptable masks ``acc`` in lexicographic
    order, or SpaceTooLargeError."""
    bound = MAX_CANDIDATE_FAMILIES
    fams = list(islice(lex_families(acc), bound + 1))
    # the walk stops at bound + 1, so that count is a lower bound
    check_space("or more candidate families", len(fams), bound)
    return fams


def _check_perfect_bound(k: int, n: int) -> None:
    """Bound checks for the perfect-matching paths of complete k, n instances."""
    check_space("candidate families", n**k, MAX_CANDIDATE_FAMILIES)
    check_space("perfect matchings", math.factorial(n) ** (k - 1), MAX_PERFECT_MATCHINGS)


# up to core's PERM_CACHE_MAX_N the shared permutations of range(n) are
# paired with their inverses once per n, and a count decides them all at
# once, one bit each; a larger n walks them afresh each time
_PERMS: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}


def _perms(n: int) -> Iterable[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every permutation of range(n) with its inverse, in lexicographic order."""
    pairs = _PERMS.get(n)
    if pairs is None:
        cached = n <= PERM_CACHE_MAX_N
        pairs = (
            (p, tuple(sorted(range(n), key=p.__getitem__)))
            for p in (shared_permutations(n) if cached else permutations(range(n)))
        )
        if cached:
            pairs = _PERMS[n] = list(pairs)
    return pairs


@cache
def _last_masks(n: int) -> list[list[int]]:
    """``at[a][v]``: the mask of the permutations of ``_perms(n)`` (bit j for
    the j-th) that send a to v; only for n <= PERM_CACHE_MAX_N."""
    at = [[0] * n for _ in range(n)]
    for j, (tau, _) in enumerate(_perms(n)):
        for a, v in enumerate(tau):
            at[a][v] |= 1 << j
    return at


def _blocking_rows(inst: Instance) -> list[list[int]]:
    """``blk[x*n + a][b]``: the mask of type-(k-1) permutations under which
    (k-2, x), in type-0 agent a's family, closes a strongly blocking family
    on type-0 agent b: x prefers some y to its partner and (k-1, y) prefers b
    to its own. Walking each list from its end, the OR so far is the mask
    under which the partner ranks below the current entry."""
    k, n = inst.k, inst.n
    at = _last_masks(n)
    # closes[y][b]: the permutations under which (k-1, y) prefers b to its partner
    closes = []
    for y, lst in enumerate(inst.prefs[k - 1]):
        row = [0] * n
        below = 0
        for b in reversed(lst):
            row[b] = below
            below |= at[b][y]
        closes.append(row)
    blk = []
    for lst in inst.prefs[k - 2]:
        for a in range(n):
            row = [0] * n
            below = 0
            for y in reversed(lst):
                if below:
                    for b, c in enumerate(closes[y]):
                        row[b] |= below & c
                below |= at[a][y]
            blk.append(row)
    return blk


def _scan_complete(inst: Instance, limit: int | None = None) -> int:
    """Count weakly stable perfect matchings of a complete instance with n >= 1.

    A perfect matching is one permutation per type t in 1..k-1, mapping
    each type-0 agent to its family's type-t member. The permutations of
    types 1..k-2 are walked as a prefix, one loop over a stack of
    permutation walks, carrying per agent of the last type reached the mask
    of type-0 agents whose improvement chains reach it. Under a
    type-(k-1) permutation, (k-2, x) closes a strongly blocking family iff
    one of the type-(k-1) agents it prefers to its partner prefers one of
    those type-0 agents to its own. Up to n = PERM_CACHE_MAX_N all n! last
    permutations of a prefix are decided at once, one bit each, from the
    rows of ``_blocking_rows``; past it each is decided in turn. The scan
    stops once ``limit`` (a positive count, or None for all) stable
    matchings are found, and returns ``limit`` then.
    """
    k, n = inst.k, inst.n
    better = inst._better
    mid, close = better[k - 2], better[k - 1]
    blk = _blocking_rows(inst) if n <= PERM_CACHE_MAX_N else None
    last = math.factorial(n)
    count = 0
    # every type-0 agent reaches itself; pinv[x] is the type-0 member of (t, x)
    reach: list[int] = [1 << a for a in range(n)]
    pinv: Sequence[int] = range(n)
    # per type t in 1..k-2, its permutation walk with the reach and pinv of type t-1
    walks: list[tuple[Iterator, list[int], Sequence[int]]] = []
    while True:
        if len(walks) < k - 2:
            walks.append((iter(_perms(n)), reach, pinv))
        elif blk is not None:
            blocked = 0
            for x, r in enumerate(reach):
                row = blk[x * n + pinv[x]]
                while r:
                    low = r & -r
                    blocked |= row[low.bit_length() - 1]
                    r ^= low
            count += last - blocked.bit_count()
            if limit is not None and count >= limit:
                return limit
        else:
            # (improvement row, type-0 family member, reach) of every x that can block
            xs = [(mid[x], pinv[x], r) for x, r in enumerate(reach) if r]
            for tau, tinv in _perms(n):
                for row, a, r in xs:
                    dm = row[tau[a]]
                    u = 0
                    while dm:
                        low = dm & -dm
                        y = low.bit_length() - 1
                        u |= close[y][tinv[y]]
                        dm ^= low
                    if u & r:
                        break
                else:
                    count += 1
                    if count == limit:
                        return count
        # the next permutation of the deepest walk with one left
        while walks and (perm := next(walks[-1][0], None)) is None:
            walks.pop()
        if not walks:
            return count
        _, prev, prev_pinv = walks[-1]
        rows = better[len(walks) - 1]
        p, pinv = perm
        # (t, x) passes its chains on to the agents it prefers to its partner
        reach = [0] * n
        for x, r in enumerate(prev):
            m = rows[x][p[prev_pinv[x]]]
            while m:
                low = m & -m
                reach[low.bit_length() - 1] |= r
                m ^= low


@cache
def _lane_tables(n: int) -> tuple[list[bytes], list[bytes]]:
    """Per partner q, the ``better`` entry at q of each permutation of
    ``_perms(n)``, one byte by its index (a ``bytes.translate`` table while
    n! <= 256); per candidate j, the table sending such a byte to b"1" when
    it holds j, else to b"0"."""
    at = [bytes(row[q] for row in shared_rows(n)).ljust(256, b"\0") for q in range(n)]
    return at, [bytes(b"01"[m >> j & 1] for m in range(256)) for j in range(n)]


def _blocked_lanes(k: int, n: int, lanes: Sequence[Sequence[int]]) -> Iterator[int]:
    """Per perfect matching, the mask of the lanes in which a family
    strongly blocks it: ``_scan_complete``'s walk over a batch of complete
    k, n instances at once, 1 <= n <= PERM_CACHE_MAX_N. The b-th lane, bit b
    of every mask, is one instance: the ``_perms(n)`` index of its list in
    each slot (t, i) in order. The matchings come in the scan's order, the
    product over types 1..k-1 of ``_perms(n)``, the last type fastest.

    ``reach[x][a]`` holds the lanes in which type-0 agent a's improvement
    chain reaches agent x of the last type reached. Per prefix,
    ``h[x][y][w]`` holds the lanes in which (k-1, y) prefers to w some
    type-0 agent reaching (k-2, x), so a last permutation is blocked in the
    OR over x and y of the lanes in which x prefers y to its partner and
    ``h[x][y]`` at y's partner.
    """
    at, bits = _lane_tables(n)
    # masks[t*n + i][q][j]: the lanes in which (t, i) prefers j to q; each
    # slot's column of indices, last lane first, becomes one byte column per
    # q and one binary numeral per j
    masks = []
    for col in zip(*reversed(lanes)):
        raw = bytes(col) if len(_perms(n)) <= 256 else None
        masks.append([
            [int(c.translate(b), 2) if j != q else 0 for j, b in enumerate(bits)]
            for q, c in enumerate(
                raw.translate(t) if raw else bytes(map(t.__getitem__, col)) for t in at
            )
        ])
    rn = range(n)
    mid, close = masks[(k - 2) * n : (k - 1) * n], masks[(k - 1) * n :]
    # every type-0 agent reaches itself in every lane
    reach = [[(1 << len(lanes)) - 1 if x == a else 0 for a in rn] for x in rn]
    pinv: Sequence[int] = rn
    walks: list[tuple[Iterator, list[list[int]], Sequence[int]]] = []
    while True:
        if len(walks) < k - 2:
            walks.append((iter(_perms(n)), reach, pinv))
        else:
            h = [[[reduce(or_, map(and_, rx, cw)) for cw in close[y]] for y in rn] for rx in reach]
            for tau, tinv in _perms(n):
                blocked = 0
                for x, hx in enumerate(h):
                    row = mid[x][tau[pinv[x]]]
                    for y in rn:
                        blocked |= row[y] & hx[y][tinv[y]]
                yield blocked
        # the next permutation of the deepest walk with one left
        while walks and (perm := next(walks[-1][0], None)) is None:
            walks.pop()
        if not walks:
            return
        _, prev, prev_pinv = walks[-1]
        rows = masks[(len(walks) - 1) * n : len(walks) * n]
        p, pinv = perm
        # (t, x) passes its chains on to the agents it prefers to its partner
        reach = [[0] * n for _ in rn]
        for x, rx in enumerate(prev):
            for y, m in enumerate(rows[x][p[prev_pinv[x]]]):
                if m:
                    reach[y] = [r | c & m for r, c in zip(reach[y], rx)]


def _scan_batch(k: int, n: int, lanes: Sequence[Sequence[int]]) -> int:
    """The mask of the lanes (see ``_blocked_lanes``) that admit no weakly
    stable matching, found by walking the matchings until each lane has one
    it does not block. It first checks the perfect-matching bounds, as a
    capped count does."""
    _check_perfect_bound(k, n)
    undecided = (1 << len(lanes)) - 1
    for blocked in _blocked_lanes(k, n, lanes):
        undecided &= blocked
        if not undecided:
            break
    return undecided


def _matchings(
    inst: Instance, perfect: bool, acc: list[list[int]]
) -> Iterator[tuple[list[tuple[int, ...]], list[list[int]]]]:
    """Every matching (only the perfect ones with ``perfect``) with its
    improvement masks, in canonical order: ascending tuples of families, a
    matching before its extensions. ``acc`` holds the acceptable masks
    (``_acceptable``). The next family starts at any type-0 agent after the
    last family's, or with ``perfect`` at exactly the next one. The masks
    follow the matching: a commit sets each member's to its ``_better`` entry
    at its successor, an undo restores its acceptable mask, so
    ``next(lex_families(imp), None)`` is ``first_blocker`` of the matching.
    The yielded list and masks are reused; read them before resuming.
    Without ``perfect``, the walk raises SpaceTooLargeError before its
    (MAX_CANDIDATE_FAMILIES + 1)-th matching: every family is a one-family
    matching, so this bound is never tighter than the family bound.
    """
    k, n = inst.k, inst.n
    better = inst._better
    imp = [row.copy() for row in acc]
    free = [(1 << n) - 1] * k  # per type, the bitmask of unmatched agents
    chosen: list[tuple[int, ...]] = []
    walks: list[Iterator[tuple[int, ...]]] = []  # one per chosen family, plus the next
    start = 0
    walked = 0  # matchings yielded without ``perfect``
    while True:
        if not perfect:
            walked += 1
            if walked > MAX_CANDIDATE_FAMILIES:  # check_space only raises here
                check_space("or more matchings", walked, MAX_CANDIDATE_FAMILIES)
            yield chosen, imp
        elif len(chosen) == n:
            yield chosen, imp
        starts = range(start, n)
        walks.append(lex_families(acc, free, starts[:1] if perfect else starts))
        # the next family of the deepest walk with one left; every family
        # whose walk ends is undone, which restores the free masks it read
        while (fam := next(walks[-1], None)) is None:
            walks.pop()
            if not walks:
                return
            for t, i in enumerate(chosen.pop()):
                imp[t][i] = acc[t][i]
                free[t] ^= 1 << i
        chosen.append(fam)
        for t, i in enumerate(fam):
            imp[t][i] = better[t][i][fam[(t + 1) % k]]
            free[t] ^= 1 << i
        start = fam[0] + 1


def _check_limit(limit: int | None) -> None:
    """Raise ArgumentError unless ``limit`` is None or an int (a bool is not)."""
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int)):
        raise ArgumentError(f"limit must be an integer or None, got {limit!r}")


def _stable(inst: Instance, limit: int | None) -> Iterator[list[tuple[int, ...]]]:
    """The families of the first ``limit`` (None: all) weakly stable
    matchings, in canonical order: the matchings of ``_matchings`` whose
    masks close no family. The bounds are checked first: the
    perfect-matching bounds on a complete instance with n >= 1, which walks
    its perfect matchings, the family bound otherwise, once n^k passes it."""
    perfect = inst.is_complete and inst.n >= 1
    if perfect:
        _check_perfect_bound(inst.k, inst.n)
    acc = _acceptable(inst)
    # a family is one of n^k tuples: while n^k fits, the family bound cannot bind
    if not perfect and not space_within((inst.n, inst.k), MAX_CANDIDATE_FAMILIES):
        _check_family_bound(acc)
    stable = (
        chosen for chosen, imp in _matchings(inst, perfect, acc)
        if next(lex_families(imp), None) is None
    )
    return islice(stable, None if limit is None else max(limit, 0))


def enumerate_weakly_stable(inst: Instance, limit: int | None = None) -> list[Matching]:
    """All weakly stable matchings of ``inst`` (up to ``limit``), canonical order.

    Raises ArgumentError unless ``limit`` is None or an int, and
    SpaceTooLargeError when the candidate-family space (or, for complete
    instances, the perfect-matching space) exceeds its bound.
    """
    _check_limit(limit)
    return [Matching.of(chosen) for chosen in _stable(inst, limit)]


def count_matchings(inst: Instance) -> int:
    """Total number of matchings (all agent-disjoint family subsets)."""
    acc = _acceptable(inst)
    if not space_within((inst.n, inst.k), MAX_CANDIDATE_FAMILIES):  # as in _stable
        _check_family_bound(acc)
    return sum(1 for _ in _matchings(inst, False, acc))


def count_weakly_stable(inst: Instance, limit: int | None = None) -> int:
    """Number of weakly stable matchings, exact, or capped at ``limit``.

    ``limit`` None counts them all; a positive ``limit`` stops at that many,
    ``limit <= 0`` returns 0, and any other ``limit`` than None or an int
    raises ArgumentError. A complete instance with n >= 1 goes through the
    permutation scan, for every k and ``limit``; up to n = PERM_CACHE_MAX_N
    it decides the last type's permutations at once. A full count checks the
    perfect-matching bounds first and raises SpaceTooLargeError past them;
    a capped count checks them too, except at k=3, where the scan stops at
    its ``limit``-th hit and is not refused for size. Every other instance
    is counted off the matching walk of ``enumerate_weakly_stable``, under
    the same bounds, without building a matching: it stops at the
    ``limit``-th stable one.
    """
    _check_limit(limit)
    if limit is not None and limit <= 0:
        return 0
    if inst.is_complete and inst.n >= 1:
        if limit is None or inst.k != 3:
            _check_perfect_bound(inst.k, inst.n)
        return _scan_complete(inst, limit)
    return sum(1 for _ in _stable(inst, limit))


def find_weakly_stable(inst: Instance, budget: Budget | None = None) -> SolveOutcome:
    """Search for one weakly stable matching under a node/time budget.

    Type-0 agents are processed in index order; each either anchors a new
    family (partner tuples tried in lexicographic order) or stays
    unmatched (tried last). A node is a decision tried: committed, or a
    sibling the level's memo shows blocked (module docstring). FOUND carries
    a matching re-certified by the verifier; EXHAUSTED-NONE certifies that
    the whole decision tree was covered. Node counts are deterministic.
    Raises ArgumentError for a ``budget`` that is neither a Budget nor None.
    """
    t_start = time.perf_counter()
    if budget is None:
        budget = Budget()
    elif not isinstance(budget, Budget):
        raise ArgumentError(f"budget must be a Budget or None, got {budget!r}")
    k, n = inst.k, inst.n
    prefs = inst.prefs
    # the node budget and the deadline, infinite when unset; the deadline is
    # read every 1,024th node
    max_nodes = math.inf if budget.max_nodes is None else budget.max_nodes
    deadline = (
        math.inf if budget.max_seconds is None else t_start + budget.max_seconds
    )

    if n == 0:
        return SolveOutcome(
            SolveStatus.FOUND, Matching.of([]), 0, time.perf_counter() - t_start
        )
    if max_nodes == 0:  # the first node would already exceed the budget
        return SolveOutcome(
            SolveStatus.BUDGET_EXCEEDED, None, 0, time.perf_counter() - t_start
        )

    acc = _acceptable(inst)
    better = inst._better
    rows = [[-1] * n for _ in range(k)]  # partner index or -1
    imp = [row.copy() for row in acc]  # improvement masks, as in _matchings
    free = [(1 << n) - 1] * k  # per type, the bitmask of unmatched agents
    decided = 0  # type-0 agents with a final decision
    chosen: list[tuple[int, ...] | None] = [None] * n
    nodes = 0

    # the anchored-blocker walk's anchor index and work left; read[t] covers
    # the type-t agents whose finalized flag a walk from a type-0 anchor
    # may test (t >= 1)
    anchor = 0
    work = 0
    read = [0] * k

    def walk(step: int, t: int, i: int) -> bool:
        """Close a blocking family on the anchor from (t, i), its step-th member,
        through finalized agents (matched, or of type 0 and decided). Every
        list entry read before the partner costs one unit of work first."""
        nonlocal work
        p = rows[t][i]
        if step == k - 1:  # the last member: it closes on the anchor or not at all
            for j in prefs[t][i]:
                if j == p:
                    break
                work -= 1
                if work <= 0:
                    return False
                if j == anchor:
                    return True
            return False
        nt = t + 1 if t + 1 < k else 0
        if t == step:  # a walk from a type-0 anchor: the one a memo may keep
            read[nt] |= better[t][i][p]
        row = rows[nt]
        for j in prefs[t][i]:
            if j == p:
                break
            work -= 1
            if work <= 0:
                return False
            if (row[j] >= 0 or (nt == 0 and j < decided)) and walk(step + 1, nt, j):
                return True
        return False

    # per level d, the decisions of type-0 agent d: the families through d
    # in lexicographic order, then None: unmatched
    levels = [chain(lex_families(acc, free, (0,)), (None,))]
    # per level, at most one memo (prefix, read[k-1]) of a family f that the
    # walk from (0, d) blocked without reading a member f[t], t >= 2, in
    # read[t]. That walk never enters (1, f[1]); a sibling, a later family
    # of the level with f's members of types 0..k-2, differs from f only in
    # its last member and the partner of (k-2, f[k-2]), so with its last
    # member outside read[k-1] the same walk blocks it at the same work
    memos: list[tuple[tuple[int, ...], int] | None] = [None] * n
    back = n  # a pending backjump level: the levels deeper than it are undone and popped
    status = SolveStatus.EXHAUSTED_NONE
    while levels:
        d = len(levels) - 1
        fam = chosen[d]
        if fam is not None:  # undo the level's last decision
            chosen[d] = None
            for t in range(k):
                i = fam[t]
                rows[t][i] = -1
                imp[t][i] = acc[t][i]
                free[t] ^= 1 << i
        if d > back:
            levels.pop()
            continue
        back = n  # no jump pending from here on
        fam = next(levels[d], False)
        if fam is False:  # every decision of the level is tried
            levels.pop()
            continue
        nodes += 1
        if nodes >= max_nodes or (not nodes & 0x3FF and time.perf_counter() > deadline):
            status = SolveStatus.BUDGET_EXCEEDED
            break
        decided = d + 1
        if fam is not None:
            memo = memos[d]
            if memo is not None and not memo[1] >> fam[-1] & 1 and memo[0] == fam[:-1]:
                continue  # a blocked sibling: no commit, walk or undo
            for t in range(k):
                i = fam[t]
                p = rows[t][i] = fam[t + 1 if t + 1 < k else 0]
                imp[t][i] = better[t][i][p]
                free[t] ^= 1 << i
            chosen[d] = fam
        # a blocking family through an agent of this decision (its family, or
        # d alone) closing among finalized agents, each anchor's walk capped
        # at PRUNE_WORK_CAP, holds an agent finalized at level d, so it never
        # jumps back: the next decision of the level follows
        read = [0] * k
        for t, anchor in enumerate(fam or (d,)):
            work = PRUNE_WORK_CAP
            if walk(0, t, anchor):
                if fam and not t:
                    for s in range(2, k):
                        if read[s] >> fam[s] & 1:
                            break
                    else:
                        memos[d] = (fam[:-1], read[-1])
                break
        else:
            if decided < n:
                memos[decided] = None
                levels.append(chain(lex_families(acc, free, (decided,)), (None,)))
                continue
            blk = next(lex_families(imp), None)  # first_blocker of rows
            if blk is None:
                status = SolveStatus.FOUND
                break
            # back to the deepest level that finalized a member: a type-0
            # agent's own index, a matched agent's family's type-0 member;
            # n - 1 while a member of another type is unmatched
            back = blk[0]
            for t in range(1, k):
                x = blk[t]
                if rows[t][x] < 0:
                    back = n - 1
                    break
                for s in range(t, k):
                    x = rows[s][x]
                back = max(back, x)
    del walk  # walk refers to itself: clearing it frees it without the cyclic GC

    m = Matching.of([f for f in chosen if f is not None]) if status is SolveStatus.FOUND else None
    elapsed = time.perf_counter() - t_start
    if m is not None and find_blocking_naive(inst, m) is not None:
        raise RuntimeError("solver leaf passed a blocked matching")
    return SolveOutcome(status, m, nodes, elapsed)
