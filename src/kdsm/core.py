"""Data model for k-dimensional matching markets with cyclic preferences.

Agents come in k types arranged in a cycle. Each agent holds a strict,
possibly incomplete preference list over agents of the next type. A family
picks one agent of every type such that each member is acceptable to its
predecessor in the cycle; a matching is a set of agent-disjoint families.

This module owns the immutable data types, preference semantics, validation
diagnostics, and the canonical text formats for instances and matchings. It
decides each input check in one place for every module: the constructor
checks the shape of ``prefs``, tuples all the way down, building
``Instance._better`` checks the lists' entries (:func:`validate_instance`
is its report form), :func:`check_dims` the dimensions, :func:`check_agent`
an agent's coordinates, :func:`check_space` an exhaustive space against its
fixed bound, and :func:`matching_rows` whether a matching fits. It also
holds the shared permutations of range(n) for n up to ``PERM_CACHE_MAX_N``
(:func:`shared_permutations`) with their ``_better`` rows, built once and
index-aligned (:func:`shared_rows`), and :func:`trusted_instance`, the one
constructor that skips the checks: the library's generators build an
instance of the lists they made through it, with the tables they already
hold.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations
from typing import Iterable, Iterator, NamedTuple, Sequence


class KdsmError(Exception):
    """Base class for all library errors."""


class FormatError(KdsmError):
    """A text payload does not conform to the canonical file format."""


class TypeMismatchError(KdsmError):
    """An agent of the wrong type was passed to a preference query."""


class InvalidFamilyError(KdsmError):
    """A family is not valid for the instance it is used with."""


class InvalidInstanceError(KdsmError):
    """Preference lists of the wrong shape, or with an out-of-range, repeated or non-int entry."""


class DimensionError(KdsmError):
    """An instance has the wrong dimension for the requested operation."""


class ArgumentError(KdsmError):
    """An argument lies outside the values the call accepts."""


class SpaceTooLargeError(KdsmError):
    """A search space exceeds its fixed exhaustive bound.

    ``required`` is the size of the space. A space given as a power
    (base, exponent) and refused from its size alone computes it when read.
    """

    def __init__(self, message: str, bound: int, required: int | tuple[int, int]):
        super().__init__(message)
        self.bound = bound
        self._required = required

    def __reduce__(self):
        # by default only the message is pickled, so a pool worker's error would not load
        return type(self), (self.args[0], self.bound, self._required)

    @property
    def required(self) -> int:
        if isinstance(self._required, tuple):
            base, exponent = self._required
            self._required = base**exponent
        return self._required


def check_dims(k: int, n: int, min_k: int = 2) -> None:
    """Raise DimensionError unless k >= ``min_k`` types and n >= 0 agents per
    type, both ints (a bool is not)."""
    if type(k) is not int or type(n) is not int:
        raise DimensionError(f"dimensions must be integers, got k={k!r}, n={n!r}")
    if k < min_k or n < 0:
        raise DimensionError(f"invalid dimensions k={k}, n={n}")


def space_within(required: int | tuple[int, int], bound: int) -> bool:
    """Whether ``required``, a count or a power (base, exponent) with base >= 1,
    is at most ``bound``. A power is computed only when its log2 lies below
    that of the bound: base ** exponent is at least 2^(exponent * (bits - 1))
    for a base of that many bits."""
    if isinstance(required, tuple):
        base, exponent = required
        if exponent * (base.bit_length() - 1) >= bound.bit_length():
            return False
        required = base**exponent
    return required <= bound


def check_space(what: str, required: int | tuple[int, int], bound: int) -> None:
    """Raise SpaceTooLargeError saying "<required> <what> exceed the bound <bound>"
    unless :func:`space_within`. A count of 10,000 bits or more reads
    "over 2^<b>", b at most its log2, as str() refuses an int of more than
    ~4,300 digits; a power that large is refused without computing it."""
    if space_within(required, bound):
        return
    if isinstance(required, tuple):
        base, exponent = required
        low = exponent * (base.bit_length() - 1)
        if low >= 10_000:
            raise SpaceTooLargeError(
                f"over 2^{low} {what} exceed the bound {bound}", bound=bound, required=required
            )
        required = base**exponent  # fewer than 20,000 bits
    bits = required.bit_length()
    count = required if bits < 10_000 else f"over 2^{bits - 1}"
    raise SpaceTooLargeError(
        f"{count} {what} exceed the bound {bound}", bound=bound, required=required
    )


# Every permutation of range(n), for n up to this size, is one shared tuple
# (5,040 at n = 7); the library's own generators emit these objects and know
# each list by its index among them.
PERM_CACHE_MAX_N = 7


@cache
def shared_permutations(n: int) -> list[tuple[int, ...]]:
    """The shared permutations of range(n), n <= ``PERM_CACHE_MAX_N``, in
    lexicographic order."""
    return list(permutations(range(n)))


@cache
def shared_rows(n: int) -> list[tuple[int, ...]]:
    """The immutable ``_better`` row of each of ``shared_permutations(n)``,
    index-aligned with it."""
    return [tuple(better_row(p, n)) for p in shared_permutations(n)]


def better_row(lst: tuple[int, ...], n: int) -> Sequence[int]:
    """The ``_better`` row of one preference list over [0, n): slot x holds
    the bitmask of the entries listed before x, the ones preferred to x.
    Slot n (so also -1, "unmatched") and every unlisted x hold every listed
    entry: an unlisted partner is no better than none. Raises
    InvalidInstanceError, without the list's position, for the first entry
    outside [0, n), repeated or not an integer."""
    masks = [0] * (n + 1)
    acc = 0
    try:
        for x in lst:
            if not 0 <= x < n or acc >> x & 1:
                raise InvalidInstanceError(
                    f"duplicate entry {x}" if 0 <= x < n
                    else f"entry {x} out of range [0, {n})"
                )
            masks[x] = acc
            acc |= 1 << x
    except TypeError:  # a non-integer entry, such as 0.0, "0" or None
        raise InvalidInstanceError("entries must be integers") from None
    if acc != (1 << n) - 1:
        masks = [m if acc >> x & 1 else acc for x, m in enumerate(masks)]
    masks[n] = acc
    return masks


class AgentRef(NamedTuple):
    """An agent identity: type index ``t`` in [0, k), agent index ``i`` in [0, n)."""

    t: int
    i: int


def check_agent(what: str, a: AgentRef, k: int, n: int) -> None:
    """Raise ArgumentError "<what> (t, i) out of range" unless ``a`` is an
    agent of a k-type market with n agents per type."""
    if not (0 <= a.t < k and 0 <= a.i < n):
        raise ArgumentError(f"{what} {tuple(a)} out of range")


@dataclass(frozen=True)
class Instance:
    """A k-type cyclic market with ``n`` agent slots per type.

    ``prefs[t][i]`` is the strict preference list of agent (t, i) as a tuple
    of agent indices of type (t + 1) mod k. Lists may be incomplete; the
    complete special case has every list of length exactly n. Instances are
    immutable and safe to share between threads.
    """

    k: int
    n: int
    prefs: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        check_dims(self.k, self.n)
        # tuples all the way down, so the instance hashes and its cached
        # tables cannot go stale
        prefs, n = self.prefs, self.n
        if not (
            isinstance(prefs, tuple)
            and len(prefs) == self.k
            and all(isinstance(row, tuple) and len(row) == n for row in prefs)
        ):
            raise InvalidInstanceError("prefs must be a tuple of exactly k tuples of n lists")
        for t, row in enumerate(prefs):
            for i, lst in enumerate(row):
                if not isinstance(lst, tuple):
                    raise InvalidInstanceError(
                        f"pref ({t}, {i}): lists must be tuples, got {type(lst).__name__}"
                    )

    @staticmethod
    def build(k: int, prefs: Sequence[Sequence[Sequence[int]]]) -> "Instance":
        """Normalize raw per-type preference lists into an Instance.

        Types with fewer agents than the largest type are padded with
        empty-list agents, so the result always has equal counts per type.
        """
        n = max((len(row) for row in prefs), default=0)
        rows = []
        for row in prefs:
            padded = [tuple(lst) for lst in row] + [()] * (n - len(row))
            rows.append(tuple(padded))
        return Instance(k, n, tuple(rows))

    def next_type(self, t: int) -> int:
        return (t + 1) % self.k

    def agents(self) -> Iterator[AgentRef]:
        """All agents in increasing (t, i) order."""
        for t in range(self.k):
            for i in range(self.n):
                yield AgentRef(t, i)

    @cached_property
    def _better(self) -> list[list[Sequence[int]]]:
        # _better[t][i]: the better_row of agent (t, i)'s list. Building it
        # is the one check of the entries: InvalidInstanceError names the
        # first list, in (t, i) order, that better_row refuses.
        n = self.n
        table = []
        for t, row in enumerate(self.prefs):
            masks_row = []
            for i, lst in enumerate(row):
                try:
                    masks_row.append(better_row(lst, n))
                except InvalidInstanceError as exc:
                    raise InvalidInstanceError(f"pref ({t}, {i}): {exc}") from None
            table.append(masks_row)
        return table

    def rank_of(self, a: AgentRef, candidate: int) -> int | None:
        """Position of ``candidate`` in a's list, or None if absent.
        ArgumentError for an agent ``a`` outside the instance."""
        check_agent("agent", a, self.k, self.n)
        masks = self._better[a.t][a.i]
        if 0 <= candidate < self.n and masks[-1] >> candidate & 1:
            return masks[candidate].bit_count()
        return None

    @cached_property
    def is_complete(self) -> bool:
        n = self.n
        return all(len(lst) == n for row in self.prefs for lst in row)


def trusted_instance(
    k: int, n: int, prefs: tuple, better: list, complete: bool
) -> Instance:
    """The frozen :class:`Instance` of lists the library drew, built without
    the public checks and with its cached ``_better`` and ``is_complete``
    set: ``prefs`` is a tuple of k tuples of n lists, ``better`` the table
    ``_better`` would build, made of rows no one mutates, and ``complete``
    the value of ``is_complete``. It equals, hashes and pickles as the
    public build of the same lists. Never for lists from a caller, which
    the public build and its ``_better`` check."""
    inst = object.__new__(Instance)
    attrs = inst.__dict__
    attrs["k"] = k
    attrs["n"] = n
    attrs["prefs"] = prefs
    attrs["_better"] = better
    attrs["is_complete"] = complete
    return inst


@dataclass(frozen=True, order=True)
class Family:
    """A k-tuple of agent indices; ``members[t]`` is the type-t member."""

    members: tuple[int, ...]


@dataclass(frozen=True)
class Matching:
    """An immutable set of agent-disjoint families.

    An agent that appears in no family is unmatched. Construct through
    :meth:`of`, which deduplicates and sorts families into canonical order
    (ascending type-0 index); :func:`matching_rows` gives the partner of
    every agent.
    """

    families: tuple[Family, ...]

    @staticmethod
    def of(families: Iterable[Family | Sequence[int]]) -> "Matching":
        fams = {
            f if isinstance(f, Family) else Family(tuple(f)) for f in families
        }
        return Matching(tuple(sorted(fams)))

    @cached_property
    def _rows(self) -> dict[tuple[int, int], list[list[int]]]:
        # matching_rows(self, k, n) by (k, n), filled and only read by kdsm.reductions
        return {}

    def __len__(self) -> int:
        return len(self.families)

    def __iter__(self) -> Iterator[Family]:
        return iter(self.families)

    def __contains__(self, f: Family) -> bool:
        return f in self.families


def prefers(inst: Instance, a: AgentRef, b: AgentRef, c: AgentRef) -> bool:
    """True iff agent ``a`` strictly prefers ``b`` to ``c``.

    ``b`` must be of a's successor type. ``c`` is either of the successor
    type or equal to ``a`` itself, the encoding for "unmatched"; an agent
    never lists itself, so any listed ``b`` beats it. An unlisted ``b``
    never wins, and two unlisted candidates are incomparable. Raises
    ArgumentError for an agent outside the instance and TypeMismatchError
    for a ``b`` or ``c`` of another type.
    """
    k, n = inst.k, inst.n
    check_agent("agent", a, k, n)
    nt = inst.next_type(a.t)
    if b.t != nt:
        raise TypeMismatchError(
            f"candidate {tuple(b)} is not of type {nt}, the successor type of {tuple(a)}"
        )
    check_agent("candidate", b, k, n)
    if c != a:
        if c.t != nt:
            raise TypeMismatchError(
                f"incumbent {tuple(c)} must be of type {nt} or the agent itself"
            )
        check_agent("incumbent", c, k, n)
    # slot -1 of a better row, "unmatched", holds every listed entry
    return bool(inst._better[a.t][a.i][-1 if c == a else c.i] >> b.i & 1)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    complete: bool
    violations: tuple[str, ...]


def validate_instance(inst: Instance) -> ValidationReport:
    """The report form of ``Instance._better``: ok, or the first entry, in
    (t, i) order, that lies outside [0, n) or repeats."""
    try:
        inst._better
    except InvalidInstanceError as exc:
        return ValidationReport(False, inst.is_complete, (str(exc),))
    return ValidationReport(True, inst.is_complete, ())


def matching_rows(
    m: Matching, k: int, n: int, better: list[list[list[int]]] | None = None
) -> list[list[int]]:
    """The partner-row form of ``m``: ``rows[t][i]`` is the index of agent
    (t, i)'s partner, or -1 when the agent is unmatched.

    This is the one check that a matching fits a k-type market with n
    agents per type. Raises InvalidFamilyError for a family that is not k
    integer members in [0, n) and for an agent in two families; given an
    instance's ``better`` table, also for a member that does not accept its
    successor.
    """
    rows = [[-1] * n for _ in range(k)]
    for f in m:
        fm = f.members
        try:
            if len(fm) != k or min(fm) < 0 or max(fm) >= n:
                raise InvalidFamilyError(f"family {fm} is not {k} members in [0, {n})")
            for t, i in enumerate(fm):
                succ = fm[(t + 1) % k]
                if rows[t][i] >= 0:
                    raise InvalidFamilyError(f"agent ({t}, {i}) appears in two families")
                # slot -1 of a better row holds every listed entry
                if better is not None and not better[t][i][-1] >> succ & 1:
                    raise InvalidFamilyError(
                        f"agent ({t}, {i}) does not accept ({(t + 1) % k}, {succ})"
                    )
                rows[t][i] = succ
        except TypeError:  # a non-integer member, such as 0.0, "0" or None
            raise InvalidFamilyError(f"family {fm}: members must be integers") from None
    return rows


def partner_rows(inst: Instance, m: Matching) -> list[list[int]]:
    """:func:`matching_rows` of ``m`` checked against every list of ``inst``."""
    return matching_rows(m, inst.k, inst.n, inst._better)


@dataclass(frozen=True)
class MatchingReport:
    ok: bool
    violations: tuple[str, ...]


def validate_matching(inst: Instance, m: Matching) -> MatchingReport:
    """The report form of :func:`partner_rows`: ok, or the first violation."""
    try:
        partner_rows(inst, m)
    except InvalidFamilyError as exc:
        return MatchingReport(False, (str(exc),))
    return MatchingReport(True, ())


def family_violations(inst: Instance, f: Family) -> list[str]:
    """Why ``f`` is not a valid family of ``inst`` (empty if valid)."""
    return list(validate_matching(inst, Matching.of([f])).violations)


# Canonical text formats (line oriented, UTF-8, LF).
#
# Instance:   "KDSM 1" / "k <k>" / "n <n>" / one "pref <t> <i> : <entries>"
#             line per agent in increasing (t, i) order.
# Matching:   "KDSM-MATCHING 1" / "family <i0> ... <i(k-1)>" lines sorted by
#             the type-0 index.
# Omitted pref lines parse as empty lists; serialization always writes all
# k*n lines, so re-serialization is idempotent.

INSTANCE_HEADER = "KDSM 1"
MATCHING_HEADER = "KDSM-MATCHING 1"


def serialize_instance(inst: Instance) -> str:
    lines = [INSTANCE_HEADER, f"k {inst.k}", f"n {inst.n}"]
    for t, row in enumerate(inst.prefs):
        for i, lst in enumerate(row):
            text = " ".join(map(str, lst))
            lines.append(f"pref {t} {i} : {text}" if lst else f"pref {t} {i} :")
    lines.append("")  # the final newline
    return "\n".join(lines)


def parse_dims(lines: Sequence[str], min_k: int) -> tuple[int, int]:
    """Read the 'k <k>' and 'n <n>' header lines; k must be >= ``min_k`` and n >= 0."""
    try:
        (kname, kval), (nname, nval) = (ln.split() for ln in lines)
    except ValueError as exc:
        raise FormatError("expected 'k <k>' and 'n <n>' header lines") from exc
    if kname != "k" or nname != "n":
        raise FormatError("expected 'k <k>' and 'n <n>' header lines")
    try:
        k, n = int(kval), int(nval)
    except ValueError as exc:
        raise FormatError("k and n must be integers") from exc
    if k < min_k or n < 0:
        raise FormatError(f"invalid dimensions k={k}, n={n}")
    return k, n


def parse_instance(text: str) -> Instance:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0].split() != INSTANCE_HEADER.split():
        raise FormatError(f"missing '{INSTANCE_HEADER}' header")
    k, n = parse_dims(lines[1:3], min_k=2)
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    last: tuple[int, int] | None = None
    for ln in lines[3:]:
        tokens = ln.split()
        if len(tokens) < 4 or tokens[0] != "pref" or tokens[3] != ":":
            raise FormatError(f"malformed pref line: {ln!r}")
        try:
            t, i = int(tokens[1]), int(tokens[2])
            entries = tuple(int(x) for x in tokens[4:])
        except ValueError as exc:
            raise FormatError(f"non-integer token in pref line: {ln!r}") from exc
        if not (0 <= t < k and 0 <= i < n):
            raise FormatError(f"pref line for unknown agent ({t}, {i})")
        if last is not None and (t, i) <= last:
            raise FormatError("pref lines must be in increasing (t, i) order")
        last = (t, i)
        table[(t, i)] = entries
    prefs = tuple(
        tuple(table.get((t, i), ()) for i in range(n)) for t in range(k)
    )
    return Instance(k, n, prefs)


def serialize_matching(m: Matching) -> str:
    lines = [MATCHING_HEADER]
    for f in m:
        lines.append("family " + " ".join(str(x) for x in f.members))
    return "\n".join(lines) + "\n"


def parse_matching(text: str) -> Matching:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0].split() != MATCHING_HEADER.split():
        raise FormatError(f"missing '{MATCHING_HEADER}' header")
    fams = []
    for ln in lines[1:]:
        tokens = ln.split()
        if tokens[0] != "family" or len(tokens) < 2:
            raise FormatError(f"malformed family line: {ln!r}")
        try:
            fams.append(Family(tuple(int(x) for x in tokens[1:])))
        except ValueError as exc:
            raise FormatError(f"non-integer token in family line: {ln!r}") from exc
    if len(set(fams)) != len(fams):
        raise FormatError("duplicate family line")
    return Matching.of(fams)


def digest_state(head: bytes) -> hashlib.blake2b:
    """The hash state of :func:`instance_digest` after ``head``, the leading
    bytes of an instance's UTF-8 serialization. Updated with the rest, on a
    ``copy()`` when the state is reused, its ``hexdigest()`` is the digest."""
    return hashlib.blake2b(head, digest_size=8)


def instance_digest(inst: Instance) -> str:
    """64-bit hash of the canonical serialization (blake2b, 8-byte digest, hex)."""
    return digest_state(serialize_instance(inst).encode("utf-8")).hexdigest()
