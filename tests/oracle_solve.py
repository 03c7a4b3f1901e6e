"""The budgeted solver as it stood before the anchored prune reused its
verdict across sibling families: a verbatim copy of ``find_weakly_stable``,
kept as the oracle of the differential tests in ``test_solve.py``. Those
tests set ``PRUNE_WORK_CAP`` here and in ``kdsm.solve`` alike."""

from __future__ import annotations

import math
import time
from itertools import chain

from kdsm.core import Instance, Matching
from kdsm.solve import Budget, SolveOutcome, SolveStatus
from kdsm.verify import find_blocking_naive, first_blocker, improvement_masks, lex_families

PRUNE_WORK_CAP = 256


def find_weakly_stable(inst: Instance, budget: Budget | None = None) -> SolveOutcome:
    """Search for one weakly stable matching under a node/time budget.

    Type-0 agents are processed in index order; each either anchors a new
    family (partner tuples tried in lexicographic order) or stays
    unmatched (tried last). A node is a committed decision. FOUND carries
    a matching re-certified by the verifier; EXHAUSTED-NONE certifies that
    the whole decision tree was covered. Node counts are deterministic.
    """
    t_start = time.perf_counter()
    budget = budget or Budget()
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

    acc = improvement_masks(inst, [[-1] * n] * k)  # acceptable masks
    rows = [[-1] * n for _ in range(k)]  # partner index or -1
    free = [(1 << n) - 1] * k  # per type, the bitmask of unmatched agents
    decided = 0  # type-0 agents with a final decision
    chosen: list[tuple[int, ...] | None] = [None] * n
    nodes = 0

    # the anchored-blocker walk's anchor index and work left
    anchor = 0
    work = 0

    def walk(step: int, t: int, i: int) -> bool:
        """Close a blocking family on the anchor from (t, i), its step-th member,
        through finalized agents (matched, or of type 0 and decided). Every
        list entry read before the partner costs one unit of work first."""
        nonlocal work
        nt = t + 1 if t + 1 < k else 0
        p = rows[t][i]
        closing = step == k - 1
        row = rows[nt]
        for j in prefs[t][i]:
            if j == p:
                break
            work -= 1
            if work <= 0:
                return False
            if closing:
                if j == anchor:
                    return True
            elif (row[j] >= 0 or (nt == 0 and j < decided)) and walk(step + 1, nt, j):
                return True
        return False

    # per level d, the decisions of type-0 agent d: the families through d
    # in lexicographic order, then None: unmatched
    levels = [chain(lex_families(acc, free, (0,)), (None,))]
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
            for t in range(k):
                i = fam[t]
                rows[t][i] = fam[t + 1 if t + 1 < k else 0]
                free[t] ^= 1 << i
            chosen[d] = fam
        # a blocking family through an agent of this decision (its family, or
        # d alone) closing among finalized agents, each anchor's walk capped
        # at PRUNE_WORK_CAP, holds an agent finalized at level d, so it never
        # jumps back: the next decision of the level follows
        for t, anchor in enumerate(fam or (d,)):
            work = PRUNE_WORK_CAP
            if walk(0, t, anchor):
                break
        else:
            if decided < n:
                levels.append(chain(lex_families(acc, free, (decided,)), (None,)))
                continue
            blk = first_blocker(inst, rows)
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
