"""Weak-stability verification.

A family strongly blocks a matching when every member strictly prefers its
successor in the family to its current partner; a matching is weakly stable
when no family strongly blocks it. Two independent deciders are provided:

* a naive lexicographic scan over candidate families, and
* a short-cycle search on the directed improvement graph, where an edge
  goes from an agent to every next-type agent it prefers to its partner.
  Every edge advances the type by one, so any cycle has length a multiple
  of k, and cycles of length exactly k are precisely the strongly blocking
  families. The cycle method stays polynomial in n and k.

Both read a matching in its partner-row form (``rows[t][i]`` is the
partner index of agent (t, i), -1 when unmatched) and the instance's one
"better than" bitmask table, but each decides independently. The rows come
from :func:`kdsm.core.partner_rows`, the one check that a matching fits its
instance, so both raise InvalidFamilyError on the same input. Both must
agree on the verdict; witnesses may differ. ``auto`` is the cycle method;
the naive scan stays as the solvers' leaf test and the oracle of
``verifier-equivalence``. The same table and family walker serve the
matching walk and the budgeted search of :mod:`kdsm.solve`, which keep
each agent's improvement mask in step with their matching: their leaf test
is ``first_blocker``'s own ``next(lex_families(masks), None)``, over masks
that no leaf rebuilds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

from .core import ArgumentError, Family, Instance, Matching, partner_rows

Method = Literal["naive", "cycle", "auto"]


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    witness: Family | None


def is_strongly_blocking(inst: Instance, m: Matching, f: Family | Sequence[int]) -> bool:
    """True iff every member of ``f``, a family as :meth:`Matching.of` takes
    it, prefers its successor to its partner."""
    single = Matching.of([f])
    partner_rows(inst, single)  # raises unless f is a valid family
    rows, fm = partner_rows(inst, m), single.families[0].members
    return all(
        inst._better[t][i][rows[t][i]] >> fm[(t + 1) % inst.k] & 1
        for t, i in enumerate(fm)
    )


def improvement_masks(inst: Instance, rows: list[list[int]]) -> list[list[int]]:
    """Per agent, the bitmask of the entries it prefers to its partner in ``rows``."""
    return [
        [masks[p] for masks, p in zip(table_row, row)]
        for table_row, row in zip(inst._better, rows)
    ]


def iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lex_families(
    masks: Sequence[Sequence[int]],
    free: Sequence[int] | None = None,
    starts: Iterable[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Families f with bit f[(t + 1) % k] set in masks[t][f[t]] for all t, lexicographic.

    Over the masks of the all-unmatched rows these are the valid families
    (exactly those that block the empty matching); over the improvement
    masks of a matching they are its strongly blocking families. f[0] runs
    over ``starts`` and f[t] over ``masks[t - 1][f[t - 1]] & free[t]`` for
    t >= 1; None restricts nothing. Each level reads ``free`` as it starts,
    so callers may change it while suspended if they restore it first.
    One loop over a per-level candidate stack: a call leaves no reference cycle.
    """
    k = len(masks)
    free = [-1] * k if free is None else free  # -1: every bit set
    starts = range(len(masks[0])) if starts is None else starts
    last = k - 1
    closing = masks[last]
    members = [0] * k
    cands = [0] * k  # per level, the candidates not yet tried
    for i0 in starts:
        members[0] = i0
        cands[1] = masks[0][i0] & free[1]
        t = 1
        while t:
            cand = cands[t]
            if t == last:
                while cand:  # the set bits in ascending order, inlined: this is the hot loop
                    low = cand & -cand
                    cand ^= low
                    j = low.bit_length() - 1
                    if closing[j] >> i0 & 1:
                        members[last] = j
                        yield tuple(members)
                t -= 1
            elif cand:
                low = cand & -cand
                cands[t] = cand ^ low
                j = members[t] = low.bit_length() - 1
                t += 1
                cands[t] = masks[t - 1][j] & free[t]
            else:
                t -= 1


def first_blocker(inst: Instance, rows: list[list[int]]) -> tuple[int, ...] | None:
    """Lexicographically smallest family strongly blocking the partner rows ``rows``."""
    return next(lex_families(improvement_masks(inst, rows)), None)


def find_blocking_naive(inst: Instance, m: Matching) -> Family | None:
    """Scan all candidate families; return the lexicographically smallest blocker."""
    blocker = first_blocker(inst, partner_rows(inst, m))
    return None if blocker is None else Family(blocker)


def find_blocking_cycle(inst: Instance, m: Matching) -> Family | None:
    """Find a strongly blocking family as a length-k cycle of the improvement graph.

    Runs a breadth-first search truncated at depth k from every type-0
    vertex; a walk of k improvement edges returning to its start visits one
    agent of every type and hence is a strongly blocking family. Returns
    the first witness found from the smallest start vertex, or None.
    """
    k, n = inst.k, inst.n
    succ = improvement_masks(inst, partner_rows(inst, m))
    for start in range(n):
        if not succ[0][start]:
            continue
        # layers[d] is the n-bit set of type-(d % k) indices reached in d steps;
        # every improvement edge advances the type by one, so a return to the
        # start (a type-0 vertex) can only happen at a depth divisible by k
        layers = [1 << start]
        for d in range(1, k + 1):
            frontier = 0
            for u in iter_bits(layers[d - 1]):
                frontier |= succ[(d - 1) % k][u]
            layers.append(frontier)
        if layers[k] >> start & 1:
            # walk back through first BFS parents: the smallest index of the
            # previous layer with an edge to the member after it
            members = [0] * k
            v = start
            for d in range(k, 0, -1):
                t = (d - 1) % k
                v = next(u for u in iter_bits(layers[d - 1]) if succ[t][u] >> v & 1)
                members[t] = v
            # witness soundness: the walk closes on its start and every
            # cyclic step is an improvement edge
            if members[0] != start or not all(
                succ[t][members[t]] >> members[(t + 1) % k] & 1 for t in range(k)
            ):
                raise RuntimeError("reconstructed cycle is not a blocking family")
            return Family(tuple(members))
    return None


def is_weakly_stable(inst: Instance, m: Matching, method: Method = "auto") -> StabilityVerdict:
    """Decide weak stability; ``auto`` is ``cycle``, and every method gives the same verdict."""
    if method == "naive":
        witness = find_blocking_naive(inst, m)
    elif method in ("cycle", "auto"):
        witness = find_blocking_cycle(inst, m)
    else:
        raise ArgumentError(f"unknown method {method!r}; expected 'naive', 'cycle' or 'auto'")
    return StabilityVerdict(witness is None, witness)
