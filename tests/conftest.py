"""Shared fixtures and independent brute-force oracles.

The oracle helpers below deliberately avoid the library's verification and
search code paths: they read raw preference tuples and use linear list
scans, so they can serve as ground truth for the optimized implementations.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from kdsm import Instance, Matching

DATA = Path(__file__).parent / "data"


def oracle_prefers(prefs, t, i, cand, incumbent) -> bool:
    """Raw list-scan preference test; incumbent None means unmatched."""
    lst = prefs[t][i]
    if cand not in lst:
        return False
    if incumbent is None or incumbent not in lst:
        return True
    return lst.index(cand) < lst.index(incumbent)


def oracle_families(inst: Instance) -> list[tuple[int, ...]]:
    """Every valid family by direct product scan."""
    k, n = inst.k, inst.n
    out = []
    for combo in itertools.product(range(n), repeat=k):
        if all(combo[(t + 1) % k] in inst.prefs[t][combo[t]] for t in range(k)):
            out.append(combo)
    return out


def oracle_partner_table(inst: Instance, families) -> list[list[int | None]]:
    table: list[list[int | None]] = [[None] * inst.n for _ in range(inst.k)]
    for fam in families:
        for t in range(inst.k):
            table[t][fam[t]] = fam[(t + 1) % inst.k]
    return table


def oracle_blockers(inst: Instance, matching_families) -> list[tuple[int, ...]]:
    """All strongly blocking families, by scanning every candidate family."""
    table = oracle_partner_table(inst, matching_families)
    out = []
    for fam in oracle_families(inst):
        if all(
            oracle_prefers(
                inst.prefs, t, fam[t], fam[(t + 1) % inst.k], table[t][fam[t]]
            )
            for t in range(inst.k)
        ):
            out.append(fam)
    return out


def oracle_is_stable(inst: Instance, matching_families) -> bool:
    return not oracle_blockers(inst, matching_families)


def oracle_all_matchings(inst: Instance) -> list[tuple[tuple[int, ...], ...]]:
    """Every matching, enumerated by filtering family combinations.

    Uses itertools.combinations over the family list (not the library's
    subset search) so small spaces can be cross-checked structurally.
    """
    fams = oracle_families(inst)
    out = []
    # disjoint families hold distinct type-0 agents, so at most n of them
    for size in range(min(len(fams), inst.n) + 1):
        for combo in itertools.combinations(fams, size):
            disjoint = all(
                a[t] != b[t]
                for a, b in itertools.combinations(combo, 2)
                for t in range(inst.k)
            )
            if disjoint:
                out.append(combo)
    return out


def oracle_stable_matchings(inst: Instance) -> list[tuple[tuple[int, ...], ...]]:
    return [m for m in oracle_all_matchings(inst) if oracle_is_stable(inst, m)]


def mutate_instance(inst: Instance, seed: int, density: float = 0.5) -> Instance:
    """Redraw 1-3 seeded preference lists of ``inst`` at ``density``."""
    rng = random.Random(seed)
    prefs = [list(row) for row in inst.prefs]
    for _ in range(rng.randint(1, 3)):
        t = rng.randrange(inst.k)
        i = rng.randrange(inst.n)
        sub = [c for c in range(inst.n) if rng.random() < density]
        rng.shuffle(sub)
        prefs[t][i] = tuple(sub)
    return Instance(inst.k, inst.n, tuple(tuple(row) for row in prefs))


def oracle_random_instance(seed: int, k: int, n: int, density: float = 1.0) -> Instance:
    """``random_instance``'s stream as first written: per agent in (t, i)
    order, n ``random()`` inclusion draws, then the stdlib's ``shuffle`` of
    the kept candidates."""
    rng = random.Random(seed)
    prefs = []
    for _t in range(k):
        row = []
        for _i in range(n):
            sub = [c for c in range(n) if rng.random() < density]
            rng.shuffle(sub)
            row.append(tuple(sub))
        prefs.append(tuple(row))
    return Instance(k, n, tuple(prefs))


def oracle_enumerate_instances(k: int, n: int, complete: bool):
    """``enumerate_instances`` as first written: a product over rows of
    fresh list tuples, each instance built on its own, so its ``_better``
    and text come from the per-list build."""
    if complete:
        options = list(itertools.permutations(range(n)))
    else:
        options = [p for size in range(n + 1) for p in itertools.permutations(range(n), size)]
    rows = itertools.product(options, repeat=n)
    return (Instance(k, n, prefs) for prefs in itertools.product(rows, repeat=k))


def oracle_derived_seed(seed: int, name: str, idx: int) -> int:
    """The seed of a sampled experiment's idx-th instance, as first written."""
    return random.Random(f"{seed}:{name}:{idx}").getrandbits(63)


def oracle_lane(inst: Instance) -> list[int]:
    """A complete instance as a lane of the batch kernel: the index of each
    list, in (t, i) order, among the permutations of range(n) in
    lexicographic order."""
    index = {p: j for j, p in enumerate(itertools.permutations(range(inst.n)))}
    return [index[lst] for row in inst.prefs for lst in row]


def as_matching(families) -> Matching:
    return Matching.of([tuple(f) for f in families])


@pytest.fixture(scope="session")
def rank0_first_instance() -> Instance:
    """Complete k=3, n=2 instance where every agent ranks index 0 first."""
    row = (((0, 1), (0, 1)),) * 3
    return Instance(3, 2, row)


@pytest.fixture(scope="session")
def tiny_complete() -> Instance:
    """Complete k=3, n=1 instance."""
    return Instance(3, 1, (((0,),), ((0,),), ((0,),)))


@pytest.fixture(scope="session")
def no_stable_instance() -> Instance:
    from kdsm import parse_instance

    return parse_instance((DATA / "no_stable_3dsmi.kdsm").read_text())
