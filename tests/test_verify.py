import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdsm import (
    AgentRef,
    Family,
    Instance,
    InvalidFamilyError,
    Matching,
    find_blocking_cycle,
    find_blocking_naive,
    is_strongly_blocking,
    is_weakly_stable,
    lift_3_to_k,
    random_instance,
    random_matching,
)
from kdsm.verify import improvement_masks, lex_families, partner_rows
from conftest import as_matching, oracle_blockers, oracle_is_stable


def family_000_blocks(inst, m):
    return is_strongly_blocking(inst, m, Family((0, 0, 0)))


class TestIsStronglyBlocking:
    def test_all_unmatched_blocks(self, tiny_complete):
        assert is_strongly_blocking(tiny_complete, Matching.of([]), Family((0, 0, 0)))

    def test_own_family_never_blocks(self, tiny_complete):
        m = Matching.of([(0, 0, 0)])
        assert not is_strongly_blocking(tiny_complete, m, Family((0, 0, 0)))

    def test_top_partner_blocks_nothing(self, rank0_first_instance):
        # derived by checking the three member preferences directly: woman 0
        # holds dog 0, her top choice, so (1, 0, 0) cannot block
        m = Matching.of([(0, 0, 0), (1, 1, 1)])
        assert not is_strongly_blocking(rank0_first_instance, m, Family((1, 0, 0)))
        assert (1, 0, 0) not in oracle_blockers(
            rank0_first_instance, [(0, 0, 0), (1, 1, 1)]
        )

    @pytest.mark.parametrize("members", [(0, 0, 0), [0, 0, 0]])
    def test_a_family_is_taken_as_matching_of_takes_it(self, tiny_complete, members):
        # the same sequence Matching.of and family_violations accept
        for m in (Matching.of([]), Matching.of([(0, 0, 0)])):
            want = is_strongly_blocking(tiny_complete, m, Family((0, 0, 0)))
            assert is_strongly_blocking(tiny_complete, m, members) == want
        with pytest.raises(InvalidFamilyError):
            is_strongly_blocking(tiny_complete, Matching.of([]), (0, 5, 0))

    def test_invalid_family_raises(self, tiny_complete):
        with pytest.raises(InvalidFamilyError):
            is_strongly_blocking(tiny_complete, Matching.of([]), Family((0, 5, 0)))


class TestFindBlocking:
    def test_empty_matching_smallest_witness(self, tiny_complete):
        assert find_blocking_naive(tiny_complete, Matching.of([])) == Family((0, 0, 0))

    def test_full_matching_stable(self, tiny_complete):
        assert find_blocking_naive(tiny_complete, Matching.of([(0, 0, 0)])) is None

    def test_antidiagonal_matching_stable(self, rank0_first_instance):
        # brute force over all 8 candidate families confirms no blocker
        fams = [(0, 1, 1), (1, 0, 0)]
        assert oracle_is_stable(rank0_first_instance, fams)
        assert find_blocking_naive(rank0_first_instance, as_matching(fams)) is None

    def test_naive_returns_lex_smallest(self):
        inst = random_instance(5, 3, 4, 1.0)
        blockers = oracle_blockers(inst, [])
        got = find_blocking_naive(inst, Matching.of([]))
        assert got is not None and got.members == min(blockers)

    def test_cycle_on_empty_matching(self, tiny_complete):
        w = find_blocking_cycle(tiny_complete, Matching.of([]))
        assert w is not None
        assert is_strongly_blocking(tiny_complete, Matching.of([]), w)

    def test_cycle_edgeless_graph(self):
        inst = random_instance(1, 3, 2, 0.0)
        assert find_blocking_cycle(inst, Matching.of([])) is None

    def test_cycle_on_lifted_no_stable(self, no_stable_instance):
        lifted, _ = lift_3_to_k(no_stable_instance, 5)
        naive = find_blocking_naive(lifted, Matching.of([]))
        cyc = find_blocking_cycle(lifted, Matching.of([]))
        assert (naive is None) == (cyc is None)
        if cyc is not None:
            assert is_strongly_blocking(lifted, Matching.of([]), cyc)


    @pytest.mark.parametrize(
        "find", [find_blocking_naive, find_blocking_cycle, family_000_blocks]
    )
    def test_matching_that_does_not_fit_raises(self, find):
        inst = random_instance(1, 3, 2, 1.0)
        with pytest.raises(InvalidFamilyError):
            find(inst, Matching.of([(0, 5, 0)]))  # member out of range
        with pytest.raises(InvalidFamilyError):
            find(inst, Matching.of([(0, 1)]))  # two members for k=3
        with pytest.raises(InvalidFamilyError):
            find(inst, Matching.of([(0, 0, 0), (0, 1, 1)]))  # agent (0, 0) twice
        # agent (0, 0) lists only (1, b) and is matched to (1, 1 - b); in the
        # second instance the family (0, 0, 0) is valid, so the matching alone
        # makes is_strongly_blocking raise
        rest = ((0, 1), (0, 1)), ((0, 1), (0, 1))
        for b in (1, 0):
            partial = Instance(3, 2, (((b,), (0, 1)), *rest))
            with pytest.raises(InvalidFamilyError):
                find(partial, Matching.of([(0, 1 - b, 1 - b)]))


class TestIsWeaklyStable:
    def test_full_singleton_stable(self, tiny_complete):
        assert is_weakly_stable(tiny_complete, Matching.of([(0, 0, 0)])).stable

    def test_empty_unstable_with_witness(self, tiny_complete):
        v = is_weakly_stable(tiny_complete, Matching.of([]))
        assert not v.stable and v.witness == Family((0, 0, 0))

    @pytest.mark.parametrize("method", ["naive", "cycle"])
    def test_methods_give_same_verdict(self, method, rank0_first_instance):
        for fams in ([], [(0, 0, 0), (1, 1, 1)], [(0, 1, 1), (1, 0, 0)]):
            m = as_matching(fams)
            auto = is_weakly_stable(rank0_first_instance, m).stable
            assert is_weakly_stable(rank0_first_instance, m, method=method).stable == auto

    def test_auto_is_the_cycle_verifier(self):
        rng = random.Random("auto-is-cycle")
        blocked = 0
        for _ in range(150):
            k, n = rng.choice((3, 4, 5)), rng.randint(1, 5)
            density = rng.choice((0.5, 1.0))
            inst = random_instance(rng.getrandbits(32), k, n, density)
            m = random_matching(inst, rng.getrandbits(32))
            v = is_weakly_stable(inst, m, method="auto")
            assert v.witness == find_blocking_cycle(inst, m)
            assert v.stable == (v.witness is None)
            blocked += v.witness is not None
        assert 0 < blocked < 150  # both verdicts seen


@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_oracle_equivalence_and_witness_soundness(seed):
    rng = random.Random(seed)
    k = rng.choice((3, 4, 5))
    n = rng.randint(1, 5)
    density = rng.choice((0.25, 0.5, 1.0))
    inst = random_instance(rng.getrandbits(32), k, n, density)
    m = random_matching(inst, rng.getrandbits(32))
    naive = find_blocking_naive(inst, m)
    cyc = find_blocking_cycle(inst, m)
    assert (naive is None) == (cyc is None)
    for witness in (naive, cyc):
        if witness is not None:
            assert is_strongly_blocking(inst, m, witness)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_stable_complete_matchings_are_perfect(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    inst = random_instance(rng.getrandbits(32), 3, n, 1.0)
    m = random_matching(inst, rng.getrandbits(32))
    if is_weakly_stable(inst, m).stable:
        assert len(m) == n  # every agent matched


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_restricted_walk_filters_the_unrestricted_one(seed):
    # free and starts only restrict: the walk equals the unrestricted walk
    # filtered by the start of member 0 and the free bits of members 1..k-1
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    n = rng.randint(0, 5)
    inst = random_instance(rng.getrandbits(32), k, n, rng.choice((0.4, 0.7, 0.9)))
    rows = partner_rows(inst, random_matching(inst, rng.getrandbits(32)))
    masks = improvement_masks(inst, rows if rng.random() < 0.5 else [[-1] * n] * k)
    free = [rng.getrandbits(n) for _ in range(k)]
    starts = sorted(rng.sample(range(n), rng.randint(0, n)))
    everything = list(lex_families(masks))
    assert list(lex_families(masks, free, starts)) == [
        f
        for f in everything
        if f[0] in starts and all(free[t] >> f[t] & 1 for t in range(1, k))
    ]
    assert list(lex_families(masks, free)) == [
        f for f in everything if all(free[t] >> f[t] & 1 for t in range(1, k))
    ]
    assert list(lex_families(masks, starts=starts)) == [
        f for f in everything if f[0] in starts
    ]
