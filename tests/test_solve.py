import gc
import random
from functools import partial
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdsm import (
    ArgumentError,
    Budget,
    Instance,
    KdsmError,
    Matching,
    SolveStatus,
    SpaceTooLargeError,
    complete_instance,
    count_matchings,
    count_weakly_stable,
    enumerate_instances,
    enumerate_weakly_stable,
    find_blocking_cycle,
    find_blocking_naive,
    find_weakly_stable,
    is_weakly_stable,
    random_instance,
)
from kdsm import solve
from kdsm.genlab import certify_no_stable
from kdsm.verify import first_blocker, improvement_masks, partner_rows
import oracle_solve
from conftest import (
    as_matching,
    mutate_instance,
    oracle_all_matchings,
    oracle_families,
    oracle_is_stable,
    oracle_lane,
    oracle_stable_matchings,
)


class TestEnumerate:
    def test_unique_solution_n1(self, tiny_complete):
        assert enumerate_weakly_stable(tiny_complete) == [Matching.of([(0, 0, 0)])]

    def test_rank0_first_has_both_perfect_matchings(self, rank0_first_instance):
        # brute force over all 8 families certifies the stable set; both the
        # aligned and the swapped perfect matching are in it
        want = {
            tuple(sorted(m)) for m in oracle_stable_matchings(rank0_first_instance)
        }
        assert ((0, 0, 0), (1, 1, 1)) in want
        assert ((0, 1, 1), (1, 0, 0)) in want
        got = enumerate_weakly_stable(rank0_first_instance)
        assert {tuple(f.members for f in m) for m in got} == want

    def test_matches_oracle_on_random_incomplete(self, no_stable_instance):
        # k = 2..5 at densities 0.3-0.7: the enumeration in canonical order
        # (the sorted one), every count, the matching count and the
        # certificate against the oracle; the complete inputs pin the
        # perfect-matching walk to it, and the fixture has no stable matching
        rng = random.Random(3)
        sizes = [(2, 5), (3, 3), (4, 3), (5, 2), (5, 3)]
        cases = [(k, rng.randint(0, n), rng.uniform(0.3, 0.7)) for k, n in sizes for _ in range(20)]
        cases += [(2, n, 1.0) for n in (1, 2, 3, 3)] + [(3, 2, 1.0)] * 3 + [(4, 2, 1.0)] * 2
        insts = [random_instance(rng.getrandbits(32), *case) for case in cases]
        for inst in [*insts, no_stable_instance]:
            every = oracle_all_matchings(inst)
            want = sorted(tuple(sorted(m)) for m in every if oracle_is_stable(inst, m))
            got = [tuple(f.members for f in m) for m in enumerate_weakly_stable(inst)]
            assert got == want, inst
            for limit in (None, 1, 2, 3):
                assert count_weakly_stable(inst, limit) == len(want[:limit]), (inst, limit)
            assert count_matchings(inst) == len(every), inst
            if want:
                with pytest.raises(ArgumentError):
                    certify_no_stable(inst)
            else:
                cert = certify_no_stable(inst)
                assert (cert.families, cert.matchings) == (len(oracle_families(inst)), len(every))
        assert sum(1 for inst in insts if not inst.is_complete) >= 70

    def test_walk_keeps_the_improvement_masks_of_its_matching(self, no_stable_instance):
        # the masks a commit sets and an undo restores are those of the
        # yielded matching's partner rows, and the acceptable masks stay
        rng = random.Random(21)
        insts = [random_instance(rng.getrandbits(32), k, rng.randint(1, 3), rng.uniform(0.3, 0.7))
                 for k in range(2, 6) for _ in range(5)]
        insts += [random_instance(4, 3, 3, 1.0), no_stable_instance]
        for inst in insts:
            acc = solve._acceptable(inst)
            for perfect in (False, True):
                for chosen, imp in solve._matchings(inst, perfect, acc):
                    rows = partner_rows(inst, Matching.of(chosen))
                    assert imp == improvement_masks(inst, rows), (inst, chosen)
            assert acc == improvement_masks(inst, [[-1] * inst.n] * inst.k)

    def test_limit_zero_is_empty(self, rank0_first_instance, no_stable_instance):
        assert enumerate_weakly_stable(rank0_first_instance, limit=0) == []
        mutated = mutate_instance(no_stable_instance, 0)
        assert enumerate_weakly_stable(mutated, limit=0) == []

    def test_limit_is_canonical_prefix(self, rank0_first_instance):
        full = enumerate_weakly_stable(rank0_first_instance)
        assert enumerate_weakly_stable(rank0_first_instance, limit=1) == full[:1]

    def test_canonical_order_sorted(self):
        inst = random_instance(17, 3, 3, 1.0)
        got = [tuple(f.members for f in m) for m in enumerate_weakly_stable(inst)]
        assert got == sorted(got)

    def test_space_bound(self):
        big = random_instance(0, 3, 60, 1.0)
        with pytest.raises(SpaceTooLargeError) as exc:
            enumerate_weakly_stable(big)
        assert exc.value.required > exc.value.bound

    def test_matching_walk_bound(self, monkeypatch):
        # 8,098 families pass the family bound, but the matchings over them
        # run far past it: the walk raises before its (bound + 1)-th matching
        monkeypatch.setattr(solve, "MAX_CANDIDATE_FAMILIES", 10_000)
        inst = random_instance(1, 3, 40, 0.5)
        for call in (partial(enumerate_weakly_stable, inst, limit=1),
                     partial(count_weakly_stable, inst), partial(count_matchings, inst)):
            with pytest.raises(SpaceTooLargeError, match="10001 or more matchings"):
                call()

    def test_family_bound_walks_only_past_n_to_the_k(self, monkeypatch):
        # a family is one of n^k tuples: while n^k fits the bound the family
        # walk is skipped, and past it a refusal keeps the family walk's text
        inst = random_instance(0, 3, 4, 0.6)  # incomplete, 12 families
        want = (count_weakly_stable(inst), count_matchings(inst))

        def walked(acc):
            raise AssertionError("the family bound was walked")

        with monkeypatch.context() as patch:
            patch.setattr(solve, "_check_family_bound", walked)
            assert (count_weakly_stable(inst), count_matchings(inst)) == want
        monkeypatch.setattr(solve, "MAX_CANDIDATE_FAMILIES", 10)
        for call in (partial(count_weakly_stable, inst), partial(count_matchings, inst)):
            with pytest.raises(SpaceTooLargeError, match="11 or more candidate families"):
                call()

    def test_no_stable_fixture_enumerates_empty(self, no_stable_instance):
        assert enumerate_weakly_stable(no_stable_instance) == []

    def test_walks_leave_no_cyclic_garbage(self, no_stable_instance):
        # the family and matching walks and the budgeted solver hold no
        # self-reference, so every call frees what it built without the
        # cyclic collector
        incomplete = random_instance(5, 3, 4, 0.6)
        complete = random_instance(5, 3, 3, 1.0)
        completed, _ = complete_instance(no_stable_instance)
        calls = [lambda: find_blocking_naive(incomplete, Matching.of([])),
                 lambda: count_matchings(incomplete)]
        calls += [partial(enumerate_weakly_stable, inst, limit)
                  for inst in (complete, incomplete) for limit in (None, 1)]
        # one solver call per status: FOUND, EXHAUSTED-NONE, BUDGET-EXCEEDED
        calls += [partial(find_weakly_stable, incomplete),
                  partial(find_weakly_stable, no_stable_instance),
                  partial(find_weakly_stable, completed, Budget(max_nodes=2_000))]
        for inst in (incomplete, complete, no_stable_instance, completed):
            inst._better  # built once, outside the calls
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0, call
        finally:
            gc.enable()


def batch_verdicts(k, n, insts, size):
    """Per instance, whether ``_scan_batch`` finds it without a weakly stable
    matching, deciding ``size`` lanes at a time."""
    out = []
    for start in range(0, len(insts), size):
        chunk = insts[start : start + size]
        mask = solve._scan_batch(k, n, [oracle_lane(inst) for inst in chunk])
        assert mask >> len(chunk) == 0
        out += [bool(mask >> b & 1) for b in range(len(chunk))]
    return out


class TestScanBatch:
    """The batch kernel against the per-instance capped count, lane by lane."""

    @pytest.mark.parametrize("k, n", [(3, 1), (3, 2), (4, 2), (5, 2), (6, 2)])
    def test_every_exhaustive_lane_matches_the_capped_count(self, k, n):
        insts = list(enumerate_instances(k, n, True))
        want = [count_weakly_stable(inst, limit=1) == 0 for inst in insts]
        assert batch_verdicts(k, n, insts, 4096) == want

    @pytest.mark.parametrize("start", [0, 46_656 - 1000])  # the second crosses a type-1 step
    def test_a_k3n3_slice_matches_the_capped_count(self, start):
        insts = list(islice(enumerate_instances(3, 3, True), start, start + 2000))
        want = [count_weakly_stable(inst, limit=1) == 0 for inst in insts]
        assert batch_verdicts(3, 3, insts, 1024) == want

    # n = 6 and 7 take the lanes' indices through map, not bytes.translate
    @pytest.mark.parametrize(
        "k, n", [(3, 3), (3, 4), (3, 5), (4, 3), (5, 2), (5, 3), (2, 6), (2, 7)]
    )
    def test_sampled_lanes_match_the_capped_count_at_ragged_sizes(self, k, n):
        rng = random.Random(k * 10 + n)
        insts = [random_instance(rng.getrandbits(63), k, n) for _ in range(130)]
        want = [count_weakly_stable(inst, limit=1) == 0 for inst in insts]
        for size in (1, 63, 64, 65):
            assert batch_verdicts(k, n, insts, size) == want, size

    @pytest.mark.parametrize("k, n", [(2, 3), (3, 2), (3, 3), (4, 2), (2, 6)])
    def test_each_matchings_blocked_lanes_are_first_blockers(self, k, n):
        # every perfect matching, in the scan's order: type t's permutation
        # sends each type-0 agent to its family's type-t member
        rng = random.Random(n * 10 + k)
        insts = [random_instance(rng.getrandbits(63), k, n) for _ in range(65)]
        insts.append(Instance(k, n, ((tuple(range(n)),) * n,) * k))
        walk = solve._blocked_lanes(k, n, [oracle_lane(inst) for inst in insts])
        for perms in product(permutations(range(n)), repeat=k - 1):
            members = (tuple(range(n)), *perms)
            rows = [[-1] * n for _ in range(k)]
            for t in range(k):
                for a in range(n):
                    rows[t][members[t][a]] = members[(t + 1) % k][a]
            blocked = next(walk)
            for b, inst in enumerate(insts):
                assert (blocked >> b & 1) == (first_blocker(inst, rows) is not None), b
        assert next(walk, None) is None

    def test_past_k3_the_perfect_bound_is_checked(self):
        # as count_weakly_stable(inst, limit=1) does: (6!)^3 perfect matchings
        with pytest.raises(SpaceTooLargeError):
            solve._scan_batch(4, 6, [[0] * 24])


class TestCount:
    def test_unique_n1(self, tiny_complete):
        assert count_weakly_stable(tiny_complete) == 1

    def test_identical_prefs_give_at_least_two(self):
        # all agents of a type share one list; full enumeration counts the
        # stable matchings directly
        inst = Instance(3, 2, (((0, 1), (0, 1)),) * 3)
        assert count_weakly_stable(inst) == len(oracle_stable_matchings(inst)) >= 2

    def test_fast_path_matches_enumeration(self):
        rng = random.Random(9)
        for k, max_n in ((3, 3), (2, 4), (4, 3), (5, 3), (6, 2)):
            for _ in range(20):
                inst = random_instance(rng.getrandbits(32), k, rng.randint(1, max_n), 1.0)
                assert count_weakly_stable(inst) == len(enumerate_weakly_stable(inst)), k

    def test_scan_matches_enumeration_on_every_complete_k4_n2(self):
        insts = list(enumerate_instances(4, 2, True))
        assert len(insts) == 256
        for inst in insts:
            want = len(enumerate_weakly_stable(inst))
            assert count_weakly_stable(inst) == want
            assert count_weakly_stable(inst, limit=1) == min(1, want)

    def test_scan_without_the_permutation_cache(self, monkeypatch):
        # past PERM_CACHE_MAX_N the permutations are walked afresh and a
        # full count decides the last permutations one at a time
        monkeypatch.setattr(solve, "PERM_CACHE_MAX_N", 2)
        monkeypatch.setattr(solve, "_PERMS", {})
        rng = random.Random(15)
        for k in (2, 3, 4):
            for _ in range(5):
                inst = random_instance(rng.getrandbits(32), k, 3, 1.0)
                want = len(enumerate_weakly_stable(inst))
                assert count_weakly_stable(inst) == want
                assert count_weakly_stable(inst, limit=2) == min(2, want)

    def test_bit_parallel_count_matches_the_lazy_scan(self, monkeypatch):
        # a full count decides every last permutation at once up to
        # PERM_CACHE_MAX_N; at 0 the same instances go one permutation at a time
        rng = random.Random(16)
        insts = [random_instance(rng.getrandbits(32), k, n, 1.0)
                 for k, n in ((3, 5), (3, 6), (4, 4), (5, 3), (6, 2)) for _ in range(2)]
        counts = [count_weakly_stable(inst) for inst in insts]
        monkeypatch.setattr(solve, "PERM_CACHE_MAX_N", 0)
        assert [count_weakly_stable(inst) for inst in insts] == counts

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_count_is_invariant_under_relabelling(self, data):
        # renaming the agents of each type by its own permutation maps the
        # weakly stable matchings one to one
        k = data.draw(st.sampled_from((3, 4)), label="k")
        n = data.draw(st.integers(1, 6 if k == 3 else 4), label="n")
        inst = random_instance(data.draw(st.integers(0, 2**32 - 1), label="seed"), k, n, 1.0)
        sigma = [data.draw(st.permutations(range(n)), label=f"sigma{t}") for t in range(k)]
        prefs = [[()] * n for _ in range(k)]
        for t in range(k):
            nxt = sigma[(t + 1) % k]
            for i, lst in enumerate(inst.prefs[t]):
                prefs[t][sigma[t][i]] = tuple(nxt[j] for j in lst)
        relabelled = Instance(k, n, tuple(map(tuple, prefs)))
        assert count_weakly_stable(relabelled) == count_weakly_stable(inst)

    def test_many_types_need_no_recursion(self):
        # the permutations of types 1..k-2 are walked on a stack: k past the
        # interpreter's recursion limit is scanned like any other
        inst = random_instance(0, 1200, 1, 1.0)
        assert count_weakly_stable(inst) == count_weakly_stable(inst, limit=1) == 1
        assert len(enumerate_weakly_stable(inst)) == 1

    @pytest.mark.parametrize("limit", [1.5, 2.0, "2", True])
    def test_a_non_integer_limit_is_refused(self, limit):
        # a complete instance goes through the scan, an incomplete one through
        # enumeration; neither takes a limit that is not an int
        for density in (1.0, 0.6):
            inst = random_instance(1, 3, 4, density)
            for call in (count_weakly_stable, enumerate_weakly_stable):
                with pytest.raises(ArgumentError, match="limit must be an integer or None"):
                    call(inst, limit=limit)

    def test_scan_leaves_no_cyclic_garbage(self):
        # a reference cycle per call would keep each instance's table alive
        # until the cyclic collector runs, which slowed the existence runs
        inst = random_instance(5, 4, 3, 1.0)
        inst._better
        gc.collect()
        gc.disable()
        try:
            count_weakly_stable(inst, limit=1)
            count_weakly_stable(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_small_complete_instances_nonzero(self):
        rng = random.Random(10)
        for _ in range(30):
            inst = random_instance(rng.getrandbits(32), 3, rng.randint(1, 4), 1.0)
            assert count_weakly_stable(inst) >= 1

    @pytest.mark.parametrize(
        "k, n, density",
        [(3, 3, 1.0), (3, 4, 1.0), (3, 3, 0.6), (4, 2, 0.7), (2, 4, 1.0), (4, 3, 1.0),
         (5, 3, 1.0), (6, 2, 1.0)],
    )
    def test_limit_caps_the_count(self, k, n, density):
        # complete instances go through the scan, the rest through enumeration
        rng = random.Random(12)
        for _ in range(8):
            inst = random_instance(rng.getrandbits(32), k, n, density)
            full = count_weakly_stable(inst)
            for limit in (1, 2, 5):
                assert count_weakly_stable(inst, limit=limit) == min(limit, full)

    def test_limit_zero_or_negative_is_zero(self, tiny_complete, no_stable_instance):
        for inst in (tiny_complete, no_stable_instance):
            assert count_weakly_stable(inst, limit=0) == 0
            assert count_weakly_stable(inst, limit=-2) == 0

    def test_capped_scan_skips_the_space_bound(self, monkeypatch):
        monkeypatch.setattr(solve, "MAX_CANDIDATE_FAMILIES", 10)
        inst = random_instance(3, 3, 3, 1.0)
        with pytest.raises(SpaceTooLargeError):
            count_weakly_stable(inst)
        assert count_weakly_stable(inst, limit=1) == 1

    def test_capped_count_keeps_the_perfect_bound_past_k3(self, monkeypatch):
        # the scan serves every k, but only k=3 lets a capped count skip the bound
        monkeypatch.setattr(solve, "MAX_PERFECT_MATCHINGS", 100)
        inst = random_instance(4, 4, 3, 1.0)  # 6^3 = 216 perfect matchings
        with pytest.raises(SpaceTooLargeError, match="216 perfect matchings"):
            count_weakly_stable(inst, limit=1)
        assert count_weakly_stable(random_instance(4, 3, 4, 1.0), limit=1) == 1

    def test_count_matchings_against_oracle(self):
        rng = random.Random(11)
        cases = [(3, 2, rng.choice((0.4, 0.8))) for _ in range(15)]
        cases += [(2, 3, rng.choice((0.4, 0.8))) for _ in range(5)]
        cases += [(4, 2, rng.choice((0.4, 0.8))) for _ in range(5)] + [(3, 2, 1.0)]
        for k, n, density in cases:
            inst = random_instance(rng.getrandbits(32), k, n, density)
            assert count_matchings(inst) == len(oracle_all_matchings(inst)), (k, n, density)


class TestFind:
    def test_trivial_found(self, tiny_complete):
        out = find_weakly_stable(tiny_complete)
        assert out.status is SolveStatus.FOUND
        assert out.matching == Matching.of([(0, 0, 0)])

    def test_no_stable_fixture_exhausts(self, no_stable_instance):
        out = find_weakly_stable(no_stable_instance)
        assert out.status is SolveStatus.EXHAUSTED_NONE
        assert out.matching is None

    def test_budget_exceeded_is_inconclusive(self, no_stable_instance):
        out = find_weakly_stable(no_stable_instance, Budget(max_nodes=2))
        assert out.status is SolveStatus.BUDGET_EXCEEDED

    def test_completed_no_stable_never_found_small_budget(self, no_stable_instance):
        comp, _ = complete_instance(no_stable_instance)
        out = find_weakly_stable(comp, Budget(max_nodes=30_000))
        assert out.status in (SolveStatus.BUDGET_EXCEEDED, SolveStatus.EXHAUSTED_NONE)
        assert out.status is not SolveStatus.FOUND

    def test_time_budget_stops_at_the_first_deadline_check(self, no_stable_instance):
        # the deadline is read every 1,024th node, so an expired one stops
        # the search at exactly that node
        comp, _ = complete_instance(no_stable_instance)
        out = find_weakly_stable(comp, Budget(max_seconds=0.0))
        assert (out.status, out.nodes_explored) == (SolveStatus.BUDGET_EXCEEDED, 1024)
        assert out.matching is None

    def test_zero_node_budget_explores_nothing(self, no_stable_instance):
        out = find_weakly_stable(no_stable_instance, Budget(max_nodes=0))
        assert (out.status, out.nodes_explored) == (SolveStatus.BUDGET_EXCEEDED, 0)
        assert out.matching is None
        # a positive budget still stops at its last node
        out = find_weakly_stable(no_stable_instance, Budget(max_nodes=1))
        assert (out.status, out.nodes_explored) == (SolveStatus.BUDGET_EXCEEDED, 1)

    @pytest.mark.parametrize(
        "kw", [dict(max_nodes=-5), dict(max_nodes=-1), dict(max_seconds=-1.0),
               dict(max_seconds=float("nan"))]
    )
    def test_negative_budget_raises(self, kw):
        with pytest.raises(KdsmError, match="must be >= 0"):
            Budget(**kw)

    def test_agrees_with_enumeration(self):
        rng = random.Random(13)
        for _ in range(40):
            inst = random_instance(rng.getrandbits(32), 3, rng.randint(0, 3), rng.choice((0.3, 0.7, 1.0)))
            count = len(enumerate_weakly_stable(inst))
            out = find_weakly_stable(inst)
            if count:
                assert out.status is SolveStatus.FOUND
                assert find_blocking_naive(inst, out.matching) is None
                assert find_blocking_cycle(inst, out.matching) is None
            else:
                assert out.status is SolveStatus.EXHAUSTED_NONE

    def test_exhausted_none_matches_enumeration_on_mutations(self, no_stable_instance):
        # fixture mutations are the one seeded source of instances that
        # really lack a stable matching, so EXHAUSTED-NONE is exercised here
        statuses = set()
        for seed in range(300):
            inst = mutate_instance(no_stable_instance, seed)
            out = find_weakly_stable(inst)
            statuses.add(out.status)
            exists = bool(enumerate_weakly_stable(inst, limit=1))
            want = SolveStatus.FOUND if exists else SolveStatus.EXHAUSTED_NONE
            assert out.status is want, f"mutation seed {seed}"
        assert statuses == {SolveStatus.FOUND, SolveStatus.EXHAUSTED_NONE}

    def test_deterministic_nodes(self, no_stable_instance):
        a = find_weakly_stable(no_stable_instance)
        b = find_weakly_stable(no_stable_instance)
        assert a.nodes_explored == b.nodes_explored
        assert a.status == b.status

    def test_found_matchings_perfect_on_complete(self):
        rng = random.Random(14)
        for _ in range(10):
            inst = random_instance(rng.getrandbits(32), 3, rng.randint(1, 4), 1.0)
            out = find_weakly_stable(inst)
            assert out.status is SolveStatus.FOUND
            assert len(out.matching) == inst.n

    def test_large_n_needs_no_recursion(self):
        # one decision level per type-0 agent, held on a stack: an instance
        # past the interpreter's recursion limit is searched like any other
        inst = random_instance(3, 2, 1100, 0.003)
        out = find_weakly_stable(inst)
        assert (out.status, out.nodes_explored) == (SolveStatus.FOUND, 1100)
        assert is_weakly_stable(inst, out.matching).stable

    def test_empty_instance(self):
        inst = random_instance(0, 3, 0, 1.0)
        out = find_weakly_stable(inst)
        assert out.status is SolveStatus.FOUND
        assert out.matching == Matching.of([])


def outcome_key(out):
    return out.status, out.nodes_explored, out.matching


class TestFindAgainstOracle:
    """``find_weakly_stable`` reuses one anchor walk's verdict for the sibling
    families that follow it; the solver before that reuse, kept verbatim in
    ``oracle_solve``, must give the same status, node count and matching."""

    @pytest.fixture(params=[2, 6, 8, 16, 256])
    def cap(self, request, monkeypatch):
        monkeypatch.setattr(solve, "PRUNE_WORK_CAP", request.param)
        monkeypatch.setattr(oracle_solve, "PRUNE_WORK_CAP", request.param)
        return request.param

    def assert_same(self, inst, budget=None):
        got = solve.find_weakly_stable(inst, budget)
        assert outcome_key(got) == outcome_key(oracle_solve.find_weakly_stable(inst, budget))

    def test_fixture_mutations(self, cap, no_stable_instance):
        for seed in range(40):
            self.assert_same(mutate_instance(no_stable_instance, seed))

    def test_random_instances(self, cap):
        max_n = {2: 9, 3: 7, 4: 5, 5: 4, 6: 4}
        rng = random.Random(cap)
        budget = Budget(max_nodes=3000)
        for k, density in product(range(2, 7), (0.5, 0.7, 1.0)):
            for _ in range(4):
                self.assert_same(
                    random_instance(rng.getrandbits(63), k, rng.randint(1, max_n[k]), density),
                    budget,
                )

    @pytest.mark.parametrize("nodes", [1, 1023, 1024, 1025, 20_000])
    def test_completed_fixture_at_budgets(self, nodes, no_stable_instance):
        comp, _ = complete_instance(no_stable_instance)
        self.assert_same(comp, Budget(max_nodes=nodes))

    @pytest.mark.parametrize(
        "args, cap, budget, nodes",
        [
            # storing a verdict whose walk read a prefix member gives 191
            ((3434762721868830217, 4, 5, 0.5), 8, 2000, 192),
            # reusing it for a last member the walk read gives 1,411
            ((2461357306639081609, 3, 7, 1.0), 16, 3000, 1431),
        ],
    )
    def test_pinned_reuse_boundaries(self, monkeypatch, args, cap, budget, nodes):
        monkeypatch.setattr(solve, "PRUNE_WORK_CAP", cap)
        monkeypatch.setattr(oracle_solve, "PRUNE_WORK_CAP", cap)
        inst = random_instance(*args)
        out = solve.find_weakly_stable(inst, Budget(max_nodes=budget))
        assert (out.status, out.nodes_explored) == (SolveStatus.FOUND, nodes)
        self.assert_same(inst, Budget(max_nodes=budget))
