import random

import pytest

from kdsm import (
    ArgumentError,
    DimensionError,
    Instance,
    KdsmError,
    Matching,
    SpaceTooLargeError,
    certify_no_stable,
    count_instances,
    enumerate_instances,
    enumerate_weakly_stable,
    instance_digest,
    random_instance,
    random_matching,
    run_experiment,
    search_counterexample,
    serialize_report,
    validate_instance,
    validate_matching,
)
from kdsm.core import shared_permutations
from kdsm.genlab import UnknownExperimentError, list_options
from conftest import oracle_random_instance


class TestRandomInstance:
    def test_density_one_is_complete(self):
        assert random_instance(1, 3, 4, 1.0).is_complete

    def test_density_zero_all_empty(self):
        inst = random_instance(1, 3, 3, 0.0)
        assert all(lst == () for row in inst.prefs for lst in row)
        assert enumerate_weakly_stable(inst) == [Matching.of([])]

    def test_same_seed_same_instance(self):
        a = random_instance(42, 4, 5, 0.6)
        b = random_instance(42, 4, 5, 0.6)
        assert a == b
        assert a != random_instance(43, 4, 5, 0.6)

    def test_always_valid(self):
        for seed in range(30):
            rep = validate_instance(random_instance(seed, 3, 4, 0.5))
            assert rep.ok

    @pytest.mark.parametrize(
        "k, n, density, error, match",
        [
            (1, 2, 1.0, DimensionError, "invalid dimensions k=1, n=2"),
            (3, -1, 1.0, DimensionError, "invalid dimensions k=3, n=-1"),
            (3.0, 2, 1.0, DimensionError, "dimensions must be integers"),
            (3, True, 1.0, DimensionError, "dimensions must be integers"),
            (3, 2.5, 1.0, DimensionError, "dimensions must be integers"),
            (3, 2, 1.5, KdsmError, "density must be in"),
            (3, 2, -0.1, KdsmError, "density must be in"),
            (3, 2, "1", ArgumentError, "density must be a real number"),
            (3, 2, None, ArgumentError, "density must be a real number"),
        ],
    )
    def test_bad_parameters_raise(self, k, n, density, error, match):
        with pytest.raises(error, match=match):
            random_instance(0, k, n, density)

    @pytest.mark.parametrize("seed", [None, True, 1.0, "1"])
    def test_a_seed_that_is_not_an_int_is_refused(self, seed):
        # None would seed from the operating system's entropy
        with pytest.raises(ArgumentError, match="seed must be an integer"):
            random_instance(seed, 3, 2)
        with pytest.raises(ArgumentError, match="seed must be an integer"):
            random_matching(random_instance(0, 3, 2), seed)

    def test_the_stream_matches_the_stdlib_shuffle_oracle(self):
        # the complete path reads the shuffle's draws through a table of
        # shared permutations; every path keeps the oracle's stream
        rng = random.Random(16)
        for k in range(2, 7):
            for n in range(9):
                for density in (0, 0.3, 0.55, 1.0, 1):
                    for _ in range(12):
                        seed = rng.getrandbits(63)
                        got = random_instance(seed, k, n, density)
                        want = oracle_random_instance(seed, k, n, density)
                        assert got.prefs == want.prefs, (seed, k, n, density)
                        assert instance_digest(got) == instance_digest(want)
                        assert [list(map(list, row)) for row in got._better] == want._better

    def test_the_stream_does_not_read_the_stdlib_shuffle(self, monkeypatch):
        want = [random_instance(7, 3, n, d) for n in (3, 9) for d in (0.55, 1.0)]

        def no_shuffle(*_args):
            pytest.fail("drew through random.Random.shuffle")

        monkeypatch.setattr(random.Random, "shuffle", no_shuffle)
        assert [random_instance(7, 3, n, d) for n in (3, 9) for d in (0.55, 1.0)] == want

    def test_complete_lists_are_the_shared_permutations(self):
        insts = [random_instance(5, 3, n) for n in (1, 3, 4)]
        insts += enumerate_instances(2, 2, True)
        for inst in insts:
            shared = {id(p) for p in shared_permutations(inst.n)}
            assert {id(lst) for row in inst.prefs for lst in row} <= shared
        assert all(a is b for a, b in zip(list_options(3, True), shared_permutations(3)))
        assert all(a is b for a, b in zip(list_options(3, False)[-6:], shared_permutations(3)))

    def test_random_matching_valid(self):
        for seed in range(30):
            inst = random_instance(seed, 3, 3, 0.7)
            m = random_matching(inst, seed + 1)
            assert validate_matching(inst, m).ok


class TestEnumerateInstances:
    def test_complete_n1_single(self):
        assert len(list(enumerate_instances(3, 1, complete=True))) == 1

    def test_complete_n2_count(self):
        insts = list(enumerate_instances(3, 2, complete=True))
        assert len(insts) == 64 == count_instances(3, 2, complete=True)
        assert len({instance_digest(i) for i in insts}) == 64

    def test_incomplete_n2_count(self):
        assert count_instances(3, 2, complete=False) == 5**6 == 15625
        insts = list(enumerate_instances(3, 2, complete=False))
        assert len(insts) == 15625
        assert len({instance_digest(i) for i in insts}) == 15625

    def test_option_order_canonical(self):
        assert list_options(2, complete=False) == [(), (0,), (1,), (0, 1), (1, 0)]

    @pytest.mark.parametrize("n", [1.5, 2.0, True])
    def test_a_dimension_that_is_not_an_int_is_refused(self, n):
        calls = [
            lambda: enumerate_instances(3, n, True),
            lambda: count_instances(3, n, True),
            lambda: run_experiment("boros-bound", n=n),
        ]
        for call in calls:
            with pytest.raises(DimensionError, match="dimensions must be integers"):
                call()

    def test_space_bound(self):
        with pytest.raises(SpaceTooLargeError):
            list(enumerate_instances(3, 4, complete=True))  # 24^12 instances


class TestSearchCounterexample:
    def test_small_sizes_have_no_counterexample(self):
        # n = 1: either no family (empty matching stable) or a one-family
        # matching that is stable; exhaustive over all 8 instances
        for inst in enumerate_instances(3, 1, complete=False):
            assert len(enumerate_weakly_stable(inst)) >= 1

    def test_fixture_re_certifies(self, no_stable_instance):
        cert = certify_no_stable(no_stable_instance)
        assert cert.stable == 0
        assert cert.matchings >= cert.families >= 1
        assert cert.digest == instance_digest(no_stable_instance)

    def test_certify_rejects_stable_instance(self, tiny_complete):
        with pytest.raises(ArgumentError):
            certify_no_stable(tiny_complete)


class TestExperiments:
    def test_unknown_id(self):
        with pytest.raises(UnknownExperimentError, match="known ids: boros-bound, "):
            run_experiment("nope")

    @pytest.mark.parametrize(
        "kw, error, match",
        [
            (dict(k=1), DimensionError, "k must be >= 2, got 1"),
            (dict(k=0), DimensionError, "k must be >= 2, got 0"),
            (dict(n=-1), DimensionError, "n must be >= 0, got -1"),
            (dict(samples=-3), KdsmError, "samples"),
            (dict(samples=5, threads=0), KdsmError, "threads"),
        ],
    )
    def test_bad_parameters_raise(self, kw, error, match):
        for experiment in ("boros-bound", "eriksson-bound"):
            with pytest.raises(error, match=match):
                run_experiment(experiment, **kw)

    @pytest.mark.parametrize(
        "experiment, kw, named",
        [
            ("pp-two-matchings", dict(k=4, n=4, samples=1), "k, n"),
            ("eriksson-bound", dict(full=True), "full"),
            ("verifier-equivalence", dict(samples=5, threads=2), "threads"),
            ("complete-positive", dict(samples=5, target_k=4), "target_k"),
        ],
    )
    def test_argument_the_entry_does_not_name_raises(self, experiment, kw, named):
        with pytest.raises(KdsmError, match=f"{experiment} does not take {named}$"):
            run_experiment(experiment, **kw)

    def test_boros_n2_exhaustive(self):
        rep = run_experiment("boros-bound", n=2)
        assert rep.ok
        summary = dict(rep.summary)
        assert summary["total"] == "64" and summary["with_stable"] == "64"
        assert dict(rep.params)["mode"] == "exhaustive"

    def test_report_reproducible(self):
        a = run_experiment("verifier-equivalence", samples=40, seed=5)
        b = run_experiment("verifier-equivalence", samples=40, seed=5)
        assert serialize_report(a) == serialize_report(b)
        c = run_experiment("verifier-equivalence", samples=40, seed=6)
        assert serialize_report(a) != serialize_report(c)

    def test_report_format(self):
        rep = run_experiment("boros-bound", n=2)
        text = serialize_report(rep)
        lines = text.splitlines()
        assert lines[0] == "KDSM-REPORT 1"
        assert lines[1] == "experiment boros-bound"
        assert sum(1 for l in lines if l.startswith("result ")) == 64
        assert any(l == "summary failures 0" for l in lines)

    def test_eriksson_sampled(self):
        rep = run_experiment("eriksson-bound", samples=60, seed=3)
        assert rep.ok and dict(rep.summary)["total"] == "60"

    def test_pp_two_matchings_sampled(self):
        rep = run_experiment("pp-two-matchings", samples=8, seed=3)
        assert rep.ok
        assert int(dict(rep.summary)["min_count"]) >= 2

    def test_lift_equivalence_sampled(self):
        rep = run_experiment("lift-3k-equivalence", n=2, samples=60, seed=3)
        assert rep.ok

    def test_completion_experiments(self):
        rep = run_experiment("complete-positive", samples=25, seed=3)
        assert rep.ok
        rep = run_experiment("complete-negative", samples=25, seed=3)
        assert rep.ok

    def test_threads_match_sequential(self):
        for experiment, samples in (("eriksson-bound", 40), ("pp-two-matchings", 4)):
            seq = run_experiment(experiment, samples=samples, seed=9, threads=1)
            par = run_experiment(experiment, samples=samples, seed=9, threads=2)
            assert serialize_report(seq) == serialize_report(par)

    @pytest.mark.parametrize("kw", [dict(n=2), dict(k=6, n=2, full=True)])
    def test_threads_match_sequential_exhaustive(self, kw):
        seq = run_experiment("boros-bound", threads=1, **kw)
        par = run_experiment("boros-bound", threads=2, **kw)
        assert dict(seq.params)["mode"] == "exhaustive"
        assert serialize_report(seq) == serialize_report(par)
