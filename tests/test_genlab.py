import hashlib
import random
import re
from itertools import islice

import pytest

from kdsm import (
    ArgumentError,
    DimensionError,
    FormatError,
    Instance,
    KdsmError,
    Matching,
    SpaceTooLargeError,
    certify_no_stable,
    count_instances,
    enumerate_instances,
    enumerate_weakly_stable,
    instance_digest,
    parse_report,
    random_instance,
    random_matching,
    run_experiment,
    search_counterexample,
    serialize_report,
    validate_instance,
    validate_matching,
)
from kdsm import genlab
from kdsm.core import shared_permutations, shared_rows
from kdsm.genlab import ExperimentReport, UnknownExperimentError, list_options
from conftest import (
    oracle_derived_seed,
    oracle_enumerate_instances,
    oracle_lane,
    oracle_random_instance,
)


def tables(inst):
    """``inst``'s ``_better`` as plain lists, and ``is_complete``."""
    return [[list(masks) for masks in row] for row in inst._better], inst.is_complete


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
            (3, 2, True, ArgumentError, "density must be a real number, got True"),
            (3, 2, False, ArgumentError, "density must be a real number, got False"),
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
                        # a complete draw comes with its tables filled
                        filled = density == 1 and n <= 7
                        assert ("_better" in vars(got)) == filled == ("is_complete" in vars(got))
                        want = oracle_random_instance(seed, k, n, density)
                        assert got.prefs == want.prefs, (seed, k, n, density)
                        assert instance_digest(got) == instance_digest(want)
                        assert tables(got) == tables(want)

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

    @pytest.mark.parametrize("keep", ["x", None, True, 2, -0.1, float("nan")])
    def test_keep_outside_the_unit_interval_is_refused(self, keep):
        with pytest.raises(ArgumentError, match=r"keep must be a real number in \[0, 1\]"):
            random_matching(random_instance(1, 3, 2), 1, keep)

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

    # every shape tier-1 enumerates; k=3, n=3 is checked on a fixed slice
    SHAPES = [(3, n, complete) for n in (0, 1, 2) for complete in (True, False)]
    SHAPES += [(k, 2, True) for k in (4, 5, 6)]

    @staticmethod
    def check_against_fresh_builds(plain, fresh):
        count = 0
        for inst, want in zip(plain, fresh, strict=True):
            # the tables come filled, and no digest is cached on the instance
            assert set(vars(inst)) == {"k", "n", "prefs", "_better", "is_complete"}
            assert inst.prefs == want.prefs
            assert tables(inst) == tables(want)
            assert instance_digest(inst) == instance_digest(want)
            count += 1
        return count

    @pytest.mark.parametrize("k, n, complete", SHAPES)
    def test_lane_builder_matches_fresh_builds(self, k, n, complete):
        count = self.check_against_fresh_builds(
            enumerate_instances(k, n, complete),
            oracle_enumerate_instances(k, n, complete),
        )
        assert count == count_instances(k, n, complete)

    @pytest.mark.parametrize("start", [0, 46_656 - 500])  # the second crosses every type's step
    def test_lane_builder_matches_fresh_builds_on_a_k3n3_slice(self, start):
        window = lambda it: islice(it, start, start + 1000)
        count = self.check_against_fresh_builds(
            window(enumerate_instances(3, 3, True)),
            window(oracle_enumerate_instances(3, 3, True)),
        )
        assert count == 1000

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
    @pytest.mark.parametrize("kw, match", [
        (dict(max_n="3"), "max_n must be an integer, got '3'"),
        (dict(max_n=2.5), "max_n must be an integer, got 2.5"),
        (dict(max_n=True), "max_n must be an integer, got True"),
        (dict(seed="0"), "seed must be an integer, got '0'"),
        (dict(seed=1.0), "seed must be an integer, got 1.0"),
    ])
    def test_bad_arguments_raise(self, kw, match):
        with pytest.raises(ArgumentError, match=f"^{re.escape(match)}$"):
            search_counterexample(**kw)

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

    def test_hill_climb_path_is_pinned(self):
        # the evaluations and the instance the descent reaches, recorded
        # while every trial was built through the public constructor
        assert genlab._hill_climb(3, "0:cx:3") == (None, 60_000)
        inst, spent = genlab._hill_climb(4, "0:cx:4")
        assert spent == 4_551
        assert instance_digest(inst).startswith("5bb57de23757a4e6")
        public = Instance(3, 4, inst.prefs)
        assert inst == public and tables(inst) == tables(public)


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

    @pytest.mark.parametrize(
        "kw, error, match",
        [
            (dict(k="3"), DimensionError, "dimensions must be integers, got k='3'"),
            (dict(n=2.0), DimensionError, "dimensions must be integers, got n=2.0"),
            (dict(samples=1.5), ArgumentError, "samples must be an integer, got 1.5"),
            (dict(samples=True), ArgumentError, "samples must be an integer, got True"),
            (dict(threads="2"), ArgumentError, "threads must be an integer, got '2'"),
            (dict(seed="a"), ArgumentError, "seed must be an integer, got 'a'"),
            (dict(seed=1.5), ArgumentError, "seed must be an integer, got 1.5"),
            (dict(target_k=5.0), ArgumentError, "target_k must be an integer, got 5.0"),
            (dict(full=1), ArgumentError, "full must be a bool, got 1"),
            (dict(k="3", samples=-1), DimensionError, "dimensions must be integers, got k='3'"),
        ],
    )
    def test_types_are_checked_before_values(self, kw, error, match):
        for experiment in ("boros-bound", "eriksson-bound"):
            with pytest.raises(error, match=f"^{re.escape(match)}$"):
                run_experiment(experiment, **kw)

    @pytest.mark.parametrize("seed", [0, 7, -5, 2**64 + 3, -(2**80) + 1])
    @pytest.mark.parametrize("name", ["boros-bound", "pp-two-matchings", "prüfung"])
    def test_derived_seeds_match_the_string_seeding(self, seed, name):
        got = list(islice(genlab._derived_seeds(seed, name), 25))
        assert got == [oracle_derived_seed(seed, name, idx) for idx in range(25)]

    # every n the table serves at k=3, the fallback past it, and k=4, k=6
    SAMPLED_SHAPES = [(3, n) for n in range(9)] + [(k, n) for k in (4, 6) for n in (2, 3)]

    @pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
    @pytest.mark.parametrize("k, n", SAMPLED_SHAPES)
    def test_sampled_instances_come_with_their_digest(self, k, n, seed):
        # up to n = 7 the instances are built from the sampled lanes, each
        # digested by _lane_digest; past it drawn themselves
        samples = 40 if n <= 4 else 8
        if n <= 7:
            lanes = list(genlab._sampled_lanes("boros-bound", seed, k, n, samples))
            options = shared_permutations(n), shared_rows(n)
            got = [genlab._picked_instance(k, n, *options, lane) for lane in lanes]
        else:
            got = list(genlab._sampled_complete("boros-bound", seed, k, n, samples))
        assert len(got) == samples
        for idx, inst in enumerate(got):
            fresh = random_instance(oracle_derived_seed(seed, "boros-bound", idx), k, n)
            want = Instance(k, n, fresh.prefs)  # lists checked, tables built per list
            assert inst == fresh == want
            assert tables(inst) == tables(fresh) == tables(want)
            assert inst.is_complete
            if n <= 7:
                assert lanes[idx] == oracle_lane(want)
                assert genlab._lane_digest(k, n, lanes[idx]) == instance_digest(want)

    @staticmethod
    def spy_kernel(monkeypatch, stop=None):
        """The lanes the batch kernel receives, in order; a stand-in kernel
        passes every lane and ends the run once ``stop`` lanes arrived."""
        shipped = []

        class Enough(Exception):
            pass

        def kernel(k, n, lanes):
            shipped.extend(map(list, lanes))
            if stop is not None and len(shipped) >= stop:
                raise Enough
            return 0

        monkeypatch.setattr(genlab, "_scan_batch", kernel)
        return shipped, Enough

    @pytest.mark.parametrize("k, n", [(2, 0), (3, 0), (3, 1), (3, 2), (4, 2), (6, 2)])
    def test_exhaustive_lanes_match_the_oracle(self, monkeypatch, k, n):
        shipped, _ = self.spy_kernel(monkeypatch)
        rep = run_experiment("boros-bound", k=k, n=n, full=True)
        insts = list(oracle_enumerate_instances(k, n, True))
        assert shipped == [oracle_lane(inst) for inst in insts]
        assert [genlab._lane_digest(k, n, lane) for lane in shipped] == [
            digest for digest, _verdict, _detail in rep.results
        ] == [instance_digest(inst) for inst in insts]
        assert len(shipped) == count_instances(k, n, True)

    def test_exhaustive_lanes_match_the_oracle_on_a_k3n3_slice(self, monkeypatch):
        # from 500 before the 46,656th instance, where every type's row steps
        shipped, enough = self.spy_kernel(monkeypatch, stop=46_656 + 500)
        with pytest.raises(enough):
            run_experiment("boros-bound", n=3, full=True)
        got = shipped[46_656 - 500 : 46_656 + 500]
        want = list(islice(oracle_enumerate_instances(3, 3, True), 46_656 - 500, 46_656 + 500))
        assert got == [oracle_lane(inst) for inst in want]
        assert [genlab._lane_digest(3, 3, lane) for lane in got] == [
            instance_digest(inst) for inst in want
        ]

    @pytest.mark.parametrize("k, n", [(3, 0), (5, 0), (3, 1), (3, 3), (3, 4), (4, 3), (2, 7)])
    def test_sampled_lanes_are_the_sampled_instances(self, k, n):
        got = list(genlab._sampled_lanes("eriksson-bound", 3, k, n, 40))
        want = list(genlab._sampled_complete("eriksson-bound", 3, k, n, 40))
        assert got == [oracle_lane(inst) for inst in want]
        assert [genlab._lane_digest(k, n, lane) for lane in got] == [
            instance_digest(inst) for inst in want
        ]

    def test_n7_goes_through_the_capped_count(self, monkeypatch):
        # at n = 7 a batch's walk costs more than one capped scan per
        # instance; the report bytes are those of the batch kernel's run
        def kernel(*args):
            raise AssertionError("the batch kernel ran at n = 7")

        monkeypatch.setattr(genlab, "_scan_batch", kernel)
        rep = run_experiment("boros-bound", k=2, n=7, samples=6, seed=3)
        assert hashlib.sha256(serialize_report(rep).encode()).hexdigest() == (
            "d3a089f5c8c2ae4d0ece8e9474b77e10953e8f2e679f8642aaaa7f8568a8fa97"
        )

    def test_enumeration_takes_no_digest(self, monkeypatch):
        def digest(*args):
            raise AssertionError("enumerate_instances took a digest")

        monkeypatch.setattr(genlab, "digest_state", digest)
        monkeypatch.setattr(genlab, "instance_digest", digest)
        got = list(enumerate_instances(2, 2, False))
        assert got == list(oracle_enumerate_instances(2, 2, False))

    @pytest.mark.parametrize("k, sha", [
        (3, "f0df945ad71aea1f8e8d95a369a09bff8d06f29939c097f5e5b6c5201cded266"),
        (5, "23f5cf29dd13bb106f0a8750f2775e6bdb98b91547b5907bdac1db9ed39cf6eb"),
    ])
    def test_n0_exhaustive_report_bytes(self, k, sha):
        # n = 0 runs as one empty lane whose digest is the header's
        rep = run_experiment("boros-bound", k=k, n=0)
        assert hashlib.sha256(serialize_report(rep).encode()).hexdigest() == sha

    def test_n0_sampled_report_bytes(self):
        # recorded while n = 0 was sampled as instances with instance_digest
        rep = run_experiment("boros-bound", k=3, n=0, samples=5, seed=2)
        assert hashlib.sha256(serialize_report(rep).encode()).hexdigest() == (
            "572a4ceeac4707c79e5b612c2f59c147bdd64a3223cbc2adfa5901cefd796e24"
        )

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "kw, k, n", [(dict(n=3, samples=150), 3, 3), (dict(k=4, n=2), 4, 2)]
    )
    def test_lanes_the_kernel_fails_are_reported_in_place(self, monkeypatch, threads, kw, k, n):
        # a stand-in kernel fails the lanes whose indices sum to a multiple of
        # 3; small batches and a small result cap make the batches ragged and
        # cut the result lines while every failure line is kept
        def fake(k_, n_, lanes):
            assert (k_, n_) == (k, n) and len(lanes) <= 40
            return sum(1 << b for b, lane in enumerate(lanes) if sum(lane) % 3 == 0)

        monkeypatch.setattr(genlab, "_scan_batch", fake)
        monkeypatch.setattr(genlab, "EXISTENCE_BATCH", 40)
        monkeypatch.setattr(genlab, "RESULT_RECORD_CAP", 50)
        rep = run_experiment("boros-bound", seed=6, threads=threads, **kw)
        if "samples" in kw:
            insts = genlab._sampled_complete("boros-bound", 6, k, n, kw["samples"])
        else:
            insts = enumerate_instances(k, n, True)
        expected = [(instance_digest(inst), sum(oracle_lane(inst)) % 3 == 0) for inst in insts]
        failed = [digest for digest, fails in expected if fails]
        assert 0 < len(failed) < len(expected)
        assert rep.results == tuple(
            (digest, "fail", "stable=0") if fails else (digest, "ok", "stable>=1")
            for digest, fails in expected[:50]
        )
        assert rep.failures == tuple(f"{d} admits no weakly stable matching" for d in failed)
        summary = dict(rep.summary)
        assert summary["failures"] == str(len(failed))
        assert summary["total"] == str(len(expected))
        assert summary["with_stable"] == str(len(expected) - len(failed))
        assert summary["results_truncated"] == "yes"

    @pytest.mark.parametrize("experiment, kw", [
        ("boros-bound", dict(n=3, samples=150)),
        ("boros-bound", dict(k=4, n=2)),
        ("pp-two-matchings", dict(samples=14)),
    ])
    def test_a_report_digests_only_the_lines_it_writes(self, monkeypatch, experiment, kw):
        # a stand-in kernel fails the lanes whose indices sum to a multiple of
        # 4; a lane is digested once if it gets a result line, a failure line
        # or both, and never otherwise
        calls = []
        real = genlab._lane_digest

        def counted(k, n, lane):
            calls.append(list(lane))
            return real(k, n, lane)

        def fake(k, n, lanes):
            return sum(1 << b for b, lane in enumerate(lanes) if sum(lane) % 4 == 0)

        monkeypatch.setattr(genlab, "_lane_digest", counted)
        monkeypatch.setattr(genlab, "_scan_batch", fake)
        monkeypatch.setattr(genlab, "EXISTENCE_BATCH", 16)
        monkeypatch.setattr(genlab, "RESULT_RECORD_CAP", 10)
        rep = run_experiment(experiment, seed=6, **kw)
        failed_in_lines = sum(verdict == "fail" for _digest, verdict, _detail in rep.results)
        assert len(rep.results) == 10
        if experiment == "boros-bound":
            assert 0 < failed_in_lines < len(rep.failures)
        assert len(calls) == len(rep.results) + len(rep.failures) - failed_in_lines
        assert len(calls) == len({tuple(lane) for lane in calls})

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

    # every experiment at a small size, so the round trip sees each report shape
    SMALL_RUNS = {
        "boros-bound": dict(n=2),
        "eriksson-bound": dict(samples=5),
        "pp-two-matchings": dict(samples=3),
        "verifier-equivalence": dict(samples=5),
        "lift-3k-equivalence": dict(n=1),
        "complete-positive": dict(samples=3),
        "complete-negative": dict(samples=3),
    }

    @pytest.mark.parametrize("experiment", genlab.EXPERIMENT_IDS)
    def test_parse_report_round_trips(self, experiment):
        rep = run_experiment(experiment, seed=2, **self.SMALL_RUNS[experiment])
        text = serialize_report(rep)
        assert parse_report(text) == rep
        # a report with failures, details with spaces and an empty detail
        failed = ExperimentReport(
            experiment, rep.params, ((rep.results[0][0], "fail", "a b  c"), ("d", "ok", "")),
            rep.summary, ("d a problem", ""),
        )
        assert parse_report(serialize_report(failed)) == failed

    @pytest.mark.parametrize("text, match", [
        ("", "newline"),
        ("KDSM-REPORT 1", "newline"),
        ("KDSM-REPORT 2\nexperiment x\n", "header"),
        ("KDSM-REPORT 1\n", "experiment"),
        ("KDSM-REPORT 1\nexperiment\n", "experiment"),
        ("KDSM-REPORT 1\nexperiment x\n\n", "misplaced"),
        ("KDSM-REPORT 1\nexperiment x\nresult d ok\nparam k 3\n", "misplaced"),
        ("KDSM-REPORT 1\nexperiment x\nfailure f\nsummary total 1\n", "misplaced"),
        ("KDSM-REPORT 1\nexperiment x\nnote y z\n", "misplaced"),
        ("KDSM-REPORT 1\nexperiment x\nparam k\n", "malformed param"),
        ("KDSM-REPORT 1\nexperiment x\nsummary  1\n", "malformed summary"),
        ("KDSM-REPORT 1\nexperiment x\nresult d\n", "malformed result"),
        ("KDSM-REPORT 1\nexperiment x\nresult d maybe\n", "malformed result"),
        ("KDSM-REPORT 1\nexperiment x\nresult d ok \n", "malformed result"),
        ("KDSM-REPORT 1\nexperiment x\nresult  ok\n", "malformed result"),
    ])
    def test_parse_report_rejects_malformed_text(self, text, match):
        with pytest.raises(FormatError, match=match):
            parse_report(text)

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

    @pytest.mark.parametrize("experiment, kw", [
        ("pp-two-matchings", dict(samples=6)),
        ("boros-bound", dict(n=3, samples=60)),
    ])
    def test_threads_match_sequential_sampled(self, experiment, kw):
        # the pool receives the lanes; their digests stay in the parent
        seq = run_experiment(experiment, seed=4, threads=1, **kw)
        par = run_experiment(experiment, seed=4, threads=2, **kw)
        assert serialize_report(seq) == serialize_report(par)
        digests = [digest for digest, _verdict, _detail in seq.results]
        k, n = (3, 5) if experiment == "pp-two-matchings" else (3, 3)
        assert digests == [
            instance_digest(random_instance(oracle_derived_seed(4, experiment, idx), k, n))
            for idx in range(len(digests))
        ]

    def test_the_pp_pool_receives_lanes(self, monkeypatch):
        shipped = []
        real = genlab._map_maybe_parallel

        def spy(worker, items, threads, chunksize):
            items = list(items)
            shipped.extend(items)
            return real(worker, items, threads, chunksize)

        monkeypatch.setattr(genlab, "_map_maybe_parallel", spy)
        rep = run_experiment("pp-two-matchings", samples=5, seed=1, threads=2)
        want = [
            random_instance(oracle_derived_seed(1, "pp-two-matchings", idx), 3, 5)
            for idx in range(5)
        ]
        assert shipped == [oracle_lane(inst) for inst in want]
        assert [genlab._lane_digest(3, 5, lane) for lane in shipped] == [
            digest for digest, _verdict, _detail in rep.results
        ] == [instance_digest(inst) for inst in want]

    @pytest.mark.parametrize("kw", [dict(n=2), dict(k=6, n=2, full=True)])
    def test_threads_match_sequential_exhaustive(self, kw):
        seq = run_experiment("boros-bound", threads=1, **kw)
        par = run_experiment("boros-bound", threads=2, **kw)
        assert dict(seq.params)["mode"] == "exhaustive"
        assert serialize_report(seq) == serialize_report(par)
