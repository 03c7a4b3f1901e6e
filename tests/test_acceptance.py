"""Acceptance suite: one test per release criterion, zero-failure gates.

Each test prints one PASS/FAIL line (visible with ``pytest -s``). The
bound-replication criteria run the experiment harness at its fixed seeds;
the heavy exhaustive stage (criterion 2) covers all 10,077,696 complete
3-type size-3 instances and dominates the suite's runtime.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

import kdsm
from kdsm import (
    AgentRef,
    Budget,
    Family,
    Matching,
    SolveStatus,
    complete_instance,
    find_weakly_stable,
    induce_down,
    induce_up,
    instance_digest,
    lift_3_to_k,
    parse_instance,
    parse_map,
    parse_matching,
    random_instance,
    random_matching,
    run_experiment,
    search_counterexample,
    serialize_instance,
    serialize_matching,
    serialize_report,
    transport_matching,
)

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "no_stable_3dsmi.kdsm"
FIXTURE_CERT = DATA / "no_stable_3dsmi.cert.json"


def report_line(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail})")


@pytest.fixture(scope="session")
def counterexample():
    found = search_counterexample(max_n=5, seed=0)
    assert found is not None
    return found


def test_criterion_1_verifier_oracle_equivalence():
    t0 = time.time()
    rep = run_experiment("verifier-equivalence", samples=1000, seed=1)
    elapsed = time.time() - t0
    total = dict(rep.summary)["total"]
    ok = rep.ok and total == "1000" and elapsed < 60
    report_line(1, "verifier-oracle-equivalence", ok,
                f"{total} pairs, {len(rep.failures)} disagreements, {elapsed:.1f}s")
    assert rep.failures == ()
    assert total == "1000"
    assert elapsed < 60


def test_criterion_2_boros_bound_exhaustive():
    rep2 = run_experiment("boros-bound", n=2)
    s2 = dict(rep2.summary)
    assert dict(rep2.params)["mode"] == "exhaustive"
    assert s2["total"] == "64" and rep2.failures == ()

    t0 = time.time()
    rep3 = run_experiment("boros-bound", n=3, full=True)
    elapsed = time.time() - t0
    s3 = dict(rep3.summary)
    ok = rep2.ok and rep3.ok and s3["total"] == str(6**9)
    report_line(2, "boros-bound", ok,
                f"n=2: 64/64 stable; n=3: {s3['with_stable']}/{s3['total']} stable,"
                f" {elapsed / 60:.1f} min")
    assert rep3.failures == ()
    assert s3["total"] == str(6**9) == "10077696"
    assert s3["with_stable"] == s3["total"]
    assert hashlib.sha256(serialize_report(rep3).encode()).hexdigest() == (
        "970dfb1f78c75964010815bb9dd33fe7707c08b8ed99dffc71e876c98d45a18c"
    )


def test_criterion_3_eriksson_bound_sampled():
    rep = run_experiment("eriksson-bound", samples=10_000, seed=1)
    s = dict(rep.summary)
    ok = rep.ok and s["total"] == "10000"
    report_line(3, "eriksson-bound", ok,
                f"{s['with_stable']}/{s['total']} instances with a stable matching")
    assert rep.failures == ()
    assert s["total"] == "10000"


def test_criterion_4_pp_two_matchings_sampled():
    rep = run_experiment("pp-two-matchings", samples=200, seed=1)
    s = dict(rep.summary)
    ok = rep.ok and s["total"] == "200" and int(s["min_count"]) >= 2
    report_line(4, "pp-two-matchings", ok,
                f"200 instances, minimum stable count {s['min_count']}")
    assert rep.failures == ()
    assert int(s["min_count"]) >= 2


def test_criterion_5_lift_equivalence_exhaustive():
    rep = run_experiment("lift-3k-equivalence", n=2, target_k=5)
    s = dict(rep.summary)
    ok = rep.ok and s["total"] == "15625"
    report_line(5, "lift-3k-equivalence", ok,
                f"{s['total']} instances, {len(rep.failures)} failures")
    assert rep.failures == ()
    assert s["total"] == "15625"


def test_criterion_6_stability_transport_upward():
    rep = run_experiment("complete-positive", samples=500, seed=1)
    s = dict(rep.summary)
    ok = rep.ok and s["total"] == "500"
    report_line(6, "stability-transport-up", ok,
                f"{s['total']} stable pairs, {len(rep.failures)} failures")
    assert rep.failures == ()
    assert s["total"] == "500"


def test_criterion_7_blocking_transport():
    rep = run_experiment("complete-negative", samples=500, seed=1)
    s = dict(rep.summary)
    ok = rep.ok and s["total"] == "500"
    report_line(7, "blocking-transport", ok,
                f"{s['total']} blocked pairs, {len(rep.failures)} failures")
    assert rep.failures == ()
    assert s["total"] == "500"


class TestCriterion8Pipeline:
    def test_search_finds_certified_counterexample(self, counterexample):
        inst, cert = counterexample
        assert cert.stable == 0
        assert cert.families >= 1
        assert kdsm.enumerate_weakly_stable(inst) == []
        out = find_weakly_stable(inst)
        assert out.status is SolveStatus.EXHAUSTED_NONE
        report_line(8, "counterexample-search", True,
                    f"n={inst.n}, {cert.families} families, {cert.matchings} matchings,"
                    f" 0 stable")

    def test_committed_fixture_matches_search(self, counterexample):
        inst, cert = counterexample
        fixture = parse_instance(FIXTURE.read_text())
        stored = json.loads(FIXTURE_CERT.read_text())
        assert instance_digest(fixture) == stored["digest"]
        assert instance_digest(inst) == stored["digest"]
        assert (cert.families, cert.matchings) == (
            stored["families"],
            stored["matchings"],
        )
        assert kdsm.enumerate_weakly_stable(fixture) == []
        report_line(8, "counterexample-fixture", True,
                    f"digest {stored['digest']} re-certified")

    def test_budgeted_search_never_finds_on_completed(self, counterexample):
        inst, _ = counterexample
        completed, _gm = complete_instance(inst)
        t0 = time.time()
        out = find_weakly_stable(completed, Budget(max_nodes=10**7))
        elapsed = time.time() - t0
        ok = out.status is not SolveStatus.FOUND
        report_line(8, "completed-never-found", ok,
                    f"{out.nodes_explored} nodes, status {out.status.value},"
                    f" {elapsed:.0f}s")
        assert out.status is not SolveStatus.FOUND
        assert out.nodes_explored == 10**7 or out.status is SolveStatus.EXHAUSTED_NONE

    def test_checkers_clean_on_induced_matchings(self, counterexample):
        # the lemma checkers are also embedded in the criterion 6/7
        # experiments; this re-runs them explicitly on fresh pairs
        inst, _ = counterexample
        rng = random.Random(801)
        clean = 0
        for _ in range(20):
            x = random_instance(rng.getrandbits(32), 3, rng.randint(1, 3),
                                rng.choice((0.5, 1.0)))
            m = random_matching(x, rng.getrandbits(32))
            completed, gm = complete_instance(x)
            mh = induce_up(gm, m)
            down = induce_down(gm, mh)
            assert kdsm.check_gadget_confinement(gm, mh).ok
            assert kdsm.check_partner_correspondence(gm, mh, down).ok
            for alpha in x.agents():
                assert kdsm.check_admirer_bound(gm, mh, alpha, alpha.t).ok
            clean += 1
        report_line(8, "lemma-checkers", True, f"{clean} induced matchings, 0 violations")


def test_criterion_9_round_trips_and_formats():
    rng = random.Random(901)
    gadget_trips = 0
    lift_trips = 0
    for _ in range(1000):
        n = rng.randint(1, 3)
        x = random_instance(rng.getrandbits(32), 3, n, rng.choice((0.4, 0.7, 1.0)))
        m = random_matching(x, rng.getrandbits(32))
        _, gm = complete_instance(x)
        assert induce_down(gm, induce_up(gm, m)) == m
        gadget_trips += 1
        _, cmap = lift_3_to_k(x, 5)
        up = transport_matching(cmap, m, "up")
        assert transport_matching(cmap, up, "down") == m
        lift_trips += 1
        if gadget_trips % 100 == 0:
            # file formats round-trip byte-exactly on a subsample
            assert serialize_instance(parse_instance(serialize_instance(x))) == serialize_instance(x)
            assert serialize_matching(parse_matching(serialize_matching(m))) == serialize_matching(m)
            assert parse_map(cmap.serialize()).serialize() == cmap.serialize()
            assert parse_map(gm.serialize()).serialize() == gm.serialize()
    rep = run_experiment("verifier-equivalence", samples=5, seed=9)
    assert kdsm.serialize_report(rep) == kdsm.serialize_report(
        run_experiment("verifier-equivalence", samples=5, seed=9)
    )
    report_line(9, "round-trips", True,
                f"{gadget_trips} gadget + {lift_trips} lift round trips, formats byte-exact")
