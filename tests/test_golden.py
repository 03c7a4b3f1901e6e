"""Golden determinism values.

Each test recomputes a fingerprint of observable behaviour at fixed seeds
and compares it with a recorded value: the sha256 of experiment report
bytes, the solver's statuses and node counts, the verifiers' witnesses and
the exact enumerators' outputs. A refactor that keeps behaviour identical
keeps every value; a change here means reports, node counts or witnesses
moved and needs a deliberate re-recording.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from kdsm import (
    Budget,
    complete_instance,
    count_weakly_stable,
    enumerate_weakly_stable,
    find_blocking_cycle,
    find_blocking_naive,
    find_weakly_stable,
    lift_3_to_k,
    random_instance,
    random_matching,
    run_experiment,
    serialize_report,
)
from kdsm.genlab import EXPERIMENT_IDS
from conftest import mutate_instance

EXPERIMENTS = {
    "boros-n2": ("boros-bound", dict(n=2)),
    "boros-k6n2-full": ("boros-bound", dict(k=6, n=2, full=True)),
    "boros-n3-sampled": ("boros-bound", dict(n=3, samples=40, seed=5)),
    "eriksson": ("eriksson-bound", dict(samples=40, seed=5)),
    "pp": ("pp-two-matchings", dict(samples=4, seed=5)),
    "verifier": ("verifier-equivalence", dict(samples=150, seed=5)),
    "lift": ("lift-3k-equivalence", dict(n=2, samples=25, seed=5)),
    "complete-positive": ("complete-positive", dict(samples=20, seed=5)),
    "complete-negative": ("complete-negative", dict(samples=20, seed=5)),
}

REPORT_SHA256 = {
    "boros-n2": "9f19212f4114c875bb1e19486ee4acb4df7dc0c5e0a2aeecfc648d3f50f6ec5c",
    "boros-k6n2-full": "bb48180aa606101a0425561bb884ea3aa91e8720b668cc2dcdfcd16eaec57ca8",
    "boros-n3-sampled": "528295991465846f530b6bfac32c16b82a0bd5f416d6e96e22d697751f5c772d",
    "eriksson": "d841b5f5e0c3aa0aa3dcc3cb710b17f2c8e71b60ac0fdb701027965e441da2a6",
    "pp": "e5d1e2bcb91d3584ab3ba2024944480faf5706f64fd0a2e9ea55b35cb4e56149",
    "verifier": "198d96947228665297a6a120425648ffff8f5a34f169c50a728b0b5a839a6392",
    "lift": "44d77e6d7a5cb65a714d56897841dcafcb50196793e4779c8e5c4b4bb0301a4f",
    "complete-positive": "e9833241c6fd3467df36f327af6e830d76d9ce080037428e7630e32223643311",
    "complete-negative": "ce7ed6a782d1c2caf55a197a116362842122d39d455fe6b9861941632346821f",
}

FIXTURE_FIND = ("EXHAUSTED-NONE", 21)
COMPLETED_FIND = ("BUDGET-EXCEEDED", 20_000)
SOLVER_SHA256 = "73f9763ddf18084c794fa42c63b74b03d3d19fe8051d1247312fdf920ad4aba4"
# solver_lines with small PRUNE_WORK_CAP values, where the anchored-blocker
# walk runs out of work mid-list; they pin its walk order and its work
# accounting (from a cap of 32 on, every walk finishes and the hash is
# SOLVER_SHA256)
CAPPED_SOLVER_SHA256 = {
    4: "0f2f92b93ddd70a419617bb82323f6f8492f7ff8ba3f8e3d6e9e7eba8162ade5",
    8: "c1c280df4e402ebb3672919ef6756a2a1ae1d86ff144f6938a3893e80edd5f20",
    16: "c12a89afde5a5ff73a3495f0f2bb353d343b7280747f0679c8c6beb6bf6003a6",
}
WITNESS_SHA256 = "e0f095ac26107a9f7db7f06e44520e27a93cc139521dfb179949faaa801341b7"
ENUMERATION_SHA256 = "2224fb71d0a4297a621f15f05f2b43e5a1c4479dd77f9dadf25848a63eb2dd26"
# map files of the lift of a k=3, n=2 instance to k=5 and of the completion
# of a k=4, n=3 instance
LIFT_MAP_BYTES = b"KDSM-MAP 1\nkind lift\nk 5\nn 2\n"
GADGET_MAP_BYTES = b"KDSM-MAP 1\nkind gadget\nk 4\nn 3\n"


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _members(m) -> str:
    return "-" if m is None else ";".join(
        ",".join(map(str, f.members)) for f in m
    )


def solver_lines(fixture) -> list[str]:
    """Status, nodes and matching of the budgeted solver on seeded inputs."""
    insts = [mutate_instance(fixture, seed) for seed in range(60)]
    rng = random.Random("golden:solver")
    for _ in range(40):
        k = rng.choice((3, 4))
        n = rng.randint(2, 5)
        insts.append(random_instance(rng.getrandbits(63), k, n, rng.choice((0.5, 1.0))))
    out = []
    for inst in insts:
        o = find_weakly_stable(inst, Budget(max_nodes=20_000))
        out.append(f"{o.status.value} {o.nodes_explored} {_members(o.matching)}")
    return out


def witness_lines() -> list[str]:
    """Naive and cycle witnesses on seeded (instance, matching) pairs."""
    rng = random.Random("golden:witness")
    out = []
    for _ in range(200):
        k = rng.choice((3, 4, 5))
        n = rng.randint(1, 5)
        inst = random_instance(rng.getrandbits(63), k, n, rng.choice((0.3, 0.6, 1.0)))
        m = random_matching(inst, rng.getrandbits(63), keep=rng.choice((0.5, 1.0)))
        naive = find_blocking_naive(inst, m)
        cycle = find_blocking_cycle(inst, m)
        out.append(
            f"{_members([naive] if naive else None)} {_members([cycle] if cycle else None)}"
        )
    return out


def enumeration_lines() -> list[str]:
    """Exact enumeration and counts on seeded small instances."""
    rng = random.Random("golden:enumerate")
    out = []
    for _ in range(60):
        k = rng.choice((3, 4))
        n = rng.randint(1, 3 if k == 3 else 2)
        inst = random_instance(rng.getrandbits(63), k, n, rng.choice((0.5, 0.8, 1.0)))
        stable = enumerate_weakly_stable(inst)
        first = enumerate_weakly_stable(inst, limit=1)
        out.append(
            f"{len(stable)} {count_weakly_stable(inst)} "
            + "|".join(_members(m) for m in stable)
            + f" first={'|'.join(_members(m) for m in first)}"
        )
    return out


def test_every_experiment_id_covered():
    assert {exp for exp, _kw in EXPERIMENTS.values()} == set(EXPERIMENT_IDS)


@pytest.mark.parametrize("label", sorted(EXPERIMENTS))
def test_report_bytes(label):
    exp, kw = EXPERIMENTS[label]
    text = serialize_report(run_experiment(exp, **kw))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[label]


def test_fixture_node_counts(no_stable_instance):
    o = find_weakly_stable(no_stable_instance)
    assert (o.status.value, o.nodes_explored) == FIXTURE_FIND
    completed, _gm = complete_instance(no_stable_instance)
    o = find_weakly_stable(completed, Budget(max_nodes=20_000))
    assert (o.status.value, o.nodes_explored) == COMPLETED_FIND


def test_solver_fingerprint(no_stable_instance):
    lines = solver_lines(no_stable_instance)
    statuses = {ln.split()[0] for ln in lines}
    assert {"FOUND", "EXHAUSTED-NONE"} <= statuses
    assert _sha(lines) == SOLVER_SHA256


@pytest.mark.parametrize("cap", sorted(CAPPED_SOLVER_SHA256))
def test_solver_fingerprint_with_small_work_cap(no_stable_instance, monkeypatch, cap):
    monkeypatch.setattr("kdsm.solve.PRUNE_WORK_CAP", cap)
    assert _sha(solver_lines(no_stable_instance)) == CAPPED_SOLVER_SHA256[cap]


def test_witness_fingerprint():
    lines = witness_lines()
    assert any(ln.startswith("- ") for ln in lines)
    assert any(not ln.startswith("- ") for ln in lines)
    assert _sha(lines) == WITNESS_SHA256


def test_enumeration_fingerprint():
    assert _sha(enumeration_lines()) == ENUMERATION_SHA256


def test_map_bytes():
    _, cmap = lift_3_to_k(random_instance(3, 3, 2, 0.8), 5)
    assert cmap.serialize().encode("utf-8") == LIFT_MAP_BYTES
    _, gm = complete_instance(random_instance(3, 4, 3, 0.8))
    assert gm.serialize().encode("utf-8") == GADGET_MAP_BYTES
