"""Instance generation, exhaustive enumeration, and the experiment harness.

Randomness policy: every generator is a Mersenne Twister (``random.Random``)
seeded either with the caller's integer seed or with a derived string seed
of the form ``"<seed>:<tag>:<index>"``. CPython guarantees the generator's
output sequence for a fixed seed, so reports reproduce bit-exactly for a
given seed on any platform running the same Python series.

``random_instance`` consumes its stream in a fixed order: for each agent in
increasing (t, i) order it draws n uniform floats (one inclusion test per
candidate, kept when the draw is below the density) and then shuffles the
kept candidates in place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator

from .core import (
    AgentRef,
    Family,
    Instance,
    KdsmError,
    Matching,
    SpaceTooLargeError,
    instance_digest,
    serialize_matching,
)
from .reductions import (
    check_admirer_bound,
    check_gadget_confinement,
    check_partner_correspondence,
    complete_instance,
    induce_down,
    induce_up,
    lift_3_to_k,
    transport_matching,
)
from .solve import (
    MAX_CANDIDATE_FAMILIES,
    _check_family_bound,
    _scan_complete_k3,
    count_matchings,
    enumerate_weakly_stable,
)
from .verify import (
    find_blocking_cycle,
    find_blocking_naive,
    is_strongly_blocking,
    is_weakly_stable,
)

EXPERIMENT_IDS = (
    "boros-bound",
    "eriksson-bound",
    "pp-two-matchings",
    "verifier-equivalence",
    "lift-3k-equivalence",
    "complete-positive",
    "complete-negative",
)

# exhaustive experiment stages switch to sampling above this many instances
EXHAUSTIVE_INSTANCE_CAP = 200_000
# per-instance result lines kept in a report before truncation
RESULT_RECORD_CAP = 200_000


class UnknownExperimentError(KdsmError):
    pass


def random_instance(seed: int, k: int, n: int, density: float = 1.0) -> Instance:
    """A seeded random instance; each list is a random permutation of a
    random subset holding each candidate independently with probability
    ``density`` (so density 1 yields a complete instance)."""
    if k < 2 or n < 0:
        raise ValueError(f"invalid dimensions k={k}, n={n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    rng = random.Random(seed)
    rows = []
    for _t in range(k):
        row = []
        for _i in range(n):
            sub = [c for c in range(n) if rng.random() < density]
            rng.shuffle(sub)
            row.append(tuple(sub))
        rows.append(tuple(row))
    return Instance(k, n, tuple(rows))


def random_matching(inst: Instance, seed: int, keep: float = 0.7) -> Matching:
    """A seeded random valid matching: candidate families are shuffled and
    greedily kept with probability ``keep`` when agent-disjoint."""
    fams = _check_family_bound(inst, MAX_CANDIDATE_FAMILIES)
    rng = random.Random(seed)
    rng.shuffle(fams)
    used: list[set[int]] = [set() for _ in range(inst.k)]
    chosen = []
    for f in fams:
        if rng.random() >= keep:
            continue
        if any(f[t] in used[t] for t in range(inst.k)):
            continue
        for t in range(inst.k):
            used[t].add(f[t])
        chosen.append(f)
    return Matching.of(chosen)


def list_options(n: int, complete: bool) -> list[tuple[int, ...]]:
    """All admissible preference lists over [0, n), in canonical order.

    Complete: all permutations, lexicographic. Incomplete: every ordered
    sublist, shortest first and lexicographic within a length.
    """
    if complete:
        return list(permutations(range(n)))
    out: list[tuple[int, ...]] = []
    for size in range(n + 1):
        out.extend(permutations(range(n), size))
    return out


def count_instances(k: int, n: int, complete: bool) -> int:
    return len(list_options(n, complete)) ** (k * n)


def enumerate_instances(
    k: int, n: int, complete: bool, max_instances: int = 10**8
) -> Iterator[Instance]:
    """Every instance exactly once, canonical order, agent (0, 0) varying slowest."""
    opts = list_options(n, complete)
    total = len(opts) ** (k * n)
    if total > max_instances:
        raise SpaceTooLargeError(
            f"{total} instances exceed the bound {max_instances}",
            bound=max_instances,
            required=total,
        )
    for combo in product(range(len(opts)), repeat=k * n):
        prefs = tuple(
            tuple(opts[combo[t * n + i]] for i in range(n)) for t in range(k)
        )
        yield Instance(k, n, prefs)


@dataclass(frozen=True)
class Certificate:
    """Nonexistence certificate: the full matching space was enumerated."""

    digest: str
    families: int
    matchings: int
    stable: int
    note: str


def _capped_stable_count(inst: Instance, cap: int) -> int:
    return len(enumerate_weakly_stable(inst, limit=cap))


def _random_list(rng: random.Random, n: int, density: float) -> tuple[int, ...]:
    sub = [c for c in range(n) if rng.random() < density]
    rng.shuffle(sub)
    return tuple(sub)


def _hill_climb(
    n: int, seed_tag: str, evals: int, density: float = 0.55
) -> tuple[Instance | None, int]:
    """Randomized descent on the number of weakly stable matchings.

    Restarts from fresh random 3-type instances and keeps mutating single
    preference lists while the (capped) stable count does not increase.
    Returns a no-stable instance if one is reached within the evaluation
    budget, plus the number of evaluations spent.
    """
    spent = 0
    restart = 0
    while spent < evals:
        rng = random.Random(f"{seed_tag}:{restart}")
        restart += 1
        prefs = [
            [_random_list(rng, n, density) for _ in range(n)] for _ in range(3)
        ]
        inst = Instance.build(3, prefs)
        best = _capped_stable_count(inst, cap=4)
        spent += 1
        if best == 0:
            return inst, spent
        for _step in range(3000):
            if spent >= evals:
                break
            t = rng.randrange(3)
            i = rng.randrange(n)
            old = prefs[t][i]
            prefs[t][i] = _random_list(rng, n, density)
            trial = Instance.build(3, prefs)
            val = _capped_stable_count(trial, cap=best + 1)
            spent += 1
            if val <= best:
                best = val
                if best == 0:
                    return trial, spent
            else:
                prefs[t][i] = old
    return None, spent


def _shrink_counterexample(inst: Instance) -> Instance:
    """Greedily delete single preference entries while no stable matching exists."""
    prefs = [[list(lst) for lst in row] for row in inst.prefs]
    changed = True
    while changed:
        changed = False
        for t in range(3):
            for i in range(inst.n):
                pos = 0
                while pos < len(prefs[t][i]):
                    removed = prefs[t][i].pop(pos)
                    trial = Instance(
                        3, inst.n, tuple(tuple(tuple(l) for l in row) for row in prefs)
                    )
                    if _capped_stable_count(trial, cap=1) == 0:
                        changed = True
                    else:
                        prefs[t][i].insert(pos, removed)
                        pos += 1
    return Instance(3, inst.n, tuple(tuple(tuple(l) for l in row) for row in prefs))


def certify_no_stable(inst: Instance) -> Certificate:
    """Exhaustively enumerate the matching space and certify zero stable matchings."""
    fams = _check_family_bound(inst, MAX_CANDIDATE_FAMILIES)
    total = count_matchings(inst)
    stable = len(enumerate_weakly_stable(inst))
    if stable != 0:
        raise ValueError("instance has weakly stable matchings; nothing to certify")
    return Certificate(
        digest=instance_digest(inst),
        families=len(fams),
        matchings=total,
        stable=0,
        note="exhaustive enumeration of every matching (all disjoint family subsets)",
    )


def search_counterexample(
    max_n: int = 5,
    seed: int = 0,
    exhaustive_cap: int = 20_000,
    evals_per_n: int = 60_000,
    minimize: bool = True,
) -> tuple[Instance, Certificate] | None:
    """Find a 3-type incomplete-lists instance with no weakly stable matching.

    Scans sizes in increasing order: sizes whose whole instance space fits
    under ``exhaustive_cap`` are enumerated outright, larger sizes run a
    seeded randomized descent with ``evals_per_n`` stable-count
    evaluations. The first hit is greedily shrunk (optional) and certified
    by full enumeration of its matching space.
    """
    for n in range(1, max_n + 1):
        found: Instance | None = None
        if count_instances(3, n, complete=False) <= exhaustive_cap:
            for inst in enumerate_instances(3, n, complete=False):
                if _capped_stable_count(inst, cap=1) == 0:
                    found = inst
                    break
        else:
            found, _spent = _hill_climb(n, f"{seed}:cx:{n}", evals_per_n)
        if found is not None:
            if minimize:
                found = _shrink_counterexample(found)
            return found, certify_no_stable(found)
    return None


@dataclass(frozen=True)
class ExperimentReport:
    """Deterministic record of one scripted experiment run."""

    experiment: str
    params: tuple[tuple[str, str], ...]
    results: tuple[tuple[str, str, str], ...]  # (instance digest, verdict, detail)
    summary: tuple[tuple[str, str], ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


REPORT_HEADER = "KDSM-REPORT 1"


def serialize_report(rep: ExperimentReport) -> str:
    lines = [REPORT_HEADER, f"experiment {rep.experiment}"]
    for key, val in rep.params:
        lines.append(f"param {key} {val}")
    for digest, verdict, detail in rep.results:
        lines.append(f"result {digest} {verdict}" + (f" {detail}" if detail else ""))
    for key, val in rep.summary:
        lines.append(f"summary {key} {val}")
    for f in rep.failures:
        lines.append(f"failure {f}")
    return "\n".join(lines) + "\n"


def _map_maybe_parallel(
    worker: Callable, items: Iterable, threads: int, chunksize: int
) -> Iterator:
    """``worker`` over ``items`` in order, streamed; ``threads`` > 1 uses a
    process pool that lives as long as the iteration."""
    if threads <= 1:
        yield from map(worker, items)
        return
    with Pool(processes=threads) as pool:
        yield from pool.imap(worker, items, chunksize=chunksize)


def _w_has_stable(inst: Instance) -> tuple[str, bool]:
    """Digest of ``inst`` and whether it has a weakly stable matching."""
    if inst.k == 3 and inst.is_complete and inst.n >= 1:
        ok = _scan_complete_k3(inst, count_all=False) > 0
    else:
        ok = bool(enumerate_weakly_stable(inst, limit=1))
    return instance_digest(inst), ok


def _w_count_stable(inst: Instance) -> tuple[str, int]:
    """Digest of complete k=3 ``inst`` and its number of weakly stable matchings."""
    return instance_digest(inst), _scan_complete_k3(inst, count_all=True)


def _sampled_complete(
    name: str, seed: int, k: int, n: int, samples: int
) -> Iterator[Instance]:
    """The seeded complete instances of a sampled experiment, in order."""
    for idx in range(samples):
        yield random_instance(
            random.Random(f"{seed}:{name}:{idx}").getrandbits(63), k, n, density=1.0
        )


def _existence_experiment(
    name: str,
    k: int,
    n: int,
    samples: int | None,
    seed: int,
    threads: int,
    force_exhaustive: bool = False,
) -> ExperimentReport:
    results = []
    failures = []
    exhaustive = force_exhaustive or (
        samples is None and count_instances(k, n, complete=True) <= EXHAUSTIVE_INSTANCE_CAP
    )
    if exhaustive:
        mode = "exhaustive"
        instances = enumerate_instances(k, n, complete=True)
        chunksize = 256
    else:
        if samples is None:
            samples = 100_000
        mode = f"sample-{samples}"
        instances = _sampled_complete(name, seed, k, n, samples)
        chunksize = max(1, samples // (threads * 8))
    records = _map_maybe_parallel(_w_has_stable, instances, threads, chunksize)
    stable_count = 0
    total = 0
    truncated = False
    for digest, ok in records:
        total += 1
        stable_count += 1 if ok else 0
        if len(results) < RESULT_RECORD_CAP:
            results.append(
                (digest, "ok" if ok else "fail", "stable>=1" if ok else "stable=0")
            )
        else:
            truncated = True
        if not ok:
            failures.append(f"{digest} admits no weakly stable matching")
    params = (
        ("k", str(k)),
        ("mode", mode),
        ("n", str(n)),
        ("seed", str(seed)),
    )
    summary = (
        ("failures", str(len(failures))),
        ("results_truncated", "yes" if truncated else "no"),
        ("total", str(total)),
        ("with_stable", str(stable_count)),
    )
    return ExperimentReport(name, params, tuple(results), summary, tuple(failures))


def _pp_experiment(samples: int, seed: int, threads: int) -> ExperimentReport:
    k, n = 3, 5
    instances = _sampled_complete("pp-two-matchings", seed, k, n, samples)
    chunksize = max(1, samples // (threads * 8))
    records = list(_map_maybe_parallel(_w_count_stable, instances, threads, chunksize))
    results = []
    failures = []
    for digest, count in records:
        ok = count >= 2
        results.append((digest, "ok" if ok else "fail", f"count={count}"))
        if not ok:
            failures.append(f"{digest} has only {count} weakly stable matchings")
    params = (
        ("k", str(k)),
        ("n", str(n)),
        ("samples", str(samples)),
        ("seed", str(seed)),
    )
    summary = (
        ("failures", str(len(failures))),
        ("min_count", str(min((c for _d, c in records), default=0))),
        ("total", str(len(records))),
    )
    return ExperimentReport(
        "pp-two-matchings", params, tuple(results), summary, tuple(failures)
    )


def _verifier_equivalence_experiment(
    samples: int, seed: int, threads: int
) -> ExperimentReport:
    del threads  # cheap enough sequentially; keeps the report path trivial
    results = []
    failures = []
    for idx in range(samples):
        rng = random.Random(f"{seed}:verifier-equivalence:{idx}")
        k = rng.choice((3, 4, 5))
        n = rng.randint(1, 6)
        density = rng.choice((0.3, 0.6, 1.0))
        inst = random_instance(rng.getrandbits(63), k, n, density)
        m = random_matching(inst, rng.getrandbits(63))
        naive = find_blocking_naive(inst, m)
        cycle = find_blocking_cycle(inst, m)
        agree = (naive is None) == (cycle is None)
        digest = instance_digest(inst)
        results.append(
            (
                digest,
                "ok" if agree else "fail",
                f"k={k} n={n} naive={'stable' if naive is None else 'blocked'}"
                f" cycle={'stable' if cycle is None else 'blocked'}",
            )
        )
        if not agree:
            failures.append(
                f"{digest} verdict mismatch on matching {serialize_matching(m)!r}"
            )
    params = (("samples", str(samples)), ("seed", str(seed)))
    summary = (("failures", str(len(failures))), ("total", str(len(results))))
    return ExperimentReport(
        "verifier-equivalence", params, tuple(results), summary, tuple(failures)
    )


def _lift_equivalence_experiment(
    n: int, target_k: int, samples: int | None, seed: int
) -> ExperimentReport:
    if samples is None:
        instances = enumerate_instances(3, n, complete=False)
        mode = "exhaustive"
    else:
        instances = (
            random_instance(
                random.Random(f"{seed}:lift-3k-equivalence:{idx}").getrandbits(63),
                3,
                n,
                density=random.Random(f"{seed}:lift-density:{idx}").choice(
                    (0.3, 0.6, 1.0)
                ),
            )
            for idx in range(samples)
        )
        mode = f"sample-{samples}"
    results = []
    failures = []
    total = 0
    for inst in instances:
        total += 1
        digest = instance_digest(inst)
        stable_in = enumerate_weakly_stable(inst)
        lifted, cmap = lift_3_to_k(inst, target_k)
        stable_out = enumerate_weakly_stable(lifted)
        problems = []
        if (len(stable_in) >= 1) != (len(stable_out) >= 1):
            problems.append("existence mismatch")
        if len(stable_in) != len(stable_out):
            problems.append("stable count mismatch")
        for m in stable_in:
            up = transport_matching(cmap, m, "up")
            if transport_matching(cmap, up, "down") != m:
                problems.append("transport round trip broken")
                break
        ok = not problems
        results.append(
            (
                digest,
                "ok" if ok else "fail",
                f"in={len(stable_in)} out={len(stable_out)}",
            )
        )
        if not ok:
            failures.append(f"{digest} " + "; ".join(problems))
    params = (
        ("mode", mode),
        ("n", str(n)),
        ("seed", str(seed)),
        ("target_k", str(target_k)),
    )
    summary = (("failures", str(len(failures))), ("total", str(total)))
    return ExperimentReport(
        "lift-3k-equivalence", params, tuple(results), summary, tuple(failures)
    )


def _run_gadget_checkers(gm, m_hat, m_down) -> list[str]:
    problems = []
    rep = check_gadget_confinement(gm, m_hat)
    problems.extend(rep.violations)
    rep = check_partner_correspondence(gm, m_hat, m_down)
    problems.extend(rep.violations)
    src = gm.source
    for alpha in src.agents():
        rep = check_admirer_bound(gm, m_hat, alpha, alpha.t)
        problems.extend(rep.violations)
    return problems


def _completion_experiment(
    name: str, samples: int, seed: int, want_stable: bool
) -> ExperimentReport:
    results = []
    failures = []
    collected = 0
    idx = 0
    while collected < samples:
        rng = random.Random(f"{seed}:{name}:{idx}")
        idx += 1
        n = rng.randint(1, 3)
        density = rng.choice((0.4, 0.7, 1.0))
        inst = random_instance(rng.getrandbits(63), 3, n, density)
        if want_stable:
            stable = enumerate_weakly_stable(inst, limit=1)
            if not stable:
                continue
            m = stable[0]
            blocker = None
        else:
            m = random_matching(inst, rng.getrandbits(63))
            blocker = find_blocking_naive(inst, m)
            if blocker is None:
                continue
        collected += 1
        digest = instance_digest(inst)
        completed, gm = complete_instance(inst)
        m_hat = induce_up(gm, m)
        problems = []
        if want_stable:
            verdict = is_weakly_stable(completed, m_hat, method="cycle")
            if not verdict.stable:
                problems.append(
                    f"induced matching blocked by {verdict.witness.members}"
                )
        else:
            image = Family(
                tuple(
                    gm.non_dummy(AgentRef(t, blocker.members[t])).i for t in range(3)
                )
            )
            if not is_strongly_blocking(completed, m_hat, image):
                problems.append(
                    f"image of blocker {blocker.members} fails to block upstairs"
                )
        m_down = induce_down(gm, m_hat)
        if m_down != m:
            problems.append("induce round trip broken")
        problems.extend(_run_gadget_checkers(gm, m_hat, m_down))
        ok = not problems
        results.append(
            (
                digest,
                "ok" if ok else "fail",
                f"n={n} families={len(m)}",
            )
        )
        if not ok:
            failures.append(f"{digest} " + "; ".join(problems))
    params = (("samples", str(samples)), ("seed", str(seed)))
    summary = (("failures", str(len(failures))), ("total", str(len(results))))
    return ExperimentReport(name, params, tuple(results), summary, tuple(failures))


def run_experiment(
    experiment: str,
    k: int | None = None,
    n: int | None = None,
    samples: int | None = None,
    seed: int = 0,
    target_k: int = 5,
    threads: int = 1,
    full: bool = False,
) -> ExperimentReport:
    """Run one scripted experiment and return its deterministic report.

    ``full`` forces exhaustive instance coverage for the bound experiments
    even past the auto-sampling threshold.
    """
    if experiment == "boros-bound":
        return _existence_experiment(
            "boros-bound",
            k or 3,
            n if n is not None else 2,
            samples,
            seed,
            threads,
            force_exhaustive=full,
        )
    if experiment == "eriksson-bound":
        return _existence_experiment(
            "eriksson-bound",
            k or 3,
            n if n is not None else 4,
            samples if samples is not None else 10_000,
            seed,
            threads,
        )
    if experiment == "pp-two-matchings":
        return _pp_experiment(samples if samples is not None else 200, seed, threads)
    if experiment == "verifier-equivalence":
        return _verifier_equivalence_experiment(
            samples if samples is not None else 1000, seed, threads
        )
    if experiment == "lift-3k-equivalence":
        return _lift_equivalence_experiment(
            n if n is not None else 2, target_k, samples, seed
        )
    if experiment == "complete-positive":
        return _completion_experiment(
            "complete-positive",
            samples if samples is not None else 500,
            seed,
            want_stable=True,
        )
    if experiment == "complete-negative":
        return _completion_experiment(
            "complete-negative",
            samples if samples is not None else 500,
            seed,
            want_stable=False,
        )
    raise UnknownExperimentError(experiment)
