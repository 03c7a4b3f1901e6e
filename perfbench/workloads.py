"""The three benchmark workloads: ``existence``, ``search`` and ``transport``.

Each workload builds its inputs from the workload seed in its constructor
(the benchmark's set-up), runs one *pass* over a fixed composition of items
per call to :meth:`run_pass`, checks every output, and in the traced run
measures the per-layer metrics from spans around each public ``kdsm`` call.
The runner always stops on a pass boundary, so every run sees the same mix
of item kinds whatever the machine speed.

The program only ever receives generated inputs and, for
``run_experiment``, a seed argument derived from the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from itertools import islice
from pathlib import Path
from statistics import median
from typing import NamedTuple

from spans import Tracer

MAX_MESSAGES = 20


def _derive(*parts) -> int:
    return random.Random(":".join(str(p) for p in parts)).getrandbits(32)


class Workload:
    """Item and failure bookkeeping shared by the workloads."""

    name = ""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str, items: int = 1) -> None:
        self.failed += items
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{self.name}: {message}")

    def describe(self) -> str:
        return ""

    def self_ms(self, tr: Tracer, items: int) -> dict[str, tuple[float, str]]:
        """Self time per item of each module the pass called."""
        return {
            f"self_ms.{self.name}.{module}": (sec * 1e3 / items, "ms")
            for module, sec in tr.module_self_seconds().items()
        }


# --------------------------------------------------------------------------
# existence: acceptance criteria 2-4 at a size a check can afford.
#
# Scales down criterion 2 (Boros: exhaustive k=3 n=2, then exhaustive k=3
# n=3, 10,077,696 instances, 522 s) to the n=2 run, sampled n=3 calls and
# one exhaustive k=6 n=2 space, and runs criteria 3 (Eriksson, n=4) and 4
# (pp-two-matchings, k=3 n=5) with fewer samples per call. Time goes to genlab generation, instance_digest
# and the k=3 bitmask scan (first-hit and count-all); verify, reductions
# and the file formats stay idle.


class Call(NamedTuple):
    label: str
    experiment: str
    k: int
    n: int
    kwargs: dict
    size: int
    exhaustive: bool


BOROS_N2 = Call("boros-k3n2", "boros-bound", 3, 2, {"k": 3, "n": 2}, 64, True)
BOROS = Call("boros-k3n3", "boros-bound", 3, 3, {"k": 3, "n": 3, "samples": 750}, 750, False)
FULL = Call("boros-k6n2-full", "boros-bound", 6, 2, {"k": 6, "n": 2, "full": True}, 4096, True)
ERIKSSON = Call("eriksson-k3n4", "eriksson-bound", 3, 4, {"n": 4, "samples": 750}, 750, False)
PP = Call("pp-k3n5", "pp-two-matchings", 3, 5, {"samples": 3}, 3, False)
CALLS = (BOROS_N2, BOROS, FULL, ERIKSSON, PP)
# One round of 30 calls. Sorted by per-instance latency the calls form
# bands far apart: Boros n=2 (9 calls, the cheapest), Boros n=3 and the
# full k=6 call (12), Eriksson (3), pp (6, two orders of magnitude
# slower). p50 then sits in the middle of the Boros n=3 band and p90 in
# the middle of the pp band, where machine noise cannot swap bands.
ROUND = (BOROS_N2, BOROS, BOROS_N2, BOROS, PP, BOROS_N2, BOROS, ERIKSSON, PP) * 3 + (
    BOROS, BOROS, FULL
)
REDECIDE_PER_CALL = 3
class Existence(Workload):
    name = "existence"

    def __init__(self, kd, cli, seed: int, root: Path, scratch: Path) -> None:
        super().__init__()
        self.kd = kd
        self.seed = seed
        self.report_sha: dict[tuple[int, int], str] = {}
        self.redecide: list[tuple[Call, int, int, str, str]] = []
        self.round0: dict[int, object] = {}

    def call_seed(self, r: int, j: int) -> int:
        return _derive(self.seed, "existence", r, j)

    def run_pass(self, r: int, tr, lat: list[float]) -> None:
        kd = self.kd
        for j, call in enumerate(ROUND):
            cseed = self.call_seed(r, j)
            self.attempted += call.size
            t0 = time.perf_counter()
            try:
                with tr.span("item", self.name, item=(r, j)):
                    with tr.span("genlab.run_experiment", call.label):
                        rep = kd.run_experiment(
                            call.experiment, seed=cseed, threads=1, **call.kwargs
                        )
            except Exception as exc:  # counted as failed items, run continues
                self.fail(f"{call.label} seed {cseed} raised {exc!r}", call.size)
                continue
            lat.append((time.perf_counter() - t0) * 1e3 / call.size)
            self._check_report(r, j, call, cseed, rep)

    def _check_report(self, r: int, j: int, call: Call, cseed: int, rep) -> None:
        kd = self.kd
        summary = dict(rep.summary)
        problems = []
        if rep.failures != ():
            problems.append(f"{len(rep.failures)} failures")
        if summary.get("total") != str(call.size):
            problems.append(f"total {summary.get('total')} != {call.size}")
        if call.experiment == "pp-two-matchings":
            if int(summary.get("min_count", "0")) < 2:
                problems.append(f"min_count {summary.get('min_count')} < 2")
        elif summary.get("with_stable") != summary.get("total"):
            problems.append("with_stable != total")
        if problems:
            self.fail(f"{call.label} seed {cseed}: " + "; ".join(problems), call.size)
        sha = hashlib.sha256(kd.serialize_report(rep).encode()).hexdigest()
        if (r, j) in self.report_sha:
            # a repeat of this call at the same seed: the bytes must not change
            if self.report_sha[(r, j)] != sha:
                self.fail(f"{call.label} seed {cseed}: report bytes differ between runs")
            return
        self.report_sha[(r, j)] = sha
        if r == 0:
            self.round0[j] = rep
        picks = random.Random(f"{self.seed}:existence-check:{r}:{j}").sample(
            range(call.size), min(REDECIDE_PER_CALL, call.size)
        )
        for idx in picks:
            digest, _verdict, detail = rep.results[idx]
            self.redecide.append((call, cseed, idx, digest, detail))

    @staticmethod
    def instance_seed(call: Call, cseed: int, idx: int) -> int:
        """The seed genlab derives for the idx-th sampled instance of a call."""
        return random.Random(f"{cseed}:{call.experiment}:{idx}").getrandbits(63)

    def replay(self, call: Call, cseed: int, idx: int):
        """The idx-th instance a call decided, rebuilt outside the program."""
        kd = self.kd
        if call.exhaustive:
            return next(islice(kd.enumerate_instances(call.k, call.n, True), idx, None))
        return kd.random_instance(self.instance_seed(call, cseed, idx), call.k, call.n, density=1.0)

    def check(self) -> None:
        kd = self.kd
        todo, self.redecide = self.redecide, []
        for call, cseed, idx, digest, detail in todo:
            inst = self.replay(call, cseed, idx)
            if kd.instance_digest(inst) != digest:
                self.fail(f"{call.label} seed {cseed} #{idx}: digest differs on replay")
                continue
            need = 2 if call is PP else 1
            found = len(kd.enumerate_weakly_stable(inst, limit=need))
            if found < need:
                self.fail(
                    f"{call.label} seed {cseed} #{idx}: re-decided with {found}"
                    f" stable matchings, report says {detail}"
                )

    def layer_metrics(self, tr: Tracer) -> dict[str, tuple[float, str]]:
        kd = self.kd
        items_before = self.attempted
        self.run_pass(0, tr, [])
        items = self.attempted - items_before
        out = self.self_ms(tr, items)
        # replay the first Boros call's instances: generation and digest
        j0 = ROUND.index(BOROS)
        boros_rep = self.round0[j0]
        for idx in range(BOROS.size):
            inst_seed = self.instance_seed(BOROS, self.call_seed(0, j0), idx)
            with tr.span("genlab.random_instance", BOROS.label):
                inst = kd.random_instance(inst_seed, BOROS.k, BOROS.n, density=1.0)
            with tr.span("core.instance_digest", BOROS.label):
                digest = kd.instance_digest(inst)
            if digest != boros_rep.results[idx][0]:
                self.fail(f"boros replay #{idx}: digest differs")
        # replay every pp instance of round 0 through the count-all scan
        for j, call in enumerate(ROUND):
            if call is not PP:
                continue
            for idx, (digest, _verdict, detail) in enumerate(self.round0[j].results):
                inst = self.replay(PP, self.call_seed(0, j), idx)
                with tr.span("solve.count_weakly_stable", PP.label):
                    count = kd.count_weakly_stable(inst)
                if detail != f"count={count}":
                    self.fail(f"pp replay #{idx}: count {count}, report {detail}")
        with tr.span("genlab.enumerate_instances", FULL.label):
            enumerated = sum(1 for _ in kd.enumerate_instances(FULL.k, FULL.n, True))
        if enumerated != FULL.size:
            self.fail(f"enumerate_instances yielded {enumerated} != {FULL.size}")

        gen_us = median(tr.durations("genlab.random_instance")) * 1e6
        digest_us = median(tr.durations("core.instance_digest")) * 1e6
        call_us = median(tr.durations("genlab.run_experiment", BOROS.label)) * 1e6
        out["genlab.random_instance_us"] = (gen_us, "us")
        out["core.digest_us"] = (digest_us, "us")
        # derived, not a span: per-instance Boros call time minus generation
        # and digest leaves the first-hit scan plus per-instance overhead
        out["solve.scan_first_us"] = (call_us / BOROS.size - gen_us - digest_us, "us")
        out["solve.count_k3_ms"] = (
            median(tr.durations("solve.count_weakly_stable")) * 1e3, "ms"
        )
        out["genlab.enumerate_instances_us"] = (
            tr.durations("genlab.enumerate_instances")[0] * 1e6 / FULL.size, "us"
        )
        for call in CALLS:
            out[f"genlab.experiment_s.{call.label}"] = (
                median(tr.durations("genlab.run_experiment", call.label)), "s"
            )
        return out


# --------------------------------------------------------------------------
# search: the budgeted solver and the exact counter.
#
# Scales down criterion 8's budget stage (find_weakly_stable on
# complete_instance(fixture), k=3 n=60, 10^7 nodes, 106 s) to a fixed node
# budget, next to seeded mutations of the committed no-stable fixture
# (about a sixth have no stable matching, so EXHAUSTED-NONE is exercised)
# and small random instances the solver settles. Backtracking, backjumping
# and leaf verification dominate; the k=3 scan, reductions and file formats
# stay idle.

FIXTURE = Path("tests") / "data" / "no_stable_3dsmi.kdsm"
FIXTURE_BUDGET = 50_000
SOLVE_BUDGET = 100_000  # 500x the most nodes any settled input here needed
MUTATIONS = 600
# (k, n, density): complete k=4-5 and incomplete k=3-4 instances; complete
# k=3 with n >= 6 is left out because it often runs out of budget
SETTLED = ((4, 2, 1.0), (4, 3, 1.0), (5, 2, 1.0), (5, 3, 1.0),
           (3, 5, 0.5), (4, 4, 0.5), (4, 5, 0.5))
SETTLED_PER_KIND = 60


class Unit(NamedTuple):
    op: str  # "find" or "count"
    tag: str
    inst: object
    mutation: int | None


class Search(Workload):
    name = "search"

    def __init__(self, kd, cli, seed: int, root: Path, scratch: Path) -> None:
        super().__init__()
        self.kd = kd
        fixture = kd.parse_instance((root / FIXTURE).read_text(encoding="utf-8"))
        completed, _gm = kd.complete_instance(fixture)
        rng = random.Random(f"{seed}:search")
        mutations = [self._mutate(fixture, rng) for _ in range(MUTATIONS)]
        settled = []
        for idx in range(len(SETTLED) * SETTLED_PER_KIND):
            k, n, density = SETTLED[idx % len(SETTLED)]
            inst = kd.random_instance(rng.getrandbits(63), k, n, density)
            settled.append(Unit("find", f"k{k}n{n}d{density}", inst, None))
        units = [Unit("find", "completed-k3n60", completed, None)]
        for idx in range(max(len(mutations), len(settled))):
            if idx < len(mutations):
                units.append(Unit("find", "mutation", mutations[idx], idx))
                units.append(Unit("count", "mutation", mutations[idx], idx))
            if idx < len(settled):
                units.append(settled[idx])
        self.units = units
        self.first: dict[int, tuple] = {}
        self.checked: set[int] = set()

    def _mutate(self, fixture, rng: random.Random):
        """Redraw 1-3 preference lists of the fixture at density 0.5."""
        prefs = [list(row) for row in fixture.prefs]
        for _ in range(rng.randint(1, 3)):
            t = rng.randrange(fixture.k)
            i = rng.randrange(fixture.n)
            sub = [c for c in range(fixture.n) if rng.random() < 0.5]
            rng.shuffle(sub)
            prefs[t][i] = tuple(sub)
        return self.kd.Instance(fixture.k, fixture.n, tuple(tuple(r) for r in prefs))

    def run_pass(self, p: int, tr, lat: list[float]) -> None:
        kd = self.kd
        fixture_budget = kd.Budget(max_nodes=FIXTURE_BUDGET)
        solve_budget = kd.Budget(max_nodes=SOLVE_BUDGET)
        for idx, unit in enumerate(self.units):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                with tr.span("item", self.name, item=(p, idx)):
                    if unit.op == "find":
                        budget = fixture_budget if idx == 0 else solve_budget
                        with tr.span("solve.find_weakly_stable", unit.tag):
                            out = kd.find_weakly_stable(unit.inst, budget)
                        result = (out.status.value, out.nodes_explored, out.matching)
                    else:
                        with tr.span("solve.count_weakly_stable", unit.tag):
                            result = (kd.count_weakly_stable(unit.inst),)
            except Exception as exc:  # counted as a failed item, run continues
                self.fail(f"unit {idx} ({unit.op} {unit.tag}) raised {exc!r}")
                continue
            lat.append((time.perf_counter() - t0) * 1e3)
            seen = self.first.setdefault(idx, result)
            if seen != result:
                self.fail(f"unit {idx} ({unit.op} {unit.tag}) differs on repeat")

    def find_nodes(self) -> int:
        return sum(r[1] for i, r in self.first.items() if self.units[i].op == "find")

    def check(self) -> None:
        """Check each find call's first result once (a repeat must equal it)."""
        kd = self.kd
        for idx, result in sorted(self.first.items()):
            unit = self.units[idx]
            if unit.op != "find" or idx in self.checked:
                continue
            self.checked.add(idx)
            status, nodes, matching = result
            if idx == 0:
                if status == "FOUND":
                    self.fail("completed fixture: solver reported FOUND")
                elif status == "BUDGET-EXCEEDED" and nodes != FIXTURE_BUDGET:
                    self.fail(f"completed fixture: {nodes} nodes != budget {FIXTURE_BUDGET}")
                continue
            if status == "FOUND":
                if not kd.validate_matching(unit.inst, matching).ok:
                    self.fail(f"unit {idx}: FOUND matching is not valid")
                if kd.find_blocking_naive(unit.inst, matching) is not None:
                    self.fail(f"unit {idx}: FOUND matching blocked (naive)")
                if kd.find_blocking_cycle(unit.inst, matching) is not None:
                    self.fail(f"unit {idx}: FOUND matching blocked (cycle)")
            elif status == "EXHAUSTED-NONE":
                if unit.mutation is None and kd.count_weakly_stable(unit.inst) != 0:
                    self.fail(f"unit {idx}: EXHAUSTED-NONE but stable matchings exist")
            else:
                self.fail(f"unit {idx} ({unit.tag}): did not settle within {SOLVE_BUDGET} nodes")
            # the count call on the same mutation comes right after the find
            # (when it raised, that failure is already counted)
            if unit.mutation is not None and idx + 1 in self.first:
                count = self.first[idx + 1][0]
                if (status == "FOUND") != (count > 0):
                    self.fail(f"mutation {unit.mutation}: find says {status}, count says {count}")

    def decided(self) -> tuple[int, int]:
        finds = [r for i, r in self.first.items() if self.units[i].op == "find"]
        return sum(1 for r in finds if r[0] != "BUDGET-EXCEEDED"), len(finds)

    def layer_metrics(self, tr: Tracer) -> dict[str, tuple[float, str]]:
        items_before = self.attempted
        self.run_pass(0, tr, [])
        out = self.self_ms(tr, self.attempted - items_before)
        fixture_nodes = self.first[0][1]
        out["solve.find_nodes"] = (self.find_nodes(), "count")
        out["solve.nodes_per_s"] = (
            fixture_nodes / tr.durations("solve.find_weakly_stable", "completed")[0], "1/s"
        )
        decided, finds = self.decided()
        out["solve.decided_ratio"] = (decided / finds, "ratio")
        out["solve.count_ms"] = (median(tr.durations("solve.count_weakly_stable")) * 1e3, "ms")
        return out

    def describe(self) -> str:
        decided, finds = self.decided()
        statuses: dict[str, int] = {}
        for i, r in self.first.items():
            if self.units[i].mutation is not None and self.units[i].op == "find":
                statuses[r[0]] = statuses.get(r[0], 0) + 1
        mix = " ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
        return (f"find_nodes={self.find_nodes()} decided={decided}/{finds}"
                f" mutations: {mix}")


# --------------------------------------------------------------------------
# transport: the gadget and lift reductions, weak-stability verification
# and the file formats.
#
# Scales down criteria 6, 7 and 9 (complete-positive, complete-negative and
# the round trips, 500-1000 pairs each) to a fixed mix of k in {3,4,5},
# n in 1..4 and both verdicts, at sizes up to a completed n=340. Stable
# verdicts make verification scan everything, blocked ones exit early.
# solve and genlab stay idle in the timed phase.

KS = (3, 4, 5)
NS = (1, 2, 3, 4)
VERDICTS = ("stable", "blocked")
DENSITIES = (0.4, 0.7, 1.0)
POOL_PASSES = 8
# Sorted by latency the pass's items form bands: seven cheaper than
# k=5 n=1 and seven dearer, two items each. Three sources per verdict at
# k=5 n=1 widen that middle band, so p50 sits well inside it, and p90
# falls in the middle of the k=5 n=3 band, far from its neighbours.
SOURCES_PER_VERDICT = {(5, 1): 3}
LIFT_K = 5
CLI_N = 2  # sources with this n also run through kdsm.cli.main


class Source(NamedTuple):
    k: int
    n: int
    verdict: str
    inst: object
    matching: object
    files: tuple[Path, Path] | None


class Transport(Workload):
    name = "transport"

    def __init__(self, kd, cli, seed: int, root: Path, scratch: Path) -> None:
        super().__init__()
        self.kd = kd
        self.cli = cli
        self.scratch = scratch
        self.pool: list[list[Source]] = []
        for p in range(POOL_PASSES):
            sources = []
            for k in KS:
                for n in NS:
                    for verdict in VERDICTS:
                        for copy in range(SOURCES_PER_VERDICT.get((k, n), 1)):
                            sources.append(self._source(seed, p, k, n, verdict, copy))
            self.pool.append(sources)
        self.bytes: list[int] = []

    def _source(self, seed: int, p: int, k: int, n: int, verdict: str, copy: int) -> Source:
        kd = self.kd
        rng = random.Random(f"{seed}:transport:{p}:{k}:{n}:{verdict}:{copy}")
        for _ in range(1000):
            inst = kd.random_instance(rng.getrandbits(63), k, n, rng.choice(DENSITIES))
            if verdict == "stable":
                stable = kd.enumerate_weakly_stable(inst, limit=1)
                if not stable:
                    continue
                m = stable[0]
            else:
                m = kd.random_matching(inst, rng.getrandbits(63))
                if kd.find_blocking_naive(inst, m) is None:
                    continue
            files = None
            if n == CLI_N:
                stem = self.scratch / f"src-{p}-k{k}-{verdict}-{copy}"
                files = (stem.with_suffix(".kdsm"), stem.with_suffix(".matching"))
                files[0].write_text(kd.serialize_instance(inst), encoding="utf-8")
                files[1].write_text(kd.serialize_matching(m), encoding="utf-8")
            return Source(k, n, verdict, inst, m, files)
        raise RuntimeError(f"no {verdict} source for k={k} n={n} in 1000 draws")

    def run_pass(self, p: int, tr, lat: list[float]) -> None:
        sources = self.pool[p % POOL_PASSES]
        items = [(src, False) for src in sources]
        items += [(src, True) for src in sources if src.files is not None]
        for pos, (src, via_cli) in enumerate(items):
            self.attempted += 1
            tag = f"k{src.k}.n{src.n}.{src.verdict}"
            t0 = time.perf_counter()
            try:
                with tr.span("item", self.name, item=(p, pos)):
                    if via_cli:
                        outcome = self._cli_item(src, tr, tag)
                    else:
                        outcome = self._api_item(src, tr, tag)
                lat.append((time.perf_counter() - t0) * 1e3)
                problems = self._check(src, outcome)
            except Exception as exc:  # counted as a failed item, run continues
                problems = [f"raised {exc!r}"]
            if problems:
                self.fail(f"pass {p} {tag}{' via the CLI' if via_cli else ''}: "
                          + "; ".join(problems))

    def _api_item(self, src: Source, tr, tag: str) -> dict:
        kd = self.kd
        with tr.span("reductions.complete_instance", tag):
            completed, gm = kd.complete_instance(src.inst)
        with tr.span("core.serialize_instance", tag):
            inst_text = kd.serialize_instance(completed)
        with tr.span("reductions.serialize_map", tag):
            map_text = gm.serialize()
        with tr.span("core.parse_instance", tag):
            parsed = kd.parse_instance(inst_text)
        with tr.span("reductions.parse_map", tag):
            gm2 = kd.parse_map(map_text).with_source(src.inst)
        with tr.span("reductions.induce_up", tag):
            m_hat = kd.induce_up(gm2, src.matching)
        with tr.span("core.serialize_matching", tag):
            m_text = kd.serialize_matching(m_hat)
        with tr.span("core.parse_matching", tag):
            m_hat2 = kd.parse_matching(m_text)
        with tr.span("verify.is_weakly_stable", tag):
            verdict = kd.is_weakly_stable(parsed, m_hat2, method="auto")
        with tr.span("reductions.induce_down", tag):
            m_down = kd.induce_down(gm2, m_hat2)
        with tr.span("reductions.checkers", tag):
            reports = [
                kd.check_gadget_confinement(gm2, m_hat2),
                kd.check_partner_correspondence(gm2, m_hat2, m_down),
            ] + [kd.check_admirer_bound(gm2, m_hat2, a, a.t) for a in src.inst.agents()]
        lift_down = None
        if src.k == 3:
            with tr.span("reductions.lift_3_to_k", tag):
                _lifted, cmap = kd.lift_3_to_k(src.inst, LIFT_K)
            with tr.span("reductions.transport_matching", tag):
                up = kd.transport_matching(cmap, src.matching, "up")
            with tr.span("reductions.transport_matching", tag):
                lift_down = kd.transport_matching(cmap, up, "down")
        if tr.enabled:
            self.bytes.append(len(inst_text) + len(map_text) + len(m_text))
        return {
            "same_instance": parsed == completed and (gm2.k, gm2.n) == (gm.k, gm.n),
            "same_matching": m_hat2 == m_hat,
            "stable": verdict.stable,
            "down": m_down,
            "checkers": [r.name for r in reports if not r.ok],
            "lift_down": lift_down,
        }

    def _cli_item(self, src: Source, tr, tag: str) -> dict:
        inst_file, m_file = src.files
        stem = inst_file.with_suffix("")
        big, cmap, up, down = (Path(f"{stem}.{ext}") for ext in ("big", "map", "up", "down"))
        codes = {}
        for key, argv in (
            ("reduce", ["reduce", str(inst_file), "--mode", "complete",
                        "--out", str(big), "--map-out", str(cmap)]),
            ("induce-up", ["induce", "--direction", "up", "--map", str(cmap),
                        "--matching", str(m_file), "--instance", str(inst_file),
                        "--out", str(up)]),
            ("verify", ["verify", str(big), str(up), "--method", "auto"]),
            ("induce-down", ["induce", "--direction", "down", "--map", str(cmap),
                        "--matching", str(up), "--instance", str(inst_file),
                        "--out", str(down)]),
        ):
            stdout, stderr = io.StringIO(), io.StringIO()
            with tr.span(f"cli.{argv[0]}", tag):
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = self.cli.main(argv)
            codes[key] = (code, stdout.getvalue())
        return {"codes": codes, "down": self.kd.parse_matching(down.read_text(encoding="utf-8"))}

    def _check(self, src: Source, out: dict) -> list[str]:
        stable = src.verdict == "stable"
        problems = []
        if out["down"] != src.matching:
            problems.append("induce round trip is not the identity")
        if "codes" in out:
            codes = out["codes"]
            for step in ("reduce", "induce-up", "induce-down"):
                if codes[step][0] != 0:
                    problems.append(f"kdsm {step} exited {codes[step][0]}")
            code, text = codes["verify"]
            want = (0, "STABLE") if stable else (1, "UNSTABLE")
            if code != want[0] or text.split()[:1] != [want[1]]:
                problems.append(f"kdsm verify exited {code} ({text.strip()!r}), source is {src.verdict}")
            return problems
        if not out["same_instance"]:
            problems.append("completed instance or map changed in a serialize/parse round trip")
        if not out["same_matching"]:
            problems.append("induced matching changed in a serialize/parse round trip")
        if out["stable"] != stable:
            problems.append(f"verdict on the completed instance differs from the {src.verdict} source")
        if out["checkers"]:
            problems.append("checker violations: " + ", ".join(out["checkers"]))
        if src.k == 3 and out["lift_down"] != src.matching:
            problems.append("lift transport round trip is not the identity")
        return problems

    def check(self) -> None:
        """Every transport output is checked inside its item."""

    def _probe(self, src: Source, tr: Tracer) -> None:
        """Verification grid on a fresh completed pair, outside any item."""
        kd = self.kd
        completed, gm = kd.complete_instance(src.inst)
        m_hat = kd.induce_up(gm, src.matching)
        cell = f"k{src.k}.{src.verdict}"
        with tr.span("probe", cell):
            with tr.span("verify.is_weakly_stable", "cold"):
                cold = kd.is_weakly_stable(completed, m_hat, method="auto")
            with tr.span("verify.is_weakly_stable", "warm"):
                warm = kd.is_weakly_stable(completed, m_hat, method="auto")
            with tr.span("verify.find_blocking_naive", cell):
                naive = kd.find_blocking_naive(completed, m_hat)
            with tr.span("verify.find_blocking_cycle", cell):
                cycle = kd.find_blocking_cycle(completed, m_hat)
        stable = src.verdict == "stable"
        if (cold.stable, warm.stable, naive is None, cycle is None) != (stable,) * 4:
            self.fail(f"probe {cell} n={src.n}: verdicts disagree with the source")

    def layer_metrics(self, tr: Tracer) -> dict[str, tuple[float, str]]:
        items_before = self.attempted
        self.bytes = []
        self.run_pass(0, tr, [])
        out = self.self_ms(tr, self.attempted - items_before)
        for src in self.pool[0]:
            self._probe(src, tr)

        def ms(name: str, tag: str = "") -> float:
            return median(tr.durations(name, tag)) * 1e3

        for k in KS:
            out[f"reductions.complete_ms.k{k}"] = (ms("reductions.complete_instance", f"k{k}."), "ms")
        out["reductions.induce_up_ms"] = (ms("reductions.induce_up"), "ms")
        out["reductions.induce_down_ms"] = (ms("reductions.induce_down"), "ms")
        out["reductions.checkers_ms"] = (ms("reductions.checkers"), "ms")
        out["reductions.lift_ms"] = (ms("reductions.lift_3_to_k"), "ms")
        out["reductions.transport_ms"] = (ms("reductions.transport_matching"), "ms")
        out["core.serialize_ms"] = (median(tr.per_item((
            "core.serialize_instance", "reductions.serialize_map", "core.serialize_matching"
        ))) * 1e3, "ms")
        out["core.parse_ms"] = (median(tr.per_item((
            "core.parse_instance", "reductions.parse_map", "core.parse_matching"
        ))) * 1e3, "ms")
        out["core.bytes"] = (median(self.bytes), "count")
        out["verify.cold_ms"] = (ms("verify.is_weakly_stable", "cold"), "ms")
        out["verify.warm_ms"] = (ms("verify.is_weakly_stable", "warm"), "ms")
        for method in ("naive", "cycle"):
            for k in KS:
                for verdict in VERDICTS:
                    out[f"verify.{method}_ms.k{k}.{verdict}"] = (
                        ms(f"verify.find_blocking_{method}", f"k{k}.{verdict}"), "ms"
                    )
        for step in ("reduce", "induce", "verify"):
            out[f"cli.{step}_ms"] = (ms(f"cli.{step}"), "ms")
        return out

    def describe(self) -> str:
        sources = self.pool[0]
        stable = sum(1 for s in sources if s.verdict == "stable")
        via_cli = sum(1 for s in sources if s.files is not None)
        return (f"per pass: {len(sources) + via_cli} items, {len(sources)} through the"
                f" API ({stable} stable), {via_cli} through the CLI")


WORKLOADS = {w.name: w for w in (Existence, Search, Transport)}
