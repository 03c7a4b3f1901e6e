"""kdsm benchmark: one command, three seeded workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {existence,search,transport} \\
        --seed N --seconds S --trace {0,1}

The benchmark imports ``kdsm`` from ``src/`` of the checkout it sits in,
in this one process, with ``threads=1`` everywhere and no worker pool. It
prints one ``metric <name> <value> <unit>`` line per metric, a ``machine``
line, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the named workload untraced and then traced for half of
``--seconds`` each (the throughput ratio is the tracing overhead), then one
traced pass of every workload with spans around each public ``kdsm`` call,
and reports the per-layer metrics. Spans go to
``.bench_out/spans-<workload>-<seed>.json`` when the run ends.

See README.md in this directory for what each workload scales down and
what is deliberately left out.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import NullTracer, Tracer, write_spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
MIN_LATENCY_SAMPLES = 100


def fresh_import():
    """Import kdsm from the checkout's src/, re-executing every kdsm module."""
    for name in [m for m in sys.modules if m == "kdsm" or m.startswith("kdsm.")]:
        del sys.modules[name]
    kd = importlib.import_module("kdsm")
    cli = importlib.import_module("kdsm.cli")
    if not Path(kd.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"kdsm was imported from {kd.__file__}, not from {SRC}")
    return kd, cli


def setup(name: str, seed: int, scratch: Path):
    """Import kdsm and build the workload's inputs several times; the
    median is ``setup_s``. The first import also compiles and loads the
    standard-library modules kdsm needs, so it is the slowest."""
    times = []
    wl = None
    for _ in range(SETUP_REPS):
        gc.collect()  # the previous repetition's garbage is not this one's cost
        t0 = time.perf_counter()
        kd, cli = fresh_import()
        wl = WORKLOADS[name](kd, cli, seed, ROOT, scratch)
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


class Phase:
    """Items, latencies and per-pass rates of one timed phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.rates: list[float] = []
        self.items = 0
        self.elapsed = 0.0

    def run_pass(self, wl, p: int, tr) -> None:
        before = wl.attempted
        t0 = time.perf_counter()
        wl.run_pass(p, tr, self.latencies)
        elapsed = time.perf_counter() - t0
        self.elapsed += elapsed
        self.items += wl.attempted - before
        self.rates.append((wl.attempted - before) / elapsed)

    @property
    def throughput(self) -> float:
        return self.items / self.elapsed

    def done(self, seconds: float) -> bool:
        return self.elapsed >= seconds and len(self.latencies) >= MIN_LATENCY_SAMPLES


def timed_phase(wl, tr, seconds: float) -> Phase:
    """Run whole passes until ``seconds`` elapsed and enough latencies exist."""
    phase = Phase()
    p = 0
    while not phase.done(seconds):
        phase.run_pass(wl, p, tr)
        p += 1
    return phase


def overhead_phases(wl, seconds: float):
    """Alternate untraced and traced passes in ABBA order, so drift cancels,
    until each side took half of ``seconds``; returns both and the tracer."""
    tr = Tracer()
    untraced, traced = Phase(), Phase()
    p = 0
    while not (untraced.done(seconds / 2) and traced.done(seconds / 2)):
        order = ((untraced, NullTracer()), (traced, tr))
        for phase, tracer in order if p % 2 == 0 else order[::-1]:
            phase.run_pass(wl, p, tracer)
        p += 1
    return untraced, traced, tr


def machine(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        else:
            commit = ref
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    # the CLI items must see only the flags they pass
    for key in [k for k in os.environ if k.startswith("KDSM_")]:
        del os.environ[key]
    info = machine(args)
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            wl, setup_s = setup(args.workload, args.seed, scratch)
        except Exception as exc:
            print(f"benchmark set-up failed: {exc!r}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, workloads = traced_run(wl, args, info, scratch)
        else:
            phase = timed_phase(wl, NullTracer(), args.seconds)
            wl.check()
            workloads = [wl]
            metrics = {
                "setup_s": (setup_s, "s"),
                "throughput": (phase.throughput, "1/s"),
                "latency_p50_ms": (statistics.median(phase.latencies), "ms"),
                "latency_p90_ms": (statistics.quantiles(phase.latencies, n=10)[8], "ms"),
                "ok_ratio": (max(wl.attempted - wl.failed, 0) / wl.attempted, "ratio"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
                ),
            }
            print(f"# {wl.name}: {phase.items} items in {len(phase.rates)} passes,"
                  f" {phase.elapsed:.3f} s, {len(phase.latencies)} latency samples,"
                  f" fail_ratio {wl.failed}/{phase.items}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(w.attempted for w in workloads)
    failed = sum(w.failed for w in workloads)
    for w in workloads:
        summary = w.describe()
        if summary:
            print(f"# {w.name}: {summary}")
        for message in w.messages:
            print(f"FAIL {message}", file=sys.stderr)
    print("machine " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_run(wl, args, info, scratch):
    """Tracing overhead on the named workload, then every per-layer metric."""
    untraced, traced, tr_phase = overhead_phases(wl, args.seconds)
    wl.check()
    # each untraced pass ran next to a traced pass on the same inputs; the
    # median of the pairwise ratios cancels drift in the machine's speed
    ratios = [u / t for u, t in zip(untraced.rates, traced.rates)]
    metrics = {"trace.overhead": (statistics.median(ratios), "ratio")}
    print(f"# {wl.name}: untraced {untraced.throughput:.3f}/s over {untraced.items} items,"
          f" traced {traced.throughput:.3f}/s over {traced.items} items")
    phases = {f"timed.{wl.name}": tr_phase}
    workloads = []
    for name in sorted(WORKLOADS):
        other = wl
        if name != wl.name:
            kd, cli = fresh_import()
            other = WORKLOADS[name](kd, cli, args.seed, ROOT, scratch)
        tr = Tracer()
        metrics.update(other.layer_metrics(tr))
        other.check()
        phases[f"layers.{name}"] = tr
        workloads.append(other)
    write_spans(OUT / f"spans-{args.workload}-{args.seed}.json", info, phases)
    return dict(sorted(metrics.items())), workloads


if __name__ == "__main__":
    sys.exit(main())
