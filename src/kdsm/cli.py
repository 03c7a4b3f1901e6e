"""Command-line entry point.

Subcommands: gen, reduce, verify, solve, induce, experiment. Every flag can
also be set through an environment variable named ``KDSM_<FLAG>`` (dashes
become underscores); explicit flags win. ``experiment`` passes a value set
only by a variable to the experiments whose entry names it, and ``solve``
its ``--out`` to ``--mode find`` alone, which writes the matching it finds
there and keeps the status and ``nodes`` lines on stdout. Each run
echoes its resolved configuration on stderr. Exit codes are a stable
contract: 0 success (or stable), 1 unstable (or experiment failures), 2
invalid input, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from . import genlab, reductions, solve
from .core import (
    ArgumentError,
    FormatError,
    InvalidFamilyError,
    KdsmError,
    SpaceTooLargeError,
    parse_instance,
    parse_matching,
    partner_rows,
    serialize_instance,
    serialize_matching,
    validate_instance,
)
from .verify import is_weakly_stable

EXIT_OK = 0
EXIT_UNSTABLE = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

SWITCH_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _switch(raw: str) -> bool:
    word = raw.strip().lower()
    if word not in SWITCH_WORDS:
        raise argparse.ArgumentTypeError(
            f"invalid switch value {raw!r}; expected one of {', '.join(SWITCH_WORDS)}"
        )
    return SWITCH_WORDS[word]


def _one_of(choices: Sequence[str]) -> Callable[[str], str]:
    def check(raw: str) -> str:
        if raw not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice {raw!r}; expected one of {', '.join(choices)}"
            )
        return raw

    return check


def _add(parser: argparse.ArgumentParser, flag: str, cast, default, *aliases, **kw):
    """Add ``--<flag>``, defaulting to ``KDSM_<FLAG>`` when that is set.

    A variable's value stays a string, which argparse converts with ``cast``
    (and checks against ``choices``) for the subcommand that runs, exiting 2
    on a value the flag itself would reject.
    """
    raw = os.environ.get("KDSM_" + flag.upper().replace("-", "_"))
    if "choices" in kw:
        cast = _one_of(kw["choices"])
    parser.add_argument(
        f"--{flag}", *aliases, type=cast, default=default if raw is None else raw, **kw
    )


class _Given(argparse.Action):
    """Store a flag's value and record in ``given`` that the command line set it.

    With ``nargs=0`` it is a switch: ``--<name>`` stores True, ``--no-<name>`` False.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if self.nargs == 0:
            values = not option_string.startswith("--no-")
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, payload: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)


def _echo_config(args: argparse.Namespace) -> None:
    pairs = " ".join(
        f"{key}={getattr(args, key)!r}"
        for key in sorted(vars(args))
        if key not in ("handler", "given")
    )
    print(f"kdsm config: {pairs}", file=sys.stderr)


def _load_instance(path: str):
    inst = parse_instance(_read(path))
    report = validate_instance(inst)
    if not report.ok:
        raise FormatError("invalid instance: " + "; ".join(report.violations))
    return inst


def cmd_gen(args) -> int:
    inst = genlab.random_instance(args.seed, args.k, args.n, args.density)
    _write(args.out, serialize_instance(inst))
    return EXIT_OK


def cmd_reduce(args) -> int:
    inst = _load_instance(args.instance)
    if args.mode == "3k":
        out, rmap = reductions.lift_3_to_k(inst, args.target_k)
    else:
        out, rmap = reductions.complete_instance(inst, args.shuffle_seed)
    _write(args.out, serialize_instance(out))
    if args.map_out:
        _write(args.map_out, rmap.serialize())
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    m = parse_matching(_read(args.matching))
    try:
        verdict = is_weakly_stable(inst, m, method=args.method)
    except InvalidFamilyError as exc:
        print("INVALID")
        print(f"violation {exc}", file=sys.stderr)
        return EXIT_INVALID
    if verdict.stable:
        print("STABLE")
        return EXIT_OK
    witness = " ".join(str(x) for x in verdict.witness.members)
    print(f"UNSTABLE witness {witness}")
    return EXIT_UNSTABLE


def cmd_solve(args) -> int:
    if args.mode != "find" and "out" in getattr(args, "given", ()):
        raise ArgumentError("--out takes the matching of --mode find")
    inst = _load_instance(args.instance)
    if args.mode == "count":
        print(solve.count_weakly_stable(inst))
        return EXIT_OK
    if args.mode == "enumerate":
        matchings = solve.enumerate_weakly_stable(inst, limit=args.limit)
        for idx, m in enumerate(matchings):
            if idx:
                print()
            sys.stdout.write(serialize_matching(m))
        return EXIT_OK
    budget = solve.Budget(max_nodes=args.budget, max_seconds=args.time_limit)
    outcome = solve.find_weakly_stable(inst, budget)
    print(outcome.status.value)
    print(f"nodes {outcome.nodes_explored}")
    if outcome.matching is not None:
        _write(args.out, serialize_matching(outcome.matching))
    return EXIT_OK


def cmd_induce(args) -> int:
    if not args.map or not args.matching:
        raise FormatError("induce requires --map and --matching")
    mapping = reductions.parse_map(_read(args.map))
    m = parse_matching(_read(args.matching))
    inst = _load_instance(args.instance) if args.instance else None
    if inst is not None:
        mapping = mapping.with_source(inst)
        if args.direction == "up":
            partner_rows(inst, m)  # the matching going up must fit the input
    elif args.direction == "down" and isinstance(mapping, reductions.GadgetMap):
        raise FormatError("--instance (the original input) is required for down")
    if isinstance(mapping, reductions.CorrMap3K):
        out = reductions.transport_matching(mapping, m, args.direction)
    elif args.direction == "up":
        out = reductions.induce_up(mapping, m)
    else:
        out = reductions.induce_down(mapping, m)
    if inst is not None and args.direction == "down":
        partner_rows(inst, out)  # the matching coming down must fit the input
    _write(args.out, serialize_matching(out))
    return EXIT_OK


def cmd_experiment(args) -> int:
    # a value from a KDSM_* variable reaches only experiments whose entry
    # names it; an explicit flag always reaches run_experiment, which
    # rejects one the experiment does not take
    _runner, named = genlab.EXPERIMENTS.get(args.id, (None, {}))
    keys = set(named) | getattr(args, "given", frozenset())
    report = genlab.run_experiment(args.id, **{key: getattr(args, key) for key in keys})
    _write(args.out, genlab.serialize_report(report))
    return EXIT_OK if report.ok else EXIT_UNSTABLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdsm",
        description="k-dimensional stable matching with cyclic preferences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    _add(p, "k", int, 3)
    _add(p, "n", int, 2)
    _add(p, "seed", int, 0)
    _add(p, "density", float, 1.0)
    _add(p, "out", str, None)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("reduce", help="run a reduction on an instance file")
    p.add_argument("instance")
    _add(p, "mode", str, "complete", choices=("3k", "complete"))
    _add(p, "target-k", int, 5)
    _add(p, "shuffle-seed", int, None, help="shuffle arbitrary-order tails")
    _add(p, "out", str, None)
    _add(p, "map-out", str, None)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("verify", help="decide weak stability of a matching")
    p.add_argument("instance")
    p.add_argument("matching")
    _add(p, "method", str, "auto", choices=("naive", "cycle", "auto"))
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("solve", help="find, enumerate, or count stable matchings")
    p.add_argument("instance")
    _add(p, "mode", str, "find", choices=("find", "enumerate", "count"))
    _add(p, "budget", int, None, help="node budget for --mode find")
    _add(p, "time-limit", float, None)
    _add(p, "limit", int, None, help="result cap for --mode enumerate")
    _add(p, "out", str, None, action=_Given,
         help="write the matching --mode find found here; status and nodes stay on stdout")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("induce", help="transport a matching across a reduction map")
    _add(p, "direction", str, "up", choices=("up", "down"))
    _add(p, "map", str, None, help="map file written by reduce")
    _add(p, "matching", str, None)
    _add(p, "instance", str, None, help="original input instance (needed for down)")
    _add(p, "out", str, None)
    p.set_defaults(handler=cmd_induce)

    p = sub.add_parser("experiment", help="run a scripted experiment")
    _add(p, "id", str, None)
    _add(p, "k", int, None, action=_Given)
    _add(p, "n", int, None, action=_Given)
    _add(p, "samples", int, None, action=_Given)
    _add(p, "seed", int, 0, action=_Given)
    _add(p, "target-k", int, 5, action=_Given)
    _add(p, "threads", int, 1, action=_Given)
    _add(p, "full", _switch, False, "--no-full", action=_Given, nargs=0,
         help="force exhaustive coverage for the bound experiments")
    _add(p, "out", str, None)
    p.set_defaults(handler=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.handler(args)
    except SpaceTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (KdsmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
