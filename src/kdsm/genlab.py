"""Instance generation, exhaustive enumeration, and the experiment harness.

Randomness policy: every generator is a Mersenne Twister (``random.Random``)
seeded either with the caller's integer seed or with a derived string seed
of the form ``"<seed>:<tag>:<index>"``. CPython guarantees the generator's
output sequence for a fixed seed, so reports reproduce bit-exactly for a
given seed on any platform running the same Python series.
``random_instance`` and ``_derived_seeds`` draw from ``_random.Random``, the
C type that ``random.Random`` subclasses: an int seed gives the same stream,
and a string seed is first read as CPython 3.11's version-2 seeding reads it.

``random_instance`` consumes its stream in a fixed order: for each agent in
increasing (t, i) order it draws n uniform floats (one inclusion test per
candidate, kept when the draw is below the density) and then shuffles the
kept candidates in place with kdsm's own Fisher–Yates, ``_shuffle``, which
makes the draws of the stdlib's ``_randbelow``, so a change to the stdlib's
``shuffle`` cannot move the stream. At density 1 and n <=
``PERM_CACHE_MAX_N`` (``_draw_picks``) the n floats are read as one
``getrandbits(64 * n)``, the same 2n words, and each list is the shared
permutation of ``core.shared_permutations`` that the shuffle's draws select,
drawn as its index there.

The lists the library makes itself, those of ``_draw_picks``, of
``enumerate_instances`` and of the hill climb's trials, skip the public
checks: ``core.trusted_instance`` builds the frozen instance with its
tables, and it is the one constructor that does. An instance that
``enumerate_instances`` yields, or a complete one drawn with n <=
``PERM_CACHE_MAX_N``, is known by its lane, the index of each slot's list
in (t, i) order in a table of options; ``_picked_instance`` builds it from
the options and their ``_better`` rows. ``enumerate_instances`` maps it
over the lanes of ``list_options(n, complete)`` in product order, each
option's row built once per call; drawn lanes index
``shared_permutations(n)`` and ``core.shared_rows``. An exhaustive
existence run walks the lanes of a complete enumeration, a sampled one
draws them (``_sampled_lanes``) up to ``BATCH_MAX_N`` and the instances
themselves (``_sampled_complete``) past it. The one lane of n = 0 is empty.

Every experiment runs the same pipeline. Its runner yields one record per
instance, ``(item, detail, problem)``, with the instance or its lane as
the item and ``problem`` None when the instance passed; ``_report`` turns
the records into the one report shape (result lines, failure lines,
totals, params and summary in key order). It digests an item only for a
line it writes: the first ``RESULT_RECORD_CAP`` records and every
failure. A lane's digest, ``_lane_digest``, copies the hash state after
the header (``core.digest_state``) and adds each slot's line for its
permutation; ``_sample_pieces`` takes these pieces from
``serialize_instance``'s own text once per shape, so ``instance_digest``
stays the one definition of the digest. ``EXPERIMENTS`` maps each id to
its runner and defaults. An existence run decides ``EXISTENCE_BATCH``
instances at a time at every thread count: for n <= ``BATCH_MAX_N`` as
lanes through ``solve._scan_batch``, one bit per lane; otherwise as
instances, each through ``count_weakly_stable(limit=1)``.
``pp-two-matchings`` counts each sampled lane's instance in full
(``_count_lane``). A process pool receives the lanes, or the instances,
and returns only their verdicts (``_map_maybe_parallel``).
"""

from __future__ import annotations

import _random
import inspect
import random
from collections import deque
from dataclasses import dataclass
from functools import cache, partial
from hashlib import blake2b, sha512
from itertools import count, islice, permutations, product
from math import factorial, perm
from numbers import Real
from operator import getitem
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    PERM_CACHE_MAX_N,
    AgentRef,
    ArgumentError,
    DimensionError,
    Family,
    FormatError,
    Instance,
    KdsmError,
    Matching,
    better_row,
    check_dims,
    check_space,
    digest_state,
    instance_digest,
    serialize_instance,
    serialize_matching,
    shared_permutations,
    shared_rows,
    space_within,
    trusted_instance,
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
    _acceptable,
    _check_family_bound,
    _matchings,
    _scan_batch,
    count_weakly_stable,
    enumerate_weakly_stable,
)
from .verify import (
    find_blocking_cycle,
    find_blocking_naive,
    is_strongly_blocking,
    is_weakly_stable,
    lex_families,
)

# enumerate_instances refuses a space of more than this many instances
MAX_INSTANCES = 10**8
# exhaustive experiment stages switch to sampling above this many instances
EXHAUSTIVE_INSTANCE_CAP = 200_000
# per-instance result lines kept in a report before truncation
RESULT_RECORD_CAP = 200_000
# an existence run decides its instances this many at a time, one bit each
EXISTENCE_BATCH = 4096
# up to this n a batch is decided as lanes by solve._scan_batch; from n = 7
# its walk until the worst lane has a stable matching costs more than one
# capped scan per instance
BATCH_MAX_N = 6
# search_counterexample enumerates a size whose instance space fits under this
# cap and otherwise runs _hill_climb: this many stable-count evaluations over
# random lists of this density
COUNTEREXAMPLE_EXHAUSTIVE_CAP = 20_000
COUNTEREXAMPLE_EVALS_PER_N = 60_000
HILL_CLIMB_DENSITY = 0.55


class UnknownExperimentError(KdsmError):
    pass


def _shuffle(rng: _random.Random, x: list) -> None:
    """Fisher–Yates in place with the draws of CPython 3.11's ``shuffle``: for
    i from len(x) - 1 down to 1, j is a draw of (i + 1).bit_length() bits,
    redrawn while it exceeds i, and x[i] swaps with x[j]."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        width = (i + 1).bit_length()
        j = getrandbits(width)
        while j > i:
            j = getrandbits(width)
        x[i], x[j] = x[j], x[i]


def _random_list(rng: _random.Random, n: int, density: float) -> tuple[int, ...]:
    sub = [c for c in range(n) if rng.random() < density]
    _shuffle(rng, sub)
    return tuple(sub)


@cache
def _shuffle_table(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The draws of :func:`_shuffle` on list(range(n)), n <= PERM_CACHE_MAX_N,
    as (bound i + 1, bit width) from i = n - 1 down, and the
    ``shared_permutations(n)`` index of the permutation it yields, by the
    draws read as a mixed-radix number."""
    steps = [(i + 1, (i + 1).bit_length()) for i in reversed(range(1, n))]
    index = {p: j for j, p in enumerate(shared_permutations(n))}
    out = []
    for draws in product(*(range(bound) for bound, _ in steps)):
        x = list(range(n))
        for i, j in zip(reversed(range(1, n)), draws):
            x[i], x[j] = x[j], x[i]
        out.append(index[tuple(x)])
    return steps, out


def _check_int(name: str, value: int) -> None:
    """Raise ArgumentError unless ``value`` is an int (a bool is not)."""
    if type(value) is not int:
        raise ArgumentError(f"{name} must be an integer, got {value!r}")


def _check_bool(name: str, value: bool) -> None:
    """Raise ArgumentError unless ``value`` is a bool."""
    if type(value) is not bool:
        raise ArgumentError(f"{name} must be a bool, got {value!r}")


def random_instance(seed: int, k: int, n: int, density: float = 1.0) -> Instance:
    """A seeded random instance; each list is a random permutation of a
    random subset holding each candidate independently with probability
    ``density`` (so density 1 yields a complete instance). Raises
    DimensionError for k < 2, n < 0 or a non-int dimension, ArgumentError for
    a seed that is not an int or a density that is not a real number (a bool
    is not), and KdsmError for a density outside [0, 1]."""
    check_dims(k, n)
    _check_int("seed", seed)
    if isinstance(density, bool) or not isinstance(density, Real):
        raise ArgumentError(f"density must be a real number, got {density!r}")
    if not 0.0 <= density <= 1.0:
        raise KdsmError(f"density must be in [0, 1], got {density}")
    if density != 1 or n > PERM_CACHE_MAX_N:
        # the C generator under random.Random: an int seed gives the same stream
        rng = _random.Random(seed)
        return Instance(k, n, tuple(
            tuple(_random_list(rng, n, density) for _i in range(n)) for _t in range(k)
        ))
    return _picked_instance(k, n, shared_permutations(n), shared_rows(n), _draw_picks(seed, k, n))


def _draw_picks(seed: int, k: int, n: int) -> list[int]:
    """The ``shared_permutations(n)`` index of each list of
    ``random_instance(seed, k, n)``, n <= PERM_CACHE_MAX_N, in (t, i) order:
    every candidate is kept, so per slot the n inclusion draws are 2n words,
    then ``_shuffle``'s draws select the permutation."""
    getrandbits = _random.Random(seed).getrandbits
    steps, order = _shuffle_table(n)
    skip = 64 * n
    picks = []
    for _slot in range(k * n):
        getrandbits(skip)
        idx = 0
        for bound, width in steps:
            j = getrandbits(width)
            while j >= bound:
                j = getrandbits(width)
            idx = idx * bound + j
        picks.append(order[idx])
    return picks


def _picked_instance(k: int, n: int, lists: list, rows: list, lane: Sequence[int]) -> Instance:
    """The instance whose (t, i) list is ``lists[lane[t * n + i]]``, built with
    its tables: ``rows[j]`` is the immutable ``_better`` row of ``lists[j]``.
    It is complete when its k * n lists, n entries at most each, hold k * n * n."""
    flat, flat_rows = tuple(map(lists.__getitem__, lane)), list(map(rows.__getitem__, lane))
    prefs = tuple([flat[t * n : (t + 1) * n] for t in range(k)])
    better = [flat_rows[t * n : (t + 1) * n] for t in range(k)]
    return trusted_instance(k, n, prefs, better, sum(map(len, flat)) == k * n * n)


def random_matching(inst: Instance, seed: int, keep: float = 0.7) -> Matching:
    """A seeded random valid matching: candidate families are shuffled and
    greedily kept with probability ``keep`` when agent-disjoint. Raises
    ArgumentError for a seed that is not an int and for a ``keep`` that is
    not a real number in [0, 1] (a bool is not)."""
    _check_int("seed", seed)
    if isinstance(keep, bool) or not isinstance(keep, Real) or not 0 <= keep <= 1:
        raise ArgumentError(f"keep must be a real number in [0, 1], got {keep!r}")
    fams = _check_family_bound(_acceptable(inst))
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
    sublist, shortest first and lexicographic within a length. Raises
    ArgumentError for a ``complete`` that is not a bool.
    """
    _check_bool("complete", complete)
    full = shared_permutations(n) if n <= PERM_CACHE_MAX_N else list(permutations(range(n)))
    if complete:
        return list(full)
    return [p for size in range(n) for p in permutations(range(n), size)] + full


def _instance_space(k: int, n: int, complete: bool) -> tuple[int, int]:
    """The number of instances of the given shape as a power: (lists per
    agent, k * n); DimensionError for k < 2 or n < 0, ArgumentError for a
    ``complete`` that is not a bool."""
    check_dims(k, n)
    _check_bool("complete", complete)
    options = factorial(n) if complete else sum(perm(n, s) for s in range(n + 1))
    return options, k * n


def count_instances(k: int, n: int, complete: bool) -> int:
    """Number of instances of the given shape, counted without building a list;
    DimensionError for k < 2 or n < 0, ArgumentError for a ``complete`` that
    is not a bool."""
    options, exponent = _instance_space(k, n, complete)
    return options**exponent


def enumerate_instances(k: int, n: int, complete: bool) -> Iterator[Instance]:
    """Every instance exactly once, canonical order, agent (0, 0) varying slowest.

    Raises DimensionError, ArgumentError for a ``complete`` that is not a
    bool, or SpaceTooLargeError past ``MAX_INSTANCES``, at the call, before
    any instance is built; a space far past the bound is refused from its
    size, without computing its count. No digest is taken.
    """
    check_space("instances", _instance_space(k, n, complete), MAX_INSTANCES)
    options = list_options(n, complete)
    rows = [tuple(better_row(lst, n)) for lst in options]
    lanes = product(range(len(options)), repeat=k * n)
    return map(partial(_picked_instance, k, n, options, rows), lanes)


@dataclass(frozen=True)
class Certificate:
    """Nonexistence certificate: the full matching space was enumerated."""

    digest: str
    families: int
    matchings: int
    stable: int
    note: str


def _hill_climb(n: int, seed_tag: str) -> tuple[Instance | None, int]:
    """Randomized descent on the number of weakly stable matchings.

    Restarts from fresh random 3-type instances and keeps mutating single
    preference lists while the (capped) stable count does not increase.
    Returns a no-stable instance if one is reached within
    ``COUNTEREXAMPLE_EVALS_PER_N`` evaluations, plus the number spent. A
    trial reuses the current instance's ``_better`` rows and builds only the
    new list's; ``core.trusted_instance`` skips the public checks, since
    the lists are the library's own draws.
    """
    evals, density = COUNTEREXAMPLE_EVALS_PER_N, HILL_CLIMB_DENSITY
    spent = 0
    restart = 0
    while spent < evals:
        rng = random.Random(f"{seed_tag}:{restart}")
        restart += 1
        inst = Instance.build(
            3, [[_random_list(rng, n, density) for _ in range(n)] for _ in range(3)]
        )
        best = count_weakly_stable(inst, limit=4)
        spent += 1
        if best == 0:
            return inst, spent
        for _step in range(3000):
            if spent >= evals:
                break
            t = rng.randrange(3)
            i = rng.randrange(n)
            lst = _random_list(rng, n, density)
            prefs = list(inst.prefs)
            prefs[t] = (*prefs[t][:i], lst, *prefs[t][i + 1 :])
            better = inst._better.copy()
            better[t] = [*better[t][:i], better_row(lst, n), *better[t][i + 1 :]]
            complete = all(len(x) == n for row in prefs for x in row)
            trial = trusted_instance(3, n, tuple(prefs), better, complete)
            val = count_weakly_stable(trial, limit=best + 1)
            spent += 1
            if val <= best:
                best = val
                inst = trial
                if best == 0:
                    return trial, spent
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
                    if count_weakly_stable(Instance.build(3, prefs), limit=1) == 0:
                        changed = True
                    else:
                        prefs[t][i].insert(pos, removed)
                        pos += 1
    return Instance.build(3, prefs)


def certify_no_stable(inst: Instance) -> Certificate:
    """Exhaustively enumerate the matching space and certify zero stable matchings.

    Raises ArgumentError at the first weakly stable matching of ``inst``.
    """
    acc = _acceptable(inst)
    fams = _check_family_bound(acc)
    total = 0
    for _chosen, imp in _matchings(inst, False, acc):
        if next(lex_families(imp), None) is None:
            raise ArgumentError("instance has weakly stable matchings; nothing to certify")
        total += 1
    return Certificate(
        digest=instance_digest(inst),
        families=len(fams),
        matchings=total,
        stable=0,
        note="exhaustive enumeration of every matching (all disjoint family subsets)",
    )


def search_counterexample(
    max_n: int = 5, seed: int = 0
) -> tuple[Instance, Certificate] | None:
    """Find a 3-type incomplete-lists instance with no weakly stable matching.

    Scans sizes in increasing order: sizes whose whole instance space fits
    under ``COUNTEREXAMPLE_EXHAUSTIVE_CAP`` are enumerated outright, larger
    sizes run a seeded randomized descent (:func:`_hill_climb`). The first
    hit is greedily shrunk and certified by full enumeration of its
    matching space. Raises ArgumentError for a ``max_n`` or ``seed`` that
    is not an int (a bool is not).
    """
    _check_int("max_n", max_n)
    _check_int("seed", seed)
    for n in range(1, max_n + 1):
        found: Instance | None = None
        if space_within(_instance_space(3, n, False), COUNTEREXAMPLE_EXHAUSTIVE_CAP):
            for inst in enumerate_instances(3, n, complete=False):
                if count_weakly_stable(inst, limit=1) == 0:
                    found = inst
                    break
        else:
            found, _spent = _hill_climb(n, f"{seed}:cx:{n}")
        if found is not None:
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


# the line kinds after the experiment line, in the order serialize_report writes them
_REPORT_KINDS = ("param", "result", "summary", "failure")


def parse_report(text: str) -> ExperimentReport:
    """The report ``serialize_report`` wrote as ``text``; its inverse.

    Raises FormatError for any other text: no final newline, a missing
    header or experiment line, a line of another kind or out of the written
    order, a param or summary line without a key, or a result line without
    a digest and an ``ok`` or ``fail`` verdict.
    """
    if not text.endswith("\n"):
        raise FormatError("a report ends with a newline")
    header, *lines = text[:-1].split("\n")
    if header != REPORT_HEADER:
        raise FormatError(f"expected header {REPORT_HEADER!r}, got {header!r}")
    kind, _, name = lines[0].partition(" ") if lines else ("", "", "")
    if kind != "experiment" or not name:
        raise FormatError("expected an 'experiment <id>' line after the header")
    sections: dict[str, list] = {kind: [] for kind in _REPORT_KINDS}
    at = 0  # the index in _REPORT_KINDS of the last kind read
    for line in lines[1:]:
        kind, sep, rest = line.partition(" ")
        if kind not in sections or not sep or _REPORT_KINDS.index(kind) < at:
            raise FormatError(f"malformed or misplaced report line: {line!r}")
        at = _REPORT_KINDS.index(kind)
        if kind == "failure":
            sections[kind].append(rest)
            continue
        if kind == "result":  # digest, verdict and a detail written only when set
            fields = rest.split(" ", 2)
            valid = len(fields) > 1 and fields[1] in ("ok", "fail") and fields[2:] != [""]
            fields += [""] * (3 - len(fields))
        else:  # key and value
            fields = rest.split(" ", 1)
            valid = len(fields) == 2
        if not (valid and fields[0]):
            raise FormatError(f"malformed {kind} line: {line!r}")
        sections[kind].append(tuple(fields))
    return ExperimentReport(name, *(tuple(sections[kind]) for kind in _REPORT_KINDS))


def _map_maybe_parallel(
    worker: Callable, items: Iterable, threads: int, chunksize: int
) -> Iterator[tuple]:
    """``(item, worker(item))`` for each item of ``items``, in order,
    streamed. ``threads`` > 1 uses a process pool that lives as long as the
    iteration."""
    if threads <= 1:
        for item in items:
            yield item, worker(item)
        return
    from multiprocessing import Pool  # a single-threaded run never loads it

    # the pool's feeder thread appends each item as it takes it
    sent: deque = deque()
    with Pool(processes=threads) as pool:
        for result in pool.imap(worker, (sent.append(x) or x for x in items), chunksize):
            yield sent.popleft(), result


def _count_lane(lane: Sequence[int], k: int, n: int) -> int:
    """The number of weakly stable matchings of the complete instance of ``lane``."""
    inst = _picked_instance(k, n, shared_permutations(n), shared_rows(n), lane)
    return count_weakly_stable(inst)


# one record per instance: (instance or lane, detail, problem or None when
# it passed); _report digests the item of each record it writes a line for
Record = tuple[object, str, str | None]


def _report(
    name: str,
    params: dict[str, object],
    records: Iterable[Record],
    extra: Callable[[int, int], dict[str, object]] = lambda total, failed: {},
    digest: Callable[[object], str] = instance_digest,
) -> ExperimentReport:
    """The report of one experiment run from its per-instance records.

    A record with a problem is a failure. Result lines stop after
    ``RESULT_RECORD_CAP`` records; failures and totals cover them all.
    ``digest(item)`` runs once for each record that gets a line.
    ``extra(total, failed)`` adds summary entries; params and summary are
    written in key order.
    """
    results = []
    failures = []
    total = 0
    for item, detail, problem in records:
        total += 1
        key = None
        if len(results) < RESULT_RECORD_CAP:
            key = digest(item)
            results.append((key, "ok" if problem is None else "fail", detail))
        if problem is not None:
            failures.append(f"{digest(item) if key is None else key} {problem}")
    summary = {"failures": len(failures), "total": total}
    summary.update(extra(total, len(failures)))
    return ExperimentReport(
        name, _sorted_pairs(params), tuple(results), _sorted_pairs(summary), tuple(failures)
    )


def _sorted_pairs(values: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple((key, str(val)) for key, val in sorted(values.items()))


def _derived_seeds(seed: int, name: str) -> Iterator[int]:
    """``random.Random(f"{seed}:{name}:{idx}").getrandbits(63)`` for idx =
    0, 1, ...: each string seeded as CPython 3.11's version-2 seeding does
    (its UTF-8 bytes followed by their SHA-512, read as a big-endian int),
    on one reused C generator."""
    gen = _random.Random(0)
    for idx in count():
        text = f"{seed}:{name}:{idx}".encode("utf-8")
        gen.seed(int.from_bytes(text + sha512(text).digest(), "big"))
        yield gen.getrandbits(63)


@cache
def _sample_pieces(k: int, n: int) -> tuple[blake2b, tuple[tuple[bytes, ...], ...]]:
    """The pieces of every serialization of a complete k, n instance, n in
    [0, PERM_CACHE_MAX_N], built once per shape: the digest state after the
    header and, per slot in (t, i) order, its whole UTF-8 line ``pref t i :
    <entries>`` with its newline for each shared permutation, in order. They
    are the lines of ``serialize_instance``'s own text, one instance per
    shared permutation with every list that permutation."""
    texts = [
        serialize_instance(Instance(k, n, ((perm,) * n,) * k)).encode("utf-8")
        .splitlines(keepends=True)
        for perm in shared_permutations(n)
    ]
    return digest_state(b"".join(texts[0][:3])), tuple(zip(*(lines[3:] for lines in texts)))


def _lane_digest(k: int, n: int, lane: Sequence[int]) -> str:
    """The ``instance_digest`` of the complete instance of ``lane`` from the
    pieces of ``_sample_pieces``: a copy of the header state updated with
    each slot's line for its permutation."""
    head, lines_of = _sample_pieces(k, n)
    state = head.copy()
    state.update(b"".join(map(getitem, lines_of, lane)))
    return state.hexdigest()


def _sampled_lanes(name: str, seed: int, k: int, n: int, samples: int) -> Iterator[list[int]]:
    """The seeded complete instances of a sampled experiment, n in [0,
    PERM_CACHE_MAX_N], in order, each as its lane (``_draw_picks``)."""
    for derived in islice(_derived_seeds(seed, name), samples):
        yield _draw_picks(derived, k, n)


def _sampled_complete(name: str, seed: int, k: int, n: int, samples: int) -> Iterator[Instance]:
    """The seeded complete instances of a sampled experiment, any n, in order:
    those whose lanes ``_sampled_lanes`` draws."""
    for derived in islice(_derived_seeds(seed, name), samples):
        yield random_instance(derived, k, n, density=1.0)


def _no_stable_mask(batch: list, k: int, n: int) -> int:
    """Bit b set iff the b-th item of ``batch`` admits no weakly stable
    matching: lanes of complete k, n instances for n <= BATCH_MAX_N,
    otherwise instances."""
    if n <= BATCH_MAX_N:
        return _scan_batch(k, n, batch)
    return sum(1 << b for b, inst in enumerate(batch) if not count_weakly_stable(inst, limit=1))


def _existence(
    name: str,
    k: int,
    n: int,
    samples: int | None,
    seed: int,
    threads: int,
    full: bool = False,
) -> ExperimentReport:
    exhaustive = full or (
        samples is None and space_within(_instance_space(k, n, True), EXHAUSTIVE_INSTANCE_CAP)
    )
    if exhaustive:
        mode = "exhaustive"
        # the check refuses every n past BATCH_MAX_N: each exhaustive shape runs as lanes
        check_space("instances", _instance_space(k, n, True), MAX_INSTANCES)
        items = product(range(factorial(n)), repeat=k * n)
    else:
        if samples is None:
            samples = 100_000
        mode = f"sample-{samples}"
        sampled = _sampled_lanes if n <= BATCH_MAX_N else _sampled_complete
        items = sampled(name, seed, k, n, samples)

    def records() -> Iterator[Record]:
        worker = partial(_no_stable_mask, k=k, n=n)
        batches = iter(lambda: list(islice(items, EXISTENCE_BATCH)), [])
        for batch, mask in _map_maybe_parallel(worker, batches, threads, 1):
            # bit b of the mask is the b-th character from the right
            for item, bit in zip(batch, reversed(f"{mask:0{len(batch)}b}")):
                if bit == "1":
                    yield item, "stable=0", "admits no weakly stable matching"
                else:
                    yield item, "stable>=1", None

    return _report(
        name,
        {"k": k, "mode": mode, "n": n, "seed": seed},
        records(),
        lambda total, failed: {
            "results_truncated": "yes" if total > RESULT_RECORD_CAP else "no",
            "with_stable": total - failed,
        },
        partial(_lane_digest, k, n) if n <= BATCH_MAX_N else instance_digest,
    )


def _pp(name: str, samples: int, seed: int, threads: int) -> ExperimentReport:
    k, n = 3, 5
    lanes = _sampled_lanes(name, seed, k, n, samples)
    worker = partial(_count_lane, k=k, n=n)
    chunksize = max(1, samples // (threads * 8))
    seen: list[int] = []

    def records() -> Iterator[Record]:
        for lane, count in _map_maybe_parallel(worker, lanes, threads, chunksize):
            seen.append(count)
            problem = f"has only {count} weakly stable matchings" if count < 2 else None
            yield lane, f"count={count}", problem

    return _report(
        name,
        {"k": k, "n": n, "samples": samples, "seed": seed},
        records(),
        lambda total, failed: {"min_count": min(seen, default=0)},
        partial(_lane_digest, k, n),
    )


def _verifier_equivalence(name: str, samples: int, seed: int) -> ExperimentReport:
    def records() -> Iterator[Record]:
        for idx in range(samples):
            rng = random.Random(f"{seed}:{name}:{idx}")
            k = rng.choice((3, 4, 5))
            n = rng.randint(1, 6)
            density = rng.choice((0.3, 0.6, 1.0))
            inst = random_instance(rng.getrandbits(63), k, n, density)
            m = random_matching(inst, rng.getrandbits(63))
            naive = find_blocking_naive(inst, m)
            cycle = find_blocking_cycle(inst, m)
            detail = (
                f"k={k} n={n} naive={'stable' if naive is None else 'blocked'}"
                f" cycle={'stable' if cycle is None else 'blocked'}"
            )
            problem = (
                None
                if (naive is None) == (cycle is None)
                else f"verdict mismatch on matching {serialize_matching(m)!r}"
            )
            yield inst, detail, problem

    return _report(name, {"samples": samples, "seed": seed}, records())


def _lift_equivalence(
    name: str, n: int, samples: int | None, seed: int, target_k: int
) -> ExperimentReport:
    if samples is None:
        instances = enumerate_instances(3, n, complete=False)
        mode = "exhaustive"
    else:
        instances = (
            random_instance(
                random.Random(f"{seed}:{name}:{idx}").getrandbits(63),
                3,
                n,
                density=random.Random(f"{seed}:lift-density:{idx}").choice(
                    (0.3, 0.6, 1.0)
                ),
            )
            for idx in range(samples)
        )
        mode = f"sample-{samples}"

    def records() -> Iterator[Record]:
        for inst in instances:
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
            yield (
                inst,
                f"in={len(stable_in)} out={len(stable_out)}",
                "; ".join(problems) or None,
            )

    params = {"mode": mode, "n": n, "seed": seed, "target_k": target_k}
    return _report(name, params, records())


def _run_gadget_checkers(gm, m_hat, m_down) -> list[str]:
    reports = [
        check_gadget_confinement(gm, m_hat),
        check_partner_correspondence(gm, m_hat, m_down),
    ]
    reports += [check_admirer_bound(gm, m_hat, a, a.t) for a in gm.source.agents()]
    return [v for rep in reports for v in rep.violations]


def _completion(
    name: str, samples: int, seed: int, want_stable: bool
) -> ExperimentReport:
    def records() -> Iterator[Record]:
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
                        gm.non_dummy(AgentRef(t, blocker.members[t])).i
                        for t in range(3)
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
            yield (
                inst,
                f"n={n} families={len(m)}",
                "; ".join(problems) or None,
            )

    return _report(name, {"samples": samples, "seed": seed}, records())


# id -> (runner, defaults). The runner is called with the experiment id and
# the run_experiment arguments named in its defaults, an argument passed as
# None taking its default; arguments it does not name are ignored.
EXPERIMENTS: dict[str, tuple[Callable[..., ExperimentReport], dict]] = {
    "boros-bound": (_existence, dict(k=3, n=2, samples=None, seed=0, threads=1, full=False)),
    "eriksson-bound": (_existence, dict(k=3, n=4, samples=10_000, seed=0, threads=1)),
    "pp-two-matchings": (_pp, dict(samples=200, seed=0, threads=1)),
    "verifier-equivalence": (_verifier_equivalence, dict(samples=1000, seed=0)),
    "lift-3k-equivalence": (_lift_equivalence, dict(n=2, samples=None, seed=0, target_k=5)),
    "complete-positive": (partial(_completion, want_stable=True), dict(samples=500, seed=0)),
    "complete-negative": (partial(_completion, want_stable=False), dict(samples=500, seed=0)),
}
EXPERIMENT_IDS = tuple(EXPERIMENTS)


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

    ``full`` forces exhaustive instance coverage for ``boros-bound`` even
    past the auto-sampling threshold. An argument passed as None takes its
    default. Raises UnknownExperimentError for an id outside
    ``EXPERIMENT_IDS``; DimensionError for a k or n that is not an int, for
    k < 2 or n < 0; ArgumentError for a samples, seed, target_k or threads
    that is not an int (a bool is not) and a full that is not a bool; and
    KdsmError for samples < 0, threads < 1 or an argument that differs from
    its default and that the experiment's ``EXPERIMENTS`` entry does not
    name (such as ``k`` for ``pp-two-matchings``). Types are checked before
    values.
    """
    if experiment not in EXPERIMENTS:
        raise UnknownExperimentError(
            f"unknown experiment id {experiment!r}; known ids: "
            + ", ".join(EXPERIMENT_IDS)
        )
    given = dict(
        k=k, n=n, samples=samples, seed=seed, target_k=target_k, threads=threads, full=full
    )
    for name, value in given.items():
        if value is None:
            continue
        if name == "full":
            _check_bool(name, value)
        elif name in ("k", "n"):
            if type(value) is not int:
                raise DimensionError(f"dimensions must be integers, got {name}={value!r}")
        else:
            _check_int(name, value)
    if k is not None and k < 2:
        raise DimensionError(f"k must be >= 2, got {k}")
    if n is not None and n < 0:
        raise DimensionError(f"n must be >= 0, got {n}")
    if samples is not None and samples < 0:
        raise KdsmError(f"samples must be >= 0, got {samples}")
    if threads is not None and threads < 1:
        raise KdsmError(f"threads must be >= 1, got {threads}")
    runner, defaults = EXPERIMENTS[experiment]
    params = inspect.signature(run_experiment).parameters
    ignored = [
        key
        for key, value in given.items()
        if key not in defaults and value is not None and value != params[key].default
    ]
    if ignored:
        raise KdsmError(f"{experiment} does not take " + ", ".join(ignored))
    args = {key: dflt if given[key] is None else given[key] for key, dflt in defaults.items()}
    return runner(experiment, **args)
