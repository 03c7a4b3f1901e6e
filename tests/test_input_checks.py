"""The one instance check, the one dimension check, and every entry point using them.

Building ``Instance._better`` is the only check of the preference lists:
``validate_instance`` is its report form, and every public function that
takes an instance must raise ``InvalidInstanceError`` for a bad list entry
instead of returning a result. ``core.check_dims`` is the only dimension
check, and it runs before anything is drawn or built.
"""

from __future__ import annotations

import inspect
import pickle
import re
import time
from math import factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdsm
from kdsm import (
    AgentRef,
    ArgumentError,
    CorrMap3K,
    DimensionError,
    Family,
    GadgetMap,
    Instance,
    InvalidInstanceError,
    Matching,
    SpaceTooLargeError,
    TypeMismatchError,
    complete_instance,
    count_instances,
    enumerate_instances,
    lift_3_to_k,
    prefers,
    random_instance,
    validate_instance,
)
from kdsm import cli, genlab


def oracle_first_violation(inst: Instance) -> str | None:
    """The first out-of-range or repeated entry in (t, i) order, by list scan."""
    for t in range(inst.k):
        for i in range(inst.n):
            seen = set()
            for x in inst.prefs[t][i]:
                if not 0 <= x < inst.n:
                    return f"pref ({t}, {i}): entry {x} out of range [0, {inst.n})"
                if x in seen:
                    return f"pref ({t}, {i}): duplicate entry {x}"
                seen.add(x)
    return None


@st.composite
def raw_instances(draw):
    """Valid lists, then up to two lists each given an out-of-range or repeated entry."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(0, 5))
    rows = [
        [list(draw(st.permutations(range(n)))[: draw(st.integers(0, n))]) for _i in range(n)]
        for _t in range(k)
    ]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        lst = rows[draw(st.integers(0, k - 1))][draw(st.integers(0, n - 1))]
        bad = st.sampled_from([-2, -1, n, n + 1])
        if lst:
            bad = st.one_of(bad, st.sampled_from(lst))
        lst.insert(draw(st.integers(0, len(lst))), draw(bad))
    return Instance(k, n, tuple(tuple(tuple(lst) for lst in row) for row in rows))


@settings(max_examples=300, deadline=None)
@given(raw_instances())
def test_validation_reports_the_first_bad_entry(inst):
    expected = oracle_first_violation(inst)
    report = validate_instance(inst)
    assert report.ok == (expected is None)
    assert report.violations == (() if expected is None else (expected,))
    if expected is None:
        assert len(inst._better) == inst.k
    else:
        with pytest.raises(InvalidInstanceError) as exc:
            inst._better
        assert str(exc.value) == expected


BAD_INSTANCES = {
    "out-of-range": Instance(3, 2, (((1, 5), (0,)), ((0,), (1,)), ((0, 1), (1,)))),
    "repeated": Instance(3, 2, (((1,), (0,)), ((0,), (1, 1)), ((0, 1), (1,)))),
    "non-integer": Instance(3, 2, (((1,), (0,)), ((0,), (1,)), ((0, 1), (1, 0.0)))),
}
# the argument for every parameter an entry point takes after the instance;
# a new entry point with a parameter missing here fails the guard below
ARGUMENTS = {
    "a": AgentRef(0, 0),
    "b": AgentRef(1, 0),
    "c": AgentRef(1, 1),
    "m": Matching.of([]),
    "f": Family((0, 0, 0)),
    "seed": 0,
    "keep": 0.7,
    "limit": None,
    "budget": None,
    "method": "auto",
    "target_k": 4,
}
# these read the lists as text or report on them, so they never raise for a bad entry
EXEMPT = {"serialize_instance", "instance_digest", "validate_instance"}


def _takes_instance(fn) -> bool:
    try:
        params = list(inspect.signature(fn).parameters.values())
    except ValueError:  # the exception classes have none
        return False
    return bool(params) and params[0].annotation in (Instance, "Instance")


def _entry_points():
    for name in kdsm.__all__:
        fn = getattr(kdsm, name)
        if callable(fn) and name not in EXEMPT and _takes_instance(fn):
            yield name, fn
    yield "CorrMap3K.with_source", CorrMap3K(2, 4).with_source
    yield "GadgetMap.with_source", GadgetMap(3, 2).with_source


ENTRY_POINTS = dict(_entry_points())


def test_the_guard_walks_the_reductions_and_solvers():
    assert {"lift_3_to_k", "complete_instance", "find_weakly_stable", "is_weakly_stable"} <= set(
        ENTRY_POINTS
    )


@pytest.mark.parametrize("bad", list(BAD_INSTANCES))
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_instance_entry_point_rejects_a_bad_entry(name, bad):
    fn = ENTRY_POINTS[name]
    args = []
    for param in list(inspect.signature(fn).parameters)[1:]:
        if param not in ARGUMENTS:
            pytest.fail(f"{name}: no argument for parameter {param!r}; add it to ARGUMENTS")
        args.append(ARGUMENTS[param])
    with pytest.raises(InvalidInstanceError):
        fn(BAD_INSTANCES[bad], *args)


@pytest.mark.parametrize("k, n", [(1, 2), (0, 10**5), (3, -1), (2, -3)])
def test_dimensions_are_checked_before_any_work(monkeypatch, k, n):
    def no_work(*_args, **_kwargs):
        pytest.fail("built or drew something before checking the dimensions")

    for name in ("list_options", "product", "_random_list"):
        monkeypatch.setattr(genlab, name, no_work)
    calls = [
        lambda: count_instances(k, n, True),
        lambda: count_instances(k, n, False),
        lambda: enumerate_instances(k, n, True),
        lambda: random_instance(0, k, n),
    ]
    for call in calls:
        with pytest.raises(DimensionError, match=re.escape(f"invalid dimensions k={k}, n={n}")):
            call()


@pytest.mark.parametrize("entry", [0.0, "0", None])
def test_a_non_integer_entry_names_its_list(entry):
    inst = Instance(3, 2, (((1,), (0,)), ((0, entry), (1,)), ((0,), (1,))))
    message = "pref (1, 0): entries must be integers"
    assert validate_instance(inst).violations == (message,)
    with pytest.raises(InvalidInstanceError, match=re.escape(message)):
        inst._better


def test_a_space_is_counted_before_it_is_built(monkeypatch, capsys):
    def no_build(*_args, **_kwargs):
        pytest.fail("built the admissible lists before checking the space")

    for name in ("list_options", "permutations"):
        monkeypatch.setattr(genlab, name, no_build)
    assert count_instances(3, 9, True) == factorial(9) ** 27
    assert count_instances(3, 9, False) == sum(perm(9, s) for s in range(10)) ** 27
    for n in (9, 40):  # (40!)^120 has more digits than str() converts
        with pytest.raises(SpaceTooLargeError):
            enumerate_instances(3, n, True)
    assert cli.main(["experiment", "--id", "lift-3k-equivalence", "--n", "12"]) == 3
    err = capsys.readouterr().err
    assert err.count(str(count_instances(3, 12, False))) == 1


def test_a_huge_space_is_refused_from_its_size(monkeypatch):
    # (2000!)^6000 has about 1.1 * 10^8 bits; computing it takes minutes
    start = time.perf_counter()
    with pytest.raises(SpaceTooLargeError, match=r"^over 2\^\d+ instances exceed the bound"):
        enumerate_instances(3, 2000, True)
    assert time.perf_counter() - start < 1.0
    # the auto mode decides from the size too, and samples
    monkeypatch.setattr(genlab, "_sampled_complete", lambda *args: iter(()))
    start = time.perf_counter()
    rep = genlab.run_experiment("boros-bound", n=2000)
    assert time.perf_counter() - start < 1.0
    assert dict(rep.params)["mode"] == "sample-100000"
    # a space refused from its size still reports its exact count when asked
    with pytest.raises(SpaceTooLargeError) as exc:
        enumerate_instances(3, 40, True)
    assert exc.value.required == count_instances(3, 40, True) == factorial(40) ** 120


@pytest.mark.parametrize("n", [6, 2000])  # a count, and a power refused from its size
def test_a_space_error_survives_pickling(n):
    # a process pool pickles the error in the worker and loads it in the parent
    with pytest.raises(SpaceTooLargeError) as exc:
        enumerate_instances(3, n, True)
    back = pickle.loads(pickle.dumps(exc.value))
    assert type(back) is SpaceTooLargeError and str(back) == str(exc.value)
    assert (back.bound, back._required) == (exc.value.bound, exc.value._required)


def _agent_calls():
    """Per function taking an agent: the call on one agent, the k and n of
    the agents it accepts, a type it accepts, and whether a type outside
    [0, k) is a type mismatch there rather than an agent out of range."""
    inst = random_instance(1, 3, 2, 1.0)
    part = random_instance(1, 3, 2, 0.7)
    gm = complete_instance(part)[1]
    cm = lift_3_to_k(part, 4)[1]
    a, b = AgentRef(0, 0), AgentRef(1, 0)
    return {
        "rank_of": (lambda x: inst.rank_of(x, 0), 3, 2, 0, False),
        "prefers-a": (lambda x: prefers(inst, x, b, x), 3, 2, 0, False),
        "prefers-b": (lambda x: prefers(inst, a, x, a), 3, 2, 1, True),
        "prefers-c": (lambda x: prefers(inst, a, b, x), 3, 2, 1, True),
        "GadgetMap.from_output": (gm.from_output, 3, gm.n_out, 0, False),
        "GadgetMap.mapped_prefix": (gm.mapped_prefix, 3, 2, 0, False),
        "CorrMap3K.from_output": (cm.from_output, 4, cm.n_out, 0, False),
    }


AGENT_CALLS = _agent_calls()


@pytest.mark.parametrize("where", ["t<0", "t>=k", "i<0", "i>=n", "i>>n"])
@pytest.mark.parametrize("name", list(AGENT_CALLS))
def test_an_agent_outside_the_instance_is_refused(name, where):
    call, k, n, t, typed = AGENT_CALLS[name]
    coords = {"t<0": (-1, 0), "t>=k": (k, 0), "i<0": (t, -1), "i>=n": (t, n), "i>>n": (t, 50 * n)}
    agent = AgentRef(*coords[where])
    error = TypeMismatchError if typed and where.startswith("t") else ArgumentError
    with pytest.raises(error, match=re.escape(str(tuple(agent)))):
        call(agent)
    call(AgentRef(t, n - 1))  # the last agent of the type answers


@pytest.mark.parametrize("complete", ["no", 1, 0, 1.0, None])
def test_complete_must_be_a_bool(complete):
    calls = [
        lambda: count_instances(3, 2, complete),
        lambda: genlab.list_options(2, complete),
        lambda: enumerate_instances(3, 1, complete),
    ]
    for call in calls:
        with pytest.raises(ArgumentError, match="complete must be a bool"):
            call()


@pytest.mark.parametrize("seed", [True, False, 1.0, "1"])
def test_a_completion_seed_is_none_or_an_int(seed):
    inst = random_instance(1, 3, 2, 0.7)
    with pytest.raises(ArgumentError, match="seed must be None or an integer"):
        complete_instance(inst, seed)
    assert complete_instance(inst, 1)[0] != complete_instance(inst, None)[0]
