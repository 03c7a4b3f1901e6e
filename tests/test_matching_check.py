"""The one matching check, ``core.matching_rows``, and everything deciding through it.

Matchings are drawn from family lists that mix valid families of the
instance with wrong-length families, out-of-range members, shared agents
and unaccepted successors. An independent list-scan oracle fixes which of
them fit; every public entry point must then agree with ``partner_rows``.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdsm import (
    AgentRef,
    CorrMap3K,
    Family,
    GadgetMap,
    Instance,
    InvalidFamilyError,
    Matching,
    TransportFormError,
    check_admirer_bound,
    check_gadget_confinement,
    check_partner_correspondence,
    family_violations,
    find_blocking_cycle,
    find_blocking_naive,
    free_boundary_agents,
    induce_down,
    induce_up,
    is_strongly_blocking,
    transport_matching,
    validate_matching,
)
from kdsm.core import matching_rows, partner_rows
from conftest import oracle_families, oracle_partner_table


def families_over(k: int, n: int, valid=()):
    """Families drawn from ``valid`` or with k-1..k+1 members in [-1, n]."""
    raw = st.lists(st.integers(-1, n), min_size=k - 1, max_size=k + 1).map(tuple)
    return st.one_of(st.sampled_from(valid), raw) if valid else raw


@st.composite
def markets(draw, min_k=2, max_k=5, max_n=5):
    """An instance with incomplete lists and a family list to build a matching from."""
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(0, max_n))
    prefs = tuple(
        tuple(
            tuple(draw(st.permutations(range(n)))[: draw(st.integers(0, n))])
            for _i in range(n)
        )
        for _t in range(k)
    )
    inst = Instance(k, n, prefs)
    family = families_over(k, n, oracle_families(inst))
    return inst, draw(st.lists(family, max_size=4)), draw(family)


def oracle_fits(inst: Instance, families) -> bool:
    k, n = inst.k, inst.n
    fams = set(families)
    if any(len(f) != k or not all(0 <= x < n for x in f) for f in fams):
        return False
    if any(f[(t + 1) % k] not in inst.prefs[t][f[t]] for f in fams for t in range(k)):
        return False
    return all(len({f[t] for f in fams}) == len(fams) for t in range(k))


def rows_or_error(inst: Instance, m: Matching):
    try:
        return partner_rows(inst, m), None
    except InvalidFamilyError as exc:
        return None, str(exc)


@given(markets())
@settings(max_examples=300, deadline=None)
def test_partner_rows_matches_the_oracle(market):
    inst, fams, _f = market
    rows, error = rows_or_error(inst, Matching.of(fams))
    assert (error is None) == oracle_fits(inst, fams)
    if rows is not None:
        table = oracle_partner_table(inst, set(fams))
        assert rows == [[-1 if p is None else p for p in row] for row in table]


@given(markets())
@settings(max_examples=300, deadline=None)
def test_validation_reports_the_first_violation(market):
    inst, fams, f = market
    _rows, error = rows_or_error(inst, Matching.of(fams))
    report = validate_matching(inst, Matching.of(fams))
    assert report.ok == (error is None)
    assert report.violations == (() if error is None else (error,))
    _rows, f_error = rows_or_error(inst, Matching.of([f]))
    assert (family_violations(inst, Family(f)) == []) == (f_error is None)


@given(markets())
@settings(max_examples=300, deadline=None)
def test_verifiers_raise_exactly_when_the_check_does(market):
    inst, fams, f = market
    m = Matching.of(fams)
    _rows, error = rows_or_error(inst, m)
    _rows, f_error = rows_or_error(inst, Matching.of([f]))
    for verifier in (find_blocking_naive, find_blocking_cycle):
        if error is None:
            verifier(inst, m)
        else:
            with pytest.raises(InvalidFamilyError, match=f"^{re.escape(error)}$"):
                verifier(inst, m)
    if error is None and f_error is None:
        is_strongly_blocking(inst, m, Family(f))
    else:
        with pytest.raises(InvalidFamilyError):
            is_strongly_blocking(inst, m, Family(f))


def transport_error(transport, m: Matching) -> str | None:
    try:
        transport(m)
    except TransportFormError as exc:
        return str(exc)
    return None


def shape_error(m: Matching, k: int, n: int) -> str | None:
    try:
        matching_rows(m, k, n)
    except InvalidFamilyError as exc:
        return str(exc)
    return None


@given(st.data(), st.integers(3, 5), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_transports_reject_exactly_what_the_check_rejects(data, k, n):
    """Each transport and checker raises TransportFormError, worded as
    matching_rows words it, exactly when matching_rows rejects its input; the
    lift's way down may also reject a family off the diagonal."""
    lift = CorrMap3K(n, k + 1)
    gadget = GadgetMap(k, n, Instance(k, n, (((),) * n,) * k))
    empty = Matching.of([])
    cases = [
        (lambda m: transport_matching(lift, m, "up"), 3, n),
        (lambda m: induce_up(gadget, m), k, n),
        (lambda m: free_boundary_agents(gadget, m), k, n),
        (lambda m: induce_down(gadget, m), k, gadget.n_out),
        (lambda m: check_gadget_confinement(gadget, m), k, gadget.n_out),
        (lambda m: check_partner_correspondence(gadget, m, empty), k, gadget.n_out),
        (lambda m: check_partner_correspondence(gadget, empty, m), k, n),
    ]
    if n:  # the admirer check needs an agent to name
        cases.append((lambda m: check_admirer_bound(gadget, m, AgentRef(0, 0), 0), k, gadget.n_out))
    for transport, k_in, n_in in cases:
        fams = data.draw(st.lists(families_over(k_in, n_in), max_size=4))
        m = Matching.of(fams)
        assert transport_error(transport, m) == shape_error(m, k_in, n_in)
    m = Matching.of(data.draw(st.lists(families_over(lift.k_out, lift.n_out), max_size=4)))
    expected = shape_error(m, lift.k_out, lift.n_out)
    got = transport_error(lambda m: transport_matching(lift, m, "down"), m)
    if expected is not None or got is None:
        assert got == expected
    else:
        assert "diagonal" in got or "chain segment" in got


@pytest.mark.parametrize("member", [0.0, "0", None])
def test_a_non_integer_member_is_an_invalid_family(member):
    inst = Instance(3, 2, (((0, 1), (1, 0)),) * 3)
    m = Matching.of([(member, 1, 1)])
    message = f"family {(member, 1, 1)}: members must be integers"
    for verifier in (find_blocking_naive, find_blocking_cycle):
        with pytest.raises(InvalidFamilyError, match=f"^{re.escape(message)}$"):
            verifier(inst, m)
    with pytest.raises(TransportFormError, match=f"^{re.escape(message)}$"):
        transport_matching(CorrMap3K(2, 4), m, "up")
