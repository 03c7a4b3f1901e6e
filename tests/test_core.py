import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdsm import (
    AgentRef,
    DimensionError,
    Family,
    Instance,
    InvalidInstanceError,
    Matching,
    TypeMismatchError,
    count_weakly_stable,
    enumerate_weakly_stable,
    family_violations,
    find_weakly_stable,
    instance_digest,
    is_weakly_stable,
    parse_instance,
    parse_matching,
    prefers,
    random_instance,
    serialize_instance,
    serialize_matching,
    validate_instance,
    validate_matching,
)
from kdsm.core import FormatError, shared_permutations, trusted_instance
from kdsm.verify import improvement_masks
from conftest import oracle_prefers


@st.composite
def instances(draw, min_k=2, max_k=5, max_n=5, complete=False):
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(0, max_n))
    rows = []
    for _t in range(k):
        row = []
        for _i in range(n):
            if complete:
                lst = draw(st.permutations(range(n)))
            else:
                size = draw(st.integers(0, n))
                lst = draw(st.permutations(range(n)))[:size]
            row.append(tuple(lst))
        rows.append(tuple(row))
    return Instance(k, n, tuple(rows))


def make(k, n, rows):
    return Instance(k, n, tuple(tuple(tuple(l) for l in row) for row in rows))


class TestPrefers:
    def test_list_order(self):
        inst = make(2, 2, [[(0, 1), ()], [(), ()]])
        m0 = AgentRef(0, 0)
        assert prefers(inst, m0, AgentRef(1, 0), AgentRef(1, 1))
        assert not prefers(inst, m0, AgentRef(1, 1), AgentRef(1, 0))

    def test_listed_beats_self(self):
        inst = make(2, 2, [[(0, 1), ()], [(), ()]])
        m0 = AgentRef(0, 0)
        assert prefers(inst, m0, AgentRef(1, 1), m0)

    def test_unlisted_never_wins(self):
        inst = make(2, 2, [[(0,), ()], [(), ()]])
        m0 = AgentRef(0, 0)
        assert not prefers(inst, m0, AgentRef(1, 1), AgentRef(1, 0))

    def test_type_mismatch(self):
        inst = make(3, 2, [[(0,), ()], [(0,), ()], [(0,), ()]])
        with pytest.raises(TypeMismatchError):
            prefers(inst, AgentRef(0, 0), AgentRef(2, 0), AgentRef(1, 0))
        with pytest.raises(TypeMismatchError):
            prefers(inst, AgentRef(0, 0), AgentRef(1, 0), AgentRef(2, 1))

    @given(instances(max_k=4, max_n=4))
    @settings(max_examples=80)
    def test_trichotomy_and_irreflexivity(self, inst):
        for t in range(inst.k):
            nt = inst.next_type(t)
            for i in range(inst.n):
                a = AgentRef(t, i)
                lst = inst.prefs[t][i]
                for b in range(inst.n):
                    br = AgentRef(nt, b)
                    assert not prefers(inst, a, br, br)
                    for c in range(inst.n):
                        if b == c:
                            continue
                        cr = AgentRef(nt, c)
                        fwd = prefers(inst, a, br, cr)
                        bwd = prefers(inst, a, cr, br)
                        if b in lst and c in lst:
                            assert fwd != bwd
                        elif b in lst:
                            assert fwd and not bwd
                        elif c in lst:
                            assert bwd and not fwd
                        else:
                            assert not fwd and not bwd

    @given(instances(max_k=4, max_n=5))
    @settings(max_examples=80)
    def test_better_table_matches_list_scans(self, inst):
        n = inst.n
        for t in range(inst.k):
            for i in range(n):
                lst = inst.prefs[t][i]
                for c in range(n):
                    want = lst.index(c) if c in lst else None
                    assert inst.rank_of(AgentRef(t, i), c) == want
        # every agent gets the same incumbent: -1 is unmatched, and an
        # incumbent missing from a list plays the unlisted partner
        for p in range(-1, n):
            masks = improvement_masks(inst, [[p] * n for _ in range(inst.k)])
            for t in range(inst.k):
                for i in range(n):
                    for c in range(n):
                        got = bool(masks[t][i] >> c & 1)
                        assert got == oracle_prefers(
                            inst.prefs, t, i, c, None if p < 0 else p
                        )


class TestValidation:
    def test_complete_singleton(self):
        inst = make(3, 1, [[(0,)], [(0,)], [(0,)]])
        rep = validate_instance(inst)
        assert rep.ok and rep.complete

    def test_duplicate_entry(self):
        inst = make(2, 2, [[(0, 0), ()], [(), ()]])
        rep = validate_instance(inst)
        assert not rep.ok
        assert any("duplicate" in v for v in rep.violations)

    def test_incomplete_flag(self):
        inst = make(3, 2, [[(1,), (0, 1)], [(0, 1), (0, 1)], [(0, 1), (0, 1)]])
        rep = validate_instance(inst)
        assert rep.ok and not rep.complete

    def test_out_of_range(self):
        inst = make(2, 1, [[(3,)], [()]])
        rep = validate_instance(inst)
        assert not rep.ok
        assert any("out of range" in v for v in rep.violations)

    @pytest.mark.parametrize(
        "first_list", [(1, -1), (1, 2), (1, 1)], ids=["negative", "equal-n", "repeated"]
    )
    def test_invalid_entries_are_rejected(self, first_list):
        inst = make(3, 2, [[first_list, (0, 1)], [(0, 1), (0, 1)], [(0, 1), (0, 1)]])
        assert not validate_instance(inst).ok
        calls = [
            lambda: enumerate_weakly_stable(inst),
            lambda: count_weakly_stable(inst),
            lambda: find_weakly_stable(inst),
            lambda: is_weakly_stable(inst, Matching.of([]), method="naive"),
            lambda: is_weakly_stable(inst, Matching.of([]), method="cycle"),
            lambda: family_violations(inst, Family((0, 0, 0))),
        ]
        for call in calls:
            with pytest.raises(InvalidInstanceError):
                call()

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: Instance(1, 1, (((0,),),)), DimensionError),
            (lambda: Instance(3, -1, ((), (), ())), DimensionError),
            (lambda: Instance(3, 1, (((0,),), ((0,),))), InvalidInstanceError),
            (lambda: Instance(3, 2, (((0,),), ((0,),), ((0,),))), InvalidInstanceError),
            (lambda: Instance.build(1, [[(0,)]]), DimensionError),
            (lambda: Instance.build(3, [[(0,)], [(0,)]]), InvalidInstanceError),
            (lambda: Instance(3.0, 1, (((0,),),) * 3), DimensionError),
            (lambda: Instance(2, True, (((0,),),) * 2), DimensionError),
            (lambda: Instance(2, 1, [[(0,)], [(0,)]]), InvalidInstanceError),
            (lambda: Instance(2, 1, (((0,),), [(0,)])), InvalidInstanceError),
            (lambda: Instance(2, 1, (((0,),), ([0],))), InvalidInstanceError),
        ],
        ids=["k1", "n-1", "two-rows", "short-row", "build-k1", "build-two-rows", "float-k",
             "bool-n", "list-prefs", "list-row", "list-in-row"],
    )
    def test_bad_shape_raises_kdsm_errors(self, make, error):
        with pytest.raises(error):
            make()

    def test_a_list_that_is_not_a_tuple_is_refused_at_construction(self):
        # the instance hashes only if its lists do, so the constructor names
        # the first list that is not a tuple, even inside rows that are
        message = "pref (1, 0): lists must be tuples, got list"
        with pytest.raises(InvalidInstanceError, match=re.escape(message)):
            Instance(2, 1, (((0,),), ([0],)))
        ok = (((0,),), ((0,),))
        assert hash(Instance(2, 1, ok)) == hash(Instance(2, 1, tuple(map(tuple, ok))))

    def test_build_pads_unequal_types(self):
        inst = Instance.build(3, [[(0,), (1,)], [(0,)], []])
        assert inst.n == 2
        assert inst.prefs[1] == ((0,), ())
        assert inst.prefs[2] == ((), ())


class TestSharedPermutations:
    """A shared tuple is a list like any other: its row and text come from
    its values and its instance's own n. Each case runs with the n=3
    permutations drawn."""

    @pytest.fixture(autouse=True)
    def warm(self):
        random_instance(0, 3, 3)

    @staticmethod
    def rows(inst):
        return [[list(masks) for masks in row] for row in inst._better]

    @pytest.mark.parametrize("first", [(0.0, 1, 2), ([0], 1, 2)], ids=["float", "list"])
    def test_an_equal_non_integer_list_is_still_checked(self, first):
        p = shared_permutations(3)
        inst = Instance(2, 3, ((first, p[0], p[1]), (p[2], p[3], p[4])))
        message = "pref (0, 0): entries must be integers"
        assert validate_instance(inst).violations == (message,)
        with pytest.raises(InvalidInstanceError):
            inst._better
        assert f"pref 0 0 : {' '.join(map(str, first))}\n" in serialize_instance(inst)

    def test_a_shared_tuple_of_another_n_gets_the_row_of_its_instance(self):
        random_instance(0, 3, 4)
        p = shared_permutations(3)
        shared = Instance(2, 4, ((p[0], p[5], (), p[1]), (p[2], (), p[3], p[4])))
        fresh = Instance(2, 4, tuple(tuple(tuple(list(lst)) for lst in row) for row in shared.prefs))
        assert shared.prefs == fresh.prefs
        assert all(a is not b for a, b in zip(shared.prefs[0], fresh.prefs[0]) if a)
        assert self.rows(shared) == self.rows(fresh)
        assert self.rows(shared)[0][0] == [0, 1, 3, 7, 7]  # 3 is unlisted
        assert instance_digest(shared) == instance_digest(fresh)

    def test_the_empty_tuple_is_not_shared_across_n(self):
        assert shared_permutations(0) == [()]
        assert Instance(3, 0, ((),) * 3)._better == [[], [], []]
        inst = Instance(2, 2, (((), shared_permutations(2)[1]), ((0,), ())))
        assert self.rows(inst) == [[[0, 0, 0], [2, 0, 3]], [[0, 1, 1], [0, 0, 0]]]
        assert serialize_instance(inst).splitlines()[3:] == [
            "pref 0 0 :", "pref 0 1 : 1 0", "pref 1 0 : 0", "pref 1 1 :"
        ]


class TestTrustedInstance:
    """``trusted_instance`` builds what the public constructor builds, for
    lists the library drew, with the tables handed to it."""

    @staticmethod
    def cases():
        p3 = shared_permutations(3)
        yield 3, 3, tuple(tuple(p3[(t + i) % 6] for i in range(3)) for t in range(3))
        yield 2, 2, ((shared_permutations(2)[1], (0,)), ((), shared_permutations(2)[0]))
        yield 3, 0, ((), (), ())
        yield 4, 1, (((0,),), ((),), ((0,),), ((0,),))

    @pytest.mark.parametrize("case", range(4))
    def test_it_equals_hashes_and_pickles_as_the_public_build(self, case):
        k, n, prefs = list(self.cases())[case]
        public = Instance(k, n, prefs)
        trusted = trusted_instance(k, n, prefs, public._better, public.is_complete)
        assert type(trusted) is Instance
        assert trusted == public and public == trusted
        assert hash(trusted) == hash(public)
        assert {trusted: 1}[public] == 1
        assert repr(trusted) == repr(public)
        assert vars(trusted) == vars(public)  # fields and both tables
        for back in (pickle.loads(pickle.dumps(trusted)), pickle.loads(pickle.dumps(public))):
            assert back == public and hash(back) == hash(public)
            assert back._better == public._better and back.is_complete == public.is_complete
        assert serialize_instance(trusted) == serialize_instance(public)
        assert instance_digest(trusted) == instance_digest(public)
        assert count_weakly_stable(trusted) == count_weakly_stable(public)

    def test_it_stays_frozen(self):
        k, n, prefs = next(self.cases())
        public = Instance(k, n, prefs)
        trusted = trusted_instance(k, n, prefs, public._better, True)
        with pytest.raises(AttributeError):
            trusted.n = 4


class TestMatching:
    def test_validate_empty_ok(self, tiny_complete):
        assert validate_matching(tiny_complete, Matching.of([])).ok

    def test_validate_disjointness(self, rank0_first_instance):
        m = Matching.of([(0, 0, 0), (1, 0, 1)])
        rep = validate_matching(rank0_first_instance, m)
        assert not rep.ok
        assert any("two families" in v for v in rep.violations)

    def test_validate_acceptability(self):
        inst = make(3, 2, [[(1,), ()], [(0,), ()], [(1,), ()]])
        rep = validate_matching(inst, Matching.of([(0, 0, 0)]))
        assert not rep.ok
        assert any("does not accept" in v for v in rep.violations)

    def test_family_violations_ok(self):
        inst = make(3, 2, [[(1,), ()], [(), (0,)], [(0,), ()]])
        assert family_violations(inst, Family((0, 1, 0))) == []


class TestSerialization:
    def test_known_form(self, tiny_complete):
        text = serialize_instance(tiny_complete)
        assert text == "KDSM 1\nk 3\nn 1\npref 0 0 : 0\npref 1 0 : 0\npref 2 0 : 0\n"

    @given(instances())
    @settings(max_examples=80)
    def test_instance_round_trip(self, inst):
        assert parse_instance(serialize_instance(inst)) == inst

    def test_matching_round_trip(self):
        m = Matching.of([(1, 0, 2), (0, 1, 1)])
        text = serialize_matching(m)
        assert text == "KDSM-MATCHING 1\nfamily 0 1 1\nfamily 1 0 2\n"
        assert parse_matching(text) == m

    def test_duplicate_family_line_rejected(self):
        with pytest.raises(FormatError):
            parse_matching("KDSM-MATCHING 1\nfamily 0 0 0\nfamily 0 0 0\n")

    def test_missing_pref_lines_parse_as_empty(self):
        inst = parse_instance("KDSM 1\nk 2\nn 2\npref 0 1 : 0\n")
        assert inst.prefs == (((), (0,)), ((), ()))

    def test_empty_instance(self):
        inst = parse_instance("KDSM 1\nk 3\nn 0\n")
        assert inst.k == 3 and inst.n == 0
        assert parse_instance(serialize_instance(inst)) == inst

    @pytest.mark.parametrize(
        "payload",
        [
            "",
            "KDSM 2\nk 3\nn 1\n",
            "KDSM 1\nk 3\n",
            "KDSM 1\nk 1\nn 1\n",
            "KDSM 1\nk 2\nn 1\npref 0 0 0\n",
            "KDSM 1\nk 2\nn 1\npref 5 0 :\n",
            "KDSM 1\nk 2\nn 2\npref 0 1 :\npref 0 0 :\n",
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(FormatError):
            parse_instance(payload)

    def test_digest_is_stable_and_64bit(self, tiny_complete):
        d = instance_digest(tiny_complete)
        assert len(d) == 16
        assert d == instance_digest(tiny_complete)
