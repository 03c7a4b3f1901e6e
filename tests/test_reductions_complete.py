import random

import pytest

from kdsm import (
    AgentRef,
    DimensionError,
    Family,
    Instance,
    Matching,
    TypeMismatchError,
    check_admirer_bound,
    check_gadget_confinement,
    check_partner_correspondence,
    complete_instance,
    enumerate_weakly_stable,
    find_blocking_naive,
    free_boundary_agents,
    induce_down,
    induce_up,
    is_strongly_blocking,
    is_weakly_stable,
    parse_map,
    random_instance,
    random_matching,
    validate_instance,
    validate_matching,
)
from kdsm.core import KdsmError, partner_rows


def stable_pairs(seed, count, max_n=3):
    """Seeded (instance, stable matching) pairs found by enumeration."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        inst = random_instance(rng.getrandbits(32), 3, rng.randint(1, max_n), rng.choice((0.4, 0.7, 1.0)))
        stab = enumerate_weakly_stable(inst, limit=1)
        if stab:
            out.append((inst, stab[0]))
    return out


class TestConstruction:
    def test_sizes_k3_n2(self):
        inst = random_instance(0, 3, 2, 0.5)
        comp, gm = complete_instance(inst)
        assert comp.n == 30 and comp.k == 3
        assert gm.jsize == 5 and gm.boundary == 4

    def test_requires_k_at_least_3(self):
        with pytest.raises(DimensionError):
            complete_instance(random_instance(0, 2, 2, 1.0))

    def test_output_complete_and_valid(self):
        for k, n in ((3, 1), (3, 3), (4, 2), (5, 1)):
            inst = random_instance(k * 10 + n, k, n, 0.6)
            comp, _ = complete_instance(inst)
            rep = validate_instance(comp)
            assert rep.ok and rep.complete

    def test_non_dummy_prefix_law(self):
        inst = random_instance(5, 3, 2, 0.7)
        comp, gm = complete_instance(inst)
        for alpha in inst.agents():
            nd = gm.non_dummy(alpha)
            nt = (alpha.t + 1) % 3
            want = [a.i for a in gm.mapped_prefix(alpha)]
            want += [gm.to_output(j, alpha, nt).i for j in range(gm.jsize)]
            assert list(comp.prefs[nd.t][nd.i][: len(want)]) == want

    def test_mapped_prefix_shape(self):
        inst = random_instance(5, 3, 2, 0.7)
        _, gm = complete_instance(inst)
        for alpha in inst.agents():
            mp = gm.mapped_prefix(alpha)
            assert len(mp) == len(inst.prefs[alpha.t][alpha.i])
            for out_agent, b in zip(mp, inst.prefs[alpha.t][alpha.i]):
                j, owner = gm.from_output(out_agent)
                assert j == 0 and owner == AgentRef((alpha.t + 1) % 3, b)
        empty = [a for a in inst.agents() if not inst.prefs[a.t][a.i]]
        for alpha in empty:
            assert gm.mapped_prefix(alpha) == ()

    def test_non_boundary_dummy_walks_own_column(self):
        inst = random_instance(6, 3, 2, 0.5)
        comp, gm = complete_instance(inst)
        alpha = AgentRef(1, 0)
        a = gm.to_output(1, alpha, 2)
        nt = 0
        want = [gm.to_output(j, alpha, nt).i for j in range(gm.jsize)]
        assert list(comp.prefs[2][a.i][: len(want)]) == want

    def test_boundary_dummy_splices_boundary_row(self):
        inst = random_instance(6, 3, 2, 0.5)
        comp, gm = complete_instance(inst)
        alpha = AgentRef(2, 1)
        t = 0
        a = gm.to_output(gm.boundary, alpha, t)
        want = [gm.to_output(j, alpha, 1).i for j in range(gm.boundary)]
        want += [gm.to_output(gm.boundary, b, 1).i for b in gm.input_agents()]
        assert list(comp.prefs[t][a.i][: len(want)]) == want

    def test_tail_shuffle_keeps_heads_and_stability(self):
        inst = random_instance(9, 3, 2, 0.7)
        base, gm = complete_instance(inst)
        shuffled, _ = complete_instance(inst, seed=123)
        assert base != shuffled
        # heads agree; tails are permutations of each other
        for t in range(3):
            for i in range(base.n):
                a, b = base.prefs[t][i], shuffled.prefs[t][i]
                assert sorted(a) == sorted(b)
        m = enumerate_weakly_stable(inst, limit=1)[0]
        for variant in (base, shuffled):
            assert is_weakly_stable(variant, induce_up(gm, m), method="cycle").stable

    def test_map_file_round_trip(self):
        inst = random_instance(4, 3, 2, 0.5)
        _, gm = complete_instance(inst)
        parsed = parse_map(gm.serialize())
        assert (parsed.k, parsed.n, parsed.jsize) == (gm.k, gm.n, gm.jsize)
        assert parsed.source is None
        with pytest.raises(KdsmError):
            parsed.mapped_prefix(AgentRef(0, 0))
        assert parsed.with_source(inst).mapped_prefix(AgentRef(0, 0)) == gm.mapped_prefix(AgentRef(0, 0))


class TestRowShiftAndBoundary:
    def test_boundary_lists_lengths(self):
        inst = random_instance(3, 3, 2, 1.0)
        _, gm = complete_instance(inst)
        perfect = Matching.of([(0, 0, 0), (1, 1, 1)])
        lists = free_boundary_agents(gm, perfect)
        assert [len(r) for r in lists] == [4, 4, 4]  # |A| - |m| = 6 - 2
        empty = Matching.of([])
        lists = free_boundary_agents(gm, empty)
        assert [len(r) for r in lists] == [6, 6, 6]
        for row in lists:
            assert row == sorted(row)


class TestInduce:
    def test_empty_input_gives_straight_columns(self):
        inst = random_instance(1, 3, 2, 0.5)
        comp, gm = complete_instance(inst)
        mh = induce_up(gm, Matching.of([]))
        assert validate_matching(comp, mh).ok
        # every gadget contributes straight-across rows for each non-boundary column
        for alpha in gm.input_agents():
            for j in range(gm.boundary):
                fam = Family(tuple(gm.to_output(j, alpha, t).i for t in range(3)))
                assert fam in mh

    def test_matched_agent_shifts_own_row(self):
        inst = random_instance(2, 3, 2, 1.0)
        comp, gm = complete_instance(inst)
        m = Matching.of([(0, 1, 1)])
        mh = induce_up(gm, m)
        alpha = AgentRef(1, 1)  # matched woman: her row slides by one
        for j in range(gm.boundary):
            fam = Family(
                (
                    gm.to_output(j, alpha, 0).i,
                    gm.to_output(j + 1, alpha, 1).i,
                    gm.to_output(j, alpha, 2).i,
                )
            )
            assert fam in mh

    def test_induced_matching_is_perfect_and_valid(self):
        rng = random.Random(4)
        for _ in range(20):
            inst = random_instance(rng.getrandbits(32), 3, rng.randint(1, 3), rng.choice((0.3, 0.7, 1.0)))
            comp, gm = complete_instance(inst)
            m = random_matching(inst, rng.getrandbits(32))
            mh = induce_up(gm, m)
            assert validate_matching(comp, mh).ok
            assert 3 * len(mh) == 3 * comp.n  # perfect

    def test_induce_down_reads_non_dummy_families(self):
        inst = random_instance(3, 3, 2, 1.0)
        comp, gm = complete_instance(inst)
        m = Matching.of([(0, 0, 0), (1, 1, 1)])
        assert induce_down(gm, induce_up(gm, m)) == m
        assert induce_down(gm, Matching.of([])) == Matching.of([])

    def test_induce_down_ignores_non_family_triples(self):
        # a hand-built matching pairing one non-dummy with dummies leaves
        # the corresponding agents unmatched downstairs
        inst = random_instance(3, 3, 2, 1.0)
        comp, gm = complete_instance(inst)
        alpha = AgentRef(0, 0)
        fam = Family(
            (
                gm.non_dummy(alpha).i,
                gm.to_output(0, alpha, 1).i,
                gm.to_output(0, alpha, 2).i,
            )
        )
        down = induce_down(gm, Matching.of([fam]))
        assert down == Matching.of([])

    def test_round_trip_identity_over_random_matchings(self):
        rng = random.Random(5)
        for _ in range(30):
            inst = random_instance(rng.getrandbits(32), 3, rng.randint(1, 3), rng.choice((0.4, 0.8, 1.0)))
            _, gm = complete_instance(inst)
            m = random_matching(inst, rng.getrandbits(32))
            assert induce_down(gm, induce_up(gm, m)) == m


class TestStabilityTransport:
    def test_stable_inputs_induce_stable_outputs(self):
        for inst, m in stable_pairs(21, 25):
            comp, gm = complete_instance(inst)
            mh = induce_up(gm, m)
            assert is_weakly_stable(comp, mh, method="cycle").stable

    def test_blocking_family_image_blocks_upstairs(self):
        rng = random.Random(22)
        checked = 0
        while checked < 25:
            inst = random_instance(rng.getrandbits(32), 3, rng.randint(1, 3), rng.choice((0.4, 0.7, 1.0)))
            m = random_matching(inst, rng.getrandbits(32))
            f = find_blocking_naive(inst, m)
            if f is None:
                continue
            comp, gm = complete_instance(inst)
            mh = induce_up(gm, m)
            image = Family(tuple(gm.non_dummy(AgentRef(t, f.members[t])).i for t in range(3)))
            assert is_strongly_blocking(comp, mh, image)
            checked += 1


class TestCheckers:
    def test_clean_on_induced_matchings(self):
        for inst, m in stable_pairs(31, 10):
            comp, gm = complete_instance(inst)
            mh = induce_up(gm, m)
            down = induce_down(gm, mh)
            assert check_gadget_confinement(gm, mh).ok
            assert check_partner_correspondence(gm, mh, down).ok
            for alpha in inst.agents():
                assert check_admirer_bound(gm, mh, alpha, alpha.t).ok

    def test_admirer_not_applicable_when_prefix_matched(self):
        inst = random_instance(2, 3, 2, 1.0)
        comp, gm = complete_instance(inst)
        m = enumerate_weakly_stable(inst, limit=1)[0]
        mh = induce_up(gm, m)
        alpha = AgentRef(0, m.families[0].members[0])
        rep = check_admirer_bound(gm, mh, alpha, 0)
        assert not rep.applicable and rep.checked == 0 and rep.ok

    def test_admirer_applicable_for_unmatched_agent(self):
        # find a stable matching that leaves someone unmatched; its gadget
        # stays straight, so the bound holds with room to spare
        found = None
        for seed in range(50):
            inst = random_instance(seed, 3, 2, 0.4)
            for m in enumerate_weakly_stable(inst):
                rows = partner_rows(inst, m)
                unmatched = [a for a in inst.agents() if rows[a.t][a.i] < 0]
                if unmatched:
                    found = (inst, m, unmatched[0])
                    break
            if found:
                break
        assert found is not None
        inst, m, alpha = found
        _, gm = complete_instance(inst)
        mh = induce_up(gm, m)
        rep = check_admirer_bound(gm, mh, alpha, alpha.t)
        assert rep.applicable and rep.checked > 0 and rep.ok

    def test_admirer_type_mismatch_rejected(self):
        inst = random_instance(2, 3, 2, 1.0)
        _, gm = complete_instance(inst)
        with pytest.raises(TypeMismatchError):
            check_admirer_bound(gm, Matching.of([]), AgentRef(0, 0), 1)

    def test_admirer_violation_on_rerouted_gadget(self):
        # swap partners between two gadgets at column 0: each dummy is now
        # matched outside its own gadget, violating the confinement bound
        inst = random_instance(2, 3, 2, 0.0)
        comp, gm = complete_instance(inst)
        mh = induce_up(gm, Matching.of([]))
        a0, a1 = AgentRef(0, 0), AgentRef(0, 1)
        fams = []
        for f in mh:
            j, owner = gm.from_output(AgentRef(0, f.members[0]))
            if j == 0 and owner == a0:
                fams.append(Family((f.members[0], gm.to_output(0, a1, 1).i, gm.to_output(0, a1, 2).i)))
            elif j == 0 and owner == a1:
                fams.append(Family((f.members[0], gm.to_output(0, a0, 1).i, gm.to_output(0, a0, 2).i)))
            else:
                fams.append(f)
        rerouted = Matching.of(fams)
        assert validate_matching(comp, rerouted).ok
        rep = check_admirer_bound(gm, rerouted, a0, 0)
        assert rep.applicable and not rep.ok

    def test_confinement_vacuous_without_applicable_families(self):
        inst = random_instance(2, 3, 1, 1.0)
        comp, gm = complete_instance(inst)
        m = enumerate_weakly_stable(inst, limit=1)[0]
        mh = induce_up(gm, m)
        rep = check_gadget_confinement(gm, mh)
        assert rep.ok

    def test_confinement_violation_on_mixed_gadgets(self):
        inst = random_instance(2, 3, 2, 0.0)
        _, gm = complete_instance(inst)
        a0, a1 = AgentRef(0, 0), AgentRef(0, 1)
        mixed = Matching.of(
            [
                Family(
                    (
                        gm.non_dummy(a0).i,
                        gm.to_output(0, a1, 1).i,
                        gm.to_output(0, a1, 2).i,
                    )
                )
            ]
        )
        rep = check_gadget_confinement(gm, mixed)
        assert rep.applicable and not rep.ok

    def test_correspondence_violation_on_cross_match(self):
        # match each non-dummy into the other's mapped prefix while the
        # induced matching downstairs stays empty
        inst = Instance(3, 2, (((1,), (0,)), ((0,), (1,)), ((1, 0), (0,))))
        comp, gm = complete_instance(inst)
        m0 = AgentRef(0, 0)
        w1 = AgentRef(1, 1)
        fam = Family(
            (
                gm.non_dummy(m0).i,
                gm.non_dummy(w1).i,
                gm.to_output(1, m0, 2).i,
            )
        )
        mh = Matching.of([fam])
        down = induce_down(gm, mh)
        assert down == Matching.of([])
        rep = check_partner_correspondence(gm, mh, down)
        assert rep.applicable and not rep.ok
