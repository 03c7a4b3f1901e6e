"""The four-line ``KDSM-MAP 1`` map format and the reductions' bad-input errors."""

import pytest

from kdsm import (
    AgentRef,
    ArgumentError,
    CorrMap3K,
    DimensionError,
    FormatError,
    GadgetMap,
    Matching,
    TransportFormError,
    complete_instance,
    induce_down,
    induce_up,
    is_weakly_stable,
    lift_3_to_k,
    parse_map,
    random_instance,
    transport_matching,
)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("target_k", [4, 5, 7])
def test_lift_map_round_trip(n, target_k):
    _, cmap = lift_3_to_k(random_instance(n, 3, n, 0.7), target_k)
    text = cmap.serialize()
    assert text == f"KDSM-MAP 1\nkind lift\nk {target_k}\nn {n}\n"
    parsed = parse_map(text)
    assert parsed == cmap and parsed.serialize() == text


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_gadget_map_round_trip(n, k):
    inst = random_instance(n, k, n, 0.7)
    _, gm = complete_instance(inst)
    text = gm.serialize()
    assert text == f"KDSM-MAP 1\nkind gadget\nk {k}\nn {n}\n"
    parsed = parse_map(text)
    assert parsed == GadgetMap(k, n) and parsed.serialize() == text
    assert parsed.with_source(inst) == gm


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 0 0 0 0\n0 0 0 0 1\n0 0 0 0 2\n", "missing 'KDSM-MAP 1' header"),
        ("0 0 0 0\n", "missing 'KDSM-MAP 1' header"),
        ("", "missing 'KDSM-MAP 1' header"),
        ("KDSM-MAP 2\nkind lift\nk 4\nn 2\n", "missing 'KDSM-MAP 1' header"),
        ("KDSM-MAP 1\nkind wrap\nk 4\nn 2\n", "unknown map kind 'wrap'"),
        ("KDSM-MAP 1\nk 4\nn 2\n", "expected a 'kind lift|gadget' line"),
        ("KDSM-MAP 1\nkind lift\nk 3\nn 2\n", "invalid dimensions k=3, n=2"),
        ("KDSM-MAP 1\nkind gadget\nk 2\nn 2\n", "invalid dimensions k=2, n=2"),
        ("KDSM-MAP 1\nkind gadget\nk 3\nn -1\n", "invalid dimensions k=3, n=-1"),
        ("KDSM-MAP 1\nkind lift\nk 4\nn two\n", "k and n must be integers"),
        ("KDSM-MAP 1\nkind lift\nk 4.0\nn 2\n", "k and n must be integers"),
        ("KDSM-MAP 1\nkind lift\nk 4\n", "expected 'k <k>' and 'n <n>' header lines"),
        ("KDSM-MAP 1\nkind lift\nn 2\nk 4\n", "expected 'k <k>' and 'n <n>' header lines"),
        ("KDSM-MAP 1\nkind lift\nk 4\nn 2\n0 0 0 0\n", "unexpected line '0 0 0 0'"),
    ],
)
def test_malformed_map_raises(text, message):
    with pytest.raises(FormatError) as info:
        parse_map(text)
    assert message in str(info.value)


def test_lift_up_rejects_members_outside_the_input():
    _, cmap = lift_3_to_k(random_instance(1, 3, 2, 1.0), 5)
    for fam in [(5, 5, 5), (2, 0, 0), (0, -1, 0), (0, 0)]:
        with pytest.raises(TransportFormError):
            transport_matching(cmap, Matching.of([fam]), "up")
    with pytest.raises(TransportFormError):
        transport_matching(cmap, Matching.of([(0, 0, 0), (0, 1, 1)]), "up")


def test_lift_down_rejects_members_outside_the_output():
    _, cmap = lift_3_to_k(random_instance(1, 3, 0, 1.0), 4)
    with pytest.raises(TransportFormError):
        transport_matching(cmap, Matching.of([(0, 0, 0, 0)]), "down")
    _, cmap = lift_3_to_k(random_instance(1, 3, 2, 1.0), 4)
    with pytest.raises(TransportFormError):
        transport_matching(cmap, Matching.of([(4, 4, 4, 4)]), "down")


def test_gadget_transport_rejects_members_outside_the_instance():
    inst = random_instance(1, 3, 2, 1.0)
    _, gm = complete_instance(inst)
    with pytest.raises(TransportFormError):
        induce_up(GadgetMap(3, 2), Matching.of([(5, 5, 5)]))
    with pytest.raises(TransportFormError):
        induce_up(GadgetMap(3, 2), Matching.of([(0, 0, 0), (1, 0, 1)]))
    with pytest.raises(TransportFormError):
        induce_down(gm, Matching.of([(gm.n_out, 0, 0)]))


def test_bad_arguments_raise_kdsm_errors():
    inst = random_instance(1, 3, 2, 1.0)
    _, cmap = lift_3_to_k(inst, 5)
    _, gm = complete_instance(inst)
    calls = [
        lambda: is_weakly_stable(inst, Matching.of([]), method="fast"),
        lambda: transport_matching(cmap, Matching.of([]), "sideways"),
        lambda: cmap.to_output(2, 0, 0),
        lambda: cmap.to_output(0, 0, 5),
        lambda: cmap.non_dummy(AgentRef(3, 0)),
        lambda: gm.to_output(gm.jsize, AgentRef(0, 0), 0),
        lambda: gm.to_output(0, AgentRef(0, 2), 0),
        lambda: CorrMap3K(2, 5).non_dummy(AgentRef(0, 2)),
    ]
    for call in calls:
        with pytest.raises(ArgumentError):
            call()
    # a map is built only for dimensions its reduction accepts
    calls = [
        lambda: GadgetMap(3, -1),
        lambda: induce_up(GadgetMap(2, 1), Matching.of([])),
        lambda: transport_matching(CorrMap3K(2, 3), Matching.of([(0, 1, 1)]), "up"),
    ]
    for call in calls:
        with pytest.raises(DimensionError):
            call()
