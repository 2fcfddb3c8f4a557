from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import orthologic.analysis
import orthologic.states
from orthologic import (
    LatticeState,
    NotAState,
    NotOrthomodular,
    TooLarge,
    catalog,
    direct_product,
    enumerate_dispersion_free,
    is_dispersion_free,
    is_state,
    unary_nogo_certify,
    unary_nogo_evaluate,
)

rationals = st.fractions(min_value=0, max_value=1, max_denominator=50)


def indicator(lat, ones):
    return LatticeState.from_values([1 if i in ones else 0 for i in range(lat.n)])


# ---------------------------------------------------------------------------
# the state axioms


def test_atom_indicator_on_b4_is_a_state():
    b4 = catalog("B4")
    p = b4.index("p")
    up = {x for x in range(b4.n) if b4.le(p, x)}
    ok, witness = is_state(b4, indicator(b4, up))
    assert ok and witness is None


def test_two_orthogonal_atoms_at_one_violate_meet_closure(mo2):
    a, b = mo2.index("a"), mo2.index("b")
    mu = indicator(mo2, {a, b, mo2.top})
    ok, witness = is_state(mo2, mu)
    assert not ok
    assert witness == ("meet_closure", (a, b))


def test_bottom_at_one_is_not_a_state(mo2):
    mu = indicator(mo2, set(range(mo2.n)))
    ok, witness = is_state(mo2, mu)
    assert not ok and witness[0] == "normalization"


def test_out_of_range_value_rejected(mo2):
    values = [Fraction(0)] * mo2.n
    values[mo2.top] = Fraction(3, 2)
    ok, witness = is_state(mo2, values)
    assert not ok and witness == ("range", (mo2.top,))


def test_uniform_half_on_mo2_is_a_state_but_not_dispersion_free(mo2):
    values = [Fraction(1, 2)] * mo2.n
    values[mo2.bottom] = Fraction(0)
    values[mo2.top] = Fraction(1)
    ok, _ = is_state(mo2, values)
    assert ok
    assert not is_dispersion_free(mo2, values)


def test_is_dispersion_free_examples(b8):
    p = b8.index("p")
    up = {x for x in range(b8.n) if b8.le(p, x)}
    assert is_dispersion_free(b8, indicator(b8, up))
    b2 = catalog("B2")
    assert is_dispersion_free(b2, indicator(b2, {b2.top}))


def test_is_dispersion_free_rejects_non_states(mo2):
    with pytest.raises(NotAState):
        is_dispersion_free(mo2, indicator(mo2, {mo2.index("a"), mo2.index("b"), mo2.top}))


def test_is_state_requires_orthomodular(o6):
    with pytest.raises(NotOrthomodular):
        is_state(o6, [0, 0, 0, 1, 1, 1])


def test_is_state_scans_orthomodularity_once(monkeypatch, b8):
    scan = orthologic.analysis._orthomodular_witness
    calls = []

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(orthologic.analysis, "_orthomodular_witness", counted)
    p = b8.index("p")
    ok, _ = is_state(b8, indicator(b8, {x for x in range(b8.n) if b8.le(p, x)}))
    assert ok
    assert len(calls) == 1


def test_state_mapping_roundtrip(mo2):
    mu = LatticeState.from_mapping(
        mo2, {"0": 0, "a": "1/2", "a'": "1/2", "b": "1/2", "b'": "1/2", "1": 1}
    )
    assert mu.as_mapping(mo2)["a"] == Fraction(1, 2)
    assert mu[mo2.index("b'")] == Fraction(1, 2)


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize(
    "name, count",
    [("B2", 1), ("B4", 2), ("B8", 3), ("MO2", 0), ("MO3", 0), ("MO2xB2", 1)],
)
def test_enumeration_counts(name, count):
    assert len(enumerate_dispersion_free(catalog(name)).states) == count


def test_enumeration_agrees_with_brute_force(oml):
    report = enumerate_dispersion_free(oml)
    got = [tuple(int(v) for v in state.values) for state in report.states]
    assert got == oracles.brute_force_dispersion_free(oml)


def test_enumerated_states_satisfy_all_axioms(oml):
    for state in enumerate_dispersion_free(oml).states:
        ok, _ = is_state(oml, state)
        assert ok and is_dispersion_free(oml, state)


def test_mo2xb2_unique_state_tracks_second_coordinate():
    product = catalog("MO2xB2")
    report = enumerate_dispersion_free(product)
    (state,) = report.states
    for name, value in state.as_mapping(product).items():
        assert value == (1 if name.endswith(",1)") else 0)


@pytest.mark.parametrize("name", ["B4", "B8", "MO2", "MO3", "MO2xB2"])
def test_theorem_consistency_flags(name):
    report = enumerate_dispersion_free(catalog(name))
    assert report.theorem_consistent
    if report.center_is_trivial:
        assert not report.states  # trivial center forbids two-valued states


def test_b2_is_the_degenerate_case():
    # the two-element lattice carries the deterministic bit state even though
    # its center (the whole lattice) is literally the pair {0, 1}; the flag
    # formula reports that honestly
    report = enumerate_dispersion_free(catalog("B2"))
    assert len(report.states) == 1
    assert report.center_is_trivial
    assert not report.theorem_consistent


def test_enumeration_requires_orthomodular(o6):
    with pytest.raises(NotOrthomodular):
        enumerate_dispersion_free(o6)


def test_enumeration_size_cap():
    big = direct_product(catalog("B8"), direct_product(catalog("B8"), catalog("B2")))
    assert big.n == 128
    with pytest.raises(TooLarge):
        enumerate_dispersion_free(big)


def test_enumeration_at_the_size_cap():
    # 64-element Boolean cube: one state per atom, like any powerset lattice
    big = direct_product(catalog("B8"), catalog("B8"))
    report = enumerate_dispersion_free(big)
    assert len(report.states) == 6
    assert report.theorem_consistent


STATE_SEARCH_PRODUCTS = (
    ("B8", "B8"),
    ("B4", "B4", "B4"),
    ("B2", "B4", "B8"),
    ("MO3", "B8"),
    ("MO2", "B2", "B4"),
    ("MO3", "MO2"),
)

# Greechie pastings of 3-atom blocks: (blocks, number of states, trivial center)
PASTINGS = {
    "chain2": (("abc", "cde"), 1, False),
    "chain4": (("abc", "cde", "efg", "ghi"), 0, True),
    "pentagon": (("abc", "cde", "efg", "ghi", "ija"), 0, True),
}


def _assert_matches_backtracking(lat):
    report = enumerate_dispersion_free(lat)
    got = [tuple(int(v) for v in state.values) for state in report.states]
    assert got == oracles.backtrack_dispersion_free(lat)
    for state in report.states:
        ok, _ = is_state(lat, state)
        assert ok and is_dispersion_free(lat, state)
    return report


@pytest.mark.parametrize("names", STATE_SEARCH_PRODUCTS, ids="x".join)
def test_closed_form_matches_backtracking_on_products(names):
    _assert_matches_backtracking(reduce(direct_product, map(catalog, names)))


@pytest.mark.parametrize("name", PASTINGS)
def test_closed_form_matches_backtracking_on_pastings(name):
    blocks, count, trivial = PASTINGS[name]
    report = _assert_matches_backtracking(oracles.greechie_pasting(blocks))
    assert len(report.states) == count
    assert report.center_is_trivial == trivial


def test_enumeration_does_not_recheck_states(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_dispersion_free re-checked a state")

    monkeypatch.setattr(orthologic.states, "is_state", refuse)
    cube = direct_product(catalog("B8"), catalog("B8"))
    assert len(enumerate_dispersion_free(cube).states) == 6


def test_exhaustive_mo2_assignments_never_form_a_state(mo2):
    # sharpening of the zero count: every two-valued map fails some axiom
    for bits in product((0, 1), repeat=mo2.n):
        ok, _ = is_state(mo2, LatticeState.from_values(bits))
        assert not (ok and all(b in (0, 1) for b in bits))


def test_restriction_to_factor_along_central_one():
    for first_name, second_name in [("MO2", "B2"), ("B4", "B2"), ("B4", "B4")]:
        first, second = catalog(first_name), catalog(second_name)
        joint = direct_product(first, second)
        n2 = second.n
        for state in enumerate_dispersion_free(joint).states:
            left = float(state[first.top * n2 + second.bottom])  # value at (1, 0)
            if left == 1:
                factor, pick = first, lambda x: x * n2 + second.bottom
            else:
                factor, pick = second, lambda y: first.bottom * n2 + y
            induced = LatticeState.from_values(
                [state[pick(i)] for i in range(factor.n)]
            )
            ok, _ = is_state(factor, induced)
            assert ok and is_dispersion_free(factor, induced)


# ---------------------------------------------------------------------------
# the unary no-go formula


def test_unary_evaluate_examples():
    assert unary_nogo_evaluate(1, 1) == 1
    assert unary_nogo_evaluate(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 2)
    assert unary_nogo_evaluate(0, 1) == 0
    assert unary_nogo_evaluate("1/3", "1/3") == Fraction(5, 9)


@pytest.mark.parametrize("step", ["1/10", "1/2", "1", "2/5", "1/100"])
def test_unary_certify_grids(step):
    assert unary_nogo_certify(step)


def test_unary_certify_rejects_bad_step():
    with pytest.raises(ValueError):
        unary_nogo_certify(0)


@settings(max_examples=200)
@given(p=rationals, q=rationals)
def test_unary_agreement_is_certain_only_at_matching_corners(p, q):
    value = unary_nogo_evaluate(p, q)
    assert 0 <= value <= 1
    assert unary_nogo_evaluate(q, p) == value
    assert (value == 1) == ((p, q) in ((0, 0), (1, 1)))
