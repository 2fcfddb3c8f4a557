import itertools

import numpy as np
import pytest

import oracles
from orthologic import (
    NotOrthomodular,
    catalog,
    center,
    check_incompatible_lemma,
    classify,
    compatibility_relation,
    compatible_decomposition,
    compatible_via_definition,
    direct_product,
    incompatibility_witness,
    is_compatible,
    is_irreducible,
    lattice_from_covers,
)


# ---------------------------------------------------------------------------
# the three compatibility routes


def test_identity_route_examples(mo2):
    b4 = catalog("B4")
    assert is_compatible(b4, b4.index("p"), b4.index("q"))
    a, b = mo2.index("a"), mo2.index("b")
    assert not is_compatible(mo2, a, b)
    assert is_compatible(mo2, a, mo2.oc(a))


def test_identity_route_needs_orthomodularity(o6):
    with pytest.raises(NotOrthomodular):
        is_compatible(o6, 1, 2)


def test_definitional_route_on_o6_chain_pair(o6):
    # a < b in the benzene ring: the generated block is all of O6, which is
    # not distributive, so the chain pair is NOT compatible (the classical
    # marker of failing orthomodularity)
    a, b = o6.index("a"), o6.index("b")
    assert o6.le(a, b)
    assert compatible_via_definition(o6, a, b) is False
    assert oracles.naive_compatible(o6, a, b) is False


def test_definitional_route_examples(mo2):
    assert not compatible_via_definition(mo2, mo2.index("a"), mo2.index("b"))
    for lat in (mo2, catalog("B8"), catalog("O6")):
        for x in range(lat.n):
            assert compatible_via_definition(lat, x, x)


def test_routes_agree_on_all_catalog_pairs(oml):
    for a, b in itertools.product(range(oml.n), repeat=2):
        by_def = compatible_via_definition(oml, a, b)
        by_identity = is_compatible(oml, a, b)
        by_decomposition = compatible_decomposition(oml, a, b) is not None
        assert by_def == by_identity == by_decomposition


def test_relation_matches_naive_matrix(mo2):
    for lat in (mo2, catalog("B8"), catalog("MO2xB2")):
        assert np.array_equal(
            compatibility_relation(lat), np.array(oracles.naive_compatibility_matrix(lat))
        )


def test_relation_is_symmetric(oml):
    relation = compatibility_relation(oml)
    assert np.array_equal(relation, relation.T)


def test_everything_compatible_with_bounds_self_complement(oml):
    relation = compatibility_relation(oml)
    for x in range(oml.n):
        assert relation[x, oml.bottom] and relation[x, oml.top]
        assert relation[x, x] and relation[x, oml.oc(x)]


# ---------------------------------------------------------------------------
# decompositions


def test_decomposition_idempotent_pair():
    b4 = catalog("B4")
    p = b4.index("p")
    d = compatible_decomposition(b4, p, p)
    assert (d.a_part, d.b_part, d.common) == (b4.bottom, b4.bottom, p)


def test_decomposition_complement_pair(mo2):
    a = mo2.index("a")
    d = compatible_decomposition(mo2, a, mo2.oc(a))
    assert (d.a_part, d.b_part, d.common) == (a, mo2.oc(a), mo2.bottom)


def test_decomposition_absent_for_incompatible_pair(mo2):
    a, b = mo2.index("a"), mo2.index("b")
    assert compatible_decomposition(mo2, a, b) is None
    assert oracles.naive_decomposition_search(mo2, a, b) is None


def test_decomposition_invariants(oml):
    for a, b in itertools.product(range(oml.n), repeat=2):
        d = compatible_decomposition(oml, a, b)
        if d is None:
            continue
        parts = (d.a_part, d.b_part, d.common)
        for x, y in itertools.combinations(parts, 2):
            assert oml.le(x, oml.oc(y))
        assert oml.join[d.a_part, d.common] == a
        assert oml.join[d.b_part, d.common] == b


@pytest.mark.parametrize("first, second", [("MO3", "B2"), ("MO2", "B4")])
def test_identity_agrees_with_exhaustive_decomposition_search(first, second):
    # past the catalog sizes criterion 2 scans: n = 16 and n = 24
    lat = direct_product(catalog(first), catalog(second))
    for a, b in itertools.product(range(lat.n), repeat=2):
        if is_compatible(lat, a, b):
            d = compatible_decomposition(lat, a, b)
            for x, y in itertools.combinations((d.a_part, d.b_part, d.common), 2):
                assert lat.le(x, lat.oc(y))
            assert (lat.join[d.a_part, d.common], lat.join[d.b_part, d.common]) == (a, b)
        else:
            assert compatible_decomposition(lat, a, b) is None
            assert not oracles.exhaustive_decomposition_exists(lat, a, b)


@pytest.mark.parametrize("past_the_end", [False, True], ids=["minus-one", "n"])
def test_one_pair_queries_reject_out_of_range_indices(mo2, past_the_end):
    # -1 must not wrap to the top, and n must not surface as a bare IndexError
    def bad(n):
        return n if past_the_end else -1

    calls = [
        lambda: is_compatible(mo2, 1, bad(mo2.n)),
        lambda: compatible_decomposition(mo2, 1, bad(mo2.n)),
        lambda: compatible_via_definition(mo2, 1, bad(mo2.n)),
        lambda: incompatibility_witness(mo2, bad(mo2.n)),
        lambda: lattice_from_covers(["0", "a", "1"], [(0, 1), (1, bad(3))]),
        lambda: lattice_from_covers(["0", "1"], [(0, 1)], [(0, bad(2))]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"element index -?\d+ out of range"):
            call()


# ---------------------------------------------------------------------------
# incompatibility witnesses and the center


def test_incompatibility_witness_examples(mo2, b8):
    assert incompatibility_witness(mo2, mo2.index("a")) == mo2.index("b")
    assert incompatibility_witness(mo2, mo2.top) is None
    assert incompatibility_witness(mo2, mo2.bottom) is None
    for q in range(b8.n):
        assert incompatibility_witness(b8, q) is None


def test_witness_none_iff_central(oml):
    members = set(center(oml).members)
    for q in range(oml.n):
        assert (incompatibility_witness(oml, q) is None) == (q in members)


def test_center_b8_is_everything(b8):
    assert center(b8).members == tuple(range(8))
    assert not center(b8).is_trivial


def test_center_mo2_is_trivial(mo2):
    report = center(mo2)
    assert report.members == (mo2.bottom, mo2.top)
    assert report.is_trivial


def test_center_of_product_names():
    product = catalog("MO2xB2")
    names = [product.names[i] for i in center(product).members]
    assert names == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    assert not center(product).is_trivial


def test_center_is_closed_substructure(oml):
    members = center(oml).members
    inside = set(members)
    assert oml.bottom in inside and oml.top in inside
    for a in members:
        assert oml.oc(a) in inside
        for b in members:
            assert int(oml.meet[a, b]) in inside
            assert int(oml.join[a, b]) in inside


def test_center_requires_orthomodularity(o6):
    with pytest.raises(NotOrthomodular):
        center(o6)


def test_is_irreducible():
    assert is_irreducible(catalog("MO2"))
    assert is_irreducible(catalog("B2"))
    assert not is_irreducible(catalog("MO2xB2"))


# ---------------------------------------------------------------------------
# products


def test_product_is_orthocomplemented_even_from_o6():
    product = direct_product(catalog("O6"), catalog("B2"))
    report = classify(product)
    assert report.is_orthocomplemented
    assert not report.is_orthomodular  # inherited from the O6 factor


def test_product_orthomodular_iff_both_factors():
    good = direct_product(catalog("MO2"), catalog("B4"))
    assert classify(good).is_orthomodular


# ---------------------------------------------------------------------------
# the upward-propagation lemma scan


def test_lemma_scan_clean_on_boolean_lattices():
    for name in ("B2", "B4", "B8"):
        assert check_incompatible_lemma(catalog(name)) == (True, None)


def test_lemma_scan_finds_real_counterexamples(mo2):
    # upward propagation of incompatibility is false in general: the top is
    # compatible with everything, yet sits above every element
    ok, witness = check_incompatible_lemma(mo2)
    assert not ok
    a, b, c = witness
    assert (mo2.names[a], mo2.names[b], mo2.names[c]) == ("a", "1", "b")
    assert mo2.le(a, b) and a != b
    assert not is_compatible(mo2, a, c)
    assert is_compatible(mo2, b, c)
    assert not oracles.naive_compatible(mo2, a, c)
    assert oracles.naive_compatible(mo2, b, c)


def test_lemma_counterexample_need_not_involve_top():
    product = catalog("MO2xB2")
    ok, witness = check_incompatible_lemma(product)
    assert not ok
    a, b, c = witness
    assert [product.names[i] for i in witness] == ["(a,0)", "(1,0)", "(b,0)"]
    assert b != product.top
    assert not is_compatible(product, a, c)
    assert is_compatible(product, b, c)


def test_lemma_scan_requires_orthomodularity(o6):
    with pytest.raises(NotOrthomodular):
        check_incompatible_lemma(o6)
