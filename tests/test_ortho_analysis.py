import contextlib
import itertools
import re

import numpy as np
import pytest

import oracles
from orthologic import analysis as analysis_module
from orthologic import lattice as lattice_module
from orthologic import (
    CATALOG_NAMES,
    NotOrthomodular,
    catalog,
    center,
    check_incompatible_lemma,
    classify,
    compatibility_relation,
    compatible_decomposition,
    compatible_via_definition,
    direct_product,
    generated_sublattice,
    incompatibility_witness,
    infer_complement,
    is_compatible,
    is_distributive_subset,
    is_irreducible,
    isolated_check,
    lattice_from_covers,
    maximally_mixed,
    parse_lattice,
    qubit_zx_lattice,
    require_orthomodular,
    sequence_probability,
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


def _non_integer_index_calls():
    mo2, zx = catalog("MO2"), qubit_zx_lattice()
    rho = maximally_mixed(zx.dim)
    calls = {
        "generated_sublattice": (1.9, lambda: generated_sublattice(mo2, [1.9])),
        "is_distributive_subset": (0.2, lambda: is_distributive_subset(mo2, [0.2, 1.1, 2.7, 5.5])),
        "is_compatible": (1.5, lambda: is_compatible(mo2, 1.5, 2)),
        "compatible_decomposition": (1.5, lambda: compatible_decomposition(mo2, 1, 1.5)),
        "compatible_via_definition": ("1", lambda: compatible_via_definition(mo2, "1", 2)),
        "incompatibility_witness": (2.5, lambda: incompatibility_witness(mo2, 2.5)),
        "sequence_probability": (1.7, lambda: sequence_probability(zx, rho, [(1.7, True)])),
        "isolated_check": (np.float64(1.0), lambda: isolated_check(zx, rho, 1, np.float64(1.0))),
        "infer_complement": (1.5, lambda: infer_complement(zx, 1.5)),
    }
    return [pytest.param(value, call, id=name) for name, (value, call) in calls.items()]


@pytest.mark.parametrize("value, call", _non_integer_index_calls())
def test_non_integer_indices_are_refused_not_truncated(value, call):
    message = f"element index {re.escape(repr(value))} is not an integer"
    with pytest.raises(ValueError, match=message):
        call()


def test_integer_like_indices_are_accepted(mo2):
    a, b = mo2.index("a"), mo2.index("b")
    assert not is_compatible(mo2, np.int64(a), np.array(b))
    assert generated_sublattice(mo2, [np.uint8(a), True]) == generated_sublattice(mo2, [a, 1])


# ---------------------------------------------------------------------------
# orthomodularity read off the compatibility relation


def _relation_witness(lat):
    """The witness ``compatibility_relation`` raises with, or None."""
    try:
        compatibility_relation(lat)
    except NotOrthomodular as err:
        return err.witness
    return None


def assert_witnesses_match_the_references(lat, naive=True):
    expected = oracles.chained_orthomodular_witness(lat)
    if naive:
        assert oracles.naive_orthomodular_witness(lat) == expected
    assert dict(classify(lat).witnesses).get("orthomodular") == expected
    assert _relation_witness(lat) == expected


def test_dual_law_can_fail_before_the_law():
    lat = parse_lattice(oracles.DUAL_FIRST_DOCUMENT)
    meet, join, oc = lat.meet, lat.join, lat.oc
    law_breaks = [
        (a, b) for a, b in zip(*np.nonzero(lat.leq)) if join[a, meet[oc(a), b]] != b
    ]
    first = (lat.index("e1"), lat.index("e0"))
    assert law_breaks[0] == (lat.index("e1"), lat.index("e2"))
    assert first not in law_breaks
    assert meet[first[1], join[oc(first[1]), first[0]]] != first[0]
    assert_witnesses_match_the_references(lat)
    with pytest.raises(NotOrthomodular, match=r"at \('e1', 'e0'\)") as err:
        require_orthomodular(lat)
    assert err.value.witness == first


def test_orthomodular_witnesses_on_catalog_products_and_relabellings():
    rng = np.random.default_rng(15)
    for first in CATALOG_NAMES:
        assert_witnesses_match_the_references(catalog(first))
        for second in CATALOG_NAMES:
            lat = direct_product(catalog(first), catalog(second))
            assert_witnesses_match_the_references(lat, naive=lat.n <= 64)
            assert_witnesses_match_the_references(oracles.relabelled(lat, rng), naive=False)


RELATION_QUERIES = {
    "compatibility_relation": compatibility_relation,
    "is_compatible": lambda lat: is_compatible(lat, 1, 2),
    "compatible_decomposition": lambda lat: compatible_decomposition(lat, 1, 2),
}
STRUCTURAL_QUERIES = {
    "classify": classify,
    "require_orthomodular": require_orthomodular,
    "center": center,
    "check_incompatible_lemma": check_incompatible_lemma,
}
COUNTED_LATTICES = {
    "MO2xB2": lambda: catalog("MO2xB2"),
    "O6": lambda: catalog("O6"),
    "MO3xB8xB4": lambda: direct_product(direct_product(catalog("MO3"), catalog("B8")), catalog("B4")),
}


def identity_cells(monkeypatch, query, lat):
    """The number of pairs each evaluation of the identity covers while ``query`` runs."""
    kernel, cells = lattice_module._identity_holds, []

    def counted(lattice, *args):
        holds = kernel(lattice, *args)
        cells.append(np.size(holds))
        return holds

    for module in (lattice_module, analysis_module):
        monkeypatch.setattr(module, "_identity_holds", counted)
    with contextlib.suppress(NotOrthomodular):
        query(lat)
    return cells


@pytest.mark.parametrize("lattice_name", COUNTED_LATTICES)
@pytest.mark.parametrize("query", RELATION_QUERIES)
def test_relation_queries_fill_n2_once(monkeypatch, query, lattice_name):
    # an OML gets the verdict, read off its comparable pairs, and then one
    # evaluation over all n x n pairs; O6 is refused before that one
    lat = COUNTED_LATTICES[lattice_name]()
    cells = identity_cells(monkeypatch, RELATION_QUERIES[query], lat)
    built = 0 if lattice_name == "O6" else 1
    assert cells.count(lat.n**2) == built
    assert sum(cells) - built * lat.n**2 < lat.n**2


@pytest.mark.parametrize("lattice_name", COUNTED_LATTICES)
@pytest.mark.parametrize("query", STRUCTURAL_QUERIES)
def test_structural_queries_skip_n2(monkeypatch, query, lattice_name):
    # no evaluation covers all n x n pairs; at n=256 the comparable pairs,
    # the atom columns and one column of the relation or the lemma's columns
    # add up to fewer pairs than the relation has
    lat = COUNTED_LATTICES[lattice_name]()
    cells = identity_cells(monkeypatch, STRUCTURAL_QUERIES[query], lat)
    assert cells and max(cells) < lat.n**2
    if lattice_name == "MO3xB8xB4":
        assert sum(cells) < lat.n**2


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
