import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orthologic import lattice as lattice_module
from orthologic import (
    CATALOG_NAMES,
    BadOrtho,
    CycleError,
    NotALattice,
    NotClosed,
    ParseError,
    UnknownName,
    catalog,
    check_incompatible_lemma,
    classify,
    covers,
    direct_product,
    generated_sublattice,
    is_distributive_subset,
    is_order_isomorphic,
    lattice_from_covers,
    lattice_from_leq,
    parse_lattice,
    serialize_lattice,
)

B4_DOC = """
# smallest nontrivial Boolean algebra
elements 0 p q 1
bottom 0
top 1
cover 0 p
cover 0 q
cover p 1
cover q 1
ortho p q
ortho 0 1
"""

MO2_DOC = """
elements 0 a a' b b' 1
bottom 0
top 1
cover 0 a
cover 0 a'
cover 0 b
cover 0 b'
cover a 1
cover a' 1
cover b 1
cover b' 1
ortho 0 1
ortho a a'
ortho b b'
"""


def same_tables(first, second):
    return (
        first.names == second.names
        and np.array_equal(first.leq, second.leq)
        and np.array_equal(first.meet, second.meet)
        and np.array_equal(first.join, second.join)
        and first.bottom == second.bottom
        and first.top == second.top
        and (
            (first.ortho is None and second.ortho is None)
            or np.array_equal(first.ortho, second.ortho)
        )
    )


# ---------------------------------------------------------------------------
# parsing


def test_parse_b4_document():
    lat = parse_lattice(B4_DOC)
    assert lat.n == 4
    assert classify(lat).all_true
    assert is_order_isomorphic(lat, catalog("B4"), match_ortho=True)


def test_parse_cover_cycle():
    doc = "elements x y\ncover x y\ncover y x\n"
    with pytest.raises(CycleError):
        parse_lattice(doc)


def test_parse_self_cover():
    with pytest.raises(CycleError):
        parse_lattice("elements x y\ncover x x\ncover x y\n")


def test_parse_mo2_document_passes_all_oml_checks():
    report = classify(parse_lattice(MO2_DOC))
    assert report.is_lattice and report.is_bounded
    assert report.is_orthocomplemented and report.is_orthomodular
    assert not report.is_distributive


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ("elements a a\n", "line 1"),
        ("elements a b\ncover a c\n", "line 2"),
        ("elements a b\nwibble a\n", "wibble"),
        ("elements a b\ncover a\n", "exactly two"),
        ("elements a b\nbottom a\nbottom b\n", "twice"),
        ("", "no elements"),
    ],
)
def test_parse_errors_carry_line_numbers(doc, fragment):
    with pytest.raises(ParseError) as err:
        parse_lattice(doc)
    assert fragment in str(err.value)


def test_parse_partial_ortho_rejected():
    doc = "elements 0 a b 1\ncover 0 a\ncover 0 b\ncover a 1\ncover b 1\northo a b\n"
    with pytest.raises(BadOrtho):
        parse_lattice(doc)


def test_parse_conflicting_ortho_rejected():
    doc = B4_DOC + "ortho p 1\n"
    with pytest.raises(BadOrtho):
        parse_lattice(doc)


def test_parse_ortho_law_violation():
    # involution fine, but p ^ q != 0 fails the complement law: make p < q
    doc = "elements 0 p q 1\nbottom 0\ntop 1\ncover 0 p\ncover p q\ncover q 1\northo p q\northo 0 1\n"
    with pytest.raises(BadOrtho):
        parse_lattice(doc)


def test_parse_non_lattice_rejected():
    # two incomparable middles below two incomparable tops: no unique lub
    doc = (
        "elements 0 a b c d 1\n"
        "cover 0 a\ncover 0 b\n"
        "cover a c\ncover a d\ncover b c\ncover b d\n"
        "cover c 1\ncover d 1\n"
    )
    with pytest.raises(NotALattice) as err:
        parse_lattice(doc)
    assert err.value.witness == (1, 2)


def test_parse_declared_bottom_must_match():
    doc = "elements 0 a 1\nbottom a\ncover 0 a\ncover a 1\n"
    with pytest.raises(NotALattice):
        parse_lattice(doc)


# ---------------------------------------------------------------------------
# catalog and classification


def test_catalog_b8_is_distributive():
    b8 = catalog("B8")
    assert b8.n == 8
    assert classify(b8).all_true


def test_catalog_o6_fails_orthomodularity(o6):
    report = classify(o6)
    assert report.is_orthocomplemented and not report.is_orthomodular
    witness = dict(report.witnesses)["orthomodular"]
    a, b = witness
    # re-check the witness: a < b yet a v (~a ^ b) stays a
    assert o6.le(a, b) and a != b
    lifted = o6.join[a, o6.meet[o6.oc(a), b]]
    assert lifted == a != b


def test_catalog_mo2xb2_size():
    assert catalog("MO2xB2").n == 12


def test_catalog_unknown_name():
    with pytest.raises(UnknownName):
        catalog("B16")


def test_classify_matches_naive_scans(oml):
    report = classify(oml)
    assert report.is_orthomodular == (oracles.naive_orthomodular_witness(oml) is None)
    assert report.is_distributive == (oracles.naive_distributive_witness(oml) is None)


def test_classify_o6_matches_naive(o6):
    assert oracles.naive_orthomodular_witness(o6) == (1, 2)
    assert dict(classify(o6).witnesses)["orthomodular"] == (1, 2)


def test_classify_mo2_distributive_witness_is_lex_first(mo2):
    witness = dict(classify(mo2).witnesses)["distributive"]
    assert witness == (mo2.index("a"), mo2.index("a'"), mo2.index("b"))
    assert oracles.naive_distributive_witness(mo2) == witness


def test_false_flags_carry_verifiable_witnesses(o6, mo2):
    for lat in (o6, mo2, catalog("MO3")):
        report = classify(lat)
        witnesses = dict(report.witnesses)
        if not report.is_distributive:
            a, b, c = witnesses["distributive"]
            assert lat.meet[a, lat.join[b, c]] != lat.join[lat.meet[a, b], lat.meet[a, c]]
        if not report.is_orthomodular and lat.ortho is not None:
            a, b = witnesses["orthomodular"]
            assert lat.le(a, b)
            assert lat.join[a, lat.meet[lat.oc(a), b]] != b


@pytest.mark.parametrize(
    "covers, distributive, triple",
    [
        ([(0, 1), (1, 2)], True, None),  # the 3-chain 0 < m < 1
        ([(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], False, (1, 2, 3)),  # M3
    ],
    ids=["chain", "M3"],
)
def test_classify_without_ortho_map(covers, distributive, triple):
    n = 1 + max(hi for _, hi in covers)
    lat = lattice_from_covers([f"e{i}" for i in range(n)], covers)
    report = classify(lat)
    flags = (
        report.is_lattice,
        report.is_bounded,
        report.is_orthocomplemented,
        report.is_orthomodular,
        report.is_distributive,
    )
    assert flags == (True, True, False, False, distributive)
    expected = [("orthocomplemented", ()), ("orthomodular", ())]
    if triple is not None:
        expected.append(("distributive", triple))
    assert report.witnesses == tuple(expected)


def test_meet_join_tables_match_naive(oml):
    for a in range(oml.n):
        for b in range(oml.n):
            assert oml.meet[a, b] == oracles.naive_meet(oml, a, b)
            assert oml.join[a, b] == oracles.naive_join(oml, a, b)


@pytest.mark.parametrize("name", ["B2", "B4", "B8", "MO2", "MO3", "O6", "MO2xB2"])
def test_lattice_algebra_axioms(name):
    lat = catalog(name)
    meet, join = lat.meet, lat.join
    ar = np.arange(lat.n)
    assert np.array_equal(meet, meet.T) and np.array_equal(join, join.T)
    assert np.array_equal(meet[ar, ar], ar) and np.array_equal(join[ar, ar], ar)
    # absorption: a ^ (a v b) == a == a v (a ^ b)
    assert np.array_equal(meet[ar[:, None], join], ar[:, None] * np.ones_like(join))
    assert np.array_equal(join[ar[:, None], meet], ar[:, None] * np.ones_like(meet))
    # associativity over all triples
    left = meet[meet[:, :, None], ar[None, None, :]]
    right = meet[ar[:, None, None], meet[None, :, :]]
    assert np.array_equal(left, right)
    left = join[join[:, :, None], ar[None, None, :]]
    right = join[ar[:, None, None], join[None, :, :]]
    assert np.array_equal(left, right)


@pytest.mark.parametrize("name", ["B2", "B4", "B8", "MO2", "MO3", "O6", "MO2xB2"])
def test_ortho_is_order_reversing(name):
    lat = catalog(name)
    for a in range(lat.n):
        for b in range(lat.n):
            if lat.le(a, b):
                assert lat.le(lat.oc(b), lat.oc(a))


# ---------------------------------------------------------------------------
# generated sublattices


def test_generated_sublattice_complement_pair(mo2):
    a = mo2.index("a")
    block = generated_sublattice(mo2, {a, mo2.oc(a)})
    assert block == (0, 1, 2, 5)  # 0, a, a', 1


def test_generated_sublattice_two_blocks_is_everything(mo2):
    assert generated_sublattice(mo2, {mo2.index("a"), mo2.index("b")}) == tuple(range(6))


def test_generated_sublattice_atom_of_b8(b8):
    p = b8.index("p")
    assert set(generated_sublattice(b8, {p})) == {b8.bottom, p, b8.oc(p), b8.top}


def test_generated_sublattice_matches_naive(oml):
    seeds = [{1}, {1, 2}, {oml.n - 1}, set(range(min(3, oml.n)))]
    for seed in seeds:
        seed = {s % oml.n for s in seed}
        assert set(generated_sublattice(oml, seed)) == oracles.naive_closure(oml, seed)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generated_sublattice_idempotent_and_monotone(data):
    lat = catalog(data.draw(st.sampled_from(["B8", "MO2", "MO3", "MO2xB2"])))
    small = data.draw(st.sets(st.integers(0, lat.n - 1), min_size=1, max_size=3))
    extra = data.draw(st.sets(st.integers(0, lat.n - 1), min_size=0, max_size=2))
    closed = generated_sublattice(lat, small)
    assert set(small) <= set(closed)
    assert generated_sublattice(lat, closed) == closed
    larger = generated_sublattice(lat, small | extra)
    assert set(closed) <= set(larger)


def test_is_distributive_subset_block(mo2):
    block = generated_sublattice(mo2, {mo2.index("a"), mo2.oc(mo2.index("a"))})
    assert is_distributive_subset(mo2, block) == (True, None)


def test_is_distributive_subset_all_of_mo2(mo2):
    ok, witness = is_distributive_subset(mo2, range(6))
    assert not ok
    assert witness == (mo2.index("a"), mo2.index("a'"), mo2.index("b"))


def test_is_distributive_subset_b4():
    b4 = catalog("B4")
    assert is_distributive_subset(b4, range(4)) == (True, None)


def test_is_distributive_subset_rejects_open_sets(mo2):
    with pytest.raises(NotClosed):
        is_distributive_subset(mo2, {mo2.index("a"), mo2.index("b")})


@pytest.mark.parametrize("bad", [-1, 8])
def test_subset_scans_reject_out_of_range_indices(b8, bad):
    # -1 must not wrap to the top, and n must not surface as a bare IndexError
    for scan in (is_distributive_subset, generated_sublattice):
        with pytest.raises(ValueError, match=f"element index {bad} out of range"):
            scan(b8, [bad, 0])


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("name", ["B2", "B4", "B8", "MO2", "MO3", "O6", "MO2xB2"])
def test_serialize_roundtrip_is_exact(name):
    lat = catalog(name)
    again = parse_lattice(serialize_lattice(lat))
    assert_same = np.array_equal
    assert lat.names == again.names
    assert assert_same(lat.leq, again.leq)
    assert assert_same(lat.meet, again.meet)
    assert assert_same(lat.join, again.join)
    assert assert_same(lat.ortho, again.ortho)
    assert (lat.bottom, lat.top) == (again.bottom, again.top)


def test_serialize_mo2_cover_layers(mo2):
    pairs = covers(mo2)
    from_bottom = [p for p in pairs if p[0] == mo2.bottom]
    to_top = [p for p in pairs if p[1] == mo2.top]
    assert len(from_bottom) == 4 and len(to_top) == 4
    assert len(pairs) == 8


def test_covers_of_m256():
    # 0 < a < 1 for 256 atoms a: (0, 1) has 256 two-step paths and no cover
    n = 258
    leq = np.eye(n, dtype=bool)
    leq[0, :] = leq[:, n - 1] = True
    wide = lattice_from_leq(["0", *(f"a{i}" for i in range(n - 2)), "1"], leq)
    pairs = covers(wide)
    assert (0, n - 1) not in pairs
    assert len(pairs) == 2 * (n - 2)


def test_serialize_product_reparses_to_b4():
    b2 = catalog("B2")
    doc = serialize_lattice(direct_product(b2, b2))
    assert is_order_isomorphic(parse_lattice(doc), catalog("B4"), match_ortho=True)


# ---------------------------------------------------------------------------
# products and isomorphism


def test_direct_product_b2_b2_is_b4():
    product = direct_product(catalog("B2"), catalog("B2"))
    assert product.n == 4
    assert is_order_isomorphic(product, catalog("B4"), match_ortho=True)


def test_direct_product_mo2_b2():
    product = direct_product(catalog("MO2"), catalog("B2"))
    report = classify(product)
    assert product.n == 12
    assert report.is_orthomodular and not report.is_distributive


def test_direct_product_index_layout():
    product = direct_product(catalog("MO2"), catalog("B2"))
    assert product.names[0] == "(0,0)"
    assert product.names[1] == "(0,1)"
    assert product.names.index("(a,0)") == 2  # row-major on (first, second)


def test_direct_product_requires_ortho():
    plain = lattice_from_leq(["0", "1"], [[True, True], [False, True]])
    with pytest.raises(BadOrtho):
        direct_product(plain, catalog("B2"))


def _boolean_square(left, right):
    return lattice_from_covers(
        ["0", left, right, "1"], [(0, 1), (0, 2), (1, 3), (2, 3)], [(0, 3), (1, 2)]
    )


def test_direct_product_rejects_colliding_names():
    # ("a,b", "c") and ("a", "b,c") both print as (a,b,c)
    with pytest.raises(ValueError, match=r"duplicate element name '\(a,b,c\)'"):
        direct_product(_boolean_square("a", "a,b"), _boolean_square("c", "b,c"))


def same_product(got, want):
    assert got.names == want.names
    for field in ("leq", "meet", "join", "ortho"):
        mine, theirs = getattr(got, field), getattr(want, field)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), field
    assert (got.bottom, got.top) == (want.bottom, want.top)
    assert type(got.bottom) is type(got.top) is int


@pytest.mark.parametrize("first", CATALOG_NAMES)
def test_direct_product_matches_the_checked_rebuild(first):
    for second in CATALOG_NAMES:
        left, right = catalog(first), catalog(second)
        same_product(direct_product(left, right), oracles.rebuilt_product(left, right))


def test_product_of_products_matches_the_checked_rebuild():
    left = direct_product(catalog("MO3"), catalog("B2"))
    right = direct_product(catalog("B4"), catalog("B4"))
    got = direct_product(left, right)
    assert got.n == 256
    same_product(got, oracles.rebuilt_product(left, right))


def test_classify_and_product_rely_on_the_builders_certificate(monkeypatch):
    factors, o6 = (catalog("MO2"), catalog("B4")), catalog("O6")
    helpers = ("_order_witness", "_find_bounds", "_meet_join_tables", "_ortho_witness")
    calls = []
    for helper in helpers:
        original = getattr(lattice_module, helper)

        def counted(*args, _name=helper, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(lattice_module, helper, counted)
    classify(direct_product(*factors))
    classify(o6)
    assert calls == []
    catalog("B2")  # the builder itself certifies, once per helper
    assert sorted(calls) == sorted(helpers)


def test_order_isomorphism_negative_cases():
    assert not is_order_isomorphic(catalog("MO2"), catalog("O6"))
    assert not is_order_isomorphic(catalog("B8"), catalog("MO3"))  # same size


def test_lattice_from_leq_validates_order():
    bad = np.array([[True, True], [True, True]])  # antisymmetry fails
    with pytest.raises(NotALattice):
        lattice_from_leq(["x", "y"], bad)


def test_lattice_from_leq_counts_no_paths():
    # 2 < m < 3 for 256 middles m, yet not 2 <= 3: a path count kept in
    # uint8 wraps to 0 there and would hide the broken transitivity
    n = 260
    leq = np.eye(n, dtype=bool)
    leq[0, :] = leq[:, 1] = True
    leq[2, 4:] = leq[4:, 3] = True
    with pytest.raises(NotALattice) as err:
        lattice_from_leq([f"e{i}" for i in range(n)], leq)
    assert err.value.witness == (2, 3)


def test_serialize_roundtrip_without_ortho():
    chain = lattice_from_leq(
        ["0", "m", "1"],
        [[True, True, True], [False, True, True], [False, False, True]],
    )
    again = parse_lattice(serialize_lattice(chain))
    assert again.names == chain.names
    assert again.ortho is None
    assert np.array_equal(again.leq, chain.leq)


def test_lattice_tables_are_frozen(mo2):
    with pytest.raises(ValueError):
        mo2.leq[0, 0] = False
    with pytest.raises(ValueError):
        mo2.meet[0, 0] = 1


def test_sixty_four_element_lattice_stays_fast():
    big = direct_product(catalog("B8"), catalog("B8"))
    assert big.n == 64
    report = classify(big)
    assert report.all_true  # a product of Boolean cubes is Boolean
    again = parse_lattice(serialize_lattice(big))
    assert again.names == big.names
    assert np.array_equal(again.leq, big.leq)


def test_scans_of_256_elements_stay_quadratic_in_memory():
    big = direct_product(direct_product(catalog("MO3"), catalog("B8")), catalog("B4"))
    assert big.n == 256
    tracemalloc.start()
    try:
        classify(big)
        check_incompatible_lemma(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # an n^3 scan needs hundreds of MB here
