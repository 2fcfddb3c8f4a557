import tracemalloc
from fractions import Fraction
from functools import reduce
from pathlib import Path
from unittest import mock

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
    OrthologicError,
    ParseError,
    TooLarge,
    UnknownName,
    catalog,
    center,
    check_incompatible_lemma,
    classify,
    compatibility_relation,
    compatible_decomposition,
    compatible_via_definition,
    covers,
    direct_product,
    generated_sublattice,
    incompatibility_witness,
    is_distributive_subset,
    is_order_isomorphic,
    is_state,
    lattice_from_covers,
    lattice_from_leq,
    parse_lattice,
    projector_lattice,
    serialize_lattice,
    x_plus,
    z0,
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


# classify's one-row shortcut on orthomodular lattices, against the full scan

PASTINGS = {
    "chain2": ("abc", "cde"),
    "chain4": ("abc", "cde", "efg", "ghi"),
    "pentagon": ("abc", "cde", "efg", "ghi", "ija"),
    **{f"ring{k}": oracles.greechie_ring(k) for k in (5, 7, 64)},
}


def assert_shortcut_matches_the_full_scan(lat):
    triple = lattice_module._distributive_witness(lat.meet, lat.join)
    report = classify(lat)
    assert report.is_distributive == (triple is None)
    assert dict(report.witnesses).get("distributive") == triple


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_classify_shortcut_matches_the_full_scan_on_the_catalog(name):
    lat = catalog(name)
    assert_shortcut_matches_the_full_scan(lat)
    assert_shortcut_matches_the_full_scan(oracles.relabelled(lat, np.random.default_rng(1)))


@pytest.mark.parametrize("first", CATALOG_NAMES)
def test_classify_shortcut_matches_the_full_scan_on_products(first):
    rng = np.random.default_rng(2)
    for second in CATALOG_NAMES:
        product = direct_product(catalog(first), catalog(second))
        assert_shortcut_matches_the_full_scan(product)
        assert_shortcut_matches_the_full_scan(oracles.relabelled(product, rng))


@pytest.mark.parametrize("name", PASTINGS)
def test_classify_shortcut_matches_the_full_scan_on_pastings(name):
    pasting = oracles.greechie_pasting(PASTINGS[name])
    assert classify(pasting).is_orthomodular
    assert_shortcut_matches_the_full_scan(pasting)
    assert_shortcut_matches_the_full_scan(oracles.relabelled(pasting, np.random.default_rng(3)))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(*[st.sampled_from([1, 63, 64, 65, 130])] * 3),
    density=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    block_bytes=st.sampled_from([1, 100, 4096, lattice_module._BLOCK_BYTES]),
)
def test_packed_product_is_the_boolean_matmul(shape, density, seed, block_bytes):
    rows, inner, cols = shape
    rng = np.random.default_rng(seed)
    x, y = rng.random((rows, inner)) < density, rng.random((inner, cols)) < density
    with mock.patch.object(lattice_module, "_BLOCK_BYTES", block_bytes):
        got = lattice_module._bool_product(x, y)
    assert got.dtype == bool and np.array_equal(got, x @ y)


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


def _m256():
    """0 < a < 1 for 256 atoms a, with no orthocomplementation (n = 258)."""
    n = 258
    leq = np.eye(n, dtype=bool)
    leq[0, :] = leq[:, n - 1] = True
    return lattice_from_leq(["0", *(f"a{i}" for i in range(n - 2)), "1"], leq)


def test_covers_of_m256():
    # (0, 1) has 256 two-step paths and no cover
    wide = _m256()
    n = wide.n
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


def test_direct_product_refuses_products_above_the_cap(monkeypatch):
    assert lattice_module._MAX_ELEMENTS == 5000  # B8^4 and the 1,024-block ring
    monkeypatch.setattr(lattice_module, "_MAX_ELEMENTS", 32)
    assert direct_product(catalog("B4"), catalog("B8")).n == 32
    with pytest.raises(TooLarge, match=r"4 x 12 = 48 elements exceeds the 32-element cap"):
        direct_product(catalog("B4"), catalog("MO2xB2"))


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_lattice(B4_DOC),
        lambda: catalog("MO3"),
        lambda: direct_product(catalog("MO2"), catalog("B2")),
    ],
    ids=["parsed", "catalog", "product"],
)
def test_tables_are_read_only(build):
    lattice = build()
    for field in ("leq", "meet", "join", "ortho"):
        table = getattr(lattice, field)
        corner = (0,) * table.ndim
        with pytest.raises(ValueError, match="read-only"):
            table[corner] = table[corner]
        with pytest.raises(ValueError, match="read-only"):
            table += table
        # the table is a view of a read-only array, so its flag cannot be set back
        with pytest.raises(ValueError, match="WRITEABLE"):
            table.setflags(write=True)
        assert not table.flags.writeable


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


def _count_calls(monkeypatch, name):
    calls, original = [], getattr(lattice_module, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(lattice_module, name, counted)
    return calls


def test_only_an_order_matrix_gets_its_order_proved(monkeypatch):
    calls = _count_calls(monkeypatch, "_order_witness")
    parse_lattice(MO2_DOC)
    lattice_from_covers(["0", "m", "1"], [(0, 1), (1, 2)])
    assert calls == []  # a closure of covers is a partial order by construction
    lattice_from_leq(["0", "1"], [[True, True], [False, True]], [1, 0])
    assert calls == ["_order_witness"]


def test_an_order_reversing_ortho_map_halves_the_bound_search(monkeypatch):
    product = serialize_lattice(_cube("MO3", "B8", "B4"))
    sides = _count_calls(monkeypatch, "_glb_table")  # one table per side filled
    searched = _count_calls(monkeypatch, "_bound_witness")
    parse_lattice(product)
    assert len(sides) == 1
    parse_lattice(product.replace("ortho ", "# ortho "))
    assert len(sides) == 3
    # 0 <-> p, 1 <-> q is an involution that keeps 0 <= p: both sides filled
    with pytest.raises(BadOrtho, match="complement_meet"):
        parse_lattice(B4_DOC.replace("ortho p q\northo 0 1", "ortho 0 p\northo 1 q"))
    assert len(sides) == 5
    assert searched == []  # the packed search runs only when the certificate fails
    # M3 with a second top: the meet side fails its certificate, then one search
    with pytest.raises(NotALattice):
        lattice_from_covers(["0", "a", "b", "c", "d"], [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    assert len(sides) == 5 and searched == []  # no top: refused before any table
    with pytest.raises(NotALattice, match="lacks a unique"):
        parse_lattice(
            "elements 0 a b c d 1\ncover 0 a\ncover 0 b\ncover a c\ncover b c\n"
            "cover a d\ncover b d\ncover c 1\ncover d 1\n"
        )
    assert len(sides) == 6 and len(searched) == 1


def test_parsing_acyclic_covers_runs_no_cycle_check():
    # the 1,024-block Greechie ring, n = 4,098: its covers are acyclic, which
    # the covers themselves show, so no n x n transient of a cycle check is made
    doc = serialize_lattice(oracles.greechie_pasting(oracles.greechie_ring(1024)))
    tracemalloc.start()
    try:
        lat = parse_lattice(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lat.n == 4098
    # the two uint16 tables take 64 MiB and the order 16 MiB (81.1 MiB
    # measured); a cycle check's transients would add 16 MiB (97.2 MiB)
    assert peak < 85 * 2**20


def test_parsing_256_elements_stays_within_the_tables():
    doc = serialize_lattice(_cube("MO3", "B8", "B4"))
    parse_lattice(doc)
    tracemalloc.start()
    try:
        parse_lattice(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two uint8 tables take 128 KiB (int64 ones would take 1 MiB), so at
    # most 0.6 MiB goes to the search, the closure and every other transient
    assert peak < 0.75 * 2**20


@pytest.mark.parametrize("name", ["catalog", "products", "pastings"])
def test_lemma_reads_one_row_like_the_looped_scan(name):
    rng = np.random.default_rng(4)
    if name == "catalog":
        lattices = [catalog(n) for n in CATALOG_NAMES if n != "O6"]
    elif name == "products":
        oml = [n for n in CATALOG_NAMES if n != "O6"]
        lattices = [direct_product(catalog(a), catalog(b)) for a in oml for b in oml]
    else:
        lattices = [oracles.greechie_pasting(blocks) for blocks in PASTINGS.values()]
    for lat in lattices:
        for version in (lat, oracles.relabelled(lat, rng)):
            assert check_incompatible_lemma(version) == oracles.looped_incompatible_lemma(version)


# Inputs with two or more faults, each with the one error it reports (type,
# message, witness), recorded before the meet tables came from covers and
# before the parser stopped handing its names to the public checks.  A
# document is read line by line, then closed into an order, then its ortho
# lines, tables and declared bounds are checked; lattice_from_covers checks
# indices, self-covers, the order, the ortho pairs, the names and the tables.
_N6 = ["0", "a", "b", "c", "d", "1"]
_BOW = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]  # a, b lack a lub
_BOW_DOC = "elements 0 a b c d 1\n" + "".join(f"cover {_N6[x]} {_N6[y]}\n" for x, y in _BOW)
_CHAIN = "elements 0 a b 1\ncover 0 a\ncover a b\ncover b 1\n"
_CYCLE = [(0, 1), (1, 2), (2, 1), (2, 3)]
_CYCLE_DOC = "elements 0 a b 1\ncover 0 a\ncover a b\ncover b a\ncover b 1\n"
_NO_LUB = "pair ('a', 'b') lacks a unique greatest lower or least upper bound"
_PRECEDENCE = {
    "covers-bad-name-cycle": (
        (["0", "a b", "c", "1"], _CYCLE, ()),
        CycleError, "covers contain a cycle through 'a b' and 'c'", (1, 2),
    ),
    "covers-hash-name-cycle": (
        (["0", "a#", "c", "1"], _CYCLE, ()),
        CycleError, "covers contain a cycle through 'a#' and 'c'", (1, 2),
    ),
    "covers-duplicate-name-cycle": (
        (["0", "a", "a", "1"], _CYCLE, ()),
        CycleError, "covers contain a cycle through 'a' and 'a'", (1, 2),
    ),
    "covers-bad-name-missing-glb": (
        (["0", "a", "b", "c", "d e", "1"], _BOW, ()),
        ValueError, "bad element name 'd e'", None,
    ),
    "covers-bad-name-partial-ortho": (
        (["0", "a b", "1"], [(0, 1), (1, 2)], [(0, 2)]),
        BadOrtho, "ortho map is partial: 'a b' has no complement", None,
    ),
    "covers-self-cover-out-of-range-cover": (
        (["0", "a", "1"], [(1, 1), (0, 5)], ()),
        ValueError, "element index 5 out of range", None,
    ),
    "covers-self-cover-out-of-range-ortho": (
        (["0", "a", "1"], [(0, 1), (1, 1), (1, 2)], [(0, 9)]),
        ValueError, "element index 9 out of range", None,
    ),
    "covers-self-cover-negative-index": (
        (["0", "a", "1"], [(1, 1), (-1, 2)], ()),
        ValueError, "element index -1 out of range", None,
    ),
    "covers-self-cover-non-integer-index": (
        (["0", "a", "1"], [(1, 1), (1.5, 2)], ()),
        ValueError, "element index 1.5 is not an integer", None,
    ),
    "covers-self-cover-cycle": (
        (["0", "a", "b", "1"], [(0, 1), (1, 2), (2, 1), (2, 2)], ()),
        CycleError, "self-cover on element 'b'", None,
    ),
    "covers-partial-ortho-missing-glb": (
        (_N6, _BOW, [(0, 5), (1, 2)]),
        BadOrtho, "ortho map is partial: 'c' has no complement", None,
    ),
    "covers-two-complements-missing-glb": (
        (_N6, _BOW, [(0, 5), (1, 2), (1, 3)]),
        BadOrtho, "element 'a' is given two different complements", None,
    ),
    "covers-non-reversing-ortho-missing-glb": (
        (_N6, _BOW, [(0, 5), (1, 3), (2, 4)]), NotALattice, _NO_LUB, (1, 2),
    ),
    "covers-cycle-partial-ortho": (
        (["0", "a", "b", "1"], _CYCLE, [(0, 3)]),
        CycleError, "covers contain a cycle through 'a' and 'b'", (1, 2),
    ),
    "parse-unprintable-name-cycle": (
        "elements 0 a\x07 b 1\ncover 0 a\x07\ncover a\x07 b\ncover b a\x07\ncover b 1\n",
        ParseError, "line 1: unprintable element name 'a\\x07'", None,
    ),
    "parse-duplicate-name-cycle": (
        "elements 0 a b a 1\ncover 0 a\ncover a b\ncover b a\n",
        ParseError, "line 1: duplicate element name 'a'", None,
    ),
    "parse-self-cover-then-unknown-name": (
        _CHAIN + "cover a a\ncover 0 zz\n", CycleError, "line 5: self-cover on 'a'", None,
    ),
    "parse-unknown-name-then-self-cover": (
        _CHAIN + "cover 0 zz\ncover a a\n", ParseError, "line 5: unknown element 'zz'", None,
    ),
    "parse-two-unknown-names": (
        _CHAIN + "cover yy zz\n", ParseError, "line 5: unknown element 'yy'", None,
    ),
    "parse-cover-arity-unknown-name": (
        _CHAIN + "cover 0 a zz\n", ParseError, "line 5: 'cover' takes exactly two names", None,
    ),
    "parse-unknown-bottom-self-cover": (
        "elements 0 a 1\nbottom zz\ncover a a\n", ParseError, "line 2: unknown element 'zz'", None,
    ),
    "parse-partial-ortho-missing-glb": (
        _BOW_DOC + "ortho 0 1\northo a b\n",
        BadOrtho, "ortho map is partial: 'c' has no complement", None,
    ),
    "parse-wrong-bottom-missing-glb": (_BOW_DOC + "bottom a\n", NotALattice, _NO_LUB, (1, 2)),
    "parse-wrong-bottom-partial-ortho": (
        _CHAIN + "bottom a\northo 0 1\n",
        BadOrtho, "ortho map is partial: 'a' has no complement", None,
    ),
    "parse-wrong-bottom-wrong-top": (
        _CHAIN + "bottom a\ntop b\n",
        NotALattice, "declared bottom 'a' is not the bottom of the order", None,
    ),
    "parse-wrong-top-cycle": (
        _CYCLE_DOC + "top a\n", CycleError, "covers contain a cycle through 'a' and 'b'", (1, 2),
    ),
    "parse-wrong-bottom-cycle": (
        _CYCLE_DOC + "bottom a\n",
        CycleError, "covers contain a cycle through 'a' and 'b'", (1, 2),
    ),
    "parse-wrong-bottom-bad-ortho-law": (
        _CHAIN + "bottom a\northo 0 1\northo a b\n",
        BadOrtho, "orthocomplementation fails complement_meet at (a)", (1,),
    ),
    "parse-bottom-twice-unknown-name": (
        _CHAIN + "bottom 0\nbottom 0\ncover 0 zz\n",
        ParseError, "line 6: 'bottom' declared twice", None,
    ),
    "parse-no-elements-unknown-directive": (
        "# nothing\nfrob x\n", ParseError, "line 2: unknown directive 'frob'", None,
    ),
    "parse-missing-glb-non-reversing-ortho": (
        _BOW_DOC + "ortho 0 1\northo a c\northo b d\n", NotALattice, _NO_LUB, (1, 2),
    ),
}


@pytest.mark.parametrize("case", _PRECEDENCE)
def test_the_first_of_several_faults_is_reported(case):
    given, kind, message, witness = _PRECEDENCE[case]
    with pytest.raises(Exception) as err:
        if isinstance(given, str):
            parse_lattice(given)
        else:
            lattice_from_covers(*given)
    assert type(err.value) is kind and str(err.value) == message
    assert getattr(err.value, "witness", None) == witness


def test_the_library_avoids_bitwise_count():
    # np.bitwise_count needs numpy >= 2.0; pyproject.toml promises numpy >= 1.24
    package = Path(lattice_module.__file__).parent
    users = [path.name for path in sorted(package.glob("*.py")) if "bitwise_count" in path.read_text()]
    assert users == []
    assert 'numpy>=1.24' in (package.parents[1] / "pyproject.toml").read_text()


def test_builders_return_read_only_tables_of_the_narrowest_dtype():
    # uint8 up to n = 256, uint16 above: a table widened back to int64 fails here
    b8 = catalog("B8")
    built = [catalog(name) for name in CATALOG_NAMES]
    built += [direct_product(b8, b8), _cube("MO3", "B8", "B4"), _cube("B8", "B8", "B8")]
    built += [parse_lattice(serialize_lattice(lat)) for lat in (_cube("MO3", "B8", "B4"), _m256())]
    built += [oracles.mo_lattice(127), oracles.mo_lattice(128), _m256()]  # covers, leq
    built.append(projector_lattice([z0(), x_plus()], names=["Z0", "X+"]).lattice)
    assert {lat.n for lat in built} >= {256, 258, 512}
    for lat in built:
        for table in (lat.meet, lat.join):
            assert table.dtype == np.min_scalar_type(lat.n - 1), (lat.n, table.dtype)
            assert not table.flags.writeable


def _outcome(query, *args):
    """What ``query`` returns, or the type and message of what it raises."""
    try:
        answer = query(*args)
    except OrthologicError as exc:
        return type(exc).__name__, str(exc)
    return answer.tolist() if isinstance(answer, np.ndarray) else answer


DTYPE_BOUNDARY = {
    "MO3xB8xB4": lambda: _cube("MO3", "B8", "B4"),  # n = 256: uint8
    "MO127": lambda: oracles.mo_lattice(127),  # n = 256: uint8
    "MO128": lambda: oracles.mo_lattice(128),  # n = 258: uint16
    "M256": _m256,  # n = 258, no orthocomplementation
}


@pytest.mark.parametrize("name", DTYPE_BOUNDARY)
def test_answers_do_not_depend_on_the_table_dtype(name):
    narrow = DTYPE_BOUNDARY[name]()
    wide = oracles.widened(narrow)
    assert narrow.meet.dtype in (np.uint8, np.uint16) and wide.meet.dtype == np.int64
    rng = np.random.default_rng(5)
    pairs = [tuple(p) for p in rng.integers(narrow.n, size=(24, 2)).tolist()]
    state = oracles.height_state(narrow)  # a state on every modular lattice here
    broken = list(state)
    broken[int(rng.integers(1, narrow.n - 1))] += Fraction(1, 2)

    def answers(lat):
        found = {
            "classify": _outcome(classify, lat),
            "center": _outcome(center, lat),
            "lemma": _outcome(check_incompatible_lemma, lat),
            "relation": _outcome(compatibility_relation, lat),
            "state": _outcome(is_state, lat, state),
            "broken state": _outcome(is_state, lat, broken),
        }
        for a, b in pairs:
            found["generated", a, b] = generated_sublattice(lat, (a, b))
            found["distributive", a, b] = is_distributive_subset(lat, found["generated", a, b])
            found["decomposition", a, b] = _outcome(compatible_decomposition, lat, a, b)
            found["by definition", a, b] = _outcome(compatible_via_definition, lat, a, b)
            found["witness", a] = _outcome(incompatibility_witness, lat, a)
        return found

    got = answers(narrow)
    assert got == answers(wide)
    assert name == "M256" or got["state"] == (True, None)


@pytest.mark.parametrize("name", DTYPE_BOUNDARY)
def test_open_subsets_leak_at_the_same_pair_whatever_the_table_dtype(name):
    narrow = DTYPE_BOUNDARY[name]()
    wide = oracles.widened(narrow)
    rng = np.random.default_rng(6)
    for size in (2, 3, 5, 17, 64):
        subset = sorted(rng.choice(narrow.n, size, replace=False).tolist())
        # the first pair in row order whose meet or join leaves the subset
        a, b = next(
            (a, b)
            for a in subset
            for b in subset
            if wide.meet[a, b] not in subset or wide.join[a, b] not in subset
        )
        for lat in (narrow, wide):
            with pytest.raises(NotClosed) as caught:
                is_distributive_subset(lat, subset)
            assert caught.value.witness == (a, b)
            assert str(caught.value) == (
                f"subset is not closed at pair ({narrow.names[a]!r}, {narrow.names[b]!r})"
            )


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


def _cube(*names):
    return reduce(direct_product, map(catalog, names))


def test_classify_scans_at_most_one_distributive_row(monkeypatch):
    # on an OML: the row of the first non-central a, and in it only the b up
    # to b0, the first element incompatible with a, since (a, b0, b0') violates
    full_scan, scanned = lattice_module._distributive_witness, []

    def counted(meet, join, members=None, rows=None, stop=None):
        a_rows = meet.shape[0] if rows is None else len(rows)
        scanned.append((a_rows, meet.shape[0] if stop is None else stop))
        return full_scan(meet, join, members, rows, stop)

    monkeypatch.setattr(lattice_module, "_distributive_witness", counted)
    boolean, mixed = _cube("B8", "B8", "B8"), _cube("MO3", "B8", "B8")
    assert boolean.n == mixed.n == 512
    assert classify(boolean).all_true
    relation = oracles.identity_relation(mixed)
    a = int(np.flatnonzero(~relation.all(axis=1))[0])
    b0 = int(np.flatnonzero(~relation[a])[0])
    assert (mixed.names[a], mixed.names[b0]) == ("((a,0),0)", "((b,0),0)")
    witness = dict(classify(mixed).witnesses)["distributive"]
    assert witness[0] == a and witness[1] <= b0
    classify(catalog("O6"))  # not orthomodular: every row
    assert scanned == [(0, 512), (1, b0 + 1), (6, 6)]


def test_certifying_512_elements_stays_within_blocks():
    cube = _cube("B8", "B8", "B8")
    tracemalloc.start()
    try:
        lattice_from_leq(cube.names, cube.leq, cube.ortho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two uint16 tables take 1 MiB (int64 ones would take 4 MiB), and at
    # most 1 MiB goes to the rest; ANDing every pair of packed rows at once
    # would add 16 MiB
    assert peak < 2 * 2**20
