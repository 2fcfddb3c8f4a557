"""Cross-module property tests on randomly assembled inputs."""

import itertools
from functools import reduce
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from orthologic import lattice as lattice_module
from orthologic import (
    CATALOG_NAMES,
    BadOrtho,
    CycleError,
    NotALattice,
    NotOrthomodular,
    OrthologicError,
    catalog,
    center,
    check_incompatible_lemma,
    classify,
    compatibility_relation,
    compatible_decomposition,
    compatible_via_definition,
    direct_product,
    enumerate_dispersion_free,
    generated_sublattice,
    is_compatible,
    is_distributive_subset,
    lattice_from_covers,
    lattice_from_leq,
    parse_lattice,
    require_orthomodular,
    serialize_lattice,
)

SMALL_OMLS = ("B2", "B4", "MO2", "B8", "MO3")


@settings(max_examples=12, deadline=None)
@given(
    first=st.sampled_from(SMALL_OMLS),
    second=st.sampled_from(("B2", "B4", "MO2")),
)
def test_random_products_keep_route_equivalence(first, second):
    lat = direct_product(catalog(first), catalog(second))
    relation = compatibility_relation(lat)
    assert np.array_equal(relation, relation.T)
    rng = np.random.default_rng(hash((first, second)) % 2**32)
    for _ in range(8):
        a, b = int(rng.integers(0, lat.n)), int(rng.integers(0, lat.n))
        by_identity = is_compatible(lat, a, b)
        assert by_identity == compatible_via_definition(lat, a, b)
        assert by_identity == (compatible_decomposition(lat, a, b) is not None)


@settings(max_examples=15, deadline=None)
@given(
    first=st.sampled_from(SMALL_OMLS),
    second=st.sampled_from(("B2", "B4", "MO2")),
)
def test_product_center_contains_both_factor_images(first, second):
    lat1, lat2 = catalog(first), catalog(second)
    product = direct_product(lat1, lat2)
    members = set(center(product).members)
    n2 = lat2.n
    assert lat1.top * n2 + lat2.bottom in members  # the (1, 0) image
    assert lat1.bottom * n2 + lat2.top in members  # the (0, 1) image
    # componentwise: the product center is the product of the centers
    expected = {
        c1 * n2 + c2
        for c1 in center(lat1).members
        for c2 in center(lat2).members
    }
    assert members == expected


@settings(max_examples=20, deadline=None)
@given(
    first=st.sampled_from(("B4", "MO2")),
    second=st.sampled_from(("B2", "B4", "MO2")),
)
def test_products_roundtrip_through_documents(first, second):
    product = direct_product(catalog(first), catalog(second))
    again = parse_lattice(serialize_lattice(product))
    assert again.names == product.names
    assert np.array_equal(again.leq, product.leq)
    assert np.array_equal(again.ortho, product.ortho)


@pytest.mark.parametrize(
    "first, second", [("B2", "B2"), ("B4", "B2"), ("MO2", "B2"), ("B4", "B4")]
)
def test_product_states_agree_with_brute_force(first, second):
    lat = direct_product(catalog(first), catalog(second))
    report = enumerate_dispersion_free(lat)
    got = [tuple(int(v) for v in s.values) for s in report.states]
    assert got == oracles.brute_force_dispersion_free(
        lat, compat=compatibility_relation(lat)
    )


# ---------------------------------------------------------------------------
# random bounded posets: lattice tables, non-lattice witnesses, blocks


@st.composite
def bounded_posets(draw):
    """Order matrix of a random DAG between a bottom and a top, indices shuffled."""
    k = draw(st.integers(0, 12))
    edges = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    n = k + 2
    leq = np.eye(n, dtype=bool)
    leq[0, :] = leq[:, n - 1] = True
    leq[1 : k + 1, 1 : k + 1] |= np.triu(np.reshape(edges, (k, k)).astype(bool), 1)
    for m in range(n):
        leq |= leq[:, m, None] & leq[m, None, :]
    perm = draw(st.permutations(range(n)))
    return leq[np.ix_(perm, perm)]


def _unbounded_pairs(leq):
    """Naive meet and join tables and every pair (a, b >= a) lacking a bound."""
    n = leq.shape[0]
    poset = SimpleNamespace(leq=leq, n=n)
    meets = [[oracles.naive_meet(poset, a, b) for b in range(n)] for a in range(n)]
    joins = [[oracles.naive_join(poset, a, b) for b in range(n)] for a in range(n)]
    unbounded = [
        (a, b)
        for a in range(n)
        for b in range(a, n)
        if meets[a][b] is None or joins[a][b] is None
    ]
    return meets, joins, unbounded


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    broken=st.sampled_from(["nothing", "diagonal", "symmetry"]),
    data=st.data(),
)
def test_order_matrix_axioms_match_the_naive_check(n, broken, data):
    # a random relation upward along a random ranking, so each axiom in turn
    # can be the first to fail: a missing diagonal entry, a symmetric pair,
    # or a chain of two relations whose ends are not related
    rank = data.draw(st.permutations(range(n)))
    leq = np.eye(n, dtype=bool)
    for a, b in data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2), max_size=3 * n)):
        leq[(a, b) if rank[a] < rank[b] else (b, a)] = True
    if broken == "diagonal":
        leq[np.diag_indices(n)] = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if broken == "symmetry" and n > 1:
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        leq[a, b] = leq[b, a] = True
    expected = oracles.naive_order_failure(leq.tolist())
    try:
        lattice_from_leq([f"e{i}" for i in range(n)], leq)
    except NotALattice as err:
        if expected is not None:
            assert str(err) == f"order is not {expected[0]} at {expected[1]}"
            assert err.witness == expected[1]
            return
        assert not str(err).startswith("order is not")
    assert expected is None


@settings(max_examples=120, deadline=None)
@given(leq=bounded_posets(), data=st.data())
def test_random_posets_match_naive_bounds(leq, data):
    n = leq.shape[0]
    meets, joins, unbounded = _unbounded_pairs(leq)
    try:
        lat = lattice_from_leq([f"e{i}" for i in range(n)], leq)
    except NotALattice as err:
        assert unbounded and err.witness == unbounded[0]
        return
    assert not unbounded
    assert lat.meet.tolist() == meets and lat.join.tolist() == joins
    seeds = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=3))
    for seed in seeds:
        block = generated_sublattice(lat, seed)
        assert set(block) == oracles.naive_closure(lat, seed)
        triple = oracles.naive_distributive_witness(lat, block)
        assert is_distributive_subset(lat, block) == (triple is None, triple)


@st.composite
def self_dual_posets(draw):
    """A random bounded poset and an order-reversing involution of it, indices shuffled.

    Element pairs (x, x') sit at ranks r and R + 1 - r, and a few fixed
    points at the middle rank.  Every drawn cover (x, y) between ranks
    comes with its mirror image (y', x'), so the closure is self-dual.
    """
    pairs, fixed, top_rank = draw(st.integers(0, 6)), draw(st.integers(0, 2)), draw(st.integers(1, 4))
    ranks = [draw(st.integers(1, top_rank)) for _ in range(pairs)]
    ranks += [top_rank + 1 - r for r in ranks] + [(top_rank + 1) / 2] * fixed
    n = len(ranks) + 2  # bottom and top come last
    mirror = [*range(pairs, 2 * pairs), *range(pairs), *range(2 * pairs, n - 2), n - 1, n - 2]
    ranks += [0, top_rank + 1]
    candidates = [(x, y) for x in range(n) for y in range(n) if ranks[x] < ranks[y]]
    drawn = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    covers = [pair for pair, keep in zip(candidates, drawn) if keep]
    covers += [(mirror[y], mirror[x]) for x, y in covers]
    covers += [(n - 2, x) for x in range(n - 2)] + [(x, n - 1) for x in range(n - 1)]
    leq = oracles.warshall_closure(n, covers)
    perm = np.array(draw(st.permutations(range(n))))
    return leq[np.ix_(perm, perm)], np.argsort(perm)[np.array(mirror)[perm]]


@settings(max_examples=150, deadline=None)
@given(poset=self_dual_posets())
def test_self_dual_posets_match_naive_bounds(poset):
    leq, mirror = poset
    assert lattice_module._reversal_witness(leq, mirror) is None
    meets, joins, unbounded = _unbounded_pairs(leq)
    first = unbounded[0] if unbounded else None
    covers = lattice_module._cover_pairs(leq)
    meet, join, pair = lattice_module._meet_join_tables(leq, mirror, covers)
    assert pair == first
    if first is None:
        assert meet.tolist() == meets and join.tolist() == joins
    # the builder takes the ortho map as its mirror; an order-reversing
    # involution with fixed points is no orthocomplementation
    try:
        lat = lattice_from_leq([f"e{i}" for i in range(leq.shape[0])], leq, mirror)
    except NotALattice as err:
        assert err.witness == first
    except BadOrtho:
        assert first is None
    else:
        assert first is None and lat.join.tolist() == joins


@settings(max_examples=120, deadline=None)
@given(
    poset=st.one_of(bounded_posets().map(lambda leq: (leq, None)), self_dual_posets()),
    data=st.data(),
)
def test_redundant_generating_pairs_give_the_naive_tables(poset, data):
    # the covers, plus comparable pairs that are not covers, plus repeats,
    # in any order: the tables and the witness do not change
    leq, mirror = poset
    n = leq.shape[0]
    meets, joins, unbounded = _unbounded_pairs(leq)
    lo, hi = lattice_module._cover_pairs(leq)
    comparable = np.argwhere(leq & ~np.eye(n, dtype=bool)).tolist()
    pairs = [*zip(lo.tolist(), hi.tolist())]
    pairs += data.draw(st.lists(st.sampled_from(comparable), max_size=2 * n))
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=n))
    pairs = data.draw(st.permutations(pairs))
    generating = tuple(np.array([p[k] for p in pairs], dtype=np.int64) for k in (0, 1))
    meet, join, pair = lattice_module._meet_join_tables(leq, mirror, generating)
    assert pair == (unbounded[0] if unbounded else None)
    if not unbounded:
        assert meet.tolist() == meets and join.tolist() == joins
    try:
        lat = lattice_from_covers([f"e{i}" for i in range(n)], pairs)
    except NotALattice as err:
        assert err.witness == unbounded[0]
    else:
        assert not unbounded and lat.meet.tolist() == meets and lat.join.tolist() == joins


@settings(max_examples=150, deadline=None)
@given(leq=bounded_posets())
def test_the_meet_certificate_fails_exactly_on_non_lattices(leq):
    # the table is the glb wherever one exists, lattice or not; only the
    # certificate tells whether every pair has one
    meets, _, unbounded = _unbounded_pairs(leq)
    lo, hi = lattice_module._cover_pairs(leq)
    meet = lattice_module._glb_table(leq, lo, hi)
    for a, row in enumerate(meets):
        for b, glb in enumerate(row):
            assert glb is None or meet[a, b] == glb
    certified = lattice_module._glb_certified(leq, meet, lo, hi)
    assert certified == (not unbounded)
    if not certified:
        assert lattice_module._bound_witness(leq) == unbounded[0]


@settings(max_examples=100, deadline=None)
@given(
    leq=st.one_of(bounded_posets(), self_dual_posets().map(lambda poset: poset[0])),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairs_come_in_the_order_of_nonzero(leq, seed):
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    covers = strict & ~(strict.astype(np.int64) @ strict.astype(np.int64) > 0)
    # besides the covers of an order, a random matrix of up to 139 rows
    gen = np.random.default_rng(seed)
    noise = gen.random((int(gen.integers(0, 140)),) * 2) < 0.3
    cases = ((lattice_module._cover_pairs(leq), covers), (lattice_module._true_pairs(noise), noise))
    for got, matrix in cases:
        expected = np.nonzero(matrix)
        assert [x.dtype for x in got] == [x.dtype for x in expected]
        assert [x.tolist() for x in got] == [x.tolist() for x in expected]


@given(rows=st.integers(0, 300), cols=st.integers(0, 300), words=st.integers(1, 300))
def test_tiles_cover_each_cell_once_within_the_cap(rows, cols, words):
    seen = np.zeros((rows, cols), dtype=np.int64)
    for block, span in lattice_module._tiles(rows, cols, words):
        seen[block, span] += 1
        cells = (block.stop - block.start) * (span.stop - span.start)
        # only a single cell wider than the cap on its own goes over it
        assert cells * words * 8 <= lattice_module._BLOCK_BYTES or cells == 1
    assert (seen == 1).all()


_NAME_CHARS = st.sampled_from(
    ["a", "0", "(", ",", "é", " ", "\t", "\n", "#", "\x00", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
)


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(
        st.one_of(st.text(_NAME_CHARS, max_size=3), st.text(max_size=3)), max_size=6
    )
)
def test_name_check_matches_the_looped_predicate(names):
    def outcome(check):
        try:
            check(tuple(names))
        except ValueError as err:
            return str(err)
        return None

    assert outcome(lattice_module._check_names) == outcome(oracles.looped_check_names)


@settings(max_examples=300, deadline=None)
@given(poset=self_dual_posets())
def test_orthomodular_witness_matches_the_union_oracle(poset):
    # the law and its dual may first fail at different pairs; the witness is
    # the first pair at which either fails
    leq, mirror = poset
    try:
        lat = lattice_from_leq([f"e{i}" for i in range(leq.shape[0])], leq, mirror)
    except (NotALattice, BadOrtho):
        return
    expected = oracles.naive_orthomodular_witness(lat)
    assert oracles.chained_orthomodular_witness(lat) == expected
    assert dict(classify(lat).witnesses).get("orthomodular") == expected
    try:
        compatibility_relation(lat)
    except NotOrthomodular as err:
        assert err.witness == expected
    else:
        assert expected is None


# a bow tie, 4 and 5 below both 6 and 7, after a chain 1 < 2 < 3: the first
# pair lacking a bound, (4, 5), lies past the first block of rows
_LATE_BOW_TIE = oracles.warshall_closure(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 9), (0, 4), (0, 5), (0, 8), (8, 9)]
    + [(4, 6), (4, 7), (5, 6), (5, 7), (6, 9), (7, 9)],
)


@settings(max_examples=80, deadline=None)
@given(
    poset=st.one_of(bounded_posets().map(lambda leq: (leq, None)), self_dual_posets()),
)
@example(poset=(_LATE_BOW_TIE, None))
def test_blocked_tables_do_not_depend_on_the_block_size(poset):
    leq, mirror = poset
    covers = lattice_module._cover_pairs(leq)
    meet, join, pair = lattice_module._meet_join_tables(leq, mirror, covers)
    # a uint8 rank row takes n bytes, a uint64 row 8n: at one byte per
    # column the table fills block_rows pairs at a time, so a target's pairs
    # split across chunks; at eight, the certificate, the mirror and the
    # packed search take blocks of block_rows rows
    for row_bytes, block_rows in itertools.product((1, 8), (1, 2, 3, 4)):
        cap = block_rows * row_bytes * leq.shape[0]
        with mock.patch.object(lattice_module, "_BLOCK_BYTES", cap):
            blocked = lattice_module._meet_join_tables(leq, mirror, covers)
        assert blocked[2] == pair
        if pair is None:
            assert np.array_equal(blocked[0], meet) and np.array_equal(blocked[1], join)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 70),
    shape=st.sampled_from(["acyclic", "random", "ring"]),
    data=st.data(),
)
def test_closure_of_covers_matches_warshall(n, shape, data):
    index = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=3 * n))
    rank = data.draw(st.permutations(range(n)))
    if shape == "acyclic":  # orient each pair upward along a random ranking
        pairs = [(x, y) if rank[x] < rank[y] else (y, x) for x, y in pairs if x != y]
    elif shape == "ring":  # one directed cycle in a random order, and some pairs
        ring = rank[: data.draw(st.integers(2, max(2, n)))]
        pairs = [(x, y) for x, y in pairs if x != y]
        pairs += list(zip(ring, ring[1:] + ring[:1])) if n > 1 else []
    got = lattice_module._closure_of_covers(n, pairs)
    want = oracles.warshall_closure(n, pairs)
    assert got.dtype == bool and got.shape == (n, n) and np.array_equal(got, want)
    if any(x == y for x, y in pairs):
        return
    cycles = np.argwhere(want & want.T & ~np.eye(n, dtype=bool)).tolist()
    witness = None
    try:
        lattice_from_covers([f"e{i}" for i in range(n)], pairs)
    except CycleError as err:
        witness = err.witness
    except NotALattice:
        pass
    assert witness == (tuple(cycles[0]) if cycles else None)


# ---------------------------------------------------------------------------
# Greechie rings: a non-product family with answers in closed form


@settings(max_examples=25, deadline=None)
@given(k=st.integers(5, 40), seed=st.integers(0, 2**32 - 1))
def test_greechie_rings_have_closed_form_answers(k, seed):
    blocks = oracles.greechie_ring(k)
    ring = oracles.greechie_pasting(blocks)
    lat = oracles.relabelled(ring, np.random.default_rng(seed))
    assert lat.n == 4 * k + 2
    bounds = tuple(sorted((lat.bottom, lat.top)))
    assert center(lat).members == bounds
    relation = compatibility_relation(lat)
    atoms = dict.fromkeys(x for block in blocks for x in block)
    for x, y in itertools.product(atoms, repeat=2):
        shared = any(x in block and y in block for block in blocks)
        assert relation[lat.index(x), lat.index(y)] == shared, (x, y)
    witness = dict(classify(lat).witnesses)["distributive"]
    assert witness[0] == min(set(range(lat.n)) - set(bounds))
    assert witness == lattice_module._distributive_witness(lat.meet, lat.join)


# ---------------------------------------------------------------------------
# the structural queries against the whole compatibility relation


def assert_queries_match_the_relation(lat):
    """Verdict, center, lemma and distributive witness as the n x n relation gives them."""
    expected = oracles.chained_orthomodular_witness(lat)
    assert dict(classify(lat).witnesses).get("orthomodular") == expected
    if expected is not None:
        a, b = expected
        message = f"lattice is not orthomodular at ({lat.names[a]!r}, {lat.names[b]!r})"
        for query in (require_orthomodular, compatibility_relation, center, check_incompatible_lemma):
            with pytest.raises(NotOrthomodular) as err:
                query(lat)
            assert (str(err.value), err.value.witness) == (message, expected)
        return
    assert center(lat).members == oracles.relation_center(lat)
    assert check_incompatible_lemma(lat) == oracles.looped_incompatible_lemma(lat)
    distributive = dict(classify(lat).witnesses).get("distributive")
    assert distributive == oracles.relation_distributive_witness(lat)


def assert_center_is_read_off_the_atoms(lat):
    """In a finite OML c is central iff it is compatible with every atom.

    The elements compatible with c are closed under meet, join and
    complement, and every element is the join of the atoms below it.
    """
    relation = oracles.identity_relation(lat)
    atoms = [m for m in range(lat.n) if m != lat.bottom
             and {x for x in range(lat.n) if lat.leq[x, m]} == {lat.bottom, m}]
    assert lattice_module._atoms(lat).tolist() == atoms
    assert np.array_equal(relation[:, atoms].all(axis=1), relation.all(axis=1))
    for x in range(lat.n):
        joined = lat.bottom
        for m in atoms:
            if lat.leq[m, x]:
                joined = int(lat.join[joined, m])
        assert joined == x
    for c in range(lat.n):
        members = np.flatnonzero(relation[c])
        grid = np.ix_(members, members)
        assert relation[c, lat.meet[grid]].all() and relation[c, lat.join[grid]].all()
        assert relation[c, lat.ortho[members]].all()


def _ortholattice_or_none(poset):
    leq, mirror = poset
    try:
        return lattice_from_leq([f"e{i}" for i in range(leq.shape[0])], leq, mirror)
    except (NotALattice, BadOrtho):
        return None


def _relabelled(build, *args):
    """``build`` applied to drawn ``args``, its elements in a drawn order."""
    def relabel(seed, *drawn):
        return oracles.relabelled(build(*drawn), np.random.default_rng(seed))

    return st.builds(relabel, st.integers(0, 2**32 - 1), *args)


_catalog_and_products = _relabelled(
    lambda names: reduce(direct_product, map(catalog, names)),
    st.sampled_from([(a,) for a in CATALOG_NAMES] + list(itertools.product(CATALOG_NAMES, repeat=2))),
)
_rings = _relabelled(lambda k: oracles.greechie_pasting(oracles.greechie_ring(k)), st.integers(5, 40))
# two blocks sharing the atom c, which is central
_two_chains = _relabelled(lambda: oracles.greechie_pasting(("abc", "cde")))


@settings(max_examples=200, deadline=None)
@given(
    lat=st.one_of(
        self_dual_posets().map(_ortholattice_or_none), _catalog_and_products, _rings, _two_chains
    )
)
def test_structural_queries_match_the_whole_relation(lat):
    if lat is None:
        return
    assert_queries_match_the_relation(lat)
    if oracles.chained_orthomodular_witness(lat) is None:
        assert_center_is_read_off_the_atoms(lat)


def test_two_chains_have_a_central_atom():
    chain = oracles.greechie_pasting(("abc", "cde"))
    assert [chain.names[i] for i in center(chain).members] == ["0", "c", "c'", "1"]
    assert_center_is_read_off_the_atoms(chain)


def test_structural_queries_match_the_relation_on_the_catalog_and_its_products():
    rng = np.random.default_rng(18)
    for first in CATALOG_NAMES:
        assert_queries_match_the_relation(catalog(first))
        for second in CATALOG_NAMES:
            lat = direct_product(catalog(first), catalog(second))
            assert_queries_match_the_relation(lat)
            assert_queries_match_the_relation(oracles.relabelled(lat, rng))
            if classify(lat).is_orthomodular:
                assert_center_is_read_off_the_atoms(lat)


# ---------------------------------------------------------------------------
# parser robustness: random documents either parse or raise a package error

_tokens = st.sampled_from(
    ["elements", "cover", "ortho", "bottom", "top", "a", "b", "c", "0", "1", "#x", "?"]
)
_lines = st.lists(
    st.lists(_tokens, min_size=0, max_size=4).map(" ".join), min_size=0, max_size=8
)


@settings(max_examples=150, deadline=None)
@given(lines=_lines)
def test_parser_total_over_garbage(lines):
    text = "\n".join(lines)
    try:
        lat = parse_lattice(text)
    except OrthologicError:
        return
    # whatever parses must be a genuine bounded lattice, with a genuine
    # orthocomplementation when it declares one
    pairs = [(a, b) for a in range(lat.n) for b in range(lat.n)]
    assert [lat.meet[p] for p in pairs] == [oracles.naive_meet(lat, *p) for p in pairs]
    assert [lat.join[p] for p in pairs] == [oracles.naive_join(lat, *p) for p in pairs]
    assert (lat.bottom, lat.top) == oracles.naive_bounds(lat)
    if lat.ortho is not None:
        assert oracles.naive_ortho_witness(lat) is None


# ---------------------------------------------------------------------------
# witness determinism


def test_witnesses_are_lexicographically_first():
    mo2 = catalog("MO2")
    report = classify(mo2)
    witness = dict(report.witnesses)["distributive"]
    for triple in itertools.product(range(mo2.n), repeat=3):
        if triple == witness:
            break
        lhs = mo2.meet[triple[0], mo2.join[triple[1], triple[2]]]
        rhs = mo2.join[mo2.meet[triple[0], triple[1]], mo2.meet[triple[0], triple[2]]]
        assert lhs == rhs, f"earlier violating triple {triple} exists"


def test_lemma_witness_is_lexicographically_first(mo2):
    from orthologic import check_incompatible_lemma

    _, witness = check_incompatible_lemma(mo2)
    relation = compatibility_relation(mo2)
    for triple in itertools.product(range(mo2.n), repeat=3):
        if triple == witness:
            break
        a, b, c = triple
        violates = mo2.le(a, b) and a != b and not relation[a, c] and relation[b, c]
        assert not violates, f"earlier violating triple {triple} exists"
