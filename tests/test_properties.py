"""Cross-module property tests on randomly assembled inputs."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from orthologic import (
    NotALattice,
    OrthologicError,
    catalog,
    center,
    classify,
    compatibility_relation,
    compatible_decomposition,
    compatible_via_definition,
    direct_product,
    enumerate_dispersion_free,
    generated_sublattice,
    is_compatible,
    is_distributive_subset,
    lattice_from_leq,
    parse_lattice,
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


@settings(max_examples=120, deadline=None)
@given(leq=bounded_posets(), data=st.data())
def test_random_posets_match_naive_bounds(leq, data):
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
