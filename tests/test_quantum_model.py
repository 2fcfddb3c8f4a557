import contextlib
import io
import json
import re
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthologic import (
    BadDensityMatrix,
    BadProjector,
    ClosureTooLarge,
    DimensionMismatch,
    InquirySequence,
    NoComplement,
    NotUnique,
    OrthologicError,
    ProjectorLattice,
    basis_projector,
    born_state,
    catalog,
    classify,
    detectability,
    infer_complement,
    infer_order,
    is_order_isomorphic,
    is_state,
    isolated_check,
    ket_projector,
    lattice_from_leq,
    maximally_mixed,
    projector_lattice,
    qubit_z_lattice,
    qubit_zx_lattice,
    qutrit_commuting_lattice,
    random_density_matrix,
    sequence_probability,
    standard_projector,
    x_minus,
    x_plus,
    z0,
    z1,
)
from orthologic import cli, quantum
from orthologic.analysis import compatibility_relation
from orthologic.cli import QUANTUM_PRESETS, main
from orthologic.quantum import (
    matrix_from_json,
    matrix_to_json,
    validate_density_matrix,
    validate_projector,
)

import oracles

TOL = 1e-9


@pytest.fixture(scope="module")
def zx():
    return qubit_zx_lattice()


@pytest.fixture(scope="module")
def qutrit():
    return qutrit_commuting_lattice()


def rho_ket(*amps):
    return ket_projector(list(amps))


# ---------------------------------------------------------------------------
# validation and builders


def test_validate_projector_rejects_non_hermitian():
    with pytest.raises(BadProjector):
        projector_lattice([np.array([[0, 1], [0, 0]], dtype=complex)])


def test_validate_projector_rejects_non_idempotent():
    with pytest.raises(BadProjector):
        projector_lattice([np.eye(2) * 0.5])


def test_generators_must_share_dimension():
    with pytest.raises(DimensionMismatch):
        projector_lattice([z0(), basis_projector(3, 0)])


def test_density_validation(zx):
    with pytest.raises(BadDensityMatrix):
        born_state(zx, np.eye(2))  # trace 2
    with pytest.raises(BadDensityMatrix):
        born_state(zx, np.array([[1.5, 0], [0, -0.5]]))  # not PSD
    with pytest.raises(DimensionMismatch):
        born_state(zx, maximally_mixed(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validation_rejects_non_finite_entries(bad):
    matrix = np.array([[1, 0], [0, bad]], dtype=complex)
    with pytest.raises(BadProjector, match="non-finite"):
        validate_projector(matrix)
    with pytest.raises(BadDensityMatrix, match="non-finite"):
        validate_density_matrix(matrix)


def test_validation_rejects_empty_matrices():
    # a 0 x 0 matrix passes every tolerance check vacuously
    with pytest.raises(BadProjector, match="dimension at least 1"):
        projector_lattice([np.zeros((0, 0))])
    with pytest.raises(BadDensityMatrix, match="dimension at least 1"):
        validate_density_matrix(np.zeros((0, 0)))


def test_standard_projectors():
    assert np.allclose(standard_projector("Z0"), np.diag([1, 0]))
    assert np.allclose(standard_projector("X+") + standard_projector("X-"), np.eye(2))
    with pytest.raises(BadProjector):
        standard_projector("Y+")


def test_matrix_json_roundtrip():
    m = x_plus() + 1j * 0
    again = matrix_from_json(matrix_to_json(m))
    assert np.allclose(m, again)
    assert matrix_from_json([[1, 0], [0, 1]])[0, 0] == 1 + 0j
    with pytest.raises(ValueError):
        matrix_from_json([["bad", 0], [0, 1]])


@pytest.mark.parametrize("entry", [["1", "0"], [1, "0"], ["1", 0], [None, 0], [1, [0]]])
def test_matrix_entry_pair_parts_must_be_numbers(entry):
    # float() would read the string "1" as 1.0
    with pytest.raises(ValueError, match=r"matrix entry must be a number or \[re, im\]"):
        matrix_from_json([[entry, 0], [0, 0]])


@pytest.mark.parametrize("entry", [1e200, -1e308, [0, 1e300]])
def test_projector_entries_above_modulus_one_are_refused(entry):
    # once P @ P overflows to nan, no tolerance comparison would refuse the matrix
    with pytest.raises(BadProjector, match="modulus above 1"):
        validate_projector(matrix_from_json([[entry, 0], [0, 0]]))


# ---------------------------------------------------------------------------
# closure


def test_qubit_zx_closure_is_mo2_shaped(zx):
    assert zx.n == 6
    assert classify(zx.lattice).is_orthomodular
    assert is_order_isomorphic(zx.lattice, catalog("MO2"), match_ortho=True)


def test_single_generator_closure_is_b4():
    pl = qubit_z_lattice()
    assert pl.n == 4
    assert is_order_isomorphic(pl.lattice, catalog("B4"), match_ortho=True)


def test_commuting_qutrit_closure_is_b8(qutrit):
    assert qutrit.n == 8
    assert is_order_isomorphic(qutrit.lattice, catalog("B8"), match_ortho=True)


def test_closure_matches_subspace_operations(zx):
    # meet/join tables must reproduce intersection and span of the subspaces
    eye = np.eye(zx.dim)
    for a, b in product(range(zx.n), repeat=2):
        pa, pb = zx.projector(a), zx.projector(b)
        stacked = np.hstack([eye - pa, eye - pb])
        u, s, _ = np.linalg.svd(stacked, full_matrices=False)
        rank = int(np.sum(s > TOL))
        wedge = eye - u[:, :rank] @ u[:, :rank].conj().T
        assert np.linalg.norm(zx.projector(zx.lattice.meet[a, b]) - wedge) < 1e-8
    for a in range(zx.n):
        assert np.linalg.norm(
            zx.projector(zx.lattice.oc(a)) - (eye - zx.projector(a))
        ) < 1e-12


def test_closure_cap():
    skewed = [basis_projector(3, 0), ket_projector([1, 1, 1]), ket_projector([1, 2, 3])]
    with pytest.raises(ClosureTooLarge):
        projector_lattice(skewed, max_elements=24)


def test_d4_two_plane_closure_is_mo2xb2():
    pl = projector_lattice(
        [ket_projector([1, 0, 0, 0]), ket_projector([1, 1, 0, 0])], names=["P", "Q"]
    )
    assert pl.n == 12
    assert is_order_isomorphic(pl.lattice, catalog("MO2xB2"))


# ---------------------------------------------------------------------------
# Born states


def test_born_state_maximally_mixed_is_half_on_atoms(zx):
    mu = born_state(zx, maximally_mixed(2))
    for name in ("Z0", "Z1", "X+", "X-"):
        assert mu[zx.index(name)] == Fraction(1, 2)
    ok, _ = is_state(zx.lattice, mu)
    assert ok


def test_born_state_eigenstate(zx):
    mu = born_state(zx, rho_ket(1, 0))
    assert mu[zx.index("Z0")] == 1
    assert mu[zx.index("Z1")] == 0
    assert mu[zx.index("X+")] == Fraction(1, 2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_born_state_of_any_density_matrix_is_a_state(zx, seed):
    rho = random_density_matrix(2, np.random.default_rng(seed))
    mu = born_state(zx, rho)
    ok, why = is_state(zx.lattice, mu, tol=TOL)
    assert ok, why


def test_born_state_on_qutrit_lattice(qutrit):
    rho = random_density_matrix(3, np.random.default_rng(7))
    ok, why = is_state(qutrit.lattice, born_state(qutrit, rho), tol=TOL)
    assert ok, why


# ---------------------------------------------------------------------------
# sequence probabilities


def test_sequence_examples(zx):
    i_z0, i_xp = zx.index("Z0"), zx.index("X+")
    rho = rho_ket(1, 0)
    assert sequence_probability(zx, rho, [(i_z0, "t")]) == pytest.approx(1.0, abs=TOL)
    zxz = [(i_z0, "t"), (i_xp, "t"), (i_z0, "t")]
    assert sequence_probability(zx, rho, zxz) == pytest.approx(0.25, abs=TOL)
    contradictory = [(i_z0, "t"), (i_z0, "f")]
    assert sequence_probability(zx, rho, contradictory) == pytest.approx(0.0, abs=TOL)


def test_sequence_accepts_inquiry_objects(zx):
    seq = InquirySequence.from_names(zx, [("Z0", "t"), ("X+", "f")])
    assert len(seq) == 2
    value = sequence_probability(zx, rho_ket(1, 0), seq)
    assert value == pytest.approx(0.5, abs=TOL)


@pytest.mark.parametrize("bad", [-1, 6])
def test_element_indices_are_checked(zx, bad):
    rho = maximally_mixed(2)
    calls = [
        lambda: sequence_probability(zx, rho, [(bad, True)]),
        lambda: isolated_check(zx, rho, bad),
        lambda: isolated_check(zx, rho, 0, bad),
        lambda: detectability(zx, 0, bad),
        lambda: detectability(zx, bad, 0),
        lambda: infer_complement(zx, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"element index {bad} out of range"):
            call()


def test_sequence_rejects_bad_answers(zx):
    with pytest.raises(ValueError):
        sequence_probability(zx, maximally_mixed(2), [(0, "maybe")])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_schedules_normalize(zx, qutrit, seed):
    rng = np.random.default_rng(seed)
    for pl, dim in ((zx, 2), (qutrit, 3)):
        rho = random_density_matrix(dim, rng)
        schedule = [int(rng.integers(0, pl.n)) for _ in range(3)]
        total = sum(
            sequence_probability(pl, rho, list(zip(schedule, answers)))
            for answers in product((True, False), repeat=3)
        )
        assert total == pytest.approx(1.0, abs=TOL)


def test_repeated_inquiries_always_agree(zx):
    # stability of answers under immediate repetition, for every element
    rng = np.random.default_rng(3)
    for probe in range(zx.n):
        for rho in (maximally_mixed(2), rho_ket(1, 0), random_density_matrix(2, rng)):
            assert isolated_check(zx, rho, probe) == pytest.approx(1.0, abs=TOL)


def test_isolated_check_triple(zx):
    rho = rho_ket(1, 0)
    i_z0 = zx.index("Z0")
    assert isolated_check(zx, rho, i_z0) == pytest.approx(1.0, abs=TOL)
    assert isolated_check(zx, rho, i_z0, zx.index("X+")) == pytest.approx(0.5, abs=TOL)
    assert isolated_check(zx, rho, i_z0, zx.index("Z1")) == pytest.approx(1.0, abs=TOL)


def test_detectability_values(zx):
    i_z0 = zx.index("Z0")
    assert detectability(zx, i_z0, zx.index("X+")) == pytest.approx(0.5, abs=TOL)
    assert detectability(zx, i_z0, zx.index("Z1")) == pytest.approx(0.0, abs=TOL)
    assert detectability(zx, i_z0, zx.lattice.top) == pytest.approx(0.0, abs=TOL)


def test_detectability_positive_iff_noncommuting(zx, qutrit):
    for pl in (zx, qutrit, _plane4_lattice()):
        for a, b in product(range(pl.n), repeat=2):
            commutator = pl.projector(a) @ pl.projector(b) - pl.projector(b) @ pl.projector(a)
            noisy = detectability(pl, a, b) > TOL
            assert noisy == (np.linalg.norm(commutator) > TOL)


def test_detectability_validates_no_density_matrix(zx, monkeypatch):
    # it builds its own maximally mixed state, so there is nothing to check
    calls = []
    real = quantum.validate_density_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(quantum, "validate_density_matrix", counting)
    for a, b in product(range(zx.n), repeat=2):
        detectability(zx, a, b)
    assert calls == []


# ---------------------------------------------------------------------------
# reconstruction round-trips


def _plane4_lattice():
    return projector_lattice(
        [ket_projector([1, 0, 0, 0]), ket_projector([1, 1, 0, 0])]
    )


RECONSTRUCTION_SET = [
    qubit_zx_lattice,
    qubit_z_lattice,
    qutrit_commuting_lattice,
    _plane4_lattice,
]


@pytest.mark.parametrize("builder", RECONSTRUCTION_SET)
def test_infer_order_roundtrip(builder):
    pl = builder()
    assert np.array_equal(infer_order(pl), pl.lattice.leq)


@pytest.mark.parametrize("builder", RECONSTRUCTION_SET)
def test_infer_complement_roundtrip(builder):
    pl = builder()
    for a in range(pl.n):
        assert infer_complement(pl, a) == pl.lattice.oc(a)


def test_inferred_order_has_bottom_below_everything(zx):
    inferred = infer_order(zx)
    assert inferred[zx.lattice.bottom, :].all()


def test_infer_complement_flags_missing_partner(zx):
    # swap one projector for an alien one so no complement clause can close
    broken = ProjectorLattice(
        lattice=qubit_z_lattice().lattice,
        projectors=(np.zeros((2, 2)), z0(), x_plus(), np.eye(2)),
        dim=2,
    )
    with pytest.raises(NoComplement) as expected:
        oracles.luders_infer_complement(broken, 1)
    with pytest.raises(NoComplement, match=re.escape(str(expected.value))):
        infer_complement(broken, 1)


def test_infer_complement_flags_duplicate_partner():
    # two elements carrying the same projector both satisfy the clauses
    broken = ProjectorLattice(
        lattice=qubit_z_lattice().lattice,
        projectors=(np.zeros((2, 2)), z0(), z1(), z1()),
        dim=2,
    )
    with pytest.raises(NotUnique) as expected:
        oracles.luders_infer_complement(broken, 1)
    with pytest.raises(NotUnique, match=re.escape(str(expected.value))):
        infer_complement(broken, 1)


# ---------------------------------------------------------------------------
# semi-naive closure and batched reconstruction against the per-pair oracles


def _commuting_rays(dim, seed):
    gen = np.random.default_rng(seed)
    q, _ = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    return [np.outer(q[:, j], q[:, j].conj()) for j in range(dim - 1)]


def _rotated_zxy_rays(seed):
    # one random unitary applied to the Z, X and Y rays: three blocks glued at 0 and 1 (MO3)
    gen = np.random.default_rng(seed)
    u, _ = np.linalg.qr(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)))
    return [ket_projector(u @ np.array(ray)) for ray in ([1, 0], [1, 1], [1, 1j])]


def _plane(*vectors):
    q, _ = np.linalg.qr(np.array(vectors, dtype=complex).T)
    return q @ q.conj().T


CLOSURE_INPUTS = {
    "qubit-zx": ([z0(), z1(), x_plus(), x_minus()], ["Z0", "Z1", "X+", "X-"]),
    "qubit-z": ([z0()], ["Z0"]),
    "qubit-mo3": (_rotated_zxy_rays(0), ["Z", "X", "Y"]),
    "qutrit-commuting": ([basis_projector(3, 0), basis_projector(3, 1)], ["E1", "E2"]),
    "d4-two-plane": ([ket_projector([1, 0, 0, 0]), ket_projector([1, 1, 0, 0])], None),
    # two rank-2 generators sharing one ray: 24 elements, not distributive
    "d4-rank2": ([_plane([1, 0, 0, 0], [0, 1, 0, 0]), _plane([0, 1, 0, 0], [1, 0, 1, 0])], None),
    **{f"commuting-d{d}-{seed}": (_commuting_rays(d, seed), None) for d in (2, 3, 4, 5) for seed in (0, 1)},
    "commuting-d6-0": (_commuting_rays(6, 0), None),
}


@pytest.fixture(scope="module", params=sorted(CLOSURE_INPUTS))
def closure_case(request):
    generators, names = CLOSURE_INPUTS[request.param]
    return (
        projector_lattice(generators, names=names),
        oracles.full_rounds_closure(generators, names=names),
    )


def _assert_same_closure(pl, expected):
    names, leq, ortho, projectors = expected
    assert pl.lattice.names == tuple(names)
    assert np.array_equal(pl.lattice.leq, leq)
    assert np.array_equal(pl.lattice.ortho, ortho)
    assert max(np.abs(p - q).max() for p, q in zip(pl.projectors, projectors)) <= 1e-12


def test_closure_matches_full_rounds(closure_case):
    _assert_same_closure(*closure_case)


# small Gaussian-integer entries give orthogonal, repeated and commuting rays
# as well as generic ones; a seed gives generic complex rays, whose closure
# from three rays in d >= 3 is infinite and meets the 64-element cap
_ENTRIES = st.sampled_from([0, 1, -1, 2, 1j, 1 + 1j])


@st.composite
def _random_rays(draw):
    dim, count = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        vectors = gen.normal(size=(count, dim)) + 1j * gen.normal(size=(count, dim))
    else:
        vector = st.lists(_ENTRIES, min_size=dim, max_size=dim).filter(any)
        vectors = draw(st.lists(vector, min_size=count, max_size=count))
    return [ket_projector(v) for v in vectors]


@settings(max_examples=40, deadline=None)
@given(generators=_random_rays())
def test_closure_of_random_rays_matches_full_rounds(generators):
    try:
        expected = oracles.full_rounds_closure(generators)
    except ClosureTooLarge as exc:
        with pytest.raises(ClosureTooLarge, match=re.escape(str(exc))):
            projector_lattice(generators)
        return
    _assert_same_closure(projector_lattice(generators), expected)


def _assert_compatibility_is_commutation(pl):
    # in a projector lattice, compatibility is commutation: a check off the closure's own code
    p = np.asarray(pl.projectors)
    commutators = np.linalg.norm(p[:, None] @ p[None] - p[None] @ p[:, None], axis=(2, 3))
    assert np.array_equal(compatibility_relation(pl.lattice), commutators <= TOL)


def test_compatibility_is_commutation(closure_case):
    _assert_compatibility_is_commutation(closure_case[0])


@pytest.mark.parametrize("preset", sorted(QUANTUM_PRESETS))
def test_preset_compatibility_is_commutation(preset):
    _assert_compatibility_is_commutation(QUANTUM_PRESETS[preset]())


def _assert_reconstruction_matches_luders_oracles(pl):
    assert np.array_equal(infer_order(pl), oracles.luders_infer_order(pl))
    for a in range(pl.n):
        assert infer_complement(pl, a) == oracles.luders_infer_complement(pl, a)


def test_reconstruction_matches_luders_oracles(closure_case):
    _assert_reconstruction_matches_luders_oracles(closure_case[0])


@settings(max_examples=40, deadline=None)
@given(generators=_random_rays())
def test_reconstruction_of_random_rays_matches_luders_oracles(generators):
    # the per-pair oracles ask O(n^2) public queries, so closures stay small
    try:
        pl = projector_lattice(generators, max_elements=32)
    except ClosureTooLarge:
        return
    _assert_reconstruction_matches_luders_oracles(pl)


@pytest.mark.parametrize("dim", [6, 7])
def test_reconstruction_blocks_bound_memory(dim):
    # B64 and B128: each block's (rows, n, d, d) transients stay under 128 KiB
    pl = projector_lattice(_commuting_rays(dim, 0), max_elements=2**dim)
    tracemalloc.start()
    try:
        order = infer_order(pl)
        complements = [infer_complement(pl, a) for a in range(pl.n)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(order, pl.lattice.leq)
    assert complements == pl.lattice.ortho.tolist()
    assert peak < 2**20  # 0.30 / 0.41 MiB measured


def test_reconstruction_tiles_bound_memory_at_b256():
    # B256 from the diagonal projectors of d = 8: one row's (1, 256, 8, 8) stack is
    # 256 KiB, twice the cap, so the columns of a row go in tiles too
    masks = np.arange(256)
    leq = (masks[:, None] & masks) == masks[:, None]
    lattice = lattice_from_leq([f"e{m}" for m in masks], leq, 255 ^ masks)
    diagonals = (masks[:, None] >> np.arange(8)) & 1
    pl = ProjectorLattice(lattice, tuple(np.diag(v).astype(complex) for v in diagonals), 8)
    pl.projector_stack  # kept on the lattice, stacked before the measurement
    tracemalloc.start()
    try:
        order = infer_order(pl)
        complements = [infer_complement(pl, a) for a in range(pl.n)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(order, leq)
    assert complements == (255 ^ masks).tolist()
    assert peak < 0.6 * 2**20  # 0.46 MiB measured; 1.08 MiB with whole rows


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_probabilities_match_sandwiching_every_answer(zx, qutrit, seed):
    # the kernel reads the last answer as tr(E sigma), not tr(E sigma E)
    rng = np.random.default_rng(seed)
    for pl in (zx, qutrit, _plane4_lattice()):
        rho = random_density_matrix(pl.dim, rng)
        steps = [(int(rng.integers(pl.n)), bool(rng.integers(2))) for _ in range(rng.integers(5))]
        expected = oracles.sandwiched_probability(pl, rho, steps)
        assert abs(sequence_probability(pl, rho, steps) - expected) <= 1e-12
        probe, middle = (int(x) for x in rng.integers(pl.n, size=2))
        agree = sum(
            oracles.sandwiched_probability(pl, rho, [(probe, a), (middle, b), (probe, a)])
            for a in (True, False)
            for b in (True, False)
        )
        assert abs(isolated_check(pl, rho, probe, middle) - min(1.0, agree)) <= 1e-12


def test_infer_order_validates_rho_at_most_once_per_row(monkeypatch):
    pl = projector_lattice(_commuting_rays(5, 3))
    assert pl.n == 32
    calls = []
    real = quantum.validate_density_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(quantum, "validate_density_matrix", counting)
    assert np.array_equal(infer_order(pl), pl.lattice.leq)
    assert len(calls) <= pl.n


@pytest.mark.parametrize(
    "generators, commuting",
    [([z0(), z1(), x_plus(), x_minus()], False), (_commuting_rays(5, 3), True)],
    ids=["qubit-zx", "commuting-d5"],
)
def test_closure_decides_each_candidate_once(monkeypatch, generators, commuting):
    # every pair yields one join and one meet; the commuting filter drops some,
    # and each of the rest is one slice of the _spans call that follows it
    events = []
    real_filter, real_spans = quantum._commuting_matched, quantum._spans

    def filtering(*args):
        matched = real_filter(*args)
        events.append(("filter", len(matched), int((matched >= 0).sum())))
        return matched

    def spanning(blocks):
        events.append(("spans", len(blocks)))
        return real_spans(blocks)

    monkeypatch.setattr(quantum, "_commuting_matched", filtering)
    monkeypatch.setattr(quantum, "_spans", spanning)
    pl = projector_lattice(generators)
    filtered = slices = 0
    for k, event in enumerate(events):
        if event[0] == "filter":
            _, candidates, dropped = event
            filtered += dropped
            if dropped < candidates:
                assert events[k + 1] == ("spans", candidates - dropped)
                slices += candidates - dropped
        else:
            assert events[k - 1][0] == "filter"
    assert filtered + slices == pl.n * (pl.n - 1)
    if commuting:  # B32: fewer slices than elements (15 of 992 measured)
        assert slices < pl.n


def _closure_outcome(generators):
    try:
        pl = projector_lattice(generators)
    except OrthologicError as exc:
        return type(exc), str(exc)
    return pl.lattice.names, pl.lattice.leq, pl.lattice.ortho, pl.projector_stack


def _assert_same_outcome(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@st.composite
def _near_rays(draw, angles):
    # in a random basis: a ray, one theta from it or theta short of orthogonal,
    # and perhaps a third, 2 theta from the first in their plane or orthogonal to both
    dim, theta = draw(st.integers(2, 4)), draw(angles)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    turns = [0.0, draw(st.sampled_from([theta, np.pi / 2 - theta]))]
    third = draw(st.sampled_from(["none", "plane", "orthogonal"] if dim > 2 else ["none", "plane"]))
    if third == "plane":
        turns.append(2 * theta)
    rays = [q[:, :2] @ np.array([np.cos(t), np.sin(t)]) for t in turns]
    if third == "orthogonal":
        rays.append(q[:, 2])
    return [ket_projector(v) for v in rays]


def _scaled(projector, eps):
    return (1 - eps) * projector


@st.composite
def _scaled_rays(draw):
    # generators that validate with an idempotence error of up to TOL: in a random
    # basis u, v, w, P = (1 - e)|u><u| and Q = |v><v| commute exactly, and perhaps
    # X = (1 - e')|u'><u'| + |v><v|, u' turned by t from u toward w, lies within
    # TOL / 2 of P + Q while the span of P and Q lies farther than TOL from X
    dim = draw(st.integers(3, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    eps = st.one_of(st.just(0.0), st.floats(0.5, 1).map(lambda f: f * TOL))
    u, v, w = (ket_projector(q[:, k]) for k in range(3))
    generators = [_scaled(u, draw(eps)), _scaled(v, draw(eps))]
    if draw(st.booleans()):
        t = draw(st.floats(0.2, 0.35)) * TOL
        turned = ket_projector(np.cos(t) * q[:, 0] + np.sin(t) * q[:, 2])
        generators.append(_scaled(turned, draw(eps)) + v)
    if draw(st.booleans()):
        generators.append(_scaled(w, draw(eps)))
    return generators


@settings(max_examples=40, deadline=None)
@given(generators=st.one_of(_scaled_rays(), _random_rays()))
def test_reconstruction_of_scaled_rays_matches_luders_oracles(generators):
    # generators up to TOL from idempotent: reading tr(P rho P) for tr(P rho), or
    # any other step through P^2 = P, moves a probability by about TOL and flips
    # a decision the per-pair oracles take; eps at 0.5 TOL and TOL exactly puts
    # decisions on their threshold, where only the oracles' own rounding decides
    try:
        pl = projector_lattice(generators, max_elements=32)
    except OrthologicError:
        return

    def outcome(infer, a):  # a row may have no complement, or several
        try:
            return infer(pl, a)
        except (NoComplement, NotUnique) as exc:
            return type(exc), str(exc)

    assert np.array_equal(infer_order(pl), oracles.luders_infer_order(pl))
    for a in range(pl.n):
        assert outcome(infer_complement, a) == outcome(oracles.luders_infer_complement, a)


@settings(max_examples=60, deadline=None)
@given(generators=_scaled_rays())
def test_validation_returns_the_projector_a_generator_approximates(generators):
    # each generator lies up to TOL from idempotent; the door returns an exact
    # projector of the same rank near it, so the closure is that of the exact
    # projectors, here found by McWeeny purification rather than eigh
    try:
        snapped = [validate_projector(g) for g in generators]
    except BadProjector:  # an error drawn at TOL exactly may round past it
        return
    for g, p in zip(generators, snapped):
        assert np.linalg.norm(p - p.conj().T) <= 1e-12
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert np.sum(np.linalg.eigvalsh(p) > 0.5) == np.sum(np.linalg.eigvalsh(g) > 0.5)
        assert np.linalg.norm(p - g) <= 2 * TOL
    scaled = _closure_outcome(generators)
    exact = _closure_outcome([oracles.purified(g) for g in generators])
    _assert_same_outcome(scaled[:3], exact[:3])  # names, leq and ortho, or the same refusal


def _inexact_commuting():
    # P + Q lies 4.5e-10 from X, but the span of P and Q lies 1.007e-9 from it
    eps, t = 0.9e-9, 3.2e-10
    u, v, w = np.eye(3, dtype=complex)
    turned = ket_projector(np.cos(t) * u + np.sin(t) * w)
    v = ket_projector(v)
    return [_scaled(ket_projector(u), eps), v, _scaled(turned, eps) + v]


@pytest.mark.parametrize(
    "inputs",
    [
        _random_rays(),
        _scaled_rays(),
        st.just(_inexact_commuting()),
        st.builds(_commuting_rays, st.integers(2, 6), st.integers(0, 2**32 - 1)),
        # the filter's boundary: a commutator norm of about sqrt(2) theta
        _near_rays(st.floats(-13, -11).map(lambda e: 10**e)),
        # the band where the closure's three TOL decisions disagree
        _near_rays(st.floats(0.5, 2).map(lambda f: f * TOL)),
    ],
    ids=[
        "random-rays",
        "scaled-rays",
        "inexact-commuting",
        "commuting",
        "theta-near-bound",
        "theta-near-tol",
    ],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_commuting_filter_changes_no_closure(inputs, data):
    # a negative bound certifies no pair, so every candidate goes through the SVD
    generators = data.draw(inputs)
    filtered = _closure_outcome(generators)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quantum, "_COMMUTATOR_BOUND", -1.0)
        unfiltered = _closure_outcome(generators)
    _assert_same_outcome(filtered, unfiltered)


def _assert_tables_are_subspace_operations(pl):
    # each certified meet and join lies within TOL of the pair's intersection and span
    p, lat = pl.projector_stack, pl.lattice
    for i, j in zip(*np.triu_indices(pl.n, 1)):
        assert np.linalg.norm(p[lat.meet[i, j]] - oracles.subspace_intersection(p[i], p[j])) <= TOL
        assert np.linalg.norm(p[lat.join[i, j]] - oracles.subspace_span(p[i], p[j])) <= TOL


def test_certified_tables_are_subspace_operations(closure_case):
    _assert_tables_are_subspace_operations(closure_case[0])


@settings(max_examples=60, deadline=None)
@given(generators=_near_rays(st.floats(0.5, 2).map(lambda f: f * TOL)))
def test_certified_tables_of_near_rays_are_subspace_operations(generators):
    # rays within 2 TOL of each other, or of orthogonal, put the rank and match
    # decisions on their thresholds; a closure must be refused or be right
    try:
        pl = projector_lattice(generators)
    except OrthologicError:
        return
    _assert_tables_are_subspace_operations(pl)


def test_quantum_cli_reads_the_round_trip_in_one_pass(tmp_path, monkeypatch):
    # B64: every complement comes from the one pass that gives the order, each
    # tile of it once, and each closure element's match data is computed once,
    # for the batch it came in; only the few copies of a new element that one
    # batch brings share that work, where recomputing it per match would cost
    # thousands of rows
    mats = _commuting_rays(6, 0)
    path = tmp_path / "b64.json"
    path.write_text(json.dumps({"generators": [matrix_to_json(m) for m in mats]}))
    calls, cover, computed, appended = [], np.zeros((64, 64), dtype=int), [], []
    real_clauses = quantum._clauses
    real_init, real_extend = quantum._Elements.__init__, quantum._Elements.extend

    def clauses(projectors, rho, rows, cols, *rest):
        cover[rows, cols] += 1
        return real_clauses(projectors, rho, rows, cols, *rest)

    def init(self, stack):
        computed.append(len(stack))
        real_init(self, stack)

    def extend(self, other, which):
        appended.append(len(which))
        real_extend(self, other, which)

    for module in (quantum, cli):
        monkeypatch.setattr(module, "infer_complement", lambda *args: calls.append(args))
    monkeypatch.setattr(quantum, "_clauses", clauses)
    monkeypatch.setattr(quantum._Elements, "__init__", init)
    monkeypatch.setattr(quantum._Elements, "extend", extend)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["quantum", "--generators", str(path)]) == 0
    results = json.loads(out.getvalue())["results"]
    assert results["size"] == 64 and results["order_roundtrip"] and results["complement_roundtrip"]
    assert calls == [] and (cover == 1).all()
    assert sum(appended) == 64 and 64 <= sum(computed) < 2 * 64  # 85 measured


def test_projector_stack_is_stacked_once_and_read_only(zx):
    stack = zx.projector_stack
    assert stack is zx.projector_stack
    assert np.array_equal(stack, np.asarray(zx.projectors))
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1
    # an ndarray passed for the projectors is copied, not frozen in place
    projectors = np.asarray(zx.projectors).copy()
    ProjectorLattice(zx.lattice, projectors, zx.dim).projector_stack
    assert projectors.flags.writeable


@pytest.mark.parametrize("name", ["zx", "qutrit"])
def test_closure_tables_and_stack_are_read_only(request, name):
    pl = request.getfixturevalue(name)
    lattice = pl.lattice
    for table in (lattice.leq, lattice.meet, lattice.join, lattice.ortho, pl.projector_stack):
        corner = (0,) * table.ndim
        with pytest.raises(ValueError, match="read-only"):
            table[corner] = table[corner]
        with pytest.raises(ValueError, match="read-only"):
            table += table
        with pytest.raises(ValueError, match="WRITEABLE"):
            table.setflags(write=True)
        assert not table.flags.writeable


def test_closure_blocks_bound_memory():
    # B128: 8,128 pairs, combined in blocks whose transients stay under 128 KiB
    generators = _commuting_rays(7, 0)
    tracemalloc.start()
    try:
        pl = projector_lattice(generators, max_elements=128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pl.n == 128
    assert peak < 2 * 2**20  # 0.9 MiB measured, as for one pair at a time; 4.1 MiB with 256-pair blocks
