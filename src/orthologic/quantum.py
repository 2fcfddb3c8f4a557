"""Question lattices from finite-dimensional quantum systems.

A set of projectors is closed under orthogonal complement, subspace
intersection, and span; the resulting finite family ordered by subspace
inclusion is an orthomodular lattice.  Projective (Luders) updates give
probabilities for time-ordered answer sequences, from which the order and
the complement can be reconstructed purely from the probability oracle.

Matrices are plain complex ndarrays.  Every numerical decision uses the
one tolerance ``TOL = 1e-9``; dimensions up to 8 stay well-conditioned at
that scale:

- rank: a singular value counts when it is ``> TOL``;
- match: a projector equals the first element, in discovery order, whose
  Frobenius distance to it is ``<= TOL``;
- commuting pairs: the closure reads the meet and join of P and Q as PQ and
  P + Q - PQ when ``||PQ - QP||_F``, ``||P^2 - P||_F`` and ``||Q^2 - Q||_F``
  are each at most ``_COMMUTATOR_BOUND`` (``TOL / 1000``), and drops either
  one without its SVD when it lies within ``TOL / 2`` of an element already
  found.  Such a pair lies within O(bound) of two projectors whose principal
  angles lie within O(bound) of 0 or pi/2, so the SVD's span is within
  O(bound) of the same candidate and within ``TOL / 2 + O(bound) < TOL`` of
  that element: the match drops it too (:func:`_commuting_matched`);
- order: ``P_i <= P_j`` when ``||P_j P_i - P_i|| <= TOL``;
- certainty: a conditional probability ``num / den`` is certain when
  ``|num / den - 1| <= TOL``;
- null condition: a condition with probability ``den <= TOL`` makes every
  question certain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .analysis import require_orthomodular
from .errors import (
    BadDensityMatrix,
    BadProjector,
    ClosureTooLarge,
    DimensionMismatch,
    NoComplement,
    NotOrthomodular,
    NotUnique,
)
from .lattice import (
    _BLOCK_BYTES,
    Lattice,
    _checked_indices,
    _element_index,
    _tiles,
    lattice_from_leq,
)
from .states import LatticeState

__all__ = [
    "TOL",
    "InquirySequence",
    "ProjectorLattice",
    "basis_projector",
    "born_state",
    "detectability",
    "infer_complement",
    "infer_order",
    "isolated_check",
    "ket_projector",
    "matrix_from_json",
    "matrix_to_json",
    "maximally_mixed",
    "projector_lattice",
    "qubit_z_lattice",
    "qubit_zx_lattice",
    "qutrit_commuting_lattice",
    "random_density_matrix",
    "sequence_probability",
    "standard_projector",
    "validate_density_matrix",
    "validate_projector",
    "x_minus",
    "x_plus",
    "z0",
    "z1",
]

TOL = 1e-9
_COMMUTATOR_BOUND = TOL * 1e-3
_SNAP_DENOMINATOR = 10**12


# ---------------------------------------------------------------------------
# matrices


def validate_projector(matrix, *, dim: int | None = None) -> np.ndarray:
    """Return ``matrix`` as a complex array after checking it projects.

    Hermiticity and idempotence within ``TOL`` are verified; together they
    already pin the eigenvalues to {0, 1} at the same scale.
    """
    p = np.asarray(matrix, dtype=complex)
    if not np.isfinite(p).all():
        raise BadProjector("projector has non-finite entries")
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise BadProjector(f"projector must be square, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.shape[0]}")
    # |P_ij|^2 <= P_ii P_jj <= 1 for a projector; the bound keeps P @ P finite
    if np.abs(p).max(initial=0.0) > 1 + TOL:
        raise BadProjector("projector has an entry of modulus above 1")
    if np.linalg.norm(p - p.conj().T) > TOL:
        raise BadProjector("matrix is not hermitian within tolerance")
    if np.linalg.norm(p @ p - p) > TOL:
        raise BadProjector("matrix is not idempotent within tolerance")
    return p


def validate_density_matrix(matrix, *, dim: int | None = None) -> np.ndarray:
    """Check hermitian, positive semidefinite, unit trace within ``TOL``."""
    rho = np.asarray(matrix, dtype=complex)
    if not np.isfinite(rho).all():
        raise BadDensityMatrix("density matrix has non-finite entries")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise BadDensityMatrix(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {rho.shape[0]}")
    if np.linalg.norm(rho - rho.conj().T) > TOL:
        raise BadDensityMatrix("density matrix is not hermitian within tolerance")
    if np.linalg.eigvalsh(rho).min() < -TOL:
        raise BadDensityMatrix("density matrix is not positive semidefinite")
    if abs(np.trace(rho).real - 1.0) > TOL:
        raise BadDensityMatrix("density matrix trace differs from 1")
    return rho


def ket_projector(amplitudes) -> np.ndarray:
    """Rank-1 projector onto the (normalized) state vector ``amplitudes``."""
    v = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise BadProjector("cannot project onto the zero vector")
    v = v / norm
    return np.outer(v, v.conj())


def basis_projector(dim: int, k: int) -> np.ndarray:
    """Projector onto the k-th computational basis vector of dimension ``dim``."""
    v = np.zeros(dim)
    v[k] = 1.0
    return ket_projector(v)


def z0() -> np.ndarray:
    return basis_projector(2, 0)


def z1() -> np.ndarray:
    return basis_projector(2, 1)


def x_plus() -> np.ndarray:
    return ket_projector([1.0, 1.0])


def x_minus() -> np.ndarray:
    return ket_projector([1.0, -1.0])


_STANDARD = {"Z0": z0, "Z1": z1, "X+": x_plus, "X-": x_minus}


def standard_projector(name: str) -> np.ndarray:
    """Named qubit projector: one of Z0, Z1, X+, X-."""
    try:
        return _STANDARD[name]()
    except KeyError:
        raise BadProjector(
            f"unknown standard projector {name!r}; available: {', '.join(_STANDARD)}"
        ) from None


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def random_density_matrix(dim: int, generator: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Ginibre construction)."""
    a = generator.normal(size=(dim, dim)) + 1j * generator.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def matrix_from_json(data) -> np.ndarray:
    """A list of rows, each a list of entries: numbers or [re, im] pairs.

    Any other shape, and an entry too large for a float, raise ``ValueError``.
    """

    def real(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def entry(x, i, j):
        try:
            if real(x):
                return complex(x)
            if isinstance(x, (list, tuple)) and len(x) == 2 and all(map(real, x)):
                return complex(x[0], x[1])
        except OverflowError:
            raise ValueError(f"matrix entry [{i}][{j}] is too large for a float") from None
        raise ValueError(f"matrix entry must be a number or [re, im], got {x!r}")

    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("matrix must be a list of rows, each a list of entries")
    rows = [[entry(x, i, j) for j, x in enumerate(row)] for i, row in enumerate(data)]
    return np.array(rows, dtype=complex)


def matrix_to_json(matrix) -> list:
    m = np.asarray(matrix, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


# ---------------------------------------------------------------------------
# projector closure


def _spans(blocks: np.ndarray) -> np.ndarray:
    """Projectors onto the column spans of a ``(k, d, m)`` stack, from one batched SVD.

    A slice's basis is its left singular vectors with singular value ``> TOL``.
    Slices of one rank share one matmul, so each projector is bit for bit the
    ``basis @ basis^H`` of a lone SVD (a zero-masked full-width product is not).
    """
    u, s, _ = np.linalg.svd(blocks, full_matrices=False)
    ranks = np.sum(s > TOL, axis=1)
    spans = np.empty((len(blocks), blocks.shape[1], blocks.shape[1]), dtype=complex)
    for rank in set(ranks.tolist()):
        basis = u[ranks == rank, :, :rank]
        spans[ranks == rank] = basis @ basis.conj().swapaxes(1, 2)
    return spans


def _match(stack: np.ndarray, p: np.ndarray) -> int | None:
    """Index of the first projector in ``stack`` within Frobenius distance ``TOL`` of ``p``."""
    hits = np.flatnonzero(np.linalg.norm(stack - p, axis=(1, 2)) <= TOL)
    return int(hits[0]) if hits.size else None


def _matched(stack: np.ndarray, candidates: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Which ``candidates`` lie within Frobenius distance ``tol`` of some element of ``stack``.

    The Gram identity ||C - K||^2 = ||C||^2 + ||K||^2 - 2 Re<C, K> rules out
    every pair farther apart than 1/2 at once; its rounding (~1e-14 for
    entries of size 1) cannot rule out a match.  The few pairs left are
    decided by the same Frobenius norm as ``_match``.
    """
    c = candidates.reshape(len(candidates), -1)
    k = stack.reshape(len(stack), -1)
    squared = (
        np.sum(np.abs(c) ** 2, axis=1)[:, None]
        + np.sum(np.abs(k) ** 2, axis=1)
        - 2 * (c @ k.conj().T).real
    )
    near_c, near_k = np.nonzero(squared <= tol**2 + 0.25)
    hits = np.linalg.norm(stack[near_k] - candidates[near_c], axis=(1, 2)) <= tol
    matched = np.zeros(len(candidates), dtype=bool)
    matched[near_c[hits]] = True
    return matched


def _commuting_matched(
    stack: np.ndarray, p: np.ndarray, q: np.ndarray, exact: np.ndarray
) -> np.ndarray:
    """Which joins and meets (slices 2k and 2k + 1 for pair k) ``stack`` holds, with no SVD.

    Only pairs of near-exact projectors that commute are decided; every other
    slice reads False.  ``exact`` says, per pair, whether both ||P^2 - P||_F
    and ||Q^2 - Q||_F are at most ``_COMMUTATOR_BOUND`` (:func:`_exact`).

    For hermitian P and Q, QP = (PQ)^H, so ||PQ - QP||_F = ||C - C^H||_F with
    C = PQ; the pair is certified when it too is at most the bound, d = TOL / 1000.
    Each eigenvalue l of P has |l^2 - l| <= d, so P lies within about d of
    the projector onto its eigenvalues near 1, and likewise Q; those two
    projectors commute within about 5 d, and Halmos's two-subspace theorem
    puts every principal angle between their ranges within O(d) of 0 or pi/2.
    The singular values of [P Q] and of [I-P I-Q] are then each O(d), far
    below ``TOL``, or near 1 and above, so the ranks ``_spans`` finds are
    those of the commuting pair, and its join and meet lie within O(d) of
    P + Q - M and M, where M = (C + C^H)/2.  A candidate found within
    ``TOL / 2`` of an element of ``stack`` has its SVD span within
    TOL / 2 + O(d) < TOL of the same element, so ``_matched`` would drop it
    as well: this filter never decides a candidate differently, it only
    skips the SVD of one that would be dropped.  Idempotence is part of the
    bound because ``validate_projector`` admits an error up to ``TOL``: with
    P = (1 - e)|u><u|, P + Q - M lies e from the SVD span, which is too far.
    """
    c = p @ q
    commuting = np.linalg.norm(c - c.conj().swapaxes(1, 2), axis=(1, 2)) <= _COMMUTATOR_BOUND
    commuting &= exact
    matched = np.zeros((len(p), 2), dtype=bool)
    if commuting.any():
        c = c[commuting]
        meets = (c + c.conj().swapaxes(1, 2)) / 2
        joins = p[commuting] + q[commuting] - meets
        candidates = np.stack([joins, meets], axis=1).reshape(-1, *c.shape[1:])
        matched[commuting] = _matched(stack, candidates, TOL / 2).reshape(-1, 2)
    return matched.ravel()


def _exact(stack: np.ndarray) -> np.ndarray:
    """Which elements of ``stack`` are within ``_COMMUTATOR_BOUND`` of idempotent."""
    return np.linalg.norm(stack @ stack - stack, axis=(1, 2)) <= _COMMUTATOR_BOUND


def _order_and_complement(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusion ``P_i <= P_j`` and the index of each ``I - P_i``, by the rules of ``TOL``.

    Tiles of rows and columns keep their (rows, cols, d, d) transients under
    ``_BLOCK_BYTES``; one matmul of the columns against the rows gives every ``P_j P_i``.
    Every complement was added to the stack, so each row matches some element.
    """
    n, dim = stack.shape[:2]
    eye = np.eye(dim)
    leq, near = np.empty((n, n), dtype=bool), np.empty((n, n), dtype=bool)
    for rows, cols in _tiles(n, n, 2 * dim * dim):
        # block[r, i, c] = (P_i)_rc and products[j, r, i, c] = (P_j P_i)_rc
        block = stack[rows].transpose(1, 0, 2)
        flat = stack[cols].reshape(-1, dim)
        products = (flat @ block.reshape(dim, -1)).reshape(-1, dim, block.shape[1], dim)
        leq[rows, cols] = (np.linalg.norm(products - block, axis=(1, 3)) <= TOL).T
        complements = (eye - stack[rows])[:, None]
        near[rows, cols] = np.linalg.norm(stack[cols] - complements, axis=(2, 3)) <= TOL
    return leq, np.argmax(near, axis=1)  # the first match, as in _match


@dataclass(frozen=True, eq=False)
class ProjectorLattice:
    """A finite orthomodular lattice whose elements carry projectors.

    The embedded :class:`Lattice` order is subspace inclusion, the
    orthocomplement is ``I - P``, meets are intersections and joins spans.
    """

    lattice: Lattice
    projectors: tuple[np.ndarray, ...]
    dim: int

    @property
    def n(self) -> int:
        return self.lattice.n

    def index(self, name: str) -> int:
        return self.lattice.index(name)

    def projector(self, i: int) -> np.ndarray:
        return self.projectors[i]

    @cached_property
    def projector_stack(self) -> np.ndarray:
        """The projectors as one read-only ``(n, d, d)`` array, stacked on first use."""
        stack = np.stack(self.projectors)  # a copy, so no caller's array is frozen
        stack.setflags(write=False)
        return stack


def projector_lattice(
    generators,
    *,
    names=None,
    max_elements: int = 64,
) -> ProjectorLattice:
    """Close a projector set under complement, intersection, and span.

    Parameters
    ----------
    generators : iterable of matrices
        Projectors of one common dimension.
    names : optional list of str
        Labels for the generators; derived elements are auto-named, with
        complements of labeled elements named ``~label``.
    max_elements : int
        Cap on the closure size, enforced with :class:`ClosureTooLarge`.

    Returns
    -------
    ProjectorLattice
        The closure, sorted by (rank, discovery order), with the bounds
        named ``0`` and ``1``.  The embedded lattice is verified to be
        orthomodular before returning.
    """
    mats = [validate_projector(g) for g in generators]
    if not mats:
        raise BadProjector("need at least one generator")
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != dim:
            raise DimensionMismatch("generators have mixed dimensions")
    if names is not None and len(names) != len(mats):
        raise ValueError("names must match generators one to one")

    eye = np.eye(dim, dtype=complex)
    stack = np.empty((0, dim, dim), dtype=complex)
    labels: list[str | None] = []

    def add(p: np.ndarray, label: str | None = None) -> int:
        nonlocal stack
        p = (p + p.conj().T) / 2
        i = _match(stack, p)
        if i is None:
            if len(labels) >= max_elements:
                raise ClosureTooLarge(
                    f"projector closure exceeds {max_elements} elements"
                )
            stack = np.concatenate([stack, p[None]])
            labels.append(label)
            return len(labels) - 1
        if labels[i] is None and label is not None:
            labels[i] = label
        return i

    add(np.zeros((dim, dim), dtype=complex), "0")
    add(eye, "1")
    for k, m in enumerate(mats):
        add(m, None if names is None else str(names[k]))

    # semi-naive rounds: a pair of older elements was combined in an earlier
    # round, so each round combines only pairs that include a newer element.
    # The pairs go in blocks, in the order of the double loop i < j.  First
    # _commuting_matched drops each commuting pair's join and meet that the
    # elements found before the block already hold, with no SVD, for pairs
    # of near-exact projectors (a generator may be up to TOL from
    # idempotent).  One SVD stack gives every other join (span of [P Q]) and
    # meet (by De Morgan, the complement of the span of [I-P I-Q]), then one
    # match against the same elements drops the candidates they already
    # hold.  Only the rest go through add(), in order, so the discovery
    # order, the labels and the point where ClosureTooLarge is raised stay
    # those of one add() per candidate: an older element always wins the
    # first match.
    # A pair's transients (two (d, 2d) inputs, u, vh, two candidates) take
    # about 256 d^2 bytes, the filter's about 128 d^2; a block keeps them all
    # under _BLOCK_BYTES.
    pairs_per_block = max(1, _BLOCK_BYTES // (256 * dim * dim))
    eye2 = np.hstack([eye, eye])
    fresh = 0
    while fresh < len(labels):
        before = len(labels)
        for i in range(fresh, before):
            j = add(eye - stack[i])
            if labels[j] is None and labels[i] is not None:
                labels[j] = "~" + labels[i]
        near_exact = _exact(stack[:before])
        left, right = np.triu_indices(before, 1)
        left, right = left[right >= fresh], right[right >= fresh]
        for lo in range(0, len(left), pairs_per_block):
            block = slice(lo, lo + pairs_per_block)
            firsts, seconds = stack[left[block]], stack[right[block]]
            # slice 2k is pair k's join, slice 2k + 1 its meet
            exact = near_exact[left[block]] & near_exact[right[block]]
            pending = np.flatnonzero(~_commuting_matched(stack, firsts, seconds, exact))
            if not pending.size:
                continue
            joins = np.concatenate([firsts, seconds], axis=2)
            slices = np.stack([joins, eye2 - joins], axis=1).reshape(-1, dim, 2 * dim)
            spans = _spans(slices[pending])
            meets = pending % 2 == 1
            spans[meets] = eye - spans[meets]
            candidates = (spans + spans.conj().swapaxes(1, 2)) / 2
            for p in candidates[~_matched(stack, candidates)]:
                add(p)
        fresh = before

    order = np.argsort(np.rint(np.trace(stack, axis1=1, axis2=2).real), kind="stable")
    stack = stack[order]
    labels = [labels[i] for i in order]
    leq, ortho = _order_and_complement(stack)

    final_names: list[str] = []
    seen: set[str] = set()
    for i, label in enumerate(labels):
        name = label if label is not None else f"s{i}"
        while name in seen:
            name += "'"
        seen.add(name)
        final_names.append(name)

    lat = lattice_from_leq(final_names, leq, ortho)
    try:
        require_orthomodular(lat)
    except NotOrthomodular as exc:
        raise NotOrthomodular(
            f"projector closure is not orthomodular ({exc}); tolerance too loose?"
        ) from exc
    return ProjectorLattice(lattice=lat, projectors=tuple(stack), dim=dim)


def qubit_zx_lattice() -> ProjectorLattice:
    """Closure of both qubit bases Z and X: six elements, MO2-shaped."""
    return projector_lattice([z0(), z1(), x_plus(), x_minus()], names=["Z0", "Z1", "X+", "X-"])


def qubit_z_lattice() -> ProjectorLattice:
    """Closure of one qubit basis vector: the four-element Boolean block."""
    return projector_lattice([z0()], names=["Z0"])


def qutrit_commuting_lattice() -> ProjectorLattice:
    """Two commuting rank-1 generators in dimension 3: an eight-element Boolean cube."""
    return projector_lattice([basis_projector(3, 0), basis_projector(3, 1)], names=["E1", "E2"])


# ---------------------------------------------------------------------------
# sequences and probabilities


def _as_answer(answer) -> bool:
    if isinstance(answer, bool):
        return answer
    if answer in (0, 1):
        return bool(answer)
    if isinstance(answer, str) and answer.lower() in ("t", "f"):
        return answer.lower() == "t"
    raise ValueError(f"answer must be t/f or boolean, got {answer!r}")


@dataclass(frozen=True)
class InquirySequence:
    """Time-ordered (element, answer) pairs; list position is the time stamp."""

    steps: tuple[tuple[int, bool], ...]

    @classmethod
    def of(cls, *steps) -> "InquirySequence":
        return cls(tuple((_element_index(e), _as_answer(a)) for e, a in steps))

    @classmethod
    def from_names(cls, pl: ProjectorLattice, pairs) -> "InquirySequence":
        return cls.of(*((pl.index(name), answer) for name, answer in pairs))

    def __len__(self) -> int:
        return len(self.steps)


def _steps_of(sequence) -> tuple[tuple[int, bool], ...]:
    if isinstance(sequence, InquirySequence):
        return sequence.steps
    return InquirySequence.of(*sequence).steps


def born_state(pl: ProjectorLattice, rho) -> LatticeState:
    """Lattice state mu(element) = trace(rho P_element).

    Traces are clamped to [0, 1] and snapped to nearby rationals so the
    result interoperates with the exact state axioms; check snapped values
    with ``is_state(..., tol=TOL)``.
    """
    rho = validate_density_matrix(rho, dim=pl.dim)
    values = []
    for p in pl.projectors:
        v = float(np.trace(rho @ p).real)
        v = min(1.0, max(0.0, v))
        values.append(Fraction(v).limit_denominator(_SNAP_DENOMINATOR))
    return LatticeState(tuple(values))


def _effect(projectors: np.ndarray, element, answer: bool) -> np.ndarray:
    """The projector E an answer applies: P for true, I - P for false."""
    p = projectors[element]
    return p if answer else np.eye(p.shape[-1]) - p


def _updated(projectors: np.ndarray, sigma: np.ndarray, steps) -> np.ndarray:
    """The unnormalized state after the Luders updates ``steps``: each sandwiches it with E."""
    for element, answer in steps:
        e = _effect(projectors, element, answer)
        sigma = e @ sigma @ e
    return sigma


def _luders(projectors: np.ndarray, sigma: np.ndarray, steps) -> np.ndarray:
    """Joint probability of ``steps`` under chained Luders updates of ``sigma``.

    ``sigma`` is an unnormalized state: the preparation, or what a shared
    prefix of answers left of it (:func:`_updated`), so that many sequences
    with one prefix update it once.  Each step but the last sandwiches the
    state with P (answer true) or I - P (answer false), with no
    renormalization; the last needs no post-measurement state and is read as
    tr(E sigma), which equals tr(E sigma E) for a projector E.  A step's
    element may be an index array or a slice into the stacked ``projectors``;
    the steps and the leading axes of ``sigma`` then broadcast and so does
    the result.
    """
    if not steps:
        return np.clip(np.trace(sigma, axis1=-2, axis2=-1).real, 0.0, 1.0)
    *prefix, (element, answer) = steps
    e = _effect(projectors, element, answer)
    traced = np.einsum("...ij,...ji->...", e, _updated(projectors, sigma, prefix))
    return np.clip(traced.real, 0.0, 1.0)


def _answered(projectors: np.ndarray, rho: np.ndarray, probe) -> dict[bool, np.ndarray]:
    """The unnormalized states ``rho`` is left in when ``probe`` answers true and false."""
    return {a: _updated(projectors, rho, [(probe, a)]) for a in (True, False)}


def _agreement(projectors: np.ndarray, answered, probe, intermediate=None) -> np.ndarray:
    """Probability that ``probe`` answers alike twice, from its states ``answered``."""
    middles = [[]] if intermediate is None else [[(intermediate, b)] for b in (True, False)]
    total = sum(
        _luders(projectors, answered[a], [*middle, (probe, a)])
        for a in (True, False)
        for middle in middles
    )
    return np.minimum(1.0, total)


def sequence_probability(pl: ProjectorLattice, rho, sequence) -> float:
    """Probability of a full answer sequence under chained Luders updates."""
    rho = validate_density_matrix(rho, dim=pl.dim)
    steps = _steps_of(sequence)
    _checked_indices(pl.n, (element for element, _ in steps))
    return float(_luders(pl.projector_stack, rho, steps))


def isolated_check(
    pl: ProjectorLattice, rho, probe: int, intermediate: int | None = None
) -> float:
    """Probability that two probe inquiries agree, marginalizing the middle one."""
    rho = validate_density_matrix(rho, dim=pl.dim)
    _checked_indices(pl.n, (probe,) if intermediate is None else (probe, intermediate))
    projectors = pl.projector_stack
    answered = _answered(projectors, rho, probe)
    return float(_agreement(projectors, answered, probe, intermediate))


def detectability(pl: ProjectorLattice, probe: int, alpha: int) -> float:
    """Disturbance of an ``alpha`` inquiry as seen by repeated probes.

    Evaluated at the maximally mixed preparation; positive exactly when the
    two projectors fail to commute.
    """
    agreement = isolated_check(pl, maximally_mixed(pl.dim), probe, alpha)
    return max(0.0, 1.0 - agreement)


# ---------------------------------------------------------------------------
# reconstruction from the probability oracle, at the maximally mixed
# preparation (valid by construction).  Every clause about ``a`` and ``b``
# starts with ``a`` answered, so each row ``a`` updates the preparation once
# per answer and reads every ``b`` from those two states, a tile of rows
# and columns per kernel call.


def _certain(projectors: np.ndarray, sigma: np.ndarray, question) -> np.ndarray:
    """Is ``question`` certain in the state ``sigma`` that a condition left?

    A null condition, of probability ``tr(sigma) <= TOL``, makes it so.
    """
    den = _luders(projectors, sigma, [])
    num = _luders(projectors, sigma, [question])
    ratio = np.divide(num, den, out=np.ones_like(num), where=den > TOL)
    return np.abs(ratio - 1.0) <= TOL


def infer_order(pl: ProjectorLattice) -> np.ndarray:
    """Reconstruct the order from probabilities alone.

    ``a <= b`` iff answering ``a`` true makes a subsequent ``b`` certain and
    the sandwich a, b, a preserves the first answer with certainty, both at
    the maximally mixed preparation.  Must reproduce subspace inclusion.
    """
    projectors, mm, every = pl.projector_stack, maximally_mixed(pl.dim), np.arange(pl.n)
    leq = np.empty((pl.n, pl.n), dtype=bool)
    # a tile's largest transient is one (rows, cols, d, d) complex stack: 2 d^2 words per entry
    answered_rows = None
    for rows, cols in _tiles(pl.n, pl.n, 2 * pl.dim**2):
        a = every[rows, None]
        if rows != answered_rows:  # the column tiles of one row block share its states
            answered, answered_rows = _answered(projectors, mm, a), rows
        stable = np.abs(_agreement(projectors, answered, a, cols) - 1.0) <= TOL
        leq[rows, cols] = _certain(projectors, answered[True], (cols, True)) & stable
    return leq


def infer_complement(pl: ProjectorLattice, a: int) -> int:
    """The unique element answering opposite to ``a`` with certainty, both ways."""
    _checked_indices(pl.n, (a,))
    projectors = pl.projector_stack
    answered = _answered(projectors, maximally_mixed(pl.dim), a)
    both = np.empty(pl.n, dtype=bool)
    for _, cols in _tiles(1, pl.n, 2 * pl.dim**2):  # one row of infer_order's tiles
        flipped = _certain(projectors, answered[True], (cols, False))
        both[cols] = flipped & _certain(projectors, answered[False], (cols, True))
    matches = np.flatnonzero(both)
    if not matches.size:
        raise NoComplement(f"no element complements {pl.lattice.names[a]!r}")
    if matches.size > 1:
        names = [pl.lattice.names[b] for b in matches]
        raise NotUnique(f"multiple complements for {pl.lattice.names[a]!r}: {names}")
    return int(matches[0])
