"""Question lattices from finite-dimensional quantum systems.

A set of projectors is closed under orthogonal complement, subspace
intersection, and span; the resulting finite family ordered by subspace
inclusion is an orthomodular lattice.  Projective (Luders) updates give
probabilities for time-ordered answer sequences, from which the order and
the complement can be reconstructed purely from the probability oracle.

Matrices are plain complex ndarrays.  Every numerical decision uses the
tolerance ``tol`` carried by the lattice (1e-9 by default); dimensions up
to 8 stay well-conditioned at that scale:

- rank: a singular value counts when it is ``> tol``;
- match: a projector equals the first element, in discovery order, whose
  Frobenius distance to it is ``<= tol``;
- order: ``P_i <= P_j`` when ``||P_j P_i - P_i|| <= tol``;
- certainty: a conditional probability ``num / den`` is certain when
  ``|num / den - 1| <= tol``;
- null condition: a condition with probability ``den <= tol`` makes every
  question certain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from .lattice import _BLOCK_BYTES, Lattice, _checked_indices, lattice_from_leq
from .states import LatticeState

__all__ = [
    "DEFAULT_TOL",
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

DEFAULT_TOL = 1e-9
_SNAP_DENOMINATOR = 10**12


# ---------------------------------------------------------------------------
# matrices


def validate_projector(matrix, *, dim: int | None = None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return ``matrix`` as a complex array after checking it projects.

    Hermiticity and idempotence within ``tol`` are verified; together they
    already pin the eigenvalues to {0, 1} at the same scale.
    """
    p = np.asarray(matrix, dtype=complex)
    if not np.isfinite(p).all():
        raise BadProjector("projector has non-finite entries")
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise BadProjector(f"projector must be square, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.shape[0]}")
    if np.linalg.norm(p - p.conj().T) > tol:
        raise BadProjector("matrix is not hermitian within tolerance")
    if np.linalg.norm(p @ p - p) > tol:
        raise BadProjector("matrix is not idempotent within tolerance")
    return p


def validate_density_matrix(matrix, *, dim: int | None = None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check hermitian, positive semidefinite, unit trace within ``tol``."""
    rho = np.asarray(matrix, dtype=complex)
    if not np.isfinite(rho).all():
        raise BadDensityMatrix("density matrix has non-finite entries")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise BadDensityMatrix(f"density matrix must be square, got shape {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {rho.shape[0]}")
    if np.linalg.norm(rho - rho.conj().T) > tol:
        raise BadDensityMatrix("density matrix is not hermitian within tolerance")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise BadDensityMatrix("density matrix is not positive semidefinite")
    if abs(np.trace(rho).real - 1.0) > tol:
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
    """Nested lists with entries either numbers or [re, im] pairs."""

    def real(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def entry(x):
        if real(x):
            return complex(x)
        if isinstance(x, (list, tuple)) and len(x) == 2 and all(map(real, x)):
            return complex(x[0], x[1])
        raise ValueError(f"matrix entry must be a number or [re, im], got {x!r}")

    return np.array([[entry(x) for x in row] for row in data], dtype=complex)


def matrix_to_json(matrix) -> list:
    m = np.asarray(matrix, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


# ---------------------------------------------------------------------------
# projector closure


def _spans(blocks: np.ndarray, tol: float) -> np.ndarray:
    """Projectors onto the column spans of a ``(k, d, m)`` stack, from one batched SVD.

    A slice's basis is its left singular vectors with singular value ``> tol``.
    Slices of one rank share one matmul, so each projector is bit for bit the
    ``basis @ basis^H`` of a lone SVD (a zero-masked full-width product is not).
    """
    u, s, _ = np.linalg.svd(blocks, full_matrices=False)
    ranks = np.sum(s > tol, axis=1)
    spans = np.empty((len(blocks), blocks.shape[1], blocks.shape[1]), dtype=complex)
    for rank in set(ranks.tolist()):
        basis = u[ranks == rank, :, :rank]
        spans[ranks == rank] = basis @ basis.conj().swapaxes(1, 2)
    return spans


def _match(stack: np.ndarray, p: np.ndarray, tol: float) -> int | None:
    """Index of the first projector in ``stack`` within Frobenius distance ``tol`` of ``p``."""
    hits = np.flatnonzero(np.linalg.norm(stack - p, axis=(1, 2)) <= tol)
    return int(hits[0]) if hits.size else None


def _matched(stack: np.ndarray, candidates: np.ndarray, tol: float) -> np.ndarray:
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


@dataclass(frozen=True, eq=False)
class ProjectorLattice:
    """A finite orthomodular lattice whose elements carry projectors.

    The embedded :class:`Lattice` order is subspace inclusion, the
    orthocomplement is ``I - P``, meets are intersections and joins spans.
    """

    lattice: Lattice
    projectors: tuple[np.ndarray, ...]
    dim: int
    tol: float

    @property
    def n(self) -> int:
        return self.lattice.n

    def index(self, name: str) -> int:
        return self.lattice.index(name)

    def projector(self, i: int) -> np.ndarray:
        return self.projectors[i]


def projector_lattice(
    generators,
    *,
    tol: float = DEFAULT_TOL,
    names=None,
    max_elements: int = 64,
) -> ProjectorLattice:
    """Close a projector set under complement, intersection, and span.

    Parameters
    ----------
    generators : iterable of matrices
        Projectors of one common dimension.
    tol : float
        Tolerance for rank decisions, matching, and the subspace order.
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
    mats = [validate_projector(g, tol=tol) for g in generators]
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
        i = _match(stack, p, tol)
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
    # The pairs go in blocks, in the order of the double loop i < j: one SVD
    # stack gives each pair's join (span of [P Q]) and meet (by De Morgan, the
    # complement of the span of [I-P I-Q]), then one match against the
    # elements found before the block drops the candidates they already hold.
    # Only the rest go through add(), in order, so the discovery order, the
    # labels and the point where ClosureTooLarge is raised stay those of one
    # add() per candidate: an older element always wins the first match.
    # A pair's transients (two (d, 2d) inputs, u, vh, two candidates) take
    # about 256 d^2 bytes; a block keeps them all under _BLOCK_BYTES.
    pairs_per_block = max(1, _BLOCK_BYTES // (256 * dim * dim))
    eye2 = np.hstack([eye, eye])
    fresh = 0
    while fresh < len(labels):
        before = len(labels)
        for i in range(fresh, before):
            j = add(eye - stack[i])
            if labels[j] is None and labels[i] is not None:
                labels[j] = "~" + labels[i]
        left, right = np.triu_indices(before, 1)
        left, right = left[right >= fresh], right[right >= fresh]
        for lo in range(0, len(left), pairs_per_block):
            block = slice(lo, lo + pairs_per_block)
            joins = np.concatenate([stack[left[block]], stack[right[block]]], axis=2)
            spans = _spans(np.stack([joins, eye2 - joins], axis=1).reshape(-1, dim, 2 * dim), tol)
            spans[1::2] = eye - spans[1::2]
            candidates = (spans + spans.conj().swapaxes(1, 2)) / 2
            for p in candidates[~_matched(stack, candidates, tol)]:
                add(p)
        fresh = before

    order = np.argsort(np.rint(np.trace(stack, axis1=1, axis2=2).real), kind="stable")
    stack = stack[order]
    labels = [labels[i] for i in order]
    leq = np.array([np.linalg.norm(stack @ p - p, axis=(1, 2)) <= tol for p in stack])
    ortho = np.array([_match(stack, eye - p, tol) for p in stack], dtype=np.int64)

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
    return ProjectorLattice(
        lattice=lat, projectors=tuple(stack), dim=dim, tol=tol
    )


def qubit_zx_lattice(tol: float = DEFAULT_TOL) -> ProjectorLattice:
    """Closure of both qubit bases Z and X: six elements, MO2-shaped."""
    return projector_lattice(
        [z0(), z1(), x_plus(), x_minus()],
        names=["Z0", "Z1", "X+", "X-"],
        tol=tol,
    )


def qubit_z_lattice(tol: float = DEFAULT_TOL) -> ProjectorLattice:
    """Closure of one qubit basis vector: the four-element Boolean block."""
    return projector_lattice([z0()], names=["Z0"], tol=tol)


def qutrit_commuting_lattice(tol: float = DEFAULT_TOL) -> ProjectorLattice:
    """Two commuting rank-1 generators in dimension 3: an eight-element Boolean cube."""
    return projector_lattice(
        [basis_projector(3, 0), basis_projector(3, 1)], names=["E1", "E2"], tol=tol
    )


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
        return cls(tuple((int(e), _as_answer(a)) for e, a in steps))

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
    result interoperates with the exact state axioms; checks on snapped
    values should still allow the lattice tolerance.
    """
    rho = validate_density_matrix(rho, dim=pl.dim, tol=pl.tol)
    values = []
    for p in pl.projectors:
        v = float(np.trace(rho @ p).real)
        v = min(1.0, max(0.0, v))
        values.append(Fraction(v).limit_denominator(_SNAP_DENOMINATOR))
    return LatticeState(tuple(values))


def _luders(projectors: np.ndarray, rho: np.ndarray, steps) -> np.ndarray:
    """Joint probability of ``steps`` under chained Luders updates.

    Each step sandwiches the unnormalized state with P (answer true) or
    I - P (answer false); the final trace is the joint probability.  No
    intermediate renormalization takes place.  A step's element may be an
    index array into the stacked ``projectors``; the steps then broadcast
    and so does the result.
    """
    eye = np.eye(rho.shape[-1])
    sigma = rho
    for element, answer in steps:
        p = projectors[element]
        e = p if answer else eye - p
        sigma = e @ sigma @ e
    return np.clip(np.trace(sigma, axis1=-2, axis2=-1).real, 0.0, 1.0)


def _agreement(projectors: np.ndarray, rho: np.ndarray, probe, intermediate=None) -> np.ndarray:
    middles = [[]] if intermediate is None else [[(intermediate, b)] for b in (True, False)]
    total = sum(
        _luders(projectors, rho, [(probe, a), *middle, (probe, a)])
        for a in (True, False)
        for middle in middles
    )
    return np.minimum(1.0, total)


def sequence_probability(pl: ProjectorLattice, rho, sequence) -> float:
    """Probability of a full answer sequence under chained Luders updates."""
    rho = validate_density_matrix(rho, dim=pl.dim, tol=pl.tol)
    steps = _steps_of(sequence)
    _checked_indices(pl.n, (element for element, _ in steps))
    return float(_luders(np.asarray(pl.projectors), rho, steps))


def isolated_check(
    pl: ProjectorLattice, rho, probe: int, intermediate: int | None = None
) -> float:
    """Probability that two probe inquiries agree, marginalizing the middle one."""
    rho = validate_density_matrix(rho, dim=pl.dim, tol=pl.tol)
    _checked_indices(pl.n, (probe,) if intermediate is None else (probe, intermediate))
    return float(_agreement(np.asarray(pl.projectors), rho, probe, intermediate))


def detectability(pl: ProjectorLattice, probe: int, alpha: int) -> float:
    """Disturbance of an ``alpha`` inquiry as seen by repeated probes.

    Evaluated at the maximally mixed preparation; positive exactly when the
    two projectors fail to commute.
    """
    agreement = isolated_check(pl, maximally_mixed(pl.dim), probe, alpha)
    return max(0.0, 1.0 - agreement)


# ---------------------------------------------------------------------------
# reconstruction from the probability oracle: one element ``a`` against every
# ``b`` per kernel call, at the maximally mixed preparation (valid by construction)


def _certain(projectors: np.ndarray, rho: np.ndarray, condition, question, tol: float):
    """Is ``question`` certain given ``condition``?  A null condition makes it so."""
    den = _luders(projectors, rho, condition)
    num = _luders(projectors, rho, [*condition, question])
    ratio = np.divide(num, den, out=np.ones_like(num), where=den > tol)
    return np.abs(ratio - 1.0) <= tol


def infer_order(pl: ProjectorLattice) -> np.ndarray:
    """Reconstruct the order from probabilities alone.

    ``a <= b`` iff answering ``a`` true makes a subsequent ``b`` certain and
    the sandwich a, b, a preserves the first answer with certainty, both at
    the maximally mixed preparation.  Must reproduce subspace inclusion.
    """
    projectors, mm, every = np.asarray(pl.projectors), maximally_mixed(pl.dim), np.arange(pl.n)
    return np.array([
        _certain(projectors, mm, [(a, True)], (every, True), pl.tol)
        & (np.abs(_agreement(projectors, mm, a, every) - 1.0) <= pl.tol)
        for a in range(pl.n)
    ])


def infer_complement(pl: ProjectorLattice, a: int) -> int:
    """The unique element answering opposite to ``a`` with certainty, both ways."""
    _checked_indices(pl.n, (a,))
    projectors, mm, every = np.asarray(pl.projectors), maximally_mixed(pl.dim), np.arange(pl.n)
    flipped = _certain(projectors, mm, [(a, True)], (every, False), pl.tol)
    restored = _certain(projectors, mm, [(a, False)], (every, True), pl.tol)
    matches = np.flatnonzero(flipped & restored)
    if not matches.size:
        raise NoComplement(f"no element complements {pl.lattice.names[a]!r}")
    if matches.size > 1:
        names = [pl.lattice.names[b] for b in matches]
        raise NotUnique(f"multiple complements for {pl.lattice.names[a]!r}: {names}")
    return int(matches[0])
