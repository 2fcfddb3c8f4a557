"""Question lattices from finite-dimensional quantum systems.

A set of projectors is closed under orthogonal complement, subspace
intersection, and span; the resulting finite family ordered by subspace
inclusion is an orthomodular lattice.  Projective (Luders) updates give
probabilities for time-ordered answer sequences, from which the order and
the complement can be reconstructed purely from the probability oracle.

Matrices are plain complex ndarrays.  Every numerical decision uses the
one tolerance ``TOL = 1e-9``; dimensions up to 8 stay well-conditioned at
that scale:

- projector: :func:`validate_projector` accepts a matrix within ``TOL`` of
  hermitian and of idempotent, which pins every eigenvalue within about
  ``TOL`` of 0 or 1, and returns the projector onto its eigenvectors with
  eigenvalue above 1/2, a split with a margin of about 1/2.  Every element
  of a closure is thus an exact projector up to rounding;
- rank: a singular value counts when it is ``> TOL``;
- match: a projector equals the first element, in discovery order, whose
  Frobenius distance to it is ``<= TOL``;
- commuting pairs: the closure reads the meet and join of P and Q as PQ and
  P + Q - PQ when ``||PQ - QP||_F`` is at most ``_COMMUTATOR_BOUND``
  (``TOL / 1000``), and drops either one without its SVD when it lies
  within ``TOL / 2`` of an element already found.  The principal angles of
  such a pair lie within O(bound) of 0 or pi/2, so the SVD's span is within
  O(bound) of the same candidate and within ``TOL / 2 + O(bound) < TOL`` of
  that element: the match drops it too (:func:`_commuting_matched`);
- order: P <= Q when the closure's meet of P and Q matches P;
- certainty: a conditional probability ``num / den`` is certain when
  ``|num / den - 1| <= TOL``;
- null condition: a condition with probability ``den <= TOL`` makes every
  question certain;
- reconstruction: the tiled kernel's probabilities differ from those of
  :func:`sequence_probability` only by rounding, so a decision within
  ``_MARGIN`` (``TOL / 1000``) of its threshold is taken again from
  ``sequence_probability``'s own computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial

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
    _read_only,
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
    """The exact projector that ``matrix`` approximates, as a complex array.

    Hermiticity and idempotence within ``TOL`` are verified; together they
    already pin the eigenvalues to {0, 1} at the same scale.  The result is
    the projector onto the eigenvectors whose eigenvalue is above 1/2: it is
    hermitian and idempotent up to rounding, of the same rank as ``matrix``
    and within about ``TOL`` of it.
    """
    p = np.asarray(matrix, dtype=complex)
    if not np.isfinite(p).all():
        raise BadProjector("projector has non-finite entries")
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise BadProjector(f"projector must be square, got shape {p.shape}")
    if not p.size:
        raise BadProjector("projector must have dimension at least 1")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.shape[0]}")
    # |P_ij|^2 <= P_ii P_jj <= 1 for a projector; the bound keeps P @ P finite
    if np.abs(p).max(initial=0.0) > 1 + TOL:
        raise BadProjector("projector has an entry of modulus above 1")
    if np.linalg.norm(p - p.conj().T) > TOL:
        raise BadProjector("matrix is not hermitian within tolerance")
    if np.linalg.norm(p @ p - p) > TOL:
        raise BadProjector("matrix is not idempotent within tolerance")
    values, vectors = np.linalg.eigh(p)
    basis = vectors[:, values > 0.5]
    return basis @ basis.conj().T


def validate_density_matrix(matrix, *, dim: int | None = None) -> np.ndarray:
    """Check hermitian, positive semidefinite, unit trace within ``TOL``."""
    rho = np.asarray(matrix, dtype=complex)
    if not np.isfinite(rho).all():
        raise BadDensityMatrix("density matrix has non-finite entries")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise BadDensityMatrix(f"density matrix must be square, got shape {rho.shape}")
    if not rho.size:
        raise BadDensityMatrix("density matrix must have dimension at least 1")
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


def _real_rows(x: np.ndarray) -> np.ndarray:
    """A complex ``(k, d, d)`` stack as k real rows of 2 d^2 entries, a view where it can be."""
    rows = np.ascontiguousarray(x, dtype=complex).reshape(len(x), x.shape[1] * x.shape[2])
    return rows.view(float)


@lru_cache
def _key_direction(dim: int) -> np.ndarray:
    """The unit vector of 2 d^2 reals that projects a real row onto its match key.

    Any unit vector keeps every match in its window; a generic one, such as
    this, keeps distinct elements apart, so a window holds little else.
    """
    direction = np.sin(np.arange(1, 2 * dim * dim + 1))
    return _read_only(direction / np.linalg.norm(direction))  # one array, shared by every call


class _Elements:
    """Projectors in discovery order, with the match key every match reads.

    Each element's key (its real row projected on ``_key_direction``) is
    computed once, for the batch it comes in, and copied with it by
    :meth:`extend`; the keys are kept sorted, ``by_key`` giving the order.
    """

    def __init__(self, stack: np.ndarray):
        self.stack = np.asarray(stack, dtype=complex)
        self.keys = _real_rows(self.stack) @ _key_direction(self.stack.shape[-1])
        self._sort()

    def _sort(self) -> None:
        self.by_key = np.argsort(self.keys)
        self.sorted_keys = self.keys[self.by_key]

    @property
    def n(self) -> int:
        return len(self.stack)

    def extend(self, other: "_Elements", which) -> None:
        """Append the elements ``which`` of ``other``, with their keys."""
        self.stack = np.concatenate([self.stack, other.stack[which]])
        self.keys = np.concatenate([self.keys, other.keys[which]])
        self._sort()


def _matched(
    elements: _Elements, candidates: np.ndarray, tol: float = TOL, start: int = 0
) -> np.ndarray:
    """Per candidate, the first element from ``start`` on within Frobenius distance ``tol``, or -1.

    A match lies within ``tol`` of the candidate, so its key does too (the
    key direction is a unit vector).  Rounding moves a key by ~1e-14 for
    entries of size 1, so a window of twice ``tol`` around the candidate's
    key, found by bisection in the sorted keys, holds every match.  The few
    pairs in the windows are decided by the Frobenius norm of their difference.
    """
    keys = _real_rows(candidates) @ _key_direction(candidates.shape[-1])
    lo = np.searchsorted(elements.sorted_keys, keys - 2 * tol)
    counts = np.searchsorted(elements.sorted_keys, keys + 2 * tol, side="right") - lo
    near_c = np.repeat(np.arange(len(keys)), counts)
    windows = np.arange(len(near_c)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    near_k = elements.by_key[windows]
    near_c, near_k = near_c[near_k >= start], near_k[near_k >= start]
    hits = np.linalg.norm(elements.stack[near_k] - candidates[near_c], axis=(1, 2)) <= tol
    first = np.full(len(keys), elements.n)
    np.minimum.at(first, near_c[hits], near_k[hits])
    first[first == elements.n] = -1
    return first


def _commuting_matched(elements: _Elements, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The element each join and meet (slices 2k and 2k + 1 for pair k) matches, with no SVD.

    Only pairs that commute are decided; every other slice reads -1.
    Every element is a projector up to rounding, as ``validate_projector``
    snaps the generators and the closure adds only spans and complements.

    For hermitian P and Q, QP = (PQ)^H, so ||PQ - QP||_F = ||C - C^H||_F with
    C = PQ; the pair is certified when it is at most the bound, d = TOL / 1000.
    Halmos's two-subspace theorem then puts every principal angle between
    the ranges of P and Q within O(d) of 0 or pi/2.  The singular values of
    [P Q] and of [I-P I-Q] are then each O(d), far below ``TOL``, or near 1
    and above, so the ranks ``_spans`` finds are those of the commuting
    pair, and its join and meet lie within O(d) of P + Q - M and M, where
    M = (C + C^H)/2.  A candidate found within ``TOL / 2`` of an element has
    its SVD span within TOL / 2 + O(d) < TOL of the same element, so
    ``_matched`` would drop it as well: this filter never decides a
    candidate differently, it only skips the SVD of one that would be dropped.

    The index returned is that of the element found, as the closure reads
    the order off the meets.  It is also the SVD path's match, the first
    element within ``TOL`` of the span, unless an earlier element lies within
    ``TOL`` of the span too, and so within about 1.5 ``TOL`` of the element
    found.  Elements lie more than ``TOL`` apart; two that close come only
    from inputs with subspaces a few ``TOL`` apart, where the rank and match
    rules decide at their thresholds.
    """
    c = p @ q
    c_h = c.conj().swapaxes(1, 2)
    commuting = np.linalg.norm(c - c_h, axis=(1, 2)) <= _COMMUTATOR_BOUND
    if not commuting.any():
        return np.full(2 * len(p), -1)
    # every pair's join, then every meet; those of uncertified pairs are masked below
    candidates = np.empty((2, *p.shape), dtype=complex)
    meets = np.add(c, c_h, out=candidates[1])
    meets /= 2
    joins = np.add(p, q, out=candidates[0])
    joins -= meets
    found = _matched(elements, candidates.reshape(-1, *p.shape[1:]), TOL / 2)
    return np.where(commuting, found.reshape(2, -1), -1).T.ravel()


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
        return _read_only(np.stack(self.projectors))  # a copy, so no caller's array is frozen


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
    elements = _Elements(np.empty((0, dim, dim)))
    labels: list[str | None] = []
    complement = np.empty(0, dtype=int)  # the index of each element's I - P, once its round ran
    below: list[np.ndarray] = []  # the pairs P < Q, as (2, k) arrays of discovery indices

    def add(ps: np.ndarray) -> np.ndarray:
        """Match or append each of ``ps`` in order; its element's index.

        One match against the elements found before the batch decides every
        candidate that one of them holds: an older element always wins the
        first match.  One match of the rest against each other gives each the
        first of them it lies near, if any; when that one was appended it is
        the candidate's match, and only a candidate whose first neighbour was
        itself matched is compared with what the batch appended.  So the
        discovery order and the point where ClosureTooLarge is raised are
        those of one add per candidate.
        """
        ps = (ps + ps.conj().swapaxes(1, 2)) / 2
        before = elements.n
        found = _matched(elements, ps) if before else np.full(len(ps), -1)
        new = np.flatnonzero(found < 0)
        if not new.size:
            return found
        batch = _Elements(ps[new])
        neighbour = np.arange(len(new))
        keys = batch.sorted_keys
        if (keys[1:] - keys[:-1] <= 2 * TOL).any():  # else no two lie within TOL
            neighbour = _matched(batch, batch.stack)
        kept: list[int] = []  # of the batch, in order: appended, or about to be
        appended = np.zeros(len(new), dtype=bool)
        for t, k in enumerate(new):
            s = neighbour[t]
            if s < t and appended[s]:
                found[k] = found[new[s]]
                continue
            if s < t:
                elements.extend(batch, kept)
                kept = []
                found[k] = _matched(elements, ps[k : k + 1], start=before)[0]
                if found[k] >= 0:
                    continue
            if elements.n + len(kept) >= max_elements:
                raise ClosureTooLarge(f"projector closure exceeds {max_elements} elements")
            found[k] = elements.n + len(kept)
            kept.append(t)
            appended[t] = True
        elements.extend(batch, kept)
        labels.extend([None] * (elements.n - len(labels)))
        return found

    given = ["0", "1", *([None] * len(mats) if names is None else map(str, names))]
    for i, label in zip(add(np.stack([np.zeros_like(eye), eye, *mats])), given):
        if labels[i] is None:
            labels[i] = label

    # semi-naive rounds: a pair of older elements was combined in an earlier
    # round, so each round combines only pairs that include a newer element.
    # The pairs go in blocks, in the order of the double loop i < j.  First
    # _commuting_matched drops each commuting pair's join and meet that the
    # elements found before the block already hold, with no SVD.  A stacked
    # SVD gives every other join (span of [P Q]) and meet (by De Morgan, the
    # complement of the span of [I-P I-Q]), in chunks, and add() keeps the
    # new ones in order: the elements, their order and labels, and the point
    # where ClosureTooLarge is raised are those of one add per candidate.
    # The element a pair's meet matches, by either path, gives the order.
    # A pair's filter transients take about 128 d^2 bytes together, the
    # largest of them (its join and meet) 32 d^2, and its SVD's (two (d, 2d)
    # inputs, u, vh, two candidates) about 256 d^2.  A round's first filter
    # block keeps them all under _BLOCK_BYTES; a block whose candidates were
    # all dropped doubles the next, up to where the largest alone fills it.
    # New elements come in bursts, and a small block after one sends few
    # copies of a new element to the SVD.  Each SVD chunk of a block's
    # pending slices stays under _BLOCK_BYTES.
    smallest = max(1, _BLOCK_BYTES // (128 * dim * dim))
    largest = max(1, _BLOCK_BYTES // (32 * dim * dim))
    slices_per_chunk = 2 * max(1, _BLOCK_BYTES // (256 * dim * dim))
    eye2 = np.hstack([eye, eye])
    fresh = 0
    while fresh < elements.n:
        before = elements.n
        complement = np.concatenate([complement, add(eye - elements.stack[fresh:before])])
        for i in range(fresh, before):
            j = complement[i]
            if labels[j] is None and labels[i] is not None:
                labels[j] = "~" + labels[i]
        # the pairs i < j with j new, in the order of the double loop
        left, right = np.nonzero(np.arange(before)[:, None] < np.arange(fresh, before))
        right += fresh
        meet_element = np.empty_like(left)  # the element each pair's meet matched
        size, lo = smallest, 0
        while lo < len(left):
            block = slice(lo, lo + size)
            lo += size
            firsts, seconds = elements.stack[left[block]], elements.stack[right[block]]
            # slice 2k is pair k's join, slice 2k + 1 its meet
            matched = _commuting_matched(elements, firsts, seconds)
            pending = np.flatnonzero(matched < 0)
            for chunk in range(0, len(pending), slices_per_chunk):
                slices = pending[chunk : chunk + slices_per_chunk]
                pairs, meets = slices // 2, slices % 2 == 1
                blocks = np.concatenate([firsts[pairs], seconds[pairs]], axis=2)
                blocks[meets] = eye2 - blocks[meets]
                spans = _spans(blocks)
                spans[meets] = eye - spans[meets]
                matched[slices] = add(spans)
            size = smallest if pending.size else min(2 * size, largest)
            meet_element[block] = matched[1::2]
        # every pair is combined in one round, and P < Q exactly when their meet is P
        for low, high in ((left, right), (right, left)):
            below.append(np.stack([low, high])[:, meet_element == low])
        fresh = before

    order = np.argsort(np.rint(np.trace(elements.stack, axis1=1, axis2=2).real), kind="stable")
    stack = elements.stack[order]
    labels = [labels[i] for i in order]
    # every I - P_i was matched or appended in its round: the first match, in
    # discovery order, is the first in this order too (matched elements share a rank)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    ortho = position[complement[order]]
    leq = np.eye(len(order), dtype=bool)
    low, high = position[np.concatenate(below, axis=1)]
    leq[low, high] = True

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


def _luders(projectors: np.ndarray, rho: np.ndarray, steps) -> np.ndarray:
    """Joint probability of ``steps`` under chained Luders updates of the preparation ``rho``.

    Each step but the last sandwiches the state with P (answer true) or
    I - P (answer false), with no renormalization; the last needs no
    post-measurement state and is read as tr(E sigma) of the state sigma the
    others leave, which equals tr(E sigma E) for a projector E.  A step's
    element may be an index array or a slice into the stacked
    ``projectors``; the steps then broadcast and so does the result.
    """
    if not steps:
        return np.clip(np.trace(rho, axis1=-2, axis2=-1).real, 0.0, 1.0)
    *prefix, (element, answer) = steps
    e = _effect(projectors, element, answer)
    traced = np.einsum("...ij,...ji->...", e, _updated(projectors, rho, prefix))
    return np.clip(traced.real, 0.0, 1.0)


def _agreement(projectors: np.ndarray, rho: np.ndarray, probe, intermediate=None) -> np.ndarray:
    """Probability that ``probe`` answers alike twice, summed over the answers of ``intermediate``."""
    middles = [[]] if intermediate is None else [[(intermediate, y)] for y in (True, False)]
    total = sum(
        _luders(projectors, rho, [(probe, x), *middle, (probe, x)])
        for x in (True, False)
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
    return float(_agreement(pl.projector_stack, rho, probe, intermediate))


def detectability(pl: ProjectorLattice, probe: int, alpha: int) -> float:
    """Disturbance of an ``alpha`` inquiry as seen by repeated probes.

    Evaluated at the maximally mixed preparation; above ``TOL`` exactly when
    the two projectors fail to commute (a commuting pair may read a rounding
    error, a few times 1e-16, above 0).
    """
    _checked_indices(pl.n, (probe, alpha))
    agreement = _agreement(pl.projector_stack, maximally_mixed(pl.dim), probe, alpha)
    return max(0.0, 1.0 - float(agreement))


# ---------------------------------------------------------------------------
# reconstruction from the probability oracle, at the maximally mixed
# preparation (valid by construction).  Every clause about ``a`` and ``b``
# starts with ``a`` answered, so one tiled kernel reads every ``b`` of a block
# of rows from the states the rows' answers leave, and gives the order and
# the complement clauses of every pair.  Its probabilities are those of
# :func:`sequence_probability` rewritten by linearity and cyclicity of the
# trace, so they differ from them only by rounding; a decision that lands
# within ``_MARGIN`` of its threshold is taken again from
# ``sequence_probability``'s own computation, pair by pair.

# rounding moves the kernel's probabilities by ~1e-14 for projectors
_MARGIN = TOL * 1e-3


def _literal_clauses(projectors: np.ndarray, rho: np.ndarray, a: int, b: int) -> tuple[bool, bool]:
    """``a <= b``, and ``b`` complementing ``a``, from one probability per sequence.

    Each probability is the ``_luders`` call that :func:`sequence_probability`
    makes, so these are the decisions of the per-pair definitions, rounding
    and all.
    """

    certain = partial(_certain, projectors, rho)
    leq = certain((a, True), (b, True)) and abs(_agreement(projectors, rho, a, b) - 1.0) <= TOL
    return leq, certain((a, True), (b, False)) and certain((a, False), (b, True))


class _Answered:
    """What every clause about a block of rows ``a`` reads, for the answers x = true, false.

    With E the effect of x (P_a, or I - P_a) and S = E rho E the state it
    leaves, all (2, rows, ...): ``effects`` E and ``states`` S;
    ``conditions`` tr(E rho), the probability of the answer; ``traces``
    tr(S) and ``after`` tr(E S); ``rows``, the real rows of S^H and of
    Y^H, Y = S E + E S, whose products with P_b's real row are Re tr(P_b S)
    and Re tr(P_b Y); and ``lhs``, E and S for both answers laid out
    (d, 2 rows d) for the products P_b E and P_b S.
    """

    def __init__(self, block: np.ndarray, rho: np.ndarray):
        dim = block.shape[-1]
        self.effects = np.stack([block, np.eye(dim) - block])
        self.states = self.effects @ rho @ self.effects
        self.conditions = np.clip(np.einsum("xaij,ji->xa", self.effects, rho).real, 0.0, 1.0)
        self.traces = np.einsum("xaii->xa", self.states).real
        self.after = np.einsum("xaij,xaji->xa", self.effects, self.states).real
        symmetric = self.states @ self.effects + self.effects @ self.states
        both = np.concatenate([self.states, symmetric]).reshape(-1, dim, dim)
        self.rows = _real_rows(both.conj().swapaxes(1, 2))
        # E and S for both answers, each laid out (d, 2 rows d)
        pairs = np.stack([self.effects, self.states])
        self.lhs = pairs.transpose(0, 3, 1, 2, 4).reshape(2, dim, -1)


def _certainty(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether ``num / den`` is certain (a null condition makes it so), and which
    decisions lie within ``_MARGIN`` of ``TOL``, counting the ratio's own rounding."""
    null = den <= TOL
    ratio = num / np.where(null, 1.0, den)
    deviation = np.abs(ratio - 1.0)
    near = (np.abs(den - TOL) <= _MARGIN) | (
        ~null & (np.abs(deviation - TOL) * den <= _MARGIN * (1.0 + np.abs(ratio)))
    )
    return null | (deviation <= TOL), near


def _certain(projectors: np.ndarray, rho: np.ndarray, condition, question) -> bool:
    """Whether answering ``condition`` makes ``question`` certain: :func:`_certainty`'s
    rule for one pair, from the ``_luders`` calls :func:`sequence_probability` makes."""
    den = float(_luders(projectors, rho, [condition]))
    if den <= TOL:
        return True
    return abs(float(_luders(projectors, rho, [condition, question])) / den - 1.0) <= TOL


def _sandwiches(columns: np.ndarray, answered: _Answered, needed: np.ndarray) -> np.ndarray:
    """tr(E_a P_b S_a P_b) = tr((P_b E_a)(P_b S_a)) for both answers, rows a and columns b.

    Per chunk of columns with a ``needed`` (rows, cols) entry, two
    (cols d, d) by (d, 2 rows d) products and one contraction; the two
    products stay under ``_BLOCK_BYTES`` together.  Other entries are 0.
    """
    dim = columns.shape[-1]
    effects, states = answered.lhs
    rows = effects.shape[1] // dim
    step = max(1, _BLOCK_BYTES // (32 * dim * dim * rows))
    out = np.zeros((rows, len(columns)))
    wanted = needed.any(axis=0)
    for lo in range(0, len(columns), step):
        if not wanted[lo : lo + step].any():
            continue
        flat = columns[lo : lo + step].reshape(-1, dim)
        shape = (-1, dim, rows, dim)
        products = (flat @ effects).reshape(shape), (flat @ states).reshape(shape)
        out[:, lo : lo + step] = np.einsum("biaj,bjai->ab", *products).real
    return out.reshape(2, -1, len(columns))


def _clauses(
    projectors: np.ndarray,
    rho: np.ndarray,
    rows: slice,
    cols: slice,
    answered: _Answered,
) -> tuple[np.ndarray, np.ndarray]:
    """``a <= b`` and ``b`` complementing ``a`` for the tile ``rows`` x ``cols``.

    a <= b: answering a true makes b certain, tr(P_b S) / tr(P_a rho), and the
    sequences a, b, a give back the first answer with certainty, summed over
    both answers of each; b complements a: answering a true makes b false
    certain and answering a false makes b true certain.  The terms with b
    false come from those with b true by linearity: tr((I - P_b) S) =
    tr(S) - tr(P_b S), and tr(E (I - P_b) S (I - P_b)) = tr(E S) - tr(P_b Y)
    + tr(E P_b S P_b).  The sequences a, b, a are read only for the columns
    where some pair's first clause holds, as the order needs both.
    """
    columns = projectors[cols]
    traced = (answered.rows @ _real_rows(columns).T).reshape(4, -1, len(columns))
    # a true then b true, a true then b false, a false then b true
    nums = np.stack([traced[0], answered.traces[0][:, None] - traced[0], traced[1]])
    dens = answered.conditions[[0, 0, 1], :, None]
    certain, near = _certainty(np.clip(nums, 0.0, 1.0), dens)
    implied, comp, near = certain[0], certain[1] & certain[2], near.any(axis=0)
    sandwiched = _sandwiches(columns, answered, implied & ~near)
    flipped = answered.after[:, :, None] - traced[2:] + sandwiched
    agree = np.minimum(1.0, (np.clip(sandwiched, 0.0, 1.0) + np.clip(flipped, 0.0, 1.0)).sum(0))
    deviation = np.abs(agree - 1.0)
    leq = implied & (deviation <= TOL)
    near |= implied & (np.abs(deviation - TOL) <= 4 * _MARGIN)
    for a, b in zip(*np.nonzero(near)):
        leq[a, b], comp[a, b] = _literal_clauses(projectors, rho, rows.start + a, cols.start + b)
    return leq, comp


def _tiled_clauses(pl: ProjectorLattice, rows: slice = slice(None)):
    """``(rows, cols, leq, comp)`` per tile of the rows ``rows`` by every column.

    A tile holds about sixteen (rows, cols) float arrays, one word per entry
    each; a row block's states serve all its column tiles.
    """
    projectors, dim = pl.projector_stack, pl.dim
    rho = maximally_mixed(dim)
    first, last, _ = rows.indices(pl.n)
    answered_rows = None
    for block, cols in _tiles(last - first, pl.n, 16):
        block = slice(block.start + first, block.stop + first)
        if block != answered_rows:
            answered, answered_rows = _Answered(projectors[block], rho), block
        yield block, cols, *_clauses(projectors, rho, block, cols, answered)


def infer_order(pl: ProjectorLattice) -> np.ndarray:
    """Reconstruct the order from probabilities alone.

    ``a <= b`` iff answering ``a`` true makes a subsequent ``b`` certain and
    the sandwich a, b, a preserves the first answer with certainty, both at
    the maximally mixed preparation.  Must reproduce subspace inclusion.
    """
    return _reconstruction(pl)[0]


def infer_complement(pl: ProjectorLattice, a: int) -> int:
    """The unique element answering opposite to ``a`` with certainty, both ways."""
    _checked_indices(pl.n, (a,))
    tiles = _tiled_clauses(pl, slice(a, a + 1))  # one row of infer_order's kernel
    matches = np.concatenate([cols.start + np.flatnonzero(comp) for _, cols, _, comp in tiles])
    if not matches.size:
        raise NoComplement(f"no element complements {pl.lattice.names[a]!r}")
    if matches.size > 1:
        names = [pl.lattice.names[b] for b in matches]
        raise NotUnique(f"multiple complements for {pl.lattice.names[a]!r}: {names}")
    return int(matches[0])


def _reconstruction(pl: ProjectorLattice) -> tuple[np.ndarray, np.ndarray]:
    """:func:`infer_order`, and each row's :func:`infer_complement`, in one pass of the kernel.

    A row without exactly one complement reads -1, where ``infer_complement`` raises.
    """
    leq = np.empty((pl.n, pl.n), dtype=bool)
    first = np.full(pl.n, -1)
    count = np.zeros(pl.n, dtype=int)
    for rows, cols, order, comp in _tiled_clauses(pl):
        leq[rows, cols] = order
        fresh = (count[rows] == 0) & comp.any(axis=1)
        first[rows][fresh] = cols.start + comp.argmax(axis=1)[fresh]
        count[rows] += comp.sum(axis=1)
    return leq, np.where(count == 1, first, -1)
