"""Compatibility, centers, and incompatibility analysis on orthomodular lattices.

Two elements are compatible when the sublattice generated by them and their
complements is distributive.  On an orthomodular lattice this is equivalent
to the identity (a ^ b) v (~a ^ b) == b, and to the existence of a mutually
orthogonal decomposition a = a' v c, b = b' v c.  All three routes are
implemented independently so they can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadOrtho, NotOrthomodular
from .lattice import (
    Lattice,
    _orthomodular_witness,
    generated_sublattice,
    is_distributive_subset,
)

__all__ = [
    "CenterReport",
    "Decomposition",
    "center",
    "check_incompatible_lemma",
    "compatibility_relation",
    "compatible_decomposition",
    "compatible_via_definition",
    "incompatibility_witness",
    "is_compatible",
    "is_irreducible",
    "require_orthomodular",
]


def require_orthomodular(lattice: Lattice) -> None:
    """Raise :class:`NotOrthomodular` unless the lattice satisfies the law."""
    if lattice.ortho is None:
        raise NotOrthomodular("lattice has no orthocomplementation")
    pair = _orthomodular_witness(lattice.leq, lattice.meet, lattice.join, lattice.ortho)
    if pair is not None:
        a, b = pair
        raise NotOrthomodular(
            f"lattice is not orthomodular at ({lattice.names[a]!r}, {lattice.names[b]!r})",
            witness=pair,
        )


def is_compatible(lattice: Lattice, a: int, b: int) -> bool:
    """Compatibility via (a ^ b) v (~a ^ b) == b; valid on orthomodular lattices."""
    require_orthomodular(lattice)
    return _compatible_identity(lattice, a, b)


def _compatible_identity(lattice: Lattice, a: int, b: int) -> bool:
    na = lattice.ortho[a]
    return int(lattice.join[lattice.meet[a, b], lattice.meet[na, b]]) == b


def compatibility_relation(lattice: Lattice) -> np.ndarray:
    """Boolean matrix of pairwise compatibility (symmetric on OMLs)."""
    require_orthomodular(lattice)
    n = lattice.n
    ar = np.arange(n)
    meet, join, ortho = lattice.meet, lattice.join, lattice.ortho
    rebuilt = join[meet, meet[ortho, :]]
    return rebuilt == ar[None, :]


def compatible_via_definition(lattice: Lattice, a: int, b: int) -> bool:
    """Compatibility from the definition: the generated sublattice is distributive.

    Only needs an orthocomplementation, so it also serves non-orthomodular
    lattices where the identity shortcut is unsound.
    """
    if lattice.ortho is None:
        raise BadOrtho("compatibility needs an orthocomplementation")
    seed = (a, int(lattice.ortho[a]), b, int(lattice.ortho[b]))
    block = generated_sublattice(lattice, seed)
    ok, _ = is_distributive_subset(lattice, block)
    return ok


@dataclass(frozen=True)
class Decomposition:
    """Mutually orthogonal triple with a = a_part v common, b = b_part v common."""

    a_part: int
    b_part: int
    common: int


def _decomposition_is_valid(lattice: Lattice, a: int, b: int, d: Decomposition) -> bool:
    leq, join, ortho = lattice.leq, lattice.join, lattice.ortho
    pairs = ((d.a_part, d.b_part), (d.a_part, d.common), (d.b_part, d.common))
    if not all(leq[x, ortho[y]] for x, y in pairs):
        return False
    return int(join[d.a_part, d.common]) == a and int(join[d.b_part, d.common]) == b


def _decomposition_search(lattice: Lattice, a: int, b: int) -> Decomposition | None:
    """Exhaustive scan over all candidate triples; None when none is valid."""
    n = lattice.n
    leq, join, ortho = lattice.leq, lattice.join, lattice.ortho
    for common in range(n):
        a_parts = np.flatnonzero((join[:, common] == a) & leq[:, ortho[common]])
        if not a_parts.size:
            continue
        b_parts = np.flatnonzero((join[:, common] == b) & leq[:, ortho[common]])
        if not b_parts.size:
            continue
        hits = leq[np.ix_(a_parts, ortho[b_parts])]
        if hits.any():
            i, j = np.argwhere(hits)[0]
            return Decomposition(int(a_parts[i]), int(b_parts[j]), common)
    return None


def compatible_decomposition(lattice: Lattice, a: int, b: int) -> Decomposition | None:
    """Orthogonal decomposition witnessing compatibility, or ``None``.

    For compatible pairs returns (a ^ ~b, b ^ ~a, a ^ b).  For incompatible
    pairs on lattices with at most 32 elements, an exhaustive search doubles
    as a consistency check that no valid triple exists at all.
    """
    require_orthomodular(lattice)
    if _compatible_identity(lattice, a, b):
        found = Decomposition(
            int(lattice.meet[a, lattice.ortho[b]]),
            int(lattice.meet[b, lattice.ortho[a]]),
            int(lattice.meet[a, b]),
        )
        assert _decomposition_is_valid(lattice, a, b, found)
        return found
    if lattice.n <= 32 and _decomposition_search(lattice, a, b) is not None:
        raise AssertionError(
            "decomposition exists for a pair the identity calls incompatible"
        )
    return None


def incompatibility_witness(lattice: Lattice, q: int) -> int | None:
    """First element a with (q ^ a) v (q ^ ~a) != q, or ``None``.

    ``None`` is guaranteed for the bounds; more generally it holds exactly
    for central elements.
    """
    if lattice.ortho is None:
        raise BadOrtho("incompatibility witness needs an orthocomplementation")
    meet, join, ortho = lattice.meet, lattice.join, lattice.ortho
    rebuilt = join[meet[q, :], meet[q, ortho]]
    bad = np.flatnonzero(rebuilt != q)
    return int(bad[0]) if bad.size else None


@dataclass(frozen=True)
class CenterReport:
    """Elements compatible with everything; trivial means just the bounds."""

    members: tuple[int, ...]
    is_trivial: bool


def center(lattice: Lattice) -> CenterReport:
    """All elements compatible with every element of the lattice."""
    relation = compatibility_relation(lattice)
    members = tuple(int(i) for i in np.flatnonzero(relation.all(axis=1)))
    trivial = set(members) == {lattice.bottom, lattice.top}
    return CenterReport(members=members, is_trivial=trivial)


def is_irreducible(lattice: Lattice) -> bool:
    """True iff the center is trivial (no direct-union split exists)."""
    return center(lattice).is_trivial


def check_incompatible_lemma(
    lattice: Lattice,
) -> tuple[bool, tuple[int, int, int] | None]:
    """Scan for a < b with a incompatible to some c but b compatible to c.

    Incompatibility must propagate upward, so a valid orthomodular lattice
    yields ``(True, None)``; a counterexample triple (a, b, c) is returned
    otherwise.
    """
    relation = compatibility_relation(lattice)
    strict = lattice.leq & ~np.eye(lattice.n, dtype=bool)
    for a in range(lattice.n):
        above = np.flatnonzero(strict[a])
        bad = relation[above] & ~relation[a]
        if bad.any():
            i, c = np.argwhere(bad)[0]
            return False, (a, int(above[i]), int(c))
    return True, None
