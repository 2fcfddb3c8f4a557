"""Compatibility, centers, and incompatibility analysis on orthomodular lattices.

Two elements are compatible when the sublattice generated by them and their
complements is distributive.  On an orthomodular lattice this is equivalent
to the identity (a ^ b) v (~a ^ b) == b, and to the existence of a mutually
orthogonal decomposition a = a' v c, b = b' v c.  The definitional route is
independent of the identity; the decomposition route builds its witness
(a ^ ~b, b ^ ~a, a ^ b) from the identity, and the tests check it against an
exhaustive search over all triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadOrtho, NotOrthomodular
from .lattice import (
    Lattice,
    _checked_indices,
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


def _identity_holds(lattice: Lattice, a=slice(None), b=slice(None)):
    """(a ^ b) v (~a ^ b) == b for one pair, or for every a and/or b via slices.

    Slices, unlike broadcast index arrays, read ``meet`` in place.
    """
    meet, join, ortho = lattice.meet, lattice.join, lattice.ortho
    return join[meet[a, b], meet[ortho[a], b]] == np.arange(lattice.n)[b]


def is_compatible(lattice: Lattice, a: int, b: int) -> bool:
    """Compatibility via (a ^ b) v (~a ^ b) == b; valid on orthomodular lattices."""
    require_orthomodular(lattice)
    _checked_indices(lattice.n, (a, b))
    return bool(_identity_holds(lattice, a, b))


def compatibility_relation(lattice: Lattice) -> np.ndarray:
    """Boolean matrix of pairwise compatibility (symmetric on OMLs)."""
    require_orthomodular(lattice)
    return _identity_holds(lattice)


def compatible_via_definition(lattice: Lattice, a: int, b: int) -> bool:
    """Compatibility from the definition: the generated sublattice is distributive.

    Only needs an orthocomplementation, so it also serves non-orthomodular
    lattices where the identity shortcut is unsound.
    """
    if lattice.ortho is None:
        raise BadOrtho("compatibility needs an orthocomplementation")
    _checked_indices(lattice.n, (a, b))
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


def compatible_decomposition(lattice: Lattice, a: int, b: int) -> Decomposition | None:
    """Orthogonal decomposition witnessing compatibility, or ``None``.

    For compatible pairs returns (a ^ ~b, b ^ ~a, a ^ b): the Foulis-Holland
    decomposition, valid on every orthomodular lattice.
    """
    require_orthomodular(lattice)
    _checked_indices(lattice.n, (a, b))
    if not _identity_holds(lattice, a, b):
        return None
    meet, ortho = lattice.meet, lattice.ortho
    return Decomposition(
        int(meet[a, ortho[b]]), int(meet[b, ortho[a]]), int(meet[a, b])
    )


def incompatibility_witness(lattice: Lattice, q: int) -> int | None:
    """First element a with (q ^ a) v (q ^ ~a) != q, or ``None``.

    ``None`` is guaranteed for the bounds; more generally it holds exactly
    for central elements.
    """
    if lattice.ortho is None:
        raise BadOrtho("incompatibility witness needs an orthocomplementation")
    _checked_indices(lattice.n, (q,))
    bad = np.flatnonzero(~_identity_holds(lattice, b=q))
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
