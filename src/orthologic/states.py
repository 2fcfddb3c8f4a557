"""States on orthomodular lattices, exact-rational throughout.

A state assigns each element a value in [0, 1] such that the bounds get 0
and 1, compatible pairs are additive (mu(a) + mu(b) == mu(a^b) + mu(avb)),
and elements valued 1 are closed under meet.  Dispersion-free states are the
two-valued ones, and they live in the center: the 1-set of one is the filter
above a central atom, and every central atom gives one.  A state that reads
values off without disturbing anything therefore sees only the
non-contextual part of the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import center, compatibility_relation
from .errors import NotAState, TooLarge
from .lattice import Lattice, _atoms

__all__ = [
    "DispersionFreeReport",
    "LatticeState",
    "enumerate_dispersion_free",
    "is_dispersion_free",
    "is_state",
    "unary_nogo_certify",
    "unary_nogo_evaluate",
]

MAX_ENUMERATION_SIZE = 64


@dataclass(frozen=True)
class LatticeState:
    """One exact rational value per lattice element, indexed like the lattice."""

    values: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values) -> "LatticeState":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def from_mapping(cls, lattice: Lattice, mapping) -> "LatticeState":
        return cls(tuple(Fraction(mapping[name]) for name in lattice.names))

    def as_mapping(self, lattice: Lattice) -> dict[str, Fraction]:
        return dict(zip(lattice.names, self.values))

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)


def _coerce(state) -> tuple[Fraction, ...]:
    if isinstance(state, LatticeState):
        return state.values
    return LatticeState.from_values(state).values


def is_state(lattice: Lattice, state, *, tol=0) -> tuple[bool, tuple | None]:
    """Check the three state axioms; returns (ok, first violated axiom).

    Witnesses are ``(axiom, element indices)`` with axiom one of ``range``,
    ``normalization``, ``additivity``, ``meet_closure``.  ``tol`` loosens
    every equality; the default 0 demands exact rational equality.
    """
    relation = compatibility_relation(lattice)  # raises NotOrthomodular first
    values = _coerce(state)
    if len(values) != lattice.n:
        raise ValueError(f"state has {len(values)} values for {lattice.n} elements")
    for i, v in enumerate(values):
        if v < -tol or v > 1 + tol:
            return False, ("range", (i,))
    if abs(values[lattice.bottom]) > tol:
        return False, ("normalization", (lattice.bottom,))
    if abs(values[lattice.top] - 1) > tol:
        return False, ("normalization", (lattice.top,))
    meet = lattice.meet
    join = lattice.join
    n = lattice.n
    for a in range(n):
        for b in range(a + 1, n):
            if not relation[a, b]:
                continue
            gap = values[a] + values[b] - values[meet[a, b]] - values[join[a, b]]
            if abs(gap) > tol:
                return False, ("additivity", (a, b))
    ones = [i for i in range(n) if abs(values[i] - 1) <= tol]
    for i, a in enumerate(ones):
        for b in ones[i:]:
            if abs(values[meet[a, b]] - 1) > tol:
                return False, ("meet_closure", (a, b))
    return True, None


def is_dispersion_free(lattice: Lattice, state, *, tol=0) -> bool:
    """True iff the (valid) state takes only the values 0 and 1."""
    ok, why = is_state(lattice, state, tol=tol)
    if not ok:
        raise NotAState(f"not a state: {why[0]} violated at {why[1]}", witness=why[1])
    values = _coerce(state)
    return all(min(abs(v), abs(v - 1)) <= tol for v in values)


@dataclass(frozen=True)
class DispersionFreeReport:
    """All two-valued states plus the center-triviality cross-check.

    ``theorem_consistent`` is false when two-valued states coexist with a
    trivial center.  Every state comes from a central atom, so this happens
    only when the top is itself an atom: on the two-element lattice B2.
    """

    states: tuple[LatticeState, ...]
    center_is_trivial: bool
    theorem_consistent: bool


def enumerate_dispersion_free(lattice: Lattice) -> DispersionFreeReport:
    """Every dispersion-free state, one per central atom m: y -> [m <= y].

    The 1-set of a two-valued state is an up-set closed under meets, so it
    is the principal filter above its least element m.  It holds exactly one
    of y and y' for every y, so m is an atom below y or y' for every y, hence
    central.  Conversely a central atom distributes over joins, so
    y -> [m <= y] is additive, and each central atom gives one state.
    States are listed in lexicographic order of their value vectors.
    Raises :class:`TooLarge` above ``MAX_ENUMERATION_SIZE`` elements and
    :class:`NotOrthomodular` on lattices that are not orthomodular.
    """
    if lattice.n > MAX_ENUMERATION_SIZE:
        raise TooLarge(
            f"{lattice.n} elements exceeds the enumeration cap {MAX_ENUMERATION_SIZE}"
        )
    report = center(lattice)
    atoms = set(_atoms(lattice).tolist())
    rows = sorted(tuple(lattice.leq[m].tolist()) for m in report.members if m in atoms)
    zero_one = (Fraction(0), Fraction(1))
    states = tuple(LatticeState(tuple(zero_one[v] for v in row)) for row in rows)
    return DispersionFreeReport(
        states=states,
        center_is_trivial=report.is_trivial,
        theorem_consistent=not (states and report.is_trivial),
    )


def unary_nogo_evaluate(p, q) -> Fraction:
    """Probability that independent answers agree: p*q + (1-p)*(1-q)."""
    p, q = Fraction(p), Fraction(q)
    return p * q + (1 - p) * (1 - q)


def unary_nogo_certify(step) -> bool:
    """Certify on an exact grid that agreement is certain only at (0,0) and (1,1).

    Scans all pairs from {0, step, 2*step, ...} up to 1 (endpoint included)
    in exact rational arithmetic, so a ``True`` result is a proof over the
    grid, not an approximation.
    """
    step = Fraction(step)
    if step <= 0:
        raise ValueError("grid step must be positive")
    points = []
    value = Fraction(0)
    while value < 1:
        points.append(value)
        value += step
    points.append(Fraction(1))
    for p in points:
        for q in points:
            certain = unary_nogo_evaluate(p, q) == 1
            expected = (p == 0 and q == 0) or (p == 1 and q == 1)
            if certain != expected:
                return False
    return True
