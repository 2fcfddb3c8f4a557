"""Finite bounded lattices with optional orthocomplementation.

Everything is table-driven and exact: the order is a dense boolean matrix,
meets and joins are integer index tables, and every structural property is
decided by exhaustive scan.  Elements are identified by index; names are
display metadata.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadOrtho,
    CycleError,
    NotALattice,
    NotClosed,
    ParseError,
    UnknownName,
)

__all__ = [
    "CATALOG_NAMES",
    "Lattice",
    "PropertyReport",
    "catalog",
    "classify",
    "covers",
    "direct_product",
    "find_order_isomorphism",
    "generated_sublattice",
    "is_distributive_subset",
    "is_order_isomorphic",
    "lattice_from_covers",
    "lattice_from_leq",
    "parse_lattice",
    "serialize_lattice",
]

@dataclass(frozen=True, eq=False)
class Lattice:
    """A finite bounded lattice, optionally orthocomplemented.

    ``leq[a, b]`` holds iff element ``a`` is below ``b``; ``meet``/``join``
    map a pair of indices to the index of its glb/lub; ``ortho``, when
    present, is an orthocomplementation given as a permutation of indices.

    Instances come from the checked builders (:func:`lattice_from_leq` and
    the paths through it, and :func:`direct_product`, which composes two
    certified factors); the dataclass constructor itself checks nothing.
    """

    names: tuple[str, ...]
    leq: np.ndarray
    meet: np.ndarray
    join: np.ndarray
    bottom: int
    top: int
    ortho: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.leq, self.meet, self.join, self.ortho):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """Index of the element called ``name``."""
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownName(f"no element named {name!r}") from None

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])

    def oc(self, a: int) -> int:
        """Orthocomplement index of ``a``."""
        if self.ortho is None:
            raise BadOrtho("lattice has no orthocomplementation")
        return int(self.ortho[a])

    def __repr__(self):  # keep reprs short; tables are bulky
        kind = "ortholattice" if self.ortho is not None else "lattice"
        return f"<{kind} n={self.n} names={list(self.names)!r}>"


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the exhaustive structural scan.

    Every ``False`` flag is backed by a witness ``(property, elements)``
    where ``elements`` is the lexicographically first violating index tuple.
    """

    is_lattice: bool
    is_bounded: bool
    is_orthocomplemented: bool
    is_orthomodular: bool
    is_distributive: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def all_true(self) -> bool:
        return (
            self.is_lattice
            and self.is_bounded
            and self.is_orthocomplemented
            and self.is_orthomodular
            and self.is_distributive
        )


# ---------------------------------------------------------------------------
# order scans


def _order_witness(leq: np.ndarray) -> tuple[str, tuple[int, ...]] | None:
    n = leq.shape[0]
    diag = np.diagonal(leq)
    if not diag.all():
        return ("reflexive", (int(np.flatnonzero(~diag)[0]),))
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        a, b = np.argwhere(sym)[0]
        return ("antisymmetric", (int(a), int(b)))
    broken = (leq @ leq) & ~leq
    if broken.any():
        a, b = np.argwhere(broken)[0]
        return ("transitive", (int(a), int(b)))
    return None


def _find_bounds(leq: np.ndarray) -> tuple[int | None, int | None]:
    bottoms = np.flatnonzero(leq.all(axis=1))
    tops = np.flatnonzero(leq.all(axis=0))
    bottom = int(bottoms[0]) if bottoms.size else None
    top = int(tops[0]) if tops.size else None
    return bottom, top


def _meet_join_tables(
    leq: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray | None, tuple[int, int] | None]:
    """Meet/join index tables, or the first pair (a, b >= a) lacking a unique bound.

    A common lower bound g of a and b is their glb exactly when everything
    below g is a common lower bound too, i.e. when g has as many elements
    below it as a and b have in common.  The lub is the same count on the
    transposed order.  Each row a is resolved for all b >= a at once.
    """
    n = leq.shape[0]
    orders = (leq, np.ascontiguousarray(leq.T))
    sizes = tuple(order.sum(axis=0) for order in orders)
    tables = (np.empty((n, n), dtype=np.int64), np.empty((n, n), dtype=np.int64))
    for a in range(n):
        missing = np.zeros(n - a, dtype=bool)
        for order, size, table in zip(orders, sizes, tables):
            common = order[:, a, None] & order[:, a:]
            exact = common & (size[:, None] == common.sum(axis=0))
            missing |= ~exact.any(axis=0)
            table[a, a:] = table[a:, a] = exact.argmax(axis=0)
        if missing.any():
            return None, None, (a, a + int(missing.argmax()))
    return tables[0], tables[1], None


def _ortho_witness(
    leq: np.ndarray,
    meet: np.ndarray,
    join: np.ndarray,
    ortho: np.ndarray,
    bottom: int,
    top: int,
) -> tuple[str, tuple[int, ...]] | None:
    n = leq.shape[0]
    ar = np.arange(n)
    bad = ortho[ortho] != ar
    if bad.any():
        return ("involution", (int(np.flatnonzero(bad)[0]),))
    bad = meet[ar, ortho] != bottom
    if bad.any():
        return ("complement_meet", (int(np.flatnonzero(bad)[0]),))
    bad = join[ar, ortho] != top
    if bad.any():
        return ("complement_join", (int(np.flatnonzero(bad)[0]),))
    # a <= b must force ortho(b) <= ortho(a)
    reversed_ok = leq[ortho[:, None], ortho[None, :]].T
    bad = leq & ~reversed_ok
    if bad.any():
        a, b = np.argwhere(bad)[0]
        return ("order_reversal", (int(a), int(b)))
    return None


def _orthomodular_witness(
    leq: np.ndarray, meet: np.ndarray, join: np.ndarray, ortho: np.ndarray
) -> tuple[int, int] | None:
    """First pair a <= b with b != a v (~a ^ b), scanning the law and its dual."""
    n = leq.shape[0]
    ar = np.arange(n)
    lifted = join[ar[:, None], meet[ortho[:, None], ar[None, :]]]
    bad = leq & (lifted != ar[None, :])
    # dual: for a <= b require a == b ^ (~b v a); violations map back to (a, b)
    lowered = meet[ar[:, None], join[ortho[:, None], ar[None, :]]]
    bad |= (leq.T & (lowered != ar[None, :])).T
    if bad.any():
        a, b = np.argwhere(bad)[0]
        return (int(a), int(b))
    return None


def _distributive_witness(
    meet: np.ndarray, join: np.ndarray, members=None
) -> tuple[int, int, int] | None:
    """First triple of ``members`` violating a ^ (b v c) == (a ^ b) v (a ^ c).

    ``members`` is a sorted index array (default: every element) closed
    under meet and join; the scan holds one a-slice of the law at a time.
    """
    if members is None:
        members = np.arange(meet.shape[0])
    bc_join = join[np.ix_(members, members)]
    for a in members:
        ab = meet[a, members]
        bad = meet[a, bc_join] != join[ab[:, None], ab[None, :]]
        if bad.any():
            b, c = np.argwhere(bad)[0]
            return (int(a), int(members[b]), int(members[c]))
    return None


# ---------------------------------------------------------------------------
# construction


def _check_names(names: tuple[str, ...]) -> None:
    seen = set()
    for name in names:
        if (
            not name
            or not name.isprintable()
            or any(ch.isspace() for ch in name)
            or "#" in name
        ):
            raise ValueError(f"bad element name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate element name {name!r}")
        seen.add(name)


def _checked_indices(n: int, items) -> set[int]:
    """``items`` as a set of ints, each a valid index into ``n`` elements."""
    members = {int(i) for i in items}
    for i in members:
        if not 0 <= i < n:
            raise ValueError(f"element index {i} out of range")
    return members


def lattice_from_leq(names, leq, ortho=None) -> Lattice:
    """Build a validated :class:`Lattice` from an order matrix.

    Checks the partial-order axioms, boundedness, unique glb/lub for every
    pair, and (if ``ortho`` is given) the orthocomplementation laws.
    """
    names = tuple(str(s) for s in names)
    _check_names(names)
    leq = np.array(leq, dtype=bool)
    n = len(names)
    if leq.shape != (n, n):
        raise ValueError(f"order matrix must be {n}x{n}, got {leq.shape}")
    bad = _order_witness(leq)
    if bad is not None:
        raise NotALattice(f"order is not {bad[0]} at {bad[1]}", witness=bad[1])
    bottom, top = _find_bounds(leq)
    if bottom is None or top is None:
        raise NotALattice("order has no minimum or no maximum element")
    meet, join, pair = _meet_join_tables(leq)
    if pair is not None:
        raise NotALattice(
            f"pair ({names[pair[0]]!r}, {names[pair[1]]!r}) lacks a unique "
            "greatest lower or least upper bound",
            witness=pair,
        )
    ortho_arr = None
    if ortho is not None:
        ortho_arr = np.array(ortho, dtype=np.int64)
        if ortho_arr.shape != (n,) or set(ortho_arr.tolist()) != set(range(n)):
            raise BadOrtho("ortho map must be a permutation of all elements")
        bad = _ortho_witness(leq, meet, join, ortho_arr, bottom, top)
        if bad is not None:
            elems = ", ".join(names[i] for i in bad[1])
            raise BadOrtho(f"orthocomplementation fails {bad[0]} at ({elems})", witness=bad[1])
    return Lattice(names, leq, meet, join, bottom, top, ortho_arr)


def _closure_of_covers(n: int, cover_pairs) -> np.ndarray:
    leq = np.eye(n, dtype=bool)
    for lo, hi in cover_pairs:
        leq[lo, hi] = True
    for k in range(n):  # Warshall
        leq |= leq[:, k][:, None] & leq[k, :][None, :]
    return leq


def lattice_from_covers(names, cover_pairs, ortho_pairs=()) -> Lattice:
    """Build a lattice from Hasse cover index pairs (lo, hi)."""
    names = tuple(names)
    n = len(names)
    _checked_indices(n, (i for pair in (*cover_pairs, *ortho_pairs) for i in pair))
    for lo, hi in cover_pairs:
        if lo == hi:
            raise CycleError(f"self-cover on element {names[lo]!r}")
    leq = _closure_of_covers(n, cover_pairs)
    cyc = leq & leq.T & ~np.eye(n, dtype=bool)
    if cyc.any():
        a, b = np.argwhere(cyc)[0]
        raise CycleError(
            f"covers contain a cycle through {names[a]!r} and {names[b]!r}",
            witness=(int(a), int(b)),
        )
    ortho = None
    if ortho_pairs:
        perm = np.full(n, -1, dtype=np.int64)
        for x, y in ortho_pairs:
            for p, q in ((x, y), (y, x)):
                if perm[p] not in (-1, q):
                    raise BadOrtho(
                        f"element {names[p]!r} is given two different complements"
                    )
                perm[p] = q
        unpaired = np.flatnonzero(perm < 0)
        if unpaired.size:
            raise BadOrtho(
                f"ortho map is partial: {names[unpaired[0]]!r} has no complement"
            )
        ortho = perm
    return lattice_from_leq(names, leq, ortho)


# ---------------------------------------------------------------------------
# document format


def parse_lattice(text: str) -> Lattice:
    """Parse the line-oriented lattice document format.

    Directives: ``elements <names...>``, ``bottom <name>``, ``top <name>``,
    ``cover <lo> <hi>``, ``ortho <x> <y>``.  ``#`` starts a comment.  The
    order is the reflexive-transitive closure of the covers; declared bounds
    are cross-checked against the inferred ones.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    declared: dict[str, str] = {}
    cover_pairs: list[tuple[int, int]] = []
    ortho_pairs: list[tuple[int, int]] = []

    def resolve(token: str, lineno: int) -> int:
        if token not in index:
            raise ParseError(f"line {lineno}: unknown element {token!r}")
        return index[token]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw, *args = line.split()
        if kw == "elements":
            if not args:
                raise ParseError(f"line {lineno}: 'elements' needs at least one name")
            for name in args:
                if name in index:
                    raise ParseError(f"line {lineno}: duplicate element name {name!r}")
                if not name.isprintable():
                    raise ParseError(f"line {lineno}: unprintable element name {name!r}")
                index[name] = len(names)
                names.append(name)
        elif kw in ("bottom", "top"):
            if len(args) != 1:
                raise ParseError(f"line {lineno}: '{kw}' takes exactly one name")
            if kw in declared:
                raise ParseError(f"line {lineno}: '{kw}' declared twice")
            resolve(args[0], lineno)
            declared[kw] = args[0]
        elif kw == "cover":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: 'cover' takes exactly two names")
            lo, hi = (resolve(t, lineno) for t in args)
            if lo == hi:
                raise CycleError(f"line {lineno}: self-cover on {args[0]!r}")
            cover_pairs.append((lo, hi))
        elif kw == "ortho":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: 'ortho' takes exactly two names")
            ortho_pairs.append(tuple(resolve(t, lineno) for t in args))
        else:
            raise ParseError(f"line {lineno}: unknown directive {kw!r}")

    if not names:
        raise ParseError("document declares no elements")
    lat = lattice_from_covers(names, cover_pairs, ortho_pairs)
    for kw, attr in (("bottom", lat.bottom), ("top", lat.top)):
        if kw in declared and index[declared[kw]] != attr:
            raise NotALattice(
                f"declared {kw} {declared[kw]!r} is not the {kw} of the order"
            )
    return lat


def covers(lattice: Lattice) -> list[tuple[int, int]]:
    """Hasse cover pairs (lo, hi) of the lattice order."""
    n = lattice.n
    strict = lattice.leq & ~np.eye(n, dtype=bool)
    return [(int(a), int(b)) for a, b in np.argwhere(strict & ~(strict @ strict))]


def serialize_lattice(lattice: Lattice) -> str:
    """Emit a document that :func:`parse_lattice` reparses to equal tables."""
    names = lattice.names
    lines = ["elements " + " ".join(names)]
    lines.append(f"bottom {names[lattice.bottom]}")
    lines.append(f"top {names[lattice.top]}")
    for a, b in covers(lattice):
        lines.append(f"cover {names[a]} {names[b]}")
    if lattice.ortho is not None:
        for x in range(lattice.n):
            y = int(lattice.ortho[x])
            if x <= y:
                lines.append(f"ortho {names[x]} {names[y]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# classification


def classify(lattice: Lattice) -> PropertyReport:
    """Scan the two laws a certified lattice can still break.

    Every :class:`Lattice` comes from a checked builder, so it is a bounded
    lattice and its ortho map, when present, is an orthocomplementation;
    those flags are read off.  Orthomodularity (when there is an ortho map)
    and distributivity are scanned exhaustively.
    """
    witnesses: list[tuple[str, tuple[int, ...]]] = []
    pair = None
    if lattice.ortho is None:
        witnesses += [("orthocomplemented", ()), ("orthomodular", ())]
    else:
        pair = _orthomodular_witness(lattice.leq, lattice.meet, lattice.join, lattice.ortho)
        if pair is not None:
            witnesses.append(("orthomodular", pair))
    triple = _distributive_witness(lattice.meet, lattice.join)
    if triple is not None:
        witnesses.append(("distributive", triple))
    return PropertyReport(
        is_lattice=True,
        is_bounded=True,
        is_orthocomplemented=lattice.ortho is not None,
        is_orthomodular=lattice.ortho is not None and pair is None,
        is_distributive=triple is None,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# sublattices


def generated_sublattice(lattice: Lattice, seed) -> tuple[int, ...]:
    """Smallest subset containing ``seed``, 0, 1, closed under meet, join, ortho.

    Fixed-point iteration; the result is sorted by element index.
    """
    members = _checked_indices(lattice.n, seed)
    if not members:
        raise ValueError("seed set must be nonempty")
    inside = np.zeros(lattice.n, dtype=bool)
    inside[[*members, lattice.bottom, lattice.top]] = True
    while True:
        current = np.flatnonzero(inside)
        grid = np.ix_(current, current)
        inside[lattice.meet[grid]] = inside[lattice.join[grid]] = True
        if lattice.ortho is not None:
            inside[lattice.ortho[current]] = True
        if np.count_nonzero(inside) == current.size:
            return tuple(int(i) for i in current)


def is_distributive_subset(
    lattice: Lattice, subset
) -> tuple[bool, tuple[int, int, int] | None]:
    """Test a ^ (b v c) == (a ^ b) v (a ^ c) over all triples of ``subset``.

    ``subset`` must be closed under meet and join, else :class:`NotClosed`.
    Returns ``(True, None)`` or ``(False, first_violating_triple)``.
    """
    members = np.array(sorted(_checked_indices(lattice.n, subset)), dtype=np.int64)
    inside = np.zeros(lattice.n, dtype=bool)
    inside[members] = True
    grid = np.ix_(members, members)
    leaks = ~(inside[lattice.meet[grid]] & inside[lattice.join[grid]])
    if leaks.any():
        a, b = (int(members[i]) for i in np.argwhere(leaks)[0])
        raise NotClosed(
            f"subset is not closed at pair ({lattice.names[a]!r}, {lattice.names[b]!r})",
            witness=(a, b),
        )
    triple = _distributive_witness(lattice.meet, lattice.join, members)
    return triple is None, triple


# ---------------------------------------------------------------------------
# products and catalog


def direct_product(first: Lattice, second: Lattice) -> Lattice:
    """Componentwise product; element (i, j) sits at index i * |second| + j.

    A product of ortholattices is an ortholattice whose order, meet, join
    and orthocomplement act componentwise, so the factors' certified tables
    compose directly and nothing is re-derived.
    """
    if first.ortho is None or second.ortho is None:
        raise BadOrtho("direct product requires orthocomplementations on both factors")
    names = tuple(f"({a},{b})" for a in first.names for b in second.names)
    _check_names(names)
    n, n2 = len(names), second.n

    def index(i, j):
        return i * n2 + j

    def pairwise(op, x, y):  # op(x[i, k], y[j, l]) at (index(i, j), index(k, l))
        return op(x[:, None, :, None], y[None, :, None, :]).reshape(n, n)

    return Lattice(
        names,
        pairwise(np.logical_and, first.leq, second.leq),
        pairwise(index, first.meet, second.meet),
        pairwise(index, first.join, second.join),
        index(first.bottom, second.bottom),
        index(first.top, second.top),
        index(first.ortho[:, None], second.ortho[None, :]).ravel(),
    )


def _boolean_lattice(atoms: int) -> Lattice:
    letters = "pqr"[:atoms]
    size = 1 << atoms
    names = []
    for mask in range(size):
        if mask == 0:
            names.append("0")
        elif mask == size - 1:
            names.append("1")
        else:
            names.append("".join(letters[i] for i in range(atoms) if mask >> i & 1))
    leq = np.array(
        [[(a & b) == a for b in range(size)] for a in range(size)], dtype=bool
    )
    ortho = np.array([size - 1 - a for a in range(size)], dtype=np.int64)
    return lattice_from_leq(names, leq, ortho)


def _mo_lattice(blocks: int) -> Lattice:
    letters = "abc"[:blocks]
    names = ["0"]
    for ch in letters:
        names += [ch, ch + "'"]
    names.append("1")
    n = len(names)
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    ortho = np.zeros(n, dtype=np.int64)
    ortho[0], ortho[n - 1] = n - 1, 0
    for k in range(blocks):
        a = 1 + 2 * k
        ortho[a], ortho[a + 1] = a + 1, a
    return lattice_from_leq(names, leq, ortho)


def _benzene_lattice() -> Lattice:
    # two 3-chains 0 < a < b < 1 and 0 < b' < a' < 1, glued at the bounds
    names = ("0", "a", "b", "b'", "a'", "1")
    cover_pairs = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
    ortho_pairs = [(0, 5), (1, 4), (2, 3)]
    return lattice_from_covers(names, cover_pairs, ortho_pairs)


_CATALOG = {
    "B2": lambda: _boolean_lattice(1),
    "B4": lambda: _boolean_lattice(2),
    "B8": lambda: _boolean_lattice(3),
    "MO2": lambda: _mo_lattice(2),
    "MO3": lambda: _mo_lattice(3),
    "O6": _benzene_lattice,
    "MO2xB2": lambda: direct_product(_mo_lattice(2), _boolean_lattice(1)),
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str) -> Lattice:
    """Built-in test lattices: B2, B4, B8, MO2, MO3, O6, MO2xB2."""
    if name not in _CATALOG:
        raise UnknownName(
            f"unknown catalog lattice {name!r}; available: {', '.join(CATALOG_NAMES)}"
        )
    return _CATALOG[name]()


# ---------------------------------------------------------------------------
# isomorphism (small instances only)


def find_order_isomorphism(
    first: Lattice, second: Lattice, *, match_ortho: bool = False
) -> tuple[int, ...] | None:
    """Backtracking search for an order isomorphism, or ``None``.

    Returns a tuple mapping first-lattice indices to second-lattice indices.
    Intended for the small catalog cross-checks, not large instances.
    """
    n = first.n
    if n != second.n:
        return None

    def signature(lat: Lattice, i: int) -> tuple[int, int]:
        return int(lat.leq[:, i].sum()), int(lat.leq[i, :].sum())

    sig1 = [signature(first, i) for i in range(n)]
    sig2 = [signature(second, i) for i in range(n)]
    if sorted(sig1) != sorted(sig2):
        return None
    candidates = [
        [j for j in range(n) if sig2[j] == sig1[i]] for i in range(n)
    ]
    mapping = [-1] * n
    used = [False] * n

    def attempt(i: int) -> bool:
        if i == n:
            return True
        for j in candidates[i]:
            if used[j]:
                continue
            ok = all(
                first.leq[i, k] == second.leq[j, mapping[k]]
                and first.leq[k, i] == second.leq[mapping[k], j]
                for k in range(i)
            )
            if ok and match_ortho:
                oc = int(first.ortho[i])
                if oc < i and mapping[oc] != int(second.ortho[j]):
                    ok = False
            if ok:
                mapping[i] = j
                used[j] = True
                if attempt(i + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    if match_ortho and (first.ortho is None or second.ortho is None):
        raise BadOrtho("both lattices need an orthocomplementation to match it")
    return tuple(mapping) if attempt(0) else None


def is_order_isomorphic(
    first: Lattice, second: Lattice, *, match_ortho: bool = False
) -> bool:
    return find_order_isomorphism(first, second, match_ortho=match_ortho) is not None
