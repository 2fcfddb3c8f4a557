"""Finite bounded lattices with optional orthocomplementation.

Everything is table-driven and exact: the order is a dense boolean matrix,
and meets and joins are integer index tables.  Certification works on pairs
that generate the order: a document's cover lines, or the covers of an
order matrix.  The meet table is a dynamic program over them, one height at
a time, in a linear extension (the bit-vector view of Ait-Kaci, Boyer,
Lincoln and Nasr, 1989): m(a, b) is a when a <= b, else the highest of
m(c, b) over the pairs (c, a).  Checking m(c, b) <= m(a, b) for every pair
proves every entry the glb; only when that check fails does a search among
the packed down- and up-sets name the first pair lacking a bound.  When the
ortho map reverses the order, joins are read off the meets by De Morgan;
otherwise they are the same program on the reversed order.  A document's
order is the closure of its covers, built as one bitset per element; it is
a partial order by construction, so only an order matrix given directly is
checked for transitivity, by one packed boolean product that also gives its
covers.  The structural scans evaluate the compatibility identity
(a ^ b) v (~a ^ b) == b only where their answer needs it: orthomodularity at
the comparable pairs, the center at the atoms, and distributivity
(Foulis-Holland) in part of one row; every triple is scanned only on other
lattices.  Elements are identified by index; names are display metadata.
The meet and join tables hold indices in the narrowest unsigned dtype,
np.min_scalar_type(n - 1): uint8 up to 256 elements, uint16 up to 65,536.
Every flat index x * n + y into an n x n table is computed in intp
(:func:`_flat`), since numpy 1.x and 2.x promote a narrow array times n
differently and both wrap silently.  Lattices built from covers, documents
included, and direct products are capped at ``_MAX_ELEMENTS`` elements.  No
floating point is used in this module.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadOrtho,
    CycleError,
    NotALattice,
    NotClosed,
    ParseError,
    TooLarge,
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
        for name in ("leq", "meet", "join", "ortho"):
            table = getattr(self, name)
            if table is not None:
                object.__setattr__(self, name, _read_only(table))

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


def _read_only(table: np.ndarray) -> np.ndarray:
    """A view of ``table`` that no caller can make writable again.

    numpy refuses write access to any view of a read-only array, so the
    array that owns the data is frozen.  A table that views only part of
    another array, or memory no array owns, is copied first.
    """
    owner = table
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if owner.base is not None or owner.size != table.size:
        table = owner = table.copy()
    owner.setflags(write=False)
    table.setflags(write=False)
    return table.view()


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the structural scans.

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
# packed rows

# Cap on each transient array of a blocked kernel.  Blocks this size stay in
# cache, and freeing them leaves glibc's mmap threshold near its 128 KiB
# default (a freed 1 MiB block would raise it to 1 MiB and change how every
# later large array in the process is allocated).
_BLOCK_BYTES = 1 << 17

# Cap on the elements of a lattice built from covers (documents included) or
# by direct_product, checked before any n x n array exists.  It admits B8^4
# (4,096) and the 1,024-block Greechie ring (4,098), far inside uint16
# tables.  Parsing and classifying a 4,998-element ring peaks at 178 MB RSS,
# and building and classifying MO_1249 x B2 (5,000) at 195 MB.
_MAX_ELEMENTS = 5000


def _packed(rows: np.ndarray) -> np.ndarray:
    """Boolean rows packed little-endian into zero-padded ``uint64`` words."""
    bits = np.packbits(rows, axis=1, bitorder="little")
    words = np.zeros((bits.shape[0], -(-bits.shape[1] // 8)), dtype=np.uint64)
    words.view(np.uint8)[:, : bits.shape[1]] = bits
    return words


def _keys(words: np.ndarray) -> np.ndarray:
    """Each packed row (last axis, contiguous) as one value that sorts and compares."""
    return words.view(np.dtype((np.void, 8 * words.shape[-1])))[..., 0]


def _row_blocks(rows: int, cols: int, words: int):
    """Slices of ``rows`` whose (block, cols, words) uint64 arrays fit the cap."""
    step = max(1, _BLOCK_BYTES // (8 * max(1, cols * words)))
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


def _tiles(rows: int, cols: int, words: int):
    """(row slice, column slice) tiles whose (rows, cols, words) uint64 arrays fit the cap.

    Rows go in blocks as in ``_row_blocks``; only a row too wide for the cap
    on its own is split into column blocks.
    """
    width = max(1, min(cols, _BLOCK_BYTES // (8 * max(1, words))))
    for block in _row_blocks(rows, width, words):
        for lo in range(0, cols, width):
            yield block, slice(lo, min(lo + width, cols))


def _bool_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` on boolean matrices: per 64-bit word, AND rows of x with columns of y."""
    rows, cols = _packed(x).T.copy(), _packed(y.T).T.copy()  # one row per word
    out = np.empty((x.shape[0], y.shape[1]), dtype=bool)
    for block in _row_blocks(*out.shape, 1):
        hits = np.zeros((block.stop - block.start, out.shape[1]), dtype=np.uint64)
        for row_word, col_word in zip(rows[:, block], cols):
            hits |= row_word[:, None] & col_word[None, :]
        out[block] = hits != 0
    return out


# ---------------------------------------------------------------------------
# order scans


def _order_witness(leq: np.ndarray, through: np.ndarray) -> tuple[str, tuple[int, ...]] | None:
    """First failed partial-order axiom; ``through`` is strict², the pairs a < c < b.

    Transitivity is checked on a reflexive order, where leq² = leq | strict²,
    so it fails exactly where strict² is not below ``leq``.
    """
    n = leq.shape[0]
    diag = np.diagonal(leq)
    if not diag.all():
        return ("reflexive", (int(np.flatnonzero(~diag)[0]),))
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        a, b = np.argwhere(sym)[0]
        return ("antisymmetric", (int(a), int(b)))
    broken = through & ~leq
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


def _true_pairs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a square boolean matrix, in the same order; about twice as fast."""
    return np.divmod(np.flatnonzero(m), m.shape[1])


def _index_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype holding every index of n elements: the tables' dtype."""
    return np.min_scalar_type(n - 1)


def _flat(rows: np.ndarray, n: int) -> np.ndarray:
    """``rows * n`` in intp, the row part of flat indices into an n x n table.

    Tables hold uint8 or uint16, where the product would wrap, and numpy 1.x
    (value-based casting) and 2.x (NEP 50) promote a narrow array times a
    Python int differently, so the dtype is never left to promotion.
    """
    return np.multiply(rows, n, dtype=np.intp)


def _cover_pairs(leq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hasse covers (lo, hi) of a partial order, ``strict & ~strict²``, in row order."""
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    return _true_pairs(strict & ~_bool_product(strict, strict))


def _meet_join_tables(
    leq: np.ndarray, mirror: np.ndarray | None, pairs: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray | None, np.ndarray | None, tuple[int, int] | None]:
    """Meet/join index tables of a bounded order, or its first pair lacking a bound.

    ``pairs`` (index arrays lo, hi with lo < hi) generate the order: its
    covers, or a document's cover lines, which may add redundant ones.  The
    meets come from :func:`_glb_table` and are proved by
    :func:`_glb_certified`.  A bounded order with every glb is a lattice, so
    the joins then exist: read off the meets by De Morgan,
    mirror[mirror[a] ^ mirror[b]], when an order-reversing involution
    ``mirror`` (an ortho map) is given, else the same table on the reversed
    order.  Only a failed certificate runs :func:`_bound_witness`.
    """
    lo, hi = pairs
    meet = _glb_table(leq, lo, hi)
    if not _glb_certified(leq, meet, lo, hi):
        return None, None, _bound_witness(leq)
    join = _glb_table(leq.T, hi, lo) if mirror is None else _mirrored(meet, mirror)
    return meet, join, None


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of ``values`` starts (``np.diff`` costs more)."""
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _heights(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Longest chain of pairs (lo, hi) ending at each element, by rounds of relaxation."""
    by_hi = np.argsort(hi, kind="stable")
    lo, hi = lo[by_hi], hi[by_hi]
    firsts = _run_starts(hi)
    height = np.zeros(n, dtype=np.int64)
    if not lo.size:
        return height
    while True:
        grown = height.copy()
        grown[hi[firsts]] = np.maximum.reduceat(height[lo], firsts) + 1
        if not (grown != height).any():
            return height
        height = grown


def _glb_table(leq: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Meet table of a bounded order generated by the pairs (lo, hi), where it has one.

    Elements are ranked by down-set size, a linear extension.  m(a, b) is a
    when a <= b, else the highest-ranked m(c, b) over the pairs (c, a).
    When a and b have a glb g < a, every pair (c, a) with g <= c gives g and
    every other gives an element strictly below g, so m(a, b) = g by
    induction; :func:`_glb_certified` decides whether every glb exists.
    Rows are filled one height at a time, in rank space and the narrowest
    unsigned dtype, in chunks of pairs whose rows fit the block cap.  A
    chunk's pairs are sorted by target, and the maximum over each run of
    one target is taken by doubling: after the step of span s, a row holds
    the maximum of the next 2s rows of its run.  The ranks are then mapped
    to indices in place, so the table keeps that dtype.
    """
    n = leq.shape[0]
    by_rank = np.argsort(np.count_nonzero(leq, axis=0), kind="stable")
    rank = np.empty(n, dtype=_index_dtype(n))
    rank[by_rank] = np.arange(n)
    # 0 where a is not <= b: the bottom's rank; rows contiguous even for leq.T
    table = np.multiply(leq, rank[:, None], order="C")
    level = _heights(n, lo, hi)[hi]
    order = np.lexsort((hi, level))  # by height, then by target
    lo, hi, level = lo[order], hi[order], level[order]
    step = max(1, _BLOCK_BYTES // (table.itemsize * n))
    cuts = [*_run_starts(level).tolist(), lo.size]
    for start, stop in zip(cuts, cuts[1:]):
        for first in range(start, stop, step):
            chunk = slice(first, min(first + step, stop))
            targets, best = hi[chunk], table.take(lo[chunk], axis=0)
            span = 1
            while span < targets.size:
                same = targets[:-span] == targets[span:]
                if not same.any():
                    break
                later = best[span:] * same[:, None].astype(best.dtype)  # 0 past the run
                np.maximum(best[:-span], later, out=best[:-span])
                span *= 2
            firsts = _run_starts(targets)
            rows = targets[firsts]
            table[rows] = np.maximum(table[rows], best[firsts])
    of_rank = by_rank.astype(table.dtype)
    for block in _row_blocks(n, n, 1):  # ranks to indices, in place
        table[block] = of_rank.take(table[block])
    return table


def _glb_certified(leq: np.ndarray, meet: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether m(c, b) <= m(a, b) for every pair (c, a) and every b.

    m(a, b) is a or some m(c, b), so it is a common lower bound of a and b.
    A common lower bound h < a lies below some c with (c, a) a pair, since
    the pairs generate the order; by induction on a, h <= m(c, b) <= m(a, b).
    So the check passing proves every m(a, b) the glb.
    """
    n = leq.shape[0]
    flat = leq.reshape(-1)
    step = max(1, _BLOCK_BYTES // (8 * n))
    for first in range(0, lo.size, step):
        cell = _flat(meet.take(lo[first : first + step], axis=0), n)
        cell += meet.take(hi[first : first + step], axis=0)
        if not flat.take(cell).all():
            return False
    return True


def _bound_witness(leq: np.ndarray) -> tuple[int, int] | None:
    """First pair (a, b >= a) lacking a glb or a lub, by search among packed rows.

    a and b have a glb exactly when down(a) & down(b) is the down-set of
    some element, found by binary search among the sorted packed down-sets;
    the lub is the same search among the up-sets.  Rows go in blocks, each
    against the columns b >= its first row; a bound missing at (a, b) is
    missing at (b, a) too, so the first missing pair in row order has b >= a.
    """
    n = leq.shape[0]
    sides = []
    for sets in (leq.T, leq):
        packed = _packed(sets)
        sides.append((packed, packed[np.argsort(_keys(packed))]))
    for block in _row_blocks(n, n, packed.shape[1]):
        tail = slice(block.start, n)
        missing = np.zeros((block.stop - block.start, n - block.start), dtype=bool)
        for packed, ranked in sides:
            common = packed[block, None, :] & packed[None, tail, :]
            pos = np.minimum(np.searchsorted(_keys(ranked), _keys(common)), n - 1)
            missing |= (ranked[pos] != common).any(axis=2)
        if missing.any():
            a, b = np.argwhere(missing)[0]
            return (block.start + int(a), block.start + int(b))
    return None


def _mirrored(meet: np.ndarray, mirror: np.ndarray) -> np.ndarray:
    """The join table mirror[meet[mirror[a], mirror[b]]], gathered in row blocks."""
    n = meet.shape[0]
    join, narrow = np.empty_like(meet), mirror.astype(meet.dtype)
    for block in _row_blocks(n, n, 1):
        join[block] = narrow.take(meet.take(mirror[block], axis=0).take(mirror, axis=1))
    return join


def _reversal_witness(leq: np.ndarray, ortho: np.ndarray) -> tuple[int, int] | None:
    """First pair a <= b with ortho[b] not <= ortho[a], scanned in row blocks."""
    n = leq.shape[0]
    for block in _row_blocks(n, n, 1):
        bad = leq[block] & ~leq.T[ortho[block]][:, ortho]
        if bad.any():
            a, b = np.argwhere(bad)[0]
            return (block.start + int(a), int(b))
    return None


def _ortho_witness(
    meet: np.ndarray,
    join: np.ndarray,
    ortho: np.ndarray,
    bottom: int,
    top: int,
    reversal: tuple[int, int] | None,
) -> tuple[str, tuple[int, ...]] | None:
    """First failed orthocomplementation law of a permutation ``ortho``.

    ``reversal`` is :func:`_reversal_witness` of ``ortho``; the caller
    computes it whenever ``ortho`` is an involution, the only case in which
    the order-reversal law is reached.
    """
    ar = np.arange(meet.shape[0])
    bad = ortho[ortho] != ar
    if bad.any():
        return ("involution", (int(np.flatnonzero(bad)[0]),))
    bad = meet[ar, ortho] != bottom
    if bad.any():
        return ("complement_meet", (int(np.flatnonzero(bad)[0]),))
    bad = join[ar, ortho] != top
    if bad.any():
        return ("complement_join", (int(np.flatnonzero(bad)[0]),))
    if reversal is not None:
        return ("order_reversal", reversal)
    return None


def _orthomodular_witness(lattice: Lattice) -> tuple[int, int] | None:
    """First a <= b with b != a v (~a ^ b), or dual a != b ^ (~b v a), or ``None``.

    For a <= b :func:`_identity_holds` at (a, b) is the law and at (~b, ~a)
    the dual, so only the comparable pairs are evaluated, in row-major order,
    law and dual in one call per chunk of pairs.
    """
    n, o = lattice.n, lattice.ortho
    pairs = np.flatnonzero(lattice.leq)
    step = _BLOCK_BYTES // 16  # a chunk's law and dual indices fit the cap
    for first in range(0, pairs.size, step):
        a, b = np.divmod(pairs[first : first + step], n)
        holds = _identity_holds(lattice, np.concatenate((a, o[b])), np.concatenate((b, o[a])))
        bad = ~holds.reshape(2, -1).all(axis=0)
        if bad.any():
            i = int(np.argmax(bad))
            return (int(a[i]), int(b[i]))
    return None


def _distributive_witness(
    meet: np.ndarray, join: np.ndarray, labels=None, rows=None, stop=None
) -> tuple[int, int, int] | None:
    """First triple violating a ^ (b v c) == (a ^ b) v (a ^ c), as ``labels`` of positions.

    ``meet`` and ``join`` are the tables of a lattice, or of a subset closed
    under both indexed by position in it (:func:`is_distributive_subset`),
    so a subset costs its size squared, not n; ``labels`` (default: the
    positions) names each position's element.  The scan holds one a-slice
    of the law at a time.  ``rows`` (positions; default: all) limits the
    a-slices scanned, and ``stop`` (default: none) each slice to b among
    the first ``stop`` positions.  The law is symmetric in b and c, so a
    slice's first violation has b <= c: the b go in blocks that fit the
    block cap, each scanned only against the c from the block's first b on.
    """
    if labels is None:
        labels = np.arange(len(meet))
    bc_join = join[:stop]
    blocks = list(_row_blocks(len(bc_join), len(join), 1))
    for a in range(len(meet)) if rows is None else rows:
        ab = meet[a]
        for block in blocks:
            lo = block.start
            joined = join.take(ab[block], axis=0).take(ab[lo:], axis=1)
            bad = ab.take(bc_join[block, lo:]) != joined
            if bad.any():
                b, c = np.argwhere(bad)[0]
                return tuple(int(labels[x]) for x in (a, lo + b, lo + c))
    return None


def _identity_holds(lattice: Lattice, a=None, b=None) -> np.ndarray:
    """(a ^ b) v (~a ^ b) == b at index arrays ``a`` and ``b``, broadcast together.

    Omitted, they are every pair, as an n x n matrix with ``a`` down the
    rows, filled in row blocks that fit the cap; ``meet`` is then read in
    place and gathered by rows, the faster way for the whole table, and
    otherwise through flat indices, the faster way for index arrays, which
    callers keep within the cap (see :func:`_identity_columns`).
    (a ^ b, ~a ^ b) is one flat index into ``join``.  On an orthomodular
    lattice the identity is compatibility of a and b, which is symmetric.
    """
    n, meet, ortho, flat_join = lattice.n, lattice.meet, lattice.ortho, lattice.join.ravel()
    if a is not None:
        flat = meet.ravel()
        lower = _flat(flat.take(_flat(a, n) + b), n)
        lower += flat.take(_flat(ortho.take(a), n) + b)
        return flat_join.take(lower) == b
    b = np.arange(n)
    holds = np.empty((n, n), dtype=bool)
    for block in _row_blocks(n, n, 1):
        lower = _flat(meet[block], n)
        lower += meet[ortho[block]]
        np.equal(flat_join.take(lower), b, out=holds[block])
    return holds


def _identity_columns(lattice: Lattice, columns: np.ndarray) -> np.ndarray:
    """:func:`_identity_holds` at every a (rows) and each b of ``columns``, in row blocks."""
    every = np.arange(lattice.n)[:, None]
    holds = np.empty((lattice.n, len(columns)), dtype=bool)
    for block in _row_blocks(lattice.n, len(columns), 1):
        holds[block] = _identity_holds(lattice, every[block], columns)
    return holds


def _atoms(lattice: Lattice) -> np.ndarray:
    """The atoms in index order: the elements with only the bottom strictly below."""
    return np.flatnonzero(np.count_nonzero(lattice.leq, axis=0) == 2)


def _central(lattice: Lattice) -> np.ndarray:
    """Mask of the center of an orthomodular lattice: the elements compatible with every atom.

    The elements compatible with c form a sub-orthomodular lattice, and in a
    finite one every element is the join of the atoms below it, so c is
    compatible with everything once it is compatible with every atom.
    """
    return _identity_columns(lattice, _atoms(lattice)).all(axis=1)


# ---------------------------------------------------------------------------
# construction


# A name is a nonempty run of printable characters, none of them whitespace
# (``\s`` is ``str.isspace``) or the comment mark ``#``.  ``re`` compiles and
# caches the pattern on first use, so importing the module compiles nothing.
_NAME = r"[^\s#]+"


def _check_names(names: tuple[str, ...]) -> None:
    """Refuse the first bad or repeated name; one pass over the joined names when all pass."""
    joined = "".join(names)
    if (
        all(names)
        and joined.isprintable()
        and re.fullmatch(_NAME, joined)
        and len(set(names)) == len(names)
    ):
        return
    seen = set()
    for name in names:
        if not (name.isprintable() and re.fullmatch(_NAME, name)):
            raise ValueError(f"bad element name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate element name {name!r}")
        seen.add(name)


def _element_index(item) -> int:
    """``item`` as an int, if :func:`operator.index` takes it; never truncated."""
    try:
        return operator.index(item)
    except TypeError:
        raise ValueError(f"element index {item!r} is not an integer") from None


def _checked_indices(n: int, items) -> set[int]:
    """``items`` as a set of ints, each a valid index into ``n`` elements."""
    members = {_element_index(i) for i in items}
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
    strict = leq & ~np.eye(n, dtype=bool)
    through = _bool_product(strict, strict)
    bad = _order_witness(leq, through)
    if bad is not None:
        raise NotALattice(f"order is not {bad[0]} at {bad[1]}", witness=bad[1])
    pairs = _true_pairs(strict & ~through)
    del strict, through  # n² bytes each, freed before the tables are built
    return _certified(names, leq, ortho, pairs)


def _certified(names: tuple[str, ...], leq: np.ndarray, ortho, pairs) -> Lattice:
    """Certify the bounds, meets and joins, and ``ortho``, of a partial order.

    ``pairs`` generate the order, as in :func:`_meet_join_tables`.  When
    ``ortho`` is a permutation, an involution and order-reversing, it gives
    the joins by De Morgan.  A failure of the lattice laws is reported
    before any failure of ``ortho``.
    """
    n = len(names)
    bottom, top = _find_bounds(leq)
    if bottom is None or top is None:
        raise NotALattice("order has no minimum or no maximum element")
    ortho_arr = mirror = reversal = None
    if ortho is not None:
        ortho_arr, ar = np.array(ortho, dtype=np.int64), np.arange(n)
        permutes = ortho_arr.shape == (n,) and np.array_equal(np.sort(ortho_arr), ar)
        if permutes and np.array_equal(ortho_arr[ortho_arr], ar):
            # reversing each generating pair reverses every chain of them
            lo, hi = pairs
            if not leq[ortho_arr[hi], ortho_arr[lo]].all():
                reversal = _reversal_witness(leq, ortho_arr)
            mirror = ortho_arr if reversal is None else None
    meet, join, pair = _meet_join_tables(leq, mirror, pairs)
    if pair is not None:
        raise NotALattice(
            f"pair ({names[pair[0]]!r}, {names[pair[1]]!r}) lacks a unique "
            "greatest lower or least upper bound",
            witness=pair,
        )
    if ortho_arr is not None:
        if not permutes:
            raise BadOrtho("ortho map must be a permutation of all elements")
        bad = _ortho_witness(meet, join, ortho_arr, bottom, top, reversal)
        if bad is not None:
            elems = ", ".join(names[i] for i in bad[1])
            raise BadOrtho(f"orthocomplementation fails {bad[0]} at ({elems})", witness=bad[1])
    return Lattice(names, leq, meet, join, bottom, top, ortho_arr)


def _closure_of_covers(n: int, cover_pairs) -> np.ndarray:
    """Reflexive-transitive closure of the covers (lo, hi) as an n x n boolean matrix.

    Row x is the up-set of x, kept as a Python int bitset: x itself OR the
    up-sets of the elements covering x.  In reverse topological order
    (Kahn's algorithm) one pass builds every row.  Elements on or above a
    cycle have no such order; passes over them repeat until nothing grows.
    """
    above = [[] for _ in range(n)]
    indegree = [0] * n
    for lo, hi in cover_pairs:
        above[lo].append(hi)
        indegree[hi] += 1
    order = [x for x in range(n) if not indegree[x]]
    for x in order:  # the list is Kahn's queue
        for y in above[x]:
            indegree[y] -= 1
            if not indegree[y]:
                order.append(y)
    acyclic = len(order) == n
    order += [x for x in range(n) if indegree[x]]
    up = [1 << x for x in range(n)]
    while True:
        grown = False
        for x in reversed(order):
            row = up[x]
            for y in above[x]:
                row |= up[y]
            grown |= row != up[x]
            up[x] = row
        if acyclic or not grown:
            break
    width = -(-n // 8)
    rows = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in up), dtype=np.uint8)
    return np.unpackbits(rows.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def lattice_from_covers(names, cover_pairs, ortho_pairs=()) -> Lattice:
    """Build a lattice from Hasse cover index pairs (lo, hi).

    The closure of the covers is reflexive and transitive by construction,
    and the cycle check proves it antisymmetric, so the order axioms are not
    checked again.  Redundant pairs (lo < hi, but not a cover) are allowed.
    More than ``_MAX_ELEMENTS`` raise :class:`TooLarge` once the indices and
    self-covers are checked, before any n x n array exists.
    """
    names = tuple(names)
    _checked_indices(len(names), (i for pair in (*cover_pairs, *ortho_pairs) for i in pair))
    lows, highs = [], []
    for lo, hi in cover_pairs:
        if lo == hi:
            raise CycleError(f"self-cover on element {names[lo]!r}")
        lows.append(lo)
        highs.append(hi)
    return _from_covers(names, lows, highs, ortho_pairs)


def _from_covers(names, lows, highs, ortho_pairs) -> Lattice:
    """Certify the lattice of covers whose indices are in range and not self-covers.

    More than ``_MAX_ELEMENTS`` raise :class:`TooLarge` before any n x n
    array exists.  The names are checked after the order and the ortho
    pairs, as :func:`lattice_from_covers` has always reported them.
    """
    n = len(names)
    if n > _MAX_ELEMENTS:
        raise TooLarge(
            f"{n} elements exceeds the {_MAX_ELEMENTS}-element cap on lattices built from covers"
        )
    leq = _closure_of_covers(n, zip(lows, highs))
    pairs = np.array(lows, dtype=np.int64), np.array(highs, dtype=np.int64)
    # the covers have a cycle exactly when some cover (lo, hi) also has hi <= lo
    if leq[pairs[1], pairs[0]].any():
        cyc = leq & leq.T & ~np.eye(n, dtype=bool)
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
    names = tuple(str(s) for s in names)
    _check_names(names)
    return _certified(names, leq, ortho, pairs)


# ---------------------------------------------------------------------------
# document format


def parse_lattice(text: str) -> Lattice:
    """Parse the line-oriented lattice document format.

    Directives: ``elements <names...>``, ``bottom <name>``, ``top <name>``,
    ``cover <lo> <hi>``, ``ortho <x> <y>``.  ``#`` starts a comment.  The
    order is the reflexive-transitive closure of the covers; declared bounds
    are cross-checked against the inferred ones.  Names are split on
    whitespace after ``#`` is cut and checked printable and distinct line by
    line, so the builder's own name check never fails on a parsed document.
    A document of more than ``_MAX_ELEMENTS`` raises :class:`TooLarge` once
    every line is read (so a faulty line is still the error reported),
    before any n x n array exists.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    declared: dict[str, str] = {}
    lows: list[int] = []
    highs: list[int] = []
    ortho_pairs: list[tuple[int, int]] = []

    def unknown(tokens, lineno: int) -> ParseError:
        token = next(t for t in tokens if t not in index)
        return ParseError(f"line {lineno}: unknown element {token!r}")

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        args = line.split()
        if not args:
            continue
        kw = args.pop(0)
        if kw == "cover":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: 'cover' takes exactly two names")
            try:
                lo, hi = index[args[0]], index[args[1]]
            except KeyError:
                raise unknown(args, lineno) from None
            if lo == hi:
                raise CycleError(f"line {lineno}: self-cover on {args[0]!r}")
            lows.append(lo)
            highs.append(hi)
        elif kw == "ortho":
            if len(args) != 2:
                raise ParseError(f"line {lineno}: 'ortho' takes exactly two names")
            try:
                ortho_pairs.append((index[args[0]], index[args[1]]))
            except KeyError:
                raise unknown(args, lineno) from None
        elif kw == "elements":
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
            if args[0] not in index:
                raise unknown(args, lineno)
            declared[kw] = args[0]
        else:
            raise ParseError(f"line {lineno}: unknown directive {kw!r}")

    if not names:
        raise ParseError("document declares no elements")
    lat = _from_covers(names, lows, highs, ortho_pairs)
    for kw, attr in (("bottom", lat.bottom), ("top", lat.top)):
        if kw in declared and index[declared[kw]] != attr:
            raise NotALattice(
                f"declared {kw} {declared[kw]!r} is not the {kw} of the order"
            )
    return lat


def covers(lattice: Lattice) -> list[tuple[int, int]]:
    """Hasse cover pairs (lo, hi) of the lattice order."""
    lo, hi = _cover_pairs(lattice.leq)
    return list(zip(lo.tolist(), hi.tolist()))


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
    those flags are read off.  Orthomodularity is the compatibility identity
    at every comparable pair.  On an orthomodular lattice a triple is
    distributive when one element is compatible with the other two
    (Foulis-Holland), so a central row has no violation, and the row of a
    non-central a has one at (a, b0, ~b0), where b0 is the first element
    incompatible with a.  The first violating triple therefore lies in the
    row of the first non-central element, at some b <= b0, and only those
    b are scanned; finding them takes the atom columns of the center and
    the one column b0 of the relation.  Other lattices get the scan over all
    triples.
    """
    witnesses: list[tuple[str, tuple[int, ...]]] = []
    pair = rows = stop = None
    if lattice.ortho is None:
        witnesses += [("orthocomplemented", ()), ("orthomodular", ())]
    else:
        pair = _orthomodular_witness(lattice)
        if pair is not None:
            witnesses.append(("orthomodular", pair))
        else:
            rows = np.flatnonzero(~_central(lattice))[:1]
            if rows.size:
                column = _identity_holds(lattice, np.arange(lattice.n), rows[0])
                stop = int(np.argmin(column)) + 1
    triple = _distributive_witness(lattice.meet, lattice.join, rows=rows, stop=stop)
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
        for table in (lattice.meet, lattice.join):  # as intp: narrow indices cast slowly
            inside[table.take(current, axis=0).take(current, axis=1).astype(np.intp)] = True
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
    # the members' own tables, by position in members; len(members) marks a leak
    outside = len(members)
    position = np.full(lattice.n, outside, dtype=_index_dtype(outside + 1))
    position[members] = np.arange(outside)
    meet, join = (
        position.take(t.take(members, axis=0).take(members, axis=1))
        for t in (lattice.meet, lattice.join)
    )
    leaks = (meet == outside) | (join == outside)
    if leaks.any():
        a, b = (int(members[i]) for i in np.argwhere(leaks)[0])
        raise NotClosed(
            f"subset is not closed at pair ({lattice.names[a]!r}, {lattice.names[b]!r})",
            witness=(a, b),
        )
    triple = _distributive_witness(meet, join, members)
    return triple is None, triple


# ---------------------------------------------------------------------------
# products and catalog



def direct_product(first: Lattice, second: Lattice) -> Lattice:
    """Componentwise product; element (i, j) sits at index i * |second| + j.

    A product of ortholattices is an ortholattice whose order, meet, join
    and orthocomplement act componentwise, so the factors' certified tables
    compose directly and nothing is re-derived.  Products above
    ``_MAX_ELEMENTS`` raise :class:`TooLarge` before any name or table is
    built: for two n=512 factors the boolean order table alone is 64 GiB.
    """
    if first.ortho is None or second.ortho is None:
        raise BadOrtho("direct product requires orthocomplementations on both factors")
    if first.n * second.n > _MAX_ELEMENTS:
        raise TooLarge(
            f"direct product of {first.n} x {second.n} = {first.n * second.n} elements "
            f"exceeds the {_MAX_ELEMENTS}-element cap"
        )
    names = tuple(f"({a},{b})" for a in first.names for b in second.names)
    _check_names(names)
    n, n2, dtype = len(names), second.n, _index_dtype(len(names))

    def index(i, j):  # in the product's table dtype, which holds every index
        row = np.multiply(i, n2, dtype=dtype, casting="unsafe")
        return np.add(row, j, dtype=dtype, casting="unsafe")

    def pairwise(op, x, y):  # op(x[i, k], y[j, l]) at (index(i, j), index(k, l))
        return op(x[:, None, :, None], y[None, :, None, :]).reshape(n, n)

    return Lattice(
        names,
        pairwise(np.logical_and, first.leq, second.leq),
        pairwise(index, first.meet, second.meet),
        pairwise(index, first.join, second.join),
        first.bottom * n2 + second.bottom,
        first.top * n2 + second.top,
        (first.ortho[:, None] * n2 + second.ortho[None, :]).ravel(),
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
