"""Closed-form lattice models the benchmark derives its expected answers from.

Nothing here imports orthologic.  Each factor lattice (a Boolean algebra, a
horizontal sum MOn, or the benzene ring O6) is small enough to tabulate by
brute force; a product is handled componentwise, which is where the closed
forms come from:

- a product of orthomodular lattices is orthomodular, and it is distributive
  iff every factor is;
- the center of L1 x L2 is C(L1) x C(L2);
- dispersion-free states are additive over products: B2^k has k of them
  (one per atom) and MOn has none;
- in MOn two elements are compatible iff they share a block or one of them
  is a bound, and compatibility in a product is componentwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


def _tables(leq):
    n = len(leq)

    def extreme(candidates, below):
        for g in candidates:
            if all(leq[x][g] if below else leq[g][x] for x in candidates):
                return g
        raise ValueError("factor is not a lattice")

    meet = [[extreme([x for x in range(n) if leq[x][a] and leq[x][b]], True)
             for b in range(n)] for a in range(n)]
    join = [[extreme([x for x in range(n) if leq[a][x] and leq[b][x]], False)
             for b in range(n)] for a in range(n)]
    return meet, join


@dataclass(frozen=True, eq=False)
class Factor:
    """One small orthocomplemented lattice, tabulated by brute force."""

    label: str
    names: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    ortho: tuple[int, ...]
    orthomodular: bool
    # element -> index of its block, None for the bounds; Boolean factors
    # are one block, so every pair is compatible
    block: tuple[int | None, ...]
    # one tuple of 0/1 values per dispersion-free state
    states: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def meet_join(self):
        return _tables(self.leq)

    @property
    def distributive(self) -> bool:
        """An orthomodular lattice is distributive iff it is a single block."""
        return self.orthomodular and len({b for b in self.block if b is not None}) <= 1

    def compatible(self, a: int, b: int) -> bool:
        ba, bb = self.block[a], self.block[b]
        return ba is None or bb is None or ba == bb

    def central(self, a: int) -> bool:
        return all(self.compatible(a, b) for b in range(self.n))

    def upper_covers(self, a: int) -> list[int]:
        above = [b for b in range(self.n) if b != a and self.leq[a][b]]
        return [b for b in above
                if not any(c != b and self.leq[c][b] for c in above)]


def boolean(atoms: int) -> Factor:
    """B2^atoms on bitmasks; letters name the atoms."""
    size = 1 << atoms
    full = size - 1
    letters = "pqrs"[:atoms]
    names = tuple(
        "0" if m == 0 else "1" if m == full
        else "".join(letters[i] for i in range(atoms) if m >> i & 1)
        for m in range(size)
    )
    leq = tuple(tuple(a & b == a for b in range(size)) for a in range(size))
    states = tuple(tuple(m >> j & 1 for m in range(size)) for j in range(atoms))
    block = tuple(None if m in (0, full) else 0 for m in range(size))
    return Factor(f"B{size}", names, leq, tuple(full ^ m for m in range(size)),
                  True, block, states)


def horizontal_sum(blocks: int) -> Factor:
    """MOn: n four-element Boolean blocks glued at their bounds."""
    names = ["0"]
    for ch in "abcd"[:blocks]:
        names += [ch, ch + "'"]
    names.append("1")
    n = len(names)
    top = n - 1
    leq = tuple(tuple(a == b or a == 0 or b == top for b in range(n)) for a in range(n))
    ortho = [top] + [i + 1 if i % 2 else i - 1 for i in range(1, top)] + [0]
    block = (None,) + tuple((i - 1) // 2 for i in range(1, top)) + (None,)
    return Factor(f"MO{blocks}", tuple(names), leq, tuple(ortho), True, block, ())


def benzene() -> Factor:
    """O6: 0 < a < b < 1 and 0 < b' < a' < 1; orthocomplemented, not orthomodular."""
    names = ("0", "a", "b", "b'", "a'", "1")
    chains = [(0, 1, 2, 5), (0, 3, 4, 5)]
    leq = tuple(
        tuple(x == y or any(x in c and y in c and c.index(x) < c.index(y) for c in chains)
              for y in range(6))
        for x in range(6)
    )
    # compatibility is only defined on orthomodular lattices; the benchmark
    # never asks for it on O6
    return Factor("O6", names, leq, (5, 4, 3, 2, 1, 0), False, (None,) * 6, ())


FACTORS = {
    "B2": lambda: boolean(1),
    "B4": lambda: boolean(2),
    "B8": lambda: boolean(3),
    "MO2": lambda: horizontal_sum(2),
    "MO3": lambda: horizontal_sum(3),
    "O6": benzene,
}


class Product:
    """Direct product of factors; elements are tuples of factor indices."""

    def __init__(self, labels):
        self.factors = tuple(FACTORS[label]() for label in labels)
        self.label = "x".join(labels)
        self.elements = list(itertools.product(*(range(f.n) for f in self.factors)))

    @property
    def n(self) -> int:
        return len(self.elements)

    def name(self, x) -> str:
        return ".".join(f.names[i] for f, i in zip(self.factors, x))

    @property
    def bottom(self):
        return (0,) * len(self.factors)

    @property
    def top(self):
        return tuple(f.n - 1 for f in self.factors)

    def leq(self, x, y) -> bool:
        return all(f.leq[a][b] for f, a, b in zip(self.factors, x, y))

    def meet(self, x, y):
        return tuple(f.meet_join[0][a][b] for f, a, b in zip(self.factors, x, y))

    def join(self, x, y):
        return tuple(f.meet_join[1][a][b] for f, a, b in zip(self.factors, x, y))

    def ortho(self, x):
        return tuple(f.ortho[a] for f, a in zip(self.factors, x))

    def compatible(self, x, y) -> bool:
        return all(f.compatible(a, b) for f, a, b in zip(self.factors, x, y))

    def central(self, x) -> bool:
        return all(f.central(a) for f, a in zip(self.factors, x))

    @property
    def orthomodular(self) -> bool:
        return all(f.orthomodular for f in self.factors)

    @property
    def distributive(self) -> bool:
        return all(f.distributive for f in self.factors)

    def covers(self):
        """Hasse covers: raise one coordinate to one of its upper covers."""
        for x in self.elements:
            for i, f in enumerate(self.factors):
                for c in f.upper_covers(x[i]):
                    yield x, x[:i] + (c,) + x[i + 1:]

    def center(self) -> list:
        return [x for x in self.elements if self.central(x)]

    def dispersion_free_states(self) -> list[dict[str, int]]:
        """Each state of a factor, lifted to the product through its coordinate."""
        out = []
        for i, f in enumerate(self.factors):
            for values in f.states:
                out.append({self.name(x): values[x[i]] for x in self.elements})
        return out

    def generated(self, seed) -> set:
        """Sub-ortholattice generated by ``seed``, bounds included (semi-naive)."""
        members = {self.bottom, self.top}
        fresh = set(seed) - members
        while fresh:
            members |= fresh
            grown = set()
            for a in fresh:
                grown.add(self.ortho(a))
                for b in members:
                    grown.add(self.meet(a, b))
                    grown.add(self.join(a, b))
            fresh = grown - members
        return members

    def violates_orthomodular(self, a, b) -> bool:
        """a <= b and the pair breaks the orthomodular law or its dual."""
        if not self.leq(a, b):
            return False
        lifted = self.join(a, self.meet(self.ortho(a), b))
        lowered = self.meet(b, self.join(self.ortho(b), a))
        return lifted != b or lowered != a

    def violates_distributive(self, a, b, c) -> bool:
        return self.meet(a, self.join(b, c)) != self.join(self.meet(a, b), self.meet(a, c))

    def cover_count(self) -> int:
        return sum(1 for _ in self.covers())


class Document:
    """A product rendered as a lattice document with seeded element order.

    ``index[x]`` is the position of element ``x`` in the ``elements`` line,
    which is the index orthologic assigns it; the expected answers of index
    based queries are computed through this map.
    """

    def __init__(self, product: Product, rng):
        self.product = product
        order = list(product.elements)
        rng.shuffle(order)
        self.order = order
        self.index = {x: i for i, x in enumerate(order)}
        name = product.name
        lines = ["elements " + " ".join(name(x) for x in order),
                 f"bottom {name(product.bottom)}",
                 f"top {name(product.top)}"]
        covers = [f"cover {name(lo)} {name(hi)}" for lo, hi in product.covers()]
        rng.shuffle(covers)
        orthos = [f"ortho {name(x)} {name(product.ortho(x))}"
                  for x in order if self.index[x] < self.index[product.ortho(x)]]
        rng.shuffle(orthos)
        self.text = "\n".join(lines + covers + orthos) + "\n"
