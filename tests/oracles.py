"""Naive reference implementations, kept independent of the library paths.

Most of this is plain-Python loops over the order matrix so the fast
vectorized implementations have something honest to disagree with.
``backtrack_dispersion_free`` is a constraint-propagating search that reaches
the two-valued states without the central-atom closed form the library uses.
"""

from itertools import product

import numpy as np

from orthologic import lattice_from_covers, lattice_from_leq
from orthologic.analysis import compatibility_relation


def lower_set(lat, a):
    return [x for x in range(lat.n) if lat.leq[x, a]]


def naive_meet(lat, a, b):
    common = [x for x in range(lat.n) if lat.leq[x, a] and lat.leq[x, b]]
    for g in common:
        if all(lat.leq[x, g] for x in common):
            return g
    return None


def naive_join(lat, a, b):
    common = [x for x in range(lat.n) if lat.leq[a, x] and lat.leq[b, x]]
    for s in common:
        if all(lat.leq[s, x] for x in common):
            return s
    return None


def naive_bounds(lat):
    """The elements below, and above, everything."""
    everything = range(lat.n)
    bottom = [x for x in everything if all(lat.leq[x, y] for y in everything)]
    top = [x for x in everything if all(lat.leq[y, x] for y in everything)]
    return bottom[0], top[0]


def naive_ortho_witness(lat):
    """First violated orthocomplement law as (law, elements), or None."""
    bottom, top = naive_bounds(lat)
    oc = [int(x) for x in lat.ortho]
    for a in range(lat.n):
        if oc[oc[a]] != a:
            return ("involution", (a,))
        if naive_meet(lat, a, oc[a]) != bottom:
            return ("complement_meet", (a,))
        if naive_join(lat, a, oc[a]) != top:
            return ("complement_join", (a,))
        for b in range(lat.n):
            if lat.leq[a, b] and not lat.leq[oc[b], oc[a]]:
                return ("order_reversal", (a, b))
    return None


def naive_orthomodular_witness(lat):
    """First a < b with b != a v (~a ^ b), or None."""
    for a in range(lat.n):
        for b in range(lat.n):
            if not lat.leq[a, b]:
                continue
            inner = naive_meet(lat, int(lat.ortho[a]), b)
            if naive_join(lat, a, inner) != b:
                return (a, b)
    return None


def naive_distributive_witness(lat, members=None):
    members = list(range(lat.n)) if members is None else list(members)
    for a in members:
        for b in members:
            for c in members:
                lhs = naive_meet(lat, a, naive_join(lat, b, c))
                rhs = naive_join(lat, naive_meet(lat, a, b), naive_meet(lat, a, c))
                if lhs != rhs:
                    return (a, b, c)
    return None


def naive_closure(lat, seed):
    members = set(seed) | {lat.bottom, lat.top}
    while True:
        grown = set(members)
        for a in members:
            if lat.ortho is not None:
                grown.add(int(lat.ortho[a]))
            for b in members:
                grown.add(naive_meet(lat, a, b))
                grown.add(naive_join(lat, a, b))
        if grown == members:
            return members
        members = grown


def naive_compatible(lat, a, b):
    """Definitional route: the generated block is distributive."""
    block = naive_closure(lat, {a, int(lat.ortho[a]), b, int(lat.ortho[b])})
    return naive_distributive_witness(lat, sorted(block)) is None


def naive_compatibility_matrix(lat):
    return [
        [naive_compatible(lat, a, b) for b in range(lat.n)] for a in range(lat.n)
    ]


def naive_decomposition_search(lat, a, b):
    """All triples (a_part, b_part, common); None when no valid one exists."""
    for a_part, b_part, common in product(range(lat.n), repeat=3):
        if not lat.leq[a_part, lat.ortho[b_part]]:
            continue
        if not lat.leq[a_part, lat.ortho[common]]:
            continue
        if not lat.leq[b_part, lat.ortho[common]]:
            continue
        if naive_join(lat, a_part, common) == a and naive_join(lat, b_part, common) == b:
            return (a_part, b_part, common)
    return None


def brute_force_dispersion_free(lat, compat=None):
    """All 0/1 assignments surviving the three state axioms, in lexicographic order.

    Naive meet/join tables are precomputed once so the 2^n scan stays fast;
    ``compat`` may be supplied to reuse an already-vetted relation.
    """
    if compat is None:
        compat = naive_compatibility_matrix(lat)
    meets = [[naive_meet(lat, a, b) for b in range(lat.n)] for a in range(lat.n)]
    joins = [[naive_join(lat, a, b) for b in range(lat.n)] for a in range(lat.n)]
    found = []
    for assignment in product((0, 1), repeat=lat.n):
        if assignment[lat.bottom] != 0 or assignment[lat.top] != 1:
            continue
        ok = True
        for a in range(lat.n):
            for b in range(a + 1, lat.n):
                if compat[a][b]:
                    lhs = assignment[a] + assignment[b]
                    rhs = assignment[meets[a][b]] + assignment[joins[a][b]]
                    if lhs != rhs:
                        ok = False
                        break
                if assignment[a] == assignment[b] == 1:
                    if assignment[meets[a][b]] != 1:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            found.append(assignment)
    return found


def backtrack_dispersion_free(lat):
    """All two-valued states by backtracking search, in lexicographic order.

    Branches on the lowest unassigned element, value 0 before 1.
    Propagation: complements are forced to 1 - v, assigning 1 (0) forces
    everything above (below), a pair at 1 forces its meet (meet closure is
    unrestricted), a pair at 0 forces its join, and an assigned compatible
    pair forces both by additivity.
    """
    n = lat.n
    relation = compatibility_relation(lat)
    meet, join, ortho, leq = lat.meet, lat.join, lat.ortho, lat.leq
    above = [np.flatnonzero(leq[i, :]) for i in range(n)]
    below = [np.flatnonzero(leq[:, i]) for i in range(n)]

    def assign(values, start, value):
        queue = [(start, value)]
        while queue:
            i, v = queue.pop()
            cur = values[i]
            if cur == v:
                continue
            if cur == 1 - v:
                return False
            values[i] = v
            queue.append((int(ortho[i]), 1 - v))
            neighbors = above[i] if v == 1 else below[i]
            for j in neighbors:
                queue.append((int(j), v))
            for j in np.flatnonzero(values >= 0):
                j = int(j)
                total = v + int(values[j])
                if total == 2:
                    queue.append((int(meet[i, j]), 1))
                elif total == 0:
                    queue.append((int(join[i, j]), 0))
                elif relation[i, j]:
                    queue.append((int(meet[i, j]), 0))
                    queue.append((int(join[i, j]), 1))
        return True

    solutions = []

    def explore(values):
        free = np.flatnonzero(values < 0)
        if not free.size:
            solutions.append(tuple(int(v) for v in values))
            return
        pivot = int(free[0])
        for v in (0, 1):
            trial = values.copy()
            if assign(trial, pivot, v):
                explore(trial)

    initial = np.full(n, -1, dtype=np.int8)
    if assign(initial, lat.bottom, 0) and assign(initial, lat.top, 1):
        explore(initial)
    return sorted(solutions)


def rebuilt_product(first, second):
    """The direct product re-derived from its Kronecker order by the checked builder."""
    names = [f"({a},{b})" for a in first.names for b in second.names]
    leq = np.kron(first.leq.astype(np.uint8), second.leq.astype(np.uint8)).astype(bool)
    ortho = (first.ortho[:, None] * second.n + second.ortho[None, :]).ravel()
    return lattice_from_leq(names, leq, ortho)


def greechie_pasting(blocks):
    """Greechie pasting of 3-atom Boolean blocks, given as tuples of atom names.

    Elements are 0, the atoms, their complements x' and 1.  In a 3-atom
    block y' is the join of the other two atoms, so x < y' is a cover for
    distinct atoms x, y of one block.  The result is an orthomodular lattice
    when every loop of blocks has order at least 5 (Greechie's loop lemma).
    """
    atoms = list(dict.fromkeys(x for block in blocks for x in block))
    names = ["0", *atoms, *(f"{x}'" for x in atoms), "1"]
    index = {name: i for i, name in enumerate(names)}
    covers = {(0, index[x]) for x in atoms}
    covers |= {(index[f"{x}'"], index["1"]) for x in atoms}
    covers |= {
        (index[x], index[f"{y}'"])
        for block in blocks
        for x in block
        for y in block
        if x != y
    }
    orthos = [(index[x], index[f"{x}'"]) for x in atoms] + [(0, index["1"])]
    return lattice_from_covers(names, sorted(covers), orthos)


def exhaustive_decomposition_exists(lat, a, b):
    """Scan every index triple for a valid orthogonal decomposition.

    Uses the (independently vetted) order and tables as plain data; the
    point is exhausting all triples rather than trusting the
    meet-with-complement construction.
    """
    for a_part, b_part, common in product(range(lat.n), repeat=3):
        if not lat.leq[a_part, lat.ortho[b_part]]:
            continue
        if not lat.leq[a_part, lat.ortho[common]]:
            continue
        if not lat.leq[b_part, lat.ortho[common]]:
            continue
        if lat.join[a_part, common] == a and lat.join[b_part, common] == b:
            return True
    return False
