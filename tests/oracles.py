"""Naive reference implementations, kept independent of the library paths.

Most of this is plain-Python loops over the order matrix so the fast
vectorized implementations have something honest to disagree with.
``backtrack_dispersion_free`` is a constraint-propagating search that reaches
the two-valued states without the central-atom closed form the library uses.
The projector oracles combine every pair in every closure round and ask the
public probability oracle one (a, b) pair at a time.
"""

from itertools import product

import numpy as np

from orthologic import (
    ClosureTooLarge,
    NoComplement,
    NotUnique,
    lattice_from_covers,
    lattice_from_leq,
    maximally_mixed,
    sequence_probability,
)
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


def greechie_ring(k):
    """Blocks of a ring of k 3-atom blocks: block i holds s_i, m_i and s_(i+1 mod k).

    Its pasting has n = 4k + 2 elements and is an orthomodular lattice for
    k >= 5 (the loop of blocks has order k).
    """
    return [(f"s{i}", f"m{i}", f"s{(i + 1) % k}") for i in range(k)]


def relabelled(lat, rng):
    """The same lattice with its elements in a random order, re-certified."""
    perm = rng.permutation(lat.n)
    names = [lat.names[i] for i in perm]
    ortho = None if lat.ortho is None else np.argsort(perm)[lat.ortho[perm]]
    return lattice_from_leq(names, lat.leq[np.ix_(perm, perm)], ortho)


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


def full_rounds_closure(generators, names=None, tol=1e-9, max_elements=64):
    """Projector closure recombining every pair in every round.

    Returns (names, leq, ortho, projectors) in the library's element order:
    sorted by (rank, discovery order), with the order and the complement
    found by one Frobenius norm per pair.  A closure past ``max_elements``
    raises the library's ``ClosureTooLarge``.
    """
    dim = generators[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    elems, labels = [], []

    def find(p):
        return next((i for i, q in enumerate(elems) if np.linalg.norm(p - q) <= tol), None)

    def span(a, b):
        u, s, _ = np.linalg.svd(np.hstack([a, b]), full_matrices=False)
        basis = u[:, : int(np.sum(s > tol))]
        return basis @ basis.conj().T

    def add(p, label=None):
        p = (p + p.conj().T) / 2
        i = find(p)
        if i is None:
            if len(elems) >= max_elements:
                raise ClosureTooLarge(f"projector closure exceeds {max_elements} elements")
            elems.append(p)
            labels.append(label)
            return len(elems) - 1
        if labels[i] is None and label is not None:
            labels[i] = label
        return i

    add(np.zeros((dim, dim), dtype=complex), "0")
    add(eye, "1")
    for k, g in enumerate(generators):
        add(np.asarray(g, dtype=complex), None if names is None else names[k])
    while True:
        before = len(elems)
        for i in range(before):
            j = add(eye - elems[i])
            if labels[j] is None and labels[i] is not None:
                labels[j] = "~" + labels[i]
        for i in range(before):
            for j in range(i + 1, before):
                add(span(elems[i], elems[j]))
                add(eye - span(eye - elems[i], eye - elems[j]))
        if len(elems) == before:
            break
    order = sorted(range(len(elems)), key=lambda i: (round(np.trace(elems[i]).real), i))
    elems = [elems[i] for i in order]
    labels = [labels[i] for i in order]
    n = len(elems)
    leq = np.array(
        [[np.linalg.norm(elems[j] @ elems[i] - elems[i]) <= tol for j in range(n)] for i in range(n)]
    )
    ortho = np.array([find(eye - p) for p in elems])
    final, seen = [], set()
    for i, label in enumerate(labels):
        name = label if label is not None else f"s{i}"
        while name in seen:
            name += "'"
        seen.add(name)
        final.append(name)
    return final, leq, ortho, elems


def _certain_by_oracle(pl, condition, question):
    mm = maximally_mixed(pl.dim)
    den = sequence_probability(pl, mm, condition)
    if den <= pl.tol:
        return True
    num = sequence_probability(pl, mm, [*condition, question])
    return abs(num / den - 1.0) <= pl.tol


def luders_infer_order(pl):
    """``a <= b`` from one pair of public probability queries at a time."""
    mm = maximally_mixed(pl.dim)
    out = np.zeros((pl.n, pl.n), dtype=bool)
    for a, b in product(range(pl.n), repeat=2):
        implied = _certain_by_oracle(pl, [(a, True)], (b, True))
        agree = sum(
            sequence_probability(pl, mm, [(a, x), (b, y), (a, x)])
            for x in (True, False)
            for y in (True, False)
        )
        stable = abs(min(1.0, agree) - 1.0) <= pl.tol
        out[a, b] = implied and stable
    return out


def luders_infer_complement(pl, a):
    """The element answering opposite to ``a`` with certainty, one ``b`` at a time."""
    matches = [
        b
        for b in range(pl.n)
        if _certain_by_oracle(pl, [(a, True)], (b, False))
        and _certain_by_oracle(pl, [(a, False)], (b, True))
    ]
    name = pl.lattice.names[a]
    if not matches:
        raise NoComplement(f"no element complements {name!r}")
    if len(matches) > 1:
        raise NotUnique(f"multiple complements for {name!r}: {[pl.lattice.names[b] for b in matches]}")
    return matches[0]
