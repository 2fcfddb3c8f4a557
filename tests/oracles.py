"""Naive reference implementations, kept independent of the library paths.

Most of this is plain-Python loops over the order matrix so the fast
vectorized implementations have something honest to disagree with.
``backtrack_dispersion_free`` is a constraint-propagating search that reaches
the two-valued states without the central-atom closed form the library uses.
The projector oracles combine every pair in every closure round and ask the
public probability oracle one (a, b) pair at a time.  The protocol oracle
draws every random stream in every chunk.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from orthologic import (
    ClosureTooLarge,
    Lattice,
    NoComplement,
    NotUnique,
    lattice_from_covers,
    lattice_from_leq,
    maximally_mixed,
    sequence_probability,
)
from orthologic.analysis import compatibility_relation
from orthologic.quantum import TOL


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


def looped_check_names(names):
    """The element-name check as a per-character loop: the first bad or repeated name."""
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


def naive_order_failure(leq):
    """First failed partial-order axiom of a boolean matrix, checked entry by entry."""
    n = len(leq)
    for a in range(n):
        if not leq[a][a]:
            return ("reflexive", (a,))
    for a, b in product(range(n), repeat=2):
        if a != b and leq[a][b] and leq[b][a]:
            return ("antisymmetric", (a, b))
    for a, b in product(range(n), repeat=2):
        if not leq[a][b] and any(leq[a][c] and leq[c][b] for c in range(n)):
            return ("transitive", (a, b))
    return None


def warshall_closure(n, cover_pairs):
    """Reflexive-transitive closure of the covers (lo, hi) by Warshall's n steps."""
    leq = np.eye(n, dtype=bool)
    for lo, hi in cover_pairs:
        leq[lo, hi] = True
    for k in range(n):
        leq |= leq[:, k][:, None] & leq[k, :][None, :]
    return leq


def naive_orthomodular_witness(lat):
    """First a <= b with b != a v (~a ^ b) or a != b ^ (~b v a), or None.

    The first is the orthomodular law, the second its dual; an ortholattice
    can break them at different pairs, so both are asked at every pair.
    """
    oc = [int(x) for x in lat.ortho]
    for a in range(lat.n):
        for b in range(lat.n):
            if not lat.leq[a, b]:
                continue
            law = naive_join(lat, a, naive_meet(lat, oc[a], b)) == b
            dual = naive_meet(lat, b, naive_join(lat, oc[b], a)) == a
            if not (law and dual):
                return (a, b)
    return None


def chained_orthomodular_witness(lat):
    """First pair a <= b breaking the law or its dual, by two gather chains.

    The law b == a v (~a ^ b) and the dual a == b ^ (~b v a) are each
    evaluated over all pairs on the certified tables; the dual's violations
    map back to (a, b).
    """
    leq, meet, join, ortho = lat.leq, lat.meet, lat.join, lat.ortho
    ar = np.arange(lat.n)
    lifted = join[ar[:, None], meet[ortho[:, None], ar[None, :]]]
    bad = leq & (lifted != ar[None, :])
    lowered = meet[ar[:, None], join[ortho[:, None], ar[None, :]]]
    bad |= (leq.T & (lowered != ar[None, :])).T
    if bad.any():
        a, b = np.argwhere(bad)[0]
        return (int(a), int(b))
    return None


# The smallest random ortholattice found whose orthomodular law and dual law
# first fail at different pairs: the law at ('e1', 'e2'), the dual earlier, at
# ('e1', 'e0').
DUAL_FIRST_DOCUMENT = """\
elements e0 e1 e2 e3 e4 e5 e6 e7 e8 e9
cover e0 e9
cover e1 e2
cover e2 e0
cover e2 e7
cover e3 e0
cover e3 e6
cover e4 e6
cover e4 e7
cover e5 e9
cover e6 e5
cover e7 e9
cover e8 e1
cover e8 e3
cover e8 e4
ortho e0 e4
ortho e1 e5
ortho e2 e6
ortho e3 e7
ortho e8 e9
"""


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


def identity_relation(lat):
    """The n x n relation (a ^ b) v (~a ^ b) == b, by one gather chain over every pair."""
    return lat.join[lat.meet, lat.meet[lat.ortho]] == np.arange(lat.n)


def relation_center(lat):
    """The rows of the relation that hold everywhere, on an orthomodular lattice."""
    return tuple(int(i) for i in np.flatnonzero(identity_relation(lat).all(axis=1)))


def relation_distributive_witness(lat):
    """First violating triple of an orthomodular lattice, from its first non-central row.

    By Foulis-Holland a central row has no violation and a non-central row
    has one, so the whole row of the first non-central element is scanned.
    """
    noncentral = np.flatnonzero(~identity_relation(lat).all(axis=1))
    if not noncentral.size:
        return None
    a = int(noncentral[0])
    row = lat.meet[a]
    b, c = np.argwhere(row[lat.join] != lat.join[row[:, None], row[None, :]])[0]
    return (a, int(b), int(c))


def looped_incompatible_lemma(lat):
    """First a < b with c incompatible to a but compatible to b, a row at a time."""
    relation = identity_relation(lat)
    strict = lat.leq & ~np.eye(lat.n, dtype=bool)
    for a in range(lat.n):
        above = np.flatnonzero(strict[a])
        bad = relation[above] & ~relation[a]
        if bad.any():
            i, c = np.argwhere(bad)[0]
            return False, (a, int(above[i]), int(c))
    return True, None


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


def mo_lattice(k):
    """MO_k from its covers: k complementary pairs ai, ai' of atoms between 0 and 1 (n = 2k + 2)."""
    names = ["0", *(f"a{i}{mark}" for i in range(k) for mark in ("", "'")), "1"]
    top = len(names) - 1
    cover_pairs = [(0, x) for x in range(1, top)] + [(x, top) for x in range(1, top)]
    ortho_pairs = [(0, top), *((x, x + 1) for x in range(1, top, 2))]
    return lattice_from_covers(names, cover_pairs, ortho_pairs)


def widened(lat):
    """The same lattice with int64 copies of its meet and join tables, built unchecked."""
    return Lattice(
        lat.names,
        lat.leq,
        lat.meet.astype(np.int64),
        lat.join.astype(np.int64),
        lat.bottom,
        lat.top,
        lat.ortho,
    )


def height_state(lat):
    """Each element's height over the top's, as Fractions: a state when the lattice is modular.

    The height of a modular lattice is a valuation, h(a) + h(b) = h(a ^ b) + h(a v b),
    and only the top has height h(top).
    """
    strict = lat.leq & ~np.eye(lat.n, dtype=bool)
    height = np.zeros(lat.n, dtype=np.int64)
    while True:
        grown = np.where(strict, height[:, None] + 1, 0).max(axis=0)
        if np.array_equal(grown, height):
            return [Fraction(int(h), int(height[lat.top])) for h in height]
        height = grown


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


def subspace_span(p, q, tol=1e-9):
    """The projector onto the span of the ranges of ``p`` and ``q``, from one SVD.

    Its basis is the left singular vectors of [P Q] with singular value ``> tol``.
    """
    u, s, _ = np.linalg.svd(np.hstack([p, q]), full_matrices=False)
    basis = u[:, : int(np.sum(s > tol))]
    return basis @ basis.conj().T


def subspace_intersection(p, q, tol=1e-9):
    """The projector onto the intersection of the ranges of ``p`` and ``q``, from one SVD.

    By De Morgan, the complement of the span of I - P and I - Q.  The
    singular values of [I-P I-Q] resolve a principal angle t linearly (about
    t / sqrt 2), where the eigenvalues of P + Q near 2 resolve it only as t^2.
    """
    eye = np.eye(p.shape[0])
    return eye - subspace_span(eye - p, eye - q, tol)


def full_rounds_closure(generators, names=None, tol=1e-9, max_elements=64):
    """Projector closure recombining every pair in every round.

    Returns (names, leq, ortho, projectors) in the library's element order:
    sorted by (rank, discovery order), with the complement found by one
    Frobenius norm per pair.  The order keeps the Frobenius inclusion rule,
    ``P_i <= P_j`` when ``||P_j P_i - P_i||_F <= tol``, as a cross-check
    independent of the library, which reads the order off its meets.  A
    closure past ``max_elements`` raises the library's ``ClosureTooLarge``.
    """
    dim = generators[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    elems, labels = [], []

    def find(p):
        return next((i for i, q in enumerate(elems) if np.linalg.norm(p - q) <= tol), None)

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
                add(subspace_span(elems[i], elems[j], tol))
                add(subspace_intersection(elems[i], elems[j], tol))
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


def purified(matrix, steps=4):
    """The projector a hermitian matrix near idempotent approximates, with no eigendecomposition.

    McWeeny's iteration P <- 3 P^2 - 2 P^3 maps an eigenvalue 1 - e to about
    1 - 3 e^2 and e to about 3 e^2, so from an error of ``TOL`` a few steps
    reach rounding.
    """
    p = np.asarray(matrix, dtype=complex)
    for _ in range(steps):
        square = p @ p
        p = 3 * square - 2 * square @ p
        p = (p + p.conj().T) / 2
    return p


def _certain_by_oracle(pl, condition, question):
    mm = maximally_mixed(pl.dim)
    den = sequence_probability(pl, mm, condition)
    if den <= TOL:
        return True
    num = sequence_probability(pl, mm, [*condition, question])
    return abs(num / den - 1.0) <= TOL


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
        stable = abs(min(1.0, agree) - 1.0) <= TOL
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


def drawn_protocol_disagreements(config, chunk=1 << 16):
    """Disagreements of ``run_detection_protocol``, drawing every stream in every chunk.

    Unlike the library, it draws the ``active`` stream at fraction 1 too, so
    the two agree only if no other stream depends on those draws.  It draws
    through ``Generator.integers`` and ``Generator.random``, so it checks the
    library's reading of the same streams as raw words.
    """
    root = np.random.Philox(key=config.seed)
    basis, bit, active, eve_basis, coin = (np.random.Generator(root.jumped(i)) for i in range(5))
    disagreements = 0
    for start in range(0, config.rounds, chunk):
        n = min(chunk, config.rounds - start)
        on = active.random(n) < config.eavesdrop_fraction
        scrambled = eve_basis.integers(0, 2, n, np.uint8) ^ basis.integers(0, 2, n, np.uint8)
        flipped = coin.integers(0, 2, n, np.uint8) ^ bit.integers(0, 2, n, np.uint8)
        disagreements += int(np.count_nonzero(on & scrambled & flipped))
    return disagreements


def sandwiched_probability(pl, rho, steps):
    """Joint probability of ``steps``: each answer sandwiches the state, then one trace."""
    eye = np.eye(pl.dim)
    sigma = np.asarray(rho, dtype=complex)
    for element, answer in steps:
        e = pl.projector(element) if answer else eye - pl.projector(element)
        sigma = e @ sigma @ e
    return float(np.trace(sigma).real)
