"""Slow, independent reference implementations used only by the tests.

Everything here recomputes package results by a deliberately different route:
explicit matrix powers and rerooted branch series for walk counts, Newton's
identities for the characteristic polynomial, labeled Prufer sequences for
enumeration, nested-tuple forms for isomorphism, and the raw quantified
definition of majorization.  None of it is fast; sizes stay small.
"""

from __future__ import annotations

import heapq
from itertools import permutations
from operator import mul

from sympy.utilities.iterables import multiset_permutations

from greedy_spectra import Tree, canonical_code, enumerate_trees, tree_degree_sequences


# ---------------------------------------------------------------------------
# walk counts by explicit matrix powers


def adjacency_matrix(t: Tree) -> list[list[int]]:
    a = [[0] * t.n for _ in range(t.n)]
    for u, v in t.edges:
        a[u][v] = 1
        a[v][u] = 1
    return a


def _mat_mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai, oi = a[i], out[i]
        for k in range(n):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(n):
                    oi[j] += x * bk[j]
    return out


def moments_by_matrix_power(t: Tree, k_max: int) -> list[int]:
    """Traces of A^0 .. A^k_max, by repeated full matrix multiplication."""
    a = adjacency_matrix(t)
    power = [[int(i == j) for j in range(t.n)] for i in range(t.n)]
    traces = []
    for _ in range(k_max + 1):
        traces.append(sum(power[i][i] for i in range(t.n)))
        power = _mat_mul(power, a)
    return traces


def walk_totals_by_matrix_power(t: Tree, k_max: int) -> list[int]:
    """Sums of all entries of A^0 .. A^k_max."""
    a = adjacency_matrix(t)
    power = [[int(i == j) for j in range(t.n)] for i in range(t.n)]
    totals = []
    for _ in range(k_max + 1):
        totals.append(sum(sum(row) for row in power))
        power = _mat_mul(power, a)
    return totals


# ---------------------------------------------------------------------------
# moments by rerooted branch generating functions


def _reciprocal(s, length: int) -> list[int]:
    """Coefficients of y^0..y^(length-1) in 1 / (1 - y s(y))."""
    b = [1] * length
    for j in range(1, length):
        b[j] = sum(map(mul, s[:j], b[j - 1 :: -1]))
    return b


def _rooted_order(t: Tree) -> tuple[list[int], list[int]]:
    """Breadth-first order from vertex 0, and each vertex's parent (-1 at 0)."""
    parent = [-1] * t.n
    order = [0]
    for v in order:
        for u in t.adjacency[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    return order, parent


def matching_number(t: Tree) -> int:
    """Size of a maximum matching in a tree.

    Deepest first, each vertex is matched to its parent when both are free.
    """
    order, parent = _rooted_order(t)
    matched = [False] * t.n
    for v in reversed(order[1:]):
        if not matched[v] and not matched[parent[v]]:
            matched[v] = matched[parent[v]] = True
    return sum(matched) // 2


def moments_by_branch_series(t: Tree, k_max: int) -> list[int]:
    """M_0..M_k_max from rerooted branch series in y = x^2, then Newton's identities.

    A closed walk at u splits at its returns to u into excursions: a step to
    a neighbour w, a closed walk at w on w's side of the edge wu, and the
    step back.  So with B_{u|v} the series of closed walks at u on u's side
    of the edge uv, and C_v that of all closed walks at v,

        B_{u|v} = 1 / (1 - y * sum_{w~u, w!=v} B_{w|u}),
        C_v     = 1 / (1 - y * sum_{u~v} B_{u|v}),      M_2j = sum_v [y^j] C_v.

    One pass up and one pass down a rooted traversal give every directed B
    in O(n k^2).  The even power sums M_2..M_2nu, nu the matching number, fix
    e_2..e_2nu, the only non-zero elementary symmetric functions of the
    eigenvalues, and those give every later moment by Newton's identities.
    """
    half = min(k_max // 2, matching_number(t))
    order, parent = _rooted_order(t)
    zero = [0] * half
    up = [zero] * t.n  # up[v] = B_{v|parent v}
    down = [zero] * t.n  # down[v] = B_{parent v|v}
    below = [zero] * t.n  # below[v] = sum of B_{c|v} over the children c of v
    for v in reversed(order[1:]):
        up[v] = b = _reciprocal(below[v], half)
        p = parent[v]
        below[p] = [x + y for x, y in zip(below[p], b)]
    even = [0] * (half + 1)
    for v in order:
        full = [x + y for x, y in zip(below[v], down[v])]
        even = [m + c for m, c in zip(even, _reciprocal(full, half + 1))]
        for u in t.adjacency[v]:
            if u != parent[v]:
                down[u] = _reciprocal([x - y for x, y in zip(full, up[u])], half)
    counts = [0] * (k_max + 1)
    counts[: 2 * half + 1 : 2] = even
    e = []  # e[l - 1] is e_{2l}; e_odd and M_odd vanish
    for j in range(1, half + 1):
        s = counts[2 * j] + sum(c * counts[2 * (j - l)] for l, c in enumerate(e, 1))
        e.append(-s // (2 * j))  # exact: e_{2j} is an integer
    for k in range(2 * half + 2, k_max + 1, 2):
        counts[k] = -sum(c * counts[k - 2 * l] for l, c in enumerate(e, 1))
    return counts


def char_poly_from_moments(moments) -> list[int]:
    """det(xI - A), constant term first, from M_0..M_n by Newton's identities."""
    n = moments[0]
    c = [1]  # c[i] is the coefficient of x^(n-i)
    for k in range(1, n + 1):
        s = moments[k] + sum(c[i] * moments[k - i] for i in range(1, k))
        c.append(-s // k)  # exact: the coefficients are integers
    return c[::-1]


# ---------------------------------------------------------------------------
# Prufer decoding and labeled enumeration


def tree_from_prufer(seq, n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_tree(rng, n: int) -> Tree:
    if n == 1:
        return Tree(1, ())
    if n == 2:
        return Tree(2, ((0, 1),))
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Tree(n, tuple(tree_from_prufer(seq, n)))


def canonical_form(n: int, edges) -> tuple:
    """Nested-tuple form of an unlabeled tree; independent of canonical_code.

    Rooted at the center (or at the bicentral edge, orientation-sorted), with
    children recursively sorted.
    """
    if n == 1:
        return (1, ())
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(adj[v]) for v in range(n)]
    remaining = n
    layer = [v for v in range(n) if degree[v] == 1]
    removed = [False] * n
    while remaining > 2:
        nxt = []
        for v in layer:
            removed[v] = True
            remaining -= 1
            for w in adj[v]:
                if not removed[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in range(n) if not removed[v]]

    def shape(v, parent):
        return tuple(sorted(shape(w, v) for w in adj[v] if w != parent))

    if len(centers) == 1:
        return (1, shape(centers[0], -1))
    c1, c2 = centers
    return (2, tuple(sorted((shape(c1, c2), shape(c2, c1)))))


def classes_by_prufer(degrees) -> dict[tuple, int]:
    """Unlabeled classes (with labeled multiplicities) for a degree sequence.

    Labels the sorted degrees onto vertices 0..n-1 and walks every Prufer
    sequence in which vertex i appears exactly degrees[i]-1 times; every
    isomorphism class with this degree multiset shows up at least once.
    """
    degrees = tuple(getattr(degrees, "degrees", degrees))
    n = len(degrees)
    if n == 1:
        return {canonical_form(1, ()): 1}
    if n == 2:
        return {canonical_form(2, [(0, 1)]): 1}
    pool = [v for v in range(n) for _ in range(degrees[v] - 1)]
    classes: dict[tuple, int] = {}
    for seq in multiset_permutations(pool):
        form = canonical_form(n, tree_from_prufer(seq, n))
        classes[form] = classes.get(form, 0) + 1
    return classes


# ---------------------------------------------------------------------------
# majorization by its raw quantified definition


def prefix_dominates(a, b) -> bool:
    """Prefix-sum dominance of the sequences exactly as given."""
    if len(a) != len(b):
        return False
    pa = pb = 0
    for x, y in zip(a, b):
        pa += x
        pb += y
        if pa < pb:
            return False
    return True


def majorizes_every_permutation(a, b) -> bool:
    """The quantified relation: a dominates every rearrangement of b."""
    return all(prefix_dominates(a, p) for p in set(permutations(b)))


# ---------------------------------------------------------------------------
# random lemma instances (shared between module tests and the gate suite)


def degrade_sequence(rng, seq):
    """Weaken a non-increasing sequence while staying majorized by it.

    Applies Robin Hood transfers (a richer entry pays a poorer one) and
    plain decrements, both of which preserve dominance, then re-sorts.
    """
    b = list(seq)
    n = len(b)
    for _ in range(rng.randint(0, 2 * n)):
        if rng.random() < 0.7 and n >= 2:
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            if b[i] > b[j]:
                b[i] -= 1
                b[j] += 1
        else:
            i = rng.randrange(n)
            if b[i] > 0:
                b[i] -= 1
        b.sort(reverse=True)
    return tuple(b)


def random_weakly_majorized_pair(rng, n_max=8, v_max=10):
    """A non-increasing pair (a, b) with b weakly majorized by a."""
    n = rng.randint(1, n_max)
    a = tuple(sorted((rng.randint(0, v_max) for _ in range(n)), reverse=True))
    return a, degrade_sequence(rng, a)


def random_positive_sorted(rng, n, v_max=10):
    return tuple(sorted((rng.randint(1, v_max) for _ in range(n)), reverse=True))


# ---------------------------------------------------------------------------
# brute-force independence number


def independence_number(t: Tree) -> int:
    adj = [0] * t.n
    for u, v in t.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0
    for mask in range(1 << t.n):
        if mask.bit_count() <= best:
            continue
        m = mask
        ok = True
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = mask.bit_count()
    return best


# ---------------------------------------------------------------------------
# exhaustive rooted-tree generators (dedup by rooted canonical code)


def unrooted_trees(n: int) -> list[Tree]:
    out = []
    for d in tree_degree_sequences(n):
        out.extend(enumerate_trees(d))
    return out


def rooted_trees(n: int) -> list[Tree]:
    """One representative per vertex-rooted isomorphism class on n vertices."""
    seen = set()
    out = []
    for t in unrooted_trees(n):
        for v in range(n):
            rooted = Tree(t.n, t.edges, root_vertex=v)
            code = canonical_code(rooted)
            if code not in seen:
                seen.add(code)
                out.append(rooted)
    return out


def edge_rooted_trees(n: int) -> list[Tree]:
    """One representative per edge-rooted isomorphism class on n vertices."""
    seen = set()
    out = []
    for t in unrooted_trees(n):
        for u, v in t.edges:
            rooted = Tree(t.n, t.edges, root_edge=(u, v))
            code = canonical_code(rooted)
            if code not in seen:
                seen.add(code)
                out.append(rooted)
    return out
