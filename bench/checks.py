"""Independent oracles for every output the benchmark checks.

Nothing here imports greedy_spectra.  Class counts come from networkx,
spectra from numpy.linalg.eigvalsh, characteristic polynomials from the
matching numbers of the tree, and greedy trees from a breadth-first
construction written here.  Every ``check_*`` function returns None when the
output is right and a one-line reason when it is not.

Run as a script, ``python3 bench/checks.py class-counts 15 16`` prints the
number of trees of every degree sequence for each n as JSON; the benchmark
calls it in a child process so that networkx never enters the measured
process.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter

import numpy as np

VERIFY_PASS = ("pass", "pass-with-ties")


def seq_key(degrees) -> str:
    return ",".join(str(x) for x in sorted(degrees, reverse=True))


def class_counts(n: int) -> dict[str, int]:
    """Number of non-isomorphic trees on n vertices, keyed by degree sequence."""
    import networkx as nx

    counts: Counter = Counter()
    for g in nx.nonisomorphic_trees(n):
        counts[seq_key(d for _, d in g.degree())] += 1
    return dict(counts)


def _adjacency_lists(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _is_tree(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    adj = _adjacency_lists(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def eigenvalues(n: int, edges) -> np.ndarray:
    """Adjacency eigenvalues in non-increasing order."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return np.linalg.eigvalsh(a)[::-1]


def matching_numbers(n: int, edges) -> list[int]:
    """m_j, the number of j-edge matchings, by a rooted DP over the tree."""
    adj = _adjacency_lists(n, edges)
    parent = [-1] * n
    order = [0]
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    free: list[list[int]] = [[1] for _ in range(n)]  # v left unmatched
    used: list[list[int]] = [[0] for _ in range(n)]  # v matched to a child

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out

    def add(a, b):
        if len(a) < len(b):
            a, b = b, a
        return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]

    for v in reversed(order):
        if parent[v] < 0:
            continue
        p = parent[v]
        either = add(free[v], used[v])
        used[p] = add(mul(used[p], either), [0] + mul(free[p], free[v]))
        free[p] = mul(free[p], either)
    return add(free[0], used[0])


def charpoly(n: int, edges) -> list[int]:
    """det(xI - A) constant term first: x^(n-2j) has coefficient (-1)^j m_j."""
    coeffs = [0] * (n + 1)
    for j, m in enumerate(matching_numbers(n, edges)):
        if m:
            coeffs[n - 2 * j] = (-1) ** j * m
    return coeffs


def greedy_edges(degrees) -> list[tuple[int, int]]:
    """Greedy tree: breadth-first, the largest remaining degree goes next."""
    d = sorted(degrees, reverse=True)
    edges = []
    nxt = 1
    for v, deg in enumerate(d):
        for _ in range(deg if v == 0 else deg - 1):
            edges.append((v, nxt))
            nxt += 1
    return edges


def dominant_for_max_degree(n: int, max_degree: int) -> list[int]:
    """Largest tree degree sequence on n vertices with every degree <= max_degree."""
    extra = n - 2  # degree above 1, to share out
    full, rest = divmod(extra, max_degree - 1)
    d = [max_degree] * full + ([1 + rest] if rest else [])
    return d + [1] * (n - len(d))


def _centers(n: int, adj) -> list[int]:
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u] > 0:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return layer


def _rooted_code(adj, root: int, banned: int) -> str:
    parent = {root: banned}
    order = [root]
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    code: dict[int, str] = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(code[u] for u in adj[v] if u != parent[v])) + ")"
    return code[root]


def tree_code(n: int, edges) -> str:
    """AHU code from the center or bicenter: equal codes mean isomorphic."""
    adj = _adjacency_lists(n, edges)
    c = _centers(n, adj)
    if len(c) == 1:
        return _rooted_code(adj, c[0], -1)
    u, v = c
    return "|".join(sorted([_rooted_code(adj, u, v), _rooted_code(adj, v, u)]))


def _parse_tree(text: str):
    obj = json.loads(text)
    n = obj["n"]
    edges = [tuple(e) for e in obj["edges"]]
    return n, edges


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def check_count(out: str, want: int):
    got = int(out.strip())
    return None if got == want else f"count {got}, expected {want}"


def check_verify(out: str, trees_want: int | None):
    report = json.loads(out)
    if report["status"] not in VERIFY_PASS:
        return f"status {report['status']}"
    got = report["stats"].get("trees_enumerated")
    if trees_want is not None and got != trees_want:
        return f"swept {got} trees, expected {trees_want}"
    return None


def check_spectrum(out: str, n: int, edges):
    got = json.loads(out)
    want = eigenvalues(n, edges)
    if len(got) != n or not np.allclose(got, want, rtol=0, atol=1e-8):
        return "spectrum differs from eigvalsh"
    return None


def check_estrada(out: str, n: int, edges):
    got = float(out)
    want = math.fsum(math.exp(x) for x in eigenvalues(n, edges))
    return None if _close(got, want, 1e-9) else f"Estrada {got}, expected {want}"


def check_radius(got: float, n: int, edges):
    want = float(eigenvalues(n, edges)[0])
    return None if abs(got - want) <= 1e-8 else f"radius {got}, expected {want}"


def check_moments(out: str, n: int, edges, k_max: int):
    m = [int(s) for s in json.loads(out)]
    if len(m) != k_max + 1:
        return f"{len(m)} moments, expected {k_max + 1}"
    deg = Counter()
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    closed = {0: n, 2: 2 * (n - 1), 4: 2 * sum(x * x for x in deg.values()) - 2 * (n - 1)}
    for k, want in closed.items():
        if k <= k_max and m[k] != want:
            return f"M_{k} = {m[k]}, expected {want}"
    if any(m[k] for k in range(1, k_max + 1, 2)):
        return "an odd moment is not zero"
    lam = eigenvalues(n, edges)
    for k in range(0, k_max + 1, 2):
        if not _close(float(m[k]), math.fsum(lam ** k), 1e-8):
            return f"M_{k} disagrees with the eigenvalue power sum"
    return None


def check_charpoly(out: str, n: int, edges):
    got = [int(s) for s in json.loads(out)]
    return None if got == charpoly(n, edges) else "coefficients differ from matching numbers"


def check_built_tree(out: str, degrees):
    """The output is the greedy tree of ``degrees``, up to isomorphism."""
    n, edges = _parse_tree(out)
    if n != len(degrees) or not _is_tree(n, edges):
        return "output is not a tree on the right vertex count"
    want = greedy_edges(degrees)
    if tree_code(n, edges) != tree_code(n, want):
        return "output is not the greedy tree"
    return None


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "class-counts":
        print("usage: checks.py class-counts N [N ...]", file=sys.stderr)
        return 2
    print(json.dumps({n: class_counts(int(n)) for n in argv[1:]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
