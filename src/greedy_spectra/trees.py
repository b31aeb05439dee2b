"""Trees, rooted forests, level-greedy construction and canonical codes.

Vertices are always 0..n-1.  A tree may carry a root vertex or a root edge
(both endpoints of a root edge sit on level 1).  The level-greedy builders
label vertices level by level, left to right, so vertex ids of built trees
are in greedy label order: smaller id means earlier (higher-degree) position
on an earlier level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .degree_sequences import (
    DegreeSequence,
    LeveledDegreeSequence,
    validate_degree_sequence,
    dominant_for_max_degree,
)
from .errors import (
    InvalidBoundsError,
    NotAnEdgeError,
    NotRealizableError,
    RootNotInTreeError,
)

__all__ = [
    "Tree",
    "Forest",
    "build_level_greedy_forest",
    "build_level_greedy_tree",
    "build_edge_rooted_level_greedy",
    "build_greedy_tree",
    "build_volkmann_tree",
    "leveled_degree_sequence",
    "forest_leveled_degree_sequence",
    "canonical_code",
    "is_isomorphic",
    "centers",
    "is_greedy_labeled",
    "greedy_positions",
    "tree_to_dict",
    "tree_from_dict",
    "to_json",
    "from_json",
    "to_dot",
]


@dataclass(frozen=True)
class Tree:
    """Immutable tree on vertices 0..n-1 with an optional root vertex or edge."""

    n: int
    edges: tuple[tuple[int, int], ...]
    root_vertex: int | None = None
    root_edge: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise NotRealizableError(f"need n >= 1 vertices, got {self.n}")
        norm = tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))
        object.__setattr__(self, "edges", norm)
        if len(norm) != self.n - 1:
            raise NotRealizableError(
                f"tree on {self.n} vertices needs {self.n - 1} edges, got {len(norm)}"
            )
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        seen = set()
        for u, v in norm:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise NotRealizableError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v or (u, v) in seen:
                raise NotRealizableError(f"bad edge ({u},{v})")
            seen.add((u, v))
            ru, rv = find(u), find(v)
            if ru == rv:
                raise NotRealizableError(f"edge ({u},{v}) closes a cycle")
            parent[ru] = rv
        if self.root_vertex is not None and self.root_edge is not None:
            raise InvalidBoundsError("a tree cannot have both a root vertex and a root edge")
        if self.root_vertex is not None and not 0 <= self.root_vertex < self.n:
            raise RootNotInTreeError(f"root vertex {self.root_vertex} not in 0..{self.n - 1}")
        if self.root_edge is not None:
            u, v = self.root_edge
            re = (min(u, v), max(u, v))
            object.__setattr__(self, "root_edge", re)
            if re not in seen:
                raise NotAnEdgeError(f"root edge {re} is not an edge of the tree")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def degree_sequence(self) -> DegreeSequence:
        return validate_degree_sequence(self.degrees)

    @property
    def is_rooted(self) -> bool:
        return self.root_vertex is not None or self.root_edge is not None

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """1-based level of every vertex; requires a root."""
        _, roots = _resolve_root(self, None)
        return tuple(_bfs(self.adjacency, roots)[2])

    @property
    def height(self) -> int:
        """Number of levels."""
        return max(self.levels)


@dataclass(frozen=True)
class Forest:
    """Ordered collection of vertex-rooted trees."""

    components: tuple[Tree, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        for t in self.components:
            if t.root_vertex is None:
                raise RootNotInTreeError("every forest component needs a root vertex")

    @property
    def n(self) -> int:
        return sum(t.n for t in self.components)

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)


def _bfs(
    adj: Sequence[Sequence[int]], roots: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first order, parent (-1 at a root) and 1-based level per vertex.

    ``roots`` is one vertex, or both ends of a root edge: those sit on level
    1 and each hangs its own side, so the root edge itself is never walked.
    Every traversal of a tree in the package goes through here.
    """
    parent = [-1] * len(adj)
    level = [0] * len(adj)
    order = list(roots)
    for r in order:
        level[r] = 1
    for v in order:
        for u in adj[v]:
            if not level[u]:
                parent[u] = v
                level[u] = level[v] + 1
                order.append(u)
    return order, parent, level


def _middle(parent: Sequence[int], u: int, v: int) -> tuple[int, ...]:
    """Middle vertex, or sorted middle edge, of the u-v path.

    ``parent`` comes from a traversal rooted at ``u``.
    """
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    mid, rem = divmod(len(path) - 1, 2)
    return tuple(sorted(path[mid:mid + 1 + rem]))


def _degrees_by_level(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Degrees grouped by their 1-based level, each level non-increasing."""
    by_level: dict[int, list[int]] = {}
    for h, deg in pairs:
        by_level.setdefault(h, []).append(deg)
    return tuple(
        tuple(sorted(by_level[h], reverse=True)) for h in range(1, len(by_level) + 1)
    )


def _greedy_edge_list(levels: Sequence[Sequence[int]], roots_keep_full_degree: bool) -> list[tuple[int, int]]:
    """Assign children blocks left to right, one level at a time.

    Vertex ids are level-major: level 1 gets 0..k1-1, level 2 the next k2
    ids, and so on.  Children of the j-th vertex on a level follow the
    children of vertices 1..j-1, which is exactly the greedy labeling.
    Each (parent, child) edge comes after the edge that reaches the parent.
    """
    sizes = [len(lvl) for lvl in levels]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    edges: list[tuple[int, int]] = []
    for h, lvl in enumerate(levels):
        child = offsets[h + 1]
        for j, deg in enumerate(lvl):
            count = deg if (h == 0 and roots_keep_full_degree) else deg - 1
            parent = offsets[h] + j
            for _ in range(count):
                edges.append((parent, child))
                child += 1
    return edges


def build_level_greedy_forest(ld: LeveledDegreeSequence) -> Forest:
    """Build the level greedy forest of a vertex-rooted leveled degree sequence.

    One component per level-1 root, components in root label order; each
    component keeps greedy label order internally.
    """
    if ld.root_kind != "vertex":
        raise InvalidBoundsError("expected a vertex-rooted leveled degree sequence")
    edges = _greedy_edge_list(ld.levels, roots_keep_full_degree=True)
    # parents come before their children, so one pass labels the components
    comp = list(range(ld.root_count)) + [0] * (ld.n - ld.root_count)
    for u, v in edges:
        comp[v] = comp[u]
    # ids within a component keep their order, so greedy label order holds
    size = [0] * ld.root_count
    label = []
    for c in comp:
        label.append(size[c])
        size[c] += 1
    comp_edges: list[list[tuple[int, int]]] = [[] for _ in size]
    for u, v in edges:
        comp_edges[comp[u]].append((label[u], label[v]))
    components = (Tree(k, tuple(es), root_vertex=0) for k, es in zip(size, comp_edges))
    return Forest(tuple(components))


def build_level_greedy_tree(ld: LeveledDegreeSequence) -> Tree:
    """Single-root convenience wrapper around build_level_greedy_forest."""
    if ld.root_kind != "vertex" or ld.root_count != 1:
        raise InvalidBoundsError("expected a vertex-rooted sequence with exactly one root")
    return build_level_greedy_forest(ld).components[0]


def build_edge_rooted_level_greedy(ld: LeveledDegreeSequence) -> Tree:
    """Build the edge-rooted level greedy tree of an edge-rooted sequence.

    The two root degrees are reduced by one (the root edge uses one slot
    each), the two-component greedy forest is built, and the roots 0 and 1
    are joined.
    """
    if ld.root_kind != "edge":
        raise InvalidBoundsError("expected an edge-rooted leveled degree sequence")
    edges = _greedy_edge_list(ld.levels, roots_keep_full_degree=False)
    edges.append((0, 1))
    return Tree(ld.n, tuple(edges), root_edge=(0, 1))


def _levels_from_degrees(degrees: Sequence[int]) -> LeveledDegreeSequence:
    """Slice a sorted degree sequence into greedy levels (largest degree roots)."""
    n = len(degrees)
    levels: list[tuple[int, ...]] = [(degrees[0],)]
    placed = 1
    slots = degrees[0]
    while placed < n:
        lvl = tuple(degrees[placed:placed + slots])
        levels.append(lvl)
        placed += len(lvl)
        slots = sum(d - 1 for d in lvl)
    return LeveledDegreeSequence(tuple(levels), "vertex")


def build_greedy_tree(d: DegreeSequence | Iterable[int]) -> Tree:
    """Greedy tree of a degree sequence, rooted at a maximum-degree vertex.

    Degrees are assigned level by level in non-increasing order, children of
    earlier vertices first, which makes the result level greedy seen from
    every vertex and every edge.
    """
    ds = validate_degree_sequence(d)
    if ds.is_degenerate:
        return Tree(1, (), root_vertex=0)
    return build_level_greedy_tree(_levels_from_degrees(ds.degrees))


def build_volkmann_tree(n: int, max_degree: int) -> Tree:
    """Greedy tree of the dominant sequence (Delta^m, r, 1^...)."""
    return build_greedy_tree(dominant_for_max_degree(n, max_degree))


def _resolve_root(t: Tree, root) -> tuple[str, tuple[int, ...]]:
    if root is None:
        if t.root_vertex is not None:
            return "vertex", (t.root_vertex,)
        if t.root_edge is not None:
            return "edge", t.root_edge
        raise RootNotInTreeError("tree has no root and none was given")
    if isinstance(root, int):
        if not 0 <= root < t.n:
            raise RootNotInTreeError(f"vertex {root} not in 0..{t.n - 1}")
        return "vertex", (root,)
    u, v = root
    e = (min(u, v), max(u, v))
    if e not in t.edges:
        raise NotAnEdgeError(f"{e} is not an edge of the tree")
    return "edge", e


def leveled_degree_sequence(t: Tree, root=None) -> LeveledDegreeSequence:
    """Leveled degree sequence of ``t`` seen from a root vertex or root edge.

    ``root`` may be a vertex id, an edge pair, or None to use the tree's own
    root.
    """
    kind, roots = _resolve_root(t, root)
    level = _bfs(t.adjacency, roots)[2]
    return LeveledDegreeSequence(_degrees_by_level(zip(level, t.degrees)), kind)


def forest_leveled_degree_sequence(f: Forest) -> LeveledDegreeSequence:
    """Merged leveled degree sequence of a rooted forest (levels pooled, sorted)."""
    pairs = chain.from_iterable(zip(c.levels, c.degrees) for c in f.components)
    return LeveledDegreeSequence(_degrees_by_level(pairs), "vertex")


def _subtree_codes(adj: Sequence[Sequence[int]], roots: Sequence[int]) -> list[bytes]:
    """Canonical code of the subtree each root hangs, one per root.

    Classic bottom-up scheme: the code of a vertex is "(" + the sorted
    concatenation of its children's codes + ")".  Iterative so deep paths do
    not hit the recursion limit.
    """
    order, parent, _ = _bfs(adj, roots)
    kids: list[list[bytes]] = [[] for _ in adj]
    code: list[bytes] = [b""] * len(adj)
    for v in reversed(order):
        code[v] = b"(" + b"".join(sorted(kids[v])) + b")"
        if parent[v] >= 0:
            kids[parent[v]].append(code[v])
    return [code[r] for r in roots]


def centers(t: Tree) -> tuple[int, ...]:
    """The one or two middle vertices of a longest path."""
    far = _bfs(t.adjacency, (0,))[0][-1]
    order, parent, _ = _bfs(t.adjacency, (far,))
    return _middle(parent, far, order[-1])


def canonical_code(t: Tree, *, ignore_root: bool = False) -> bytes:
    """Canonical form respecting rootedness: equal codes mean isomorphic.

    Vertex-rooted trees are coded from their root (prefix ``V``), edge-rooted
    trees from both sides of the root edge (prefix ``E``), unrooted trees
    from their center or bicentral edge.
    """
    if ignore_root or not t.is_rooted:
        roots = centers(t)
    else:
        _, roots = _resolve_root(t, None)
    prefix = b"V" if len(roots) == 1 else b"E"
    return prefix + b"".join(sorted(_subtree_codes(t.adjacency, roots)))


def is_isomorphic(t1: Tree, t2: Tree, *, ignore_roots: bool = False) -> bool:
    """Isomorphism respecting roots unless ``ignore_roots`` is set."""
    return canonical_code(t1, ignore_root=ignore_roots) == canonical_code(
        t2, ignore_root=ignore_roots
    )


def is_greedy_labeled(t: Tree) -> bool:
    """True if the tree's own labels form the greedy labeling for its root.

    Checks three things: ids are level-major, degrees are non-increasing
    within every level, and the children of consecutive vertices on a level
    occupy consecutive blocks on the next level.  Roots must be vertex 0
    (or the edge (0, 1)).
    """
    if not t.is_rooted:
        return False
    if t.root_vertex is not None and t.root_vertex != 0:
        return False
    if t.root_edge is not None and t.root_edge != (0, 1):
        return False
    level = t.levels
    for v in range(t.n - 1):
        if level[v] > level[v + 1]:
            return False
        if level[v] == level[v + 1] and t.degrees[v] < t.degrees[v + 1]:
            return False
    next_child = len([v for v in range(t.n) if level[v] == 1])
    for v in range(t.n):
        kids = sorted(u for u in t.adjacency[v] if level[u] == level[v] + 1)
        if kids != list(range(next_child, next_child + len(kids))):
            return False
        next_child += len(kids)
    return next_child == t.n


def tree_to_dict(t: Tree) -> dict:
    return {
        "n": t.n,
        "edges": [[u, v] for u, v in t.edges],
        "root_vertex": t.root_vertex,
        "root_edge": list(t.root_edge) if t.root_edge is not None else None,
    }


def _json_int(value) -> int:
    # bool is a subclass of int, but true is not vertex 1
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"{value!r} is not an integer")


def _json_pair(value) -> tuple[int, int]:
    u, v = value
    return _json_int(u), _json_int(v)


def tree_from_dict(obj: dict) -> Tree:
    """Inverse of ``tree_to_dict``; n, vertex ids and roots must be integers."""
    try:
        n = _json_int(obj["n"])
        edges = tuple(_json_pair(e) for e in obj["edges"])
        rv, re_ = obj.get("root_vertex"), obj.get("root_edge")
        root_vertex = _json_int(rv) if rv is not None else None
        root_edge = _json_pair(re_) if re_ is not None else None
    except (KeyError, TypeError, ValueError) as exc:
        raise NotRealizableError(f"malformed tree object: {exc}") from exc
    return Tree(n, edges, root_vertex=root_vertex, root_edge=root_edge)


def to_json(t: Tree) -> str:
    return json.dumps(tree_to_dict(t))


def from_json(text: str) -> Tree:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the digit
        # limit; RecursionError covers nesting too deep to decode
        raise NotRealizableError(f"invalid tree JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise NotRealizableError("tree JSON must be an object")
    return tree_from_dict(obj)


def greedy_positions(t: Tree) -> tuple[tuple[int, int], ...]:
    """Per-vertex (level, rank within level) pairs, both 1-based.

    Ranks follow vertex-id order, so on a greedy-labeled tree the pair for
    vertex v is exactly its construction label: the j of the j-th position
    on level h.  Kept as a derived layer instead of being baked into labels.
    """
    lv = t.levels
    counters: dict[int, int] = {}
    out = []
    for v in range(t.n):
        h = lv[v]
        counters[h] = counters.get(h, 0) + 1
        out.append((h, counters[h]))
    return tuple(out)


def to_dot(t: Tree) -> str:
    """GraphViz source; rooted trees get rank=same groups per level."""
    lines = ["graph tree {"]
    if t.is_rooted:
        level = t.levels
        for h in range(1, max(level) + 1):
            members = " ".join(str(v) + ";" for v in range(t.n) if level[v] == h)
            lines.append(f"  {{ rank=same; {members} }}")
    for u, v in t.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
