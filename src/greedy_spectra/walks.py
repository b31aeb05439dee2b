"""Exact walk counting: spectral moments, total walks, level-restricted walks.

The k-th spectral moment of a graph equals the number of closed k-walks, so
every quantity here is an exact Python integer; no floating point is involved.

Moments come from rerooted branch generating functions.  A closed walk at u
splits at its returns to u into excursions: a step to a neighbour w, a closed
walk at w on w's side of the edge wu, and the step back.  So with B_{u|v} the
series in y = x^2 of closed walks at u on u's side of the edge uv, and C_v
that of all closed walks at v,

    B_{u|v} = 1 / (1 - y * sum_{w~u, w!=v} B_{w|u}),
    C_v     = 1 / (1 - y * sum_{u~v} B_{u|v}),      M_2j = sum_v [y^j] C_v.

One pass up and one pass down a rooted traversal give every directed B in
O(n k^2) integer operations, each vertex forming its full neighbour sum once
and taking one branch out of it per child; odd moments of a tree are zero.
Past k = n the moments continue by Newton's identities: the power sums
M_1..M_n fix the elementary symmetric functions of the eigenvalues, and those
give every later M_k by an order-n linear recurrence.  Total and
level-restricted walks push counting vectors along adjacency lists.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import InvalidBoundsError, LevelMismatchError, NotAnEdgeError
from .trees import Tree, _bfs

__all__ = [
    "MomentVector",
    "LevelSequence",
    "spectral_moment",
    "spectral_moments_up_to",
    "total_walks",
    "walks_by_level_sequence",
    "closed_walks_by_level_sequence",
    "closed_walks_from_directed_edge",
    "first_strict_difference",
]


@dataclass(frozen=True)
class MomentVector:
    """Closed-walk counts (M_0, M_1, ..., M_k), exact integers."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if not counts:
            raise InvalidBoundsError("a moment vector needs at least M_0")
        if any(c < 0 for c in counts):
            raise InvalidBoundsError("walk counts cannot be negative")

    @property
    def k_max(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, k: int) -> int:
        return self.counts[k]

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def to_json(self) -> str:
        """Counts as a JSON array of decimal strings (they outgrow doubles fast)."""
        return json.dumps(_decimal_strings(self.counts))

    @classmethod
    def from_json(cls, text: str) -> "MomentVector":
        return cls(tuple(int(s) for s in json.loads(text)))


@dataclass(frozen=True)
class LevelSequence:
    """Admissible walk profile: levels of consecutive walk vertices.

    Entries are 1-based levels; consecutive entries must differ by exactly 1
    because every tree edge joins adjacent levels.  A sequence of length l
    describes walks with l-1 steps.
    """

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        levels = tuple(int(x) for x in self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise LevelMismatchError("level sequence cannot be empty")
        if any(x < 1 for x in levels):
            raise LevelMismatchError(f"levels are 1-based, got {levels}")
        for a, b in zip(levels, levels[1:]):
            if abs(a - b) != 1:
                raise LevelMismatchError(
                    f"consecutive levels must differ by 1, got {a} -> {b}"
                )

    @property
    def steps(self) -> int:
        return len(self.levels) - 1

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)


def _adjacency_step(adj: Sequence[Sequence[int]], vec: list[int]) -> list[int]:
    return [sum(vec[u] for u in nbrs) for nbrs in adj]


def _propagate(t: Tree, vec: list[int], steps: int | Sequence[int]) -> list[int]:
    """Push the counting vector ``vec`` along walk steps.

    ``steps`` is a step count, or the levels the walk must be on after each
    step; counts that land on any other level are dropped.
    """
    if isinstance(steps, int):
        for _ in range(steps):
            vec = _adjacency_step(t.adjacency, vec)
        return vec
    level = t.levels
    for h in steps:
        vec = _adjacency_step(t.adjacency, vec)
        vec = [c if level[v] == h else 0 for v, c in enumerate(vec)]
    return vec


def spectral_moment(t: Tree, k: int) -> int:
    """Number of closed k-walks of the tree (the k-th spectral moment)."""
    if k < 0:
        raise InvalidBoundsError(f"walk length must be >= 0, got {k}")
    return spectral_moments_up_to(t, k)[k]


def spectral_moments_up_to(t: Tree, k_max: int) -> MomentVector:
    """Moment vector (M_0, ..., M_k_max): rerooted branch series, then Newton."""
    if k_max < 0:
        raise InvalidBoundsError(f"walk length must be >= 0, got {k_max}")
    counts = [0] * (k_max + 1)
    top = min(k_max, t.n) // 2
    counts[: 2 * top + 1 : 2] = _even_moments(t, top)
    if k_max > t.n:
        # Newton's identities; e_odd and M_odd vanish, e[l - 1] is e_{2l}.
        e: list[int] = []
        for j in range(1, t.n // 2 + 1):
            s = counts[2 * j] + sum(c * counts[2 * (j - l)] for l, c in enumerate(e, 1))
            e.append(-s // (2 * j))  # exact: e_{2j} is an integer
        while e and not e[-1]:  # e_{2l} = (-1)^l (number of l-matchings)
            e.pop()
        for k in range(2 * top + 2, k_max + 1, 2):
            counts[k] = -sum(c * counts[k - 2 * l] for l, c in enumerate(e, 1))
    return MomentVector(tuple(counts))


def _even_moments(t: Tree, half: int) -> list[int]:
    """M_0, M_2, ..., M_{2 half} from the branch series B and C (module doc)."""
    adj = t.adjacency
    order, parent, _ = _bfs(adj, (0,))
    zero = [0] * half
    up = [zero] * t.n  # up[v] = B_{v|parent v}
    down = [zero] * t.n  # down[v] = B_{parent v|v}
    below = [zero] * t.n  # below[v] = sum of B_{c|v} over the children c of v
    for v in reversed(order[1:]):
        up[v] = b = _reciprocal(below[v], half)
        p = parent[v]
        below[p] = [x + y for x, y in zip(below[p], b)]
    moments = [0] * (half + 1)
    for v in order:
        full = [x + y for x, y in zip(below[v], down[v])]
        moments = [m + c for m, c in zip(moments, _reciprocal(full, half + 1))]
        for u in adj[v]:
            if u != parent[v]:
                down[u] = _reciprocal([x - y for x, y in zip(full, up[u])], half)
    return moments


def _reciprocal(s: Sequence[int], length: int) -> list[int]:
    """Coefficients of y^0..y^(length-1) in 1 / (1 - y s(y))."""
    b = [1] * length
    for j in range(1, length):
        b[j] = sum(map(mul, s[:j], b[j - 1::-1]))
    return b


def _decimal_strings(counts: Sequence[int]) -> list[str]:
    """Exact counts as decimal strings, refusing those past Python's digit limit."""
    try:
        return [str(c) for c in counts]
    except ValueError:
        raise InvalidBoundsError(
            f"a count has more than {sys.get_int_max_str_digits()} decimal digits, "
            "past Python's int-to-str limit"
        ) from None


def total_walks(t: Tree, k: int) -> int:
    """Number of walks with exactly k steps, over all start vertices."""
    if k < 0:
        raise InvalidBoundsError(f"walk length must be >= 0, got {k}")
    return sum(_propagate(t, [1] * t.n, k))


def _coerce_ls(ls) -> LevelSequence:
    return ls if isinstance(ls, LevelSequence) else LevelSequence(tuple(ls))


def walks_by_level_sequence(t: Tree, ls) -> dict[int, int]:
    """Count walks following the level profile ``ls``, per start vertex.

    The tree must be rooted (levels come from its root).  Returns a vector
    over the vertices on level ``ls[0]``: vertex -> number of walks that
    start there and visit the prescribed levels in order.
    """
    profile = _coerce_ls(ls).levels
    level = t.levels
    # Backward propagation: vec[v] = walks from v realizing the profile suffix.
    vec = _propagate(t, [int(h == profile[-1]) for h in level], profile[-2::-1])
    return {v: vec[v] for v in range(t.n) if level[v] == profile[0]}


def closed_walks_by_level_sequence(t: Tree, ls) -> dict[int, int]:
    """Count closed walks following ``ls`` (first level = last level), per vertex."""
    profile = _coerce_ls(ls).levels
    if profile[0] != profile[-1]:
        raise LevelMismatchError(
            f"closed walks need equal first and last level, got {profile[0]} != {profile[-1]}"
        )
    level = t.levels
    return {
        s: _propagate(t, [int(v == s) for v in range(t.n)], profile[1:])[s]
        for s in range(t.n)
        if level[s] == profile[0]
    }


def closed_walks_from_directed_edge(t: Tree, u: int, v: int, k: int) -> int:
    """Closed k-walks whose first step goes u -> v along the edge (u, v).

    Equals the number of (k-1)-step walks from v back to u; zero for k = 0
    (and for every odd k, trees being bipartite).
    """
    if k < 0:
        raise InvalidBoundsError(f"walk length must be >= 0, got {k}")
    e = (min(u, v), max(u, v))
    if e not in t.edges:
        raise NotAnEdgeError(f"({u},{v}) is not an edge of the tree")
    if k == 0:
        return 0
    return _propagate(t, [int(w == v) for w in range(t.n)], k - 1)[u]


def first_strict_difference(t1: Tree, t2: Tree, k_max: int) -> int | None:
    """Smallest k <= k_max where the spectral moments differ, else None.

    On trees all odd moments vanish, so the answer is always even.
    """
    m1 = spectral_moments_up_to(t1, k_max)
    m2 = spectral_moments_up_to(t2, k_max)
    for k in range(k_max + 1):
        if m1[k] != m2[k]:
            return k
    return None
