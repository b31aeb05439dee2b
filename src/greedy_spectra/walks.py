"""Exact walk counting: spectral moments, total walks, level-restricted walks.

The k-th spectral moment of a graph equals the number of closed k-walks, so
every quantity here is an exact Python integer; no floating point is involved.

Moments come from matching numbers.  For a tree,

    det(xI - A) = sum_j (-1)^j m_j x^(n-2j),

with m_j the number of j-edge matchings, so the elementary symmetric
functions of the eigenvalues are e_2j = (-1)^j m_j and e_odd = 0.  One
knapsack up a rooted traversal counts the matchings of each subtree by size,
keeping "root unmatched" and "any" apart, and Newton's identities turn them
into moments:

    M_2j = -2j e_2j - sum_{l=1..j-1} e_2l M_{2j-2l}.

M_0..M_k needs m_1..m_{k/2} only, and e_2l vanishes past the matching
number, so the recurrence has at most that many terms; odd moments of a tree
are zero.  The same kernel gives the characteristic polynomial.  Total and
level-restricted walks push counting vectors along adjacency lists.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import zip_longest
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
        """Read what ``to_json`` writes: a non-empty JSON array of decimal strings."""
        try:
            items = json.loads(text)
            if isinstance(items, list) and all(
                isinstance(s, str) and s.isascii() and s.isdigit() for s in items
            ):
                return cls(tuple(map(int, items)))
        except (ValueError, RecursionError):  # not JSON, nested too deep, too many digits
            pass
        raise InvalidBoundsError(
            "a moment vector is written as a non-empty JSON array of decimal strings"
        )


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
    """Moment vector (M_0, ..., M_k_max) from matching numbers by Newton's identities."""
    if k_max < 0:
        raise InvalidBoundsError(f"walk length must be >= 0, got {k_max}")
    counts = [0] * (k_max + 1)
    counts[0] = t.n
    e = [(-1) ** j * m for j, m in enumerate(_matching_numbers(t, k_max // 2))]
    for j in range(1, k_max // 2 + 1):
        s = sum(e[l] * counts[2 * (j - l)] for l in range(1, min(j, len(e))))
        counts[2 * j] = -s - 2 * j * e[j] if j < len(e) else -s
    return MomentVector(tuple(counts))


def _matching_numbers(t: Tree, half: int) -> list[int]:
    """m_0, m_1, ...: the number of j-edge matchings for j <= ``half``.

    A knapsack up a rooted traversal: free[v] and every[v] count the
    matchings of v's subtree by size, those leaving v unmatched and all of
    them.  Hanging child c on v multiplies both by every[c] and adds to
    every[v] y * free[v] * free[c] for the matchings that take the edge vc.
    Leading coefficients stay positive, so the lists end at the matching
    number (or at ``half``) with no trailing zeros.
    """
    order, parent, _ = _bfs(t.adjacency, (0,))
    free = [[1] for _ in range(t.n)]
    every = [[1] for _ in range(t.n)]
    for c in reversed(order[1:]):
        v = parent[c]
        apart = _product(every[v], every[c], half + 1)
        joined = [0] + _product(free[v], free[c], half)
        every[v] = [x + y for x, y in zip_longest(apart, joined, fillvalue=0)]
        free[v] = _product(free[v], every[c], half + 1)
    return every[order[0]]


def _product(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """The first ``length`` coefficients of a(y) b(y), none past its degree."""
    out = [0] * min(length, len(a) + len(b) - 1)
    for i, x in enumerate(a[: len(out)]):
        for j, y in enumerate(b[: len(out) - i], i):
            out[j] += x * y
    return out


def _decimal_strings(counts: Sequence[int]) -> list[str]:
    """Exact counts as decimal strings, refusing those past Python's digit limit."""
    try:
        str(max(counts, key=abs, default=0))  # the longest first, so a refusal is quick
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
