"""Branch moves on level greedy trees and stepwise majorization of sequences.

A branch move detaches the subtree hanging from a child of a vertex and
re-attaches it to an earlier (hence higher-degree) vertex on the same level.
Iterating such moves is what pushes walk counts up toward the greedy tree,
and single majorization steps connect two comparable degree sequences by a
chain of neighbors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .degree_sequences import (
    DegreeSequence,
    format_degree_sequence,
    majorizes,
    validate_degree_sequence,
)
from .errors import AlreadyEqualError, InvalidMoveError, NotMajorizedError
from .trees import Tree, _bfs, _middle, is_greedy_labeled

__all__ = [
    "BranchMove",
    "move_branch",
    "midpoint_root",
    "majorization_step",
    "majorization_chain",
    "chain_to_json",
    "all_branch_moves",
]


@dataclass(frozen=True)
class BranchMove:
    """Move the branch rooted at ``branch_root`` from ``source`` to ``target``.

    All three are vertex ids of a greedy-labeled tree; ``source`` and
    ``target`` must sit on the same level with ``target`` in an earlier
    position, and ``branch_root`` must be a child of ``source``.
    """

    source: int
    target: int
    branch_root: int


def move_branch(t: Tree, move: BranchMove) -> Tree:
    """Apply a branch move; the result keeps the same root but is generally
    no longer level greedy.

    Vertex-rooted trees only admit moves on levels strictly between the
    first and the last one; edge-rooted trees also allow level 1 (either
    root endpoint may give up a branch to the other).
    """
    if not t.is_rooted:
        raise InvalidMoveError("branch moves need a rooted tree")
    if not is_greedy_labeled(t):
        raise InvalidMoveError(
            "branch moves address vertices by greedy label position; "
            "rebuild the tree with a greedy builder first"
        )
    for v in (move.source, move.target, move.branch_root):
        if not 0 <= v < t.n:
            raise InvalidMoveError(f"vertex {v} not in 0..{t.n - 1}")
    level = t.levels
    i = level[move.source]
    if level[move.target] != i:
        raise InvalidMoveError(
            f"source level {i} != target level {level[move.target]}"
        )
    if move.target >= move.source:
        raise InvalidMoveError(
            f"target position {move.target} must precede source {move.source}"
        )
    if move.branch_root not in t.adjacency[move.source] or level[move.branch_root] != i + 1:
        raise InvalidMoveError(
            f"{move.branch_root} is not a child of {move.source}"
        )
    if t.root_vertex is not None and i == 1:
        raise InvalidMoveError("vertex-rooted moves need level > 1")
    old = (min(move.source, move.branch_root), max(move.source, move.branch_root))
    new = (min(move.target, move.branch_root), max(move.target, move.branch_root))
    edges = tuple(e for e in t.edges if e != old) + (new,)
    return Tree(t.n, edges, root_vertex=t.root_vertex, root_edge=t.root_edge)


def midpoint_root(t: Tree, u: int, v: int):
    """Root in the middle of the u-v path: ("vertex", w) or ("edge", (a, b)).

    An even-length path has a middle vertex, an odd-length one a middle
    edge.  This is the root choice that puts two branch attachment points
    on a common level.
    """
    for x in (u, v):
        if not 0 <= x < t.n:
            raise InvalidMoveError(f"vertex {x} not in 0..{t.n - 1}")
    mid = _middle(_bfs(t.adjacency, (u,))[1], u, v)
    return ("vertex", mid[0]) if len(mid) == 1 else ("edge", mid)


def majorization_step(b, d) -> DegreeSequence:
    """One step from ``b`` toward ``d``: raise the first differing entry,
    lower the last one.

    Requires ``d`` to majorize ``b``.  The result is again a tree degree
    sequence majorized by ``d`` and majorizing ``b``.
    """
    bs, ds = validate_degree_sequence(b), validate_degree_sequence(d)
    if not majorizes(ds, bs):
        raise NotMajorizedError(f"{ds} does not majorize {bs}")
    if bs.degrees == ds.degrees:
        raise AlreadyEqualError("sequences are already equal")
    diffs = [i for i, (x, y) in enumerate(zip(bs, ds)) if x != y]
    lo, hi = diffs[0], diffs[-1]
    out = list(bs.degrees)
    out[lo] += 1
    out[hi] -= 1
    return DegreeSequence(tuple(out))


def majorization_chain(b, d) -> list[DegreeSequence]:
    """Chain b = c_0, c_1, ..., c_m = d of single majorization steps."""
    bs, ds = validate_degree_sequence(b), validate_degree_sequence(d)
    if not majorizes(ds, bs):
        raise NotMajorizedError(f"{ds} does not majorize {bs}")
    chain = [bs]
    while chain[-1].degrees != ds.degrees:
        chain.append(majorization_step(chain[-1], ds))
    return chain


def chain_to_json(chain: Iterable[DegreeSequence]) -> str:
    """Serialize a majorization chain as a JSON array of sequence strings."""
    return json.dumps([format_degree_sequence(c) for c in chain])


def all_branch_moves(t: Tree) -> Iterable[BranchMove]:
    """Every admissible branch move of a greedy-labeled rooted tree."""
    if not t.is_rooted or not is_greedy_labeled(t):
        return
    level = t.levels
    min_level = 1 if t.root_edge is not None else 2
    for source in range(t.n):
        i = level[source]
        if i < min_level:
            continue
        targets = [v for v in range(source) if level[v] == i]
        if not targets:
            continue
        for branch_root in t.adjacency[source]:
            if level[branch_root] != i + 1:
                continue
            for target in targets:
                yield BranchMove(source, target, branch_root)
