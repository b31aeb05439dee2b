"""Greedy construction, leveled degree sequences, canonical codes, formats."""

import json
import math
import random

import pytest

from greedy_spectra import (
    Forest,
    InvalidBoundsError,
    LeveledDegreeSequence,
    NotAnEdgeError,
    NotRealizableError,
    RootNotInTreeError,
    Tree,
    build_edge_rooted_level_greedy,
    build_greedy_tree,
    build_level_greedy_forest,
    build_level_greedy_tree,
    build_volkmann_tree,
    canonical_code,
    centers,
    forest_leveled_degree_sequence,
    from_json,
    greedy_positions,
    is_greedy_labeled,
    is_isomorphic,
    leveled_degree_sequence,
    midpoint_root,
    spectral_moments_up_to,
    to_dot,
    to_json,
    tree_degree_sequences,
    tree_from_dict,
    tree_to_dict,
    validate_degree_sequence,
)
from oracles import random_tree, unrooted_trees


def _path(n, root_vertex=None, root_edge=None):
    return Tree(
        n,
        tuple((i, i + 1) for i in range(n - 1)),
        root_vertex=root_vertex,
        root_edge=root_edge,
    )


SPIDER_221 = Tree(6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5)), root_vertex=0)
SPIDER_311 = Tree(6, ((0, 1), (1, 2), (2, 3), (0, 4), (0, 5)))


# ---------------------------------------------------------------------------
# Tree validation


def test_tree_rejects_wrong_edge_count():
    with pytest.raises(NotRealizableError):
        Tree(4, ((0, 1), (1, 2)))


def test_tree_rejects_cycles_and_duplicates():
    with pytest.raises(NotRealizableError):
        Tree(4, ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(NotRealizableError):
        Tree(3, ((0, 1), (1, 0)))
    with pytest.raises(NotRealizableError):
        Tree(2, ((1, 1),))


def test_tree_rejects_out_of_range_edges():
    with pytest.raises(NotRealizableError):
        Tree(3, ((0, 1), (1, 3)))


def test_tree_rejects_double_roots_and_bad_roots():
    with pytest.raises(InvalidBoundsError):
        Tree(2, ((0, 1),), root_vertex=0, root_edge=(0, 1))
    with pytest.raises(RootNotInTreeError):
        Tree(2, ((0, 1),), root_vertex=5)
    with pytest.raises(NotAnEdgeError):
        Tree(3, ((0, 1), (1, 2)), root_edge=(0, 2))


def test_tree_normalizes_edge_order():
    t = Tree(3, ((2, 1), (1, 0)))
    assert t.edges == ((0, 1), (1, 2))
    assert Tree(2, ((1, 0),), root_edge=(1, 0)).root_edge == (0, 1)


def test_tree_basic_properties():
    t = SPIDER_221
    assert t.adjacency[0] == (1, 2, 3)
    assert t.degrees == (3, 2, 2, 1, 1, 1)
    assert t.degree_sequence() == validate_degree_sequence([3, 2, 2, 1, 1, 1])
    assert t.levels == (1, 2, 2, 2, 3, 3)
    assert t.height == 3


def test_levels_require_a_root():
    with pytest.raises(RootNotInTreeError):
        _ = _path(3).levels


def test_single_vertex_tree():
    t = Tree(1, (), root_vertex=0)
    assert t.degrees == (0,)
    assert t.levels == (1,)


def test_forest_components_need_vertex_roots():
    with pytest.raises(RootNotInTreeError):
        Forest((_path(2),))


# ---------------------------------------------------------------------------
# level greedy builders


def test_forest_single_root_path():
    f = build_level_greedy_forest(LeveledDegreeSequence(((2,), (1, 1))))
    assert len(f) == 1
    t = f.components[0]
    assert t.edges == ((0, 1), (0, 2)) and t.root_vertex == 0


def test_forest_components_follow_root_order():
    ld = LeveledDegreeSequence(((2, 1), (2, 2, 1), (1, 1)))
    f = build_level_greedy_forest(ld)
    assert [c.n for c in f] == [5, 2]
    first, second = f.components
    assert first.edges == ((0, 1), (0, 2), (1, 3), (2, 4))
    assert second.edges == ((0, 1),)
    assert all(is_greedy_labeled(c) for c in f)
    assert forest_leveled_degree_sequence(f) == ld


def test_forest_rejects_edge_rooted_input():
    with pytest.raises(InvalidBoundsError):
        build_level_greedy_forest(LeveledDegreeSequence(((1, 1),), root_kind="edge"))


def test_level_greedy_tree_end_rooted_path():
    ld = LeveledDegreeSequence(((1,), (2,), (2,), (1,)))
    t = build_level_greedy_tree(ld)
    assert is_isomorphic(t, _path(4, root_vertex=0))
    assert leveled_degree_sequence(t) == ld


def test_level_greedy_tree_rejects_forests():
    with pytest.raises(InvalidBoundsError):
        build_level_greedy_tree(LeveledDegreeSequence(((1, 1), (1, 1))))


def test_edge_rooted_single_edge():
    t = build_edge_rooted_level_greedy(
        LeveledDegreeSequence(((1, 1),), root_kind="edge")
    )
    assert t.n == 2 and t.edges == ((0, 1),) and t.root_edge == (0, 1)


def test_edge_rooted_path_through_middle():
    t = build_edge_rooted_level_greedy(
        LeveledDegreeSequence(((2, 2), (1, 1)), root_kind="edge")
    )
    assert is_isomorphic(t, _path(4, root_edge=(1, 2)))


def test_edge_rooted_uneven_pair():
    # root endpoints of degree 3 and 2: two leaves under one, one under the other
    ld = LeveledDegreeSequence(((3, 2), (1, 1, 1)), root_kind="edge")
    t = build_edge_rooted_level_greedy(ld)
    assert t.edges == ((0, 1), (0, 2), (0, 3), (1, 4))
    assert t.degrees == (3, 2, 1, 1, 1)
    assert leveled_degree_sequence(t) == ld


def test_edge_rooted_rejects_vertex_input():
    with pytest.raises(InvalidBoundsError):
        build_edge_rooted_level_greedy(LeveledDegreeSequence(((2,), (1, 1))))


def test_round_trip_on_wide_example():
    ld = LeveledDegreeSequence(
        (
            (4,),
            (4, 4, 3, 3),
            (3, 3, 3, 3, 3, 2, 2, 1, 1, 1),
            (1,) * 12,
        )
    )
    t = build_level_greedy_tree(ld)
    assert t.n == 27
    assert leveled_degree_sequence(t) == ld
    assert is_greedy_labeled(t)
    # the greedy tree of the plain degree multiset has the same levels
    d = validate_degree_sequence([x for lvl in ld.levels for x in lvl])
    assert canonical_code(build_greedy_tree(d)) == canonical_code(t)


# ---------------------------------------------------------------------------
# greedy trees of degree sequences


def test_greedy_tree_spider():
    t = build_greedy_tree((3, 2, 2, 1, 1, 1))
    assert t.edges == SPIDER_221.edges
    assert t.root_vertex == 0


def test_greedy_tree_path_and_star():
    assert is_isomorphic(build_greedy_tree((2, 2, 1, 1)), _path(4), ignore_roots=True)
    star = build_greedy_tree((3, 1, 1, 1))
    assert star.degrees == (3, 1, 1, 1)


def test_greedy_tree_single_vertex():
    t = build_greedy_tree((0,))
    assert t.n == 1 and t.root_vertex == 0


def test_greedy_tree_realizes_its_degree_sequence():
    for n in range(2, 13):
        for d in tree_degree_sequences(n):
            assert build_greedy_tree(d).degree_sequence() == d


def test_greedy_tree_levels_are_interlocking():
    # minimum degree on a level never falls below the next level's maximum
    for n in range(2, 11):
        for d in tree_degree_sequences(n):
            ld = leveled_degree_sequence(build_greedy_tree(d))
            for a, b in zip(ld.levels, ld.levels[1:]):
                assert min(a) >= max(b)


def test_greedy_tree_is_level_greedy_from_every_root():
    for n in range(2, 9):
        for d in tree_degree_sequences(n):
            g = build_greedy_tree(d)
            for v in range(g.n):
                rooted = Tree(g.n, g.edges, root_vertex=v)
                rebuilt = build_level_greedy_tree(leveled_degree_sequence(g, v))
                assert canonical_code(rooted) == canonical_code(rebuilt)
            for u, w in g.edges:
                rooted = Tree(g.n, g.edges, root_edge=(u, w))
                rebuilt = build_edge_rooted_level_greedy(
                    leveled_degree_sequence(g, (u, w))
                )
                assert canonical_code(rooted) == canonical_code(rebuilt)


def _interlocking(ld):
    return all(min(a) >= max(b) for a, b in zip(ld.levels, ld.levels[1:]))


def test_non_greedy_tree_fails_interlocking_from_every_root():
    # the long spider is level greedy from each root, yet no root gives the
    # interlocking level property, so it is not a greedy tree
    t = SPIDER_311
    for v in range(t.n):
        ld = leveled_degree_sequence(t, v)
        rebuilt = build_level_greedy_tree(ld)
        rooted = Tree(t.n, t.edges, root_vertex=v)
        assert canonical_code(rooted) == canonical_code(rebuilt)
        assert not _interlocking(ld)
    # while the greedy tree of the same degree sequence passes both
    g = build_greedy_tree(t.degree_sequence())
    assert _interlocking(leveled_degree_sequence(g))


# ---------------------------------------------------------------------------
# Volkmann trees


def test_volkmann_extremes():
    for n in range(3, 11):
        assert is_isomorphic(build_volkmann_tree(n, 2), _path(n), ignore_roots=True)
        star = build_volkmann_tree(n, n - 1)
        assert star.degrees[star.root_vertex] == n - 1


def test_volkmann_15_3_reference_shape():
    t = build_volkmann_tree(15, 3)
    assert t.root_vertex == 0
    assert t.edges == (
        (0, 1), (0, 2), (0, 3),
        (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9),
        (4, 10), (4, 11), (5, 12), (5, 13), (6, 14),
    )
    multiset = {}
    for d in t.degrees:
        multiset[d] = multiset.get(d, 0) + 1
    assert multiset == {3: 6, 2: 1, 1: 8}


def test_volkmann_7_3():
    assert build_volkmann_tree(7, 3).degree_sequence().degrees == (3, 3, 2, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# leveled degree sequences from arbitrary roots


def test_leveled_degree_sequence_examples():
    assert leveled_degree_sequence(_path(4), 0).levels == ((1,), (2,), (2,), (1,))
    assert leveled_degree_sequence(_path(3), 1).levels == ((2,), (1, 1))
    k2 = leveled_degree_sequence(_path(2), (0, 1))
    assert k2.levels == ((1, 1),) and k2.root_kind == "edge"


def test_leveled_degree_sequence_root_resolution():
    rooted = _path(4, root_vertex=2)
    assert leveled_degree_sequence(rooted).levels == ((2,), (2, 1), (1,))
    with pytest.raises(RootNotInTreeError):
        leveled_degree_sequence(_path(4))
    with pytest.raises(RootNotInTreeError):
        leveled_degree_sequence(_path(4), 9)
    with pytest.raises(NotAnEdgeError):
        leveled_degree_sequence(_path(4), (0, 2))


# ---------------------------------------------------------------------------
# canonical codes and isomorphism


def _relabel(t, perm):
    edges = tuple((perm[u], perm[v]) for u, v in t.edges)
    rv = perm[t.root_vertex] if t.root_vertex is not None else None
    re = (
        (perm[t.root_edge[0]], perm[t.root_edge[1]])
        if t.root_edge is not None
        else None
    )
    return Tree(t.n, edges, root_vertex=rv, root_edge=re)


def test_canonical_code_is_relabeling_invariant():
    rng = random.Random(31)
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 200))
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert canonical_code(t) == canonical_code(_relabel(t, perm))
        rooted = Tree(t.n, t.edges, root_vertex=rng.randrange(t.n))
        assert canonical_code(rooted) == canonical_code(_relabel(rooted, perm))
        edge_rooted = Tree(t.n, t.edges, root_edge=rng.choice(t.edges))
        assert canonical_code(edge_rooted) == canonical_code(_relabel(edge_rooted, perm))


def test_canonical_code_respects_roots_unless_ignored():
    end = _path(4, root_vertex=0)
    mid = _path(4, root_vertex=1)
    assert canonical_code(end) != canonical_code(mid)
    assert canonical_code(end, ignore_root=True) == canonical_code(mid, ignore_root=True)


def test_rooted_and_edge_rooted_codes_are_disjoint():
    v = canonical_code(_path(2, root_vertex=0))
    e = canonical_code(_path(2, root_edge=(0, 1)))
    assert v.startswith(b"V") and e.startswith(b"E") and v != e


def test_is_isomorphic_examples():
    assert is_isomorphic(_path(4), _relabel(_path(4), [3, 1, 0, 2]))
    assert not is_isomorphic(SPIDER_221, SPIDER_311)
    assert is_isomorphic(_path(2, root_vertex=0), _path(2, root_vertex=1))
    assert not is_isomorphic(_path(4, root_vertex=0), _path(4, root_vertex=1))
    assert is_isomorphic(
        _path(4, root_vertex=0), _path(4, root_vertex=1), ignore_roots=True
    )


def _eccentricity(t, v):
    """Largest distance from v, by expanding distance layers until none is left."""
    seen, layer, ecc = {v}, [v], -1
    while layer:
        ecc += 1
        layer = [u for w in layer for u in t.adjacency[w] if u not in seen]
        seen.update(layer)
    return ecc


def test_centers():
    assert centers(_path(4)) == (1, 2)
    assert centers(_path(5)) == (2,)
    assert centers(Tree(4, ((0, 1), (0, 2), (0, 3)))) == (0,)
    assert centers(_path(2)) == (0, 1)
    assert centers(Tree(1, ())) == (0,)
    rng = random.Random(37)
    for _ in range(150):
        t = random_tree(rng, rng.randint(2, 60))
        ecc = [_eccentricity(t, v) for v in range(t.n)]
        assert centers(t) == tuple(v for v in range(t.n) if ecc[v] == min(ecc))


def test_deep_path_needs_no_recursion():
    # 5000 levels: any recursive walk would pass the default recursion limit
    n = 5000
    mid = (n // 2 - 1, n // 2)
    t = _path(n)
    end_rooted = _path(n, root_vertex=0)
    mid_rooted = _path(n, root_edge=mid)
    half = b"(" * (n // 2) + b")" * (n // 2)
    assert end_rooted.levels == tuple(range(1, n + 1))
    assert mid_rooted.levels == tuple(range(n // 2, 0, -1)) + tuple(range(1, n // 2 + 1))
    assert canonical_code(end_rooted) == b"V" + b"(" * n + b")" * n
    assert canonical_code(mid_rooted) == canonical_code(t) == b"E" + half + half
    assert centers(t) == mid
    assert midpoint_root(t, 0, n - 1) == ("edge", mid)
    assert midpoint_root(t, 0, n - 2) == ("vertex", n // 2 - 1)
    assert leveled_degree_sequence(t, 0).levels == ((1,),) + ((2,),) * (n - 2) + ((1,),)
    assert leveled_degree_sequence(mid_rooted).levels == ((2, 2),) * (n // 2 - 1) + ((1, 1),)
    mv = spectral_moments_up_to(t, 20)
    assert mv[2] == 2 * (n - 1)
    assert mv[4] == 2 * sum(d * d for d in t.degrees) - 2 * (n - 1)
    # a closed 2j-walk on a path with n > 2j vertices meets at most one end:
    # by reflection, M_2j = (n + 1) binom(2j, j) - 4^j
    assert all(mv[k] == 0 for k in range(1, 21, 2))
    assert all(mv[2 * j] == (n + 1) * math.comb(2 * j, j) - 4 ** j for j in range(11))


# ---------------------------------------------------------------------------
# greedy labeling checks


def test_greedy_builds_are_greedy_labeled():
    for d in ((2, 2, 1, 1), (3, 2, 2, 1, 1, 1), (4, 3, 2, 2, 2, 1, 1, 1, 1, 1)):
        assert is_greedy_labeled(build_greedy_tree(d))
    t = build_edge_rooted_level_greedy(
        LeveledDegreeSequence(((3, 2), (1, 1, 1)), root_kind="edge")
    )
    assert is_greedy_labeled(t)


def test_greedy_labeling_violations():
    # unrooted trees are never greedy labeled
    assert not is_greedy_labeled(_path(4))
    # ids not level-major
    assert not is_greedy_labeled(Tree(4, ((0, 1), (0, 2), (0, 3)), root_vertex=1))
    # level degrees out of order: degree-1 vertex 1 before degree-2 vertex 2
    bad = Tree(4, ((0, 1), (0, 2), (2, 3)), root_vertex=0)
    assert not is_greedy_labeled(bad)
    # non-contiguous child blocks
    crossed = Tree(
        6, ((0, 1), (0, 2), (1, 3), (2, 4), (1, 5)), root_vertex=0
    )
    assert not is_greedy_labeled(crossed)


def test_tie_break_shuffles_keep_the_same_tree():
    rng = random.Random(45)
    for _ in range(40):
        base = random_tree(rng, rng.randint(2, 10))
        root = rng.randrange(base.n)
        ld = leveled_degree_sequence(base, root)
        standard = build_level_greedy_tree(ld)
        variant = _build_with_shuffled_ties(ld, rng)
        assert canonical_code(variant) == canonical_code(standard)


def _build_with_shuffled_ties(ld, rng):
    """Greedy construction where equal-degree parents trade places."""
    levels = ld.levels
    offsets = [0]
    for lvl in levels:
        offsets.append(offsets[-1] + len(lvl))
    edges = []
    for h, lvl in enumerate(levels):
        order = list(range(len(lvl)))
        # shuffle inside runs of equal degree; block sizes stay sorted
        start = 0
        while start < len(lvl):
            stop = start
            while stop < len(lvl) and lvl[stop] == lvl[start]:
                stop += 1
            run = order[start:stop]
            rng.shuffle(run)
            order[start:stop] = run
            start = stop
        child = offsets[h + 1]
        for j in order:
            count = lvl[j] if h == 0 else lvl[j] - 1
            for _ in range(count):
                edges.append((offsets[h] + j, child))
                child += 1
    return Tree(ld.n, tuple(edges), root_vertex=0)


def test_greedy_positions_label_layer():
    assert greedy_positions(SPIDER_221) == (
        (1, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)
    )
    t = build_edge_rooted_level_greedy(
        LeveledDegreeSequence(((2, 2), (1, 1)), root_kind="edge")
    )
    assert greedy_positions(t) == ((1, 1), (1, 2), (2, 1), (2, 2))
    with pytest.raises(RootNotInTreeError):
        greedy_positions(_path(4))


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_plain_and_rooted():
    for t in (
        _path(5),
        SPIDER_221,
        _path(4, root_edge=(1, 2)),
        Tree(1, (), root_vertex=0),
    ):
        assert from_json(to_json(t)) == t


def test_tree_dict_shape():
    obj = tree_to_dict(_path(3, root_vertex=1))
    assert obj == {"n": 3, "edges": [[0, 1], [1, 2]], "root_vertex": 1, "root_edge": None}
    assert tree_from_dict(obj) == _path(3, root_vertex=1)


def test_from_json_rejects_malformed_payloads():
    for text in (
        "{}",
        '{"n": 2}',
        '{"n": 2, "edges": [[0, 1], [1, 0]]}',
        "[]",
        '{"n": 2, "edges": [[0, true]]}',
        '{"n": 2, "edges": [[0, 1.5]]}',
        '{"n": "2", "edges": [[0, 1]]}',
    ):
        with pytest.raises((NotRealizableError, InvalidBoundsError)):
            from_json(text)


def test_to_dot_mentions_every_edge_and_level():
    t = SPIDER_221
    dot = to_dot(t)
    for u, v in t.edges:
        assert f"{u} -- {v};" in dot
    assert dot.count("rank=same") == t.height
    assert "rank=same" not in to_dot(_path(3))


def test_export_parses_as_graphviz_enough():
    dot = to_dot(_path(3))
    assert dot.startswith("graph tree {") and dot.rstrip().endswith("}")


# one extra guard: codes are stable across processes (no randomization)
def test_canonical_code_deterministic_constant():
    assert canonical_code(_path(3)) == canonical_code(Tree(3, ((2, 1), (1, 0))))


def test_unrooted_tree_catalog_sizes():
    assert [len(unrooted_trees(n)) for n in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]
