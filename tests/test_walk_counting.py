"""Exact walk counts: moments, totals, level-restricted profiles, sweeps."""

import random

import pytest

from greedy_spectra import (
    InvalidBoundsError,
    LevelMismatchError,
    LevelSequence,
    MomentVector,
    NotAnEdgeError,
    Tree,
    build_level_greedy_tree,
    build_volkmann_tree,
    characteristic_polynomial,
    closed_walks_by_level_sequence,
    closed_walks_from_directed_edge,
    first_strict_difference,
    leveled_degree_sequence,
    majorizes,
    spectral_moment,
    spectral_moments_up_to,
    total_walks,
    walks_by_level_sequence,
)
from oracles import (
    adjacency_matrix,
    char_poly_from_moments,
    moments_by_branch_series,
    moments_by_matrix_power,
    random_tree,
    rooted_trees,
    unrooted_trees,
    walk_totals_by_matrix_power,
)

P3 = Tree(3, ((0, 1), (0, 2)), root_vertex=0)
P4 = Tree(4, ((0, 1), (1, 2), (2, 3)))
S4 = Tree(4, ((0, 1), (0, 2), (0, 3)))
SPIDER_221 = Tree(6, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5)), root_vertex=0)
SPIDER_311 = Tree(6, ((0, 1), (1, 2), (2, 3), (0, 4), (0, 5)))


# ---------------------------------------------------------------------------
# value objects


def test_moment_vector_validation_and_json():
    mv = MomentVector((4, 0, 6, 0, 14))
    assert mv.k_max == 4 and mv[4] == 14 and list(mv) == [4, 0, 6, 0, 14]
    assert mv.to_json() == '["4", "0", "6", "0", "14"]'
    assert MomentVector.from_json(mv.to_json()) == mv
    for payload in [
        '["x"]', '["' + "9" * 5000 + '"]', '["1", null]', "{", "5",
        '"12"', "[1.5]", "[true]", "[]", '["-1"]', "[" * 100000,
    ]:
        with pytest.raises(InvalidBoundsError):
            MomentVector.from_json(payload)
    with pytest.raises(InvalidBoundsError):
        MomentVector(())
    with pytest.raises(InvalidBoundsError):
        MomentVector((1, -2))


def test_level_sequence_validation():
    assert LevelSequence((1, 2, 1)).steps == 2
    with pytest.raises(LevelMismatchError):
        LevelSequence(())
    with pytest.raises(LevelMismatchError):
        LevelSequence((0, 1))
    with pytest.raises(LevelMismatchError):
        LevelSequence((1, 3))
    with pytest.raises(LevelMismatchError):
        LevelSequence((2, 2))


# ---------------------------------------------------------------------------
# spectral moments


def test_moment_spot_values():
    assert spectral_moments_up_to(P4, 4).counts == (4, 0, 6, 0, 14)
    assert spectral_moment(S4, 4) == 18
    assert spectral_moments_up_to(Tree(2, ((0, 1),)), 3).counts == (2, 0, 2, 0)
    assert spectral_moment(SPIDER_221, 6) == 106
    assert spectral_moment(SPIDER_311, 6) == 100
    assert spectral_moment(SPIDER_221, 4) == spectral_moment(SPIDER_311, 4) == 30


def test_negative_k_rejected():
    with pytest.raises(InvalidBoundsError):
        spectral_moment(P4, -1)
    with pytest.raises(InvalidBoundsError):
        total_walks(P4, -2)


def test_low_moments_have_closed_forms():
    rng = random.Random(51)
    for _ in range(25):
        t = random_tree(rng, rng.randint(1, 12))
        mv = spectral_moments_up_to(t, 4)
        assert mv[0] == t.n
        assert mv[1] == 0
        assert mv[2] == 2 * (t.n - 1)
        # M4 = 2*sum(d^2) - 2m on a tree: every closed 4-walk uses 1 or 2 edges
        assert mv[4] == 2 * sum(d * d for d in t.degrees) - 2 * (t.n - 1)


def test_odd_moments_vanish_and_even_ones_grow():
    rng = random.Random(52)
    for _ in range(15):
        t = random_tree(rng, rng.randint(2, 10))
        mv = spectral_moments_up_to(t, 12)
        assert all(mv[k] == 0 for k in range(1, 13, 2))
        assert all(mv[k + 2] >= mv[k] for k in range(0, 11, 2))


def test_moments_match_matrix_powers_exhaustively():
    for n in range(1, 10):
        for t in unrooted_trees(n):
            assert list(spectral_moments_up_to(t, 12)) == moments_by_matrix_power(t, 12)


def test_single_vertex_moments():
    assert spectral_moments_up_to(Tree(1, ()), 5).counts == (1, 0, 0, 0, 0, 0)


def test_moments_match_matrix_powers_across_the_newton_seam():
    # Past twice the matching number the Newton recurrence drops its
    # -2j e_2j term; k_max on both sides of k = n, odd ones too, runs past it.
    rng = random.Random(54)
    for n in [10, 60] + [rng.randint(11, 59) for _ in range(5)]:
        t = random_tree(rng, n)
        want = moments_by_matrix_power(t, 2 * n + 3)
        odd = rng.randrange(1, 2 * n + 3, 2)
        for k_max in (n - 1, n, n + 1, 2 * n + 3, odd):
            assert list(spectral_moments_up_to(t, k_max)) == want[: k_max + 1], (n, k_max)


def test_moments_match_branch_series_at_large_n():
    # The rerooted branch series share no code with the matching knapsack
    # and stay fast where matrix powers do not.
    volkmann = build_volkmann_tree(1000, 3)
    assert list(spectral_moments_up_to(volkmann, 20)) == moments_by_branch_series(volkmann, 20)
    rng = random.Random(15)
    for _ in range(5):
        n = rng.randint(100, 300)
        t = random_tree(rng, n)
        for k_max in (n - 1, n + 1):
            assert list(spectral_moments_up_to(t, k_max)) == moments_by_branch_series(t, k_max)
    star = Tree(401, tuple((0, v) for v in range(1, 401)))  # eigenvalues +-20 and 0
    want = [401] + [0 if k % 2 else 2 * 400 ** (k // 2) for k in range(1, 403)]
    assert list(spectral_moments_up_to(star, 402)) == moments_by_branch_series(star, 402) == want
    for n in (rng.randint(190, 210), rng.randint(190, 210)):
        t = random_tree(rng, n)
        want = char_poly_from_moments(moments_by_branch_series(t, n))
        assert list(characteristic_polynomial(t)) == want


def test_long_moment_vector_of_p3():
    # P_3 has eigenvalues +-sqrt(2) and 0, so M_2j = 2^(j+1) for j >= 1
    mv = spectral_moments_up_to(P3, 20000)
    assert mv.k_max == 20000 and mv[0] == 3
    assert all(mv[k] == 0 for k in range(1, 20001, 2))
    assert all(mv[2 * j] == 2 ** (j + 1) for j in range(1, 10001))


# ---------------------------------------------------------------------------
# total walks


def test_total_walks_basics():
    assert total_walks(P3, 0) == 3
    assert total_walks(P3, 1) == 4
    assert total_walks(P3, 2) == 6
    rng = random.Random(53)
    for _ in range(10):
        t = random_tree(rng, rng.randint(2, 9))
        assert total_walks(t, 0) == t.n
        assert total_walks(t, 1) == 2 * (t.n - 1)


def test_total_walks_match_matrix_powers():
    for n in range(1, 8):
        for t in unrooted_trees(n):
            expected = walk_totals_by_matrix_power(t, 8)
            assert [total_walks(t, k) for k in range(9)] == expected


# ---------------------------------------------------------------------------
# level-restricted walks


def test_walk_profile_p3():
    assert walks_by_level_sequence(P3, (1, 2, 1)) == {0: 2}
    assert walks_by_level_sequence(P3, (2, 1, 2)) == {1: 2, 2: 2}
    assert walks_by_level_sequence(P3, (1, 2)) == {0: 2}
    assert walks_by_level_sequence(P3, (2, 1)) == {1: 1, 2: 1}


def test_walk_profile_trivial_and_empty_levels():
    assert walks_by_level_sequence(P3, (1,)) == {0: 1}
    assert walks_by_level_sequence(P3, (2,)) == {1: 1, 2: 1}
    # no vertices on level 3 at all
    assert walks_by_level_sequence(P3, (3, 2, 3)) == {}


def test_walk_profile_requires_rooted_tree():
    from greedy_spectra import RootNotInTreeError

    with pytest.raises(RootNotInTreeError):
        walks_by_level_sequence(P4, (1, 2, 1))


def test_closed_profile_p3():
    assert closed_walks_by_level_sequence(P3, (1, 2, 1)) == {0: 2}
    assert closed_walks_by_level_sequence(P3, (2, 1, 2)) == {1: 1, 2: 1}
    assert closed_walks_by_level_sequence(P3, (1,)) == {0: 1}


def test_closed_profile_needs_matching_endpoints():
    with pytest.raises(LevelMismatchError):
        closed_walks_by_level_sequence(P3, (1, 2))


def test_closed_profile_matches_matrix_diagonal():
    # summed over all closed profiles of a fixed length, the per-vertex
    # counts reproduce the diagonal of the corresponding matrix power
    for n in range(2, 7):
        for t in rooted_trees(n):
            height = t.height
            a = adjacency_matrix(t)
            for k in (2, 4):
                power = [[int(i == j) for j in range(t.n)] for i in range(t.n)]
                for _ in range(k):
                    power = _mul(power, a)
                totals = {v: 0 for v in range(t.n)}
                for ls in _level_paths(height, k):
                    for v, c in closed_walks_by_level_sequence(t, ls).items():
                        totals[v] += c
                assert totals == {v: power[v][v] for v in range(t.n)}


def _mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                for j in range(n):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def _level_paths(height, steps):
    """All closed level profiles with the given number of steps."""
    out = []

    def grow(path):
        if len(path) == steps + 1:
            if path[0] == path[-1]:
                out.append(tuple(path))
            return
        for nxt in (path[-1] - 1, path[-1] + 1):
            if 1 <= nxt <= height:
                path.append(nxt)
                grow(path)
                path.pop()

    for start in range(1, height + 1):
        grow([start])
    return out


# ---------------------------------------------------------------------------
# directed-edge decomposition


def test_edge_walks_spot_values():
    t = SPIDER_221
    for u, v in t.edges:
        assert closed_walks_from_directed_edge(t, u, v, 2) == 1
        assert closed_walks_from_directed_edge(t, u, v, 0) == 0
        assert closed_walks_from_directed_edge(t, u, v, 3) == 0


def test_edge_walks_require_an_edge():
    with pytest.raises(NotAnEdgeError):
        closed_walks_from_directed_edge(P4, 0, 2, 2)


def test_edge_walks_symmetric_in_direction():
    rng = random.Random(54)
    for _ in range(20):
        t = random_tree(rng, rng.randint(2, 10))
        for u, v in t.edges:
            for k in range(0, 13, 2):
                assert closed_walks_from_directed_edge(
                    t, u, v, k
                ) == closed_walks_from_directed_edge(t, v, u, k)


def test_edge_walks_decompose_the_moments():
    # every closed k-walk (k >= 1) is classified by its first step
    rng = random.Random(55)
    for _ in range(10):
        t = random_tree(rng, rng.randint(2, 8))
        mv = spectral_moments_up_to(t, 8)
        for k in range(1, 9):
            both_ways = sum(
                closed_walks_from_directed_edge(t, u, v, k)
                + closed_walks_from_directed_edge(t, v, u, k)
                for u, v in t.edges
            )
            assert both_ways == mv[k]


# ---------------------------------------------------------------------------
# first strict difference


def test_first_strict_difference():
    assert first_strict_difference(P4, P4, 12) is None
    assert first_strict_difference(SPIDER_221, SPIDER_311, 8) == 6
    assert first_strict_difference(SPIDER_221, SPIDER_311, 4) is None
    assert first_strict_difference(P4, S4, 12) == 4


# ---------------------------------------------------------------------------
# walk-vector dominance sweeps


def _open_profiles(t, max_steps=8):
    """Start-vertex counts for every level profile with at most max_steps steps."""
    level = t.levels
    adj = t.adjacency
    height = t.height
    profiles = {}
    frontier = {}
    for h in range(1, height + 1):
        vec = tuple(1 if level[v] == h else 0 for v in range(t.n))
        frontier[(h,)] = vec
    profiles.update(frontier)
    for _ in range(max_steps):
        new_frontier = {}
        for ls, vec in frontier.items():
            stepped = [sum(vec[u] for u in adj[v]) for v in range(t.n)]
            for first in (ls[0] - 1, ls[0] + 1):
                if 1 <= first <= height:
                    masked = tuple(
                        stepped[v] if level[v] == first else 0 for v in range(t.n)
                    )
                    new_frontier[(first,) + ls] = masked
        profiles.update(new_frontier)
        frontier = new_frontier
    return profiles


def _closed_profiles(t, max_steps=8):
    """Per-start closed-walk counts for every closed profile, DFS over prefixes."""
    level = t.levels
    adj = t.adjacency
    height = t.height
    out = {}
    for start_level in range(1, height + 1):
        starts = [v for v in range(t.n) if level[v] == start_level]
        if not starts:
            continue
        rows = []
        for s in starts:
            row = [0] * t.n
            row[s] = 1
            rows.append(row)
        out[(start_level,)] = {s: 1 for s in starts}

        def grow(ls, rows):
            steps_left = max_steps - (len(ls) - 1)
            for nxt in (ls[-1] - 1, ls[-1] + 1):
                if not 1 <= nxt <= height:
                    continue
                if abs(nxt - start_level) > steps_left - 1:
                    continue  # cannot close anymore
                new_rows = [
                    [
                        sum(row[u] for u in adj[v]) if level[v] == nxt else 0
                        for v in range(t.n)
                    ]
                    for row in rows
                ]
                nls = ls + (nxt,)
                if nxt == start_level:
                    out[nls] = {s: new_rows[i][s] for i, s in enumerate(starts)}
                grow(nls, new_rows)

        grow((start_level,), rows)
    return out


def _dominance_check(t, g, t_profiles, g_profiles):
    g_level = g.levels
    t_level = t.levels
    for ls, tvec in t_profiles.items():
        gvec = g_profiles[ls]
        lvl = ls[0]
        if isinstance(tvec, dict):
            t_at = sorted(tvec.values(), reverse=True)
            g_at = [gvec[v] for v in sorted(gvec)]
        else:
            t_at = sorted(
                (tvec[v] for v in range(t.n) if t_level[v] == lvl), reverse=True
            )
            g_at = [gvec[v] for v in range(g.n) if g_level[v] == lvl]
        assert all(g_at[i] >= g_at[i + 1] for i in range(len(g_at) - 1)), (ls, g_at)
        assert majorizes(g_at, t_at), (ls, g_at, t_at)


def _greedy_partner(t, cache):
    ld = leveled_degree_sequence(t)
    key = (ld.levels, ld.root_kind)
    if key not in cache:
        cache[key] = build_level_greedy_tree(ld)
    return cache[key]


def test_open_walk_vectors_dominated_by_greedy():
    cache = {}
    g_profiles_cache = {}
    for n in range(1, 10):
        for t in rooted_trees(n):
            g = _greedy_partner(t, cache)
            key = id(g)
            if key not in g_profiles_cache:
                g_profiles_cache[key] = _open_profiles(g)
            _dominance_check(t, g, _open_profiles(t), g_profiles_cache[key])


def test_closed_walk_vectors_dominated_by_greedy():
    cache = {}
    g_profiles_cache = {}
    for n in range(1, 9):
        for t in rooted_trees(n):
            g = _greedy_partner(t, cache)
            key = id(g)
            if key not in g_profiles_cache:
                g_profiles_cache[key] = _closed_profiles(g)
            _dominance_check(t, g, _closed_profiles(t), g_profiles_cache[key])


def test_totals_maximized_by_the_level_greedy_tree():
    cache = {}
    for n in range(1, 10):
        for t in rooted_trees(n):
            g = _greedy_partner(t, cache)
            for k in range(0, 9):
                assert total_walks(t, k) <= total_walks(g, k)
            tm = spectral_moments_up_to(t, 12)
            gm = spectral_moments_up_to(g, 12)
            assert all(tm[k] <= gm[k] for k in range(13))
