"""Eigenvalues, Estrada index, functionals, and the characteristic polynomial."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy

import greedy_spectra
from greedy_spectra import (
    InvalidBoundsError,
    NonConvergenceError,
    PowerSeriesFunctional,
    Tree,
    build_greedy_tree,
    characteristic_polynomial,
    eigenvalues,
    estrada_index,
    evaluate_char_poly,
    evaluate_functional,
    spectral_moments_up_to,
    spectral_radius,
)
from oracles import adjacency_matrix, random_tree, unrooted_trees

K1 = Tree(1, ())
K2 = Tree(2, ((0, 1),))
P4 = Tree(4, ((0, 1), (1, 2), (2, 3)))
S4 = Tree(4, ((0, 1), (0, 2), (0, 3)))

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _path(n):
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def _star(n):
    return Tree(n, tuple((0, i) for i in range(1, n)))


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalue_spot_values():
    tol = 1e-10
    assert eigenvalues(K1).values == (0.0,)
    spec = eigenvalues(K2)
    assert abs(spec[0] - 1.0) <= tol and abs(spec[1] + 1.0) <= tol
    spec = eigenvalues(S4)
    root3 = math.sqrt(3.0)
    for got, want in zip(spec, (root3, 0.0, 0.0, -root3)):
        assert abs(got - want) <= tol
    spec = eigenvalues(P4)
    for got, want in zip(spec, (PHI, PHI - 1.0, 1.0 - PHI, -PHI)):
        assert abs(got - want) <= tol


def test_path_eigenvalues_are_cosines():
    n = 7
    spec = eigenvalues(_path(n))
    for i, got in enumerate(spec):
        assert abs(got - 2.0 * math.cos((i + 1) * math.pi / (n + 1))) <= 1e-10


def test_spectrum_object_behaviour():
    spec = eigenvalues(P4, tol=1e-9)
    assert spec.tol == 1e-9
    assert len(spec) == 4
    assert spec.radius == spec[0] == max(spec)
    assert list(spec) == sorted(spec.values, reverse=True)
    for tol in (0.0, math.inf):
        with pytest.raises(InvalidBoundsError):
            eigenvalues(P4, tol=tol)


def test_eigenvalues_match_numpy_exhaustively():
    for n in range(1, 11):
        for t in unrooted_trees(n):
            ours = eigenvalues(t, tol=1e-10).values
            ref = sorted(np.linalg.eigvalsh(np.array(adjacency_matrix(t), float)),
                         reverse=True)
            assert max(abs(a - b) for a, b in zip(ours, ref)) <= 2e-10


def test_eigenvalues_match_numpy_random_larger():
    rng = random.Random(61)
    for _ in range(12):
        t = random_tree(rng, rng.randint(11, 120))
        ours = eigenvalues(t, tol=1e-10).values
        ref = sorted(np.linalg.eigvalsh(np.array(adjacency_matrix(t), float)),
                     reverse=True)
        assert max(abs(a - b) for a, b in zip(ours, ref)) <= 2e-10


def test_tree_spectra_are_symmetric_about_zero():
    rng = random.Random(62)
    for _ in range(10):
        t = random_tree(rng, rng.randint(2, 12))
        vals = eigenvalues(t).values
        for i in range(t.n):
            assert abs(vals[i] + vals[t.n - 1 - i]) <= 2e-10


def test_eigenvalue_powers_reproduce_moments():
    for n in range(2, 11):
        for t in unrooted_trees(n):
            vals = eigenvalues(t, tol=1e-10).values
            mv = spectral_moments_up_to(t, 10)
            for k in range(11):
                power_sum = math.fsum(v**k for v in vals)
                assert abs(power_sum - mv[k]) <= 1e-6 * max(1, mv[k])


# ---------------------------------------------------------------------------
# spectral radius


def test_radius_spot_values():
    assert spectral_radius(K1) == 0.0
    assert abs(spectral_radius(K2) - 1.0) <= 1e-10
    assert abs(spectral_radius(S4) - math.sqrt(3.0)) <= 1e-10
    assert abs(spectral_radius(P4) - PHI) <= 1e-10
    for n in (5, 8, 11):
        assert abs(spectral_radius(_star(n)) - math.sqrt(n - 1.0)) <= 1e-10
        assert abs(spectral_radius(_path(n)) - 2.0 * math.cos(math.pi / (n + 1))) <= 1e-10
    for tol in (-1.0, math.inf):
        with pytest.raises(InvalidBoundsError):
            spectral_radius(P4, tol=tol)


def test_radius_agrees_with_jacobi():
    rng = random.Random(63)
    for _ in range(15):
        t = random_tree(rng, rng.randint(2, 14))
        assert abs(spectral_radius(t, 1e-11) - eigenvalues(t).radius) <= 2e-10


def test_radius_of_a_caterpillar_with_a_small_eigenvalue_gap():
    # 196 vertices, leaves hung on random spine vertices: the top two
    # eigenvalues are close, which once stalled power iteration
    rng = random.Random(7966)
    spine = rng.randint(65, 130)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(v, rng.randrange(spine)) for v in range(spine, 196)]
    t = Tree(196, tuple(edges))
    ref = max(np.linalg.eigvalsh(np.array(adjacency_matrix(t), float)))
    assert abs(spectral_radius(t) - ref) <= 1e-10


def test_tolerance_below_float_resolution_is_refused():
    for tol in (1e-300, 1e-17, float("nan")):
        with pytest.raises(NonConvergenceError):
            spectral_radius(P4, tol)
        with pytest.raises(NonConvergenceError):
            eigenvalues(P4, tol)


def test_normalized_moment_means_increase_to_the_radius():
    # (M_{2l}/n)^(1/2l) is a power mean of the |eigenvalues|: it rises with l
    # and stays below the spectral radius
    rng = random.Random(64)
    for _ in range(15):
        t = random_tree(rng, rng.randint(2, 12))
        rho = spectral_radius(t, 1e-11)
        mv = spectral_moments_up_to(t, 12)
        means = [(mv[2 * l] / t.n) ** (1.0 / (2 * l)) for l in range(1, 7)]
        assert all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1))
        assert all(m <= rho + 1e-9 for m in means)


# ---------------------------------------------------------------------------
# Estrada index and functionals


def test_estrada_spot_values():
    assert estrada_index(K1) == 1.0
    assert abs(estrada_index(K2) - 2.0 * math.cosh(1.0)) <= 1e-8
    assert abs(estrada_index(S4) - (2.0 * math.cosh(math.sqrt(3.0)) + 2.0)) <= 1e-8
    want = 2.0 * math.cosh(PHI) + 2.0 * math.cosh(PHI - 1.0)
    assert abs(estrada_index(P4) - want) <= 1e-8
    # a nan tolerance once sent the series order search into an endless loop
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidBoundsError):
            estrada_index(P4, tol=tol)


def test_estrada_equals_truncated_series():
    f = PowerSeriesFunctional.exp_truncated(60)
    rng = random.Random(65)
    for _ in range(10):
        t = random_tree(rng, rng.randint(1, 12))
        assert abs(estrada_index(t) - evaluate_functional(t, f)) <= 1e-8


def test_functional_validation():
    with pytest.raises(InvalidBoundsError):
        PowerSeriesFunctional(())
    with pytest.raises(InvalidBoundsError):
        PowerSeriesFunctional((1.0, 2.0, -0.5), nonneg_even=True)
    # negative odd coefficients are fine even under the flag
    f = PowerSeriesFunctional((1.0, -2.0, 0.5), nonneg_even=True)
    assert f.order == 2
    with pytest.raises(InvalidBoundsError):
        PowerSeriesFunctional.exp_truncated(-1)


def test_simple_functionals_recover_moments():
    rng = random.Random(66)
    square = PowerSeriesFunctional((0.0, 0.0, 1.0))
    fourth = PowerSeriesFunctional((0.0, 0.0, 0.0, 0.0, 1.0))
    for _ in range(8):
        t = random_tree(rng, rng.randint(2, 10))
        mv = spectral_moments_up_to(t, 4)
        assert evaluate_functional(t, square) == float(mv[2])
        assert evaluate_functional(t, fourth) == float(mv[4])


def test_greedy_tree_maximizes_estrada():
    for n in range(4, 11):
        by_degseq = {}
        for t in unrooted_trees(n):
            by_degseq.setdefault(tuple(sorted(t.degrees, reverse=True)), []).append(t)
        for d, ts in by_degseq.items():
            top = estrada_index(build_greedy_tree(d))
            for t in ts:
                assert estrada_index(t) <= top + 1e-9


# ---------------------------------------------------------------------------
# characteristic polynomial


def test_char_poly_spot_values():
    assert characteristic_polynomial(K1) == (0, 1)
    assert characteristic_polynomial(K2) == (-1, 0, 1)
    assert characteristic_polynomial(Tree(3, ((0, 1), (0, 2)))) == (0, -2, 0, 1)
    assert characteristic_polynomial(P4) == (1, 0, -3, 0, 1)
    assert characteristic_polynomial(S4) == (0, 0, -3, 0, 1)


def test_char_poly_matches_sympy_exhaustively():
    x = sympy.symbols("x")
    for n in range(1, 10):
        for t in unrooted_trees(n):
            m = sympy.Matrix(adjacency_matrix(t))
            ref = sympy.Poly(m.charpoly(x), x).all_coeffs()  # leading first
            assert list(characteristic_polynomial(t)) == [int(c) for c in ref[::-1]]


def test_char_poly_matches_sympy_random_larger():
    x = sympy.symbols("x")
    rng = random.Random(67)
    for _ in range(3):
        t = random_tree(rng, 20)
        m = sympy.Matrix(adjacency_matrix(t))
        ref = sympy.Poly(m.charpoly(x), x).all_coeffs()
        assert list(characteristic_polynomial(t)) == [int(c) for c in ref[::-1]]


def test_char_poly_is_monic_with_bipartite_parity():
    rng = random.Random(68)
    for _ in range(12):
        t = random_tree(rng, rng.randint(1, 15))
        coeffs = characteristic_polynomial(t)
        assert len(coeffs) == t.n + 1 and coeffs[-1] == 1
        # P(-x) = (-1)^n P(x): only every other coefficient survives
        assert all(c == 0 for j, c in enumerate(coeffs) if (t.n - j) % 2 == 1)


def test_char_poly_vanishes_at_the_eigenvalues():
    rng = random.Random(69)
    for _ in range(10):
        t = random_tree(rng, rng.randint(2, 9))
        coeffs = characteristic_polynomial(t)
        rho = eigenvalues(t).radius
        slack = sum(
            j * abs(c) * max(rho, 1.0) ** (j - 1) for j, c in enumerate(coeffs) if j
        )
        for lam in eigenvalues(t, tol=1e-11).values:
            assert abs(evaluate_char_poly(coeffs, lam)) <= slack * 1e-10 + 1e-12


def test_evaluate_char_poly_spot_values():
    assert evaluate_char_poly((1, 0, -3, 0, 1), 2.0) == 5.0
    assert evaluate_char_poly((0, 0, -3, 0, 1), 2.0) == 4.0
    assert evaluate_char_poly((0, -2, 0, 1), 0.0) == 0.0
    # a value that is not a finite float is refused, not returned
    with pytest.raises(InvalidBoundsError):
        evaluate_char_poly([0] * 400 + [1], 10.0)
    with pytest.raises(InvalidBoundsError):
        evaluate_char_poly((1, 0, -3, 0, 1), float("nan"))
    with pytest.raises(InvalidBoundsError):
        evaluate_char_poly((10**400, 1), 1.0)


def test_log_char_poly_expands_into_moments():
    # ln P(x) = n ln x - sum_{k>=1} M_k / (k x^k) for x above the radius
    rng = random.Random(70)
    kmax = 80
    for _ in range(8):
        t = random_tree(rng, rng.randint(2, 10))
        rho = spectral_radius(t, 1e-12)
        x = rho + 1.0
        coeffs = characteristic_polynomial(t)
        lhs = math.log(evaluate_char_poly(coeffs, x))
        mv = spectral_moments_up_to(t, kmax)
        rhs = t.n * math.log(x) - math.fsum(
            mv[k] / (k * x**k) for k in range(1, kmax + 1)
        )
        ratio = rho / x if rho > 0 else 0.0
        tail = (t.n / (kmax + 1)) * ratio ** (kmax + 1) / (1.0 - ratio)
        assert abs(lhs - rhs) <= tail + 1e-9


# ---------------------------------------------------------------------------
# packaging


def test_package_imports_without_numpy():
    src = str(Path(greedy_spectra.__file__).resolve().parents[1])
    code = "import sys, greedy_spectra, greedy_spectra.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
