"""Eigenvalues, Estrada index, power-series functionals, characteristic polynomial.

Eigenvalues come from one tree-specific route: an O(n) sign count of
A - xI (Jacobs & Trevisan, Linear Algebra Appl. 434 (2011) 81-88) and
bisection on those counts.  Each eigenvalue is narrowed to a bracket of
width at most twice the tolerance, so no iteration cap is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator, Sequence

from .errors import (
    InvalidBoundsError,
    MethodDisagreementError,
    NonConvergenceError,
)
from .trees import Tree, _bfs
from .walks import _matching_numbers, spectral_moments_up_to

__all__ = [
    "Spectrum",
    "PowerSeriesFunctional",
    "eigenvalues",
    "estrada_index",
    "evaluate_functional",
    "spectral_radius",
    "characteristic_polynomial",
    "evaluate_char_poly",
]


@dataclass(frozen=True)
class Spectrum:
    """Adjacency eigenvalues in non-increasing order, with the tolerance used."""

    values: tuple[float, ...]
    tol: float

    @property
    def radius(self) -> float:
        return self.values[0]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


def _count_above(order: Sequence[int], parent: Sequence[int], x: float) -> int:
    """Number of adjacency eigenvalues above ``x``, in O(n).

    Jacobs & Trevisan, "Locating the eigenvalues of trees", diagonalize
    A - xI from the leaves up: a(v) = -x - sum 1/a(c) over live children c.
    If some child has a(c) = 0, that child becomes 2, v becomes -1/2 and
    v's edge to its parent is cut.  The diagonal is congruent to A - xI, so
    by Sylvester's law of inertia its positive entries count the eigenvalues
    above x.
    """
    a = [-x] * len(order)
    zero_child = [False] * len(order)
    above = 0
    for v in reversed(order):
        p = parent[v]
        if zero_child[v]:
            above += 1  # the child set to 2; v itself is -1/2 and cut off
        elif a[v] == 0.0:
            if p >= 0:
                zero_child[p] = True
        else:
            above += a[v] > 0.0
            if p >= 0:
                a[p] -= 1.0 / a[v]
    return above


def _rho_bound(t: Tree) -> float:
    """sqrt(max_v sum_{u~v} d_u), the row-sum bound on A^2, so rho <= it."""
    return math.sqrt(max(sum(t.degrees[u] for u in nbrs) for nbrs in t.adjacency))


def _positive_eigenvalues(t: Tree, tol: float) -> Iterator[float]:
    """Positive adjacency eigenvalues, non-increasing, each within ``tol``.

    Bisection on sign counts over (0, 1 + rho bound]: a bracket (lo, hi]
    holds count(lo) - count(hi) eigenvalues and is split until its width is
    at most 2*tol, when its midpoint is within tol of each of them.
    """
    if tol <= 0 or tol == math.inf:
        raise InvalidBoundsError(f"tolerance must be positive and finite, got {tol}")
    order, parent, _ = _bfs(t.adjacency, (t.root_vertex or 0,))
    top = 1.0 + _rho_bound(t)
    # Below one float step at the top no bracket can narrow far enough;
    # the negated test also rejects a nan tolerance.
    if not 2.0 * tol >= math.ulp(top):
        raise NonConvergenceError(
            f"tolerance {tol!r} is below float resolution {math.ulp(top):.3e} near {top}"
        )
    brackets = [(0.0, top, _count_above(order, parent, 0.0), 0)]
    while brackets:
        lo, hi, above_lo, above_hi = brackets.pop()
        if above_lo == above_hi:
            continue
        mid = 0.5 * (lo + hi)
        if hi - lo <= 2.0 * tol:
            yield from repeat(mid, above_lo - above_hi)
            continue
        above_mid = _count_above(order, parent, mid)
        brackets.append((lo, mid, above_lo, above_mid))
        brackets.append((mid, hi, above_mid, above_hi))


def eigenvalues(t: Tree, tol: float = 1e-10) -> Spectrum:
    """All adjacency eigenvalues, each within ``tol`` of the true value.

    Tree spectra are symmetric about zero, so the positive eigenvalues from
    sign-count bisection are mirrored and the rest are zeros.
    """
    positive = list(_positive_eigenvalues(t, tol))
    zeros = [0.0] * (t.n - 2 * len(positive))
    return Spectrum(tuple(positive + zeros + [-v for v in reversed(positive)]), tol)


def spectral_radius(t: Tree, tol: float = 1e-10) -> float:
    """Largest adjacency eigenvalue within ``tol``: the first bisected one."""
    return next(_positive_eigenvalues(t, tol), 0.0)


def _series_order(n: int, rho_bound: float, tol: float) -> int:
    """Smallest K whose exp-series tail past K is provably below ``tol``.

    With the spectral radius at most ``rho_bound``, the tail
    sum_{k>K} M_k/k! is at most n * rho_bound^(K+1)/(K+1)! * e^rho_bound.
    """
    if rho_bound <= 0:
        return 0
    log_tol = math.log(tol)
    k = 0
    while True:
        log_tail = (
            math.log(n)
            + (k + 1) * math.log(rho_bound)
            + rho_bound
            - math.lgamma(k + 2)
        )
        if log_tail < log_tol:
            return k
        k += 1


def estrada_index(t: Tree, tol: float = 1e-8) -> float:
    """Sum of e^lambda over the adjacency spectrum, cross-checked two ways.

    Route one exponentiates the bisected eigenvalues; route two sums the
    truncated series sum_k M_k/k! with exact integer moments and a tail
    bound below ``tol``.  The series order comes from degrees alone, so the
    two routes share no code.  If they disagree by more than 10*tol the
    computation refuses to pick one.
    """
    if not 0 < tol < math.inf:
        raise InvalidBoundsError(f"tolerance must be positive and finite, got {tol}")
    spec = eigenvalues(t, min(1e-12, tol))
    by_eigen = math.fsum(math.exp(v) for v in spec.values)
    order = _series_order(t.n, _rho_bound(t), tol)
    moments = spectral_moments_up_to(t, order)
    acc = Fraction(0)
    fact = 1
    for k in range(order + 1):
        if k > 0:
            fact *= k
        acc += Fraction(moments[k], fact)
    by_series = float(acc)
    if abs(by_eigen - by_series) > 10.0 * tol:
        raise MethodDisagreementError(
            f"Estrada index routes disagree: {by_eigen!r} (eigenvalues) vs "
            f"{by_series!r} (series through K={order})"
        )
    return by_eigen


@dataclass(frozen=True)
class PowerSeriesFunctional:
    """Truncated power series f(x) = sum a_k x^k applied to the spectrum.

    With ``nonneg_even`` set, coefficients of even powers must be
    non-negative; that is the class whose spectral sum is maximized by the
    same trees that maximize every even moment.
    """

    coefficients: tuple[float, ...]
    nonneg_even: bool = False

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not coeffs:
            raise InvalidBoundsError("a functional needs at least one coefficient")
        if self.nonneg_even and any(c < 0 for c in coeffs[::2]):
            raise InvalidBoundsError(
                "nonneg_even functionals cannot have negative even coefficients"
            )

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def exp_truncated(cls, order: int) -> "PowerSeriesFunctional":
        """The exponential series cut after x^order."""
        if order < 0:
            raise InvalidBoundsError(f"order must be >= 0, got {order}")
        return cls(
            tuple(float(Fraction(1, math.factorial(k))) for k in range(order + 1)),
            nonneg_even=True,
        )


def evaluate_functional(t: Tree, f: PowerSeriesFunctional) -> float:
    """sum_i f(lambda_i) computed as sum_k a_k M_k with exact moments."""
    moments = spectral_moments_up_to(t, f.order)
    acc = Fraction(0)
    for k, coef in enumerate(f.coefficients):
        if coef != 0.0:
            acc += Fraction(coef) * moments[k]
    return float(acc)


def characteristic_polynomial(t: Tree) -> tuple[int, ...]:
    """Coefficients of det(xI - A), constant term first, exact integers.

    For a tree the coefficient of x^(n-2j) is (-1)^j m_j, with m_j the
    number of j-edge matchings, and every other coefficient is zero.
    """
    coefficients = [0] * (t.n + 1)
    for j, m in enumerate(_matching_numbers(t, t.n // 2)):
        coefficients[t.n - 2 * j] = (-1) ** j * m
    return tuple(coefficients)


def evaluate_char_poly(coefficients: Sequence[int], x: float) -> float:
    """Horner evaluation of a constant-first coefficient list.

    Raises InvalidBoundsError when the value is not a finite float, so that
    no inf or nan reaches a comparison that would let it pass.
    """
    acc = 0.0
    try:
        for coef in reversed(tuple(coefficients)):
            acc = acc * x + coef
    except OverflowError:  # a coefficient beyond the float range
        acc = math.inf
    if not math.isfinite(acc):
        raise InvalidBoundsError(f"characteristic polynomial at x = {x} is not a finite float")
    return acc
