"""Exhaustive tree enumeration by degree sequence, and claim verifiers.

Trees are generated directly up to isomorphism: root at a maximum-degree
vertex, split the remaining degree multiset into branch multisets (a branch
on b vertices uses degree sum 2b - 1), and build each branch recursively,
deduplicating by canonical code.  Verifiers sweep the generated class and
return a structured report instead of a bare boolean, so a failing claim
carries its counterexample.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import product
from typing import Iterator

from .degree_sequences import (
    DegreeSequence,
    format_degree_sequence,
    validate_degree_sequence,
)
from .errors import CapExceededError, InvalidBoundsError, NotMajorizedError
from .degree_sequences import majorizes
from .spectral import (
    characteristic_polynomial,
    estrada_index,
    evaluate_char_poly,
    spectral_radius,
)
from .trees import Tree, build_greedy_tree, build_volkmann_tree, canonical_code, tree_to_dict
from .walks import spectral_moments_up_to

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "CAP_ENV_VAR",
    "resolve_cap",
    "tree_degree_sequences",
    "enumerate_trees",
    "VerificationReport",
    "verify_greedy_maximality",
    "verify_majorization_monotonicity",
    "verify_volkmann_conjecture",
    "verify_spectral_corollaries",
    "build_remark_pair",
]

DEFAULT_ENUMERATION_CAP = 12
CAP_ENV_VAR = "GREEDY_SPECTRA_CAP"


def resolve_cap(cap: int | None = None) -> int:
    """Explicit cap, else the GREEDY_SPECTRA_CAP environment variable, else 12."""
    if cap is None:
        raw = os.environ.get(CAP_ENV_VAR)
        if raw is None:
            return DEFAULT_ENUMERATION_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise InvalidBoundsError(f"{CAP_ENV_VAR}={raw!r} is not an integer")
    if cap < 1:
        raise InvalidBoundsError(f"enumeration cap must be >= 1, got {cap}")
    return cap


def tree_degree_sequences(n: int, max_degree: int | None = None) -> list[DegreeSequence]:
    """All tree degree sequences on n vertices, optionally with a degree bound.

    Descending lexicographic order; these are the partitions of 2(n-1) into
    exactly n positive parts.
    """
    if n < 1:
        raise InvalidBoundsError(f"need n >= 1, got {n}")
    if n == 1:
        return [DegreeSequence((0,))]
    bound = min(n - 1, max_degree if max_degree is not None else n - 1)
    if bound < 1:
        return []
    out: list[DegreeSequence] = []

    def rec(prefix: list[int], total: int, parts: int, largest: int) -> None:
        if parts == 0:
            if total == 0:
                out.append(DegreeSequence(tuple(prefix)))
            return
        top = min(largest, total - (parts - 1))
        for v in range(top, 0, -1):
            if v * parts < total:
                break
            prefix.append(v)
            rec(prefix, total - v, parts - 1, v)
            prefix.pop()

    rec([], 2 * (n - 1), n, bound)
    return out


def _splits(mult: tuple[int, ...], k: int) -> list[tuple[tuple[int, ...], ...]]:
    """Unordered splits of a degree multiset into k branch multisets.

    Each part must be a branch sequence: non-empty with sum = 2*size - 1.
    Degrees >= 2 are distributed by compositions; the count of leaves each
    part still needs is then forced (one leaf closes one open slot), which
    keeps the search tiny.
    """
    if k == 0:
        return [()] if not mult else []
    heavy = sorted({x for x in mult if x >= 2}, reverse=True)
    ones = sum(1 for x in mult if x == 1)
    parts: list[list[int]] = [[] for _ in range(k)]
    results: set[tuple[tuple[int, ...], ...]] = set()

    def place(vi: int) -> None:
        if vi == len(heavy):
            need = [sum(p) - 2 * len(p) + 1 for p in parts]
            if all(t >= 0 for t in need) and sum(need) == ones:
                done = tuple(
                    sorted(tuple(p + [1] * t) for p, t in zip(parts, need))
                )
                results.add(done)
            return
        value = heavy[vi]
        count = sum(1 for x in mult if x == value)

        def distribute(j: int, left: int) -> None:
            if j == k - 1:
                parts[j].extend([value] * left)
                place(vi + 1)
                if left:
                    del parts[j][-left:]
                return
            for take in range(left + 1):
                parts[j].extend([value] * take)
                distribute(j + 1, left - take)
                if take:
                    del parts[j][-take:]

        distribute(0, count)

    place(0)
    return sorted(results)


@lru_cache(maxsize=None)
def _branch_shapes(mult: tuple[int, ...]) -> tuple[tuple[bytes, tuple], ...]:
    """Distinct rooted branches realizing a degree multiset, as (code, shape).

    A shape is the tuple of child shapes in code order; the single vertex
    branch is ().  The root of a branch spends one degree on its parent.
    """
    if len(mult) == 1:
        return ((b"()", ()),)
    out: dict[bytes, tuple] = {}
    for r in sorted(set(mult), reverse=True):
        if r < 2:
            continue
        rest = list(mult)
        rest.remove(r)
        for parts in _splits(tuple(rest), r - 1):
            for combo in product(*(_branch_shapes(p) for p in parts)):
                ordered = sorted(combo)
                code = b"(" + b"".join(c for c, _ in ordered) + b")"
                if code not in out:
                    out[code] = tuple(s for _, s in ordered)
    return tuple(sorted(out.items()))


def _materialize(child_shapes: tuple) -> Tree:
    edges: list[tuple[int, int]] = []
    counter = [0]

    def walk(parent: int, shape: tuple) -> None:
        counter[0] += 1
        me = counter[0]
        edges.append((parent, me))
        for child in shape:
            walk(me, child)

    for shape in child_shapes:
        walk(0, shape)
    return Tree(counter[0] + 1, tuple(edges))


def enumerate_trees(d, cap: int | None = None) -> Iterator[Tree]:
    """One unrooted representative per isomorphism class with degree sequence d.

    Deterministic: trees come out sorted by canonical code.  Raises
    CapExceededError when d has more vertices than the resolved cap.
    """
    ds = validate_degree_sequence(d)
    limit = resolve_cap(cap)
    if ds.n > limit:
        raise CapExceededError(
            f"degree sequence has {ds.n} vertices, enumeration cap is {limit}"
        )
    if ds.n == 1:
        return iter([Tree(1, ())])
    if ds.n == 2:
        return iter([Tree(2, ((0, 1),))])
    seen: dict[bytes, Tree] = {}
    for parts in _splits(ds.degrees[1:], ds.degrees[0]):
        for combo in product(*(_branch_shapes(p) for p in parts)):
            tree = _materialize(tuple(s for _, s in sorted(combo)))
            code = canonical_code(tree)
            if code not in seen:
                seen[code] = tree
    return iter([seen[c] for c in sorted(seen)])


@dataclass
class VerificationReport:
    """Outcome of sweeping one claim over one instance.

    ``status`` is ``pass``, ``fail`` or ``pass-with-ties``; a counterexample
    is present exactly when the status is ``fail``.  ``witness`` is the
    canonical code of the extremal tree the claim is about.
    """

    claim: str
    instance: dict
    status: str
    witness: str | None = None
    counterexample: dict | None = None
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "pass-with-ties"):
            raise InvalidBoundsError(f"unknown status {self.status!r}")
        if (self.status == "fail") != (self.counterexample is not None):
            raise InvalidBoundsError(
                "a counterexample is required exactly when status is 'fail'"
            )

    def to_dict(self, include_timing: bool = False) -> dict:
        stats = {k: v for k, v in self.stats.items() if include_timing or k != "elapsed_s"}
        return {
            "claim": self.claim,
            "instance": self.instance,
            "status": self.status,
            "witness": self.witness,
            "counterexample": self.counterexample,
            "stats": stats,
        }

    def to_json(self, include_timing: bool = False) -> str:
        # Timing is dropped by default so identical inputs serialize
        # byte-identically.
        return json.dumps(self.to_dict(include_timing))


def _first_excess(a, b) -> int | None:
    """The first k with a[k] > b[k], or None."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x > y), None)


def _sweep(claim: str, stop: bool = True):
    """Turn a verifier's setup into a timed sweep that returns its report.

    The decorated function validates its arguments, builds the extremal tree
    and returns ``(instance, best, trees, judge, stats)``.  Every competitor
    in ``trees`` that is not isomorphic to ``best`` goes to ``judge``, which
    returns a counterexample dict or None.  The first counterexample fails
    the claim and, if ``stop``, ends the sweep.  ``stats(status, enumerated)``
    gives the verifier's own stats; a nonzero ``ties`` among them turns a
    pass into ``pass-with-ties``.  ``elapsed_s`` covers the whole call.
    """

    def decorate(setup):
        @wraps(setup)
        def verify(*args, **kwargs) -> VerificationReport:
            started = time.perf_counter()
            instance, best, trees, judge, stats = setup(*args, **kwargs)
            witness = canonical_code(best, ignore_root=True)
            counterexample = None
            enumerated = 0
            for tree in trees:
                enumerated += 1
                if canonical_code(tree, ignore_root=True) == witness:
                    continue
                found = judge(tree)
                counterexample = counterexample or found
                if counterexample and stop:
                    break
            status = "fail" if counterexample else "pass"
            summary = stats(status, enumerated)
            if status == "pass" and summary.get("ties"):
                status = "pass-with-ties"
            summary["elapsed_s"] = time.perf_counter() - started
            return VerificationReport(
                claim=claim,
                instance=instance,
                status=status,
                witness=witness.decode("ascii"),
                counterexample=counterexample,
                stats=summary,
            )

        return verify

    return decorate


@_sweep("greedy_tree_maximizes_moments")
def verify_greedy_maximality(d, k_max: int, cap: int | None = None) -> VerificationReport:
    """Check that the greedy tree attains every moment maximum in its class.

    Also records, per non-isomorphic competitor, the first even k where the
    greedy tree is strictly ahead; competitors that tie everywhere up to
    k_max turn the status into ``pass-with-ties``.
    """
    ds = validate_degree_sequence(d)
    greedy = build_greedy_tree(ds)
    gm = spectral_moments_up_to(greedy, k_max)
    firsts: dict[int | None, int] = {}  # competitors per first strict k; None: ties

    def judge(tree: Tree) -> dict | None:
        tm = spectral_moments_up_to(tree, k_max)
        k = _first_excess(tm, gm)
        if k is not None:
            return {
                "tree": tree_to_dict(tree),
                "k": k,
                "moment": str(tm[k]),
                "greedy_moment": str(gm[k]),
            }
        first = _first_excess(gm, tm)
        firsts[first] = firsts.get(first, 0) + 1
        return None

    def stats(status: str, enumerated: int) -> dict:
        ties = firsts.pop(None, 0)
        return {
            "trees_enumerated": enumerated,
            "ties": ties,
            "first_strict_k": {str(k): firsts[k] for k in sorted(firsts)},
        }

    instance = {"degree_sequence": format_degree_sequence(ds), "k_max": k_max}
    return instance, greedy, enumerate_trees(ds, cap), judge, stats


@_sweep("majorization_lifts_moments")
def verify_majorization_monotonicity(b, d, k_max: int) -> VerificationReport:
    """Check that moments of greedy trees respect majorization of sequences.

    Requires d to majorize b.  For b != d the even moments from k = 4 on
    must be strictly larger on the d side.
    """
    bs, ds = validate_degree_sequence(b), validate_degree_sequence(d)
    if not majorizes(ds, bs):
        raise NotMajorizedError(f"{ds} does not majorize {bs}")
    gb = build_greedy_tree(bs)
    gd = build_greedy_tree(ds)
    md = spectral_moments_up_to(gd, k_max)
    found = {"equal_sequences": bs.degrees == ds.degrees, "first_strict_k": None}

    def judge(tree: Tree) -> dict | None:
        # b = d gives isomorphic greedy trees, so strictness is always due here
        mb = spectral_moments_up_to(tree, k_max)
        for k in range(k_max + 1):
            if mb[k] > md[k] or (mb[k] == md[k] and k >= 4 and k % 2 == 0):
                return {
                    "k": k,
                    "moment_b": str(mb[k]),
                    "moment_d": str(md[k]),
                    "violated": "inequality" if mb[k] > md[k] else "strictness",
                }
            if found["first_strict_k"] is None and md[k] > mb[k]:
                found["first_strict_k"] = k
        return None

    instance = {
        "b": format_degree_sequence(bs),
        "d": format_degree_sequence(ds),
        "k_max": k_max,
    }
    return instance, gd, [gb], judge, lambda status, enumerated: found


@_sweep("volkmann_tree_maximizes_moments_under_degree_bound", stop=False)
def verify_volkmann_conjecture(
    n: int, max_degree: int, k_max: int, cap: int | None = None
) -> VerificationReport:
    """Check the degree-bounded maximality of the Volkmann-type greedy tree.

    Both readings of the bound are swept: competitors with maximum degree
    at most Delta, and the subset with maximum degree exactly Delta.  Each
    reading gets its own verdict in the stats.
    """
    volkmann = build_volkmann_tree(n, max_degree)
    vm = spectral_moments_up_to(volkmann, k_max)
    sequences = tree_degree_sequences(n, max_degree)
    exactly = {"reading_exactly": "pass"}

    def judge(tree: Tree) -> dict | None:
        tm = spectral_moments_up_to(tree, k_max)
        k = _first_excess(tm, vm)
        if k is None:
            return None
        ds = tree.degree_sequence()
        if ds[0] == max_degree:
            exactly["reading_exactly"] = "fail"
        return {
            "tree": tree_to_dict(tree),
            "degree_sequence": format_degree_sequence(ds),
            "k": k,
            "moment": str(tm[k]),
            "volkmann_moment": str(vm[k]),
        }

    def stats(status: str, enumerated: int) -> dict:
        return {
            "reading_at_most": status,
            **exactly,
            "sequences": len(sequences),
            "trees_enumerated": enumerated,
        }

    instance = {"n": n, "max_degree": max_degree, "k_max": k_max}
    trees = (tree for ds in sequences for tree in enumerate_trees(ds, cap))
    return instance, volkmann, trees, judge, stats


@_sweep("greedy_tree_dominates_radius_estrada_charpoly")
def verify_spectral_corollaries(
    d,
    x_margin: float = 1.0,
    cap: int | None = None,
    tol: float = 1e-9,
    strict_tol: float = 1e-12,
) -> VerificationReport:
    """Check the order consequences on the spectrum itself.

    Over the class of d: the greedy tree has the largest spectral radius and
    the largest Estrada index (strictly, for non-isomorphic competitors),
    and its characteristic polynomial lies below every competitor's at
    points right of its spectral radius.
    """
    # nan fails every comparison, so it is refused here too
    if not (0 < tol < math.inf and 0 < strict_tol < math.inf and 0 <= x_margin < math.inf):
        raise InvalidBoundsError(
            f"need finite tol > 0, strict_tol > 0 and x_margin >= 0, "
            f"got {tol}, {strict_tol} and {x_margin}"
        )
    ds = validate_degree_sequence(d)
    greedy = build_greedy_tree(ds)
    rho_g = spectral_radius(greedy, 1e-12)
    ee_g = estrada_index(greedy, 1e-10)
    x0 = rho_g + x_margin
    pg = evaluate_char_poly(characteristic_polynomial(greedy), x0)
    gaps = dict.fromkeys(("min_radius_gap", "min_estrada_gap", "min_charpoly_gap"))

    def judge(tree: Tree) -> dict | None:
        radius = rho_g - spectral_radius(tree, 1e-12)
        estrada = ee_g - estrada_index(tree, 1e-10)
        charpoly = evaluate_char_poly(characteristic_polynomial(tree), x0) - pg
        for quantity, gap, floor in (
            ("spectral_radius", radius, -tol),
            ("estrada_index", estrada, -tol),
            ("estrada_strictness", estrada, strict_tol),
            ("char_poly_at_rho_plus_margin", charpoly, -tol),
        ):
            if gap < floor:
                return {
                    "tree": tree_to_dict(tree),
                    "quantity": quantity,
                    "gap": gap,
                    "floor": floor,
                }
        for key, gap in zip(gaps, (radius, estrada, charpoly)):
            gaps[key] = gap if gaps[key] is None else min(gaps[key], gap)
        return None

    def stats(status: str, enumerated: int) -> dict:
        return {"trees_enumerated": enumerated, **gaps}

    instance = {
        "degree_sequence": format_degree_sequence(ds),
        "tol": tol,
        "strict_tol": strict_tol,
        "x_margin": x_margin,
    }
    return instance, greedy, enumerate_trees(ds, cap), judge, stats


def build_remark_pair(r: int) -> tuple[Tree, Tree]:
    """Two trees on (3, 3, 2^(4r-2), 1^4) whose moments agree through 2r.

    The greedy tree hangs both long paths (length r+1) on one degree-3
    vertex and both short ones (length r) on its degree-3 neighbor; the
    partner swaps one long path with one short one.  The swap is invisible
    to closed walks of length up to 2r but not beyond.
    """
    if r < 1:
        raise InvalidBoundsError(f"need r >= 1, got {r}")
    d = validate_degree_sequence((3, 3) + (2,) * (4 * r - 2) + (1,) * 4)
    greedy = build_greedy_tree(d)
    edges: list[tuple[int, int]] = [(0, 1)]
    nxt = 2

    def attach(at: int, length: int) -> None:
        nonlocal nxt
        prev = at
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1

    attach(0, r + 1)
    attach(0, r)
    attach(1, r + 1)
    attach(1, r)
    partner = Tree(4 * r + 4, tuple(edges))
    return greedy, partner
