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
from functools import lru_cache
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


def verify_greedy_maximality(d, k_max: int, cap: int | None = None) -> VerificationReport:
    """Check that the greedy tree attains every moment maximum in its class.

    Also records, per non-isomorphic competitor, the first even k where the
    greedy tree is strictly ahead; competitors that tie everywhere up to
    k_max turn the status into ``pass-with-ties``.
    """
    started = time.perf_counter()
    ds = validate_degree_sequence(d)
    greedy = build_greedy_tree(ds)
    gm = spectral_moments_up_to(greedy, k_max)
    gcode = canonical_code(greedy, ignore_root=True)
    counterexample = None
    ties = 0
    enumerated = 0
    histogram: dict[int, int] = {}
    for tree in enumerate_trees(ds, cap):
        enumerated += 1
        if canonical_code(tree) == gcode:
            continue
        tm = spectral_moments_up_to(tree, k_max)
        first_strict = None
        for k in range(k_max + 1):
            if tm[k] > gm[k]:
                counterexample = {
                    "tree": tree_to_dict(tree),
                    "k": k,
                    "moment": str(tm[k]),
                    "greedy_moment": str(gm[k]),
                }
                break
            if first_strict is None and gm[k] > tm[k]:
                first_strict = k
        if counterexample is not None:
            break
        if first_strict is None:
            ties += 1
        else:
            histogram[first_strict] = histogram.get(first_strict, 0) + 1
    status = "fail" if counterexample else ("pass-with-ties" if ties else "pass")
    return VerificationReport(
        claim="greedy_tree_maximizes_moments",
        instance={"degree_sequence": format_degree_sequence(ds), "k_max": k_max},
        status=status,
        witness=gcode.decode("ascii"),
        counterexample=counterexample,
        stats={
            "trees_enumerated": enumerated,
            "ties": ties,
            "first_strict_k": {str(k): histogram[k] for k in sorted(histogram)},
            "elapsed_s": time.perf_counter() - started,
        },
    )


def verify_majorization_monotonicity(b, d, k_max: int) -> VerificationReport:
    """Check that moments of greedy trees respect majorization of sequences.

    Requires d to majorize b.  For b != d the even moments from k = 4 on
    must be strictly larger on the d side.
    """
    started = time.perf_counter()
    bs, ds = validate_degree_sequence(b), validate_degree_sequence(d)
    if not majorizes(ds, bs):
        raise NotMajorizedError(f"{ds} does not majorize {bs}")
    gb = build_greedy_tree(bs)
    gd = build_greedy_tree(ds)
    mb = spectral_moments_up_to(gb, k_max)
    md = spectral_moments_up_to(gd, k_max)
    equal = bs.degrees == ds.degrees
    counterexample = None
    first_strict = None
    for k in range(k_max + 1):
        if mb[k] > md[k]:
            counterexample = {
                "k": k,
                "moment_b": str(mb[k]),
                "moment_d": str(md[k]),
                "violated": "inequality",
            }
            break
        if not equal and k >= 4 and k % 2 == 0 and mb[k] == md[k]:
            counterexample = {
                "k": k,
                "moment_b": str(mb[k]),
                "moment_d": str(md[k]),
                "violated": "strictness",
            }
            break
        if first_strict is None and md[k] > mb[k]:
            first_strict = k
    return VerificationReport(
        claim="majorization_lifts_moments",
        instance={
            "b": format_degree_sequence(bs),
            "d": format_degree_sequence(ds),
            "k_max": k_max,
        },
        status="fail" if counterexample else "pass",
        witness=canonical_code(gd, ignore_root=True).decode("ascii"),
        counterexample=counterexample,
        stats={
            "equal_sequences": equal,
            "first_strict_k": first_strict,
            "elapsed_s": time.perf_counter() - started,
        },
    )


def verify_volkmann_conjecture(
    n: int, max_degree: int, k_max: int, cap: int | None = None
) -> VerificationReport:
    """Check the degree-bounded maximality of the Volkmann-type greedy tree.

    Both readings of the bound are swept: competitors with maximum degree
    at most Delta, and the subset with maximum degree exactly Delta.  Each
    reading gets its own verdict in the stats.
    """
    started = time.perf_counter()
    volkmann = build_volkmann_tree(n, max_degree)
    vm = spectral_moments_up_to(volkmann, k_max)
    vcode = canonical_code(volkmann, ignore_root=True)
    counterexample = None
    sequences = 0
    enumerated = 0
    exactly_ok = True
    for ds in tree_degree_sequences(n, max_degree):
        sequences += 1
        exact = ds[0] == max_degree
        for tree in enumerate_trees(ds, cap):
            enumerated += 1
            tm = spectral_moments_up_to(tree, k_max)
            for k in range(k_max + 1):
                if tm[k] > vm[k]:
                    if exact:
                        exactly_ok = False
                    if counterexample is None:
                        counterexample = {
                            "tree": tree_to_dict(tree),
                            "degree_sequence": format_degree_sequence(ds),
                            "k": k,
                            "moment": str(tm[k]),
                            "volkmann_moment": str(vm[k]),
                        }
                    break
    status = "fail" if counterexample else "pass"
    return VerificationReport(
        claim="volkmann_tree_maximizes_moments_under_degree_bound",
        instance={"n": n, "max_degree": max_degree, "k_max": k_max},
        status=status,
        witness=vcode.decode("ascii"),
        counterexample=counterexample,
        stats={
            "reading_at_most": status,
            "reading_exactly": "pass" if exactly_ok else "fail",
            "sequences": sequences,
            "trees_enumerated": enumerated,
            "elapsed_s": time.perf_counter() - started,
        },
    )


def _tighten(best: float | None, value: float) -> float:
    return value if best is None or value < best else best


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
    started = time.perf_counter()
    # nan fails every comparison, so it is refused here too
    if not (0 < tol < math.inf and 0 < strict_tol < math.inf and 0 <= x_margin < math.inf):
        raise InvalidBoundsError(
            f"need finite tol > 0, strict_tol > 0 and x_margin >= 0, "
            f"got {tol}, {strict_tol} and {x_margin}"
        )
    ds = validate_degree_sequence(d)
    greedy = build_greedy_tree(ds)
    gcode = canonical_code(greedy, ignore_root=True)
    rho_g = spectral_radius(greedy, 1e-12)
    ee_g = estrada_index(greedy, 1e-10)
    x0 = rho_g + x_margin
    pg = evaluate_char_poly(characteristic_polynomial(greedy), x0)
    counterexample = None
    enumerated = 0
    min_radius_gap = None
    min_estrada_gap = None
    min_charpoly_gap = None
    for tree in enumerate_trees(ds, cap):
        enumerated += 1
        if canonical_code(tree) == gcode:
            continue
        rho_t = spectral_radius(tree, 1e-12)
        ee_t = estrada_index(tree, 1e-10)
        pt = evaluate_char_poly(characteristic_polynomial(tree), x0)
        checks = (
            ("spectral_radius", rho_g - rho_t, -tol),
            ("estrada_index", ee_g - ee_t, -tol),
            ("estrada_strictness", ee_g - ee_t, strict_tol),
            ("char_poly_at_rho_plus_margin", pt - pg, -tol),
        )
        for quantity, gap, floor in checks:
            if gap < floor:
                counterexample = {
                    "tree": tree_to_dict(tree),
                    "quantity": quantity,
                    "gap": gap,
                    "floor": floor,
                }
                break
        if counterexample is not None:
            break
        min_radius_gap = _tighten(min_radius_gap, rho_g - rho_t)
        min_estrada_gap = _tighten(min_estrada_gap, ee_g - ee_t)
        min_charpoly_gap = _tighten(min_charpoly_gap, pt - pg)
    return VerificationReport(
        claim="greedy_tree_dominates_radius_estrada_charpoly",
        instance={
            "degree_sequence": format_degree_sequence(ds),
            "tol": tol,
            "strict_tol": strict_tol,
            "x_margin": x_margin,
        },
        status="fail" if counterexample else "pass",
        witness=gcode.decode("ascii"),
        counterexample=counterexample,
        stats={
            "trees_enumerated": enumerated,
            "min_radius_gap": min_radius_gap,
            "min_estrada_gap": min_estrada_gap,
            "min_charpoly_gap": min_charpoly_gap,
            "elapsed_s": time.perf_counter() - started,
        },
    )


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
