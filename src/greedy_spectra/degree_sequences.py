"""Degree sequences of trees, majorization, and the dominant extremal sequences.

A degree sequence here is always stored non-increasing.  For a tree on n >= 2
vertices the entries are positive and sum to 2(n-1); the single-vertex tree
gets the degenerate sequence (0,).  A leveled degree sequence records, level
by level from a root (or a root edge), the non-increasing list of vertex
degrees on that level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    InvalidBoundsError,
    LengthMismatchError,
    NotRealizableError,
)

__all__ = [
    "DegreeSequence",
    "LeveledDegreeSequence",
    "validate_degree_sequence",
    "parse_degree_sequence",
    "format_degree_sequence",
    "majorizes",
    "star_product",
    "dominant_for_max_degree",
    "dominant_for_leaf_count",
    "dominant_for_independence_number",
]


@dataclass(frozen=True)
class DegreeSequence:
    """Non-increasing degree sequence realizable by a tree.

    Every instance is valid: the constructor rejects anything that is not
    the degree sequence of some tree.
    """

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        degs = tuple(int(d) for d in self.degrees)
        object.__setattr__(self, "degrees", degs)
        if not degs:
            raise NotRealizableError("empty degree sequence")
        n = len(degs)
        if n == 1:
            if degs != (0,):
                raise NotRealizableError(
                    f"single-vertex sequence must be (0,), got {degs}"
                )
            return
        if any(d < 1 for d in degs):
            raise NotRealizableError(
                f"tree degrees must be positive for n >= 2, got {degs}"
            )
        if any(degs[i] < degs[i + 1] for i in range(n - 1)):
            raise NotRealizableError(f"sequence not non-increasing: {degs}")
        if sum(degs) != 2 * (n - 1):
            raise NotRealizableError(
                f"degree sum {sum(degs)} != 2(n-1) = {2 * (n - 1)} for n = {n}"
            )

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.degrees)

    @property
    def is_degenerate(self) -> bool:
        """True for the single-vertex sequence (0,)."""
        return self.degrees == (0,)

    def __iter__(self):
        return iter(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def __getitem__(self, i):
        return self.degrees[i]

    def __str__(self) -> str:
        return format_degree_sequence(self)


def validate_degree_sequence(raw: Iterable[int]) -> DegreeSequence:
    """Sort a raw multiset of degrees and wrap it as a DegreeSequence.

    A DegreeSequence is returned unchanged.  Raises NotRealizableError if no
    tree has this degree multiset.
    """
    if isinstance(raw, DegreeSequence):
        return raw
    return DegreeSequence(tuple(sorted((int(d) for d in raw), reverse=True)))


_RUN = re.compile(r"^\s*(-?\d+)\s*(?:\^\s*(\d+)\s*)?$")


def parse_degree_sequence(text: str) -> DegreeSequence:
    """Parse the compact text form, e.g. ``3^6,2,1^8``.

    Comma-separated integers with an optional ``d^k`` run-length shorthand;
    the result is sorted non-increasing before validation.
    """
    degrees: list[int] = []
    if not text.strip():
        raise NotRealizableError("empty degree sequence text")
    for part in text.split(","):
        m = _RUN.match(part)
        if m is None:
            raise NotRealizableError(f"cannot parse degree run {part!r}")
        value = int(m.group(1))
        count = int(m.group(2)) if m.group(2) is not None else 1
        degrees.extend([value] * count)
    return validate_degree_sequence(degrees)


def format_degree_sequence(d: DegreeSequence | Sequence[int]) -> str:
    """Render a sequence in the ``d^k`` run-length text form."""
    degs = tuple(d)
    parts: list[str] = []
    i = 0
    while i < len(degs):
        j = i
        while j < len(degs) and degs[j] == degs[i]:
            j += 1
        run = j - i
        parts.append(f"{degs[i]}^{run}" if run > 1 else f"{degs[i]}")
        i = j
    return ",".join(parts)


def _as_tuple(seq: DegreeSequence | Sequence[int]) -> tuple[int, ...]:
    if isinstance(seq, DegreeSequence):
        return seq.degrees
    return tuple(int(x) for x in seq)


def majorizes(a: DegreeSequence | Sequence[int], b: DegreeSequence | Sequence[int]) -> bool:
    """True iff every prefix sum of ``a`` is >= the matching prefix sum of ``b``.

    Both sequences must be non-increasing and of equal length.  For
    non-increasing representatives this single comparison decides whether
    ``a`` dominates every rearrangement of ``b``.
    """
    ta, tb = _as_tuple(a), _as_tuple(b)
    if len(ta) != len(tb):
        raise LengthMismatchError(f"lengths differ: {len(ta)} vs {len(tb)}")
    for seq in (ta, tb):
        if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
            raise InvalidBoundsError(f"sequence not non-increasing: {seq}")
    pa = pb = 0
    for x, y in zip(ta, tb):
        pa += x
        pb += y
        if pa < pb:
            return False
    return True


def star_product(a: Sequence[int] | DegreeSequence, k: Sequence[int]) -> tuple[int, ...]:
    """Repeat each entry ``a[i]`` exactly ``k[i]`` times, in order.

    The multiplicity sequence ``k`` must consist of non-negative integers and
    match ``a`` in length.
    """
    ta, tk = _as_tuple(a), tuple(int(x) for x in k)
    if len(ta) != len(tk):
        raise LengthMismatchError(f"lengths differ: {len(ta)} vs {len(tk)}")
    if any(x < 0 for x in tk):
        raise InvalidBoundsError(f"multiplicities must be non-negative: {tk}")
    out: list[int] = []
    for value, count in zip(ta, tk):
        out.extend([value] * count)
    return tuple(out)


def dominant_for_max_degree(n: int, max_degree: int) -> DegreeSequence:
    """Sequence (Delta^m, r, 1^...) that majorizes all tree sequences with
    maximum degree <= Delta.

    With m = floor((n-2)/(Delta-1)) maximal, the remainder degree
    r = n - 1 - m(Delta-1) lands in 1..Delta-1; when r = 1 it simply joins
    the block of leaves.
    """
    if n < 2:
        raise InvalidBoundsError(f"need n >= 2, got {n}")
    if not 2 <= max_degree <= n - 1:
        raise InvalidBoundsError(
            f"need 2 <= max_degree <= n-1, got max_degree={max_degree}, n={n}"
        )
    m = (n - 2) // (max_degree - 1)
    r = n - 1 - m * (max_degree - 1)
    leaves = n - m - 1
    degrees = [max_degree] * m + ([r] if r > 1 else []) + [1] * (leaves + (1 if r == 1 else 0))
    return validate_degree_sequence(degrees)


def dominant_for_leaf_count(n: int, leaves: int) -> DegreeSequence:
    """Sequence (s, 2^(n-s-1), 1^s) dominating all tree sequences with s leaves."""
    if n < 2:
        raise InvalidBoundsError(f"need n >= 2, got {n}")
    if not 2 <= leaves <= n - 1:
        raise InvalidBoundsError(f"need 2 <= leaves <= n-1, got leaves={leaves}, n={n}")
    return validate_degree_sequence([leaves] + [2] * (n - leaves - 1) + [1] * leaves)


def dominant_for_independence_number(n: int, alpha: int) -> DegreeSequence:
    """Sequence (alpha, 2^(n-alpha-1), 1^alpha) for independence number alpha.

    Requires n/2 <= alpha <= n-1; the extremal shape coincides with the one
    for leaf count s = alpha.
    """
    if n < 2:
        raise InvalidBoundsError(f"need n >= 2, got {n}")
    if not (2 * alpha >= n and alpha <= n - 1):
        raise InvalidBoundsError(
            f"need n/2 <= alpha <= n-1, got alpha={alpha}, n={n}"
        )
    return validate_degree_sequence([alpha] + [2] * (n - alpha - 1) + [1] * alpha)


@dataclass(frozen=True)
class LeveledDegreeSequence:
    """Per-level degree lists of a rooted tree or forest.

    ``levels[h]`` is the non-increasing list of degrees on level h+1 (roots
    are level 1).  ``root_kind`` is ``"vertex"`` for one or more root
    vertices, ``"edge"`` for a rooted edge whose two endpoints both sit on
    level 1.  Construction checks child-count consistency, so every instance
    is realizable by exactly one level-greedy forest.
    """

    levels: tuple[tuple[int, ...], ...]
    root_kind: str = "vertex"

    def __post_init__(self) -> None:
        levels = tuple(tuple(int(d) for d in lvl) for lvl in self.levels)
        object.__setattr__(self, "levels", levels)
        if self.root_kind not in ("vertex", "edge"):
            raise InvalidBoundsError(f"unknown root kind {self.root_kind!r}")
        if not levels or any(not lvl for lvl in levels):
            raise NotRealizableError("levels must be non-empty")
        for h, lvl in enumerate(levels):
            if any(lvl[i] < lvl[i + 1] for i in range(len(lvl) - 1)):
                raise NotRealizableError(f"level {h + 1} not non-increasing: {lvl}")
            floor = 0 if (h == 0 and self.root_kind == "vertex") else 1
            if any(d < floor for d in lvl):
                raise NotRealizableError(f"level {h + 1} has degree < {floor}: {lvl}")
        if self.root_kind == "edge" and len(levels[0]) != 2:
            raise NotRealizableError(
                f"edge-rooted level 1 needs exactly 2 roots, got {len(levels[0])}"
            )
        # Child slots on each level must exactly fill the next level.
        for h, lvl in enumerate(levels):
            if h == 0 and self.root_kind == "vertex":
                slots = sum(lvl)
            else:
                slots = sum(d - 1 for d in lvl)
            expected = len(levels[h + 1]) if h + 1 < len(levels) else 0
            if slots != expected:
                raise NotRealizableError(
                    f"level {h + 1} offers {slots} child slots but level "
                    f"{h + 2} has {expected} vertices"
                )

    @property
    def level_count(self) -> int:
        return len(self.levels)

    @property
    def n(self) -> int:
        """Total number of vertices."""
        return sum(len(lvl) for lvl in self.levels)

    @property
    def root_count(self) -> int:
        return len(self.levels[0])

    def degree_sequence(self) -> DegreeSequence:
        """Degree multiset as a tree degree sequence (single-tree cases only)."""
        return validate_degree_sequence(d for lvl in self.levels for d in lvl)
