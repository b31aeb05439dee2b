"""Seeded op streams for the benchmark workloads.

Inputs are made here without the package: degree sequences are partitions,
random trees come from Prüfer codes, greedy and Volkmann trees from the
construction in ``checks``.  The package only ever sees the argv and the tree
JSON files described by the ``Op`` records.

Every kind of op draws its inputs from strata ordered by expected cost and
takes one item from each stratum in turn, visiting the strata in a
low-discrepancy order.  Kinds are interleaved in a fixed pattern, and a run
stops only at the end of a pattern.  Any run therefore holds nearly the same
mix of cheap and costly inputs, whatever the seed, so a time-boxed run
measures the same work on every seed.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from checks import dominant_for_max_degree, greedy_edges, seq_key

WORKLOADS = ("class-sweep", "spectral-sweep", "large-trees")

# Sizes per scale.  "full" is the benchmark; "toy" keeps the smoke test fast.
SIZES = {
    "full": {
        "enumerate_n": (15, 16),
        "maximality_n": (12, 13),
        "volkmann": ((11, 3), (11, 4), (11, 5), (12, 3), (12, 4), (12, 5)),
        "corollaries_n": (9, 10),
        "random_tree_n": (20, 80),
        "moments_n": (150, 250),
        "charpoly_n": (500, 1500),
        "path_n": (100, 250),
        "caterpillar_n": (100, 400),
        "star_m": (40, 60),
        "build_n": (950, 1050),
    },
    "toy": {
        "enumerate_n": (7, 8),
        "maximality_n": (6, 7),
        "volkmann": ((6, 3), (7, 3)),
        "corollaries_n": (6, 7),
        "random_tree_n": (8, 15),
        "moments_n": (15, 30),
        "charpoly_n": (30, 60),
        "path_n": (10, 20),
        "caterpillar_n": (10, 30),
        "star_m": (5, 10),
        "build_n": (40, 60),
    },
}

ENUM_CAP = 16
SWEEP_K = 12
MOMENTS_K = 20


@dataclass
class Op:
    kind: str
    argv: list[str] | None  # CLI argv, "{file}" standing for the tree file; None: direct call
    label: str  # the input, readable and stable for a given seed
    tree: tuple[int, list[tuple[int, int]]] | None = None  # (n, edges) read or checked
    degrees: tuple[int, ...] | None = None  # sequence a build op must realize
    want_trees: int | None = None  # class size an enumerate or verify op must report
    k: int = 0
    round_end: bool = False  # last op of its pattern: a run may stop after it


def class_count_ns(workload: str, scale: str) -> list[int]:
    """The n whose class counts the workload's checks and strata need."""
    s = SIZES[scale]
    if workload == "class-sweep":
        ns = set(s["enumerate_n"]) | set(s["maximality_n"]) | {n for n, _ in s["volkmann"]}
        return sorted(ns)
    if workload == "spectral-sweep":
        return sorted(s["corollaries_n"])
    return []


def tree_sequences(n: int) -> list[tuple[int, ...]]:
    """All tree degree sequences on n vertices: partitions of 2(n-1) into n parts."""
    out = []

    def rec(prefix, total, parts, largest):
        if parts == 0:
            if total == 0:
                out.append(tuple(prefix))
            return
        for v in range(min(largest, total - parts + 1), 0, -1):
            if v * parts < total:
                break
            rec(prefix + [v], total - v, parts - 1, v)

    rec([], 2 * (n - 1), n, n - 1)
    return out


def fmt(degrees) -> str:
    """Degree sequence in the CLI's compact form, e.g. 3^2,2,1^4."""
    parts = []
    for value, group in itertools.groupby(sorted(degrees, reverse=True)):
        count = len(list(group))
        parts.append(f"{value}^{count}" if count > 1 else str(value))
    return ",".join(parts)


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree, decoded from a random Prüfer code."""
    code = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in code:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        edges.append((heapq.heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def degrees_of(n: int, edges) -> tuple[int, ...]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(sorted(deg, reverse=True))


def path_tree(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def caterpillar_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A spine of seeded length; every other vertex is a leaf on a random spine vertex."""
    spine = rng.randint(n // 3, 2 * n // 3)
    return path_tree(spine) + [(rng.randrange(spine), v) for v in range(spine, n)]


def rotate(strata: list[list], rng: random.Random) -> Iterator:
    """One item from each stratum in turn; each stratum in a seeded order.

    Strata come in golden-ratio order, so that any run of consecutive visits
    spreads over the whole cost range instead of ending on the cheap ones.
    """
    strata = [s for s in strata if s]
    golden = (5 ** 0.5 - 1) / 2
    visit = sorted(range(len(strata)), key=lambda i: (i * golden) % 1.0)
    order = [rng.sample(strata[i], len(strata[i])) for i in visit]
    for r in itertools.count():
        for s in order:
            yield s[r % len(s)]


def blocks(lo: int, hi: int, count: int) -> list[list[int]]:
    """lo..hi cut into ``count`` contiguous blocks."""
    values = list(range(lo, hi + 1))
    count = min(count, len(values))
    return [values[i * len(values) // count:(i + 1) * len(values) // count] for i in range(count)]


def by_cost(items: list, cost, count: int) -> list[list]:
    """Items sorted by ``cost`` and cut into ``count`` strata."""
    ranked = sorted(items, key=cost)
    count = min(count, len(ranked))
    return [ranked[i * len(ranked) // count:(i + 1) * len(ranked) // count] for i in range(count)]


def interleave(pattern: str, streams: dict[str, Iterator[Op]]) -> Iterator[Op]:
    while True:
        for i, name in enumerate(pattern):
            op = next(streams[name])
            op.round_end = i == len(pattern) - 1
            yield op


def _class_sweep(s, rng, counts) -> Iterator[Op]:
    def count(d):
        return counts[len(d)][seq_key(d)]

    def enumerate_ops():
        seqs = [d for n in s["enumerate_n"] for d in tree_sequences(n)]
        for d in rotate(by_cost(seqs, count, 20), rng):
            argv = ["enumerate", fmt(d), "--count-only", "--cap", str(ENUM_CAP)]
            yield Op("enumerate", argv, f"enumerate {fmt(d)}", want_trees=count(d))

    def maximality_ops():
        seqs = [d for n in s["maximality_n"] for d in tree_sequences(n)]
        for d in rotate(by_cost(seqs, count, 14), rng):
            argv = ["verify", "maximality", fmt(d), "--k", str(SWEEP_K), "--cap", "13"]
            yield Op("maximality", argv, f"maximality {fmt(d)}", want_trees=count(d))

    def volkmann_ops():
        cases = list(s["volkmann"])
        for n, dmax in rotate(by_cost(cases, lambda c: c[0] * c[1], 3), rng):
            swept = sum(c for key, c in counts[n].items() if int(key.split(",")[0]) <= dmax)
            argv = ["verify", "volkmann", str(n), str(dmax), "--k", str(SWEEP_K)]
            yield Op("volkmann", argv, f"volkmann {n} {dmax}", want_trees=swept)

    # Enumeration dominates; a few Volkmann sweeps ride along (one per 29 ops).
    streams = {"E": enumerate_ops(), "M": maximality_ops(), "V": volkmann_ops()}
    return interleave("EMEEMEE" * 2 + "V" + "EMEEMEE" * 2, streams)


def _spectral_sweep(s, rng, counts) -> Iterator[Op]:
    def corollaries_ops():
        seqs = [d for n in s["corollaries_n"] for d in tree_sequences(n)]
        strata = by_cost(seqs, lambda d: counts[len(d)][seq_key(d)], 9)
        for d in rotate(strata, rng):
            yield Op("corollaries", ["verify", "corollaries", fmt(d)], f"corollaries {fmt(d)}",
                     want_trees=counts[len(d)][seq_key(d)])

    def tree_file_ops(verb):
        for n in rotate(blocks(*s["random_tree_n"], 10), rng):
            yield Op(verb, [verb, "{file}"], f"{verb} prufer n={n}", tree=(n, prufer_tree(n, rng)))

    streams = {"C": corollaries_ops(), "S": tree_file_ops("spectrum"), "X": tree_file_ops("estrada")}
    return interleave("CSX", streams)


def _shaped_tree_ops(verb, n_range, extra, shapes, rng) -> Iterator[Op]:
    """Cycle the given shapes (Volkmann, greedy by --degseq, Prüfer) over stratified n."""
    shapes = itertools.cycle(shapes)
    for n in rotate(blocks(*n_range, 13), rng):  # 13 strata, 2 or 3 shapes: every pairing occurs
        shape = next(shapes)
        if shape == "volkmann":
            dmax = rng.randint(3, 6)
            edges = greedy_edges(dominant_for_max_degree(n, dmax))
            label, argv = f"volkmann n={n} D={dmax}", [verb, "{file}"]
        elif shape == "greedy":
            d = degrees_of(n, prufer_tree(n, rng))
            edges = greedy_edges(d)
            label, argv = f"greedy n={n}", [verb, "--degseq", fmt(d)]
        else:
            edges = prufer_tree(n, rng)
            label, argv = f"prufer n={n}", [verb, "{file}"]
        yield Op(verb, argv + extra, f"{verb} {label}", tree=(n, edges), k=MOMENTS_K)


def _large_trees(s, rng, counts) -> Iterator[Op]:
    def radius_ops():
        shapes = itertools.cycle(("path", "caterpillar"))
        paths = rotate(blocks(*s["path_n"], 12), rng)
        cats = rotate(blocks(*s["caterpillar_n"], 12), rng)
        for shape in shapes:
            if shape == "path":
                n = next(paths)
                edges = path_tree(n)
            else:
                n = next(cats)
                edges = caterpillar_tree(n, rng)
            yield Op("radius", None, f"spectral_radius {shape} n={n}", tree=(n, edges))

    def star_ops():
        for m in rotate(blocks(*s["star_m"], 12), rng):
            edges = [(0, i) for i in range(1, m + 1)]
            yield Op("estrada", ["estrada", "--degseq", f"{m},1^{m}"], f"estrada star m={m}",
                     tree=(m + 1, edges))

    def build_ops():
        for verb in itertools.cycle(("greedy", "volkmann")):
            n = rng.randint(*s["build_n"])
            if verb == "greedy":
                d = degrees_of(n, prufer_tree(n, rng))
                yield Op("greedy", ["greedy", fmt(d)], f"greedy n={n}", degrees=d)
            else:
                dmax = rng.randint(3, 8)
                d = tuple(dominant_for_max_degree(n, dmax))
                yield Op("volkmann-build", ["volkmann", str(n), str(dmax)],
                         f"volkmann n={n} D={dmax}", degrees=d)

    streams = {
        "M": _shaped_tree_ops("moments", s["moments_n"], ["--k", str(MOMENTS_K)],
                              ("volkmann", "greedy", "prufer"), rng),
        # No Prüfer trees here: char-poly memory grows with tree depth, so on
        # random trees of 1500 vertices it swings the run's peak by 4 MiB.
        "C": _shaped_tree_ops("charpoly", s["charpoly_n"], [], ("volkmann", "greedy"), rng),
        "R": radius_ops(),
        "X": star_ops(),
        "B": build_ops(),
    }
    # Builds are five sixths of the ops: they keep the op count up and put
    # the median well inside JSON I/O.  The costly walk and spectral ops, one
    # of each per 6 ops, set the tail.
    return interleave("BBBBBMBBBBBCBBBBBRBBBBBX", streams)


def op_stream(workload: str, scale: str, seed: int, counts: dict[int, dict[str, int]]) -> Iterator[Op]:
    """Endless stream of ops for one workload; the same seed gives the same ops."""
    make = {"class-sweep": _class_sweep, "spectral-sweep": _spectral_sweep, "large-trees": _large_trees}
    return make[workload](SIZES[scale], random.Random(f"{workload}:{seed}"), counts)
