"""Layer spans recorded from outside the package.

``Tracer.install`` wraps every public function of the measured modules, at
every ``greedy_spectra`` namespace that holds it, plus ``Tree.__post_init__``.
Each wrapper opens a span named after its layer.  Spans nest on one stack
whose bottom frame is the benchmark op, so a layer's self time is its span
time minus the time of the spans it caused, and the op frame's own self time
is the share no layer covers.  Spans opened outside an op (input preparation)
are not recorded.

``transformations`` is left out: no CLI verb reaches it.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Layer of each public function, per module; "*" is the module's default.
LAYERS = {
    "cli": {"*": "cli"},
    "degree_sequences": {"*": "degree_sequences"},
    "trees": {
        "canonical_code": "trees.canonical_code",
        "is_isomorphic": "trees.canonical_code",
        "centers": "trees.canonical_code",
        "tree_to_dict": "trees.io",
        "tree_from_dict": "trees.io",
        "to_json": "trees.io",
        "from_json": "trees.io",
        "to_dot": "trees.io",
        "*": "trees.build",
    },
    "walks": {"*": "walks.moments"},
    "spectral": {
        "eigenvalues": "spectral.eigenvalues",
        "spectral_radius": "spectral.radius",
        "estrada_index": "spectral.estrada",
        "characteristic_polynomial": "spectral.charpoly",
        "evaluate_char_poly": "spectral.charpoly",
        "*": "spectral.functional",
    },
    "enumeration": {
        "enumerate_trees": "enumeration.enumerate",
        "resolve_cap": "enumeration.enumerate",
        "tree_degree_sequences": "degree_sequences",
        "*": "enumeration.verify",
    },
}

# Layers reported with a call count and a self time.
TIMED_LAYERS = (
    "cli",
    "degree_sequences",
    "trees.build",
    "trees.tree_init",
    "trees.canonical_code",
    "walks.moments",
    "spectral.eigenvalues",
    "spectral.radius",
    "spectral.estrada",
    "spectral.charpoly",
    "enumeration.enumerate",
    "enumeration.verify",
)

# Every per-layer metric a traced run reports, with its unit.
METRICS = (
    [(f"{layer}.{part}", unit) for layer in TIMED_LAYERS for part, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("trees.io.self_s", "s"),
        ("walks.moments.work", "count"),
        ("walks.moments.ns_per_nk", "ns"),
        ("spectral.estrada.series_order_mean", "count"),
        ("enumeration.trees_materialized", "count"),
        ("enumeration.classes_out", "count"),
        ("enumeration.dedup_ratio", "ratio"),
        ("enumeration.branch_shape_cache_hit_ratio", "ratio"),
        ("enumeration.verify.trees_swept", "count"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_frac", "ratio"),
    ]
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # frames [layer, seconds spent in child spans]
        self.active: Counter = Counter()  # open spans per layer
        self.calls: Counter = Counter()  # outermost spans per layer
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_s = 0.0
        self._branch_shapes = None

    def reset(self) -> None:
        """Forget what was recorded; the installed wrappers stay."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.op_s = 0.0

    # Ops --------------------------------------------------------------

    def begin_op(self) -> float:
        self.stack.append(["op", 0.0])
        return perf_counter()

    def end_op(self, start: float) -> None:
        dur = perf_counter() - start
        _, child = self.stack.pop()
        self.self_s["op"] += dur - child
        self.op_s += dur

    # Spans ------------------------------------------------------------

    def _wrap(self, layer, fn, before=None, after=None):
        stack, active, calls, self_s = self.stack, self.active, self.calls, self.self_s

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            outer = not active[layer]
            if outer:
                calls[layer] += 1
            if before is not None:
                before(stack[-1][0], outer, args, kwargs)
            active[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(outer, result)
            finally:
                dur = perf_counter() - start
                stack.pop()
                active[layer] -= 1
                self_s[layer] += dur - frame[1]
                stack[-1][1] += dur
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    def _moments_before(self, parent, outer, args, kwargs):
        t = args[0] if args else kwargs["t"]
        k = args[1] if len(args) > 1 else kwargs.get("k_max", kwargs.get("k"))
        if outer:
            self.counts["work"] += t.n * k
        if parent == "spectral.estrada":
            self.counts["series_order_sum"] += k
            self.counts["series_orders"] += 1

    def _tree_init_before(self, parent, outer, args, kwargs):
        if self.active["enumeration.enumerate"]:
            self.counts["trees_materialized"] += 1

    def _enumerate_after(self, outer, result):
        trees = list(result)
        if outer:
            self.counts["classes_out"] += len(trees)
        return iter(trees)

    def _verify_after(self, outer, report):
        if outer:
            self.counts["trees_swept"] += report.stats.get("trees_enumerated", 0)
        return report

    def install(self) -> None:
        """Wrap the measured functions of the imported greedy_spectra modules."""
        import greedy_spectra.trees as trees_module

        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("greedy_spectra")}
        hooks = {
            "spectral_moments_up_to": (self._moments_before, None),
            "spectral_moment": (self._moments_before, None),
            "enumerate_trees": (None, self._enumerate_after),
        }
        wrapped = {}
        for short, table in LAYERS.items():
            mod = modules[f"greedy_spectra.{short}"]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn):
                    continue
                layer = table.get(name, table["*"])
                before, after = hooks.get(name, (None, None))
                if name.startswith("verify_"):
                    after = self._verify_after
                wrapped[fn] = self._wrap(layer, fn, before, after)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, name, wrapped[value])
        tree = trees_module.Tree
        tree.__post_init__ = self._wrap("trees.tree_init", tree.__post_init__, self._tree_init_before)
        self._branch_shapes = getattr(modules["greedy_spectra.enumeration"], "_branch_shapes", None)

    # Report -----------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        c = self.counts
        work = c["work"]
        out["trees.io.self_s"] = self.self_s["trees.io"]
        out["walks.moments.work"] = work
        out["walks.moments.ns_per_nk"] = self.self_s["walks.moments"] * 1e9 / work if work else 0.0
        orders = c["series_orders"]
        out["spectral.estrada.series_order_mean"] = c["series_order_sum"] / orders if orders else 0.0
        out["enumeration.trees_materialized"] = c["trees_materialized"]
        out["enumeration.classes_out"] = c["classes_out"]
        made = c["trees_materialized"]
        out["enumeration.dedup_ratio"] = c["classes_out"] / made if made else 0.0
        out["enumeration.branch_shape_cache_hit_ratio"] = self._cache_hit_ratio()
        out["enumeration.verify.trees_swept"] = c["trees_swept"]
        out["trace.overhead_frac"] = overhead_frac
        out["trace.unattributed_frac"] = self.self_s["op"] / self.op_s if self.op_s else 0.0
        return out

    def _cache_hit_ratio(self) -> float:
        info = getattr(self._branch_shapes, "cache_info", None)
        if info is None:
            return 0.0
        stats = info()
        looked_up = stats.hits + stats.misses
        return stats.hits / looked_up if looked_up else 0.0
