#!/usr/bin/env python3
"""One-shot traced report of the ROADMAP baselines.

    python3 bench/baselines.py

Runs each case once, in this process, under the layer tracer, and checks
its output against the oracles in ``checks.py``:

- ``spectral_moments_up_to`` on the 1000-vertex Volkmann tree (maximum
  degree 3) at k = 20,
- ``spectral_radius`` on the 400-vertex path,
- ``spectral_radius`` on a random 196-vertex caterpillar (the
  ``caterpillar_tree`` of ``workloads.py`` with seed 7966), on which power
  iteration hits its cap and raises ``NonConvergenceError``: a known defect,
  reported as a failed case until the radius route stops failing,
- ``estrada_index`` on the star K_{1,80},
- ``enumerate_trees`` over every degree sequence with n = 16.

Prints one JSON report (wall time, layer calls and self times, counters)
and writes it to ``bench/results/baselines.json``.  Exits 1 if a case
raises or its output is wrong.  This is a single measurement, not a
workload: cite it for the size of a change, and use ``run.py`` to show the
change is real.
"""

from __future__ import annotations

import json
import random
import sys
from time import perf_counter

from run import RESULTS, class_counts, import_package, metadata


def main() -> int:
    pkg = import_package()
    import checks
    from tracing import Tracer
    from workloads import caterpillar_tree

    counts16 = class_counts([16])[16]
    volkmann = pkg.build_volkmann_tree(1000, 3)
    path = pkg.Tree(400, tuple((i, i + 1) for i in range(399)))
    caterpillar = pkg.Tree(196, tuple(caterpillar_tree(196, random.Random(7966))))
    star = pkg.Tree(81, tuple((0, i) for i in range(1, 81)))

    def enumerate_16():
        return {checks.seq_key(d): len(list(pkg.enumerate_trees(d, 16)))
                for d in pkg.tree_degree_sequences(16)}

    # name: (the measured call, the check of its result)
    cases = {
        "moments_volkmann_n1000_k20": (
            lambda: pkg.spectral_moments_up_to(volkmann, 20),
            lambda mv: checks.check_moments(json.dumps([str(c) for c in mv]),
                                            volkmann.n, volkmann.edges, 20),
        ),
        "radius_path_n400": (
            lambda: pkg.spectral_radius(path),
            lambda rho: checks.check_radius(rho, path.n, path.edges),
        ),
        "radius_caterpillar_n196": (
            lambda: pkg.spectral_radius(caterpillar),
            lambda rho: checks.check_radius(rho, caterpillar.n, caterpillar.edges),
        ),
        "estrada_star_m80": (
            lambda: pkg.estrada_index(star),
            lambda ee: checks.check_estrada(repr(ee), star.n, star.edges),
        ),
        "enumerate_all_n16": (
            enumerate_16,
            lambda got: None if got == counts16 else "class counts differ from networkx",
        ),
    }
    tracer = Tracer()
    tracer.install()
    report = {"meta": metadata(pkg, report="baselines"), "cases": {}}
    failed = False
    for name, (call, check) in cases.items():
        tracer.reset()
        start = tracer.begin_op()
        wall = perf_counter()
        try:
            result, problem = call(), None
        except Exception as exc:
            result, problem = None, f"raised {exc!r}"
        wall = perf_counter() - wall
        tracer.end_op(start)
        problem = problem or check(result)
        failed = failed or problem is not None
        layers = tracer.metrics(overhead_frac=0.0)
        del layers["trace.overhead_frac"]  # one shot: no untraced twin to compare with
        report["cases"][name] = {
            "wall_s": wall,
            "correct": problem is None,
            "problem": problem,
            "layers": {k: v for k, v in layers.items() if v},
        }
        print(f"# {name}: {wall:.3f} s, correct={problem is None}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "baselines.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
