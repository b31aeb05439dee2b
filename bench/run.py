#!/usr/bin/env python3
"""greedy-spectra benchmark: one workload per run, one client, closed loop.

    python3 bench/run.py --workload class-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1                # every workload, one table

A run imports the package from ``src/`` of the checkout it sits in, makes its
ops from the seed, and sends them one after another, each op a CLI
invocation through ``greedy_spectra.cli.main(argv)`` with stdout captured (or
a direct ``spectral_radius`` call, which has no CLI verb).  It stops once the
ops have kept the package busy for ``--seconds``.  Every output is then
checked against the oracles in ``checks.py``.  The last line of stdout is one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of ``tracing.py`` with ``--trace 1``.  The exit code is 0 when every op
succeeded with a correct output.  A full record (metadata, every op's argv,
latency and tree count) goes to ``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = {"full": 9, "toy": 1}
# Times the import in a fresh interpreter, then the speed probe in the same one.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import greedy_spectra, greedy_spectra.cli; t = time.perf_counter() - t; "
    "sys.path.insert(0, {bench!r}); import run; "
    "print(t, run.interquartile_mean([run.calibration_sample() for _ in range(25)]))"
)
# The machine's speed drifts by tens of percent within a minute when other
# jobs share it.  After every op the loop times a fixed piece of interpreter
# work; each op's latency is scaled by CAL_REF_S over the interquartile mean
# of the probes around it, so the figures read as milliseconds on a machine
# where the probe takes CAL_REF_S.  The mean, not the median, follows bursts
# of contention the way a long op feels them; trimming drops the probes a
# garbage collection or an interrupt hit.  Raw latencies stay in the results.
CAL_REF_S = 0.0015
CAL_WINDOW = 15
# Throughput is the interquartile mean over blocks of whole op-pattern rounds,
# each block at least this many ops, so that one op far slower than the rest
# (a spectral_radius near its iteration cap) shows in its own block and in
# the per-op record rather than setting the figure of the whole run.
BLOCK_OPS = 24
E2E_UNITS = {
    "ops_per_s": "1/s",
    "trees_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=("all", "class-sweep", "spectral-sweep", "large-trees"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="input sizes; toy is for the smoke test")
    p.add_argument("--replay", type=int, default=None, metavar="N",
                   help="run the first N ops untraced and print their wall time "
                        "(the traced run uses it to measure tracing overhead)")
    return p.parse_args(argv)


def import_package():
    """Import greedy_spectra from this checkout's src/, or exit 2."""
    if not (SRC / "greedy_spectra" / "__init__.py").is_file():
        print(f"error: no greedy_spectra package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import greedy_spectra
    import greedy_spectra.cli  # noqa: F401

    if SRC not in Path(greedy_spectra.__file__).resolve().parents:
        print(f"error: imported greedy_spectra from {greedy_spectra.__file__}", file=sys.stderr)
        sys.exit(2)
    return greedy_spectra


def calibration_sample() -> float:
    """Seconds for a fixed piece of interpreter work: the machine-speed probe.

    It mixes what the package spends its time on: graph traversal over lists
    and dicts, big-integer arithmetic, and small numpy array updates.
    """
    start = perf_counter()
    adj = [[(i * 7 + j) % 200 for j in range(3)] for i in range(200)]
    for _ in range(15):
        seen = {0: 0}
        order = [0]
        for v in order:
            for u in adj[v]:
                if u not in seen:
                    seen[u] = seen[v] + 1
                    order.append(u)
        sorted(seen.values())
    big = 3 ** 400
    acc = 0
    for i in range(900):
        acc = (acc + big * i) % (big + 1)
    a = np.ones((40, 40))
    for p in range(180):
        col = a[:, p % 40].copy()
        a[:, (p + 1) % 40] = 0.5 * col - 0.25 * a[:, (p + 1) % 40]
    return perf_counter() - start


def setup_samples(count: int) -> list[float]:
    """Import time of greedy_spectra and its CLI, each in a fresh interpreter,
    scaled by the speed probe that the same interpreter runs next."""
    probe = IMPORT_PROBE.format(src=str(SRC), bench=str(BENCH))
    out = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, speed = map(float, done.stdout.split())
        out.append(seconds * CAL_REF_S / speed)
    return out


def class_counts(ns: list[int]) -> dict[int, dict[str, int]]:
    """Oracle class counts, computed in a child so networkx stays out of this process."""
    if not ns:
        return {}
    done = subprocess.run([sys.executable, str(BENCH / "checks.py"), "class-counts", *map(str, ns)],
                          capture_output=True, text=True, timeout=150, check=True)
    return {int(n): table for n, table in json.loads(done.stdout).items()}


def _tree_json(n, edges) -> str:
    return json.dumps({"n": n, "edges": [list(e) for e in edges], "root_vertex": None, "root_edge": None})


def _timed_call(fn, args, tracer):
    """Run one op; return (seconds, return value, captured stdout, failure or None)."""
    out, err = io.StringIO(), io.StringIO()
    value, failure = None, None
    with redirect_stdout(out), redirect_stderr(err):
        start = tracer.begin_op() if tracer else perf_counter()
        try:
            value = fn(*args)
        except SystemExit as exc:  # argparse exits on bad argv
            value = exc.code
        except Exception:
            failure = "exception escaped: " + traceback.format_exc().strip().splitlines()[-1]
        if tracer:
            tracer.end_op(start)
        seconds = perf_counter() - start
    if "Traceback" in err.getvalue():
        failure = failure or "traceback on stderr"
    return seconds, value, out.getvalue(), failure


def run_ops(pkg, stream, seconds, limit, tracer, workdir, calibrate):
    """Closed loop: send ops until busy for ``seconds`` (or ``limit`` ops are done).

    Outputs go to files in ``workdir``, so that holding them for the checks
    does not count in the peak memory.
    """
    tree_file = workdir / "tree.json"
    records = []
    busy = 0.0
    loop_start = perf_counter()
    round_done = True
    for i, op in enumerate(stream):
        if limit is not None and i >= limit:
            break
        if limit is None and busy >= seconds and round_done:
            break
        round_done = op.round_end
        # Input preparation stays outside the op's latency.
        if op.argv is None:
            fn, args = pkg.spectral_radius, (pkg.Tree(op.tree[0], tuple(op.tree[1])),)
        else:
            if "{file}" in op.argv:
                tree_file.write_text(_tree_json(*op.tree))
            fn = pkg.cli.main
            args = ([str(tree_file) if a == "{file}" else a for a in op.argv],)
        dt, value, stdout, failure = _timed_call(fn, args, tracer)
        if op.argv is not None and failure is None and value != 0:
            failure = f"exit code {value}"
        busy += dt
        end_s = perf_counter() - loop_start
        output = value
        if op.argv is not None:
            output = workdir / f"out{i}.txt"
            output.write_text(stdout)
        records.append({
            "argv": op.argv,
            "label": op.label,
            "seconds": dt,
            "end_s": end_s,
            "output": output,
            "failure": failure,
            "round_end": op.round_end,
            "probe_s": calibration_sample() if calibrate else None,
            "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    if calibrate:
        probes = [r["probe_s"] for r in records]
        for i, r in enumerate(records):
            window = probes[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
            r["scaled_s"] = r["seconds"] * CAL_REF_S / interquartile_mean(window)
    return records


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values."""
    xs = sorted(values)
    cut = len(xs) // 4
    return statistics.fmean(xs[cut:len(xs) - cut])


def check_records(records, stream) -> None:
    """Fill in each record's tree count and failure, from the independent oracles.

    ``stream`` is the run's op stream made again from the seed: records keep
    no inputs, so that holding them does not count in the peak memory.
    """
    import checks

    verify = lambda op, out: checks.check_verify(out, op.want_trees)  # noqa: E731
    built = lambda op, out: checks.check_built_tree(out, op.degrees)  # noqa: E731
    by_kind = {
        "enumerate": lambda op, out: checks.check_count(out, op.want_trees),
        "maximality": verify,
        "volkmann": verify,
        "corollaries": verify,
        "spectrum": lambda op, out: checks.check_spectrum(out, *op.tree),
        "estrada": lambda op, out: checks.check_estrada(out, *op.tree),
        "moments": lambda op, out: checks.check_moments(out, *op.tree, op.k),
        "charpoly": lambda op, out: checks.check_charpoly(out, *op.tree),
        "radius": lambda op, out: checks.check_radius(out, *op.tree),
        "greedy": built,
        "volkmann-build": built,
    }
    for rec, op in zip(records, stream):
        if op.label != rec["label"]:
            raise RuntimeError(f"op stream differs on remaking: {op.label} != {rec['label']}")
        rec["trees"] = 0
        if rec["failure"]:
            continue
        out = rec["output"]
        try:
            if op.argv is not None:
                out = out.read_text()
            rec["failure"] = by_kind[op.kind](op, out)
            if op.kind == "enumerate":
                rec["trees"] = int(out)
            elif op.want_trees is not None:
                rec["trees"] = json.loads(out)["stats"]["trees_enumerated"]
            else:
                rec["trees"] = 1
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            rec["failure"] = f"unreadable output: {exc!r}"
        if rec["failure"]:
            rec["trees"] = 0


def round_blocks(records) -> list[list[dict]]:
    """Consecutive records cut at round ends into blocks of at least BLOCK_OPS ops;
    a short tail joins the block before it."""
    out, block = [], []
    for r in records:
        block.append(r)
        if r["round_end"] and len(block) >= BLOCK_OPS:
            out.append(block)
            block = []
    if block:
        if out:
            out[-1].extend(block)
        else:
            out.append(block)
    return out


def end_to_end(records, setup, peak_rss_mib) -> dict[str, float]:
    """End-to-end metrics from speed-scaled latencies (see CAL_REF_S)."""
    ops_rates, tree_rates = [], []
    for block in round_blocks(records):
        ok = [r for r in block if not r["failure"]]
        busy = sum(r["scaled_s"] for r in block)
        ops_rates.append(len(ok) / busy)
        tree_rates.append(sum(r["trees"] for r in ok) / busy)
    latencies = [r["scaled_s"] * 1e3 for r in records]
    return {
        "ops_per_s": interquartile_mean(ops_rates),
        "trees_per_s": interquartile_mean(tree_rates),
        "op_p50_ms": float(np.quantile(latencies, 0.5)),
        "op_p90_ms": float(np.quantile(latencies, 0.9)),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_rss_mib,
    }


def replay_overhead(args, records) -> float:
    """Traced wall time of a prefix of the ops against the same prefix untraced."""
    cut = next((i for i, r in enumerate(records) if r["end_s"] >= args.seconds / 2), len(records) - 1)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--replay", str(cut + 1)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    untraced = json.loads(done.stdout.strip().splitlines()[-1])["replay_s"]
    return records[cut]["end_s"] / untraced - 1.0


def metadata(pkg, **fields) -> dict:
    """Run metadata: the caller's fields plus git SHA and versions."""
    sha = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        **fields,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "greedy_spectra": getattr(pkg, "__version__", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(args) -> int:
    pkg = import_package()
    from tracing import METRICS, Tracer
    from workloads import class_count_ns, op_stream

    traced = args.trace and not args.replay
    setup = [] if args.trace or args.replay else setup_samples(SETUP_SAMPLES[args.scale])
    counts = class_counts(class_count_ns(args.workload, args.scale))
    stream = op_stream(args.workload, args.scale, args.seed, counts)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    workdir = BENCH / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        records = run_ops(pkg, stream, args.seconds, args.replay, tracer, workdir,
                          calibrate=not (args.trace or args.replay))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.replay:
            print(json.dumps({"replay_s": records[-1]["end_s"]}))
            return 0
        check_records(records, op_stream(args.workload, args.scale, args.seed, counts))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in records if r["failure"]]
    if tracer:
        metrics = tracer.metrics(replay_overhead(args, records))
        units = dict(METRICS)
    else:
        metrics = end_to_end(records, setup, peak_rss_mib)
        units = E2E_UNITS
    first_failure = None
    if failed:
        first_failure = {k: failed[0][k] for k in ("argv", "label", "failure")}
    meta = metadata(pkg, workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, scale=args.scale)
    RESULTS.mkdir(exist_ok=True)
    result_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "meta": meta,
        "attempted": len(records),
        "failed": len(failed),
        "first_failure": first_failure,
        "setup_samples_s": setup,
        "metrics": metrics,
        "ops": [
            {"argv": r["argv"], "label": r["label"], "ms": r["seconds"] * 1e3,
             "scaled_ms": r["scaled_s"] * 1e3 if "scaled_s" in r else None,
             "probe_ms": r["probe_s"] * 1e3 if r["probe_s"] else None,
             "peak_rss_mib": r["rss_mib"],
             "trees": r["trees"], "failure": r["failure"], "round_end": r["round_end"]}
            for r in records
        ],
    }, indent=1))

    print(f"# {json.dumps(meta)}")
    print(f"# {len(records)} ops, {len(failed)} failed (failed_frac {len(failed) / len(records):.4f}), "
          f"{sum(r['seconds'] for r in records):.2f} s busy, {len(setup)} setup samples; "
          f"record in {result_file.relative_to(ROOT)}")
    if first_failure:
        print(f"# first failure: {json.dumps(first_failure)}")
    for name, value in metrics.items():
        print(f"#   {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failed else 1


def run_all(args) -> int:
    """Every workload in its own fresh process; one table of metrics."""
    from workloads import WORKLOADS

    status = 0
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(done.stderr)
        if not lines:
            continue
        result = json.loads(lines[-1])
        rows.append((workload, result))
        if not result["correct"]:
            status = 1
    for workload, result in rows:
        frac = result["failed"] / result["attempted"]
        print(f"{workload}: {result['attempted']} ops, correct={result['correct']}")
        for name, m in result["metrics"].items():
            print(f"  {name:45s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'failed_frac':45s} {frac:>14.6g} ratio")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
