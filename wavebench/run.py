"""wavetrap benchmark: one workload, timed for --seconds, outputs checked.

    python3 wavebench/run.py --workload scan --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The full report (rounds, checks, run
metadata, and for traced runs every span) goes to
wavebench/out/<workload>-seed<n>-trace<t>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 11


def _spec():
    """Workload names and the units of each metric set, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return [w["name"] for w in spec["workloads"]], units("end_to_end"), units("per_layer")


def _import_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wavetrap", "__init__.py")):
        sys.exit(f"wavebench: no wavetrap sources under {src}; run from a repository checkout")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _parse(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print 'ready' and exit (times set-up)")
    return ap.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time from spawning a fresh interpreter to 'workload ready'."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_meta(workers: int) -> dict:
    from wavetrap import scalar

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "backend": "gmpy2" if scalar.HAVE_GMPY2 else "Fraction",
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def run_rounds(work, seconds: float):
    """Whole rounds until `seconds` have passed; at least one."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(work.run_round())
    return rounds


def check_rounds(work, rounds) -> list:
    errs = work.check(rounds[0])
    first = rounds[0].signature()
    for i, r in enumerate(rounds[1:], 1):
        if r.signature() != first:
            errs.append(f"round {i} differs from round 0 on identical inputs")
    return errs


def untraced(args, work, out_dir: str, units: dict):
    rounds = run_rounds(work, args.seconds)
    rss = peak_rss_mb()  # before any set-up probe adds children of its own
    errs = check_rounds(work, rounds)
    setup_s = measure_setup(args)
    rates = [r.attempted / r.wall_s for r in rounds]
    metrics = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(rates),
        "resolved": rounds[0].resolved,
        "peak_rss_mb": rss,
    }
    item_ms = sorted(ms for r in rounds for ms in r.item_ms)
    report = {
        # per-item latency is kept for reading, not as a metric: its median
        # falls between item classes and moved by a quarter to over a half
        # between seeds
        "item_ms": {"n": len(item_ms), "p50": statistics.median(item_ms) if item_ms else None,
                    "p90": item_ms[int(0.9 * len(item_ms))] if item_ms else None},
        "rounds": [{"attempted": r.attempted, "failed": r.failed, "resolved": r.resolved,
                    "wall_s": r.wall_s, "items_per_s": r.attempted / r.wall_s,
                    "item_ms": r.item_ms, "failures": r.errors} for r in rounds],
    }
    return _result(rounds, errs, metrics, units, report)


def traced(args, work, out_dir: str, units: dict):
    import layers
    import probe
    from spans import Tracer

    # the same rounds untraced, before any wrapper is installed, then traced;
    # a traced scan runs serially, because spans recorded in pool workers
    # would be lost, and takes three passes, so the untraced pass gets a
    # third of the time
    workers = getattr(work, "workers", 1)
    plain = run_rounds(work, args.seconds / 3)
    fixed = {}
    if work.name == "scan":
        t_parallel = sum(r.wall_s for r in plain)
        work.workers = 1
        plain = [work.run_round() for _ in plain]
        fixed["tongues.scan.pool_efficiency"] = (
            sum(r.wall_s for r in plain) / (workers * t_parallel))
    t_plain = sum(r.wall_s for r in plain)
    tr = Tracer()
    tr.install()
    tr.enabled = True
    with_spans = []
    for i in range(len(plain)):
        with tr.item_span(f"round{i}"):
            with_spans.append(work.run_round())
    tr.enabled = False
    n_work = len(tr.spans)
    t_traced = sum(r.wall_s for r in with_spans)
    work.workers = workers
    errs = check_rounds(work, with_spans)

    fixed.update(probe.timings(ROOT))
    if work.name != "scan":
        fixed["tongues.scan.pool_efficiency"] = probe.pool_efficiency(probe.wl.nproc())
    tr.enabled = True
    probe.exercise(tr, out_dir)
    tr.enabled = False
    tr.uninstall()

    items = sum(r.attempted for r in with_spans)
    metrics, sources = layers.per_layer(tr, n_work, items)
    metrics.update(fixed)
    metrics["trace.overhead_share"] = t_traced / t_plain - 1.0
    with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "item", "info"],
                   "workload_spans": n_work, "spans": tr.dump()}, fh)
    report = {"sources": sources, "rho_certify": layers.certify_means_ms(tr, n_work),
              "untraced_s": t_plain, "traced_s": t_traced}
    return _result(with_spans, errs, metrics, units, report)


def _result(rounds, errs, metrics, units, report):
    missing = sorted(k for k in units if metrics.get(k) is None)
    if missing or set(metrics) - set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                           f"extra {sorted(set(metrics) - set(units))}")
    out = {
        "correct": not errs,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    report["checks"] = errs
    return out, report


def main(argv=None) -> int:
    names, e2e_units, layer_units = _spec()
    args = _parse(argv, names)
    _import_package()
    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    in_process_setup = time.perf_counter() - T_START
    if args.trace:
        result, report = traced(args, work, out_dir, layer_units)
    else:
        result, report = untraced(args, work, out_dir, e2e_units)
    report.update(meta=run_meta(getattr(work, "workers", 1)), args=vars(args),
                  in_process_setup_s=in_process_setup, result=result)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    for msg in report["checks"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
