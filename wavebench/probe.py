"""Fixed-input layer probes for the traced run.

Two parts.  timings() measures per-call costs on fixed exact inputs with the
tracer off: power_break_data at q = 50, 500 and 3200, lift_eval, the PL and
smooth first-return maps, and a cold CLI start.  exercise() calls every
traced layer once on small fixed inputs with the tracer on, so a per-layer
metric that the workload itself never touches still has spans to come from.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from wavetrap import circle_map, cli, families, geometry, reports, rotation, tongues
from wavetrap import tracer as wt_tracer

import workloads as wl

# a table whose rho is not a fraction with q <= 2000, so F^q has 2q breaks
PROBE_POINT = wl.FREE_A


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean seconds per call."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        out.append((time.perf_counter() - t0) / calls)
    return statistics.median(out)


def _lift(point):
    return circle_map.trapezoid_lift(geometry.maas_params(*point, require_extra=False))


def cold_start_ms(root: str, repeats: int = 5) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "wavetrap.cli", "--help"], cwd=root, env=env,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)
        out.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(out)


def timings(root: str) -> dict:
    L = _lift(PROBE_POINT)
    out = {}
    for q, calls in ((50, 20), (500, 3), (3200, 1)):
        out[f"circle_map.power_break_data.ms_q{q}"] = 1e3 * _per_call(
            lambda: circle_map.power_break_data(L, q, 0, want_slopes=False), calls, 3)
    xs = [Fraction(k, 997) for k in range(-500, 500)]
    out["circle_map.lift_eval.us"] = 1e6 * _per_call(
        lambda: [circle_map.lift_eval(L, x) for x in xs], 1) / len(xs)

    params = geometry.trapezoid_params(Fraction(1), Fraction(1), Fraction(4))
    tent = geometry.unfold_trapezoid(params)
    pts = [Fraction(k, 101) for k in range(-50, 50)]
    out["tracer.first_return_lift.us_pl"] = 1e6 * _per_call(
        lambda: [wt_tracer.first_return_lift(tent, x, params.tan_theta) for x in pts], 1) / len(pts)
    poly = geometry.parabola_table(2, -1)
    fpts = [k / 101 for k in range(-50, 50)]
    out["tracer.first_return_lift.us_smooth"] = 1e6 * _per_call(
        lambda: [wt_tracer.first_return_lift(poly, x, 1.875) for x in fpts], 1) / len(fpts)
    out["cli.cold_start_ms"] = cold_start_ms(root)
    return out


def pool_efficiency(workers: int) -> float:
    """Serial over (workers x parallel) wall time of a 10 x 10 scan, tracer off."""
    walls = []
    for w in (workers, 1):
        t0 = time.perf_counter()
        tongues.scan((Fraction(-9, 10), Fraction(9, 10)), (Fraction(1, 2), Fraction(8)), 10,
                     q_max=wl.SCAN_QMAX, workers=w)
        walls.append(time.perf_counter() - t0)
    return walls[1] / (workers * walls[0])


def exercise(tr, out_dir: str) -> None:
    """Call every traced layer once on small fixed inputs, under item spans."""
    with tr.item_span("probe:rho"):
        rotation.rho_certify(_lift(wl.LOCK_61), 200)
        rotation.rho_certify(_lift(PROBE_POINT), 200)
    with tr.item_span("probe:ladder"):
        # resolves only on the 3200 rung, so every rung and the reduction run
        wl.Ladder._one(Fraction(2, 3), wl.experiment_directions(3)[2])
    with tr.item_span("probe:sweep"):
        fam = families.family_from_name("maas-tau", d=Fraction(0))
        rotation.rho_certify(fam.build(Fraction(47, 20)).lift, 200)
        tongues.tongue_interval(2, 3, fam)
    with tr.item_span("probe:scan"):
        recs = tongues.scan((Fraction(-9, 10), Fraction(9, 10)), (Fraction(1, 2), Fraction(8)),
                            6, q_max=20, workers=1)
        reports.write_scan_csv(recs, os.path.join(out_dir, "probe_scan.csv"), {"probe": True})
        tongues.render_phase_diagram(recs)
    flags = wl._table_flags(wl.raised(wl.LOCK_61, 0))
    for argv in (
        ["rho", *flags, "--qmax", "200", "--exact"],
        ["classify", *flags, "--qmax", "200", "--exact"],
        ["trace", *flags, "--x0=0", "--returns", "8", "--exact"],
        ["tongue", "boundary", "--p", "2", "--q", "3", "--d=0"],
        ["map", "eval", *flags, "--x=0", "--n", "16", "--exact"],
    ):
        with tr.item_span("probe:cli"), contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
