"""Command-line surface: parameter parsing, dispatch, and file output.

Scalars accept "p/q" (exact), integers (exact), and decimals (float unless
--exact-decimal turns them into exact base-10 rationals).  Every value flag
can come from a --config JSON file instead; explicit flags win.  Exit codes:
0 on success (a not_reduced direction is data, not a failure), 2 on
parameter or usage errors, 3 on numeric failures, and 1 when stdout is
closed before the result is written (e.g. piped into `head`); that case
prints nothing to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .circle_map import lift_eval, trapezoid_lift
from .classify import classify
from .dilation import (
    ae_rationality_experiment,
    conjugacy_witness,
    fundamental_domain,
    reduce_direction,
    surface_params,
)
from .errors import NumericError, ParameterError, UnsupportedPair, WavetrapError
from .families import FAMILY_NAMES, family_from_name
from .geometry import maas_coords, maas_params, table_from_json, trapezoid_params, unfold_trapezoid
from .reports import write_json, write_scan_csv, write_staircase_csv
from .rotation import Certified, rho_certify, staircase
from .scalar import exact, is_exact, parse_scalar, scalar_str, to_float
from .tongues import closed_form_oracle, render_phase_diagram, scan, tongue_interval
from .tracer import _render_trace, trace_segments


def _env_workers() -> int:
    raw = os.environ.get("WAVETRAP_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ParameterError(f"WAVETRAP_WORKERS must be an integer; got {raw!r}")


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset argument slots from the --config JSON file.

    Explicit flags win; keys may use dashes or underscores and must match a
    flag of the chosen subcommand, so typos surface instead of vanishing.
    """
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError(f"{args.config}: config must be a JSON object")
    aliases = {"exact": "exact_mode", "float": "float_mode", "n": "n_samples"}
    for key, val in data.items():
        dest = key.replace("-", "_")
        dest = aliases.get(dest, dest)
        if not hasattr(args, dest):
            raise ParameterError(f"{args.config}: unknown config key {key!r}")
        cur = getattr(args, dest)
        if cur is None or cur is False:
            setattr(args, dest, val)
    if getattr(args, "exact_mode", False) and getattr(args, "float_mode", False):
        raise ParameterError("--exact and --float are mutually exclusive")


def _opt(args: argparse.Namespace, name: str, default):
    v = getattr(args, name, None)
    return default if v is None else v


def _need(args: argparse.Namespace, name: str):
    v = getattr(args, name, None)
    if v is None:
        raise ParameterError(f"missing --{name.replace('_', '-')} (flag or config key)")
    return v


def _scalar(args: argparse.Namespace, name: str, default=None):
    """Coerce one CLI/config value to a Scalar honouring the mode flags."""
    v = getattr(args, name, None)
    if v is None:
        v = default
    if v is None:
        return None
    if isinstance(v, bool):
        raise ParameterError(f"--{name.replace('_', '-')}: expected a number, got {v}")
    if isinstance(v, str):
        v = parse_scalar(v, exact_decimal=getattr(args, "exact_decimal", False))
    elif isinstance(v, int):
        v = exact(v)
    if getattr(args, "float_mode", False):
        v = to_float(v)
    return v


def _check_exact(args: argparse.Namespace, *values) -> None:
    if getattr(args, "exact_mode", False):
        for v in values:
            if v is not None and not is_exact(v):
                raise ParameterError(
                    "--exact requires rational inputs; write p/q or add --exact-decimal"
                )


def _trapezoid(args: argparse.Namespace):
    ell, ta, tt = _scalar(args, "ell"), _scalar(args, "tan_alpha"), _scalar(args, "tan_theta")
    d, tau = _scalar(args, "d"), _scalar(args, "tau")
    have_lab = d is not None or tau is not None
    have_raw = any(v is not None for v in (ell, ta, tt))
    if have_lab and have_raw:
        raise ParameterError("give either (--d, --tau) or (--ell, --tan-alpha, --tan-theta), not both")
    if have_lab:
        if d is None or tau is None:
            raise ParameterError("the laboratory slice needs both --d and --tau")
        _check_exact(args, d, tau)
        return maas_params(d, tau, require_extra=False)
    if ell is None or ta is None or tt is None:
        raise ParameterError("need --ell, --tan-alpha and --tan-theta (or --d and --tau)")
    _check_exact(args, ell, ta, tt)
    return trapezoid_params(ell, ta, tt, require_extra=False)


def _params_json(p) -> dict:
    out = {
        "ell": scalar_str(p.ell),
        "tan_alpha": scalar_str(p.tan_alpha),
        "tan_theta": scalar_str(p.tan_theta),
        "a0": scalar_str(p.a0),
        "a1": scalar_str(p.a1),
        "m": scalar_str(p.m),
        "s": scalar_str(p.s),
        "exact": p.exact_mode,
        "extra_condition": p.extra_condition,
    }
    try:
        d, tau = maas_coords(p)
        out["d"], out["tau"] = scalar_str(d), scalar_str(tau)
    except ParameterError:
        pass
    return out


def _emit(args: argparse.Namespace, obj: dict, config: dict) -> int:
    text = write_json(obj, getattr(args, "out", None), config)
    print(text)
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_map_eval(args) -> int:
    p = _trapezoid(args)
    x = _scalar(args, "x")
    if x is None:
        raise ParameterError("map eval needs --x")
    n = _opt(args, "n", 1)
    L = trapezoid_lift(p)
    orbit = []
    cur = x
    for _ in range(n):
        cur = lift_eval(L, cur)
        orbit.append(cur)
    obj = {
        "params": _params_json(p),
        "x": scalar_str(x),
        "orbit": [scalar_str(v) for v in orbit],
        "orbit_float": [to_float(v) for v in orbit],
    }
    config = {"command": "map eval", "x": scalar_str(x), "n": n, **_params_json(p)}
    return _emit(args, obj, config)


def _cmd_rho(args) -> int:
    p = _trapezoid(args)
    q_max = _opt(args, "qmax", 2000)
    r = rho_certify(trapezoid_lift(p), q_max)
    obj = {"params": _params_json(p), "rho": r.to_json()}
    config = {"command": "rho", "qmax": q_max, **_params_json(p)}
    return _emit(args, obj, config)


def _cmd_classify(args) -> int:
    p = _trapezoid(args)
    q_max = _opt(args, "qmax", 2000)
    cls = classify(trapezoid_lift(p), q_max=q_max)
    obj = {"params": _params_json(p), "classification": cls.to_json()}
    config = {"command": "classify", "qmax": q_max, **_params_json(p)}
    return _emit(args, obj, config)


_FAMILY_FIXED = {
    "ell": ("tan_alpha", "tan_theta"),
    "neg-theta": ("ell", "tan_alpha"),
    "maas-tau": ("d",),
    "alpha-theta": ("ell", "kappa"),
}


def _family(args):
    name = _opt(args, "family", "maas-tau")
    if name not in _FAMILY_FIXED:
        raise ParameterError(f"unknown family {name!r}; choose from {', '.join(FAMILY_NAMES)}")
    fixed = {}
    need = _FAMILY_FIXED[name]
    for key in need:
        v = _scalar(args, key)
        if v is None:
            flags = ", ".join("--" + k.replace("_", "-") for k in need)
            raise ParameterError(f"family {name!r} needs {flags}")
        _check_exact(args, v)
        fixed[key] = v
    return family_from_name(name, **fixed)


def _cmd_tongue_boundary(args) -> int:
    p, q = _need(args, "p"), _need(args, "q")
    family = _family(args)
    bracket = None
    if getattr(args, "bracket", None):
        b_lo, b_hi = (
            parse_scalar(str(t), exact_decimal=getattr(args, "exact_decimal", False))
            for t in args.bracket
        )
        bracket = (b_lo, b_hi)
    tol = _opt(args, "tol", 1e-12)
    lo, hi = tongue_interval(p, q, family, bracket=bracket, tol=tol)
    obj = {
        "p": p,
        "q": q,
        "family": family.config(),
        "lo": scalar_str(lo),
        "hi": scalar_str(hi),
        "lo_float": to_float(lo),
        "hi_float": to_float(hi),
        "width": to_float(hi - lo),
    }
    if family.label == "maas-tau":
        try:
            o_lo, o_hi = closed_form_oracle(p, q, to_float(_scalar(args, "d")))
            obj["oracle"] = {"lo": o_lo, "hi": o_hi}
        except UnsupportedPair:
            pass
    config = {"command": "tongue boundary", "p": p, "q": q, "tol": tol, **family.config()}
    return _emit(args, obj, config)


def _overlay_curves(args, d_lo, d_hi):
    curves = []
    for label in getattr(args, "overlay", None) or []:
        parts = str(label).split("/")
        if len(parts) != 2:
            raise ParameterError(f"--overlay wants p/q, got {label!r}")
        op, oq = int(parts[0]), int(parts[1])
        pts_lo, pts_hi = [], []
        nd = 65
        flo, fhi = to_float(d_lo), to_float(d_hi)
        for i in range(nd):
            d = flo + (fhi - flo) * i / (nd - 1)
            try:
                lo, hi = closed_form_oracle(op, oq, d)
            except UnsupportedPair:
                raise ParameterError(
                    f"--overlay {label}: closed-form boundary curves exist for 2/3 and 1/4 only"
                )
            pts_lo.append((d, lo))
            pts_hi.append((d, hi))
        curves.append((f"{op}/{oq} lo", pts_lo))
        curves.append((f"{op}/{oq} hi", pts_hi))
    return curves


def _cmd_tongue_scan(args) -> int:
    workers = _opt(args, "workers", _env_workers())
    d_lo = _scalar(args, "d_lo", "-9/10")
    d_hi = _scalar(args, "d_hi", "9/10")
    t_lo = _scalar(args, "tau_lo", "1/2")
    t_hi = _scalar(args, "tau_hi", "8")
    base = _opt(args, "grid", 200)
    grid = (_opt(args, "grid_d", base), _opt(args, "grid_tau", base))
    q_max = _opt(args, "qmax", 50)
    records = scan((d_lo, d_hi), (t_lo, t_hi), grid, q_max=q_max, workers=workers)
    config = {
        "command": "tongue scan",
        "d_lo": scalar_str(d_lo), "d_hi": scalar_str(d_hi),
        "tau_lo": scalar_str(t_lo), "tau_hi": scalar_str(t_hi),
        "grid_d": grid[0], "grid_tau": grid[1],
        "qmax": q_max, "workers": workers,
    }
    if getattr(args, "csv", None):
        write_scan_csv(records, args.csv, config)
    if getattr(args, "svg", None):
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_phase_diagram(records, _overlay_curves(args, d_lo, d_hi)))
    certified = sum(1 for r in records if r.certified)
    obj = {
        "cells": len(records),
        "certified": certified,
        "fraction_certified": certified / len(records),
        "labels": sorted({f"{r.p}/{r.q}" for r in records if r.certified}),
        "csv": getattr(args, "csv", None),
        "svg": getattr(args, "svg", None),
    }
    return _emit(args, obj, config)


def _cmd_staircase(args) -> int:
    family = _family(args)
    workers = _opt(args, "workers", _env_workers())
    u_lo, u_hi = _scalar(args, "u_lo"), _scalar(args, "u_hi")
    if u_lo is None or u_hi is None:
        raise ParameterError("staircase needs --u-lo and --u-hi")
    samples = _opt(args, "samples", 200)
    q_max = _opt(args, "qmax", 2000)
    records = staircase(family, u_lo, u_hi, samples, q_max=q_max, workers=workers)
    config = {
        "command": "staircase",
        "u_lo": scalar_str(u_lo), "u_hi": scalar_str(u_hi),
        "samples": samples, "qmax": q_max, "workers": workers,
        **family.config(),
    }
    if getattr(args, "csv", None):
        write_staircase_csv(records, args.csv, config)
    n_cert = sum(1 for r in records if isinstance(r.result, Certified))
    n_err = sum(1 for r in records if r.error is not None)
    obj = {
        "samples": len(records),
        "certified": n_cert,
        "enclosures": len(records) - n_cert - n_err,
        "errors": n_err,
        "csv": getattr(args, "csv", None),
    }
    return _emit(args, obj, config)


def _cmd_trace(args) -> int:
    if getattr(args, "table", None):
        with open(args.table, "r", encoding="utf-8") as fh:
            table = table_from_json(fh.read())
        tan_theta = _scalar(args, "tan_theta")
        if tan_theta is None:
            raise ParameterError("--table needs an explicit --tan-theta")
    else:
        p = _trapezoid(args)
        table = unfold_trapezoid(p)
        tan_theta = p.tan_theta
    x0 = _scalar(args, "x0")
    if x0 is None:
        raise ParameterError("trace needs --x0")
    n_returns = _opt(args, "returns", 10)
    segs, log = trace_segments(table, x0, tan_theta, n_returns)
    if getattr(args, "svg", None):
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_render_trace(table, segs, log))
    obj = {
        "returns": list(log.returns),
        "hits": list(log.hits),
        "wraps": list(log.wraps),
        "segments": len(segs),
        "svg": getattr(args, "svg", None),
    }
    config = {"command": "trace", "x0": scalar_str(x0), "returns": n_returns,
              "tan_theta": scalar_str(tan_theta)}
    return _emit(args, obj, config)


def _cmd_dilation_reduce(args) -> int:
    m, s = _scalar(args, "m"), _scalar(args, "s")
    if m is None or s is None:
        raise ParameterError("dilation reduce needs --m and --s")
    cap = _opt(args, "cap", 10**4)
    red = reduce_direction(m, s, cap=cap)
    j_lo, j_hi = fundamental_domain(m)
    obj = red.to_json()
    obj["fundamental_domain"] = [scalar_str(j_lo), scalar_str(j_hi)]
    config = {"command": "dilation reduce", "m": scalar_str(m), "s": scalar_str(s), "cap": cap}
    return _emit(args, obj, config)


def _cmd_dilation_conjugacy(args) -> int:
    p = _trapezoid(args)
    seed = _need(args, "seed")
    samples = _opt(args, "samples", 64)
    c, residual = conjugacy_witness(p, samples=samples, seed=seed)
    sp = surface_params(p)
    obj = {
        "params": _params_json(p),
        "m": scalar_str(sp.m),
        "s": scalar_str(sp.s),
        "beta": scalar_str(sp.beta),
        "c": scalar_str(c),
        "residual": scalar_str(residual),
    }
    config = {"command": "dilation conjugacy", "samples": samples, "seed": seed,
              **_params_json(p)}
    return _emit(args, obj, config)


def _cmd_dilation_experiment(args) -> int:
    m = _scalar(args, "m")
    if m is None:
        raise ParameterError("dilation experiment needs --m")
    seed = _need(args, "seed")
    workers = _opt(args, "workers", _env_workers())
    n_samples = _opt(args, "n_samples", 200)
    q_max = _opt(args, "qmax", 500)
    cap = _opt(args, "cap", 10**4)
    s_lo, s_hi = _scalar(args, "s_lo", "0"), _scalar(args, "s_hi", "10")
    report = ae_rationality_experiment(
        m, n_samples, q_max=q_max, seed=seed, s_range=(s_lo, s_hi), cap=cap, workers=workers
    )
    config = {"command": "dilation experiment", "m": scalar_str(m),
              "n_samples": n_samples, "qmax": q_max, "seed": seed,
              "s_lo": scalar_str(s_lo), "s_hi": scalar_str(s_hi),
              "cap": cap, "workers": workers}
    return _emit(args, report, config)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", dest="exact_mode", action="store_true",
                   help="require exact rational arithmetic end to end")
    g.add_argument("--float", dest="float_mode", action="store_true",
                   help="force float arithmetic")
    p.add_argument("--exact-decimal", action="store_true",
                   help="parse decimal literals as exact base-10 rationals")
    p.add_argument("--config", help="JSON file supplying any of this command's flags")
    p.add_argument("--out", help="also write the JSON result to this path")


def _add_trapezoid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", help="half-width ratio ell > 0")
    p.add_argument("--tan-alpha", dest="tan_alpha", help="top slope, 0 <= tan-alpha < tan-theta")
    p.add_argument("--tan-theta", dest="tan_theta", help="beam slope, tan-theta > tan-alpha")
    p.add_argument("--d", help="laboratory asymmetry d in (-1, 1)")
    p.add_argument("--tau", help="laboratory period parameter tau > 0")


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILY_NAMES, help="parameter family (default maas-tau)")
    p.add_argument("--ell", help="fixed ell (ell / neg-theta / alpha-theta families)")
    p.add_argument("--tan-alpha", dest="tan_alpha", help="fixed tan-alpha")
    p.add_argument("--tan-theta", dest="tan_theta", help="fixed tan-theta")
    p.add_argument("--d", help="fixed d (maas-tau family)")
    p.add_argument("--kappa", help="angle ratio theta = kappa * alpha (alpha-theta family)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wavetrap",
        description="Internal-wave billiards in trapezoids: exact rotation numbers, "
                    "tongues, traces, and the dilation-surface reduction.",
    )
    top.add_argument("--version", action="version", version=f"wavetrap {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="evaluate the return map")
    map_sub = p_map.add_subparsers(dest="map_command", required=True)
    p_eval = map_sub.add_parser("eval", help="iterate the lift at a point")
    _add_trapezoid_flags(p_eval)
    p_eval.add_argument("--x", help="starting point on the lift")
    p_eval.add_argument("--n", type=int, help="number of iterates (default 1)")
    _add_mode_flags(p_eval)
    p_eval.set_defaults(func=_cmd_map_eval)

    p_rho = sub.add_parser("rho", help="certify the rotation number")
    _add_trapezoid_flags(p_rho)
    p_rho.add_argument("--qmax", type=int, help="denominator search bound (default 2000)")
    _add_mode_flags(p_rho)
    p_rho.set_defaults(func=_cmd_rho)

    p_cls = sub.add_parser("classify", help="periodic structure of the return map")
    _add_trapezoid_flags(p_cls)
    p_cls.add_argument("--qmax", type=int, help="denominator search bound (default 2000)")
    _add_mode_flags(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_tongue = sub.add_parser("tongue", help="mode-locking tongues")
    tongue_sub = p_tongue.add_subparsers(dest="tongue_command", required=True)

    p_tb = tongue_sub.add_parser("boundary", help="certified tongue boundary for p/q")
    p_tb.add_argument("--p", type=int, help="rotation number numerator")
    p_tb.add_argument("--q", type=int, help="rotation number denominator")
    _add_family_flags(p_tb)
    p_tb.add_argument("--bracket", nargs=2, metavar=("LO", "HI"),
                      help="parameter bracket straddling the tongue")
    p_tb.add_argument("--tol", type=float, help="bisection width target (default 1e-12)")
    _add_mode_flags(p_tb)
    p_tb.set_defaults(func=_cmd_tongue_boundary)

    p_ts = tongue_sub.add_parser("scan", help="(d, tau) phase-diagram scan")
    p_ts.add_argument("--d-lo", dest="d_lo", help="left edge (default -9/10)")
    p_ts.add_argument("--d-hi", dest="d_hi", help="right edge (default 9/10)")
    p_ts.add_argument("--tau-lo", dest="tau_lo", help="bottom edge (default 1/2)")
    p_ts.add_argument("--tau-hi", dest="tau_hi", help="top edge (default 8)")
    p_ts.add_argument("--grid", type=int, help="cells per axis (default 200)")
    p_ts.add_argument("--grid-d", dest="grid_d", type=int, help="override d-axis cell count")
    p_ts.add_argument("--grid-tau", dest="grid_tau", type=int, help="override tau-axis cell count")
    p_ts.add_argument("--qmax", type=int, help="denominator search bound (default 50)")
    p_ts.add_argument("--workers", type=int, help="process pool width (default $WAVETRAP_WORKERS)")
    p_ts.add_argument("--csv", help="write the scan records to this CSV")
    p_ts.add_argument("--svg", help="render the phase diagram to this SVG")
    p_ts.add_argument("--overlay", action="append", metavar="P/Q",
                      help="draw closed-form boundary curves (repeatable)")
    _add_mode_flags(p_ts)
    p_ts.set_defaults(func=_cmd_tongue_scan)

    p_st = sub.add_parser("staircase", help="rotation number along a monotone family")
    _add_family_flags(p_st)
    p_st.add_argument("--u-lo", dest="u_lo", help="sweep start")
    p_st.add_argument("--u-hi", dest="u_hi", help="sweep end")
    p_st.add_argument("--samples", type=int, help="grid size (default 200)")
    p_st.add_argument("--qmax", type=int, help="denominator search bound (default 2000)")
    p_st.add_argument("--workers", type=int, help="process pool width (default $WAVETRAP_WORKERS)")
    p_st.add_argument("--csv", help="write the sweep records to this CSV")
    _add_mode_flags(p_st)
    p_st.set_defaults(func=_cmd_staircase)

    p_tr = sub.add_parser("trace", help="trace the beam through the unfolded table")
    _add_trapezoid_flags(p_tr)
    p_tr.add_argument("--table", help="JSON table descriptor instead of trapezoid flags")
    p_tr.add_argument("--x0", help="starting abscissa on the section")
    p_tr.add_argument("--returns", type=int, help="number of section returns (default 10)")
    p_tr.add_argument("--svg", help="render the folded trajectory to this SVG")
    _add_mode_flags(p_tr)
    p_tr.set_defaults(func=_cmd_trace)

    p_dil = sub.add_parser("dilation", help="dilation-surface reduction and checks")
    dil_sub = p_dil.add_subparsers(dest="dilation_command", required=True)

    p_dr = dil_sub.add_parser("reduce", help="drive a direction into the fundamental interval")
    p_dr.add_argument("--m", help="surface modulus in (1/2, 1)")
    p_dr.add_argument("--s", help="direction coordinate")
    p_dr.add_argument("--cap", type=int, help="maximum reduction steps (default 10000)")
    _add_mode_flags(p_dr)
    p_dr.set_defaults(func=_cmd_dilation_reduce)

    p_dc = dil_sub.add_parser("conjugacy", help="verify the trapezoid-to-surface conjugacy")
    _add_trapezoid_flags(p_dc)
    p_dc.add_argument("--samples", type=int, help="sample points (default 64)")
    p_dc.add_argument("--seed", type=int, help="sample-point seed (mandatory)")
    _add_mode_flags(p_dc)
    p_dc.set_defaults(func=_cmd_dilation_conjugacy)

    p_de = dil_sub.add_parser("experiment", help="sample directions and cross-check rationality")
    p_de.add_argument("--m", help="surface modulus in (1/2, 1)")
    p_de.add_argument("--n", "--n-samples", dest="n_samples", type=int,
                      help="directions to draw (default 200)")
    p_de.add_argument("--qmax", type=int, help="denominator search bound (default 500)")
    p_de.add_argument("--seed", type=int, help="direction-sampling seed (mandatory)")
    p_de.add_argument("--s-lo", dest="s_lo", help="range start (default 0)")
    p_de.add_argument("--s-hi", dest="s_hi", help="range end (default 10)")
    p_de.add_argument("--cap", type=int, help="reduction step cap (default 10000)")
    p_de.add_argument("--workers", type=int, help="process pool width (default $WAVETRAP_WORKERS)")
    _add_mode_flags(p_de)
    p_de.set_defaults(func=_cmd_dilation_experiment)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull so that
        # the interpreter's own flush at exit has nothing to complain about
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except WavetrapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
