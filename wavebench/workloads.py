"""The four benchmark workloads: inputs from a seed, one round of work, checks.

Every workload repeats identical rounds, so the share of failed operations
and the `resolved` count per round are fixed by the seed alone.  Checks run
outside the timed region against the independent reference in reference.py;
none compares with stored output.  Library calls go through module
attributes (rotation.rho_certify, not a bound name) so the traced run's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import List

from wavetrap import circle_map, cli, dilation, families, geometry, reports, rotation, tongues

import reference as ref

def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Round:
    """Outcome of one round: per-item latencies and outputs for the checks.

    item_ms stays empty for scan, whose cells are not observable one by one.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.resolved = 0
        self.item_ms: List[float] = []
        self.wall_s = 0.0
        self.outputs: List[dict] = []
        self.errors: List[str] = []  # messages of failed operations

    def signature(self):
        """What must repeat exactly from round to round."""
        return [o.get("sig") for o in self.outputs], self.failed, self.resolved


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1e3


def _s(x) -> str:
    return str(ref.frac(x))


# ---------------------------------------------------------------------------
# scan: one tongues.scan call over a strided window of the acceptance grid
# ---------------------------------------------------------------------------

ACCEPT_N = 200
SCAN_GRID = 20
D_LO, D_SPAN = Fraction(-9, 10), Fraction(9, 5)
T_LO, T_SPAN = Fraction(1, 2), Fraction(15, 2)
SCAN_QMAX = 50


class Scan:
    """Every tenth cell of the 200 x 200 acceptance grid in both directions, q_max = 50.

    The 20 x 20 sub-grid spans the whole acceptance window; because scan
    uses cell centres in d and right edges in tau, it is itself one scan
    call over shifted ranges.  The seed moves both ranges up by amounts
    below 2^-20, which changes every exact input but keeps each cell on its
    side of the tongue edges; a seeded choice of sub-grid phase instead made
    the certified count differ by up to a tenth between seeds.
    """

    name = "scan"

    def __init__(self, seed: int, out_dir: str):
        rng = random.Random(seed)
        stride = ACCEPT_N // SCAN_GRID
        phase = stride // 2
        d_lo = D_LO + D_SPAN * Fraction(2 * phase + 1 - stride, 2 * ACCEPT_N)
        t_lo = T_LO + T_SPAN * Fraction(phase + 1 - stride, ACCEPT_N)
        d_lo += Fraction(rng.randrange(1, 16), 2**24)
        t_lo += Fraction(rng.randrange(1, 16), 2**24)
        self.d_range = (d_lo, d_lo + D_SPAN)
        self.t_range = (t_lo, t_lo + T_SPAN)
        self.workers = nproc()
        self.csv_path = os.path.join(out_dir, "scan.csv")
        self.svg_path = os.path.join(out_dir, "scan.svg")
        self.seed = seed

    def config(self) -> dict:
        (d_lo, d_hi), (t_lo, t_hi) = self.d_range, self.t_range
        return {
            "command": "tongue scan", "d_lo": _s(d_lo), "d_hi": _s(d_hi),
            "tau_lo": _s(t_lo), "tau_hi": _s(t_hi), "grid_d": SCAN_GRID,
            "grid_tau": SCAN_GRID, "qmax": SCAN_QMAX, "workers": self.workers,
        }

    def run_round(self) -> Round:
        r = Round()
        t0 = time.perf_counter()
        try:
            records = tongues.scan(self.d_range, self.t_range, SCAN_GRID, q_max=SCAN_QMAX,
                                   workers=self.workers)
            reports.write_scan_csv(records, self.csv_path, self.config())
            with open(self.svg_path, "w", encoding="utf-8") as fh:
                fh.write(tongues.render_phase_diagram(records))
        except Exception as e:  # the whole scan is lost: every cell failed
            records = []
            r.failed = SCAN_GRID**2
            r.errors.append(f"scan raised {type(e).__name__}: {e}")
        r.wall_s = time.perf_counter() - t0
        r.attempted = SCAN_GRID**2
        for rec in records:
            r.resolved += rec.certified
            if rec.rho_kind == "error" and not _scan_invalid(rec):
                r.failed += 1
                r.errors.append(f"cell ({rec.d}, {rec.tau}): {rec.detail}")
        r.outputs = [{"rec": rec, "sig": (rec.rho_kind, rec.p, rec.q)} for rec in records]
        return r

    def check(self, r: Round) -> List[str]:
        errs = [f"failed: {e}" for e in r.errors]
        records = [o["rec"] for o in r.outputs]
        if not records:
            return errs
        if len(records) != SCAN_GRID**2:
            errs.append(f"scan returned {len(records)} cells, want {SCAN_GRID**2}")
        with open(self.csv_path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        if len(rows) != len(records) + 1:
            errs.append(f"CSV has {len(rows) - 1} data rows for {len(records)} cells")
        try:
            ET.parse(self.svg_path)
        except ET.ParseError as e:
            errs.append(f"SVG does not parse: {e}")

        rng = random.Random(self.seed)
        cert, encl = [], []
        for rec in records:
            invalid = _scan_invalid(rec)
            if invalid and rec.rho_kind != "error":
                errs.append(f"cell ({rec.d}, {rec.tau}): kind {rec.rho_kind} on an invalid cell")
            elif rec.certified:
                cert.append(rec)
            elif rec.rho_kind == "enclosure":
                encl.append(rec)

        # certificates: re-certify a sample to get p and the witness
        for rec in rng.sample(cert, min(8, len(cert))):
            L = circle_map.trapezoid_lift(geometry.maas_params(rec.d, rec.tau, require_extra=False))
            c = rotation.rho_certify(L, SCAN_QMAX)
            F = ref.trapezoid_lift(*ref.maas_triple(rec.d, rec.tau))
            if not isinstance(c, rotation.Certified) or (c.p % c.q, c.q) != (rec.p, rec.q):
                errs.append(f"cell ({rec.d}, {rec.tau}): re-certification disagrees")
            elif not ref.witness_holds(F, c.p, c.q, c.witness):
                errs.append(f"cell ({rec.d}, {rec.tau}): witness fails F^{c.q} = x + {c.p}")
        for rec in rng.sample(encl, min(8, len(encl))):
            lo, hi = rec.detail.strip("[]").split(",")
            F = ref.trapezoid_lift(*ref.maas_triple(rec.d, rec.tau))
            if not ref.enclosure_holds(F, lo, hi, SCAN_QMAX, 256):
                errs.append(f"cell ({rec.d}, {rec.tau}): enclosure [{lo}, {hi}] fails")

        # rho = 2/3 cells lie between the closed-form (2,3) curves; the record
        # keeps p mod q, so a short Birkhoff bracket separates 2/3 from 5/3
        for rec in cert:
            if (rec.p, rec.q) != (2, 3):
                continue
            F = ref.trapezoid_lift(*ref.maas_triple(rec.d, rec.tau))
            b_lo, b_hi = ref.birkhoff_interval(F, 16)
            if not b_lo <= Fraction(2, 3) <= b_hi:
                continue
            lo, hi = ref.tongue_23(float(rec.d))
            if not lo - 1e-9 <= float(rec.tau) <= hi + 1e-9:
                errs.append(f"2/3 cell ({rec.d}, {rec.tau}) outside the closed-form tongue")
        return errs


def _scan_invalid(rec) -> bool:
    """No trapezoid: tau <= 1 - d, where scan must return an error record."""
    return ref.frac(rec.tau) <= 1 - ref.frac(rec.d)


# ---------------------------------------------------------------------------
# sweep: the maas-tau staircase at d = 0 plus tongue intervals
# ---------------------------------------------------------------------------

SWEEP_QMAX = 200
U_LO, U_SPAN = Fraction(3, 2), Fraction(5)


class Sweep:
    """Staircase samples at q_max = 200, then (2,3) and (1,4) tongue intervals.

    The samples sit on an even grid over [3/2, 13/2], each moved up by a
    seeded amount below 2^-20.  That changes every exact input, and so the
    arithmetic, but moves no sample across a plateau edge of width above
    2^-20: a wider seeded spread trades certified samples for enclosures,
    which cost ten times more, and made items_per_s spread by more than a
    quarter between seeds.  The tongue intervals are taken at seeded d on a 1/32 grid.
    """

    name = "sweep"

    def __init__(self, seed: int, out_dir: str, samples: int = 40):
        rng = random.Random(seed)
        self.us = [U_LO + U_SPAN * Fraction(k, samples - 1) + Fraction(rng.randrange(1, 16), 2**24)
                   for k in range(samples)]
        self.tongues = [(2, 3, Fraction(rng.randrange(-28, 29), 32)),
                        (1, 4, Fraction(rng.randrange(-28, 29), 32))]

    def run_round(self) -> Round:
        r = Round()
        t_round = time.perf_counter()
        fam = families.family_from_name("maas-tau", d=Fraction(0))
        for u in self.us:
            try:
                res, ms = _timed(lambda: rotation.rho_certify(fam.build(u).lift, SWEEP_QMAX))
            except Exception as e:
                self._fail(r, "sample", f"u={u}", e)
                continue
            r.item_ms.append(ms)
            certified = isinstance(res, rotation.Certified)
            r.resolved += certified
            r.outputs.append({"kind": "sample", "u": u, "res": res,
                              "sig": (res.p, res.q) if certified else (res.lo, res.hi)})
        for p, q, d in self.tongues:
            fam_d = families.family_from_name("maas-tau", d=d)
            try:
                (lo, hi), ms = _timed(lambda: tongues.tongue_interval(p, q, fam_d))
            except Exception as e:
                self._fail(r, "tongue", f"({p},{q}) at d={d}", e)
                continue
            r.item_ms.append(ms)
            r.resolved += 1
            r.outputs.append({"kind": "tongue", "p": p, "q": q, "d": d, "lo": lo, "hi": hi,
                              "sig": (p, q, str(lo), str(hi))})
        r.wall_s = time.perf_counter() - t_round
        r.attempted = len(r.outputs)
        return r

    @staticmethod
    def _fail(r: Round, kind: str, tag: str, e: Exception) -> None:
        r.failed += 1
        r.errors.append(f"{kind} {tag}: {type(e).__name__}: {e}")
        r.outputs.append({"kind": "failed", "sig": ("failed", kind, tag)})

    def check(self, r: Round) -> List[str]:
        errs = [f"failed: {e}" for e in r.errors]
        samples = sorted((o for o in r.outputs if o["kind"] == "sample"), key=lambda o: o["u"])
        # rho falls as tau grows: a later interval may not lie wholly above an
        # earlier one
        min_hi = None
        for o in samples:
            lo, hi = (ref.frac(v) for v in o["res"].interval())
            if min_hi is not None and lo > min_hi:
                errs.append(f"staircase not monotone at u={o['u']}")
            min_hi = hi if min_hi is None else min(min_hi, hi)
        # plateaus: runs of equal certified values; wide ones have odd q
        run = []
        for o in samples + [None]:
            val = None
            if o is not None and isinstance(o["res"], rotation.Certified):
                val = Fraction(o["res"].p, o["res"].q)
            if run and (val is None or val != run[0][0]):
                width = run[-1][1] - run[0][1]
                if width > Fraction(1, 1000) and run[0][0].denominator % 2 == 0:
                    errs.append(f"plateau {run[0][0]} of width {float(width):.3g} has even q")
                run = []
            if val is not None:
                run.append((val, o["u"]))
        for o in samples:
            F = ref.trapezoid_lift(*ref.maas_triple(0, o["u"]))
            res = o["res"]
            if isinstance(res, rotation.Certified):
                if not ref.witness_holds(F, res.p, res.q, res.witness):
                    errs.append(f"sample u={o['u']}: witness fails for {res.p}/{res.q}")
            elif not ref.enclosure_holds(F, res.lo, res.hi, SWEEP_QMAX, 256):
                errs.append(f"sample u={o['u']}: enclosure fails")
        for o in r.outputs:
            if o["kind"] == "tongue":
                errs += check_tongue(o["p"], o["q"], float(o["d"]), float(o["lo"]), float(o["hi"]))
        return errs


def check_tongue(p: int, q: int, d: float, lo: float, hi: float) -> List[str]:
    if (p, q) == (2, 3):
        c_lo, c_hi = ref.tongue_23(d)
        if abs(lo - c_lo) > 1e-9 or abs(hi - c_hi) > 1e-9:
            return [f"(2,3) tongue at d={d}: [{lo}, {hi}] vs closed form [{c_lo}, {c_hi}]"]
    elif (p, q) == (1, 4):
        if not hi - lo < 1e-8 or abs(lo - ref.tongue_14(d)) > 1e-9:
            return [f"(1,4) tongue at d={d}: [{lo}, {hi}] vs closed form {ref.tongue_14(d)}"]
    return []


# ---------------------------------------------------------------------------
# ladder: reduction, then the closed-leaf ladder at q_max 200, 800, 3200
# ---------------------------------------------------------------------------

LADDER_RUNGS = (200, 800, 3200)
LADDER_M = (Fraction(5, 8), Fraction(2, 3), Fraction(3, 4))
# The first LADDER_N directions that ae_rationality_experiment draws with
# seed 1 over s in (0, 10), at each m: consecutive draws, so the weight on
# the costly rungs is the stream's own, not a choice.  Index 22 at m = 5/8
# is s = 5325585/1048576, on which reduce_direction raises TypeError when
# the orbit revisits INFINITY; it is counted as failed until that fault is
# mended.
LADDER_N = 24
LADDER_BASE = tuple((m, i) for m in LADDER_M for i in range(LADDER_N))
KEPT_FAILING = (Fraction(5, 8), Fraction(5325585, 1048576))


def experiment_directions(n: int) -> List[Fraction]:
    """The first n directions ae_rationality_experiment(seed=1) samples over (0, 10)."""
    rng = random.Random(1)
    return [Fraction(2 * rng.randrange(0, 10 * 2**19) + 1, 2**20) for _ in range(n)]


class Ladder:
    """Each direction s is replaced by s mod 1 + k for a seeded k in [0, 10).

    A = [[1,1],[0,1]] lies in the Veech group: g for s + k is g for s moved up
    by k, so rho moves by exactly k, the direction resolves on the same rung
    and the reduction word differs only in its first A-power.  The seed thus
    varies the exact inputs without changing the mix of rungs.
    """

    name = "ladder"

    def __init__(self, seed: int, out_dir: str, base=LADDER_BASE):
        rng = random.Random(seed)
        stream = experiment_directions(max(i for _, i in base) + 1)
        self.dirs = [(m, stream[i] % 1 + rng.randrange(10)) for m, i in base]

    def run_round(self) -> Round:
        r = Round()
        t_round = time.perf_counter()
        for m, s in self.dirs:
            t0 = time.perf_counter()
            try:
                out = self._one(m, s)
            except Exception as e:  # the kept reduce_direction fault, or a new one
                r.failed += 1
                r.errors.append(f"m={m} s={s}: {type(e).__name__}: {e}")
                r.outputs.append({"m": m, "s": s, "failed": True, "sig": ("failed", str(s))})
                continue
            r.item_ms.append((time.perf_counter() - t0) * 1e3)
            r.resolved += out["leaf"]["periodic"] is True
            out["sig"] = (str(s), out["rung"], out["leaf"].get("p"), out["leaf"].get("q"))
            r.outputs.append(out)
        r.wall_s = time.perf_counter() - t_round
        r.attempted = len(self.dirs)
        return r

    @staticmethod
    def _one(m, s) -> dict:
        red = dilation.reduce_direction(m, s)
        leaf_red = None
        if red.status == "reduced":
            leaf_red = dilation.closed_leaf_exists(m, red.s_out, LADDER_RUNGS[0])
        for q_max in LADDER_RUNGS:
            leaf = dilation.closed_leaf_exists(m, s, q_max)
            if leaf["periodic"]:
                break
        return {"m": m, "s": s, "failed": False, "red": red, "leaf_red": leaf_red,
                "leaf": leaf, "rung": q_max}

    def check(self, r: Round) -> List[str]:
        errs = []
        for o in r.outputs:
            m, s = o["m"], o["s"]
            if o["failed"]:
                if (m, s % 1) != (KEPT_FAILING[0], KEPT_FAILING[1] % 1):
                    errs.append(f"unexpected failure at m={m} s={s}")
                continue
            red = o["red"]
            tag = f"m={m} s={s}"
            if red.status == "reduced":
                j_lo, j_hi = ref.fundamental_interval(m)
                s_out = ref.frac(red.s_out)
                if not j_lo <= s_out <= j_hi:
                    errs.append(f"{tag}: s_out={s_out} outside J=[{j_lo}, {j_hi}]")
                if ref.apply_word(m, red.word, s) != s_out:
                    errs.append(f"{tag}: word does not send s_in to s_out")
                M = [ref.frac(v) for v in (red.matrix.a, red.matrix.b, red.matrix.c, red.matrix.d)]
                if ref.mobius_apply(*M, ref.frac(s)) != s_out:
                    errs.append(f"{tag}: matrix does not send s_in to s_out")
                lr = o["leaf_red"]
                if lr["periodic"] and not ref.has_rotation_number(
                        ref.surface_lift(m, s_out), lr["p"], lr["q"]):
                    errs.append(f"{tag}: reduced direction is not {lr['p']}/{lr['q']}-periodic")
            leaf = o["leaf"]
            G = ref.surface_lift(m, s)
            if leaf["periodic"]:
                if not ref.has_rotation_number(G, leaf["p"], leaf["q"]):
                    errs.append(f"{tag}: no {leaf['p']}/{leaf['q']}-periodic point")
            elif not ref.enclosure_holds(G, leaf["lo"], leaf["hi"], leaf["q_max"], 256):
                errs.append(f"{tag}: enclosure at q_max={leaf['q_max']} fails")
        return errs


# ---------------------------------------------------------------------------
# queries: single-table requests through wavetrap.cli.main, in process
# ---------------------------------------------------------------------------

QUERY_QMAX = 2000
# Laboratory points (d, tau) whose rotation number is p/q with the given q,
# or not a fraction with q <= 2000 (None); a property of the table, not of
# the code, so every correct version returns the same kind of answer.
LOCK_187 = (Fraction(-13, 32), Fraction(19, 4))
LOCK_149 = (Fraction(21, 64), Fraction(243, 64))
LOCK_61 = (Fraction(-55, 64), Fraction(233, 32))
LOCK_EVEN_4 = (Fraction(-1, 2), Fraction(9, 2))
FREE_A = (Fraction(51, 64), Fraction(241, 64))
FREE_B = (Fraction(-23, 64), Fraction(283, 64))
POLY_TABLE = {"type": "poly", "coeffs": [2, 0, -1]}
POLY_TAN_THETA = Fraction(15, 8)


def raised(point, k: int):
    """Trapezoid (ell + k t/2, tan_alpha, t) for the laboratory point.

    Raising the walls by k t/2 shifts both breaks by -k/2 and adds k to the
    return map, so rho moves by exactly k and locking is unchanged.
    """
    ell, ta, tt = ref.maas_triple(*point)
    return ell + k * tt / 2, ta, tt


def _table_flags(triple) -> List[str]:
    ell, ta, tt = triple
    return [f"--ell={ell}", f"--tan-alpha={ta}", f"--tan-theta={tt}"]


class Queries:
    """A fixed mix of requests whose tables, points and d are drawn from the seed."""

    name = "queries"

    def __init__(self, seed: int, out_dir: str, q_max: int = QUERY_QMAX):
        rng = random.Random(seed)
        shift = lambda: rng.randrange(8)
        grid_d = lambda: Fraction(rng.randrange(-28, 29), 32)
        self.q_max = q_max
        qm = ["--qmax", str(q_max), "--exact"]

        d23 = grid_d()
        lo, hi = ref.tongue_23(float(d23))
        lock3 = ref.maas_triple(d23, Fraction(round((lo + hi) / 2 * 2**20), 2**20))
        self.requests = [("rho", lock3, ["rho", *_table_flags(lock3), *qm])]
        for kind, point in (("rho", LOCK_187), ("rho", LOCK_61), ("rho", FREE_A),
                            ("classify", LOCK_149), ("classify", LOCK_EVEN_4),
                            ("classify", FREE_B)):
            table = raised(point, shift())
            self.requests.append((kind, table, [kind, *_table_flags(table), *qm]))

        # the tracer walks at most a few periods to the first hit, so the
        # traced table keeps its own height (see CHANGES.md)
        tent, x0 = raised(LOCK_61, 0), Fraction(rng.randrange(-512, 512), 1024)
        poly_path = os.path.join(out_dir, "poly_table.json")
        with open(poly_path, "w", encoding="utf-8") as fh:
            json.dump(POLY_TABLE, fh)
        x_poly = round(rng.uniform(-0.45, 0.45), 6)
        b23, b14 = (2, 3, grid_d()), (1, 4, grid_d())
        orbit_table = raised(LOCK_187, shift())
        x_map = Fraction(rng.randrange(-2**16, 2**16), 2**17)
        self.requests += [
            ("trace", (tent, x0),
             ["trace", *_table_flags(tent), f"--x0={x0}", "--returns", "24",
              "--svg", os.path.join(out_dir, "trace_pl.svg"), "--exact"]),
            ("trace_poly", x_poly,
             ["trace", "--table", poly_path, f"--tan-theta={POLY_TAN_THETA}", f"--x0={x_poly}",
              "--returns", "16", "--svg", os.path.join(out_dir, "trace_poly.svg")]),
        ]
        for p, q, d in (b23, b14):
            self.requests.append(("tongue_boundary", (p, q, d),
                                  ["tongue", "boundary", "--p", str(p), "--q", str(q), f"--d={d}"]))
        self.requests.append(("map_eval", (orbit_table, x_map),
                              ["map", "eval", *_table_flags(orbit_table), f"--x={x_map}",
                               "--n", "64", "--exact"]))

    def run_round(self) -> Round:
        r = Round()
        t_round = time.perf_counter()
        for kind, arg, argv in self.requests:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as e:
                code = f"raised {type(e).__name__}: {e}"
            r.item_ms.append((time.perf_counter() - t0) * 1e3)
            text = out.getvalue()
            if code != 0:
                r.failed += 1
                r.errors.append(f"{kind}: exit {code}: {err.getvalue().strip()[-300:]}")
            elif kind in ("rho", "classify"):
                try:
                    doc = json.loads(text)["result"]
                    rho = doc["rho"] if kind == "rho" else doc["classification"]["rho"]
                    r.resolved += rho["kind"] == "certified"
                except (ValueError, KeyError, TypeError) as e:
                    r.failed += 1
                    r.errors.append(f"{kind}: unreadable result ({type(e).__name__}: {e})")
            elif kind == "tongue_boundary":
                r.resolved += 1
            r.outputs.append({"kind": kind, "arg": arg, "code": code, "text": text,
                              "sig": (code, text)})
        r.wall_s = time.perf_counter() - t_round
        r.attempted = len(self.requests)
        return r

    def check(self, r: Round) -> List[str]:
        errs = []
        for o in r.outputs:
            kind, arg = o["kind"], o["arg"]
            if o["code"] != 0:
                errs.append(f"{kind}: exit code {o['code']}")
                continue
            try:
                doc = json.loads(o["text"])["result"]
            except (ValueError, KeyError) as e:
                errs.append(f"{kind}: output is not a result document ({e})")
                continue
            errs += [f"{kind}: {e}" for e in CHECKS[kind](self, arg, doc)]
        return errs

    def _check_rho(self, triple, doc):
        F = ref.trapezoid_lift(*triple)
        return _check_rho_doc(F, doc["rho"], self.q_max)

    def _check_classify(self, triple, doc):
        F = ref.trapezoid_lift(*triple)
        cls = doc["classification"]
        errs = _check_rho_doc(F, dict(cls["rho"], witness=None), self.q_max)
        rho = cls["rho"]
        if rho["kind"] != "certified":
            return errs + ([] if cls["case"] == "minimal_uncertified" else ["case without rho"])
        p, q = rho["p"], rho["q"]
        # parity dichotomy: odd q locks with an attractor/repellor pair, even q
        # makes F^q the translation by p
        if q % 2:
            if cls["case"] != "attractor_repellor":
                errs.append(f"odd q={q} but case {cls['case']}")
        else:
            if cls["case"] not in ("all_periodic", "periodic_beam"):
                errs.append(f"even q={q} but case {cls['case']}")
            pts = [F.b0, F.b1, (F.b0 + F.b1) / 2]
            if any(F.iterate(x, q) != x + p for x in pts):
                errs.append(f"even q={q} but F^q is not x + {p}")
        for atom in cls.get("fixed_atoms", []):
            xs = [atom["x"]] if atom["kind"] == "point" else [atom.get("lo"), atom.get("hi")]
            for x in xs:
                if x is not None and F.iterate(ref.frac(x), q) != ref.frac(x) + p:
                    errs.append(f"fixed atom {x} is not {p}/{q}-periodic")
        return errs

    def _check_trace(self, arg, doc):
        triple, x0 = arg
        F = ref.trapezoid_lift(*triple)
        want = [float(ref.fold(x)) for x in F.orbit(x0, len(doc["returns"]) - 1)]
        return [] if doc["returns"] == want else ["PL trace differs from the reference lift"]

    def _check_trace_poly(self, x0, doc):
        # one return at a time from the traced point: the map expands, so
        # comparing whole float orbits would compare rounding noise
        rets = doc["returns"]
        gap = 0.0
        for a, b in zip(rets, rets[1:]):
            want = _poly_return(POLY_TABLE["coeffs"], float(POLY_TAN_THETA), a)
            gap = max(gap, abs((want - b + 0.5) % 1.0 - 0.5))
        return [] if gap <= 1e-9 else [f"smooth trace is {gap:.2e} from the reference"]

    def _check_tongue(self, arg, doc):
        p, q, d = arg
        return check_tongue(p, q, float(d), float(ref.frac(doc["lo"])), float(ref.frac(doc["hi"])))

    def _check_map(self, arg, doc):
        triple, x = arg
        F = ref.trapezoid_lift(*triple)
        want = F.orbit(x, len(doc["orbit"]))[1:]
        got = [ref.frac(v) for v in doc["orbit"]]
        return [] if got == want and len(got) == 64 else ["map eval orbit differs"]


CHECKS = {
    "rho": Queries._check_rho,
    "classify": Queries._check_classify,
    "trace": Queries._check_trace,
    "trace_poly": Queries._check_trace_poly,
    "tongue_boundary": Queries._check_tongue,
    "map_eval": Queries._check_map,
}


def _check_rho_doc(F, rho: dict, q_max: int) -> List[str]:
    if rho["kind"] == "certified":
        p, q = rho["p"], rho["q"]
        w = rho.get("witness")
        ok = ref.witness_holds(F, p, q, w) if w else ref.has_rotation_number(F, p, q)
        return [] if ok else [f"certificate {p}/{q} does not hold"]
    if rho["kind"] == "enclosure":
        ok = ref.enclosure_holds(F, rho["lo"], rho["hi"], q_max, 256)
        return [] if ok else [f"enclosure [{rho['lo']}, {rho['hi']}] fails"]
    return [f"unexpected rho kind {rho['kind']}"]


def _poly_return(coeffs, t: float, x: float) -> float:
    """Folded first return of x for b(x) = sum c_i x^i, by plain bisection in floats."""

    def b(v):
        u = v - math.floor(v + 0.5)
        return sum(c * u**i for i, c in enumerate(coeffs))

    grid = [b(i / 1000 - 0.5) for i in range(1001)]
    # t (xc - x) = b(xc) has its one root between these, t being steeper than b
    lo, hi = x + (min(grid) - 1e-6) / t, x + (max(grid) + 1e-6) / t
    for _ in range(200):
        mid = (lo + hi) / 2
        if t * (mid - x) - b(mid) < 0:
            lo = mid
        else:
            hi = mid
    y = lo + b(lo) / t
    return y - math.floor(y + 0.5)


WORKLOADS = {w.name: w for w in (Scan, Sweep, Ladder, Queries)}
