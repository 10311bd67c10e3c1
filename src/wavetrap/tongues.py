"""Tongue boundaries and two-parameter phase-diagram scans.

A tongue boundary is a parameter u where one of the two break points is
periodic: phi_j(u) = F_u^q(a_j) - a_j - p = 0.  Outside the tongue phi_j
is strictly negative (rho < p/q) or strictly positive (rho > p/q), which
turns any straddling bracket into a sign bracket for bisection, with exact
sign evaluation at dyadic parameters.  Odd q gives two distinct roots, the
lower and upper boundary; even q collapses them to one curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .circle_map import lift_iter, trapezoid_lift
from .errors import BracketInvalid, NotMonotone, ParameterError, UnsupportedPair
from .families import FamilyPoint
from .geometry import maas_params
from .rotation import FLOAT_TOL, Certified, compare_rho, parallel_map, rho_certify
from .scalar import Scalar, exact, is_exact, scalar_str, to_float
from .svg import Canvas, palette_color


def closed_form_oracle(p: int, q: int, d) -> Tuple[float, float]:
    """Boundary slopes in tau for the two tongues with a closed form.

    Only (p, q) = (2, 3) and (1, 4) reduce to quadratics solvable by hand;
    everything else goes through tongue_interval.  Returns (tau_lo, tau_hi),
    equal for the degenerate even case.
    """
    df = to_float(d)
    if (p, q) == (2, 3):
        lo = (df + 5 + math.sqrt(9 * df * df + 10 * df + 17)) / 4
        hi = (df + 2 + math.sqrt(df * df + 8)) / 2
        return lo, hi
    if (p, q) == (1, 4):
        t = df + 3 + 2 * math.sqrt(2 + 2 * df)
        return t, t
    raise UnsupportedPair(f"no closed form for (p, q) = ({p}, {q})")


def _phi(point: FamilyPoint, j: int, p: int, q: int):
    aj = point.params.a0 if j == 0 else point.params.a1
    return lift_iter(point.lift, aj, q) - aj - p


def _sign(v, exact_mode: bool) -> int:
    tol = 0 if exact_mode else FLOAT_TOL
    if -tol <= v <= tol:
        return 0
    return 1 if v > 0 else -1


def _rel(family, u, p: int, q: int) -> int:
    return compare_rho(family.build(u).lift, p, q).rel


def auto_bracket(p: int, q: int, family, window=None, max_depth: int = 9):
    """Find (u_minus, u_plus) with rho < p/q and rho > p/q by dyadic probing.

    Probes the family window on successively refined dyadic grids until both
    strict comparison signs appear.  The pair is checked against the family
    orientation, so a mis-declared family fails loudly instead of silently
    bisecting the wrong arm.
    """
    w_lo, w_hi = window if window is not None else family.probe_window()
    span = w_hi - w_lo
    seen_plus = None
    seen_minus = None
    for depth in range(max_depth + 1):
        npts = 2**depth
        idx = range(1, npts, 2) if depth else (0, 1)
        for i in idx:
            frac = exact(i, npts) if is_exact(span) else i / npts
            u = w_lo + span * frac
            rel = _rel(family, u, p, q)
            if rel > 0 and seen_plus is None:
                seen_plus = u
            elif rel < 0 and seen_minus is None:
                seen_minus = u
            if seen_plus is not None and seen_minus is not None:
                if family.increasing != (seen_minus < seen_plus):
                    raise NotMonotone(
                        f"family {family.label} declares increasing={family.increasing} "
                        f"but rho signs at u={seen_minus} / u={seen_plus} disagree"
                    )
                return seen_minus, seen_plus
    raise BracketInvalid(
        f"no bracket for rho = {p}/{q} in [{w_lo}, {w_hi}] after {max_depth} refinements"
    )


def _bisect_phi(family, j, p, q, u_neg, u_pos, tol, max_iter):
    exact_mode = is_exact(u_neg) and is_exact(u_pos)
    for _ in range(max_iter):
        if abs(u_pos - u_neg) <= tol:
            break
        mid = (u_neg + u_pos) / 2
        s = _sign(_phi(family.build(mid), j, p, q), exact_mode)
        if s == 0:
            return mid
        if s < 0:
            u_neg = mid
        else:
            u_pos = mid
    return (u_neg + u_pos) / 2


def tongue_interval(
    p: int,
    q: int,
    family,
    bracket=None,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> Tuple[Scalar, Scalar]:
    """The closure [u_lo, u_hi] of the rho = p/q plateau along the family.

    The two roots come from the two break points; they coincide (to tol)
    exactly when q is even.  A supplied bracket must have rho strictly on
    opposite sides of p/q at its endpoints; without one the family window
    is probed automatically.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1; got {q}")
    g = math.gcd(p, q)
    p, q = p // g, q // g

    if bracket is None:
        u_minus, u_plus = auto_bracket(p, q, family)
    else:
        u_a, u_b = bracket
        rel_a, rel_b = _rel(family, u_a, p, q), _rel(family, u_b, p, q)
        if rel_a == 0 or rel_b == 0:
            raise BracketInvalid("bracket endpoint lies inside the tongue")
        if rel_a == rel_b:
            raise BracketInvalid(f"rho sits on the same side of {p}/{q} at both endpoints")
        u_minus, u_plus = (u_a, u_b) if rel_a < 0 else (u_b, u_a)
        if family.increasing != (u_minus < u_plus):
            raise NotMonotone(
                f"bracket orientation contradicts increasing={family.increasing} "
                f"for family {family.label}"
            )

    r0 = _bisect_phi(family, 0, p, q, u_minus, u_plus, tol, max_iter)
    r1 = _bisect_phi(family, 1, p, q, u_minus, u_plus, tol, max_iter)
    return (r0, r1) if r0 <= r1 else (r1, r0)


# ---------------------------------------------------------------------------
# (d, tau) scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    d: Scalar
    tau: Scalar
    rho_kind: str  # certified | numeric | enclosure | error
    p: Optional[int]
    q: Optional[int]
    certified: bool
    q_max: int
    detail: str = ""


def _scan_cell(d, tau, q_max: int) -> ScanRecord:
    try:
        params = maas_params(d, tau, require_extra=False)
        r = rho_certify(trapezoid_lift(params), q_max)
    except ParameterError as e:
        return ScanRecord(d, tau, "error", None, None, False, q_max, f"{type(e).__name__}: {e}")
    if isinstance(r, Certified):
        return ScanRecord(d, tau, r.kind, r.p % r.q, r.q, True, q_max)
    return ScanRecord(
        d, tau, r.kind, None, None, False, q_max, f"[{scalar_str(r.lo)},{scalar_str(r.hi)}]"
    )


def _scan_row(args) -> List[ScanRecord]:
    d, taus, q_max = args
    return [_scan_cell(d, tau, q_max) for tau in taus]


def scan(
    d_range,
    tau_range,
    grid,
    q_max: int = 50,
    workers: Optional[int] = None,
) -> List[ScanRecord]:
    """Certify rho on a regular grid of (d, tau) cells, row-major in d.

    Cell centres are used along d and right edges along tau, so the sweep
    covers (d_lo, d_hi) x (tau_lo, tau_hi] without touching the open ends.
    Invalid cells (tau <= 1 - d) become error records rather than failures.
    """
    nd, nt = (grid, grid) if isinstance(grid, int) else grid
    if nd < 1 or nt < 1:
        raise ParameterError(f"grid must be >= 1 in both directions; got {grid}")
    d_lo, d_hi = d_range
    t_lo, t_hi = tau_range
    if not (-1 <= d_lo < d_hi <= 1) or not (0 <= t_lo < t_hi):
        raise ParameterError(f"ranges out of order: d in [{d_lo},{d_hi}], tau in [{t_lo},{t_hi}]")

    d_span, t_span = d_hi - d_lo, t_hi - t_lo
    if is_exact(d_span):
        ds = [d_lo + d_span * exact(2 * i + 1, 2 * nd) for i in range(nd)]
    else:
        ds = [d_lo + d_span * ((2 * i + 1) / (2 * nd)) for i in range(nd)]
    if is_exact(t_span):
        taus = [t_lo + t_span * exact(j + 1, nt) for j in range(nt)]
    else:
        taus = [t_lo + t_span * ((j + 1) / nt) for j in range(nt)]

    # one d-row per task balances the pool against the per-cell cost spread
    chunks = parallel_map(_scan_row, [(d, taus, q_max) for d in ds], workers)
    return [rec for chunk in chunks for rec in chunk]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

ENCLOSURE_FILL = "#d4d4d4"
ERROR_FILL = "#f7f7f7"


def render_phase_diagram(
    records: Sequence[ScanRecord],
    overlays: Sequence[Tuple[str, Sequence[Tuple[float, float]]]] = (),
) -> str:
    """Raster of certified (p, q) labels over the scan grid, plus overlays.

    Each distinct certified label gets a palette colour keyed by (q, p)
    order, enclosures go grey, invalid cells near-white.  Overlays are
    (label, [(d, tau), ...]) polylines drawn on top in black.
    """
    if not records:
        raise ParameterError("no records to render")
    ds = sorted({to_float(r.d) for r in records})
    taus = sorted({to_float(r.tau) for r in records})
    nd, nt = len(ds), len(taus)
    dix = {v: i for i, v in enumerate(ds)}
    tix = {v: j for j, v in enumerate(taus)}

    labels = sorted({(r.q, r.p) for r in records if r.certified})
    color = {lab: palette_color(i) for i, lab in enumerate(labels)}

    cell = max(2.0, min(24.0, 640.0 / max(nd, nt)))
    ml, mt, mr, mb = 64.0, 18.0, 180.0, 46.0
    W, H = ml + nd * cell + mr, mt + nt * cell + mb
    cv = Canvas(W, H)
    cv.comment(f"phase diagram: {nd}x{nt} cells, {len(labels)} certified labels")
    cv.rect(0, 0, W, H, fill="#ffffff")

    for r in records:
        i = dix[to_float(r.d)]
        j = tix[to_float(r.tau)]
        if r.certified:
            fill = color[(r.q, r.p)]
        elif r.rho_kind == "enclosure":
            fill = ENCLOSURE_FILL
        else:
            fill = ERROR_FILL
        cv.rect(ml + i * cell, mt + (nt - 1 - j) * cell, cell, cell, fill=fill)

    # data -> pixel maps from the cell centres
    def px(d: float) -> float:
        if nd == 1:
            return ml + cell / 2
        return ml + (d - ds[0]) / (ds[-1] - ds[0]) * (nd - 1) * cell + cell / 2

    def py(t: float) -> float:
        if nt == 1:
            return mt + cell / 2
        return mt + (taus[-1] - t) / (taus[-1] - taus[0]) * (nt - 1) * cell + cell / 2

    for label, pts in overlays:
        path = [(px(to_float(d)), py(to_float(t))) for d, t in pts]
        cv.polyline(path, stroke="#111111", width=1.4)
        if path:
            cv.text(path[-1][0] + 3, path[-1][1] - 3, label, size=10)

    # frame and axis annotations
    cv.rect(ml, mt, nd * cell, nt * cell, fill="none", stroke="#333333", width=1.0)
    cv.text(ml, mt + nt * cell + 16, f"d={ds[0]:.3g}", size=11)
    cv.text(ml + nd * cell, mt + nt * cell + 16, f"d={ds[-1]:.3g}", size=11, anchor="end")
    cv.text(ml - 6, mt + nt * cell, f"{taus[0]:.3g}", size=11, anchor="end")
    cv.text(ml - 6, mt + 10, f"tau={taus[-1]:.3g}", size=11, anchor="end")

    lx = ml + nd * cell + 16
    ly = mt + 6
    cv.text(lx, ly, "rho = p/q", size=12)
    for idx, lab in enumerate(labels):
        y = ly + 16 + idx * 15
        if y > H - mb:
            cv.text(lx, y, f"... {len(labels) - idx} more", size=10)
            break
        cv.rect(lx, y - 9, 10, 10, fill=color[lab])
        cv.text(lx + 15, y, f"{lab[1]}/{lab[0]}", size=11)
    y_extra = ly + 16 + min(len(labels), int((H - mb - ly) / 15)) * 15
    cv.rect(lx, y_extra - 9, 10, 10, fill=ENCLOSURE_FILL)
    cv.text(lx + 15, y_extra, "uncertified", size=11)

    return cv.tostring()
