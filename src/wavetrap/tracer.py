"""Linear flow on the unfolded table and its first-return map.

Gluing the two vertical sides turns the unfolded table into a cylinder, so a
trajectory is a genuine straight line over the periodically extended profile
b~ (period 1 in x).  First hit of the upper boundary solves
tan_theta * (x - x0) = b~(x), which has exactly one root when the trajectory
is steeper than every boundary slope; the top-bottom identification then maps
(x_c, b~) to (x_c, -b~) and the climb back to the section is another straight
segment.  The lift of the return map is therefore

    F(x) = x_c(x) + b~(x_c(x)) / tan_theta,

with side wraps appearing as the integer parts.  For piecewise-linear
profiles everything here is exact in exact mode; smooth profiles use
bisection plus a Newton polish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .circle_map import PLLift, make_lift
from .errors import NonTransversal, Tangency, WavetrapError
from .geometry import GeneralTable, PLProfile, PolyProfile
from .scalar import exact, floor_int, is_exact, to_float

SMOOTH_TOL = 1e-13


def _strip(x) -> int:
    """The integer k with x in the strip [k - 1/2, k + 1/2)."""
    return floor_int(x + (0.5 if isinstance(x, float) else exact(1, 2)))


def _fold(x):
    """Reduce x to the fundamental strip [-1/2, 1/2)."""
    return x - _strip(x)


def profile_value(table: GeneralTable, x):
    """b~(x): the boundary profile extended 1-periodically."""
    return table.profile.value(_fold_profile(table, x))


def _fold_profile(table: GeneralTable, x):
    u = _fold(x)
    if isinstance(table.profile, PolyProfile):
        return to_float(u)
    return u


def profile_slope(table: GeneralTable, x, side: str = "right"):
    """One-sided slope of b~ at x (side matters only at kinks)."""
    p = table.profile
    u = _fold_profile(table, x)
    if isinstance(p, PolyProfile):
        return p.deriv(u)
    xs = p.xs
    slopes = p.segment_slopes()
    # u in [xs[0], xs[-1]] = [-1/2, 1/2]; segment i covers [xs[i], xs[i+1]]
    for i in range(len(xs) - 1):
        if u < xs[i + 1]:
            if u == xs[i] and side == "left":
                return slopes[i - 1] if i > 0 else slopes[-1]
            return slopes[i]
    # u == 1/2 exactly: right side wraps to the first segment
    return slopes[0] if side == "right" else slopes[-1]


def _check_transversal(table: GeneralTable, tan_theta):
    if tan_theta <= table.tan_alpha_max:
        raise NonTransversal(
            f"tan_theta={tan_theta} must exceed the steepest boundary slope "
            f"{table.tan_alpha_max}"
        )
    if not is_exact(tan_theta):
        if to_float(tan_theta) - to_float(table.tan_alpha_max) < 1e-9:
            raise Tangency(f"tan_theta={tan_theta} within 1e-9 of a boundary slope")


def first_hit_upper(table: GeneralTable, x, tan_theta):
    """Abscissa (in strip coordinates, >= x) of the first upper-boundary hit."""
    _check_transversal(table, tan_theta)
    if isinstance(table.profile, PLProfile):
        return _first_hit_pl(table, x, tan_theta)
    return _first_hit_smooth(table, to_float(x), to_float(tan_theta))


def _first_hit_pl(table: GeneralTable, x, tan_theta):
    p: PLProfile = table.profile
    xs = p.xs
    slopes = p.segment_slopes()
    nseg = len(slopes)
    # locate the segment of b~ containing x, then walk right
    shift = floor_int(x - xs[0])  # b~ repeats with period xs[-1] - xs[0] = 1
    seg = 0
    while seg < nseg - 1 and x > xs[seg + 1] + shift:
        seg += 1
    # by this abscissa the ray is as high as the profile's top vertex, so the
    # first hit lies at or before it
    t_max = x + max(p.ys) / tan_theta
    while True:
        left = xs[seg] + shift
        right = xs[seg + 1] + shift
        sl = slopes[seg]
        # boundary on this segment: y = yv + sl * (t - xv)
        yv = p.ys[seg]
        xv = left
        # ray: y = tan_theta * (t - x); equate
        denom = tan_theta - sl
        t = (yv - sl * xv + tan_theta * x) / denom
        lo = x if x > left else left
        if lo <= t <= right:
            return t
        if right >= t_max:
            raise WavetrapError(f"no boundary hit below the table top, by x = {t_max}")
        seg += 1
        if seg == nseg:
            seg = 0
            shift += 1


def _first_hit_smooth(table: GeneralTable, x: float, tan_theta: float) -> float:
    bmin = to_float(table.b_min)
    bmax = to_float(table.b_max)

    def h(t: float) -> float:
        return tan_theta * (t - x) - to_float(profile_value(table, t))

    lo = x + bmin / tan_theta
    hi = x + bmax / tan_theta
    # h is strictly increasing (slope at least tan_theta - tan_alpha_max > 0)
    if h(lo) > 0:
        lo = x
    for _ in range(200):
        if hi - lo <= SMOOTH_TOL:
            break
        mid = 0.5 * (lo + hi)
        if h(mid) < 0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(3):  # Newton polish
        hp = tan_theta - profile_slope(table, t)
        if hp <= 0:
            break
        t = t - h(t) / hp
    return t


def first_return_lift(table: GeneralTable, x, tan_theta):
    """Lift value of the first-return map at x (strip coordinates)."""
    xc = first_hit_upper(table, x, tan_theta)
    return xc + profile_value(table, xc) / tan_theta


def first_return(table: GeneralTable, x, tan_theta):
    """First-return point in [-1/2, 1/2)."""
    return _fold(first_return_lift(table, x, tan_theta))


def collision_abscissas(table: GeneralTable, x, tan_theta, n: int) -> Tuple[List, object]:
    """Upper-boundary hit abscissas (folded) along n returns, plus the final lift value."""
    hits = []
    cur = x
    for _ in range(n):
        xc = first_hit_upper(table, cur, tan_theta)
        hits.append(_fold(xc))
        cur = xc + profile_value(table, xc) / tan_theta
    return hits, cur


def return_map_slope(table: GeneralTable, x, tan_theta, n: int = 1):
    """Derivative of the n-th return map at x via the collision-slope product.

    Each collision at abscissa x_c contributes
    (tan_theta + b'(x_c)) / (tan_theta - b'(x_c)), with the right-hand slope
    at kinks.
    """
    hits, _ = collision_abscissas(table, x, tan_theta, n)
    acc = 1 if is_exact(tan_theta) else 1.0
    for xc in hits:
        sl = profile_slope(table, xc, side="right")
        acc = acc * (tan_theta + sl) / (tan_theta - sl)
    return acc


def empirical_derivative(table: GeneralTable, x, tan_theta, h=1e-6) -> float:
    """Central finite difference of the return lift; float by construction."""
    xf, tf, hf = to_float(x), to_float(tan_theta), float(h)
    if is_exact(x) or is_exact(tan_theta):
        # differentiate the float shadow of the table
        table = _float_table(table)
    up = first_return_lift(table, xf + hf, tf)
    dn = first_return_lift(table, xf - hf, tf)
    return (to_float(up) - to_float(dn)) / (2 * hf)


def _float_table(table: GeneralTable) -> GeneralTable:
    p = table.profile
    if isinstance(p, PLProfile):
        fp = PLProfile(tuple(to_float(v) for v in p.xs), tuple(to_float(v) for v in p.ys))
        return GeneralTable(fp, to_float(table.tan_alpha_max), table.strictly_concave)
    return table


def table_lift(table: GeneralTable, tan_theta) -> PLLift:
    """The return-map lift of a piecewise-linear table, built exactly.

    Break points of F are the section preimages of the profile kinks: the
    kink at (v, b(v)) pulls back to v - b(v)/tan_theta, with value
    v + b(v)/tan_theta and, on the piece to its right, slope
    (tan_theta + sl)/(tan_theta - sl) for sl the profile slope right of v.
    """
    _check_transversal(table, tan_theta)
    p = table.profile
    if not isinstance(p, PLProfile):
        raise WavetrapError("table_lift needs a piecewise-linear profile")
    slopes_b = p.segment_slopes()
    entries = []
    for i in range(len(p.xs) - 1):  # xs[-1] is xs[0] + period
        v = p.xs[i]
        bv = p.ys[i]
        if i > 0 and slopes_b[i] == slopes_b[i - 1]:
            continue  # not a kink
        br = v - bv / tan_theta
        val = v + bv / tan_theta
        sl = (tan_theta + slopes_b[i]) / (tan_theta - slopes_b[i])
        entries.append((br, val, sl))
    # fold breaks into one window, shifting values by the same integer
    folded = []
    for br, val, sl in entries:
        k = _strip(br)
        folded.append((br - k, val - k, sl))
    folded.sort()
    breaks = tuple(e[0] for e in folded)
    slopes = tuple(e[2] for e in folded)
    anchor = (folded[0][0], folded[0][1])
    return make_lift(breaks, slopes, anchor)


# ---------------------------------------------------------------------------
# Trajectory rendering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceLog:
    """Collision log of one trajectory: per return, the hit abscissa and wraps."""

    returns: Tuple
    hits: Tuple
    wraps: Tuple


def trace_segments(table: GeneralTable, x0, tan_theta, n_returns: int):
    """Polyline segments of the trajectory folded into the table, plus a log.

    Each flight (section to boundary, boundary to section) is split at the
    vertical sides so every piece stays inside [-1/2, 1/2].
    """
    segs = []
    returns = [to_float(_fold(x0))]
    hits = []
    wraps = []
    cur = x0
    for _ in range(n_returns):
        xc = first_hit_upper(table, cur, tan_theta)
        segs.extend(_fold_flight(table, cur, 0, xc, to_float(profile_value(table, xc)), tan_theta))
        bxc = profile_value(table, xc)
        nxt = xc + bxc / tan_theta
        segs.extend(_fold_flight(table, xc, -to_float(bxc), nxt, 0.0, tan_theta))
        hits.append(to_float(_fold(xc)))
        wraps.append(_strip(nxt) - _strip(cur))
        returns.append(to_float(_fold(nxt)))
        cur = nxt
    return segs, TraceLog(tuple(returns), tuple(hits), tuple(wraps))


def _fold_flight(table, x_a, y_a, x_b, y_b, tan_theta):
    """Fold the straight flight from (x_a, y_a) to (x_b, y_b) into the strip."""
    xa, ya, xb, yb = to_float(x_a), to_float(y_a), to_float(x_b), to_float(y_b)
    tt = to_float(tan_theta)
    out = []
    cur_x, cur_y = xa, ya
    while True:
        k = floor_int(cur_x + 0.5 + 1e-15)
        edge = k + 0.5
        if xb <= edge + 1e-15:
            out.append(((cur_x - k, cur_y), (xb - k, yb)))
            return out
        y_edge = ya + tt * (edge - xa)
        out.append(((cur_x - k, cur_y), (0.5, y_edge)))
        cur_x, cur_y = edge, y_edge


def trace_svg(table: GeneralTable, x0, tan_theta, n_returns: int) -> str:
    """Deterministic SVG of the table outline and a folded trajectory."""
    segs, log = trace_segments(table, x0, tan_theta, n_returns)
    return _render_trace(table, segs, log)


def _render_trace(table: GeneralTable, segs, log: TraceLog) -> str:
    """SVG of the table outline and the segments and returns of one trace."""
    from .svg import Canvas

    bmax = to_float(table.b_max)
    w, h = 880.0, 560.0
    pad = 40.0
    sx = (w - 2 * pad) / 1.0
    sy = (h - 2 * pad) / (2 * bmax)

    def X(x: float) -> float:
        return pad + (x + 0.5) * sx

    def Y(y: float) -> float:
        return h - pad - (y + bmax) * sy

    cv = Canvas(w, h)
    # boundary
    if isinstance(table.profile, PLProfile):
        top = [(to_float(x), to_float(y)) for x, y in zip(table.profile.xs, table.profile.ys)]
    else:
        top = []
        for i in range(161):
            x = i / 160 - 0.5
            top.append((x, to_float(profile_value(table, x))))
    outline = top + [(x, -y) for x, y in reversed(top)] + [top[0]]
    cv.polyline([(X(x), Y(y)) for x, y in outline], stroke="#1a1a1a", width=1.6)
    cv.line(X(-0.5), Y(0.0), X(0.5), Y(0.0), stroke="#888888", width=0.8, dash="6,4")
    for (xa, ya), (xb, yb) in segs:
        cv.line(X(xa), Y(ya), X(xb), Y(yb), stroke="#b03030", width=1.0)
    for r in log.returns:
        cv.circle(X(r), Y(0.0), 2.2, fill="#2040a0")
    return cv.tostring()
