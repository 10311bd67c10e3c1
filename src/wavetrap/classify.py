"""Dynamics classification from the exact fixed locus of F^q - p.

The displacement D = F^q - id - p is piecewise linear, so its zero set is a
finite union of points and closed intervals with endpoints computable in
closed form piece by piece.  The classification cases follow from the shape
of that zero set: empty (no certificate), alternating transversal zeros
(attractor/repellor pair), flat intervals (beam), or the whole circle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .circle_map import (
    PLLift,
    circle_point,
    lift_eval,
    lift_iter,
    power_break_data,
    trapezoid_lift,
)
from .errors import (
    NotRotationNumber,
    ParameterError,
    ParityViolation,
    WavetrapError,
)
from .geometry import GeneralTable, TrapezoidParams
from .rotation import (
    FLOAT_TOL,
    Certified,
    Enclosure,
    RotationResult,
    compare_rho,
    rho_certify,
)
from .scalar import exact_from_float, is_exact, scalar_str, to_float

SLOPE_TOL = 1e-9


@dataclass(frozen=True)
class FixedAtom:
    """One connected component of the fixed locus of F^q - p.

    kind "point" carries x and the one-sided slopes of F^q there; kind
    "interval" carries [lo, hi] plus the stability of the two flanking
    pieces; kind "circle" means the whole section is fixed.
    """

    kind: str
    x: object = None
    lo: object = None
    hi: object = None
    stability: str = "neutral"
    slope_left: object = None
    slope_right: object = None
    flank_left: str = "neutral"
    flank_right: str = "neutral"

    def to_json(self) -> dict:
        out = {"kind": self.kind, "stability": self.stability}
        if self.kind == "point":
            out["x"] = scalar_str(self.x)
            out["slope_left"] = scalar_str(self.slope_left)
            out["slope_right"] = scalar_str(self.slope_right)
        elif self.kind == "interval":
            out["lo"] = scalar_str(self.lo)
            out["hi"] = scalar_str(self.hi)
            out["flank_left"] = self.flank_left
            out["flank_right"] = self.flank_right
        return out


def _side_tag(slope, tol) -> str:
    if slope < 1 - tol:
        return "attracting"
    if slope > 1 + tol:
        return "repelling"
    return "neutral"


def _point_stability(left_tag: str, right_tag: str) -> str:
    if left_tag == right_tag:
        return left_tag
    if "neutral" in (left_tag, right_tag):
        return left_tag if right_tag == "neutral" else right_tag
    return "semistable"


def fixed_set(L: PLLift, p: int, q: int) -> List[FixedAtom]:
    """Connected components of {F^q = id + p}, each tagged with stability.

    Raises NotRotationNumber unless compare_rho(L, p, q) says Equal.  In
    float mode a displacement within FLOAT_TOL of zero counts as zero and
    slopes within SLOPE_TOL of one count as neutral.
    """
    cmp = compare_rho(L, p, q)
    if cmp.rel != 0:
        raise NotRotationNumber(f"rho differs from {p}/{q} (sign {cmp.rel})")
    tol = 0 if L.exact_mode else FLOAT_TOL

    data = power_break_data(L, q, p, want_slopes=True)
    xs, ds, sl = data.breaks, data.disp, data.slopes
    n = len(xs)

    def zero(v) -> bool:
        return -tol <= v <= tol

    def one(s) -> bool:
        return abs(to_float(s) - 1.0) <= SLOPE_TOL if not is_exact(s) else s == 1

    if all(zero(d) for d in ds) and all(one(s) for s in sl):
        return [FixedAtom(kind="circle")]

    points: List[FixedAtom] = []
    intervals: List[List] = []  # [lo, hi, left_flank_slope, right_flank_slope]
    for i in range(n):
        xi = xs[i]
        right = xs[(i + 1) % n] + (1 if i == n - 1 else 0)
        di = ds[i]
        dj = ds[(i + 1) % n]
        si = sl[i]
        if zero(di):
            if one(si) and zero(dj):
                intervals.append([xi, right, sl[i - 1], sl[(i + 1) % n]])
            lt, rt = _side_tag(sl[i - 1], SLOPE_TOL), _side_tag(si, SLOPE_TOL)
            points.append(
                FixedAtom(
                    kind="point",
                    x=xi,
                    stability=_point_stability(lt, rt),
                    slope_left=sl[i - 1],
                    slope_right=si,
                )
            )
        elif (di > tol and dj < -tol) or (di < -tol and dj > tol):
            # transversal crossing strictly inside the piece
            root = xi - di / (si - 1)
            tag = _side_tag(si, SLOPE_TOL)
            points.append(
                FixedAtom(kind="point", x=root, stability=tag, slope_left=si, slope_right=si)
            )

    if not intervals:
        return sorted(points, key=lambda a: to_float(a.x))

    # chain adjacent flat pieces, including across the period seam
    intervals.sort(key=lambda iv: to_float(iv[0]))
    merged: List[List] = []
    for iv in intervals:
        if merged and iv[0] - merged[-1][1] <= tol:
            merged[-1][1] = iv[1]
            merged[-1][3] = iv[3]
        else:
            merged.append(iv)
    if len(merged) > 1 and merged[0][0] + 1 - merged[-1][1] <= tol:
        merged[0][0] = merged[-1][0] - 1
        merged[0][2] = merged[-1][2]
        merged.pop()
    if len(merged) == 1 and merged[0][1] - merged[0][0] >= 1:
        return [FixedAtom(kind="circle")]

    atoms: List[FixedAtom] = []
    for lo, hi, fl, fr in merged:
        atoms.append(
            FixedAtom(
                kind="interval",
                lo=lo,
                hi=hi,
                flank_left=_side_tag(fl, SLOPE_TOL),
                flank_right=_side_tag(fr, SLOPE_TOL),
            )
        )

    def inside(x) -> bool:
        for lo, hi, _, _ in merged:
            for shift in (-1, 0, 1):
                if lo - tol <= x + shift <= hi + tol:
                    return True
        return False

    atoms.extend(a for a in points if not inside(a.x))
    return sorted(atoms, key=lambda a: to_float(a.x if a.kind == "point" else a.lo))


@dataclass(frozen=True)
class DynamicsClassification:
    case: str  # minimal_uncertified | attractor_repellor | periodic_beam | all_periodic
    rho: RotationResult
    q_max: int
    atoms: Optional[Tuple[FixedAtom, ...]] = None
    orbit_plus: Tuple = ()
    orbit_minus: Tuple = ()
    parity_report: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"case": self.case, "q_max": self.q_max, "rho": self.rho.to_json()}
        if self.atoms is not None:
            out["fixed_atoms"] = [a.to_json() for a in self.atoms]
        if self.orbit_plus:
            out["orbit_plus"] = [scalar_str(x) for x in self.orbit_plus]
            out["orbit_minus"] = [scalar_str(x) for x in self.orbit_minus]
        if self.parity_report is not None:
            out["parity"] = self.parity_report
        return out


def classify(L: PLLift, q_max: int = 2000) -> DynamicsClassification:
    """Certify rho, then map the fixed locus of F^q onto the dynamics cases.

    Without a certificate at denominator <= q_max the orbit structure is
    reported as minimal_uncertified: no periodic orbit with small period
    exists, which is evidence of minimality but never a proof.
    """
    rho = rho_certify(L, q_max)
    if isinstance(rho, Enclosure):
        return DynamicsClassification("minimal_uncertified", rho, q_max)
    atoms = fixed_set(L, rho.p, rho.q)
    if len(atoms) == 1 and atoms[0].kind == "circle":
        return DynamicsClassification("all_periodic", rho, q_max, tuple(atoms))
    if any(a.kind == "interval" for a in atoms):
        return DynamicsClassification("periodic_beam", rho, q_max, tuple(atoms))
    plus = tuple(a.x for a in atoms if a.stability in ("attracting", "semistable"))
    minus = tuple(a.x for a in atoms if a.stability in ("repelling", "semistable"))
    strict = [a for a in atoms if a.stability in ("attracting", "repelling")]
    for i, a in enumerate(strict):
        b = strict[(i + 1) % len(strict)]
        if a.stability == b.stability:
            raise WavetrapError(
                f"stability tags fail to alternate near x={a.x}; broken fixed locus"
            )
    return DynamicsClassification("attractor_repellor", rho, q_max, tuple(atoms), plus, minus)


def co_orbital(L: PLLift, x, y, q: int) -> bool:
    """Whether y lies on the length-q circle orbit of x."""
    tol = 0 if L.exact_mode else FLOAT_TOL
    ty = circle_point(L, y)
    pos = x
    for _ in range(q):
        d = circle_point(L, pos) - ty
        if -tol <= d <= tol or -tol <= abs(d) - 1 <= tol:
            return True
        pos = lift_eval(L, pos)
    return False


def parity_check(params: TrapezoidParams, L: Optional[PLLift] = None, q_max: int = 2000) -> dict:
    """Verify the even/odd period dichotomy on a certified parameter point.

    Even q must give F^q = id + p with the two break points on one orbit;
    odd q must give all piece slopes of F^q away from 1 and the break points
    on distinct orbits.  A failure raises ParityViolation: it means the
    certification or the break bookkeeping is wrong, not that the data is.
    """
    if params.tan_alpha == 0:
        raise ParameterError("parity dichotomy needs a genuine break pair (tan_alpha > 0)")
    if L is None:
        L = trapezoid_lift(params)
    rho = rho_certify(L, q_max)
    if not isinstance(rho, Certified):
        raise WavetrapError(f"no certified rotation number at q_max={q_max}")
    p, q = rho.p, rho.q
    tol = 0 if L.exact_mode else FLOAT_TOL

    data = power_break_data(L, q, p, want_slopes=True)
    identity = all(-tol <= d <= tol for d in data.disp) and all(
        (s == 1 if is_exact(s) else abs(to_float(s) - 1.0) <= SLOPE_TOL) for s in data.slopes
    )
    co = co_orbital(L, params.a0, params.a1, q)
    gaps = [abs(to_float(s) - 1.0) for s in data.slopes]

    if q % 2 == 0:
        if not identity:
            raise ParityViolation(f"q={q} even but F^q differs from id+{p}")
        if not co:
            raise ParityViolation(f"q={q} even but the break points sit on distinct orbits")
    else:
        if identity or min(gaps) <= SLOPE_TOL:
            raise ParityViolation(f"q={q} odd but some piece slope of F^q equals 1")
        if co:
            raise ParityViolation(f"q={q} odd but the break points share an orbit")
    return {
        "p": p,
        "q": q,
        "parity": "even" if q % 2 == 0 else "odd",
        "identity": identity,
        "co_orbital": co,
        "min_slope_gap": min(gaps),
    }


def _circle_dist(u: float, pts: List[float]) -> float:
    best = 1.0
    for v in pts:
        d = abs(u - v) % 1.0
        best = min(best, d, 1.0 - d)
    return best


def basin_demo(
    L: PLLift,
    x0,
    n: int,
    cls: Optional[DynamicsClassification] = None,
    q_max: int = 2000,
) -> dict:
    """Iterate F^q forward and backward from x0 and watch the distances.

    Forward distances to the attracting orbit should fall geometrically at
    a rate matching the slope of F^q there; backward iterates approach the
    repelling orbit.  Returns the raw distance sequences plus the measured
    and predicted contraction rates.
    """
    if cls is None:
        cls = classify(L, q_max)
    if cls.case != "attractor_repellor":
        raise WavetrapError(f"basin demo needs an attractor/repellor pair, got {cls.case}")
    q = cls.rho.q
    plus = [to_float(circle_point(L, x)) for x in cls.orbit_plus]
    minus = [to_float(circle_point(L, x)) for x in cls.orbit_minus]

    fwd = []
    x = x0
    for _ in range(n + 1):
        fwd.append(_circle_dist(to_float(circle_point(L, x)), plus))
        x = lift_iter(L, x, q)
    bwd = []
    x = x0
    for _ in range(n + 1):
        bwd.append(_circle_dist(to_float(circle_point(L, x)), minus))
        x = lift_iter(L, x, -q)

    ratios = [b / a for a, b in zip(fwd, fwd[1:]) if a > 1e-13 and b > 1e-15]
    rate = ratios[-1] if ratios else 0.0
    attracting = [a for a in cls.atoms if a.stability == "attracting"] or [
        a for a in cls.atoms if a.stability == "semistable"
    ]
    x0f = to_float(circle_point(L, x0))
    nearest = min(attracting, key=lambda a: _circle_dist(to_float(circle_point(L, a.x)), [x0f]))
    return {
        "q": q,
        "dist_forward": fwd,
        "dist_backward": bwd,
        "rate_estimate": rate,
        "rate_theory": to_float(nearest.slope_right),
        "forward_decreasing": all(b <= a + 1e-12 for a, b in zip(fwd, fwd[1:])),
        "backward_decreasing": all(b <= a + 1e-12 for a, b in zip(bwd, bwd[1:])),
    }


# ---------------------------------------------------------------------------
# Strictly concave tables: integer directions and transversal fixed points
# ---------------------------------------------------------------------------


def integer_directions(table: GeneralTable, count: int = 3):
    """Directions tan_theta with an integer strictly inside the displacement range.

    The displacement of the traced return map spans (2*b_min/t, 2*b_max/t),
    so t_k = (b_min + b_max)/k puts the integer k dead centre; each valid
    (t_k, k) certifies rho = k exactly.  Returns up to `count` pairs with
    t_k still transversal (t_k > steepest boundary slope).
    """
    bmin = exact_from_float(to_float(table.b_min))
    bmax = exact_from_float(to_float(table.b_max))
    tmax = exact_from_float(to_float(table.tan_alpha_max))
    out = []
    k = 1
    while len(out) < count:
        t = (bmin + bmax) / k
        if t <= tmax:
            break
        if 2 * bmin / t < k < 2 * bmax / t:
            out.append((t, k))
        k += 1
    return out


def smooth_fixed_points(table: GeneralTable, tan_theta, k: int, tol: float = 1e-13) -> List[dict]:
    """The fixed points of the traced return map minus k, with slopes.

    Certification is exact: 2*b_min/t < k < 2*b_max/t brackets the continuous
    displacement, so roots exist.  Each root is found by bisection on the
    collision ordinate over one monotone half of the profile, then mapped
    back to the section; the slope comes from the collision product.
    """
    from .tracer import first_return_lift

    bmin = exact_from_float(to_float(table.b_min))
    bmax = exact_from_float(to_float(table.b_max))
    t_exact = exact_from_float(to_float(tan_theta))
    if not (2 * bmin / t_exact < k < 2 * bmax / t_exact):
        raise NotRotationNumber(
            f"k={k} outside the displacement range (2*{bmin}/{t_exact}, 2*{bmax}/{t_exact})"
        )

    t = to_float(tan_theta)
    target = k * t / 2  # collision height with return displacement exactly k
    prof = table.profile

    def bisect(lo: float, hi: float) -> float:
        flo = to_float(prof.value(lo)) - target
        for _ in range(200):
            mid = (lo + hi) / 2
            fm = to_float(prof.value(mid)) - target
            if abs(hi - lo) < tol:
                return mid
            if (fm < 0) == (flo < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return (lo + hi) / 2

    out = []
    for lo, hi, increasing in ((-0.5, 0.0, True), (0.0, 0.5, False)):
        xc = bisect(lo, hi)
        slope_b = to_float(prof.deriv(xc))
        x = xc - to_float(prof.value(xc)) / t
        slope = (t + slope_b) / (t - slope_b)
        residual = abs(to_float(first_return_lift(table, x, t)) - x - k)
        out.append(
            {
                "x": x,
                "collision": xc,
                "slope": slope,
                "stability": "repelling" if increasing else "attracting",
                "slope_gap": abs(slope - 1.0),
                "residual": residual,
            }
        )
    return out
