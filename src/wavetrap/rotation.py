"""Rotation numbers: rigorous enclosures, exact certification, staircases.

compare_rho decides the position of the rotation number relative to p/q from
the sign of F^q - id - p at the break points of F^q alone, which is exact for
piecewise-linear lifts.  rho_certify descends the Stern-Brocot tree on those
comparisons, with a run-length acceleration so deep continued-fraction
branches cost O(log) comparisons instead of one per step.

In float mode a displacement within tol of zero is treated as a zero and the
resulting certificate is tagged numerically_periodic; exact mode never does
this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .circle_map import PLLift, displacement_range, lift_iter, power_break_data
from .errors import (
    InvariantViolation,
    MonotoneViolation,
    NonPositive,
    ParameterError,
    WavetrapError,
)
from .scalar import Scalar, exact, floor_int, is_exact

FLOAT_TOL = 1e-12


@dataclass(frozen=True)
class Certified:
    """rho = p/q, witnessed by a periodic point (or interval, or the circle)."""

    p: int
    q: int
    witness: object = None
    numeric: bool = False

    @property
    def value(self):
        return exact(self.p, self.q)

    def interval(self) -> Tuple[Scalar, Scalar]:
        v = exact(self.p, self.q)
        return v, v


@dataclass(frozen=True)
class Enclosure:
    """rho in [lo, hi]; no rational with denominator <= q_max inside certified."""

    lo: Scalar
    hi: Scalar
    q_max: int

    def interval(self) -> Tuple[Scalar, Scalar]:
        return self.lo, self.hi


RotationResult = Union[Certified, Enclosure]


def rho_value(r: RotationResult):
    if isinstance(r, Certified):
        return r.value
    return (r.lo + r.hi) / 2


def rho_estimate(L: PLLift, n: int, x0=None) -> Enclosure:
    """Enclosure of width 2/n from a single orbit segment.

    Valid for any monotone degree-1 lift: the Birkhoff average over n steps
    differs from rho by at most 1/n.
    """
    if n < 1:
        raise NonPositive("n must be >= 1")
    if x0 is None:
        x0 = L.breaks[0]
    xn = lift_iter(L, x0, n)
    d = xn - x0
    if is_exact(d):
        one = exact(1)
        return Enclosure((d - one) / n, (d + one) / n, 0)
    return Enclosure((d - 1.0) / n, (d + 1.0) / n, 0)


@dataclass(frozen=True)
class Comparison:
    """Sign of rho - p/q; rel is -1 (Less), 0 (Equal) or +1 (Greater)."""

    rel: int
    witness: object = None
    numeric: bool = False


def compare_rho(L: PLLift, p: int, q: int, tol: Optional[float] = None) -> Comparison:
    """Compare rho(L) with p/q from the extrema of F^q - id - p.

    The displacement is continuous and piecewise linear, so its extrema sit on
    the break points of F^q; their signs decide everything.  An exact zero (or
    a sign change, whose crossing point solves a linear equation) yields Equal
    with a verified witness.
    """
    if tol is None:
        tol = 0 if L.exact_mode else FLOAT_TOL
    data = power_break_data(L, q, p, want_slopes=False)
    xs, ds = data.breaks, data.disp
    n = len(xs)

    used_tol = False
    signs = []
    for d in ds:
        if -tol <= d <= tol:
            signs.append(0)
            if d != 0:
                used_tol = True
        elif d > 0:
            signs.append(1)
        else:
            signs.append(-1)

    if all(s > 0 for s in signs):
        return Comparison(1)
    if all(s < 0 for s in signs):
        return Comparison(-1)

    numeric = (not L.exact_mode) and used_tol
    # whole circle fixed
    if all(s == 0 for s in signs):
        return Comparison(0, witness=("circle",), numeric=numeric)
    # zero at a break; prefer these as witnesses, extending to an interval
    # when the neighbouring break is fixed too
    for i in range(n):
        if signs[i] == 0:
            j = (i + 1) % n
            if signs[j] == 0:
                return Comparison(0, witness=("interval", xs[i], xs[j]), numeric=numeric)
            return Comparison(0, witness=("point", xs[i]), numeric=numeric)
    # strict sign change inside a piece: root of the linear displacement
    for i in range(n):
        j = (i + 1) % n
        if signs[i] > 0 > signs[j] or signs[i] < 0 < signs[j]:
            xi = xs[i]
            xj = xs[j] if j > i else xs[j] + 1
            root = xi + ds[i] * (xj - xi) / (ds[i] - ds[j])
            if L.exact_mode and lift_iter(L, root, q) - root - p != 0:
                raise InvariantViolation(f"root {root} of the displacement is not {p}/{q}-periodic")
            return Comparison(0, witness=("point", root), numeric=numeric)
    raise WavetrapError("sign analysis fell through; broken lift data")


@dataclass(frozen=True)
class _PQ:
    p: int
    q: int

    def __add__(self, other):
        return _PQ(self.p + other.p, self.q + other.q)

    def times(self, k: int):
        return _PQ(self.p * k, self.q * k)


def rho_certify(L: PLLift, q_max: int = 2000, tol: Optional[float] = None) -> RotationResult:
    """Certify rho(L) as p/q with q <= q_max, or return the final enclosure.

    The bracket starts at consecutive integers around the displacement range;
    every mediant comparison either certifies or halves the Stern-Brocot
    subtree, and repeated moves in one direction are batched by doubling.
    The enclosure case inherits the mediant property: no rational with
    denominator <= q_max lies strictly inside [lo, hi].
    """
    if q_max < 1:
        raise NonPositive("q_max must be >= 1")
    dmin, dmax = displacement_range(L)
    return farey_descent(
        lambda p, q: compare_rho(L, p, q, tol), floor_int(dmin), floor_int(dmax) + 1, q_max
    )


def farey_neighbours(p: int, q: int, q_max: int) -> Tuple[Scalar, Scalar]:
    """The consecutive fractions of F_{q_max} around p/q, for q > q_max.

    Runs the descent of rho_certify against the exact integer comparator of
    the known value p/q, so no lift is evaluated.  p/q must be in lowest
    terms with q > q_max; then no comparison is Equal and the descent ends
    on the unique Farey pair at level q_max that brackets p/q strictly.
    """
    if q <= q_max or math.gcd(p, q) != 1:
        raise ParameterError(f"need p/q in lowest terms with q > q_max; got {p}/{q}, q_max={q_max}")

    def cmp(a: int, b: int) -> Comparison:
        d = p * b - a * q
        return Comparison((d > 0) - (d < 0))

    n = p // q
    r = farey_descent(cmp, n, n + 1, q_max)
    return r.lo, r.hi


def farey_descent(cmp, n0: int, n1: int, q_max: int) -> RotationResult:
    """Stern-Brocot descent for the unknown x that cmp(p, q) compares with p/q.

    cmp returns a Comparison for the sign of x - p/q.  Integers n0..n1 are
    probed first; they must contain a bracket of x (a Less among them once a
    Greater was seen), otherwise InvariantViolation is raised.
    """
    lo = hi = None
    for n in range(n0, n1 + 1):
        c = cmp(n, 1)
        if c.rel == 0:
            return Certified(n, 1, c.witness, c.numeric)
        if c.rel > 0:
            lo = _PQ(n, 1)
        elif hi is None:
            hi = _PQ(n, 1)
            break
    if lo is None or hi is None:
        raise InvariantViolation(f"integer bracket failed on [{n0}, {n1}]")

    while True:
        med = lo + hi
        if med.q > q_max:
            break
        c = cmp(med.p, med.q)
        if c.rel == 0:
            g = math.gcd(med.p, med.q)
            return Certified(med.p // g, med.q // g, c.witness, c.numeric)
        if c.rel > 0:
            lo, hi, hit = _run(cmp, lo, hi, 1, q_max)
        else:
            lo, hi, hit = _run(cmp, hi, lo, -1, q_max)
            lo, hi = hi, lo
        if hit is not None:
            return hit

    return Enclosure(exact(lo.p, lo.q), exact(hi.p, hi.q), q_max)


def _run(cmp, moving: _PQ, fixed: _PQ, direction: int, q_max: int):
    """Batch successive mediant moves toward `fixed`.

    Finds the largest k with compare(moving + k*fixed) == direction under the
    denominator cap, by doubling then bisecting on k.  Returns the updated
    (moving, fixed) pair, or a Certified result met along the way.
    """

    def probe(k: int) -> Comparison:
        return cmp(moving.p + k * fixed.p, moving.q + k * fixed.q)

    kcap = (q_max - moving.q) // fixed.q
    # k = 1 is the mediant the caller already compared
    k = 1
    while 2 * k <= kcap:
        c = probe(2 * k)
        if c.rel == 0:
            t = _PQ(moving.p + 2 * k * fixed.p, moving.q + 2 * k * fixed.q)
            g = math.gcd(t.p, t.q)
            return None, None, Certified(t.p // g, t.q // g, c.witness, c.numeric)
        if c.rel != direction:
            break
        k = 2 * k
    lo_k, hi_k = k, min(2 * k - 1, kcap)
    while lo_k < hi_k:
        mid = (lo_k + hi_k + 1) // 2
        c = probe(mid)
        if c.rel == 0:
            t = _PQ(moving.p + mid * fixed.p, moving.q + mid * fixed.q)
            g = math.gcd(t.p, t.q)
            return None, None, Certified(t.p // g, t.q // g, c.witness, c.numeric)
        if c.rel == direction:
            lo_k = mid
        else:
            hi_k = mid - 1
    new_moving = _PQ(moving.p + lo_k * fixed.p, moving.q + lo_k * fixed.q)
    return new_moving, fixed, None


# ---------------------------------------------------------------------------
# Staircase sampling over one-parameter families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaircaseRecord:
    u: Scalar
    result: Optional[RotationResult]
    error: Optional[str] = None


def _certify_point(args):
    family, u, q_max = args
    try:
        point = family.build(u)
    except WavetrapError as e:
        return StaircaseRecord(u, None, f"{type(e).__name__}: {e}")
    return StaircaseRecord(u, rho_certify(point.lift, q_max))


def staircase(
    family,
    u_lo,
    u_hi,
    samples: int,
    q_max: int = 2000,
    workers: Optional[int] = None,
    check_monotone: bool = True,
) -> List[StaircaseRecord]:
    """Certify rho along an evenly spaced sweep of the family parameter.

    Monotonicity of the resulting values is asserted (in the orientation the
    family declares); an inversion raises MonotoneViolation since it signals
    a broken family or comparison, not a data condition.
    """
    if samples < 2:
        raise ParameterError("samples must be >= 2")
    span = u_hi - u_lo
    if is_exact(span):
        grid = [u_lo + span * exact(i, samples - 1) for i in range(samples)]
    else:
        grid = [u_lo + span * (i / (samples - 1)) for i in range(samples)]

    jobs = [(family, u, q_max) for u in grid]
    if workers and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_certify_point, jobs, chunksize=max(1, samples // (8 * workers))))
    else:
        records = [_certify_point(j) for j in jobs]

    if check_monotone:
        assert_monotone(records, increasing=family.increasing)
    return records


def assert_monotone(records: Sequence[StaircaseRecord], increasing: bool = True) -> int:
    """Raise MonotoneViolation on any strict inversion between result intervals.

    Intervals may overlap; an inversion means two disjoint intervals in the
    wrong order.  Returns the number of comparisons made.
    """
    prev = None
    count = 0
    for rec in records:
        if rec.result is None:
            continue
        lo, hi = rec.result.interval()
        if prev is not None:
            plo, phi = prev
            count += 1
            bad = hi < plo if increasing else lo > phi
            if bad:
                raise MonotoneViolation(
                    f"rotation numbers out of order near u={rec.u}: "
                    f"[{plo},{phi}] then [{lo},{hi}]"
                )
        # keep the most restrictive running bound seen so far
        if prev is None:
            prev = (lo, hi)
        elif increasing:
            prev = (max(plo, lo), hi)
        else:
            prev = (lo, min(phi, hi))
    return count
