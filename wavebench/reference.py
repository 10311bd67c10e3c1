"""Independent exact reference for the benchmark's output checks.

Nothing here imports wavetrap.  The trapezoid return map is built straight
from the paper's formulas for a0, a1 and lam, the surface map g from its
definition on the dilation surface, and the closed-form tongue boundaries
from the quadratics they solve.  All arithmetic on lifts is exact
(fractions.Fraction); only the closed-form curves are floats.
"""

from __future__ import annotations

import math
from fractions import Fraction


def frac(x) -> Fraction:
    """Exact Fraction from an int, a 'p/q' string or any rational type."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    return Fraction(int(x.numerator), int(x.denominator))


class TwoSlopeLift:
    """Degree-1 lift with breaks b0 < b1 < b0 + 1, slope s0 on [b0, b1], s1 after.

    value0 is the lift value at b0.  Construction checks that the slopes close
    up to degree one, so a wrong formula fails here instead of in a check.
    """

    def __init__(self, b0, b1, s0, s1, value0):
        self.b0, self.b1, self.s0, self.s1 = b0, b1, s0, s1
        self.v0 = value0
        self.v1 = value0 + s0 * (b1 - b0)
        if s0 * (b1 - b0) + s1 * (b0 + 1 - b1) != 1:
            raise ValueError("slopes do not close up to degree one")
        self.breaks = (b0, b1)

    def __call__(self, x):
        k = math.floor(x - self.b0)
        u = x - k
        if u <= self.b1:
            return self.v0 + self.s0 * (u - self.b0) + k
        return self.v1 + self.s1 * (u - self.b1) + k

    def inverse(self, y):
        k = math.floor(y - self.v0)
        w = y - k
        if w <= self.v1:
            return self.b0 + (w - self.v0) / self.s0 + k
        return self.b1 + (w - self.v1) / self.s1 + k

    def iterate(self, x, n: int):
        for _ in range(n):
            x = self(x)
        return x

    def orbit(self, x, n: int):
        out = [x]
        for _ in range(n):
            out.append(self(out[-1]))
        return out


def trapezoid_lift(ell, tan_alpha, tan_theta) -> TwoSlopeLift:
    """Return map of the trapezoid (ell, tan_alpha, tan_theta), tan_alpha > 0.

    a0 = (t - 2 ell)/(2t) is where the beam meets the top corner, a1 =
    -(2 ell + tan_alpha)/(2t) where it meets the apex of the unfolded top, and
    lam = (t + tan_alpha)/(t - tan_alpha).  The map contracts [a1, a0] by lam,
    expands the rest, and sends a1 to -a1.
    """
    ell, ta, t = frac(ell), frac(tan_alpha), frac(tan_theta)
    a0 = (t - 2 * ell) / (2 * t)
    a1 = -(2 * ell + ta) / (2 * t)
    lam = (t + ta) / (t - ta)
    return TwoSlopeLift(a1, a0, 1 / lam, lam, -a1)


def maas_triple(d, tau):
    """(ell, tan_alpha, tan_theta) of the laboratory point (d, tau)."""
    d, tau = frac(d), frac(tau)
    return 1 + d, 2 * (1 - d), 2 * tau


def surface_lift(m, s) -> TwoSlopeLift:
    """The surface map g: expand [0, 1-m] by lam = m/(1-m), g(0) = s + 1 - m.

    Conjugating the trapezoid map by x -> x - a0 gives exactly this map with
    m = a0 - a1 and s = 2 ell/t + m - 1, so g(0) = F(a0) - a0 = 2 ell/t.
    """
    m, s = frac(m), frac(s)
    lam = m / (1 - m)
    return TwoSlopeLift(Fraction(0), 1 - m, lam, 1 / lam, s + 1 - m)


def fold(x):
    """Representative of x in [-1/2, 1/2)."""
    return x - math.floor(x + Fraction(1, 2))


# ---------------------------------------------------------------------------
# Rotation-number facts
# ---------------------------------------------------------------------------


def displacement_extremes(F: TwoSlopeLift, p: int, q: int):
    """Min and max of D = F^q - id - p over the circle.

    D is piecewise linear with kinks only at the preimages F^-k(b), k < q, of
    the two base breaks, and D(F^-k(b)) = F^(q-k)(b) - F^-k(b) - p, so one
    forward and one backward orbit per break give every extremum.
    """
    lo = hi = None
    for b in F.breaks:
        fwd = F.orbit(b, q)
        y = b
        for k in range(q):
            d = fwd[q - k] - y - p
            if lo is None or d < lo:
                lo = d
            if hi is None or d > hi:
                hi = d
            y = F.inverse(y)
    return lo, hi


def has_rotation_number(F: TwoSlopeLift, p: int, q: int) -> bool:
    """rho(F) = p/q exactly when D = F^q - id - p has a zero."""
    lo, hi = displacement_extremes(F, p, q)
    return lo <= 0 <= hi


def witness_holds(F: TwoSlopeLift, p: int, q: int, witness) -> bool:
    """A periodic-point witness: F^q(x) = x + p at every point it names.

    Accepts the library's tuple forms ('point', x), ('interval', a, b) and
    ('circle',); the circle case is checked at both breaks.
    """
    kind = witness[0]
    if kind == "circle":
        pts = list(F.breaks)
    elif kind in ("point", "interval"):
        pts = [frac(v) for v in witness[1:]]
    else:
        return False
    return all(F.iterate(x, q) == x + p for x in pts)


def birkhoff_interval(F: TwoSlopeLift, n: int, x0=Fraction(0)):
    """[lo, hi] containing rho(F): the n-step average is within 1/n of it."""
    d = F.iterate(x0, n) - x0
    return (d - 1) / n, (d + 1) / n


def farey_gap_holds(lo, hi, q_max: int) -> bool:
    """No fraction with denominator <= q_max lies strictly inside (lo, hi)."""
    lo, hi = frac(lo), frac(hi)
    if not lo < hi:
        return False
    a, b = lo.numerator, lo.denominator
    for q in range(1, q_max + 1):
        p = (a * q) // b + 1  # smallest p with p/q > lo
        if Fraction(p, q) < hi:
            return False
    return True


def enclosure_holds(F: TwoSlopeLift, lo, hi, q_max: int, n: int) -> bool:
    """Farey gap at q_max, and a Birkhoff average of F within 1/n of [lo, hi]."""
    b_lo, b_hi = birkhoff_interval(F, n)
    return farey_gap_holds(lo, hi, q_max) and b_lo <= frac(hi) and frac(lo) <= b_hi


# ---------------------------------------------------------------------------
# Closed-form tongue boundaries on the (d, tau) slice
# ---------------------------------------------------------------------------


def tongue_23(d: float):
    """Lower and upper tau of the rho = 2/3 tongue at d.

    The two boundaries are where a break point becomes 3-periodic; each is a
    quadratic in tau whose larger root is taken.
    """
    lo = (d + 5 + math.sqrt(9 * d * d + 10 * d + 17)) / 4
    hi = (d + 2 + math.sqrt(d * d + 8)) / 2
    return lo, hi


def tongue_14(d: float) -> float:
    """The single tau of the degenerate rho = 1/4 tongue at d."""
    return d + 3 + 2 * math.sqrt(2 + 2 * d)


# ---------------------------------------------------------------------------
# Mobius arithmetic on directions
# ---------------------------------------------------------------------------

INF = "infinity"


def beta_of(m):
    m = frac(m)
    return 1 / (m - m * m)


def fundamental_interval(m):
    """J = [1/(beta - 2), 1/2] for beta = 1/(m - m^2)."""
    return 1 / (beta_of(m) - 2), Fraction(1, 2)


def mobius_apply(a, b, c, d, s):
    """(a s + b)/(c s + d) on the projective line, INF in and out."""
    if s == INF:
        return INF if c == 0 else a / c
    den = c * s + d
    if den == 0:
        return INF
    return (a * s + b) / den


def apply_word(m, word, s):
    """Apply a reduction word [(g, k), ...] in order: A^k: s + k, B^k: s/(k beta s + 1)."""
    beta = beta_of(m)
    cur = frac(s)
    for g, k in word:
        if g == "A":
            cur = mobius_apply(1, k, 0, 1, cur)
        elif g == "B":
            cur = mobius_apply(1, 0, k * beta, 1, cur)
        else:
            raise ValueError(f"unknown generator {g!r}")
    return cur
