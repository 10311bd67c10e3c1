"""Degree-1 piecewise-linear lifts of circle homeomorphisms.

A PLLift stores one fundamental period of break points together with the
slope of each piece and the lift values at the breaks.  All operations are
pure; exact inputs give exact outputs.  Powers of a lift are never stored as
explicit lifts (piece count is linear in q but coefficient size grows), so
iteration works pointwise and the break-point calculus below enumerates the
pieces of F^q directly.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BreakPoint, InvariantViolation, NonPositive, WavetrapError
from .geometry import TrapezoidParams
from .scalar import Scalar, exact, floor_int, guard_bits, is_exact, scalar_str, to_float


@dataclass(frozen=True)
class PLLift:
    """One period of breaks with per-piece slopes and values at the breaks.

    breaks[i] < breaks[i+1] < breaks[0] + 1; slopes[i] rules the piece
    [breaks[i], breaks[i+1]] (the last piece wraps to breaks[0] + 1); values[i]
    is the lift value at breaks[i].  A pure translation is stored with the
    single artificial break 0, slope 1 on the whole period.
    """

    breaks: Tuple[Scalar, ...]
    slopes: Tuple[Scalar, ...]
    values: Tuple[Scalar, ...]

    @property
    def exact_mode(self) -> bool:
        return is_exact(self.values[0])

    @property
    def window(self) -> Tuple[Scalar, Scalar]:
        return self.breaks[0], self.breaks[0] + 1

    def piece_index(self, u) -> int:
        # u must already sit in [breaks[0], breaks[0] + 1)
        return bisect_right(self.breaks, u) - 1



def make_lift(breaks: Sequence, slopes: Sequence, anchor: Tuple) -> PLLift:
    """Assemble a lift from breaks, per-piece slopes and one (x, F(x)) anchor.

    Raises if the data does not define a continuous strictly increasing
    degree-1 lift.  Exact inputs are checked exactly; float inputs to 1e-9.
    """
    if len(breaks) != len(slopes) or not breaks:
        raise WavetrapError("need one slope per break and at least one break")
    breaks = tuple(breaks)
    slopes = tuple(slopes)
    n = len(breaks)
    for i in range(n - 1):
        if not breaks[i] < breaks[i + 1]:
            raise WavetrapError("breaks must be strictly increasing")
    if not breaks[-1] < breaks[0] + 1:
        raise WavetrapError("breaks must fit in one period")
    if any(s <= 0 for s in slopes):
        raise WavetrapError("slopes must all be positive")

    gaps = [breaks[i + 1] - breaks[i] for i in range(n - 1)]
    gaps.append(breaks[0] + 1 - breaks[-1])
    total = sum(s * g for s, g in zip(slopes, gaps))
    exact_mode = is_exact(breaks[0]) and all(is_exact(s) for s in slopes)
    if exact_mode:
        if total != 1:
            raise WavetrapError(f"slopes do not close up to degree 1 (sum {total})")
    elif abs(to_float(total) - 1.0) > 1e-9:
        raise WavetrapError(f"slopes do not close up to degree 1 (sum {total})")

    xa, ya = anchor
    # shift anchor into the window and walk values out from it
    k = floor_int(xa - breaks[0])
    u, v = xa - k, ya - k
    i = bisect_right(breaks, u) - 1
    v0 = v - slopes[i] * (u - breaks[i])  # value that piece i takes at breaks[i]
    values = [None] * n
    values[i] = v0
    for j in range(i, 0, -1):
        values[j - 1] = values[j] - slopes[j - 1] * gaps[j - 1]
    for j in range(i + 1, n):
        values[j] = values[j - 1] + slopes[j - 1] * gaps[j - 1]
    return PLLift(breaks, slopes, tuple(values))


def trapezoid_lift(params: TrapezoidParams) -> PLLift:
    """The return-map lift of a trapezoid table.

    Branch slopes are 1/lam on [a1, a0] and lam on [a0, a1 + 1], anchored by
    F(a1) = -a1.  For tan_alpha = 0 this degenerates to the translation by
    2*ell/tan_theta.
    """
    if params.tan_alpha == 0:
        shift = 2 * params.ell / params.tan_theta
        zero = 0 * shift
        return make_lift((zero,), (_one_like(shift),), (zero, shift))
    a0, a1, lam = params.a0, params.a1, params.lam
    return make_lift((a1, a0), (1 / lam, lam), (a1, -a1))


def _one_like(x):
    return exact(1) if is_exact(x) else 1.0


def translation_lift(c) -> PLLift:
    zero = 0 * c
    return make_lift((zero,), (_one_like(c),), (zero, c))


def _normalize(L: PLLift, x):
    """Return (u, k) with u = x - k in the fundamental window."""
    k = floor_int(x - L.breaks[0])
    u = x - k
    # float rounding can push u onto the wrong side of the window
    if u < L.breaks[0]:
        k -= 1
        u = x - k
    elif u >= L.breaks[0] + 1:
        k += 1
        u = x - k
    return u, k


def lift_eval(L: PLLift, x):
    u, k = _normalize(L, x)
    i = L.piece_index(u)
    return L.values[i] + L.slopes[i] * (u - L.breaks[i]) + k


def lift_inverse(L: PLLift, y):
    v0 = L.values[0]
    k = floor_int(y - v0)
    w = y - k
    if w < v0:
        k -= 1
        w = y - k
    elif w >= v0 + 1:
        k += 1
        w = y - k
    i = bisect_right(L.values, w) - 1
    return L.breaks[i] + (w - L.values[i]) / L.slopes[i] + k


def lift_iter(L: PLLift, x, n: int):
    """n-fold iterate of the lift; negative n iterates the inverse."""
    step = lift_eval if n >= 0 else lift_inverse
    for i in range(abs(n)):
        x = step(L, x)
        if i % 64 == 63 and is_exact(x):
            guard_bits(x)
    return x


def derivative_at(L: PLLift, x, side: Optional[str] = None):
    """Slope of the active piece; at a genuine kink a side must be chosen.

    side=None raises BreakPoint there (carrying both one-sided slopes);
    side='left' / side='right' select the one-sided value.
    """
    u, _ = _normalize(L, x)
    i = L.piece_index(u)
    if u == L.breaks[i]:
        left = L.slopes[i - 1]
        right = L.slopes[i]
        if left != right:
            if side == "left":
                return left
            if side == "right":
                return right
            raise BreakPoint(x, left, right)
    return L.slopes[i]


def displacement_range(L: PLLift) -> Tuple[Scalar, Scalar]:
    """Min and max of F - id over the circle (attained at break points)."""
    disps = [L.values[i] - L.breaks[i] for i in range(len(L.breaks))]
    return min(disps), max(disps)


# ---------------------------------------------------------------------------
# Break-point calculus for powers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerPieces:
    """Sorted break points of F^q in one period, with per-piece data.

    disp[i] = F^q(break_i) - break_i - p for the p supplied at construction;
    slopes may be None when not requested.
    """

    q: int
    p: Scalar
    breaks: Tuple[Scalar, ...]
    disp: Tuple[Scalar, ...]
    slopes: Optional[Tuple[Scalar, ...]]


def power_break_data(L: PLLift, q: int, p=0, want_slopes: bool = True) -> PowerPieces:
    """Breaks of F^q with displacement values and (optionally) piece slopes.

    The breaks are the backward orbit segments of the base break points; the
    displacement at the k-th preimage of base break b needs only the forward
    and backward orbits of b, so the whole table costs O(q) lift evaluations
    per base break.  Piece slopes come from one direct chain-rule product on
    the first piece, then one multiplicative jump per break crossed.
    """
    if q < 1:
        raise NonPositive("q must be >= 1")
    tol = 0 if L.exact_mode else 1e-14

    positions: List = []
    disp_at: Dict = {}
    jump_at: Dict = {}

    for bi in range(len(L.breaks)):
        b = L.breaks[bi]
        jump = L.slopes[bi] / L.slopes[bi - 1]
        fwd = [b]
        for _ in range(q):
            fwd.append(lift_eval(L, fwd[-1]))
        back = b
        for k in range(q):
            u, _ = _normalize(L, back)
            key = u
            if key in disp_at:
                jump_at[key] = jump_at[key] * jump
            else:
                positions.append(key)
                disp_at[key] = fwd[q - k] - back - p
                jump_at[key] = jump
            back = lift_inverse(L, back)

    positions.sort()
    disp = tuple(disp_at[u] for u in positions)

    slopes = None
    if want_slopes:
        n = len(positions)
        if n == 1:
            mid = positions[0] + _half_like(positions[0])
        else:
            mid = (positions[0] + positions[1]) / 2
        s = _chain_slope(L, mid, q)
        out = [s]
        for i in range(1, n):
            s = s * jump_at[positions[i]]
            out.append(s)
        # closing consistency: crossing the first break again returns to out[0]
        closed = out[-1] * jump_at[positions[0]]
        if L.exact_mode:
            closes = closed == out[0]
        else:
            closes = abs(closed - out[0]) <= 1e-9 * abs(out[0]) + tol
        if not closes:
            raise InvariantViolation(
                f"slopes of F^{q} do not close up over a period: {closed} against {out[0]}"
            )
        slopes = tuple(out)

    return PowerPieces(q, p, tuple(positions), disp, slopes)


def _half_like(x):
    return exact(1, 2) if is_exact(x) else 0.5


def _chain_slope(L: PLLift, x, q: int):
    s = _one_like(L.values[0])
    for _ in range(q):
        s = s * derivative_at(L, x)
        x = lift_eval(L, x)
    return s


def power_lift(L: PLLift, q: int) -> PLLift:
    """Materialize F^q as a lift; meant for small q (tests, reports)."""
    data = power_break_data(L, q, 0, want_slopes=True)
    x0 = data.breaks[0]
    return make_lift(data.breaks, data.slopes, (x0, data.disp[0] + x0))


def circle_point(L: PLLift, x):
    """Representative of x in the fundamental window."""
    u, _ = _normalize(L, x)
    return u


def lift_to_json(L: PLLift) -> str:
    payload = {
        "breaks": [scalar_str(b) for b in L.breaks],
        "slopes": [scalar_str(s) for s in L.slopes],
        "anchor": [scalar_str(L.breaks[0]), scalar_str(L.values[0])],
    }
    return json.dumps(payload, sort_keys=True)


def lift_from_json(text: str) -> PLLift:
    from .scalar import parse_scalar

    obj = json.loads(text)
    breaks = tuple(parse_scalar(t) for t in obj["breaks"])
    slopes = tuple(parse_scalar(t) for t in obj["slopes"])
    ax, ay = (parse_scalar(t) for t in obj["anchor"])
    return make_lift(breaks, slopes, (ax, ay))
