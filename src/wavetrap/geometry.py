"""Table parameters and boundary profiles.

A trapezoid table is described by (ell, tan_alpha, tan_theta): half-width is
normalized to 1/2, ell is the height of the vertical sides, tan_alpha the
slant of the top, tan_theta the trajectory slope.  The derived quantities:

  a0  abscissa on the section whose trajectory hits the top corner,
  a1  abscissa whose trajectory hits the apex of the unfolded top,
  lam ratio of the two return-map branch slopes (the expanding one),
  m   distance a0 - a1, the break separation,
  s   direction coordinate on the dilation surface.

The general-table path carries a boundary profile b on [-1/2, 1/2] instead:
even, positive, concave, non-increasing on the right half.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Tuple

from .errors import (
    ExtraConditionViolated,
    InvalidTable,
    NonPositive,
    ParameterError,
    ParameterOrder,
)
from .scalar import Scalar, exact, is_exact, to_float


@dataclass(frozen=True)
class TrapezoidParams:
    ell: Scalar
    tan_alpha: Scalar
    tan_theta: Scalar
    a0: Scalar
    a1: Scalar
    lam: Scalar
    m: Scalar
    s: Scalar

    @property
    def exact_mode(self) -> bool:
        return is_exact(self.ell) and is_exact(self.tan_alpha) and is_exact(self.tan_theta)

    @property
    def extra_condition(self) -> bool:
        return self.tan_theta >= 2 * self.ell + self.tan_alpha


def trapezoid_params(ell, tan_alpha, tan_theta, require_extra: bool = True) -> TrapezoidParams:
    """Validate a parameter triple and fill in the derived quantities.

    With require_extra (default) the branch-layout condition
    tan_theta >= 2*ell + tan_alpha is enforced, which pins a1 into (-1/2, 0).
    Callers working through the tracer may pass require_extra=False; the
    derived fields are still meaningful, a1 merely leaves that window.
    """
    if ell <= 0 or tan_alpha < 0 or tan_theta <= 0:
        raise NonPositive(
            f"need ell > 0, tan_alpha >= 0, tan_theta > 0; got ({ell}, {tan_alpha}, {tan_theta})"
        )
    if tan_alpha >= tan_theta:
        raise ParameterOrder(f"need tan_alpha < tan_theta; got {tan_alpha} >= {tan_theta}")
    if require_extra and tan_theta < 2 * ell + tan_alpha:
        raise ExtraConditionViolated(
            f"tan_theta={tan_theta} < 2*ell + tan_alpha = {2 * ell + tan_alpha}"
        )
    two_t = 2 * tan_theta
    a0 = (tan_theta - 2 * ell) / two_t
    a1 = -(2 * ell + tan_alpha) / two_t
    lam = (tan_theta + tan_alpha) / (tan_theta - tan_alpha)
    m = a0 - a1
    s = 2 * ell / tan_theta + m - 1
    return TrapezoidParams(ell, tan_alpha, tan_theta, a0, a1, lam, m, s)


def maas_params(d, tau, require_extra: bool = True) -> TrapezoidParams:
    """Two-parameter laboratory slice: ell = 1+d, tan_alpha = 2(1-d), tan_theta = 2*tau."""
    if not (-1 < d < 1):
        raise ParameterError(f"d must lie in (-1, 1); got {d}")
    if tau <= 0:
        raise NonPositive(f"tau must be positive; got {tau}")
    return trapezoid_params(1 + d, 2 * (1 - d), 2 * tau, require_extra=require_extra)


def maas_coords(params: TrapezoidParams) -> Tuple[Scalar, Scalar]:
    """Inverse of maas_params on its image; rejects triples off the slice."""
    d = params.ell - 1
    if params.tan_alpha != 2 * (1 - d):
        raise ParameterError("parameters do not lie on the (d, tau) slice")
    if is_exact(params.tan_theta):
        tau = params.tan_theta / exact(2)
    else:
        tau = params.tan_theta / 2
    return d, tau


# ---------------------------------------------------------------------------
# Boundary profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PLProfile:
    """Piecewise-linear profile given by vertices on [-1/2, 1/2]."""

    xs: Tuple[Scalar, ...]
    ys: Tuple[Scalar, ...]

    def value(self, x):
        xs, ys = self.xs, self.ys
        if x <= xs[0]:
            return ys[0]
        for i in range(len(xs) - 1):
            if x <= xs[i + 1]:
                t = (x - xs[i]) / (xs[i + 1] - xs[i])
                return ys[i] + t * (ys[i + 1] - ys[i])
        return ys[-1]

    def segment_slopes(self):
        return tuple(
            (self.ys[i + 1] - self.ys[i]) / (self.xs[i + 1] - self.xs[i])
            for i in range(len(self.xs) - 1)
        )


@dataclass(frozen=True)
class PolyProfile:
    """Polynomial profile b(x) = sum coeffs[i] * x**i, evaluated in floats."""

    coeffs: Tuple[float, ...]

    def value(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deriv(self, x: float) -> float:
        acc = 0.0
        n = len(self.coeffs)
        for i in range(n - 1, 0, -1):
            acc = acc * x + i * self.coeffs[i]
        return acc


Profile = object  # PLProfile | PolyProfile; kept loose on purpose


@dataclass(frozen=True)
class GeneralTable:
    profile: Profile
    tan_alpha_max: Scalar
    strictly_concave: bool

    @property
    def alpha_M(self) -> float:
        """Angle of the steepest boundary slope, in radians."""
        return math.atan(to_float(self.tan_alpha_max))

    @property
    def piecewise_linear(self) -> bool:
        return isinstance(self.profile, PLProfile)

    def b(self, x):
        return self.profile.value(x)

    @property
    def b_min(self):
        return self.profile.value(exact(1, 2) if self._exact else 0.5)

    @property
    def b_max(self):
        return self.profile.value(exact(0) if self._exact else 0.0)

    @property
    def _exact(self) -> bool:
        return isinstance(self.profile, PLProfile) and is_exact(self.profile.xs[0])


@dataclass(frozen=True)
class TableDiagnostics:
    ok: bool
    even: bool
    positive: bool
    concave: bool
    strictly_concave: bool
    nonincreasing_right: bool
    tan_alpha_max: Scalar
    reasons: Tuple[str, ...]


def validate_table(profile, samples: int = 257) -> TableDiagnostics:
    """Check the profile against the standing assumptions; purely diagnostic."""
    reasons = []
    if isinstance(profile, PLProfile):
        xs, ys = profile.xs, profile.ys
        even = all(xs[i] == -xs[len(xs) - 1 - i] for i in range(len(xs))) and all(
            ys[i] == ys[len(ys) - 1 - i] for i in range(len(ys))
        )
        positive = all(y > 0 for y in ys)
        slopes = profile.segment_slopes()
        concave = all(slopes[i + 1] <= slopes[i] for i in range(len(slopes) - 1))
        strictly = all(slopes[i + 1] < slopes[i] for i in range(len(slopes) - 1))
        noninc = all(s <= 0 for i, s in enumerate(slopes) if xs[i] >= 0)
        tan_alpha_max = max(abs(s) for s in slopes)
    elif isinstance(profile, PolyProfile):
        even = all(c == 0 for c in profile.coeffs[1::2])
        grid = [i / (samples - 1) - 0.5 for i in range(samples)]
        vals = [profile.value(x) for x in grid]
        ders = [profile.deriv(x) for x in grid]
        positive = all(v > 0 for v in vals)
        concave = all(ders[i + 1] <= ders[i] + 1e-12 for i in range(samples - 1))
        strictly = all(ders[i + 1] < ders[i] for i in range(samples - 1))
        noninc = all(d <= 1e-12 for x, d in zip(grid, ders) if x >= 0)
        tan_alpha_max = abs(profile.deriv(0.5))
    else:
        raise InvalidTable(f"unknown profile type {type(profile)!r}")

    if not even:
        reasons.append("profile is not even")
    if not positive:
        reasons.append("profile is not positive")
    if not concave:
        reasons.append("profile is not concave")
    if not noninc:
        reasons.append("profile increases on the right half")
    ok = even and positive and concave and noninc
    return TableDiagnostics(ok, even, positive, concave, strictly, noninc, tan_alpha_max, tuple(reasons))


def general_table(profile) -> GeneralTable:
    """Wrap a validated profile; raises InvalidTable with the failed checks."""
    diag = validate_table(profile)
    if not diag.ok:
        raise InvalidTable("; ".join(diag.reasons))
    return GeneralTable(profile, diag.tan_alpha_max, diag.strictly_concave)


def tent_table(ell, tan_alpha) -> GeneralTable:
    """Unfolded trapezoid: the tent profile b(x) = ell + (1/2 - |x|) tan_alpha."""
    if ell <= 0 or tan_alpha < 0:
        raise NonPositive(f"need ell > 0 and tan_alpha >= 0; got ({ell}, {tan_alpha})")
    if is_exact(ell) and is_exact(tan_alpha):
        half = exact(1, 2)
    else:
        half = 0.5
    apex = ell + half * tan_alpha
    profile = PLProfile(xs=(-half, 0 * half, half), ys=(ell, apex, ell))
    return general_table(profile)


def unfold_trapezoid(params: TrapezoidParams) -> GeneralTable:
    return tent_table(params.ell, params.tan_alpha)


def parabola_table(c0, c2) -> GeneralTable:
    """Profile b(x) = c0 + c2 * x**2 (c2 < 0 for strict concavity)."""
    return general_table(PolyProfile((float(c0), 0.0, float(c2))))


def table_from_json(text_or_obj) -> GeneralTable:
    """Build a table from a JSON descriptor.

    {"type": "pl", "vertices": [[x, y], ...]}         exact if entries are strings
    {"type": "poly", "coeffs": [c0, c1, ...]}
    {"type": "tent", "ell": ..., "tan_alpha": ...}
    """
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    kind = obj.get("type")
    if kind == "pl":
        xs = []
        ys = []
        for x, y in obj["vertices"]:
            xs.append(exact(x) if isinstance(x, (str, int)) else float(x))
            ys.append(exact(y) if isinstance(y, (str, int)) else float(y))
        return general_table(PLProfile(tuple(xs), tuple(ys)))
    if kind == "poly":
        return general_table(PolyProfile(tuple(float(c) for c in obj["coeffs"])))
    if kind == "tent":
        ell = obj["ell"]
        ta = obj["tan_alpha"]
        conv = lambda v: exact(v) if isinstance(v, (str, int)) else float(v)
        return tent_table(conv(ell), conv(ta))
    raise InvalidTable(f"unknown table type {kind!r}")
