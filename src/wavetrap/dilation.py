"""Directional dynamics on the genus-two dilation surface built from (m, s).

The return maps f embed into a two-parameter family g on the surface: g
uniformly expands an arc of length 1-m by lam = m/(1-m) and translates by
the direction coordinate s.  Affine self-maps of the surface act on s by
Mobius transformations generated by A = [[1,1],[0,1]] and B = [[1,0],[beta,1]]
with beta = 1/(m - m^2); reducing s into the fundamental interval J turns
almost every direction into one with a closed leaf, certified by an exact
fixed point of g.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .circle_map import PLLift, lift_eval, make_lift, translation_lift, trapezoid_lift
from .classify import fixed_set
from .errors import (
    ConjugacyFailed,
    DegenerateM,
    InvariantViolation,
    NegativeS,
    NotReducedError,
    ParameterError,
)
from .geometry import TrapezoidParams
from .rotation import Certified, Enclosure, compare_rho, farey_neighbours, parallel_map, rho_certify
from .scalar import Scalar, exact, exact_from_float, floor_int, is_exact, scalar_str, to_float


class _Infinity:
    """Projective infinity on the direction line; a unique sentinel."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()


def _norm_sign(a, b, c, d):
    for v in (a, b, c, d):
        if v != 0:
            return (a, b, c, d) if v > 0 else (-a, -b, -c, -d)
    raise ParameterError("zero matrix is not a Mobius transformation")


@dataclass(frozen=True)
class Mobius:
    """Projective 2x2 matrix; stored with its first nonzero entry positive."""

    a: Scalar
    b: Scalar
    c: Scalar
    d: Scalar

    def __post_init__(self):
        if self.a * self.d - self.b * self.c == 0:
            raise ParameterError("degenerate matrix: ad - bc = 0")

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def __mul__(self, o: "Mobius") -> "Mobius":
        return mobius(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def inv(self) -> "Mobius":
        det = self.det
        return mobius(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def __pow__(self, k: int) -> "Mobius":
        if k < 0:
            return self.inv() ** (-k)
        out = _identity_like(self.a)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def to_json(self) -> List[str]:
        return [scalar_str(v) for v in (self.a, self.b, self.c, self.d)]


def mobius(a, b, c, d) -> Mobius:
    return Mobius(*_norm_sign(a, b, c, d))


def mobius_apply(M: Mobius, s):
    """Projective evaluation (a*s + b)/(c*s + d); INFINITY in and out."""
    if s is INFINITY:
        return INFINITY if M.c == 0 else M.a / M.c
    den = M.c * s + M.d
    if den == 0:
        return INFINITY
    return (M.a * s + M.b) / den


def _identity_like(x) -> Mobius:
    one = exact(1) if is_exact(x) else 1.0
    return Mobius(one, 0 * one, 0 * one, one)


# ---------------------------------------------------------------------------
# Surface parameters, the expanding map g, and the exact conjugacy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceParams:
    m: Scalar
    s: Scalar
    beta: Scalar


def surface_params(params: TrapezoidParams) -> SurfaceParams:
    """(m, s) coordinates of a trapezoid table on the dilation surface."""
    if params.s < 0:
        raise NegativeS(
            f"s = {params.s} < 0: the surface correspondence covers s >= 0 only"
        )
    m = params.m
    return SurfaceParams(m, params.s, 1 / (m - m * m))


def g_lift(m, s) -> PLLift:
    """Lift of the surface return map: expand [0, 1-m] by lam, shift by s.

    At m = 1/2 the expansion disappears and g is the translation by s + 1/2.
    """
    if s is INFINITY:
        raise ParameterError("vertical direction: g is undefined at s = INFINITY")
    half = exact(1, 2) if is_exact(m) else 0.5
    if not half <= m < 2 * half:
        raise DegenerateM(f"m must lie in [1/2, 1); got {m}")
    if m == half:
        return translation_lift(s + half)
    lam = m / (1 - m)
    zero = 0 * m
    return make_lift((zero, 1 - m), (lam, 1 / lam), (zero, s + 1 - m))


def conjugacy_witness(params: TrapezoidParams, samples: int = 64, seed: int = 0):
    """The rotation constant c with g(x + c) = F(x) + c, plus the residual.

    c = -a0 sends the expanding-branch start a0 to 0.  The identity is then
    checked on both break points and a seeded batch of sample points; any
    nonzero exact residual (or float residual above 1e-9) raises, since the
    relation is an algebraic identity in the parameters, not an estimate.
    """
    sp = surface_params(params)
    G = g_lift(sp.m, sp.s)
    F = trapezoid_lift(params)
    c = -params.a0

    pts = [params.a0, params.a1, (params.a0 + params.a1) / 2]
    rng = random.Random(seed)
    exact_mode = params.exact_mode
    for _ in range(samples):
        num = rng.randrange(-(2**24), 2**24)
        pts.append(exact(num, 2**24) if exact_mode else num / 2**24)

    residual = 0 * params.a0
    for x in pts:
        r = abs(lift_eval(G, x + c) - (lift_eval(F, x) + c))
        if r > residual:
            residual = r
    if (exact_mode and residual != 0) or (not exact_mode and to_float(residual) > 1e-9):
        raise ConjugacyFailed(f"conjugacy residual {residual} at (m, s) = ({sp.m}, {sp.s})")
    return c, residual


def veech_generators(m) -> dict:
    """The three generators of the affine group's image in PSL(2, R)."""
    half = exact(1, 2) if is_exact(m) else 0.5
    if not half <= m < 2 * half:
        raise DegenerateM(f"m must lie in [1/2, 1); got {m}")
    one = exact(1) if is_exact(m) else 1.0
    beta = 1 / (m - m * m)
    return {
        "A": Mobius(one, one, 0 * one, one),
        "B": Mobius(one, 0 * one, beta, one),
        "negI": mobius(-one, 0 * one, 0 * one, -one),
    }


def fundamental_domain(m) -> Tuple[Scalar, Scalar]:
    """J = [1/(beta - 2), 1/2], the directions reachable from a.e. s."""
    half = exact(1, 2) if is_exact(m) else 0.5
    if not half < m < 2 * half:
        raise DegenerateM(f"need m strictly inside (1/2, 1); got {m}")
    beta = 1 / (m - m * m)
    return 1 / (beta - 2), half


# ---------------------------------------------------------------------------
# Reduction into the fundamental interval
# ---------------------------------------------------------------------------


# Integer matrices (a, b, c, d) by which the generators move a rotation
# number p/q of g, acting on the column (p, q): rho(A s) = H_A rho(s) and
# rho(B s) = H_B rho(s).  Both are parabolic; H_B fixes 1/2.  The law is the
# homology action of the affine self-maps, observed (not proved) to hold for
# every m tried; every use of it is checked by exact comparisons.
H_A = (1, 1, 0, 1)
H_B = (3, -1, 4, -1)


def _mat_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _h_power(g: str, k: int):
    """H_g^k by repeated squaring; negative k uses the adjugate (det 1)."""
    base = H_A if g == "A" else H_B
    if k < 0:
        a, b, c, d = base
        base, k = (d, -b, -c, a), -k
    out = (1, 0, 0, 1)
    while k:
        if k & 1:
            out = _mat_mul(out, base)
        base = _mat_mul(base, base)
        k >>= 1
    return out


@dataclass(frozen=True)
class Reduction:
    status: str  # reduced | not_reduced
    word: Tuple[Tuple[str, int], ...]
    matrix: Mobius
    s_in: Scalar
    s_out: object  # Scalar or INFINITY
    steps: int
    reason: str = ""
    homology: Tuple[int, int, int, int] = (1, 0, 0, 1)  # the word's product of H_A, H_B powers

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "word": [[g, k] for g, k in self.word],
            "matrix": self.matrix.to_json(),
            "homology": list(self.homology),
            "s_in": scalar_str(self.s_in),
            "s_out": "infinity" if self.s_out is INFINITY else scalar_str(self.s_out),
            "steps": self.steps,
            "reason": self.reason,
        }


def reduce_direction(m, s, cap: int = 10**4, raise_on_failure: bool = False) -> Reduction:
    """Drive s into J by A-translations and isometric-circle moves of B.

    One move per step: translate by A^-k into [-1/2, 1/2), apply a power of
    B on the negative side, of B^-1 on (0, left end of J).  B is parabolic,
    1/B^n(x) = 1/x + n*beta, so a whole chain hugging the fixed point 0
    collapses into one exact step; without that, directions near 0 need
    ~|1/x| single moves.  Membership in J is tested before normalizing,
    which keeps the right endpoint 1/2 fixed.  Orbits that revisit a value
    sit on a parabolic or limit-set direction and can never reach J; they
    come back not_reduced, as does hitting the cap.  Float inputs are
    converted to the exact dyadic rationals they denote.  Alongside the
    Mobius matrix the reduction multiplies up the integer matrix of the same
    word in H_A and H_B (Reduction.homology), which transport_rho uses.
    """
    if not is_exact(m):
        m = exact_from_float(to_float(m))
    if s is not INFINITY and not is_exact(s):
        s = exact_from_float(to_float(s))
    j_lo, j_hi = fundamental_domain(m)
    beta = 1 / (m - m * m)
    B = veech_generators(m)["B"]
    half = exact(1, 2)

    def ceil_int(v) -> int:
        return -floor_int(-v)

    cur = s
    M = _identity_like(m)
    H = (1, 0, 0, 1)
    word: List[Tuple[str, int]] = []
    visited = set()

    def push(g: str, k: int, mat: Mobius):
        nonlocal cur, M, H
        cur = mobius_apply(mat, cur)
        M = mat * M
        H = _mat_mul(_h_power(g, k), H)
        if word and word[-1][0] == g:
            word[-1] = (g, word[-1][1] + k)
        else:
            word.append((g, k))

    failure = "step cap exhausted"
    for steps in range(cap):
        if cur is not INFINITY and j_lo <= cur <= j_hi:
            if mobius_apply(M, s) != cur:
                raise InvariantViolation(f"word matrix does not send s={s} to {cur}")
            return Reduction("reduced", tuple(word), M, s, cur, steps, homology=H)
        if cur in visited:
            where = "infinity" if cur is INFINITY else scalar_str(cur)
            failure = f"revisited {where}: parabolic or limit-set direction"
            break
        visited.add(cur)
        if cur is INFINITY:
            push("B", 1, B)
            continue
        if cur == 0:
            failure = "parabolic fixed point 0"
            break
        k = floor_int(cur + half)
        if k != 0:
            push("A", -k, mobius(exact(1), exact(-k), exact(0), exact(1)))
        elif cur < 0:
            # exit [-1/2, 0) in one batch: need 1/cur + n*beta > -2
            n = max(1, ceil_int((-2 - 1 / cur) / beta))
            push("B", n, mobius(exact(1), exact(0), n * beta, exact(1)))
        else:
            # exit (0, j_lo) likewise: need 1/cur - n*beta < beta - 2
            n = max(1, floor_int((1 / cur - beta + 2) / beta) + 1)
            push("B", -n, mobius(exact(1), exact(0), -n * beta, exact(1)))
    else:
        steps = cap

    result = Reduction("not_reduced", tuple(word), M, s, cur, steps, failure, H)
    if raise_on_failure:
        raise NotReducedError(f"reduction failed for s={s}: {failure}")
    return result


def _integer_rho(m, s) -> Optional[int]:
    """The integer k inside the displacement range [s+1-m, s+m] of g, if any."""
    k = floor_int(s + m)
    return k if k >= s + 1 - m else None


def _pull_back(H, p: int, q: int) -> Optional[Tuple[int, int]]:
    """(p, q) moved by H^-1, in lowest terms with q > 0; None at q = 0."""
    a, b, c, d = H
    p, q = d * p - b * q, a * q - c * p  # adjugate: H^-1 up to the scalar det H
    if q == 0:
        return None
    g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
    return p // g, q // g


# Step cap of the reduction behind a transport.  Reductions at m = 5/8, 2/3
# and 3/4 take at most 45 steps on 600 directions with 40-bit denominators;
# near m = 1/2 they run to thousands of steps on ever larger rationals and
# can cost far more than the descent they would replace.
TRANSPORT_CAP = 64


def transport_rho(m, s) -> Optional[Tuple[int, int]]:
    """rho of g in direction s predicted from its reduction into J, or None.

    The reduced direction has an integer rotation number k; pulling (k, 1)
    back through the inverse of the word's homology matrix gives p/q.  The
    law is empirical, so the prediction is unchecked: None at m = 1/2, where
    g is a translation and J is empty, when the reduction fails within
    TRANSPORT_CAP steps, or when it lands without an integer rotation number.
    """
    if 2 * m == 1:
        return None
    red = reduce_direction(m, s, cap=TRANSPORT_CAP)
    if red.status != "reduced":
        return None
    k = _integer_rho(m, red.s_out)
    return None if k is None else _pull_back(red.homology, k, 1)


def _transported_certificate(L: PLLift, m, s, q_max: int):
    """rho_certify(L, q_max) decided from the transported p/q, or None.

    q <= q_max: one compare_rho at p/q that returns Equal certifies rho = p/q
    with that comparison's witness.  q > q_max: the F_{q_max} neighbours of
    p/q, compared Greater and Less, give the enclosure.  Both are exactly
    what the descent returns, since a certified p/q with q <= q_max and the
    Farey pair around rho at level q_max are unique; any other outcome gives
    None, and the caller runs the descent.
    """
    pred = transport_rho(m, s)
    if pred is None:
        return None
    p, q = pred
    if q <= q_max:
        c = compare_rho(L, p, q)
        return Certified(p, q, c.witness, c.numeric) if c.rel == 0 else None
    lo, hi = farey_neighbours(p, q, q_max)
    if (compare_rho(L, lo.numerator, lo.denominator).rel > 0
            and compare_rho(L, hi.numerator, hi.denominator).rel < 0):
        return Enclosure(lo, hi, q_max)
    return None


def closed_leaf_exists(m, s, q_max: int = 2000) -> dict:
    """Certificate for a closed leaf in direction s: a periodic point of g.

    When some integer k sits inside the displacement range [s+1-m, s+m] the
    fixed points of g - k are exact.  Otherwise, for exact input, the
    rotation number is first transported along the Veech-group word of the
    reduction (transport_rho) and checked with one exact comparison (two
    for an enclosure); if the reduction fails or a check does not hold, or
    the input is float, rotation-number certification descends the
    Stern-Brocot tree up to q_max and may come back unresolved.  Either
    route returns the same result; "decided_by" says which one did
    ("fixed-point", "transport" or "descent").
    """
    L = g_lift(m, s)
    k = _integer_rho(m, s)
    if k is not None:
        atoms = fixed_set(L, k, 1)
        return {
            "periodic": True,
            "p": k,
            "q": 1,
            "method": "fixed-point",
            "atoms": [a.to_json() for a in atoms],
            "decided_by": "fixed-point",
        }
    r = _transported_certificate(L, m, s, q_max) if is_exact(m) and is_exact(s) else None
    decided_by = "transport"
    if r is None:
        r = rho_certify(L, q_max)
        decided_by = "descent"
    if isinstance(r, Certified):
        return {
            "periodic": True,
            "p": r.p,
            "q": r.q,
            "method": r.kind,
            "decided_by": decided_by,
        }
    return {
        "periodic": None,
        "method": "enclosure",
        "lo": scalar_str(r.lo),
        "hi": scalar_str(r.hi),
        "q_max": q_max,
        "decided_by": decided_by,
    }


# ---------------------------------------------------------------------------
# Almost-every-direction rationality, at desk scale
# ---------------------------------------------------------------------------


def _experiment_sample(args):
    m, s, q_max, cap, escalations = args
    L = g_lift(m, s)
    r = rho_certify(L, q_max)
    certified = isinstance(r, Certified)
    red = reduce_direction(m, s, cap)
    out = {
        "s": scalar_str(s),
        "certified": certified,
        "reduced": red.status == "reduced",
        "word_length": len(red.word),
    }
    if certified:
        out["p"], out["q"] = r.p, r.q
    if red.status != "reduced":
        out["reduction_reason"] = red.reason
        return out

    leaf_reduced = closed_leaf_exists(m, red.s_out, q_max)
    if leaf_reduced["periodic"] is None:
        out["agreement"] = "unresolved"
        return out
    pred = _pull_back(red.homology, leaf_reduced["p"], leaf_reduced["q"])
    out["transported"] = list(pred) if pred else None
    for factor in escalations:
        if isinstance(r, Certified):
            break
        r = rho_certify(L, q_max * factor)
    out["agreement"] = _agreement(r, pred)
    return out


def _agreement(direct, pred) -> str:
    """Compare the transported p/q with the direct descent's result.

    A certificate agrees only with the same p/q.  An enclosure at level Q
    rules out every p/q with q <= Q and everything outside it, so a
    prediction there is a disagreement; one with q > Q strictly inside is
    consistent but unconfirmed.
    """
    if pred is None:
        return "disagree"
    p, q = pred
    if isinstance(direct, Certified):
        return "agree" if (direct.p, direct.q) == (p, q) else "disagree"
    if q > direct.q_max and direct.lo < exact(p, q) < direct.hi:
        return "unresolved"
    return "disagree"


def ae_rationality_experiment(
    m,
    n_samples: int,
    q_max: int = 500,
    seed: int = 0,
    s_range=(0, 10),
    cap: int = 10**4,
    escalations: Tuple[int, ...] = (4, 16),
    workers: Optional[int] = None,
) -> dict:
    """Sample directions, certify rationality, and cross-check the reduction.

    Directions are odd-numerator dyadics (denominator 2^20) drawn uniformly
    from the range.  Dyadic grids do brush the cusp orbits when beta is
    itself dyadic (m = 2/3 puts a few percent of them on the orbit of 0);
    those samples come back not_reduced and are counted, not hidden.  Each
    sample is certified directly by the Stern-Brocot descent and, when the
    reduction lands in J, the closed-leaf certificate of the reduced
    direction, pulled back along the word's homology matrix, must give the
    same p/q, escalating q_max before declaring a sample unresolved; a
    transported p/q that the direct result rules out is a disagreement.
    The report is a pure function of (m, n_samples, q_max, seed, s_range,
    cap).
    """
    if not is_exact(m):
        m = exact_from_float(to_float(m))
    s_lo, s_hi = s_range
    lo_i, hi_i = math.ceil(to_float(s_lo) * 2**19), math.floor(to_float(s_hi) * 2**19)
    if n_samples < 1 or lo_i >= hi_i:
        raise ParameterError(f"need n_samples >= 1 and a nonempty s range; got {n_samples}, {s_range}")
    rng = random.Random(seed)
    samples = [exact(2 * rng.randrange(lo_i, hi_i) + 1, 2**20) for _ in range(n_samples)]

    jobs = [(m, s, q_max, cap, escalations) for s in samples]
    rows = parallel_map(_experiment_sample, jobs, workers)

    n_cert = sum(1 for r in rows if r["certified"])
    n_red = sum(1 for r in rows if r["reduced"])
    agreements = [r.get("agreement") for r in rows if r["reduced"]]
    report = {
        "m": scalar_str(m),
        "n_samples": n_samples,
        "seed": seed,
        "q_max": q_max,
        "cap": cap,
        "s_range": [scalar_str(exact_from_float(to_float(s_lo))), scalar_str(exact_from_float(to_float(s_hi)))],
        "fraction_certified": n_cert / n_samples,
        "reduced": n_red,
        "not_reduced": n_samples - n_red,
        "agreement": {
            "agree": agreements.count("agree"),
            "disagree": agreements.count("disagree"),
            "unresolved": agreements.count("unresolved"),
        },
        "samples": rows,
    }
    return report
