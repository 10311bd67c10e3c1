import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetrap.circle_map import power_lift, translation_lift, trapezoid_lift
from wavetrap import rotation
from wavetrap.dilation import g_lift
from wavetrap.errors import InvariantViolation, MonotoneViolation, NumericError, ParameterError
from wavetrap.families import family_from_name
from wavetrap.geometry import maas_params, trapezoid_params
from wavetrap.rotation import (
    Certified,
    Enclosure,
    assert_monotone,
    compare_rho,
    farey_neighbours,
    rho_certify,
    rho_estimate,
    rho_value,
    staircase,
)
from wavetrap.scalar import exact, to_float


def test_translation_rational_is_certified():
    r = rho_certify(translation_lift(exact(3, 7)), q_max=10)
    assert isinstance(r, Certified)
    assert (r.p, r.q) == (3, 7)
    assert rho_value(r) == exact(3, 7)


def test_translation_high_denominator_yields_enclosure():
    r = rho_certify(translation_lift(exact(355, 1130)), q_max=100)
    assert isinstance(r, Enclosure)
    assert r.lo < exact(355, 1130) < r.hi
    # endpoints are Farey neighbours of order q_max
    assert r.hi.numerator * r.lo.denominator - r.lo.numerator * r.hi.denominator == 1
    assert max(r.lo.denominator, r.hi.denominator) <= 100


def test_resonant_trapezoid_quarter():
    L = trapezoid_lift(maas_params(exact(-1, 2), exact(9, 2)))
    r = rho_certify(L, q_max=10)
    assert isinstance(r, Certified)
    assert (r.p, r.q) == (1, 4)
    assert not r.numeric


def test_reference_trapezoid_enclosure():
    L = trapezoid_lift(trapezoid_params(exact(1), exact(1), exact(4)))
    r = rho_certify(L, q_max=2000)
    assert isinstance(r, Enclosure)
    assert exact(1, 2) < r.lo <= r.hi < exact(3, 4)
    # every rational with denominator <= q_max was excluded, so the gap is tiny
    assert to_float(r.hi - r.lo) < 1e-5


def test_compare_rho_signs():
    L = trapezoid_lift(maas_params(exact(-1, 2), exact(9, 2)))
    assert compare_rho(L, 1, 4).rel == 0
    assert compare_rho(L, 1, 5).rel == 1
    assert compare_rho(L, 1, 3).rel == -1


def test_compare_is_antisymmetric_around_value():
    L = trapezoid_lift(trapezoid_params(exact(1), exact(1), exact(4)))
    r = rho_certify(L, q_max=50)
    lo, hi = r.interval()
    below = compare_rho(L, lo.numerator - 1, lo.denominator)
    above = compare_rho(L, hi.numerator + 1, hi.denominator)
    assert below.rel == 1 and above.rel == -1


def test_power_multiplies_rho():
    L = trapezoid_lift(maas_params(exact(-1, 2), exact(9, 2)))
    L2 = power_lift(L, 2)
    r = rho_certify(L2, q_max=10)
    assert rho_value(r) == exact(1, 2)


def test_rho_estimate_brackets_certified():
    L = trapezoid_lift(trapezoid_params(exact(1), exact(1), exact(4)))
    est = rho_estimate(L, 500)
    cert = rho_certify(L, q_max=500)
    lo, hi = cert.interval()
    assert to_float(est.lo) <= to_float(hi) and to_float(est.hi) >= to_float(lo)


@settings(max_examples=25, deadline=None)
@given(st.fractions(min_value="0", max_value="1", max_denominator=64))
def test_translation_rho_is_the_constant(frac):
    c = exact(frac.numerator, frac.denominator)
    r = rho_certify(translation_lift(c), q_max=max(frac.denominator, 2))
    assert rho_value(r) == c


def test_staircase_monotone_and_certified():
    fam = family_from_name("maas-tau", d=exact(0))
    recs = staircase(fam, exact(2), exact(3), samples=21, q_max=200)
    assert len(recs) == 21
    assert all(rec.result is not None for rec in recs)
    assert assert_monotone(recs, increasing=fam.increasing) == len(recs) - 1
    values = [rho_value(rec.result) for rec in recs if isinstance(rec.result, Certified)]
    assert exact(2, 3) in values


def test_monotone_violation_detected():
    fam = family_from_name("maas-tau", d=exact(0))
    recs = staircase(fam, exact(2), exact(3), samples=9, q_max=100)
    shuffled = list(reversed(recs))
    with pytest.raises(MonotoneViolation):
        assert_monotone(shuffled, increasing=fam.increasing)


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.integers(2, 60), st.integers(1, 40))
def test_farey_neighbours_match_brute_force(p, q, q_max):
    if q <= q_max or math.gcd(p, q) != 1:
        with pytest.raises(ParameterError):
            farey_neighbours(p, q, q_max)
        return
    x = Fraction(p, q)
    below = max(Fraction(math.ceil(x * b) - 1, b) for b in range(1, q_max + 1))
    above = min(Fraction(math.floor(x * b) + 1, b) for b in range(1, q_max + 1))
    assert farey_neighbours(p, q, q_max) == (below, above)


def test_compare_rho_root_check_is_a_typed_error(monkeypatch):
    # rho = 103/91 here, witnessed by a sign change inside a piece
    L = g_lift(exact(5, 8), exact(683, 1024))
    assert compare_rho(L, 103, 91).rel == 0
    monkeypatch.setattr(rotation, "lift_iter", lambda L, x, n: x + 1)
    with pytest.raises(InvariantViolation) as err:
        compare_rho(L, 103, 91)
    assert isinstance(err.value, NumericError)


def test_integer_bracket_failure_is_a_typed_error(monkeypatch):
    L = g_lift(exact(5, 8), exact(683, 1024))
    monkeypatch.setattr(rotation, "displacement_range", lambda L: (exact(7), exact(8)))
    with pytest.raises(InvariantViolation):
        rho_certify(L, 50)
