import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetrap import circle_map
from wavetrap.circle_map import (
    derivative_at,
    displacement_range,
    lift_eval,
    lift_from_json,
    lift_inverse,
    lift_iter,
    lift_to_json,
    make_lift,
    power_break_data,
    power_lift,
    translation_lift,
    trapezoid_lift,
)
from wavetrap.errors import BreakPoint, InvariantViolation, NumericError, WavetrapError
from wavetrap.geometry import maas_params, trapezoid_params
from wavetrap.scalar import exact, to_float


def reference_lift():
    return trapezoid_lift(trapezoid_params(exact(1), exact(1), exact(4)))


def test_trapezoid_lift_reference_values():
    L = reference_lift()
    assert L.breaks == (exact(-3, 8), exact(1, 4))
    assert lift_eval(L, exact(0)) == exact(3, 5)
    assert lift_eval(L, exact(1, 4)) == exact(3, 4)
    assert lift_eval(L, exact(-3, 8)) == exact(3, 8)
    lo, hi = displacement_range(L)
    assert (lo, hi) == (exact(1, 2), exact(3, 4))


def test_lift_is_degree_one():
    L = reference_lift()
    for x in (exact(0), exact(1, 3), exact(-7, 5)):
        assert lift_eval(L, x + 1) == lift_eval(L, x) + 1
        assert lift_eval(L, x - 2) == lift_eval(L, x) - 2


def test_lift_inverse_round_trip():
    L = reference_lift()
    for x in (exact(0), exact(1, 8), exact(-3, 8), exact(5, 7)):
        assert lift_inverse(L, lift_eval(L, x)) == x


def test_lift_iter_composes():
    L = reference_lift()
    x = exact(0)
    step = x
    for _ in range(4):
        step = lift_eval(L, step)
    assert lift_iter(L, x, 4) == step
    assert lift_iter(L, x, 1) == exact(3, 5)
    assert lift_iter(L, lift_iter(L, x, 3), -3) == x


def test_make_lift_rejects_bad_data():
    with pytest.raises(WavetrapError):
        make_lift((exact(0), exact(1, 2)), (exact(-1), exact(2)), (exact(0), exact(0)))
    with pytest.raises(WavetrapError):
        # slopes average to the wrong total rise over one period
        make_lift((exact(0), exact(1, 2)), (exact(3), exact(3)), (exact(0), exact(0)))


def test_translation_lift():
    T = translation_lift(exact(2, 7))
    assert lift_eval(T, exact(1, 3)) == exact(1, 3) + exact(2, 7)
    assert displacement_range(T) == (exact(2, 7), exact(2, 7))


def test_derivative_at_sides():
    L = reference_lift()
    assert derivative_at(L, exact(0)) == exact(3, 5)
    assert derivative_at(L, exact(1, 4), side="left") == exact(3, 5)
    assert derivative_at(L, exact(1, 4), side="right") == exact(5, 3)
    with pytest.raises(BreakPoint):
        derivative_at(L, exact(1, 4))


def test_power_break_data_matches_brute_force():
    L = reference_lift()
    for q in (1, 2, 3, 5):
        pieces = power_break_data(L, q)
        assert len(pieces.breaks) == len(set(pieces.breaks))
        for b, d in zip(pieces.breaks, pieces.disp):
            assert lift_iter(L, b, q) - b == d
        Lq = power_lift(L, q)
        for b, sl in zip(pieces.breaks, pieces.slopes):
            mid = b + exact(1, 10**6)
            assert derivative_at(Lq, mid) == sl


def test_power_lift_is_the_iterate():
    L = reference_lift()
    L3 = power_lift(L, 3)
    for x in (exact(0), exact(1, 9), exact(-2, 5)):
        assert lift_eval(L3, x) == lift_iter(L, x, 3)


def test_resonant_fourth_power_is_translation():
    p = maas_params(exact(-1, 2), exact(9, 2))
    L = trapezoid_lift(p)
    pieces = power_break_data(L, 4, p=1)
    assert all(d == 0 for d in pieces.disp)
    assert all(sl == 1 for sl in pieces.slopes)


def test_json_round_trip():
    L = reference_lift()
    again = lift_from_json(lift_to_json(L))
    assert again == L
    T = translation_lift(0.25)
    back = lift_from_json(lift_to_json(T))
    assert to_float(lift_eval(back, 0.5)) == pytest.approx(0.75)


small_rational = st.fractions(min_value="-2", max_value=2)


@settings(max_examples=60, deadline=None)
@given(small_rational, st.integers(min_value=-3, max_value=3))
def test_degree_one_property(frac, k):
    L = reference_lift()
    x = exact(frac.numerator, frac.denominator)
    assert lift_eval(L, x + k) == lift_eval(L, x) + k


@settings(max_examples=60, deadline=None)
@given(small_rational, small_rational)
def test_strictly_increasing_property(fa, fb):
    L = reference_lift()
    a = exact(fa.numerator, fa.denominator)
    b = exact(fb.numerator, fb.denominator)
    if a == b:
        return
    lo, hi = (a, b) if a < b else (b, a)
    assert lift_eval(L, lo) < lift_eval(L, hi)


@pytest.mark.parametrize("lift", [reference_lift(), trapezoid_lift(trapezoid_params(1.0, 1.0, 4.0))],
                         ids=["exact", "float"])
def test_slope_closure_failure_is_a_typed_error(monkeypatch, lift):
    # a NaN chain-rule slope can close up in neither arithmetic; the check
    # must raise a typed error, not an assert that python -O strips
    monkeypatch.setattr(circle_map, "_chain_slope", lambda L, x, q: float("nan"))
    with pytest.raises(InvariantViolation) as err:
        power_break_data(lift, 5, 2, want_slopes=True)
    assert isinstance(err.value, NumericError)
