import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavetrap.errors import (
    ExtraConditionViolated,
    InvalidTable,
    NonPositive,
    ParameterError,
    ParameterOrder,
)
from wavetrap.geometry import (
    maas_coords,
    maas_params,
    parabola_table,
    table_from_json,
    tent_table,
    trapezoid_params,
    unfold_trapezoid,
    validate_table,
)
from wavetrap.scalar import exact, is_exact, to_float

pos_rational = st.fractions(min_value="1/100", max_value=100)


def test_reference_point_derived_fields():
    p = trapezoid_params(exact(1), exact(1), exact(4))
    assert p.a0 == exact(1, 4)
    assert p.a1 == exact(-3, 8)
    assert p.lam == exact(5, 3)
    assert p.m == exact(5, 8)
    assert p.s == exact(1, 8)
    assert p.exact_mode and p.extra_condition


def test_degenerate_resonant_point():
    p = maas_params(exact(-1, 2), exact(9, 2))
    assert (p.ell, p.tan_alpha, p.tan_theta) == (exact(1, 2), exact(3), exact(9))
    assert p.a0 == exact(4, 9)
    assert p.a1 == exact(-2, 9)
    assert p.m == exact(2, 3)


def test_parameter_order_enforced():
    with pytest.raises(ParameterOrder):
        trapezoid_params(exact(1), exact(2), exact(1))
    with pytest.raises(NonPositive):
        trapezoid_params(exact(0), exact(1), exact(2))
    with pytest.raises(NonPositive):
        maas_params(exact(0), exact(-1))


def test_extra_condition_gate():
    with pytest.raises(ExtraConditionViolated):
        trapezoid_params(exact(1), exact(1), exact(2))
    p = trapezoid_params(exact(1), exact(1), exact(2), require_extra=False)
    assert not p.extra_condition
    assert p.a1 < exact(-1, 2)


def test_maas_coords_round_trip():
    d, tau = exact(3, 10), exact(7, 3)
    p = maas_params(d, tau, require_extra=False)
    assert maas_coords(p) == (d, tau)
    off_slice = trapezoid_params(exact(1), exact(1), exact(4))
    with pytest.raises(ParameterError):
        maas_coords(off_slice)


@given(pos_rational, pos_rational, pos_rational)
def test_trapezoid_param_identities(ell, a, extra):
    ta = exact(a.numerator, a.denominator)
    tt = ta + exact(extra.numerator, extra.denominator)
    el = exact(ell.numerator, ell.denominator)
    p = trapezoid_params(el, ta, tt, require_extra=False)
    assert p.m == p.a0 - p.a1
    assert exact(1, 2) < p.m < exact(1)
    assert p.lam == p.m / (1 - p.m)
    assert p.s == 2 * el / tt + p.m - 1


def test_tent_table_profile():
    t = tent_table(exact(1), exact(1))
    assert t.b(exact(0)) == exact(3, 2)
    assert t.b(exact(-1, 2)) == exact(1)
    assert t.b_min == exact(1)
    assert t.b_max == exact(3, 2)
    assert t.strictly_concave and t.piecewise_linear
    diag = validate_table(t.profile)
    assert diag.ok and diag.even and diag.concave


def test_unfold_matches_tent():
    p = trapezoid_params(exact(1), exact(1), exact(4))
    t = unfold_trapezoid(p)
    assert t.b(exact(-1, 2)) == p.ell
    assert t.b(exact(0)) == p.ell + p.tan_alpha / 2
    assert t.tan_alpha_max == p.tan_alpha


def test_parabola_table_is_strictly_concave():
    t = parabola_table(2, -1)
    assert t.strictly_concave
    assert t.b_max == pytest.approx(2.0)
    assert t.b_min == pytest.approx(1.75)
    assert t.tan_alpha_max == pytest.approx(1.0)


def test_validate_table_rejects_nonconcave():
    with pytest.raises(InvalidTable):
        table_from_json({"type": "poly", "coeffs": [1.0, 0.0, 0.5]})
    with pytest.raises(InvalidTable):
        table_from_json({"type": "pl", "vertices": [["-1/2", "1"], ["0", "1/2"], ["1/2", "1"]]})


def test_table_from_json_kinds():
    tent = table_from_json(json.dumps({"type": "tent", "ell": "2/3", "tan_alpha": "1/3"}))
    assert is_exact(tent.b(exact(0)))
    poly = table_from_json({"type": "poly", "coeffs": [2.0, 0.0, -1.0]})
    assert to_float(poly.b(0.5)) == pytest.approx(1.75)
    with pytest.raises(ParameterError):
        table_from_json({"type": "moebius"})


def test_stored_slope_ratio_equals_the_sine_form():
    rng = random.Random(0xC1C1)
    for _ in range(32):
        alpha = rng.uniform(0.01, 0.7)
        theta = rng.uniform(alpha + 0.05, 1.5)
        lam = trapezoid_params(1.0, math.tan(alpha), math.tan(theta), require_extra=False).lam
        sine_form = math.sin(theta + alpha) / math.sin(theta - alpha)
        assert abs(lam - sine_form) <= 1e-12 * max(1.0, abs(sine_form)), (alpha, theta)
