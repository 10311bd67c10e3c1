import xml.etree.ElementTree as ET

import pytest

from wavetrap.circle_map import lift_eval, lift_iter, trapezoid_lift
from wavetrap.errors import NonTransversal
from wavetrap.geometry import parabola_table, trapezoid_params, unfold_trapezoid
from wavetrap.scalar import exact, to_float
from wavetrap.tracer import (
    empirical_derivative,
    first_return,
    first_return_lift,
    return_map_slope,
    table_lift,
    trace_segments,
    trace_svg,
)


def reference():
    p = trapezoid_params(exact(1), exact(1), exact(4))
    return p, unfold_trapezoid(p)


def test_table_lift_equals_trapezoid_lift():
    p, table = reference()
    L_geom = table_lift(table, p.tan_theta)
    L_alg = trapezoid_lift(p)
    assert L_geom == L_alg


def test_first_return_matches_lift_exactly():
    p, table = reference()
    L = trapezoid_lift(p)
    for x in (exact(0), exact(1, 3), exact(-2, 7), exact(9, 8)):
        assert first_return_lift(table, x, p.tan_theta) == lift_eval(L, x)


def test_first_return_on_a_tall_table():
    # the beam climbs about three periods before its first hit
    p = trapezoid_params(exact(6), exact(1), exact(2), require_extra=False)
    table = unfold_trapezoid(p)
    L = trapezoid_lift(p)
    for x in (exact(0), exact(1, 3), exact(-5, 11)):
        assert first_return_lift(table, x, p.tan_theta) == lift_eval(L, x)


def test_first_return_folds_into_the_section():
    p, table = reference()
    y = first_return(table, exact(0), p.tan_theta)
    assert exact(-1, 2) <= y < exact(1, 2)
    assert y == exact(3, 5) - 1


def test_trace_log_counts_wraps():
    p, table = reference()
    L = trapezoid_lift(p)
    n = 12
    segs, log = trace_segments(table, exact(0), p.tan_theta, n)
    assert len(log.returns) == n + 1
    assert len(log.hits) == n
    # total winding telescopes to the strip crossings of the n-fold iterate
    end = lift_iter(L, exact(0), n)
    assert sum(log.wraps) == int(to_float(end + exact(1, 2)) // 1)
    assert segs
    for (xa, ya), (xb, yb) in segs:
        for x in (xa, xb):
            assert -0.5 - 1e-12 <= x <= 0.5 + 1e-12


def test_trace_rejects_shallow_direction():
    p, table = reference()
    with pytest.raises(NonTransversal):
        first_return_lift(table, exact(0), exact(1, 2))


def test_smooth_table_return_and_slope():
    table = parabola_table(2, -1)
    t = 15 / 8
    x1 = first_return_lift(table, 0.1, t)
    assert 0.1 < x1
    slope = return_map_slope(table, 0.1, t)
    emp = empirical_derivative(table, 0.1, t)
    assert slope == pytest.approx(emp, rel=1e-4)


def test_trace_svg_parses():
    p, table = reference()
    svg = trace_svg(table, exact(0), p.tan_theta, 8)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    names = {el.tag.split("}")[-1] for el in root.iter()}
    assert "line" in names or "polyline" in names or "path" in names
