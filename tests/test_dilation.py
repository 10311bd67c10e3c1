import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetrap import dilation
from wavetrap.circle_map import lift_eval
from wavetrap.dilation import (
    INFINITY,
    Mobius,
    ae_rationality_experiment,
    closed_leaf_exists,
    conjugacy_witness,
    fundamental_domain,
    g_lift,
    mobius,
    mobius_apply,
    reduce_direction,
    surface_params,
    transport_rho,
    veech_generators,
)
from wavetrap.errors import (
    DegenerateM,
    InvariantViolation,
    NegativeS,
    NotReducedError,
    NumericError,
    ParameterError,
)
from wavetrap.geometry import trapezoid_params
from wavetrap.rotation import Certified, rho_certify, rho_value
from wavetrap.scalar import exact, scalar_str, to_float


def reference_params():
    return trapezoid_params(exact(1), exact(1), exact(4))


def test_surface_params_reference_point():
    sp = surface_params(reference_params())
    assert sp.m == exact(5, 8)
    assert sp.s == exact(1, 8)
    assert sp.beta == exact(64, 15)


def test_surface_params_rejects_negative_s():
    p = trapezoid_params(exact(1, 2), exact(3), exact(9), require_extra=False)
    assert p.s == exact(-2, 9)
    with pytest.raises(NegativeS):
        surface_params(p)


def test_g_lift_anchor_and_breaks():
    G = g_lift(exact(5, 8), exact(1, 8))
    assert G.breaks == (exact(0), exact(3, 8))
    assert lift_eval(G, exact(0)) == exact(1, 2)
    assert lift_eval(G, exact(3, 8)) == exact(9, 8)
    assert lift_eval(G, exact(1)) == exact(3, 2)
    assert G.slopes == (exact(5, 3), exact(3, 5))


def test_g_lift_half_is_translation():
    G = g_lift(exact(1, 2), exact(1, 3))
    assert G.slopes == (exact(1),)
    assert lift_eval(G, exact(0)) == exact(1, 3) + exact(1, 2)


def test_g_lift_domain_guard():
    with pytest.raises(DegenerateM):
        g_lift(exact(1), exact(0))
    with pytest.raises(DegenerateM):
        g_lift(exact(1, 3), exact(0))


def test_conjugacy_is_exact_on_exact_input():
    c, residual = conjugacy_witness(reference_params(), samples=48, seed=3)
    assert c == exact(-1, 4)
    assert residual == 0


def test_conjugate_maps_share_rho():
    p = reference_params()
    sp = surface_params(p)
    from wavetrap.circle_map import trapezoid_lift

    rf = rho_certify(trapezoid_lift(p), q_max=60)
    rg = rho_certify(g_lift(sp.m, sp.s), q_max=60)
    assert rf.interval() == rg.interval()


def test_veech_generators():
    gens = veech_generators(exact(5, 8))
    A, B, negI = gens["A"], gens["B"], gens["negI"]
    assert (A.a, A.b, A.c, A.d) == (1, 1, 0, 1)
    assert (B.a, B.b, B.c, B.d) == (1, 0, exact(64, 15), 1)
    assert A.det == B.det == 1
    # -I normalizes to the identity in PSL(2, R)
    assert negI == mobius(exact(1), exact(0), exact(0), exact(1))


def test_fundamental_domain_values():
    assert fundamental_domain(exact(5, 8)) == (exact(15, 34), exact(1, 2))
    assert fundamental_domain(exact(2, 3)) == (exact(2, 5), exact(1, 2))
    with pytest.raises(DegenerateM):
        fundamental_domain(exact(1, 2))


def test_fundamental_domain_sits_inside_break_gap():
    for num in range(52, 99):
        m = exact(num, 100)
        j_lo, j_hi = fundamental_domain(m)
        assert 1 - m <= j_lo < j_hi <= m


def test_mobius_normalization_and_inverse():
    M = mobius(exact(-2), exact(4), exact(0), exact(-2))
    assert (M.a, M.b, M.c, M.d) == (2, -4, 0, 2)
    I = M * M.inv()
    assert (I.a, I.b, I.c, I.d) == (1, 0, 0, 1)
    with pytest.raises(ParameterError):
        mobius(exact(1), exact(2), exact(2), exact(4))


def test_mobius_apply_handles_infinity():
    M = mobius(exact(2), exact(1), exact(1), exact(1))
    assert mobius_apply(M, INFINITY) == exact(2)
    T = mobius(exact(1), exact(5), exact(0), exact(1))
    assert mobius_apply(T, INFINITY) is INFINITY
    down = mobius(exact(0), exact(1), exact(1), exact(0))
    assert mobius_apply(down, exact(0)) is INFINITY


small_entries = st.integers(min_value=-9, max_value=9)


@settings(max_examples=80, deadline=None)
@given(small_entries, small_entries, small_entries, small_entries,
       small_entries, small_entries, small_entries, small_entries,
       st.fractions(min_value="-4", max_value=4, max_denominator=40))
def test_mobius_composition_property(a, b, c, d, e, f, g, h, x):
    if a * d - b * c == 0 or e * h - f * g == 0:
        return
    M = mobius(exact(a), exact(b), exact(c), exact(d))
    N = mobius(exact(e), exact(f), exact(g), exact(h))
    s = exact(x.numerator, x.denominator)
    lhs = mobius_apply(M * N, s)
    rhs = mobius_apply(M, mobius_apply(N, s))
    if lhs is INFINITY or rhs is INFINITY:
        assert lhs is rhs
    else:
        assert lhs == rhs


def test_reduce_inside_domain_is_trivial():
    red = reduce_direction(exact(5, 8), exact(29, 64))
    assert red.status == "reduced"
    assert red.word == ()
    assert red.s_out == exact(29, 64)


def test_reduce_translates_first():
    red = reduce_direction(exact(5, 8), exact(157, 64))
    assert red.status == "reduced"
    assert red.word == (("A", -2),)
    assert red.s_out == exact(29, 64)
    assert mobius_apply(red.matrix, red.s_in) == red.s_out


def test_reduce_uses_parabolic_batch():
    red = reduce_direction(exact(5, 8), exact(13, 64))
    assert red.status == "reduced"
    j_lo, j_hi = fundamental_domain(exact(5, 8))
    assert j_lo <= red.s_out <= j_hi
    assert mobius_apply(red.matrix, red.s_in) == red.s_out
    assert any(gen == "B" for gen, _ in red.word)


def test_reduce_detects_cusp_orbit():
    red = reduce_direction(exact(5, 8), exact(-1, 8))
    assert red.status == "not_reduced"
    assert red.reason
    with pytest.raises(NotReducedError):
        reduce_direction(exact(5, 8), exact(-1, 8), raise_on_failure=True)


def test_reduce_accepts_floats_via_exact_conversion():
    red = reduce_direction(0.625, 0.203125)
    assert red.status == "reduced"
    assert mobius_apply(red.matrix, red.s_in) == red.s_out


def test_closed_leaf_fixed_point_branch():
    report = closed_leaf_exists(exact(5, 8), exact(15, 32))
    assert report["periodic"] is True
    assert (report["p"], report["q"]) == (1, 1)
    assert report["method"] == "fixed-point"
    assert report["atoms"]


def test_closed_leaf_certified_branch():
    report = closed_leaf_exists(exact(5, 8), exact(7, 3), q_max=500)
    assert report["method"] in ("certified", "enclosure")
    if report["method"] == "certified":
        assert report["periodic"] is True
        assert report["q"] > 1


def test_closed_leaf_translation_limit():
    report = closed_leaf_exists(exact(1, 2), exact(1, 5), q_max=50)
    assert report["periodic"] is True
    assert (report["p"], report["q"]) == (7, 10)


def test_experiment_is_deterministic_and_consistent():
    kw = dict(n_samples=12, q_max=200, seed=7, s_range=(exact(0), exact(4)))
    rep1 = ae_rationality_experiment(exact(5, 8), **kw)
    rep2 = ae_rationality_experiment(exact(5, 8), **kw)
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["n_samples"] == 12
    assert rep1["agreement"]["disagree"] == 0
    assert rep1["reduced"] + rep1["not_reduced"] == 12
    assert len(rep1["samples"]) == 12


def test_experiment_parallel_matches_serial():
    kw = dict(n_samples=8, q_max=100, seed=11, s_range=(exact(0), exact(2)))
    serial = ae_rationality_experiment(exact(5, 8), workers=1, **kw)
    parallel = ae_rationality_experiment(exact(5, 8), workers=2, **kw)
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def test_reduce_revisiting_infinity_is_not_reduced():
    red = reduce_direction(exact(5, 8), exact(5325585, 1048576))
    assert red.status == "not_reduced"
    assert red.s_out is INFINITY
    assert "infinity" in red.reason
    assert red.to_json()["s_out"] == "infinity"


def test_reduce_invariant_is_a_typed_error(monkeypatch):
    # a product that drops the new factor breaks M(s_in) = s_out
    monkeypatch.setattr(Mobius, "__mul__", lambda self, other: other)
    with pytest.raises(InvariantViolation) as err:
        reduce_direction(exact(5, 8), exact(13, 64))
    assert isinstance(err.value, NumericError)


def test_reduction_homology_is_the_word_product():
    red = reduce_direction(exact(5, 8), exact(13, 64))
    H = (1, 0, 0, 1)
    for g, k in red.word:
        base = (1, k, 0, 1) if g == "A" else (1 + 2 * k, -k, 4 * k, 1 - 2 * k)  # H_B^k
        H = (base[0] * H[0] + base[1] * H[2], base[0] * H[1] + base[1] * H[3],
             base[2] * H[0] + base[3] * H[2], base[2] * H[1] + base[3] * H[3])
    assert red.homology == H
    assert red.to_json()["homology"] == list(H)
    assert H[0] * H[3] - H[1] * H[2] == 1


def _descent_view(m, s, q_max):
    r = rho_certify(g_lift(m, s), q_max)
    if isinstance(r, Certified):
        return (True, r.p, r.q)
    return (None, scalar_str(r.lo), scalar_str(r.hi))


def _leaf_view(report):
    if report["periodic"]:
        return (True, report["p"], report["q"])
    return (None, report["lo"], report["hi"])


# H_B with its off-diagonal entries swapped: still det 1, wrong on every B-word
CORRUPT_H_B = (3, 4, -1, -1)

moduli = st.sampled_from([exact(5, 8), exact(2, 3), exact(3, 4)]) | st.builds(
    lambda k: exact(k, 2**10), st.integers(2**9 + 1, 2**10 - 1))


@st.composite
def directions(draw):
    den = draw(st.integers(2, 2**24))
    return exact(draw(st.integers(0, 10 * den)), den)



@settings(max_examples=120, deadline=None)
@given(moduli, directions(), st.sampled_from([50, 200, 800]), st.booleans())
def test_transport_matches_the_descent(m, s, q_max, corrupt):
    with pytest.MonkeyPatch.context() as mp:
        if corrupt:
            mp.setattr(dilation, "H_B", CORRUPT_H_B)
        report = closed_leaf_exists(m, s, q_max)
    assert _leaf_view(report) == _descent_view(m, s, q_max)
    if report["decided_by"] == "transport":
        assert report["method"] in ("certified", "enclosure")


def test_transport_decides_the_experiment_directions():
    import random

    rng = random.Random(1)
    draws = [exact(2 * rng.randrange(0, 10 * 2**19) + 1, 2**20) for _ in range(8)]
    routes = []
    for m in (exact(5, 8), exact(2, 3), exact(3, 4)):
        for s in draws:
            for q_max in (50, 200):
                report = closed_leaf_exists(m, s, q_max)
                assert _leaf_view(report) == _descent_view(m, s, q_max)
                routes.append(report["decided_by"])
    assert routes.count("transport") >= routes.count("descent")


@pytest.mark.parametrize("s, q_max", [
    (exact(683, 1024), 200),  # certified at q <= q_max by transport
    (exact(5, 3), 50),  # enclosure from the Farey pair around the prediction
])
def test_wrong_transport_falls_back_to_the_descent(monkeypatch, s, q_max):
    m = exact(5, 8)
    right = closed_leaf_exists(m, s, q_max)
    assert right["decided_by"] == "transport"
    prediction = transport_rho(m, s)
    monkeypatch.setattr(dilation, "H_B", CORRUPT_H_B)
    assert transport_rho(m, s) != prediction
    wrong = closed_leaf_exists(m, s, q_max)
    assert wrong["decided_by"] == "descent"
    assert _leaf_view(wrong) == _leaf_view(right) == _descent_view(m, s, q_max)


def test_closed_leaf_skips_transport_on_float_input():
    report = closed_leaf_exists(0.625, 7 / 3, q_max=200)
    assert report["decided_by"] == "descent"


def test_experiment_counts_disagreement_under_a_corrupt_law(monkeypatch):
    kw = dict(n_samples=12, q_max=200, seed=7, s_range=(exact(0), exact(4)))
    honest = ae_rationality_experiment(exact(5, 8), **kw)
    assert honest["agreement"]["disagree"] == 0
    assert honest["agreement"]["agree"] > 0
    monkeypatch.setattr(dilation, "H_B", CORRUPT_H_B)
    corrupt = ae_rationality_experiment(exact(5, 8), **kw)
    assert corrupt["agreement"]["disagree"] > 0
