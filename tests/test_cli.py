import json
import subprocess
import sys

import pytest

SHOW = [sys.executable, "-m", "wavetrap.cli"]


def run_cli(*argv, check=True):
    proc = subprocess.run(
        SHOW + list(argv), capture_output=True, text=True, timeout=120
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def out_json(proc):
    return json.loads(proc.stdout)


def test_rho_exact_reference_point():
    proc = run_cli("rho", "--ell", "1", "--tan-alpha", "1", "--tan-theta", "4",
                   "--qmax", "2000", "--exact")
    obj = out_json(proc)
    rho = obj["result"]["rho"]
    assert rho["kind"] == "enclosure"
    assert obj["result"]["params"]["m"] == "5/8"


def test_rho_rejects_bad_order():
    proc = run_cli("rho", "--tan-alpha", "2", "--tan-theta", "1", "--ell", "1", check=False)
    assert proc.returncode == 2
    assert "tan" in proc.stderr


def test_map_eval_orbit():
    proc = run_cli("map", "eval", "--ell", "1", "--tan-alpha", "1", "--tan-theta", "4",
                   "--x", "0", "--n", "3", "--exact")
    obj = out_json(proc)
    res = obj["result"]
    assert res["x"] == "0"
    assert res["orbit"][0] == "3/5"
    assert len(res["orbit"]) == 3
    assert res["orbit_float"][0] == pytest.approx(0.6)


def rho_pq(obj):
    rho = obj["result"]["rho"]
    return rho["kind"], rho.get("p"), rho.get("q")


def test_classify_resonant_point():
    proc = run_cli("classify", "--d=-1/2", "--tau", "9/2", "--qmax", "10")
    cls = out_json(proc)["result"]["classification"]
    assert cls["case"] == "all_periodic"
    assert (cls["rho"]["p"], cls["rho"]["q"]) == (1, 4)


def test_tongue_boundary_matches_closed_form():
    proc = run_cli("tongue", "boundary", "--p", "2", "--q", "3", "--d", "0")
    obj = out_json(proc)
    res = obj["result"]
    assert res["lo_float"] == pytest.approx(2.2807764064044151, abs=1e-9)
    assert res["hi_float"] == pytest.approx(2.4142135623730951, abs=1e-9)
    assert res["oracle"]["lo"] == pytest.approx(res["lo_float"], abs=1e-9)
    assert res["oracle"]["hi"] == pytest.approx(res["hi_float"], abs=1e-9)


def test_tongue_boundary_rejects_bad_bracket():
    proc = run_cli("tongue", "boundary", "--p", "2", "--q", "3", "--d", "0",
                   "--bracket", "3", "4", check=False)
    assert proc.returncode == 2


def test_tongue_scan_small(tmp_path):
    csv_path = tmp_path / "scan.csv"
    svg_path = tmp_path / "scan.svg"
    proc = run_cli("tongue", "scan", "--grid", "6", "--qmax", "20",
                   "--csv", str(csv_path), "--svg", str(svg_path))
    obj = out_json(proc)
    assert obj["result"]["cells"] == 36
    assert obj["result"]["certified"] > 0
    assert csv_path.exists() and svg_path.exists()
    header = csv_path.read_text().splitlines()
    assert header[0].startswith("# config: ")
    assert header[1] == "d,tau,p,q,certified,q_max"


def test_staircase_csv(tmp_path):
    csv_path = tmp_path / "stairs.csv"
    proc = run_cli("staircase", "--family", "maas-tau", "--d", "0",
                   "--u-lo", "2", "--u-hi", "3", "--samples", "9",
                   "--qmax", "60", "--csv", str(csv_path))
    obj = out_json(proc)
    assert obj["result"]["samples"] == 9
    assert obj["result"]["errors"] == 0
    assert obj["result"]["certified"] + obj["result"]["enclosures"] == 9
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "u,rho_kind,p,q,lo,hi,q_max"
    assert len(lines) == 11


def test_trace_json_and_svg(tmp_path):
    svg_path = tmp_path / "trace.svg"
    proc = run_cli("trace", "--ell", "1", "--tan-alpha", "1", "--tan-theta", "4",
                   "--x0", "0", "--returns", "6", "--svg", str(svg_path), "--exact")
    obj = out_json(proc)
    assert len(obj["result"]["returns"]) == 7
    assert len(obj["result"]["hits"]) == 6
    assert svg_path.exists()
    assert svg_path.read_text().lstrip().startswith("<svg")


def test_trace_tall_table_matches_lift():
    from wavetrap.circle_map import lift_eval, trapezoid_lift
    from wavetrap.geometry import trapezoid_params
    from wavetrap.scalar import exact, to_float

    proc = run_cli("trace", "--ell", "6", "--tan-alpha", "1", "--tan-theta", "2",
                   "--x0", "0", "--returns", "1", "--exact")
    obj = out_json(proc)
    y = lift_eval(trapezoid_lift(trapezoid_params(exact(6), exact(1), exact(2), require_extra=False)), exact(0))
    folded = y - int((y + exact(1, 2)) // 1)
    assert obj["result"]["returns"] == [0.0, to_float(folded)]


def test_dilation_reduce_revisiting_infinity_is_data_not_error():
    proc = run_cli("dilation", "reduce", "--m", "5/8", "--s", "5325585/1048576")
    obj = out_json(proc)
    assert obj["result"]["status"] == "not_reduced"
    assert obj["result"]["s_out"] == "infinity"
    assert "infinity" in obj["result"]["reason"]


def test_dilation_experiment_through_an_infinity_revisit():
    # the 23rd draw of seed 1 at m = 5/8 revisits INFINITY during reduction
    proc = run_cli("dilation", "experiment", "--m", "5/8", "--n", "30",
                   "--qmax", "50", "--seed", "1")
    obj = out_json(proc)
    assert obj["result"]["n_samples"] == 30
    assert obj["result"]["not_reduced"] >= 1
    assert obj["result"]["agreement"]["disagree"] == 0


def test_dilation_reduce_cusp_is_data_not_error():
    proc = run_cli("dilation", "reduce", "--m", "5/8", "--s=-1/8")
    obj = out_json(proc)
    assert obj["result"]["status"] == "not_reduced"
    assert obj["result"]["reason"]


def test_dilation_reduce_inside_domain():
    proc = run_cli("dilation", "reduce", "--m", "5/8", "--s", "29/64")
    obj = out_json(proc)
    assert obj["result"]["status"] == "reduced"
    assert obj["result"]["word"] == []


def test_dilation_conjugacy_requires_seed():
    proc = run_cli("dilation", "conjugacy", "--ell", "1", "--tan-alpha", "1",
                   "--tan-theta", "4", check=False)
    assert proc.returncode == 2
    assert "seed" in proc.stderr


def test_dilation_conjugacy_reports_zero_residual():
    proc = run_cli("dilation", "conjugacy", "--ell", "1", "--tan-alpha", "1",
                   "--tan-theta", "4", "--seed", "5", "--exact")
    obj = out_json(proc)
    assert obj["result"]["c"] == "-1/4"
    assert obj["result"]["residual"] == "0"


def test_dilation_experiment_smoke():
    proc = run_cli("dilation", "experiment", "--m", "5/8", "--n", "6",
                   "--qmax", "100", "--seed", "3", "--s-hi", "2")
    obj = out_json(proc)
    assert obj["result"]["n_samples"] == 6
    assert obj["result"]["agreement"]["disagree"] == 0


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"ell": "1", "tan-alpha": "1", "tan-theta": "4",
                               "qmax": 100, "exact": True}))
    proc = run_cli("rho", "--config", str(cfg))
    obj = out_json(proc)
    assert obj["result"]["params"]["m"] == "5/8"
    assert obj["config"]["qmax"] == 100


def test_explicit_flags_beat_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"d": "0", "tau": "5", "qmax": 40}))
    proc = run_cli("rho", "--config", str(cfg), "--tau", "9/2", "--d=-1/2")
    assert rho_pq(out_json(proc)) == ("certified", 1, 4)


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"elll": "1"}))
    proc = run_cli("rho", "--config", str(cfg), check=False)
    assert proc.returncode == 2
    assert "elll" in proc.stderr


def test_exact_decimal_reparses_floats():
    plain = run_cli("rho", "--d", "0", "--tau", "2.35", "--qmax", "50")
    exact_dec = run_cli("rho", "--d", "0", "--tau", "2.35", "--qmax", "50", "--exact-decimal")
    assert rho_pq(out_json(exact_dec)) == ("certified", 2, 3)
    assert out_json(plain)["result"]["rho"]["kind"] in ("certified", "numeric")


def test_exact_and_float_conflict():
    proc = run_cli("rho", "--d", "0", "--tau", "5", "--exact", "--float", check=False)
    assert proc.returncode == 2


def test_out_writes_same_json(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("rho", "--d=-1/2", "--tau", "9/2", "--qmax", "10", "--out", str(out))
    assert json.loads(out.read_text()) == out_json(proc)


def test_mixed_coordinate_systems_rejected():
    proc = run_cli("rho", "--d", "0", "--tau", "5", "--ell", "1", check=False)
    assert proc.returncode == 2
