"""Sweep driver and CLI behavior: config validation, artifacts, determinism."""

import json
import math

import numpy as np
import pytest

from wgpoles import (
    CSV_HEADER,
    ConfigError,
    FitError,
    SweepRow,
    build_basis,
    compute_fits,
    emit_report,
    evaluate_checks,
    fit_loglog_slope,
    parse_config,
    predict_row,
    render_csv,
    run_experiment,
    run_sweep,
    truncated_binding,
)
from wgpoles import harness
from wgpoles.cli import main


def _regular_dict(**over) -> dict:
    cfg = {
        "scenario": "RegularPotential",
        "cross_section": {"width": math.pi, "bc": "dirichlet"},
        "m": 1,
        "epsilons": [0.8, 0.6, 0.5, 0.4],
        "perturbation": {"half_width": 1.0, "n_long": 65, "n_trans": 9},
        "oracle": {"h": [0.1], "L": [8.0, 12.0]},
        "tolerances": {},
    }
    cfg.update(over)
    return cfg


def _window_dict(**over) -> dict:
    cfg = {
        "scenario": "DirichletWindow",
        "cross_section": {"width": math.pi, "bc": "dirichlet"},
        "m": 1,
        "epsilons": [0.5, 0.45, 0.4, 0.35],
        "perturbation": {"half_width": 1.0},
        "oracle": {"h": [0.1], "L": [10.0]},
        "tolerances": {},
    }
    cfg.update(over)
    return cfg


def test_parse_config_accepts_dict_text_and_file(tmp_path) -> None:
    d = _regular_dict()
    from_dict = parse_config(d)
    from_text = parse_config(json.dumps(d))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    from_file = parse_config(path)
    for cfg in (from_dict, from_text, from_file):
        assert cfg.scenario == "RegularPotential"
        assert cfg.epsilons == (0.8, 0.6, 0.5, 0.4)
        assert cfg.cross_section.bc == "dirichlet"


def test_parse_config_rejects_bad_input() -> None:
    with pytest.raises(ConfigError):
        parse_config(_regular_dict(scenario="SomethingElse"))
    with pytest.raises(ConfigError):
        parse_config(_regular_dict(epsilons=[]))
    with pytest.raises(ConfigError):
        parse_config(_regular_dict(epsilons=[0.4, 0.5, 0.6, 0.8]))
    with pytest.raises(ConfigError):
        parse_config(_regular_dict(epsilons=[0.8, 0.6, 0.5]))
    with pytest.raises(ConfigError):
        parse_config(_regular_dict(epsilons=[0.8, 0.6, 0.5, -0.4]))
    with pytest.raises(ConfigError):
        parse_config(_regular_dict(m=0))
    with pytest.raises(ConfigError):
        parse_config(_regular_dict(oracle={"h": [], "L": [8.0]}))
    with pytest.raises(ConfigError):
        parse_config(_regular_dict(oracle={"h": [0.05, 0.1], "L": [8.0]}))
    with pytest.raises(ConfigError):
        parse_config(_regular_dict(oracle={"h": [0.1], "L": []}))
    with pytest.raises(ConfigError):
        parse_config(_regular_dict(oracle={"h": [0.1], "L": [8.0], "ends": "open"}))
    with pytest.raises(ConfigError, match="extrapolaton"):
        parse_config(
            _regular_dict(oracle={"h": [0.1], "L": [8.0], "extrapolaton": "aitken"})
        )
    with pytest.raises(ConfigError):
        parse_config("this is not json")
    with pytest.raises(ConfigError):
        parse_config("[1, 2, 3]")


def test_parse_config_checks_scenario_consistency() -> None:
    # a patch needs the hard-wall condition relaxed, not the other way round
    with pytest.raises(ConfigError):
        parse_config(
            _window_dict(
                scenario="NeumannPatch",
                cross_section={"width": math.pi, "bc": "dirichlet"},
            )
        )
    with pytest.raises(ConfigError):
        parse_config(
            _window_dict(cross_section={"width": math.pi, "bc": "neumann"})
        )
    with pytest.raises(ConfigError):
        parse_config(_window_dict(perturbation={}))


def test_per_coupling_length_lists() -> None:
    cfg = parse_config(
        _window_dict(
            oracle={"h": [0.1], "L": [[10.0], [12.0], [14.0], [16.0]]}
        )
    )
    assert cfg.lengths_for(0) == (10.0,)
    assert cfg.lengths_for(3) == (16.0,)
    with pytest.raises(ConfigError):
        parse_config(_window_dict(oracle={"h": [0.1], "L": [[10.0], [12.0]]}))


def test_loglog_slope_recovers_exact_square_law() -> None:
    pts = [(0.4, -0.16), (0.2, -0.04), (0.1, -0.01), (0.05, -0.0025)]
    slope, stderr = fit_loglog_slope(pts)
    assert abs(slope - 2.0) < 1e-12
    assert stderr < 1e-10


def test_loglog_slope_rejects_sign_changes_and_short_data() -> None:
    with pytest.raises(FitError):
        fit_loglog_slope([(0.4, 1.0), (0.2, -1.0), (0.1, 1.0)])
    with pytest.raises(FitError):
        fit_loglog_slope([(0.4, 1.0), (0.2, 0.0), (0.1, 1.0)])
    with pytest.raises(FitError):
        fit_loglog_slope([(0.4, 1.0), (0.2, 0.5)])


def test_loglog_slope_reports_scatter() -> None:
    # a perturbed square law keeps slope near 2 with a nonzero band
    pts = [(0.4, 0.16 * 1.05), (0.2, 0.04), (0.1, 0.01 * 0.95), (0.05, 0.0025)]
    slope, stderr = fit_loglog_slope(pts)
    assert abs(slope - 2.0) < 0.1
    assert stderr > 0.0


def test_csv_header_and_cells() -> None:
    rows = [
        SweepRow(
            epsilon=0.5, k_re=0.25, k_im=0.0, lam_pred=-0.0625,
            lam_pole=-0.06, b_oracle=0.061, rel_err=0.02,
            classification="BoundState",
        ),
        SweepRow(epsilon=0.25, error="ValueError: boom"),
    ]
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "epsilon,k_re,k_im,lambda_pred,lambda_pole,b_oracle,rel_err,classification"
    )
    assert lines[1].startswith("0.5,0.25,0.0,-0.0625,")
    assert lines[2] == "0.25,,,,,,,error:ValueError"
    assert text.endswith("\n")


def test_regular_sweep_rows_and_artifacts(tmp_path) -> None:
    cfg = parse_config(_regular_dict())
    csv_path = tmp_path / "sweep.csv"
    rows = run_sweep(cfg, csv_path=csv_path)
    assert [r.epsilon for r in rows] == [0.8, 0.6, 0.5, 0.4]
    for r in rows:
        assert r.error is None
        assert r.classification == "BoundState"
        assert r.k_re > 0 and r.k_im == 0.0
        assert r.lam_pred < 0 and r.lam_pole < 0
        assert r.b_oracle > 0 and r.rel_err > 0
        # secular pole and truncated-guide binding agree far better than
        # either agrees with the leading asymptotics at these couplings
        assert abs(r.lam_pole + r.b_oracle) < 0.05 * r.b_oracle
    text = csv_path.read_text()
    assert text == render_csv(rows)
    assert text.splitlines()[0] == CSV_HEADER


def test_window_sweep_snaps_too_coarse_steps() -> None:
    # one shared step plan across shrinking windows: the smallest windows
    # force a refinement rather than a row error
    cfg = parse_config(_window_dict(oracle={"h": [0.3], "L": [8.0]}))
    rows = run_sweep(cfg)
    assert all(r.error is None for r in rows)
    assert all(r.classification == "BoundState" for r in rows)
    assert all(r.b_oracle is not None for r in rows)


def test_failed_row_keeps_error_cell_and_sweep_continues() -> None:
    # the leading coupling is out of the perturbative range and must fail
    # alone, without inventing numbers for its row
    cfg = parse_config(_window_dict(epsilons=[2.0, 0.5, 0.45, 0.4]))
    rows = run_sweep(cfg)
    assert rows[0].error is not None
    assert rows[0].b_oracle is None and rows[0].k_re is None
    assert all(r.error is None for r in rows[1:])
    line = render_csv(rows).splitlines()[1]
    assert line == "2.0,,,,,,,error:ValueError"
    verdict = evaluate_checks(cfg, rows, {})
    assert not verdict["pass"]
    assert verdict["checks"][0]["name"] == "row_ok"
    assert verdict["checks"][0]["row"] == 0


def test_report_is_deterministic_and_threads_do_not_reorder() -> None:
    cfg = parse_config(_regular_dict())
    rows_a, fits_a, report_a = run_experiment(cfg)
    rows_b, fits_b, report_b = run_experiment(cfg)
    assert report_a == report_b
    assert render_csv(rows_a) == render_csv(rows_b)
    rows_c = run_sweep(cfg, threads=3)
    assert render_csv(rows_c) == render_csv(rows_a)


def test_report_document_structure() -> None:
    cfg = parse_config(_regular_dict(tolerances={"rel_err": {"max": 1e-9}}))
    rows, fits, report = run_experiment(cfg)
    doc = json.loads(report)
    assert sorted(doc.keys()) == ["checks", "config", "fits", "pass", "rows"]
    assert doc["config"]["scenario"] == "RegularPotential"
    assert len(doc["rows"]) == 4
    assert doc["rows"][0]["epsilon"] == 0.8
    # an impossible tolerance demand must fail with the row identified
    assert doc["pass"] is False
    failing = [c for c in doc["checks"] if not c["pass"]]
    assert failing and all("row" in c for c in failing)
    assert doc["fits"]["pred_slope"]["slope"] == pytest.approx(2.0, abs=1e-9)


def test_checks_target_one_coupling() -> None:
    cfg = parse_config(
        _regular_dict(tolerances={"rel_err": {"max": 0.1, "epsilon": 0.4}})
    )
    rows = [
        SweepRow(epsilon=0.8, rel_err=5.0),
        SweepRow(epsilon=0.4, rel_err=0.05),
    ]
    verdict = evaluate_checks(cfg, rows, {})
    assert verdict["pass"]
    done = [c for c in verdict["checks"] if c["name"] == "rel_err"]
    assert len(done) == 1 and done[0]["row"] == 1


def test_checks_slope_window_and_classification() -> None:
    cfg = parse_config(
        _regular_dict(
            tolerances={
                "slope": {"min": 1.8, "max": 2.2},
                "classification": {"expect": "BoundState"},
            }
        )
    )
    rows = [
        SweepRow(epsilon=e, b_oracle=e * e, classification="BoundState")
        for e in (0.4, 0.2, 0.1, 0.05)
    ]
    fits = compute_fits(cfg, rows)
    assert fits["b_slope"]["slope"] == pytest.approx(2.0, abs=1e-12)
    assert evaluate_checks(cfg, rows, fits)["pass"]
    rows[2].classification = "Resonance"
    verdict = evaluate_checks(cfg, rows, fits)
    assert not verdict["pass"]
    bad = [c for c in verdict["checks"] if not c["pass"]]
    assert bad[0]["name"] == "classification" and bad[0]["row"] == 2


def test_checks_truncation_bound_and_first_order() -> None:
    cfg = parse_config(
        _regular_dict(
            tolerances={
                "truncation_bound": {"factor": 3.0},
                "first_order": {"margin_eps2": 5.0},
            }
        )
    )
    row = SweepRow(
        epsilon=0.4,
        k_re=0.41,
        extras={
            "L": [10.0, 20.0],
            "b_by_L": [0.01, -0.002],
            "first_order_coefficient": 1.0,
        },
    )
    assert evaluate_checks(cfg, [row], {})["pass"]
    tight = parse_config(
        _regular_dict(
            tolerances={
                "truncation_bound": {"factor": 0.1},
                "first_order": {"margin_eps2": 0.05},
            }
        )
    )
    verdict = evaluate_checks(tight, [row], {})
    names = {c["name"] for c in verdict["checks"] if not c["pass"]}
    assert names == {"truncation_bound", "first_order"}


def test_prefactor_geometric_mean() -> None:
    cfg = parse_config(
        _window_dict(
            tolerances={
                "prefactor": {"exponent": 4.0, "predicted": 0.25, "rel_tol": 0.15}
            }
        )
    )
    rows = [
        SweepRow(epsilon=e, b_oracle=0.26 * e**4) for e in (0.4, 0.3, 0.2, 0.15)
    ]
    fits = compute_fits(cfg, rows)
    assert fits["prefactor"]["geometric_mean"] == pytest.approx(0.26, rel=1e-12)
    assert evaluate_checks(cfg, rows, fits)["pass"]


def test_predictor_rows_match_closed_forms() -> None:
    reg = parse_config(_regular_dict())
    basis = build_basis(reg.cross_section, 9)
    row = predict_row(reg, 0.5, basis)
    # the box spans the full cross section, so the mode average is the box
    # length and the first-order coefficient is half of it
    assert row.extras["first_order_coefficient"] == pytest.approx(1.0, rel=1e-6)
    assert row.k_re == pytest.approx(0.5, rel=1e-6)
    assert row.lam_pred == pytest.approx(-0.25, rel=1e-6)

    win = parse_config(_window_dict())
    row = predict_row(win, 0.2, basis)
    assert row.extras["tau"] == pytest.approx(0.5, rel=1e-12)
    assert row.k_re == pytest.approx(0.5 * 0.2**2, rel=1e-12)
    assert row.classification == "BoundState"

    pat = parse_config(
        _window_dict(
            scenario="NeumannPatch",
            cross_section={"width": math.pi, "bc": "neumann"},
        )
    )
    row = predict_row(pat, 0.2, build_basis(pat.cross_section, 9))
    assert row.k_re < 0
    assert row.classification == "NoEigenvalue"


def test_cli_exit_codes(tmp_path) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_regular_dict()))
    assert main(["basis", "--config", str(path), "--modes", "3"]) == 0
    assert main(["asym", "--config", str(path)]) == 0
    assert main(["cell"]) == 0
    assert main(["oracle", "--config", str(path)]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert main(["pole", "--config", str(tmp_path / "missing.json")]) == 2
    win = tmp_path / "win.json"
    win.write_text(json.dumps(_window_dict()))
    assert main(["pole", "--config", str(win)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--config", str(bad)]) == 2


def test_cli_sweep_check_flags_tolerance_failure(tmp_path) -> None:
    cfg = _regular_dict(tolerances={"rel_err": {"max": 1e-9}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    assert (
        main(["sweep", "--config", str(path), "--out", str(out), "--check"]) == 4
    )
    text = (out / "sweep.csv").read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 5
    assert (out / "report.json").exists()


def test_cli_report_reruns_byte_identical(tmp_path, capsys) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_regular_dict()))
    assert main(["report", "--config", str(path)]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--config", str(path)]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["pass"] is True and len(doc["rows"]) == 4


def test_cli_grid_and_modes_overrides_change_the_secular_lane(tmp_path) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_regular_dict()))
    assert main(
        ["pole", "--config", str(path), "--grid", "33", "5", "--modes", "4"]
    ) == 0


def test_cli_oracle_solves_the_sweep_coarse_step(tmp_path, capsys, monkeypatch) -> None:
    # the CLI must solve the window the sweep solves: the snapped step, not
    # the raw one (at eps = 0.55, h = 0.08 the raw step gives half-width
    # 0.52 in place of 0.5508)
    raw = _window_dict(epsilons=[0.55, 0.5, 0.45, 0.4], oracle={"h": [0.08], "L": [10.0]})
    cfg = parse_config(raw)
    solved = []

    def recording(cfg, eps, L, h, hint=None):
        b = truncated_binding(cfg, eps, L, h, hint)
        solved.append((h, b))
        return b

    monkeypatch.setattr(harness, "truncated_binding", recording)
    coarse = {}
    for i, eps in enumerate(cfg.epsilons):
        solved.clear()
        harness.row_binding(cfg, i)
        coarse[eps] = solved[0]
    path = tmp_path / "win.json"
    path.write_text(json.dumps(raw))
    assert main(["oracle", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 4
    for line in lines:
        eps, L, h, b = line.split()
        want_h, want_b = coarse[float(eps)]
        assert b == f"{want_b:.12g}"
        assert h == f"{want_h:.5g}"
