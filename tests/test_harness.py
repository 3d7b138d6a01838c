"""Sweep driver and CLI behavior: config validation, artifacts, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

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
)
from wgpoles import harness, oracle
from wgpoles.cli import _parser, main
from wgpoles.harness import basis_size


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


def test_parse_config_fills_defaults_in_one_place() -> None:
    reg = parse_config(
        _regular_dict(perturbation={}, oracle={"h": [0.1], "L": [8.0]}, m=2)
    )
    assert reg.oracle["order"] == 2
    assert reg.perturbation == {
        "half_width": 1.0, "n_long": 129, "n_trans": 17, "modes": 5,
    }
    assert basis_size(reg) == 10
    assert basis_size(
        parse_config(_regular_dict(perturbation={"modes": 40}))
    ) == 40
    win = parse_config(_window_dict())
    assert win.perturbation == {"half_width": 1.0}
    assert basis_size(win) == 9
    # the report echoes the config as given, without the filled-in defaults
    assert "order" not in reg.raw["oracle"] and reg.raw["perturbation"] == {}


def test_parse_config_rejects_unknown_keys_and_malformed_gates() -> None:
    unknown = [
        _regular_dict(out_dir="elsewhere"),
        _regular_dict(cross_section={"width": math.pi, "bc": "dirichlet", "h": 1}),
        _regular_dict(perturbation={"half_width": 1.0, "amplitude": 2.0}),
        _regular_dict(perturbation={"kind": "box"}),
        _window_dict(perturbation={"half_width": 1.0, "modes": 20}),
        _regular_dict(tolerances={"truncation_bounds": {"factor": 0}}),
        _regular_dict(tolerances={"slope": {"min": 1.0, "max": 3.0, "mx": 2.0}}),
    ]
    for raw in unknown:
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(raw)
    malformed = [
        {"slope": {"min": 3.7}},
        {"rel_err": {"epsilon": 0.4}},
        {"prefactor": {"exponent": 4.0}},
        {"prefactor": {"exponent": 4.0, "predicted": 0.0}},
        {"first_order": {"margin_eps2": "wide"}},
        {"gap_slope_min": {"min": 2.7}},
        # the bare-number spellings of the dict gates
        {"classification": "BoundState"},
        {"truncation_bound": 3.0},
        {"first_order": 5.0},
    ]
    for tolerances in malformed:
        with pytest.raises(ConfigError, match="tolerances"):
            parse_config(_regular_dict(tolerances=tolerances))
    for pert in ({"n_long": 0}, {"modes": "many"}, {"modes": 4.5}, {"half_width": -1.0}):
        with pytest.raises(ConfigError, match="perturbation"):
            parse_config(_regular_dict(perturbation=pert))


@pytest.mark.parametrize(
    "over",
    [
        {"epsilons": [True, 0.6, 0.5, 0.4]},
        {"oracle": {"h": [True], "L": [8.0]}},
        {"oracle": {"h": [0.1], "L": [True, 8.0]}},
        {"oracle": {"h": [0.1], "L": [8.0], "order": True}},
        {"perturbation": {"half_width": True}},
        {"cross_section": {"width": True, "bc": "dirichlet"}},
        {"tolerances": {"slope": {"min": True, "max": 3.0}}},
        {"tolerances": {"gap_slope_min": True}},
    ],
    ids=["epsilons", "oracle.h", "oracle.L", "oracle.order", "half_width", "width",
         "gate-field", "gap_slope_min"],
)
def test_parse_config_rejects_booleans_where_it_takes_a_number(over) -> None:
    # float(True) is 1.0, so each of these once parsed as the number 1
    with pytest.raises(ConfigError, match="True"):
        parse_config(_regular_dict(**over))


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


def test_window_rows_record_the_steps_richardson_used(monkeypatch) -> None:
    # the guide snaps each configured step to its window, and every record
    # carries the snapped step; Richardson extrapolates at their ratio.  At
    # eps = 0.4, h = 0.08 and 0.04 are snapped to 0.4/4.5 and 0.4/10.5
    ratios = []
    richardson = harness.richardson

    def recording(coarse, fine, ratio, order=2):
        ratios.append(ratio)
        return richardson(coarse, fine, ratio, order=order)

    monkeypatch.setattr(harness, "richardson", recording)
    raw = _window_dict(
        epsilons=[0.4, 0.35, 0.3, 0.25], oracle={"h": [0.08, 0.04], "L": [8.0, 10.0]}
    )
    rows = run_sweep(parse_config(raw))
    assert [s["h_snapped"] for s in rows[0].extras["solves"]] == [0.4 / 4.5, 0.4 / 10.5] * 2
    used = iter(ratios)
    for row in rows:
        assert row.error is None
        steps = [s["h_snapped"] for s in row.extras["solves"]]
        assert steps == steps[:2] * 2 and steps[0] > steps[1]
        assert [next(used), next(used)] == [steps[0] / steps[1]] * 2
    assert next(used, None) is None


def test_failed_row_keeps_error_cell_and_sweep_continues() -> None:
    # the leading coupling's window is wider than its guide, so its row
    # must fail alone, without inventing numbers for it
    cfg = parse_config(
        _window_dict(oracle={"h": [0.1], "L": [[0.4], [10.0], [10.0], [10.0]]})
    )
    rows = run_sweep(cfg)
    assert rows[0].error is not None
    assert rows[0].b_oracle is None and rows[0].k_re is None
    assert all(r.error is None for r in rows[1:])
    line = render_csv(rows).splitlines()[1]
    assert line == "0.5,,,,,,,error:ValueError"
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
    # the secular lane's work and its final |F(k) - k|, within the
    # roundoff-plateau stop of the solver
    for row in doc["rows"]:
        extras = row["extras"]
        assert isinstance(extras["secular_evaluations"], int)
        assert extras["secular_evaluations"] >= 2
        scale = max(row["epsilon"] ** 2, row["k_re"])
        assert 0.0 <= extras["secular_residual"] < 1e-9 * scale
        # the strip-uniform well solves on the threshold mode alone
        assert extras["secular_modes"] == [1]


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


def test_failed_fits_become_notes_and_unavailable_verdicts() -> None:
    cfg = parse_config(
        _window_dict(
            tolerances={
                "slope": {"min": 3.7, "max": 4.3},
                "gap_slope_min": 2.7,
                "prefactor": {"exponent": 4.0, "predicted": 0.25},
            }
        )
    )
    # bindings and pole-minus-prediction gaps change sign, and no binding is
    # positive, so neither slope nor the prefactor can be fitted
    rows = [
        SweepRow(epsilon=e, b_oracle=b, lam_pred=-e * e, lam_pole=-e * e + g)
        for e, b, g in ((0.4, -1e-3, 1e-4), (0.3, 0.0, -1e-5), (0.2, -1e-5, 1e-6))
    ]
    fits = compute_fits(cfg, rows)
    for name in ("b_slope", "gap_slope"):
        assert fits[name]["slope"] is None and fits[name]["stderr"] is None
        assert "change sign" in fits[name]["note"]
    assert "prefactor" not in fits
    verdict = evaluate_checks(cfg, rows, fits)
    assert not verdict["pass"]
    details = {c["name"]: c["detail"] for c in verdict["checks"]}
    assert details == {
        "slope": "binding slope unavailable",
        "gap_slope": "gap slope unavailable",
        "prefactor": "prefactor fit unavailable",
    }


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
    assert main(["basis", "--config", str(path)]) == 0
    assert main(["pole", "--config", str(path)]) == 0
    assert main(["asym", "--config", str(path)]) == 0
    assert main(["oracle", "--config", str(path)]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert main(["pole", "--config", str(tmp_path / "missing.json")]) == 2
    win = tmp_path / "win.json"
    win.write_text(json.dumps(_window_dict()))
    assert main(["pole", "--config", str(win)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--config", str(bad)]) == 2


@pytest.mark.parametrize(
    "tolerances",
    [{"slope": {"min": 3.7}}, {"truncation_bounds": {"factor": 0}}],
    ids=["slope-without-max", "misspelled-gate"],
)
def test_cli_rejects_a_bad_gate_before_any_solve(tmp_path, capsys, tolerances) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_window_dict(tolerances=tolerances)))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out), "--check"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "over",
    [
        {"epsilons": [0.8, "x", 0.5, 0.4]},
        {"oracle": {"h": ["fine"], "L": [8.0]}},
        {"oracle": {"h": [0.1], "L": [8.0, "long"]}},
        {"oracle": {"h": [0.1], "L": [8.0], "order": "two"}},
        {"epsilons": 0.4},
        {"oracle": {"h": [0.1], "L": [[8.0], [8.0], 9.0, [8.0]]}},
        {"perturbation": {"modes": 3}},
        {"perturbation": {"n_long": 1}},
        {"perturbation": {"n_trans": 1}},
        {"m": True},
        {"oracle": {"h": [0.3, 0.16, 0.08], "L": [8.0]}},
        {"oracle": {"h": [0.1], "L": [12.0, 8.0]}},
        {"oracle": {"h": [0.1], "L": [8.0, 8.0]}},
        {"oracle": {"h": [0.1], "L": [[8.0, 12.0], [8.0, 12.0], [12.0, 8.0], [8.0, 12.0]]}},
    ],
    ids=["epsilons", "oracle.h", "oracle.L", "oracle.order", "epsilons-not-a-list",
         "oracle.L-entry-not-a-list", "modes-below-m+3", "n_long-below-2",
         "n_trans-below-2", "m-boolean", "oracle.h-three-steps", "oracle.L-decreasing",
         "oracle.L-repeated", "oracle.L-entry-decreasing"],
)
def test_cli_rejects_a_non_numeric_entry_before_any_solve(tmp_path, capsys, over) -> None:
    _assert_rejected_before_any_solve(tmp_path, capsys, _regular_dict(**over))


@pytest.mark.parametrize(
    "scenario, bc", [("DirichletWindow", "dirichlet"), ("NeumannPatch", "neumann")]
)
def test_cli_rejects_a_wall_coupling_of_one_before_any_solve(
    tmp_path, capsys, scenario, bc
) -> None:
    # the wall asymptotics need couplings in (0, 1); a window wider than its
    # guide stays a row error, as test_cli_sweep_exits_3_when_every_row_fails
    # checks
    raw = _window_dict(
        scenario=scenario,
        cross_section={"width": math.pi, "bc": bc},
        epsilons=[1.0, 0.8, 0.6, 0.4],
    )
    _assert_rejected_before_any_solve(tmp_path, capsys, raw)


def _assert_rejected_before_any_solve(tmp_path, capsys, raw: dict) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["oracle", "--config", str(path)]) == 2
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2 and all(line.startswith("config error: ") for line in err)
    assert not out.exists()


def test_cli_exits_3_when_the_secular_iterate_diverges(tmp_path, capsys) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_regular_dict(epsilons=[5.0, 4.0, 3.0, 2.0])))
    assert main(["pole", "--config", str(path)]) == 3
    assert "solver error: " in capsys.readouterr().err


def _embedded_dict() -> dict:
    # a strip-uniform well at the second threshold: its pole is exactly real
    return _regular_dict(m=2, epsilons=[0.2, 0.15, 0.1, 0.05], perturbation={})


def test_embedded_eigenvalue_is_a_typed_row_error() -> None:
    rows = run_sweep(parse_config(_embedded_dict()))
    assert all(
        r.error.startswith("AmbiguousClassificationError: m = 2 pole with exactly real k")
        for r in rows
    )


def test_cli_pole_exits_3_on_an_unclassifiable_pole(tmp_path, capsys) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_embedded_dict()))
    assert main(["pole", "--config", str(path)]) == 3
    assert "classification error: m = 2 pole" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["DirichletWindow", "NeumannPatch"])
def test_oracle_refuses_a_threshold_above_an_open_channel(tmp_path, capsys, scenario) -> None:
    # at m = 2 the guide's lowest state sits near mu_1: mu_2^h - E_1 would
    # be a number, but not a binding
    bc = "neumann" if scenario == "NeumannPatch" else "dirichlet"
    raw = _window_dict(scenario=scenario, cross_section={"width": math.pi, "bc": bc}, m=2)
    rows = run_sweep(parse_config(raw))
    for r in rows:
        assert r.b_oracle is None
        assert r.error == (
            "ValueError: the oracle binds only below the lowest threshold; "
            "at m = 2 a lower channel is open"
        )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["oracle", "--config", str(path)]) == 2
    assert "a lower channel is open" in capsys.readouterr().err


def test_cli_sweep_exits_3_when_every_row_fails(tmp_path, capsys) -> None:
    # every coupling's guide is shorter than its window half-width
    raw = _window_dict(oracle={"h": [0.05], "L": [[0.4], [0.4], [0.3], [0.3]]})
    path = tmp_path / "win.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 3
    assert "every sweep row failed" in capsys.readouterr().err
    doc = json.loads((out / "report.json").read_text())
    assert all(row["error"] is not None for row in doc["rows"])


def test_readme_cli_section_names_every_long_option() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = _parser()
    (commands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    defined = {
        opt
        for sub in commands.choices.values()
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert documented == defined
    # and its table lists each subcommand once, and no other
    tabled = re.findall(r"^\| `([a-z]+)` +\|", section, flags=re.M)
    assert sorted(tabled) == sorted(commands.choices)


def test_cli_oracle_rejects_an_invalid_guide_as_a_config_error(tmp_path, capsys) -> None:
    # the last coupling's window half-width 0.35 equals its guide length
    raw = _window_dict(oracle={"h": [0.05], "L": [[10.0], [10.0], [10.0], [0.35]]})
    path = tmp_path / "win.json"
    path.write_text(json.dumps(raw))
    assert main(["oracle", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: epsilon 0.35")


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


def test_cli_sweep_imports_neither_scipy_linalg_nor_sparse(tmp_path) -> None:
    # importing scipy.linalg (with scipy's array-API layer) and scipy.sparse
    # cost more CPU than a window sweep spends solving; the oracle loads
    # scipy's LAPACK extension alone, on the first banded factorization, so
    # a window sweep, solved on the wall nodes, loads it not at all, nor
    # the thread pool on one thread; -v logs the start-up CPU
    path = tmp_path / "win.json"
    path.write_text(json.dumps(_window_dict()))
    argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out"), "-v"]
    script = (
        "import json, sys, time\n"
        "from wgpoles.cli import main\n"
        f"code = main({argv!r})\n"
        "heavy = ('scipy.linalg', 'scipy.sparse', 'scipy._lib._array_api', "
        "'scipy.linalg._flapack', 'concurrent.futures')\n"
        "print(json.dumps([code, [m for m in heavy if m in sys.modules], "
        "time.process_time()]))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parents[1])},
    )
    assert run.returncode == 0, run.stderr
    code, loaded, cpu = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []
    (startup,) = re.findall(r"start-up: ([0-9.]+) s CPU", run.stderr)
    assert 0.0 < float(startup) < cpu


def test_cli_process_exits_with_main_s_code_and_complete_output(tmp_path) -> None:
    # the process entry skips interpreter finalization; its exit code is
    # main's, and what it printed and wrote is complete when it ends, also
    # from the block-buffered standard output of a pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(oracle.__file__).parents[1])
    ok = tmp_path / "win.json"
    ok.write_text(json.dumps(_window_dict()))
    failing = tmp_path / "short.json"
    failing.write_text(json.dumps(_window_dict(oracle={"h": [0.05], "L": [0.3]})))
    cases = [(ok, 0), (tmp_path / "missing.json", 2), (failing, 3)]
    for config, code in cases:
        out = tmp_path / f"out{code}"
        run = subprocess.run(
            [sys.executable, "-m", "wgpoles.cli", "sweep", "--config", str(config),
             "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert run.returncode == code, run.stderr
        if code == 2:
            assert run.stderr.startswith("config error:") and not out.exists()
            continue
        doc = json.loads((out / "report.json").read_text())
        csv = (out / "sweep.csv").read_text().splitlines()
        assert len(doc["rows"]) == len(csv) - 1 == 4
        if code == 0:
            lines = run.stdout.splitlines()
            assert [line.split()[1] for line in lines[:4]] == [f"{e:g}" for e in (0.5, 0.45, 0.4, 0.35)]
            assert lines[4:] == [f"artifacts in {out}/"]
        else:
            assert "every sweep row failed" in run.stderr


def test_cli_oracle_solves_the_sweep_coarse_step(tmp_path, capsys) -> None:
    # the CLI must solve the window the sweep solves, on the snapped step
    # (at eps = 0.55, h = 0.08 the raw step gives half-width 0.52 in place
    # of 0.5508), and print the steps and half-width the guide actually
    # used after rounding L/h: at eps = 0.4, h = 0.04, L = 18 the snapped
    # step 0.0380952 becomes 0.0381356 and the half-width 0.400424
    plans = (([0.55, 0.5, 0.45, 0.4], 0.08, 10.0), ([0.4, 0.35, 0.3, 0.25], 0.04, 18.0))
    for epsilons, h, L in plans:
        raw = _window_dict(epsilons=epsilons, oracle={"h": [h], "L": [L]})
        rows = run_sweep(parse_config(raw))
        path = tmp_path / "win.json"
        path.write_text(json.dumps(raw))
        assert main(["oracle", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 4
        for line, row in zip(lines, rows):
            eps, _, h_long, h_trans, width, b = line.split()
            solve = row.extras["solves"][0]
            assert float(eps) == row.epsilon
            assert b == f"{row.extras['b_by_L'][0]:.12g}"
            assert h_long == f"{solve['h_long']:.6g}"
            assert h_trans == f"{solve['h_trans']:.6g}"
            assert width == f"{solve['feature_half_width']:.6g}"
    first = lines[0].split()
    assert (first[2], first[4]) == ("0.0381356", "0.400424")


def test_report_records_each_solve(monkeypatch) -> None:
    # one record per solve: coarse step then fine at each length, with the
    # grid actually solved and the solver's work; a potential has no
    # feature half-width
    calls = {"factorizations": 0, "inner_solves": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(oracle, "cholesky_banded",
                        counting("factorizations", oracle.cholesky_banded))
    monkeypatch.setattr(oracle, "cho_solve_banded",
                        counting("inner_solves", oracle.cho_solve_banded))
    cfg = parse_config(_regular_dict(oracle={"h": [0.2, 0.1], "L": [8.0, 12.0]}))
    rows = run_sweep(cfg)
    solves = rows[0].extras["solves"]
    assert [s["L"] for s in solves] == [8.0, 8.0, 12.0, 12.0]
    assert solves[0]["h_long"] > solves[1]["h_long"]
    for s in solves:
        assert s["feature_half_width"] is None
        assert s["unknowns"] > 0 and s["factorizations"] >= 1
        assert s["inner_solves"] >= 1
        assert 0 <= s["residual"] <= oracle.EIGEN_RESIDUAL_TOL
        assert 1 <= s["box_columns"] <= round(s["L"] / s["h_long"])
    # every banded factorization and back-solve passes through the oracle's
    # two LAPACK functions, and the records count all of them
    for name, count in calls.items():
        assert count == sum(s[name] for r in rows for s in r.extras["solves"])
    win = run_sweep(parse_config(_window_dict()))
    for row in win:
        for s in row.extras["solves"]:
            assert 0 <= s["residual"] <= oracle.EIGEN_RESIDUAL_TOL
            # the edge sits midway between boundary nodes of the solved step
            nodes = s["feature_half_width"] / s["h_long"] - 0.5
            assert abs(nodes - round(nodes)) < 1e-9


def test_patch_sweep_never_reaches_the_box(monkeypatch) -> None:
    # a patch row solves the patch form on one column, with LAPACK's dense
    # Cholesky factorization and back-solve, and never assembles or factors
    # the box; the records count every dense call
    calls = Counter()
    flapack = oracle._load_flapack()

    class Counting:
        def __getattr__(self, name):
            routine = getattr(flapack, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return routine(*args, **kwargs)

            return counted

    def no_box(*args):
        calls["cholesky_banded"] += 1
        raise AssertionError("a patch row reached the box")

    monkeypatch.setattr(oracle, "_load_flapack", Counting)
    monkeypatch.setattr(oracle, "cholesky_banded", no_box)
    raw = _window_dict(
        scenario="NeumannPatch",
        cross_section={"width": math.pi, "bc": "neumann"},
        oracle={"h": [0.1], "L": [5.0, 10.0]},
    )
    rows = run_sweep(parse_config(raw))
    solves = [s for r in rows for s in r.extras["solves"]]
    assert all(r.error is None for r in rows) and len(solves) == 8
    for s in solves:
        assert s["form"] == "patch" and s["box_columns"] is None
        assert s["unknowns"] == round(math.pi / s["h_trans"]) + 1
    assert calls["cholesky_banded"] == calls["dpbtrf"] == calls["dpbtrs"] == 0
    assert calls["dpotrf"] == sum(s["factorizations"] for s in solves)
    assert calls["dpotrs"] == sum(s["inner_solves"] for s in solves)
