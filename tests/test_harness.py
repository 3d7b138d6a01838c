"""Sweep driver and CLI behavior: config validation, artifacts, determinism."""

import dataclasses
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

from wgpoles import harness, oracle
from wgpoles.cli import _parser, main
from wgpoles.harness import (
    CSV_HEADER,
    ConfigError,
    FitError,
    SweepRow,
    basis_size,
    compute_fits,
    emit_report,
    evaluate_checks,
    fit_loglog_slope,
    parse_config,
    predict_row,
    regular_inputs,
    render_csv,
    run_experiment,
    run_sweep,
)
from wgpoles.modesum import lattice_modes
from wgpoles.transverse import build_basis


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


def _patch_dict(**over) -> dict:
    return _window_dict(scenario="NeumannPatch", cross_section={"width": math.pi, "bc": "neumann"},
                        **over)


def test_parse_config_accepts_dict_and_file(tmp_path) -> None:
    d = _regular_dict()
    from_dict = parse_config(d)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    for cfg in (from_dict, parse_config(path), parse_config(str(path))):
        assert cfg.scenario == "RegularPotential"
        assert cfg.epsilons == (0.8, 0.6, 0.5, 0.4)
        assert cfg.cross_section.bc == "dirichlet"
    # text is read as a path: JSON text names no file
    for text in (json.dumps(d), str(tmp_path / "missing.json"), str(tmp_path)):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config(text)


def test_parse_config_rejects_bad_input(tmp_path) -> None:
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
    path = tmp_path / "cfg.json"
    for text in ("this is not json", "[1, 2, 3]"):
        path.write_text(text)
        with pytest.raises(ConfigError):
            parse_config(path)


def test_parse_config_fills_defaults_in_one_place() -> None:
    reg = parse_config(_regular_dict(perturbation={}, oracle={"h": [0.1], "L": [8.0]}))
    assert reg.oracle["order"] == 2
    # a number given as a string is stored converted, as every other is
    for order in ("1", " 1e0 "):
        given = parse_config(_regular_dict(oracle={"h": [0.1], "L": [8.0], "order": order}))
        assert type(given.oracle["order"]) is float and given.oracle["order"] == 1.0
    assert reg.perturbation == {
        "half_width": 1.0, "n_long": 129, "n_trans": 17, "modes": 4,
    }
    assert basis_size(reg) == 9
    assert basis_size(
        parse_config(_regular_dict(perturbation={"modes": 40, "n_trans": 42}))
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
        _regular_dict(tolerances={"max_error": {"max": 0.1}}),
    ]
    for raw in unknown:
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(raw)
    malformed = [
        {"slope": {"min": 3.7}},
        {"truncation_bound": {}},
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
    # per-coupling and shared lists are both stored as one tuple per
    # coupling; the report's config echo keeps the list as given
    per = [[10.0], [12.0], [14.0], [16.0]]
    cfg = parse_config(_window_dict(oracle={"h": [0.1], "L": per}))
    assert cfg.oracle["L"] == ((10.0,), (12.0,), (14.0,), (16.0,))
    shared = parse_config(_window_dict(oracle={"h": [0.1], "L": [8, 12.0]}))
    assert shared.oracle["L"] == ((8.0, 12.0),) * 4
    for c, given in ((cfg, per), (shared, [8, 12.0])):
        assert c.raw["oracle"]["L"] == given
        assert json.loads(emit_report(c, [], {}))["config"] == c.raw
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
            epsilon=0.5, k_re=0.25, k_im=0.0, lambda_pred=-0.0625,
            lambda_pole=-0.06, b_oracle=0.061,
            classification="BoundState",
        ),
        SweepRow(epsilon=0.25, error="ValueError: boom"),
    ]
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "epsilon,k_re,k_im,lambda_pred,lambda_pole,b_oracle,classification"
    )
    # every row field but the error and the extras is a column, in order
    fields = [f.name for f in dataclasses.fields(SweepRow)]
    assert lines[0].split(",") == [f for f in fields if f not in ("error", "extras")]
    assert lines[1].startswith("0.5,0.25,0.0,-0.0625,")
    assert lines[2] == "0.25,,,,,,error:ValueError"
    assert text.endswith("\n")


def test_regular_sweep_rows_and_artifacts(tmp_path) -> None:
    cfg = parse_config(_regular_dict())
    rows, _, report = run_experiment(cfg, out_dir=tmp_path)
    assert [r.epsilon for r in rows] == [0.8, 0.6, 0.5, 0.4]
    for r in rows:
        assert r.error is None
        assert r.classification == "BoundState"
        assert r.k_re > 0 and r.k_im == 0.0
        assert r.lambda_pred < 0 and r.lambda_pole < 0
        assert r.b_oracle > 0 and r.lambda_pred + r.b_oracle != 0
        # secular pole and truncated-guide binding agree far better than
        # either agrees with the leading asymptotics at these couplings
        assert abs(r.lambda_pole + r.b_oracle) < 0.05 * r.b_oracle
    text = (tmp_path / "sweep.csv").read_text()
    assert text == render_csv(rows)
    assert text.splitlines()[0] == CSV_HEADER
    assert (tmp_path / "report.json").read_text() == report


def test_verbose_log_times_each_row_and_the_report_stage(tmp_path, caplog) -> None:
    # -v logs one timed line per row, with its eigensolves, and one for the
    # fits, report and CSV stage; the artifacts stay what the rows render
    cfg = parse_config(_regular_dict())
    with caplog.at_level("INFO", logger="wgpoles.harness"):
        rows, _, report = run_experiment(cfg, out_dir=tmp_path)
    lines = [r.getMessage() for r in caplog.records if r.name == "wgpoles.harness"]
    done = [re.fullmatch(r"row eps=(\S+) done: (\d+) eigensolves, ([0-9.]+) s", m) for m in lines]
    done = [m for m in done if m]
    assert [float(m[1]) for m in done] == [r.epsilon for r in rows]
    assert [int(m[2]) for m in done] == [len(r.extras["solves"]) for r in rows]
    assert all(float(m[3]) > 0.0 for m in done)
    (stage,) = [m for m in lines if m.startswith("fits, report and CSV: ")]
    assert re.fullmatch(r"fits, report and CSV: [0-9.]+ s", stage)
    assert (tmp_path / "report.json").read_text() == report
    assert (tmp_path / "sweep.csv").read_text() == render_csv(rows)


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
    assert line == "0.5,,,,,,error:ValueError"
    verdict = evaluate_checks(cfg, rows, {})
    assert not verdict["pass"]
    assert verdict["checks"][0]["name"] == "row_ok"
    assert verdict["checks"][0]["row"] == 0


def test_report_is_deterministic_and_threads_do_not_reorder(tmp_path) -> None:
    # --threads is accepted and changes nothing: a --threads 3 sweep writes
    # the default sweep's report.json and sweep.csv, byte for byte
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(_regular_dict()))
    written = []
    for name, extra in (("default", []), ("three", ["--threads", "3"])):
        out = tmp_path / name
        assert main(["sweep", "--config", str(path), "--out", str(out), *extra]) == 0
        written.append([(out / f).read_bytes() for f in ("report.json", "sweep.csv")])
    assert written[0] == written[1]


def test_report_document_structure() -> None:
    cfg = parse_config(_regular_dict(tolerances={"first_order": {"margin_eps2": 1e-9}}))
    rows, fits, report = run_experiment(cfg)
    doc = json.loads(report)
    assert sorted(doc.keys()) == ["checks", "config", "fits", "pass", "rows"]
    assert doc["config"]["scenario"] == "RegularPotential"
    assert len(doc["rows"]) == 4
    assert doc["rows"][0]["epsilon"] == 0.8
    # a report row carries exactly the row's fields
    fields = {f.name for f in dataclasses.fields(SweepRow)}
    assert all(row.keys() == fields for row in doc["rows"])
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
        _regular_dict(
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
        SweepRow(epsilon=e, b_oracle=b, lambda_pred=-e * e, lambda_pole=-e * e + g)
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
    row = predict_row(reg, 0.5, basis, *regular_inputs(reg, basis))
    # the box spans the full cross section, so the mode average is the box
    # length and the first-order coefficient is half of it
    assert row.extras["first_order_coefficient"] == pytest.approx(1.0, rel=1e-6)
    assert row.k_re == pytest.approx(0.5, rel=1e-6)
    assert row.lambda_pred == pytest.approx(-0.25, rel=1e-6)

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


def test_cli_exit_codes(tmp_path, capsys) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_regular_dict()))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--config", str(bad)]) == 2
    # sweep is the one command; each stage's numbers are in its report rows
    for command in ("basis", "pole", "asym", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "over",
    [
        {"epsilons": [math.nan, 0.6, 0.5, 0.4]},
        {"oracle": {"h": [math.nan], "L": [8.0, 12.0]}},
        {"oracle": {"h": [0.1], "L": [8.0, math.inf]}},
        {"perturbation": {"half_width": math.inf}},
        {"tolerances": {"gap_slope_min": math.nan}},
        {"tolerances": {"first_order": {"margin_eps2": "-inf"}}},
    ],
    ids=["epsilon", "oracle.h", "oracle.L", "half_width", "gap_slope_min", "gate-field-text"],
)
def test_cli_rejects_a_non_finite_number_before_any_solve(tmp_path, capsys, over) -> None:
    # json writes and reads the NaN and Infinity tokens; each of these once
    # parsed, and its sweep ran to an error row, a failed check or exit 3
    _assert_rejected_before_any_solve(tmp_path, capsys, _regular_dict(**over))


@pytest.mark.parametrize("bc, fit", [("dirichlet", 6), ("neumann", 5)])
def test_cli_rejects_more_secular_modes_than_the_transverse_grid_holds(
    tmp_path, capsys, bc, fit
) -> None:
    # the default four modes fit 6 Dirichlet or 5 Neumann transverse nodes;
    # on one node fewer the sampled modes alias
    cs = {"width": math.pi, "bc": bc}
    cfg = parse_config(_regular_dict(cross_section=cs, perturbation={"n_trans": fit}))
    assert cfg.perturbation["modes"] == lattice_modes(cfg.cross_section, fit) == 4
    raw = _regular_dict(cross_section=cs, perturbation={"n_trans": fit - 1})
    _assert_rejected_before_any_solve(tmp_path, capsys, raw)


def test_cli_refuses_an_unusable_out_before_any_solve(tmp_path, capsys, monkeypatch) -> None:
    # --out naming a regular file, or a directory under one, is one stderr
    # line and exit 2, and no row is solved
    solved = []
    row = harness._row
    monkeypatch.setattr(harness, "_row", lambda *args: solved.append(args) or row(*args))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_regular_dict()))
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "out"):
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("output error: ")
    assert solved == []


@pytest.mark.parametrize(
    "raw",
    [
        _window_dict(tolerances={"classification": {"expect": "Boundstate"}}),
        _window_dict(tolerances={"classification": {"expect": "Resonance"}}),
        _window_dict(tolerances={"slope": {"min": 4.3, "max": 3.7}}),
        _window_dict(tolerances={"first_order": {"margin_eps2": 5.0}}),
        _window_dict(tolerances={"gap_slope_min": 2.7}),
        _patch_dict(tolerances={"first_order": {"margin_eps2": 5.0}}),
        _patch_dict(tolerances={"gap_slope_min": 2.7}),
        _patch_dict(tolerances={"prefactor": {"exponent": 4.0, "predicted": 0.25}}),
    ],
    ids=["unknown-label", "resonance-at-m1", "slope-min-above-max", "window-first_order",
         "window-gap_slope_min",
         "patch-first_order", "patch-gap_slope_min", "patch-prefactor"],
)
def test_cli_rejects_a_gate_no_row_can_pass_before_any_solve(tmp_path, capsys, raw) -> None:
    # each of these once parsed, solved every row and failed --check: no
    # pole carries the label (no pole at m = 1 is a resonance), no slope
    # lies in the range, a wall row has no secular pole, and a patch binds
    # nothing
    _assert_rejected_before_any_solve(tmp_path, capsys, raw)


def _assert_rejected_before_any_solve(tmp_path, capsys, raw: dict) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not out.exists()


def test_cli_exits_3_when_the_secular_iterate_diverges(tmp_path, capsys) -> None:
    # a diverged secular iterate fails its row alone: at eps = 5 the iterate
    # leaves the resolvent domain while eps = 4, 3 and 2 solve; the sweep
    # exits 3 only when every row diverges
    for epsilons, code in (([5.0, 4.0, 3.0, 2.0], 0), ([8.0, 7.0, 6.0, 5.0], 3)):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_regular_dict(epsilons=epsilons)))
        out = tmp_path / f"out{code}"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == code
        rows = json.loads((out / "report.json").read_text())["rows"]
        diverged = [r["error"] is not None for r in rows]
        assert diverged == ([True] * 4 if code else [True, False, False, False])
        for r in rows[: sum(diverged)]:
            assert r["error"].startswith("IterationDivergedError: ")
    assert "every sweep row failed" in capsys.readouterr().err


def _at_m2(raw: dict) -> harness.ExperimentConfig:
    # parse_config refuses m = 2, so a library caller builds the config
    return dataclasses.replace(parse_config(raw), m=2)


# a strip-uniform well at the second threshold: its pole is exactly real
_EMBEDDED = _regular_dict(epsilons=[0.2, 0.15, 0.1, 0.05], perturbation={"modes": 5})


def test_embedded_eigenvalue_is_a_typed_row_error() -> None:
    rows = run_sweep(_at_m2(_EMBEDDED))
    assert all(
        r.error.startswith("AmbiguousClassificationError: m = 2 pole with exactly real k")
        for r in rows
    )


@pytest.mark.parametrize(
    "raw", [{**_EMBEDDED, "m": 2}, _window_dict(m=2), _patch_dict(m=2)],
    ids=["RegularPotential", "DirichletWindow", "NeumannPatch"],
)
def test_cli_rejects_a_threshold_above_the_first_before_any_solve(tmp_path, capsys, raw) -> None:
    # every row of such a sweep once failed after its predictor and secular
    # solve had run, and the sweep exited 3: the regular row on its
    # unclassifiable pole, the window and patch rows on the oracle's refusal
    _assert_rejected_before_any_solve(tmp_path, capsys, raw)


@pytest.mark.parametrize("scenario", ["DirichletWindow", "NeumannPatch"])
def test_oracle_refuses_a_threshold_above_an_open_channel(scenario) -> None:
    # at m = 2 the guide's lowest state sits near mu_1: mu_2^h - E_1 would
    # be a number, but not a binding
    bc = "neumann" if scenario == "NeumannPatch" else "dirichlet"
    raw = _window_dict(scenario=scenario, cross_section={"width": math.pi, "bc": bc})
    rows = run_sweep(_at_m2(raw))
    for r in rows:
        assert r.b_oracle is None
        assert r.error == (
            "ValueError: the oracle binds only below the lowest threshold; "
            "at m = 2 a lower channel is open"
        )


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


def test_readme_python_example_runs_and_states_its_numbers(capsys) -> None:
    # the Quick start's library example, run as written, prints and states
    # what its comments say: k^2 = 1.5196e-3 from the secular pole, and a
    # one-step oracle binding 5.7% below that
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(example, namespace)
    k, classification = capsys.readouterr().out.splitlines()[0].split()
    assert (k, classification) == ("0.0389817", "BoundState")
    pole, sol = namespace["pole"], namespace["sol"]
    assert pole.k.real**2 == pytest.approx(1.5196e-3, abs=5e-8)
    assert sol.binding == pytest.approx(1.4326e-3, abs=5e-8)
    assert 1.0 - sol.binding / pole.k.real**2 == pytest.approx(0.057, abs=5e-4)


def test_every_export_has_a_user() -> None:
    # the package root re-exports what README and the benchmark call, and
    # nothing else; tests import the rest from its module
    import wgpoles

    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text() + (root / "bench" / "child.py").read_text()
    unused = [
        name for name in wgpoles.__all__
        if name != "__version__" and not re.search(rf"\b{name}\b", text)
    ]
    assert unused == []


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_cli_refuses_fewer_than_one_thread(tmp_path, capsys, threads) -> None:
    # refused by the parser, with exit 2, before the config is read
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_window_dict()))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(path), "--threads", threads])
    assert exc.value.code == 2
    assert "argument --threads: " in capsys.readouterr().err


def test_star_import_resolves_every_exported_name() -> None:
    # a name left in __all__ after its definition is gone fails the import
    import wgpoles

    namespace: dict = {}
    exec("from wgpoles import *", namespace)
    assert all(namespace[name] is getattr(wgpoles, name) for name in wgpoles.__all__)


def test_cli_oracle_rejects_an_invalid_guide_as_a_config_error(tmp_path) -> None:
    # the last coupling's window half-width 0.35 equals its guide length:
    # the config parses, and the guide it describes fails its row alone
    raw = _window_dict(oracle={"h": [0.05], "L": [[10.0], [10.0], [10.0], [0.35]]})
    path = tmp_path / "win.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert all(r["error"] is None and r["b_oracle"] is not None for r in rows[:3])
    assert rows[3]["b_oracle"] is None
    assert rows[3]["error"] == "ValueError: feature half-width 0.35 must lie in (0, L = 0.35)"


def test_cli_sweep_check_flags_tolerance_failure(tmp_path) -> None:
    cfg = _regular_dict(tolerances={"first_order": {"margin_eps2": 1e-9}})
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
    reports = []
    for out in ("a", "b"):
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / out)]) == 0
        reports.append((tmp_path / out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["pass"] is True and len(doc["rows"]) == 4
    # the report is the sweep's file: no command prints it
    with pytest.raises(SystemExit) as exc:
        main(["report", "--config", str(path)])
    assert exc.value.code == 2
    assert "invalid choice: 'report'" in capsys.readouterr().err


def test_cli_sweep_imports_neither_scipy_linalg_nor_sparse(tmp_path) -> None:
    # importing scipy.linalg (with scipy's array-API layer) and scipy.sparse
    # cost more CPU than a window sweep spends solving; the oracle loads
    # scipy's LAPACK extension alone, on the first banded factorization,
    # which a window sweep makes on its wall nodes, and no sweep loads a
    # thread pool, also under --threads 2; -v logs the start-up CPU and the
    # BLAS thread setting
    path = tmp_path / "win.json"
    path.write_text(json.dumps(_window_dict()))
    for extra in ([], ["--threads", "2"]):
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out"), "-v", *extra]
        script = (
            "import json, sys, time\n"
            "from wgpoles.cli import main\n"
            f"code = main({argv!r})\n"
            "heavy = ('scipy.linalg', 'scipy.sparse', 'scipy._lib._array_api', "
            "'concurrent.futures')\n"
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
        assert loaded == [], extra
        (startup,) = re.findall(r"start-up: ([0-9.]+) s CPU", run.stderr)
        assert 0.0 < float(startup) < cpu
        assert "OPENBLAS_NUM_THREADS=1" in run.stderr


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


def _env_without_blas_setting() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(oracle.__file__).parents[1])
    return env


def test_importing_the_package_sets_one_blas_thread_unless_the_caller_chose(tmp_path) -> None:
    # the benchmark's set-up child imports wgpoles, then numpy and scipy, and
    # reads the thread count of each bundled OpenBLAS: one by default, since
    # the package sets OPENBLAS_NUM_THREADS before numpy loads, and the
    # caller's count when the environment sets one
    path = tmp_path / "win.json"
    path.write_text(json.dumps(_window_dict()))
    child = Path(__file__).parents[1] / "bench" / "child.py"
    env = _env_without_blas_setting()
    for setting, threads in ((None, 1), ("2", 2)):
        run = subprocess.run(
            [sys.executable, str(child), "setup", str(path)],
            capture_output=True,
            text=True,
            env=env if setting is None else {**env, "OPENBLAS_NUM_THREADS": setting},
        )
        assert run.returncode == 0, run.stderr
        info = json.loads(run.stdout.splitlines()[-1])
        assert (info["numpy_blas"]["threads"], info["scipy_blas"]["threads"]) == (threads, threads)


def test_cli_report_does_not_depend_on_the_caller_s_blas_setting(tmp_path) -> None:
    # the nominal regular-secular benchmark config: with two BLAS threads its
    # 129-square secular solves moved one row's secular_residual from 0.0
    # to 3.5e-18, so the report is byte-identical only if the CLI runs on
    # one thread with the variable unset as with it set to 1
    epsilons = [0.16, 0.113, 0.08, 0.057, 0.04, 0.028, 0.02]
    cfg = _regular_dict(
        epsilons=epsilons,
        perturbation={"half_width": 1.0, "n_long": 129, "n_trans": 17, "modes": 4},
        oracle={"h": [0.25, 0.125], "order": 2,
                "L": [[round(f / e, 3) for f in (2.0, 3.0, 4.0)] for e in epsilons]},
        tolerances={"gap_slope_min": 2.7, "first_order": {"margin_eps2": 5.0},
                    "classification": {"expect": "BoundState"}},
    )
    path = tmp_path / "regular.json"
    path.write_text(json.dumps(cfg))
    env = _env_without_blas_setting()
    reports = []
    for name, run_env in (("unset", env), ("one", {**env, "OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        run = subprocess.run(
            [sys.executable, "-m", "wgpoles.cli", "sweep", "--config", str(path),
             "--out", str(out), "--check"],
            capture_output=True,
            text=True,
            env=run_env,
        )
        assert run.returncode == 0, run.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_cli_oracle_solves_the_sweep_coarse_step(tmp_path) -> None:
    # each row's first solve is on the coarse step snapped to the window,
    # W = eps * a = (n + 1/2) h_snapped (at eps = 0.55, h = 0.08 the raw step
    # would give half-width 0.52), and records the steps and half-width the
    # guide actually used after rounding L/h, which moves the window edge
    # off the snap: at eps = 0.4, h = 0.04, L = 18 the snapped step
    # 0.0380952 becomes 0.0381356 and the half-width 0.400424
    plans = (([0.55, 0.5, 0.45, 0.4], 0.08, 10.0), ([0.4, 0.35, 0.3, 0.25], 0.04, 18.0))
    for epsilons, h, L in plans:
        path = tmp_path / "win.json"
        path.write_text(json.dumps(_window_dict(epsilons=epsilons, oracle={"h": [h], "L": [L]})))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        for row in rows:
            solve = row["extras"]["solves"][0]
            n = max(4, round(row["epsilon"] / h - 0.5))
            assert solve["h_snapped"] == pytest.approx(row["epsilon"] / (n + 0.5), rel=1e-14)
            assert solve["h_long"] == pytest.approx(L / round(L / solve["h_snapped"]), rel=1e-14)
            assert solve["h_trans"] == pytest.approx(
                math.pi / round(math.pi / solve["h_snapped"]), rel=1e-14
            )
            assert solve["feature_half_width"] == pytest.approx(
                (n + 0.5) * solve["h_long"], rel=1e-14
            )
            assert solve["binding"] == row["extras"]["b_by_L"][0]
    first = rows[0]["extras"]["solves"][0]
    assert f"{first['h_long']:.6g}" == "0.0381356"
    assert f"{first['h_trans']:.6g}" == "0.0383121"
    assert f"{first['feature_half_width']:.6g}" == "0.400424"


def test_report_records_each_solve(monkeypatch) -> None:
    # one record per solve: coarse step then fine at each length, with the
    # grid actually solved and the solver's work; a potential has no
    # feature half-width
    calls = {"factorizations": 0, "inner_solves": 0, "closure_evaluations": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(oracle, "cholesky_banded",
                        counting("factorizations", oracle.cholesky_banded))
    monkeypatch.setattr(oracle, "cho_solve_banded",
                        counting("inner_solves", oracle.cho_solve_banded))
    monkeypatch.setattr(oracle.FdOperator, "coupling",
                        counting("closure_evaluations", oracle.FdOperator.coupling))
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
    # two LAPACK functions, every closure evaluation through the box's
    # coupling, and the records count all of them
    for name, count in calls.items():
        assert count == sum(s[name] for r in rows for s in r.extras["solves"])
    win = run_sweep(parse_config(_window_dict()))
    for row in win:
        for s in row.extras["solves"]:
            assert 0 <= s["residual"] <= oracle.EIGEN_RESIDUAL_TOL
            # the edge sits midway between boundary nodes of the solved step
            nodes = s["feature_half_width"] / s["h_long"] - 0.5
            assert abs(nodes - round(nodes)) < 1e-9


def test_rows_record_their_extrapolation() -> None:
    # each length's Richardson correction, and an Aitken row's ratio and
    # correction, recomputed from b_by_L and the solves' own bindings; a
    # one-step plan over two lengths extrapolates neither way
    cfg = parse_config(_regular_dict(oracle={"h": [0.2, 0.1], "L": [8.0, 10.0, 12.0]}))
    order = float(cfg.oracle["order"])
    for row in run_sweep(cfg):
        x = row.extras
        for i, b in enumerate(x["b_by_L"]):
            coarse, fine = x["solves"][2 * i : 2 * i + 2]
            ratio = coarse["h_snapped"] / fine["h_snapped"]
            assert b == oracle.richardson(coarse["binding"], fine["binding"], ratio, order=order)
            assert x["richardson_correction"][i] == b - fine["binding"]
        b1, b2, b3 = x["b_by_L"]
        assert x["aitken_ratio"] == (b3 - b2) / (b2 - b1)
        assert x["aitken_correction"] == row.b_oracle - b3
    for row in run_sweep(parse_config(_regular_dict())):
        assert row.extras["richardson_correction"] == [None, None]
        assert row.b_oracle == row.extras["solves"][-1]["binding"]
        assert not {"aitken_ratio", "aitken_correction"} & set(row.extras)


def test_patch_sweep_never_reaches_the_box(monkeypatch) -> None:
    raw = _window_dict(
        scenario="NeumannPatch",
        cross_section={"width": math.pi, "bc": "neumann"},
        oracle={"h": [0.1], "L": [5.0, 10.0]},
    )
    _assert_wall_sweep_never_reaches_the_box("patch", raw, 8, monkeypatch)


def test_window_sweep_never_reaches_the_box(monkeypatch) -> None:
    _assert_wall_sweep_never_reaches_the_box("window", _window_dict(), 4, monkeypatch)


def _assert_wall_sweep_never_reaches_the_box(form, raw, count, monkeypatch) -> None:
    # a window or a patch row solves its wall form on the feature's wall
    # nodes, which factors and back-solves nothing: no banded LAPACK call,
    # no numpy dense Cholesky, no feature box, and records of no
    # factorization or back-solve
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def no_box(*args):
        calls["build_fd_operator"] += 1
        raise AssertionError("a wall row reached the box")

    monkeypatch.setattr(oracle, "cholesky_banded", counting("factorizations", oracle.cholesky_banded))
    monkeypatch.setattr(oracle, "cho_solve_banded", counting("inner_solves", oracle.cho_solve_banded))
    monkeypatch.setattr(np.linalg, "cholesky", counting("np.linalg.cholesky", np.linalg.cholesky))
    monkeypatch.setattr(harness, "build_fd_operator", no_box)
    rows = run_sweep(parse_config(raw))
    solves = [s for r in rows for s in r.extras["solves"]]
    assert all(r.error is None for r in rows) and len(solves) == count
    for s in solves:
        assert (s["form"], s["box_columns"]) == (form, None)
        assert s["unknowns"] == round(s["feature_half_width"] / s["h_long"] - 0.5) + 1
        assert (s["factorizations"], s["inner_solves"]) == (0, 0) and s["closure_evaluations"] > 0
    assert not calls


def test_benchmark_tracer_sees_every_wrapped_layer(tmp_path) -> None:
    # the benchmark's tracer wraps module attributes from outside; a
    # refactor that stops calling one of them leaves its layer silently at
    # zero.  oracle.cholesky_banded and oracle.cho_solve_banded are not
    # asserted: the program calls LAPACK's banded routines directly, so the
    # scipy.linalg names the tracer wraps read 0 until the benchmark changes.
    # The three workload shapes run: the regular config, a window config,
    # and a patch config with the --threads 2 that patch-threads2 passes; only
    # the regular one assembles the feature box, since both wall features
    # are solved on their wall forms
    repo = Path(__file__).parents[1]
    patch = _window_dict(
        scenario="NeumannPatch",
        cross_section={"width": math.pi, "bc": "neumann"},
        oracle={"h": [0.1], "L": [5.0, 10.0]},
    )
    runs = {"regular": (_regular_dict(), 1), "window": (_window_dict(), 1), "patch": (patch, 2)}
    seen = {}
    for name, (raw, threads) in runs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        spans_path = tmp_path / f"{name}-spans.json"
        run = subprocess.run(
            [sys.executable, str(repo / "bench" / "child.py"), "trace", str(spans_path),
             "sweep", "--config", str(path), "--out", str(tmp_path / name),
             "--threads", str(threads)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(oracle.__file__).parents[1])},
        )
        assert run.returncode == 0, (name, run.stderr)
        seen[name] = Counter(span[0] for span in json.loads(spans_path.read_text()))
    layers = (
        "harness.render_csv", "harness.emit_report", "harness.compute_fits",
        "harness.truncated_binding", "harness.predict_row", "transverse.build_basis",
        "oracle.build_fd_operator", "oracle.lowest_eigenpairs",
        "regular_pole.solve_secular", "modesum.assemble",
    )
    assert [layer for layer in layers if seen["regular"][layer] == 0] == []
    for name, count in seen.items():
        assert count["oracle.lowest_eigenpairs"] > 0 and count["harness.truncated_binding"] > 0, name
        assert (count["oracle.build_fd_operator"] > 0) == (name == "regular"), name
