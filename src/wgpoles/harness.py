"""Experiment driver: epsilon sweeps across predictor, secular, and oracle lanes.

A sweep walks a descending list of couplings; for each it evaluates the
closed-form leading asymptotics, the secular pole (regular scenario), and a
grid-extrapolated oracle binding, then writes one CSV row per coupling and a
JSON report with fitted log-log slopes and pass/fail verdicts against the
configured tolerances.  Everything is deterministic: re-running a config
reproduces the artifacts byte for byte.  A failed sub-solver aborts only its
row, which keeps an error marker instead of fabricated numbers.

Oracle extrapolation per coupling (:func:`row_binding`): the even
half-guide is solved on each of the plan's one or two steps at each
truncation length (Richardson in the step), then the strictly increasing
lengths are Aitken-extrapolated.  ``TruncatedGuide`` alone turns each
configured step into the grid it solves (for a wall feature it snaps the
step to the feature first); each row's ``solves`` extras record the steps
and half-width every solve actually used.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .modesum import ModeSumKernel, lattice_modes
from .oracle import (
    TruncatedGuide,
    aitken_limit,
    build_fd_operator,
    build_patch_operator,
    build_window_operator,
    lowest_eigenpairs,
    richardson,
)
from .regular_pole import regular_leading_asymptotic, solve_secular
from .singular_asym import dirichlet_window_pole, neumann_patch_pole
from .transverse import CrossSection, TransverseBasis, build_basis

logger = logging.getLogger(__name__)

REGULAR_POTENTIAL = "RegularPotential"
DIRICHLET_WINDOW = "DirichletWindow"
NEUMANN_PATCH = "NeumannPatch"
SCENARIOS = (REGULAR_POTENTIAL, DIRICHLET_WINDOW, NEUMANN_PATCH)

# the keys each config block takes; anything else is a config error
CONFIG_KEYS = (
    "scenario", "cross_section", "m", "epsilons", "perturbation", "oracle", "tolerances",
)
CROSS_SECTION_KEYS = ("width", "bc")
ORACLE_KEYS = ("h", "L", "order")
# a wall feature takes only its half-width; the potential also its secular grid
FEATURE_KEYS = ("half_width",)
POTENTIAL_KEYS = ("half_width", "n_long", "n_trans", "modes")

# tolerance gates: required and optional fields; ``gap_slope_min`` is a number
GATES = {
    "slope": (("min", "max"), ()),
    "prefactor": (("exponent", "predicted"), ("rel_tol",)),
    "classification": (("expect",), ()),
    "truncation_bound": (("factor",), ()),
    "first_order": (("margin_eps2",), ()),
}

# the sweep.csv columns: every SweepRow field but ``error`` and ``extras``
CSV_COLUMNS = (
    "epsilon", "k_re", "k_im", "lambda_pred", "lambda_pole", "b_oracle", "rel_err",
    "classification",
)
CSV_HEADER = ",".join(CSV_COLUMNS)

# slope fits need this many couplings; the config invariant enforces it
MIN_EPSILONS = 4


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent."""


class FitError(RuntimeError):
    """Points cannot support a log-log slope fit (too few, or mixed signs)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep description; see :func:`parse_config` for the schema."""

    scenario: str
    cross_section: CrossSection
    m: int
    epsilons: tuple[float, ...]
    perturbation: dict
    oracle: dict
    tolerances: dict
    raw: dict = field(repr=False)


def _check_keys(where: str, block, allowed) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object, got {block!r}")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}; allowed: {list(allowed)}")
    return dict(block)


def _number(where: str, value) -> float:
    # a JSON boolean is not a number, although float(True) is 1.0; NaN and
    # Infinity are JSON tokens Python reads, but no setting takes them
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _numbers(where: str, values) -> list[float]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where} must be a list of numbers, got {values!r}")
    return [_number(f"{where}[{i}]", v) for i, v in enumerate(values)]


def _tolerances(raw) -> dict:
    """Validated gates with numeric fields as floats and defaults filled in."""
    tol = _check_keys("tolerances", raw, (*GATES, "gap_slope_min"))
    for name, spec in tol.items():
        where = f"tolerances.{name}"
        if name == "gap_slope_min":
            tol[name] = _number(where, spec)
            continue
        required, optional = GATES[name]
        spec = _check_keys(where, spec, required + optional)
        missing = [k for k in required if k not in spec]
        if missing:
            raise ConfigError(f"{where} needs {list(required)}, missing {missing}")
        tol[name] = {
            k: str(v) if k == "expect" else _number(f"{where}.{k}", v)
            for k, v in spec.items()
        }
    if "prefactor" in tol:
        tol["prefactor"].setdefault("rel_tol", 0.15)
        if tol["prefactor"]["predicted"] == 0:
            raise ConfigError("tolerances.prefactor.predicted must be nonzero")
    return tol


def parse_config(source) -> ExperimentConfig:
    """Build a validated config from a dict or the path of a JSON file.

    Schema::

        {scenario, cross_section: {width, bc}, m, epsilons: [],
         perturbation: {...}, oracle: {h: [], L: [], order}, tolerances: {...}}

    ``epsilons`` must be strictly descending positive with at least four
    entries; a window's or patch's couplings lie in (0, 1).  ``oracle.L``
    is either one list of lengths shared by every coupling or one list per
    coupling, each positive and strictly increasing; either way it is
    stored as one tuple per coupling.  ``oracle.h`` lists one or two steps
    in decreasing order, and ``oracle.order`` (default 2) is the order of
    the step error that Richardson eliminates.
    ``perturbation`` holds the feature's ``half_width`` (required for a
    window or patch); the regular scenario's defaults are ``half_width``
    1, the secular grid ``n_long`` 129 by ``n_trans`` 17 (at least 2 each)
    and ``modes`` ``m + 3`` resolvent modes (also the least; at most
    :func:`~wgpoles.modesum.lattice_modes`, ``n_trans - 2`` for Dirichlet
    walls and ``n_trans - 1`` for Neumann).  ``m`` is a positive integer,
    and no number, ``m`` included, may be a boolean, NaN or infinite.
    ``tolerances`` maps gate names of :data:`GATES` to their fields, plus
    the number ``gap_slope_min``.  A key no block takes, or a gate missing
    a required field, is rejected.
    Defaults are filled in and every number is converted (to an ``int``
    for ``m`` and the secular grid, else a ``float``) here, in the parsed
    blocks; ``raw`` keeps the source as given.
    """
    if isinstance(source, dict):
        raw = source
    else:
        try:
            raw = json.loads(Path(source).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {source}: {exc.strerror}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    _check_keys("config", raw, CONFIG_KEYS)

    missing = {"scenario", "cross_section", "m", "epsilons", "oracle"} - raw.keys()
    if missing:
        raise ConfigError(f"config missing required keys: {sorted(missing)}")
    scenario = raw["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")

    cs_raw = _check_keys("cross_section", raw["cross_section"], CROSS_SECTION_KEYS)
    try:
        cross_section = CrossSection(
            width=_number("cross_section.width", cs_raw["width"]), bc=str(cs_raw["bc"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad cross_section {cs_raw!r}: {exc}") from exc

    m = raw["m"]
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ConfigError(f"m must be a positive integer, got {m!r}")

    eps = _numbers("epsilons", raw["epsilons"])
    if len(eps) < MIN_EPSILONS:
        raise ConfigError(
            f"need at least {MIN_EPSILONS} couplings for slope fits, got {len(eps)}"
        )
    if any(e <= 0 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ConfigError(f"epsilons must be strictly descending positive: {eps}")

    oracle = _check_keys("oracle", raw["oracle"], ORACLE_KEYS)
    hs = _numbers("oracle.h", oracle.get("h", []))
    if not hs or any(h <= 0 for h in hs):
        raise ConfigError(f"oracle.h must list positive steps, got {oracle.get('h')}")
    if any(a <= b for a, b in zip(hs, hs[1:])):
        raise ConfigError(f"oracle.h must be strictly decreasing: {hs}")
    if len(hs) > 2:
        raise ConfigError(f"oracle.h takes one or two steps (Richardson), got {hs}")
    oracle["h"] = hs
    L = oracle.get("L")
    if not L or not isinstance(L, (list, tuple)):
        raise ConfigError(f"oracle.L must list truncation lengths, got {L!r}")
    if isinstance(L[0], (list, tuple)):
        if len(L) != len(eps):
            raise ConfigError(
                f"per-coupling oracle.L needs {len(eps)} lists, got {len(L)}"
            )
        lists = [_numbers(f"oracle.L[{i}]", sub) for i, sub in enumerate(L)]
    else:
        lists = [_numbers("oracle.L", L)] * len(eps)
    for Ls in lists:
        if not Ls or Ls[0] <= 0 or any(a >= b for a, b in zip(Ls, Ls[1:])):
            raise ConfigError(
                f"lengths must be positive and strictly increasing, got {Ls}"
            )
    oracle["L"] = tuple(tuple(Ls) for Ls in lists)
    order = oracle.get("order", 2)
    oracle["order"] = _number("oracle.order", order)
    if not oracle["order"] > 0:
        raise ConfigError(f"oracle.order must be positive, got {order!r}")

    if scenario == REGULAR_POTENTIAL:
        allowed = POTENTIAL_KEYS
        defaults = {"half_width": 1.0, "n_long": 129, "n_trans": 17, "modes": m + 3}
    else:
        allowed, defaults = FEATURE_KEYS, {}
    perturbation = {
        **defaults,
        **_check_keys("perturbation", raw.get("perturbation", {}), allowed),
    }
    # the secular grid needs two nodes a direction, and its resolvent three
    # evanescent modes beyond the threshold
    least = {"n_long": 2, "n_trans": 2, "modes": m + 3}
    for key in allowed:
        value = perturbation.get(key)
        try:
            number = _number(f"perturbation.{key}", value)
            valid = number > 0 and (key == "half_width" or number.is_integer())
        except ConfigError:
            valid = False
        if not valid:
            kind = "number" if key == "half_width" else "integer"
            raise ConfigError(
                f"{scenario} needs a positive {kind} perturbation.{key}, got {value!r}"
            )
        perturbation[key] = number if key == "half_width" else int(number)
        if perturbation[key] < least.get(key, 0):
            raise ConfigError(
                f"{scenario} needs perturbation.{key} >= {least[key]}, got {value!r}"
            )
    if scenario == REGULAR_POTENTIAL:
        fit = lattice_modes(cross_section, perturbation["n_trans"])
        if perturbation["modes"] > fit:  # past this bound the sampled modes alias
            raise ConfigError(f"perturbation.modes must be at most {fit} on n_trans = "
                              f"{perturbation['n_trans']} nodes, got {perturbation['modes']}")
    expected_bc = "neumann" if scenario == NEUMANN_PATCH else "dirichlet"
    if scenario != REGULAR_POTENTIAL and cross_section.bc != expected_bc:
        raise ConfigError(
            f"{scenario} requires a {expected_bc} cross section, got {cross_section.bc}"
        )
    if scenario != REGULAR_POTENTIAL and eps[0] >= 1:
        # the wall asymptotics hold for couplings in (0, 1)
        raise ConfigError(f"{scenario} couplings must lie in (0, 1), got {eps[0]}")

    return ExperimentConfig(
        scenario=scenario,
        cross_section=cross_section,
        m=m,
        epsilons=tuple(eps),
        perturbation=perturbation,
        oracle=oracle,
        tolerances=_tolerances(raw.get("tolerances", {})),
        raw=raw,
    )


def basis_size(cfg: ExperimentConfig) -> int:
    """Transverse modes to build: ``m + 8``, or the secular lane's ``modes`` if more."""
    return max(cfg.m + 8, cfg.perturbation.get("modes", 0))


@dataclass
class SweepRow:
    """One coupling's worth of sweep output; ``None`` renders as an empty cell.

    The fields are exactly the keys of a ``report.json`` row; the
    ``sweep.csv`` columns are :data:`CSV_COLUMNS`.
    """

    epsilon: float
    k_re: float | None = None
    k_im: float | None = None
    lambda_pred: float | None = None
    lambda_pole: float | None = None
    b_oracle: float | None = None
    rel_err: float | None = None
    classification: str | None = None
    error: str | None = None
    extras: dict = field(default_factory=dict)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def render_csv(rows: list[SweepRow]) -> str:
    """Sweep rows as CSV text with the fixed header; deterministic.

    An error row's classification cell names the error's type.
    """
    lines = [CSV_HEADER]
    for r in rows:
        if r.error is not None:
            r = replace(r, classification=f"error:{r.error.split(':', 1)[0]}")
        lines.append(",".join(_cell(getattr(r, name)) for name in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _box_sampler(depth: float, a: float, step: float):
    # cell-average of the indicator well: half value on edge nodes, exact
    # overlap fraction for any alignment; keeps the step error second order
    def q(x1, x2):
        frac = np.clip((a - np.abs(x1)) / step + 0.5, 0.0, 1.0)
        return -depth * frac * np.ones_like(x2)

    return q


def truncated_binding(
    cfg: ExperimentConfig,
    eps: float,
    L: float,
    h: float,
    hint: float | None = None,
) -> tuple[float, dict]:
    """Binding from one eigensolve of the even half-guide at step ``h``; no extrapolation.

    The guide ends in a Dirichlet column at ``L``; a guide the config makes
    invalid (a feature as wide as the guide, or a perturbation within
    ``BOX_PADDING`` columns of its end) raises ``ValueError``, and so does
    ``m >= 2``: a lower channel is open there, so the guide's lowest state
    measures nothing about the pole at ``mu_m``.  ``hint`` is
    an estimate of the binding that places the eigensolver's first shift
    (see :func:`lowest_eigenpairs`); it changes the work, not the result.
    Returns the binding and one record of the grid actually solved and the
    solver's work: ``L``, the step ``h_snapped`` after the guide's feature
    snap, the steps ``h_long`` and ``h_trans`` after rounding to whole
    cells, the effective ``feature_half_width`` (``None`` for a potential),
    the ``binding``, the operator's ``form``, and the ``box_columns``,
    ``unknowns``, ``factorizations``, ``inner_solves`` (back-solves),
    ``closure_evaluations`` (evaluations of the closure ``coupling(E)``)
    and eigen-``residual`` of the solve.  A potential is solved on the
    feature box (form ``"box"``), a window on its ``n_feat + 1`` wall nodes
    (``"window"``) and a patch on the ``n_trans + 1`` nodes of the first
    column past it (``"patch"``); both wall forms have ``box_columns``
    ``None``.
    """
    if cfg.m >= 2:
        raise ValueError(
            f"the oracle binds only below the lowest threshold; at m = {cfg.m} "
            "a lower channel is open"
        )
    regular = cfg.scenario == REGULAR_POTENTIAL
    half_width = cfg.perturbation["half_width"]
    g = TruncatedGuide(
        cross_section=cfg.cross_section,
        half_length=L,
        h=h,
        half_width=None if regular else eps * half_width,
    )
    if regular:
        g.potential = _box_sampler(eps, half_width, g.step_long)
        op = build_fd_operator(g)
    elif cfg.scenario == DIRICHLET_WINDOW:
        # a wall feature without a potential is solved on its reduced form
        op = build_window_operator(g)
    else:
        op = build_patch_operator(g)
    sol = lowest_eigenpairs(op, binding_hint=hint)
    return sol.binding, {
        "L": L,
        "h_snapped": g.h_snapped,
        "h_long": g.step_long,
        "h_trans": g.step_trans,
        "feature_half_width": None if regular else g.feature_half_width,
        "binding": sol.binding,
        "form": op.form,
        "box_columns": op.columns,
        "unknowns": op.size,
        "factorizations": sol.factorizations,
        "inner_solves": sol.inner_solves,
        "closure_evaluations": sol.closure_evaluations,
        "residual": sol.residual,
    }


def row_binding(cfg: ExperimentConfig, index: int) -> tuple[float, dict]:
    """Oracle binding of one row: step-extrapolated per length, then Aitken.

    At each length, Richardson of order ``oracle.order`` on the plan's two
    steps, at the ratio of the steps the guide snapped them to; a one-step
    plan, or two steps that snapping collapses onto one grid, keeps the
    finest binding as it is.  The lengths are then Aitken-extrapolated; a
    patch row, or one with fewer than three lengths, reports its
    longest-guide value instead.  The extras carry the lengths, the
    per-length bindings ``b_by_L`` and ``richardson_correction`` (minus
    the fine step's binding; ``None`` unextrapolated), one record per solve
    (see :func:`truncated_binding`), and for an Aitken row the
    ``aitken_ratio`` ``(b3 - b2) / (b2 - b1)`` of the last three ``b_by_L``
    (``None`` if ``b2 == b1``) and the ``aitken_correction`` ``b - b3``.

    The solves run along one ladder: lengths in config order, which
    :func:`parse_config` makes strictly increasing, so the last length is
    the longest and Aitken takes the longest three; coarse step to fine
    within each.  Each raw binding is the hint of the next, finer solve,
    and each length's step-extrapolated binding the hint of the next
    length's coarse solve; the row's first solve has none.  Hints come only
    from this row's own oracle solves: never from the predictor or secular
    lanes, which share no code with the oracle, and never from another row,
    so rows stay independent under ``--threads``.  They change the eigensolver's work,
    never its result.
    """
    eps = cfg.epsilons[index]
    Ls = cfg.oracle["L"][index]
    order = cfg.oracle["order"]
    by_L, corrections, solves = [], [], []
    hint = None
    for L in Ls:
        bs = []
        for h in cfg.oracle["h"]:
            hint, record = truncated_binding(cfg, eps, L, h, hint)
            solves.append(record)
            bs.append(hint)
        hs = [s["h_snapped"] for s in solves[-len(bs):]]
        extrapolated = len(hs) == 2 and hs[0] > hs[1]
        if extrapolated:
            hint = richardson(bs[0], bs[1], hs[0] / hs[1], order=order)
        by_L.append(hint)
        corrections.append(hint - bs[1] if extrapolated else None)
    extras = {"L": list(Ls), "b_by_L": by_L, "richardson_correction": corrections, "solves": solves}
    if cfg.scenario == NEUMANN_PATCH or len(by_L) < 3:
        # no positive limit exists for the patch; report the best (largest-L)
        # truncated value instead of extrapolating toward one
        return by_L[-1], extras
    b = aitken_limit(by_L)
    b1, b2, b3 = by_L[-3:]
    extras.update(aitken_ratio=None if b2 == b1 else (b3 - b2) / (b2 - b1), aitken_correction=b - b3)
    return b, extras


def regular_inputs(
    cfg: ExperimentConfig, basis: TransverseBasis
) -> tuple[ModeSumKernel, np.ndarray]:
    """Secular-lane kernel and the unit well sampled on its grid, for a regular config."""
    p = cfg.perturbation
    kernel = ModeSumKernel(basis, cfg.m, p["half_width"], p["n_long"], p["n_trans"], p["modes"])
    return kernel, kernel.sample(lambda x1, x2: np.ones_like(x1))


def predict_row(cfg: ExperimentConfig, eps: float, basis: TransverseBasis,
                kernel: ModeSumKernel | None = None, V: np.ndarray | None = None) -> SweepRow:
    """Leading-order prediction for one coupling; no secular or oracle lane.

    A regular-potential row needs the ``kernel`` and potential ``V`` of
    :func:`regular_inputs`.  A wall row's extras record ``tau``, ``order``
    and the ``wall_trace`` ``tau`` comes from: the threshold mode's wall
    slope for a window, its wall value for a patch.
    """
    if cfg.scenario == REGULAR_POTENTIAL:
        lam = regular_leading_asymptotic(V, eps, kernel).real
        lead = math.sqrt(abs(lam)) / eps
        return SweepRow(
            epsilon=eps,
            k_re=lead * eps,
            k_im=0.0,
            lambda_pred=lam,
            extras={"first_order_coefficient": lead},
        )
    if cfg.scenario == DIRICHLET_WINDOW:
        a = cfg.perturbation["half_width"]
        pole = dirichlet_window_pole(eps, 0.5 * a * a, basis, cfg.m)
        trace = basis.wall_slope[cfg.m - 1]
    else:
        pole = neumann_patch_pole(eps, basis, cfg.m)
        trace = basis.wall_value[cfg.m - 1]
    return SweepRow(
        epsilon=eps,
        k_re=pole.k_lead,
        k_im=pole.im_k_lead,
        lambda_pred=pole.lam_lead,
        classification=pole.classification,
        extras={"tau": pole.tau, "order": pole.order, "wall_trace": float(trace)},
    )


def _row(cfg: ExperimentConfig, index: int, basis: TransverseBasis,
         kernel: ModeSumKernel | None, V: np.ndarray | None) -> SweepRow:
    """Prediction, secular pole (regular scenario only), and oracle binding."""
    eps = cfg.epsilons[index]
    row = predict_row(cfg, eps, basis, kernel, V)
    if kernel is not None:
        pole = solve_secular(V, eps, kernel)
        row.k_re, row.k_im = pole.k.real, pole.k.imag
        row.lambda_pole = pole.lam.real
        row.classification = pole.classification
        row.extras["secular_evaluations"] = pole.evaluations
        row.extras["secular_residual"] = pole.residual
        row.extras["secular_modes"] = list(pole.modes)
    b, oracle_extras = row_binding(cfg, index)
    row.extras.update(oracle_extras)
    row.b_oracle = b
    if cfg.scenario != NEUMANN_PATCH and b > 0:
        row.rel_err = abs(row.lambda_pred + b) / abs(b)
    return row


def run_sweep(cfg: ExperimentConfig, threads: int = 1) -> list[SweepRow]:
    """One row per coupling, descending.

    Rows are computed independently (in a thread pool when ``threads > 1``)
    and assembled in config order.  A sub-solver failure marks its row with
    the error instead of aborting the sweep.  Each finished row logs its
    eigensolves and its wall time.
    """
    basis = build_basis(cfg.cross_section, basis_size(cfg))
    # every row's predictor and secular lane read one kernel and potential
    kernel, V = regular_inputs(cfg, basis) if cfg.scenario == REGULAR_POTENTIAL else (None, None)

    def one(index: int) -> SweepRow:
        start = time.perf_counter()
        try:
            row = _row(cfg, index, basis, kernel, V)
        except Exception as exc:
            logger.warning("row eps=%g failed: %s", cfg.epsilons[index], exc)
            return SweepRow(
                epsilon=cfg.epsilons[index],
                error=f"{type(exc).__name__}: {exc}",
            )
        logger.info(
            "row eps=%g done: %d eigensolves, %.3f s",
            row.epsilon,
            len(row.extras["solves"]),
            time.perf_counter() - start,
        )
        return row

    indices = range(len(cfg.epsilons))
    if threads > 1:
        # imported here: a one-thread sweep does not pay for the import
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, indices))
    return [one(i) for i in indices]


def fit_loglog_slope(points) -> tuple[float, float]:
    """Least-squares slope of ``log |value|`` against ``log eps``.

    Returns ``(slope, stderr)``.  Needs at least three points with values of
    one sign; a sign change means there is no power law to fit.
    """
    pts = [(float(e), float(v)) for e, v in points]
    if len(pts) < 3:
        raise FitError(f"need at least 3 points for a slope, got {len(pts)}")
    vals = np.array([v for _, v in pts])
    if np.any(vals == 0) or (np.any(vals > 0) and np.any(vals < 0)):
        raise FitError("values change sign (or vanish); no power law to fit")
    x = np.log([e for e, _ in pts])
    y = np.log(np.abs(vals))
    n = len(pts)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    stderr = math.sqrt(max(ss_res, 0.0) / (n - 2) / sxx) if n > 2 else 0.0
    return slope, stderr


def compute_fits(cfg: ExperimentConfig, rows: list[SweepRow]) -> dict:
    """Slope and prefactor fits over the sweep rows; failures become notes."""
    fits: dict = {}

    def try_fit(name: str, pts) -> None:
        try:
            slope, stderr = fit_loglog_slope(pts)
        except FitError as exc:
            fits[name] = {"slope": None, "stderr": None, "note": str(exc)}
            return
        fits[name] = {"slope": slope, "stderr": stderr}

    ok = [r for r in rows if r.error is None]
    pred = [(r.epsilon, r.lambda_pred) for r in ok if r.lambda_pred is not None]
    if len(pred) >= 3:
        try_fit("pred_slope", pred)
    bind = [(r.epsilon, r.b_oracle) for r in ok if r.b_oracle is not None]
    if len(bind) >= 3:
        try_fit("b_slope", bind)
    gap = [
        (r.epsilon, r.lambda_pole - r.lambda_pred)
        for r in ok
        if r.lambda_pole is not None and r.lambda_pred is not None
    ]
    if len(gap) >= 3:
        try_fit("gap_slope", gap)

    pf = cfg.tolerances.get("prefactor")
    if pf is not None and bind:
        p = pf["exponent"]
        vals = [b / e**p for e, b in bind if b > 0]
        if vals:
            fits["prefactor"] = {
                "exponent": p,
                "geometric_mean": math.exp(
                    sum(math.log(v) for v in vals) / len(vals)
                ),
                "predicted": pf["predicted"],
            }
    return fits


def evaluate_checks(cfg: ExperimentConfig, rows: list[SweepRow], fits: dict) -> dict:
    """Verdicts against the declared tolerances; see the config schema.

    Recognized tolerance keys: ``slope`` (min/max on ``b_slope``),
    ``gap_slope_min``, ``prefactor``
    (exponent/predicted/rel_tol), ``classification`` (expected label on
    every row), ``truncation_bound`` (factor on the per-length bindings
    against the pure truncation scale), ``first_order`` (margin on
    ``|k - c eps|`` in units of ``eps^2``).
    """
    checks: list[dict] = []
    tol = cfg.tolerances

    def add(name: str, passed: bool, detail: str, row: int | None = None) -> None:
        entry = {"name": name, "pass": bool(passed), "detail": detail}
        if row is not None:
            entry["row"] = row
        checks.append(entry)

    for i, r in enumerate(rows):
        if r.error is not None:
            add("row_ok", False, r.error, row=i)

    spec = tol.get("slope")
    if spec is not None:
        got = fits.get("b_slope", {}).get("slope")
        if got is None:
            add("slope", False, "binding slope unavailable")
        else:
            lo, hi = spec["min"], spec["max"]
            add("slope", lo <= got <= hi, f"slope {got:.4f} vs [{lo:g}, {hi:g}]")

    if "gap_slope_min" in tol:
        got = fits.get("gap_slope", {}).get("slope")
        if got is None:
            add("gap_slope", False, "gap slope unavailable")
        else:
            lo = tol["gap_slope_min"]
            add("gap_slope", got >= lo, f"slope {got:.4f} vs minimum {lo:g}")

    spec = tol.get("prefactor")
    if spec is not None:
        fit = fits.get("prefactor")
        if fit is None:
            add("prefactor", False, "prefactor fit unavailable")
        else:
            rel = abs(fit["geometric_mean"] - fit["predicted"]) / abs(fit["predicted"])
            limit = spec["rel_tol"]
            add(
                "prefactor",
                rel <= limit,
                f"geometric mean {fit['geometric_mean']:.6g} vs predicted "
                f"{fit['predicted']:g} (rel dev {rel:.3f}, limit {limit:g})",
            )

    spec = tol.get("classification")
    if spec is not None:
        want = spec["expect"]
        for i, r in enumerate(rows):
            if r.error is not None:
                continue
            add(
                "classification",
                r.classification == want,
                f"{r.classification!r} vs expected {want!r}",
                row=i,
            )

    spec = tol.get("truncation_bound")
    if spec is not None:
        factor = spec["factor"]
        for i, r in enumerate(rows):
            if r.error is not None or "b_by_L" not in r.extras:
                continue
            for L, b in zip(r.extras["L"], r.extras["b_by_L"]):
                scale = factor * (math.pi / (2.0 * L)) ** 2
                add(
                    "truncation_bound",
                    b <= scale,
                    f"b(L={L:g}) = {b:.6g} vs {scale:.6g}",
                    row=i,
                )

    spec = tol.get("first_order")
    if spec is not None:
        margin = spec["margin_eps2"]
        for i, r in enumerate(rows):
            if r.error is not None or r.k_re is None:
                continue
            c = r.extras.get("first_order_coefficient")
            if c is None:
                add("first_order", False, "no leading coefficient recorded", row=i)
                continue
            dev = abs(r.k_re - c * r.epsilon)
            limit = margin * r.epsilon**2
            add(
                "first_order",
                dev <= limit,
                f"|k - {c:.6g} eps| = {dev:.6g} vs {limit:.6g}",
                row=i,
            )

    return {"pass": all(c["pass"] for c in checks), "checks": checks}


def emit_report(cfg: ExperimentConfig, rows: list[SweepRow], fits: dict) -> str:
    """Deterministic JSON report: config echo, rows, fits, check verdicts."""
    verdicts = evaluate_checks(cfg, rows, fits)
    doc = {
        "config": cfg.raw,
        "rows": [asdict(r) for r in rows],
        "fits": fits,
        "pass": verdicts["pass"],
        "checks": verdicts["checks"],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def run_experiment(
    cfg: ExperimentConfig, out_dir=None, threads: int = 1
) -> tuple[list[SweepRow], dict, str]:
    """Sweep, fit, and report in one pass; writes artifacts under ``out_dir``.

    The one writer of ``sweep.csv`` and ``report.json``.  The report stages
    are looked up in this module at call time, so a wrapper set on
    ``render_csv``, ``emit_report`` or ``compute_fits`` sees every call.
    The fits, report and CSV stage logs its wall time.  ``out_dir`` is made
    before any row is solved, so an unusable one raises ``OSError`` at once.
    """
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    rows = run_sweep(cfg, threads=threads)
    start = time.perf_counter()
    fits = compute_fits(cfg, rows)
    report = emit_report(cfg, rows, fits)
    if out_dir is not None:
        (out / "sweep.csv").write_text(render_csv(rows))
        (out / "report.json").write_text(report)
    logger.info("fits, report and CSV: %.3f s", time.perf_counter() - start)
    return rows, fits, report
