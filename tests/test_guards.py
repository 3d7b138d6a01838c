"""Guards on the whole program: the lanes' import boundary, solver work, golden numbers.

The work ratchet and the golden numbers run the benchmark's three nominal
workloads in process, and a row must not depend on the sweep around it:
the ``regular-secular`` sweep split in two parts gives the same rows.  Every
regular solve of those sweeps is also held to its exact reference, a 1-D
lattice eigenvalue.  ``golden_rows.json``
records the commit its numbers came from; regenerate it only for a change
of method, and say which numbers moved and by how much:

    PYTHONPATH=src python tests/test_guards.py COMMIT
"""

import ast
import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from wgpoles.harness import parse_config, run_sweep
from wgpoles.oracle import TruncatedGuide

REPO = Path(__file__).parents[1]
PACKAGE = REPO / "src" / "wgpoles"
GOLDEN_PATH = Path(__file__).with_name("golden_rows.json")

# per-row numbers held to GOLDEN_REL_TOL relative: far below every gate, far
# above roundoff across machines
GOLDEN_KEYS = ("b_oracle", "lambda_pole", "lambda_pred", "k_re")
GOLDEN_REL_TOL = 1e-10

# each workload's total solver work may fall but not rise: factorizations,
# back-solves, closure evaluations, secular evaluations
WORK_KEYS = ("factorizations", "inner_solves", "closure_evaluations", "secular_evaluations")
WORK_CEILING = {
    "window-ladder": (0, 0, 139, 0),
    "regular-secular": (158, 287, 471, 29),
    "patch-threads2": (0, 0, 64, 0),
}


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _nominal_rows() -> dict:
    workloads = _workloads()
    rows = {}
    for name in workloads.BENCHMARK_WORKLOADS:
        zero = [0] * len(workloads.SPECS[name].nominal)
        rows[name] = run_sweep(parse_config(workloads.make_config(name, zero)))
    return rows


@pytest.fixture(scope="module")
def nominal_rows() -> dict:
    return _nominal_rows()


def _separated_binding(eps: float, a: float, L: float, h1: float) -> float:
    """Binding of a regular solve from its exact separation in ``x1``, built apart from ``wgpoles``.

    The cell-averaged well ``-eps * clip((a - |x1|)/h1 + 1/2, 0, 1)`` is
    uniform across the strip, so the lattice problem separates: the binding
    is minus the lowest eigenvalue of the tridiagonal pencil in ``x1`` on
    the nodes ``i h1``, ``i < N = L / h1``, with stiffness ``sum (u_{i+1} -
    u_i)^2 / h1`` (a natural end at 0, a Dirichlet end at ``N``), trapezoid
    mass ``w1`` and the well's term ``w1 q``.
    """
    n = round(L / h1)
    x1 = h1 * np.arange(n)
    q = -eps * np.clip((a - x1) / h1 + 0.5, 0.0, 1.0)
    w1 = np.full(n, h1)
    w1[0] = h1 / 2.0
    stiff = np.full(n, 2.0 / h1)
    stiff[0] = 1.0 / h1
    off = -1.0 / (h1 * np.sqrt(w1[:-1] * w1[1:]))
    return -eigh_tridiagonal(stiff / w1 + q, off, select="i", select_range=(0, 0))[0][0]


def _golden(row) -> dict:
    return {
        "epsilon": row.epsilon,
        **{key: getattr(row, key) for key in GOLDEN_KEYS},
        "b_by_L": row.extras["b_by_L"],
    }


def _package_imports(module: str) -> set[tuple[str, str]]:
    """``(module, name)`` of each import from within the package; ``name`` is
    ``"*"`` when a whole module is imported."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("wgpoles")):
            source = (node.module or "").removeprefix("wgpoles").lstrip(".")
            found |= {(source, a.name) if source else (a.name, "*") for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {
                (a.name.partition(".")[2] or "__init__", "*")
                for a in node.names if a.name.split(".")[0] == "wgpoles"
            }
    return found


def test_the_oracle_and_the_predictor_lanes_share_no_code() -> None:
    # the oracle cross-checks the predictor and secular lanes, so it reads
    # nothing of theirs, and they nothing of it
    assert ("oracle", "lowest_eigenpairs") in _package_imports("harness")
    assert _package_imports("oracle") <= {
        ("transverse", "CrossSection"), ("transverse", "BC_DIRICHLET"),
    }
    for module in ("modesum", "regular_pole", "singular_asym"):
        assert "oracle" not in {source for source, _ in _package_imports(module)}, module


def test_solver_work_of_the_nominal_workloads_does_not_rise(nominal_rows) -> None:
    # the counts are deterministic, so unlike a timing they show any rise;
    # a change that lowers a total lowers its ceiling here
    for name, rows in nominal_rows.items():
        assert all(r.error is None for r in rows), name
        solves = [s for r in rows for s in r.extras["solves"]]
        totals = (
            *(sum(s[key] for s in solves) for key in WORK_KEYS[:3]),
            sum(r.extras.get("secular_evaluations", 0) for r in rows),
        )
        for key, got, ceiling in zip(WORK_KEYS, totals, WORK_CEILING[name]):
            assert got <= ceiling, f"{name}: {key} rose to {got} from {ceiling}"


# every regular solve's binding against its separated 1-D pencil: at most
# 2.7e-14 measured (6.2e-11 relative, at the smallest binding); the bound
# leaves a margin of 3.7
SEPARATED_ABS_TOL = 1e-13


def test_every_regular_solve_is_its_separated_lattice_eigenvalue(nominal_rows) -> None:
    # the box's only exact reference now that it solves wells alone: each
    # of the 42 solves of the nominal regular-secular sweep, both steps
    # and every length of each row
    cfg = _workloads().make_config("regular-secular", [0] * 7)
    a = cfg["perturbation"]["half_width"]
    solves = [(r.epsilon, s) for r in nominal_rows["regular-secular"] for s in r.extras["solves"]]
    assert len(solves) == 42
    for eps, s in solves:
        want = _separated_binding(eps, a, s["L"], s["h_long"])
        assert abs(s["binding"] - want) <= SEPARATED_ABS_TOL, (eps, s["L"], s["h_long"])


def _exact_binding(eps: float) -> float:
    """``k^2`` of the well's even state, ``q tan q = k``, ``q^2 = eps - k^2``, by bisection."""

    def mismatch(k: float) -> float:
        q = math.sqrt(max(eps - k * k, 0.0))
        return q * math.tan(q) - k

    k = brentq(mismatch, 0.0, math.sqrt(eps), xtol=1e-15)
    return k * k


# the regular rows' error budget, relative to the exact binding, by coupling:
# the step error (Richardson at the ratio of the shipped steps as solved,
# 0.25 and 0.125 rounded to whole cells, on a guide 60 decay lengths long,
# where the length error is negligible) and the shipped row's error (its
# length ladder and Aitken on top of the same steps).  Each holds at its
# measured value plus BUDGET_MARGIN of it: the two LAPACK drivers of
# eigh_tridiagonal differ by up to 5.6e-11 of b at eps = 0.02, about 1% of
# that row's step error after Richardson, so the margin is eight times that
REGULAR_BUDGET = {
    0.16: (1.925e-7, -3.595e-4),
    0.113: (1.239e-7, -2.832e-4),
    0.08: (1.664e-8, -2.288e-4),
    0.057: (2.474e-8, -1.994e-4),
    0.04: (4.045e-9, -1.780e-4),
    0.028: (6.677e-9, -1.640e-4),
    0.02: (6.043e-9, -1.558e-4),
}
BUDGET_MARGIN = 0.1


def test_regular_error_budget_per_row(nominal_rows) -> None:
    # the length truncation is nearly all of the oracle's error: the
    # shipped step pair alone lies within 2e-7 of the exact root, the rows
    # up to 3.6e-4 off.  A change to the length treatment must beat the
    # second column, and a change to the steps the first
    cfg = _workloads().make_config("regular-secular", [0] * 7)
    a = cfg["perturbation"]["half_width"]
    rows = nominal_rows["regular-secular"]
    assert [r.epsilon for r in rows] == list(REGULAR_BUDGET)
    cross_section = parse_config(cfg).cross_section
    for row, (step_error, row_error) in zip(rows, REGULAR_BUDGET.values()):
        exact = _exact_binding(row.epsilon)
        L = 60.0 / math.sqrt(exact)
        coarse, fine = (
            TruncatedGuide(cross_section=cross_section, half_length=L, h=h).step_long
            for h in cfg["oracle"]["h"]
        )
        b_coarse, b_fine = (_separated_binding(row.epsilon, a, L, h) for h in (coarse, fine))
        b = b_fine + (b_fine - b_coarse) / ((coarse / fine) ** 2 - 1.0)
        for got, want in ((b / exact - 1.0, step_error), (row.b_oracle / exact - 1.0, row_error)):
            assert abs(got) <= (1.0 + BUDGET_MARGIN) * abs(want), (row.epsilon, got, want)


def test_a_row_does_not_depend_on_the_sweep_around_it(nominal_rows) -> None:
    # a row reads only the config's shared settings and its own coupling:
    # the nominal regular-secular sweep split into couplings 0-3 and 3-6,
    # which share coupling 3, gives the full sweep's rows, extras included
    workloads = _workloads()
    name = "regular-secular"
    raw = workloads.make_config(name, [0] * len(workloads.SPECS[name].nominal))
    rows = nominal_rows[name]
    assert len(rows) == 7
    for part in (slice(0, 4), slice(3, 7)):
        cfg = copy.deepcopy(raw)
        cfg["epsilons"] = raw["epsilons"][part]
        cfg["oracle"]["L"] = raw["oracle"]["L"][part]
        assert run_sweep(parse_config(cfg)) == rows[part]


def test_nominal_workload_rows_match_their_golden_numbers(nominal_rows) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())["rows"]
    assert set(golden) == set(nominal_rows)
    for name, rows in nominal_rows.items():
        assert len(rows) == len(golden[name]), name
        for row, want in zip(rows, golden[name]):
            got = _golden(row)
            assert got["epsilon"] == want["epsilon"], name
            for key in (*GOLDEN_KEYS, "b_by_L"):
                where = f"{name} eps={row.epsilon} {key}"
                if want[key] is None:
                    assert got[key] is None, where
                else:
                    assert got[key] == pytest.approx(want[key], rel=GOLDEN_REL_TOL, abs=0), where


if __name__ == "__main__":
    doc = {
        "commit": sys.argv[1],
        "rows": {name: [_golden(r) for r in rows] for name, rows in _nominal_rows().items()},
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")
