"""Benchmark workloads: sweep configs built from a seed, and their checks.

Each workload is one CLI ``sweep`` config.  Seed 0 gives the nominal
couplings; any other seed moves every coupling by one of ``LEVELS`` (steps
of a tenth of a percent, at most a fifth) and rescales its truncation
lengths by the rule the nominal ladder follows.  The jitter is small because
the work of a window row grows as ``eps^-4`` (its guide length as ``eps^-2``
and its snapped step as ``eps``), and a snapped step can jump by a whole
cell: a 2% jitter moved sweep time and peak memory by 10% from seed to seed,
and a 1% jitter still by 8%, as much as the host's own drift.  Because the
jitter takes few values, the
oracle binding of every coupling a seed can produce is stored in
``reference.json`` (written by ``make_reference.py``), and each run checks
its rows against it.

Why these three:

- ``window-ladder`` has the shape of the window acceptance sweep; the FD
  oracle does about 97% of the work, with bindings of 1e-3 to 6e-3 that cost
  tens of inner solves per eigenpair.  The secular lane is not used.
- ``regular-secular`` is the regular acceptance grid; the secular lane does
  about 72% of the work and the oracle the rest.
- ``patch-threads2`` is the patch acceptance config run with two row
  threads: a Neumann guide where nothing binds, so the oracle takes its
  no-bound-state path, and the only workload that uses the row thread pool.

``smoke`` and ``smoke-fail`` are seconds-long configs for ``selftest.py``;
``smoke-fail`` has one coupling whose window is wider than its guide, so
that row must fail.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# a level moves a coupling by JITTER_STEP times the level
JITTER_STEP = 0.001
LEVELS = (-2, -1, 0, 1, 2)

# stored-binding tolerance: loose enough for an exact lattice closure (which
# moves window bindings by about 0.1%), tight enough to catch a wrong solve
B_REL_TOL = 1e-2
# secular pole against its stored value; both lanes converge to 1e-12
POLE_REL_TOL = 1e-6
# |b_oracle + lambda_pole| / b_oracle; the nominal rows give 1.5e-4 to 3.6e-4
LANE_REL_TOL = 2e-3
# patch ladder: each longer guide shrinks |b| by at least this factor
PATCH_DECAY = 0.6


def _window_lengths(eps: float) -> list[float]:
    # acceptance rule: about 1.4 decay lengths 1 / kappa ~ 2 / eps^2, times 1, 1.5, 2
    L0 = round(2.8 / eps**2, 1)
    return [L0, round(1.5 * L0, 3), round(2.0 * L0, 3)]


def _regular_lengths(eps: float) -> list[float]:
    return [round(f / eps, 3) for f in (2.0, 3.0, 4.0)]


def _window(epsilons, h=(0.08, 0.04), tolerances=None) -> dict:
    return {
        "scenario": "DirichletWindow",
        "cross_section": {"width": math.pi, "bc": "dirichlet"},
        "m": 1,
        "epsilons": list(epsilons),
        "perturbation": {"half_width": 1.0},
        "oracle": {
            "h": list(h),
            "order": 1,
            "L": [_window_lengths(e) for e in epsilons],
        },
        "tolerances": tolerances or {},
    }


def _regular(epsilons) -> dict:
    return {
        "scenario": "RegularPotential",
        "cross_section": {"width": math.pi, "bc": "dirichlet"},
        "m": 1,
        "epsilons": list(epsilons),
        "perturbation": {"half_width": 1.0, "n_long": 129, "n_trans": 17, "modes": 4},
        "oracle": {
            "h": [0.25, 0.125],
            "order": 2,
            "L": [_regular_lengths(e) for e in epsilons],
        },
        "tolerances": {
            "gap_slope_min": 2.7,
            "first_order": {"margin_eps2": 5.0},
            "classification": {"expect": "BoundState"},
        },
    }


def _patch(epsilons) -> dict:
    return {
        "scenario": "NeumannPatch",
        "cross_section": {"width": math.pi, "bc": "neumann"},
        "m": 1,
        "epsilons": list(epsilons),
        "perturbation": {"half_width": 1.0},
        "oracle": {"h": [0.0316], "L": [10.0, 20.0, 40.0]},
        "tolerances": {
            "classification": {"expect": "NoEigenvalue"},
            "truncation_bound": {"factor": 3.0},
        },
    }


WINDOW_TOLERANCES = {
    "slope": {"min": 3.7, "max": 4.3},
    "prefactor": {"exponent": 4.0, "predicted": 0.25, "rel_tol": 0.15},
}


@dataclass(frozen=True)
class Spec:
    """A workload: nominal couplings, the function making its config, row threads."""

    nominal: tuple[float, ...]
    build: Callable[[list[float]], dict]
    threads: int = 1


SPECS = {
    "window-ladder": Spec(
        (0.4, 0.35, 0.3, 0.25),
        lambda eps: _window(eps, tolerances=WINDOW_TOLERANCES),
    ),
    "regular-secular": Spec(
        (0.16, 0.113, 0.08, 0.057, 0.04, 0.028, 0.02), _regular
    ),
    "patch-threads2": Spec((0.45, 0.4, 0.35, 0.3), _patch, threads=2),
    "smoke": Spec((0.6, 0.55, 0.5, 0.45), lambda eps: _window(eps, h=(0.08,))),
    "smoke-fail": Spec((0.6, 0.55, 0.5, 0.45), lambda eps: _window(eps, h=(0.08,))),
}
BENCHMARK_WORKLOADS = ("window-ladder", "regular-secular", "patch-threads2")


def jittered(nominal: float, level: int) -> float:
    return round(nominal * (1.0 + JITTER_STEP * level), 6)


def levels_for(name: str, seed: int) -> list[int]:
    """Jitter level of each coupling; all zero for seed 0."""
    n = len(SPECS[name].nominal)
    if seed == 0:
        return [0] * n
    rng = random.Random(f"{name}:{seed}")
    return [rng.choice(LEVELS) for _ in range(n)]


def make_config(name: str, levels: list[int]) -> dict:
    spec = SPECS[name]
    cfg = spec.build([jittered(e, lv) for e, lv in zip(spec.nominal, levels)])
    if name == "smoke-fail":
        # window half-width eps * a reaches past the guide end: a row error
        eps = cfg["epsilons"][-1]
        cfg["oracle"]["L"][-1] = [0.5 * eps, 0.75 * eps, eps]
    return cfg


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def check_rows(name: str, levels: list[int], doc: dict, reference: dict) -> list[tuple[str, bool, str]]:
    """Benchmark checks on one sweep's ``report.json``: ``(name, ok, detail)``.

    Every row's oracle binding must match the stored value for its coupling;
    ``regular-secular`` rows must also match their stored secular pole and
    agree across lanes, and ``patch-threads2`` rows need a negative binding
    ladder that decays with the guide length.
    """
    ref = reference[name]
    out: list[tuple[str, bool, str]] = []
    for i, (row, lv) in enumerate(zip(doc["rows"], levels)):
        if row["error"] is not None:
            continue  # counted as a failed row already
        col = LEVELS.index(lv)
        b = row["b_oracle"]
        want = ref["b_oracle"][i][col]
        out.append((f"b_oracle[{i}]", b is not None and _rel(b, want) <= B_REL_TOL,
                    f"{b!r} vs stored {want!r}"))
        if b is None:
            continue
        if name == "regular-secular":
            lam = row["lambda_pole"]
            want = ref["lambda_pole"][i][col]
            out.append((f"lambda_pole[{i}]", _rel(lam, want) <= POLE_REL_TOL,
                        f"{lam!r} vs stored {want!r}"))
            lane = abs(b + lam) / b
            out.append((f"lanes[{i}]", lane <= LANE_REL_TOL,
                        f"|b + lambda_pole| / b = {lane:.3g}"))
        if name == "patch-threads2":
            ladder = row["extras"]["b_by_L"]
            ok = all(v < 0 for v in ladder) and all(
                abs(cur) <= PATCH_DECAY * abs(prev) for prev, cur in zip(ladder, ladder[1:])
            )
            out.append((f"patch_ladder[{i}]", ok, f"b_by_L {ladder}"))
    return out
