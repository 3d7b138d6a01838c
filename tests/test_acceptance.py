"""Acceptance suite: one gate per test, covering the full prediction chain.

Ordered from the regular-potential pole law to the tail diagnostics, these
exercise the package the way a study would: closed-form predictions on one
side, truncated-guide solves on the other, and the sweep driver tying the
two together.  Budget is minutes, dominated by the window power-law sweep;
``pytest -v`` gives one verdict line per gate.

Every expected number here is either exact by construction or was frozen
from an independent rehearsal at tighter settings; none is tuned to make a
gate pass.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import wgpoles as wg

STRIP = wg.CrossSection(width=math.pi, bc=wg.BC_DIRICHLET)
REGULAR_EPS = (0.08, 0.04, 0.02, 0.01)


def _box_kernel(basis: wg.TransverseBasis) -> wg.ModeSumKernel:
    region = wg.BoxRegion(
        cross_section=STRIP, half_length=1.0, n_long=129, n_trans=17
    )
    return wg.ModeSumKernel(basis=basis, m=1, region=region, count=4)


def _box_well_binding(eps: float) -> float:
    """Exact binding ``k^2`` of the even state of ``-u'' - eps 1_{|x|<1} u``.

    Root of ``q tan q = k`` with ``q = sqrt(eps - k^2)``, bracketed on
    ``0 < k < sqrt(eps)``; computed here, apart from ``wgpoles``, so the
    reference shares no code with either lane.
    """

    def mismatch(k: float) -> float:
        q = math.sqrt(max(eps - k * k, 0.0))
        return q * math.tan(q) - k

    k = brentq(mismatch, 0.0, math.sqrt(eps), xtol=1e-15)
    return k * k


def _regular_oracle_failures(eps: float, b: float) -> list[str]:
    """Gates (iii-a) and (iii-b) on an extrapolated oracle binding ``b``."""
    b_exact = _box_well_binding(eps)
    rel = abs(b - b_exact) / b_exact
    gap_ratio = (eps * eps - b) / eps**3
    numbers = (
        f"b_oracle={b:.7e} (Aitken over L=48,72,96 of h=1/32,1/48 Richardson), "
        f"b_exact={b_exact:.7e} (brentq on q tan q = k), "
        f"rel dev {rel:.2e}, (eps^2 - b)/eps^3={gap_ratio:.4f}"
    )
    gates = []
    if rel > 1e-3:
        gates.append("(iii-a) rel dev > 1e-3")
    if not 0.0 < gap_ratio <= 4.0 / 3.0:
        gates.append("(iii-b) (eps^2 - b)/eps^3 outside (0, 4/3]")
    return [f"{'; '.join(gates)} at eps={eps}: {numbers}"] if gates else []


@pytest.mark.slow
def test_regular_potential_pole_and_oracle_asymptotics() -> None:
    """Box well at the first threshold: k = eps + O(eps^2), end to end.

    The well ``-eps`` on ``|x1| < 1`` is uniform across the strip, in the
    kernel's field and in the oracle's cell-averaged sampler alike, so the
    first mode separates exactly: ``u = phi_1(x2) f(x1)`` with
    ``-f'' - eps 1_{|x1|<1} f = -k^2 f`` and ``lambda = -k^2``.  The even
    bound state is ``cos(q x1)`` inside and ``exp(-k |x1|)`` outside, and
    matching ``f'/f`` at ``|x1| = 1`` gives ``q tan q = k`` with
    ``q^2 = eps - k^2``.  From ``q tan q = q^2 + q^4/3 + O(q^6)``,
    ``k = eps - (2/3) eps^2 + O(eps^3)`` and
    ``b = k^2 = eps^2 - (4/3) eps^3 + O(eps^4)``; the ratio
    ``(eps^2 - b)/eps^3`` of the exact root is 1.189, 1.257, 1.294 and
    1.313 at eps = 0.08, 0.04, 0.02 and 0.01, rising towards 4/3.

    Gates: (i) the secular pole tracks eps with a second-order remainder
    below 5 eps^2 and classifies as a bound state; (ii) the
    pole-minus-leading gap decays with log-log slope >= 2.7; (iii-a) the
    extrapolated truncated-guide binding at eps = 0.04 matches the exact
    root within 1e-3 relative, a bar set by the step and length
    extrapolation error alone; (iii-b) it keeps the leading law in the
    order the method promises, ``0 < eps^2 - b <= (4/3) eps^3``.  A 5%
    band around ``eps^2`` cannot serve instead: at eps = 0.04 the exact
    root itself lies 5.03% below ``eps^2``.
    """
    t0 = time.monotonic()
    basis = wg.build_basis(STRIP, 9)
    kernel = _box_kernel(basis)
    V = wg.PerturbationField.from_function(
        kernel.region, lambda x1, x2: np.ones_like(x1)
    )
    failures: list[str] = []

    gaps = []
    for eps in REGULAR_EPS:
        pole = wg.solve_secular(V, eps, kernel)
        lam_lead = wg.regular_leading_asymptotic(V, eps, 1, basis)
        dev = abs(pole.k - eps)
        if dev > 5.0 * eps * eps or pole.classification != wg.BOUND_STATE:
            failures.append(
                f"(i) eps={eps}: k={pole.k:.8g} ({pole.classification}), "
                f"|k - eps|={dev:.3g} > 5 eps^2={5.0 * eps * eps:.3g}"
            )
        gaps.append((eps, abs(pole.lam - lam_lead)))
    slope, _ = wg.fit_loglog_slope(gaps)
    if slope < 2.7:
        failures.append(f"(ii) pole-minus-leading slope {slope:.3f} < 2.7")

    cfg = wg.parse_config(
        {
            "scenario": wg.REGULAR_POTENTIAL,
            "cross_section": {"width": math.pi, "bc": "dirichlet"},
            "m": 1,
            "epsilons": list(REGULAR_EPS),
            "perturbation": {"half_width": 1.0},
            "oracle": {
                "h": [1.0 / 32.0, 1.0 / 48.0],
                "order": 2,
                "L": [48.0, 72.0, 96.0],
            },
            "tolerances": {},
        }
    )
    # the sweep's own ladder for the eps = 0.04 row
    b, _ = wg.row_binding(cfg, REGULAR_EPS.index(0.04))
    failures += _regular_oracle_failures(0.04, b)
    elapsed = time.monotonic() - t0
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s budget")
    assert not failures, "; ".join(failures)


@pytest.mark.slow
def test_window_binding_follows_fourth_power_law() -> None:
    """Wall window in a Dirichlet guide: oracle binding fits tau^2 eps^4.

    Four couplings, each with its own arithmetic L ladder starting near
    1.4 / kappa so the tail of b(L) is cleanly geometric, solved at two
    tied resolutions with first-order Richardson (the window corner drops
    the scheme below second order), then Aitken across L.  Gates: log-log
    slope within [3.7, 4.3] and fitted prefactor within 15% of 0.25.
    """
    t0 = time.monotonic()
    cfg = wg.parse_config(
        {
            "scenario": wg.DIRICHLET_WINDOW,
            "cross_section": {"width": math.pi, "bc": "dirichlet"},
            "m": 1,
            "epsilons": [0.4, 0.3, 0.2, 0.15],
            "perturbation": {"half_width": 1.0},
            "oracle": {
                "h": [0.04, 0.02],
                "order": 1,
                "L": [
                    [18.0, 27.0, 36.0],
                    [32.0, 48.0, 64.0],
                    [70.0, 105.0, 140.0],
                    [124.0, 186.0, 248.0],
                ],
            },
            "tolerances": {
                "slope": {"min": 3.7, "max": 4.3},
                "prefactor": {
                    "exponent": 4.0,
                    "predicted": 0.25,
                    "rel_tol": 0.15,
                },
            },
        }
    )
    rows, fits, report = wg.run_experiment(cfg)
    doc = json.loads(report)
    failing = [c for c in doc["checks"] if not c["pass"]]
    assert doc["pass"], f"sweep checks failed: {failing}"

    slope = fits["b_slope"]["slope"]
    assert 3.7 <= slope <= 4.3, f"binding slope {slope:.3f} outside [3.7, 4.3]"
    mean = fits["prefactor"]["geometric_mean"]
    assert abs(mean - 0.25) <= 0.15 * 0.25, (
        f"prefactor {mean:.4f} deviates from 0.25 by {abs(mean - 0.25) / 0.25:.1%}"
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 1200.0, f"runtime {elapsed:.0f}s >= 1200s budget"


def test_cell_farfield_constant_and_scaling() -> None:
    """Far-field fit of the explicit half-plane flow returns a^2 / 2.

    Three window sizes, fitted over rho in [10a, 40a]; the constant must
    land within 1e-3 of a^2 / 2 and doubling the window must scale it by
    4 to 1%.
    """
    fitted = {}
    for a in (0.5, 1.0, 2.0):
        sol = wg.explicit_window_solution_2d(a)
        c = wg.fit_farfield_coefficient(sol, 10.0 * a, 40.0 * a)
        exact = 0.5 * a * a
        assert abs(c - exact) <= 1e-3 * exact, (
            f"a={a}: fitted {c:.8f} vs {exact} "
            f"(rel dev {abs(c - exact) / exact:.2e})"
        )
        fitted[a] = c
    for small, big in ((0.5, 1.0), (1.0, 2.0)):
        ratio = fitted[big] / fitted[small]
        assert abs(ratio - 4.0) <= 0.04, (
            f"scaling {small} -> {big}: ratio {ratio:.4f} is not 4 to 1%"
        )


def test_patch_produces_no_eigenvalue() -> None:
    """Dirichlet patch on a Neumann guide wall: the pole retreats, nothing binds.

    Predictor gates: k_lead < 0 (logarithmically small) and a NoEigenvalue
    verdict at every coupling.  Oracle gates, at patch half-width 0.3: the
    binding stays below the pure truncation scale 3 (pi / 2L)^2 for L in
    {10, 20, 40} and decays toward zero instead of stabilizing at a
    positive value.
    """
    cfg = wg.parse_config(
        {
            "scenario": wg.NEUMANN_PATCH,
            "cross_section": {"width": math.pi, "bc": "neumann"},
            "m": 1,
            "epsilons": [0.45, 0.4, 0.35, 0.3],
            "perturbation": {"half_width": 1.0},
            "oracle": {"h": [0.0316], "L": [10.0, 20.0, 40.0]},
            "tolerances": {
                "classification": {"expect": wg.NO_EIGENVALUE},
                "truncation_bound": {"factor": 3.0},
            },
        }
    )
    rows, fits, report = wg.run_experiment(cfg)
    doc = json.loads(report)
    failing = [c for c in doc["checks"] if not c["pass"]]
    assert doc["pass"], f"sweep checks failed: {failing}"

    for row in doc["rows"]:
        assert row["classification"] == wg.NO_EIGENVALUE
        assert row["k_re"] < 0.0, f"eps={row['epsilon']}: k_lead not negative"
    probe = next(r for r in doc["rows"] if r["epsilon"] == 0.3)
    ladder = probe["extras"]["b_by_L"]
    assert all(b < 0.0 for b in ladder), f"positive binding appeared: {ladder}"
    for prev, cur in zip(ladder, ladder[1:]):
        assert abs(cur) <= 0.6 * abs(prev), (
            f"binding magnitude not decaying with L: {ladder}"
        )


def test_resonance_width_for_second_threshold() -> None:
    """Unit window at the second threshold: lossy pole of width eps^4 / sqrt(3).

    The one open channel below mu_2 gives Im k = -eps^4 / sqrt(3) exactly
    at leading order, with a nonzero first-mode amplitude and a Resonance
    verdict.  (A numeric twin would need complex scaling, so this gate is
    deliberately formula- and classification-level.)
    """
    basis = wg.build_basis(STRIP, 6)
    eps = 0.1
    window = wg.WindowSpec(
        dimension=2, half_width=1.0, eps=eps, kind=wg.NEUMANN_WINDOW
    )
    c2 = wg.explicit_window_solution_2d(1.0).farfield_constant
    im_k, a1 = wg.dirichlet_window_width(window, c2, basis, 2)
    want = -(eps**4) / math.sqrt(3.0)
    assert im_k < 0.0
    assert abs(im_k - want) <= 1e-12 * abs(want), f"width {im_k} != {want}"
    assert a1 != 0

    pole = wg.dirichlet_window_pole(window, c2, basis.wall_slope[1], 2, basis=basis)
    assert pole.classification == wg.RESONANCE
    assert pole.im_k_lead == im_k
    assert pole.a1_pred == a1


def test_kernel_orthogonality_residual_determinism() -> None:
    """Numerical hygiene: kernel limit, orthonormal basis, residuals, re-runs.

    The threshold-mode kernel must sit on its k -> 0 limit -s/2 to 1e-10;
    the transverse basis must be orthonormal under exact quadrature to
    1e-10; oracle eigenpairs must carry residuals below 1e-8; and the
    sweep driver must reproduce byte-identical reports on a second run.
    """
    s = np.linspace(0.0, 2.0, 201)
    assert np.array_equal(np.asarray(wg.regularized_kernel(s, 1e-13)), -0.5 * s)
    drift = np.max(np.abs(np.asarray(wg.regularized_kernel(s, 5e-11)) + 0.5 * s))
    assert drift <= 1e-10, f"kernel limit drift {drift:.3e}"

    basis = wg.build_basis(STRIP, 8)
    nodes, weights = np.polynomial.legendre.leggauss(256)
    x2 = 0.5 * math.pi * (nodes + 1.0)
    w2 = 0.5 * math.pi * weights
    phi = basis.phi_matrix(x2)
    gram = (phi * w2[None, :]) @ phi.T
    miss = np.max(np.abs(gram - np.eye(basis.count)))
    assert miss <= 1e-10, f"orthonormality defect {miss:.3e}"

    guide = wg.TruncatedGuide(
        cross_section=STRIP,
        half_length=10.0,
        h=0.05,
        window_half_width=0.4,
    )
    sol = wg.lowest_eigenpairs(wg.build_fd_operator(guide))
    assert sol.residual <= 1e-8, f"eigen-residual {sol.residual:.3e}"

    cfg = wg.parse_config(
        {
            "scenario": wg.REGULAR_POTENTIAL,
            "cross_section": {"width": math.pi, "bc": "dirichlet"},
            "m": 1,
            "epsilons": [0.8, 0.6, 0.5, 0.4],
            "perturbation": {"half_width": 1.0, "n_long": 65, "n_trans": 9},
            "oracle": {"h": [0.1], "L": [8.0, 12.0]},
            "tolerances": {},
        }
    )
    first = wg.run_experiment(cfg)[2]
    second = wg.run_experiment(cfg)[2]
    assert first == second, "re-run report is not byte-identical"


def test_bound_state_tail_mode_structure() -> None:
    """Shallow tilted well: tail rates match k and the mode-2 exponent.

    The x2-dependent well couples the first two transverse modes, so the
    second-mode tail carries a measurable amplitude (a flat well would
    leave that channel empty by orthogonality).  Gates: fitted first-mode
    decay rate within 10% of the secular k, second-mode rate within 10%
    of sqrt(mu_2 - mu_1 + k^2), nonzero second-mode amplitude.
    """
    eps = 0.05
    basis = wg.build_basis(STRIP, 6)
    kernel = _box_kernel(basis)
    V = wg.PerturbationField.from_function(
        kernel.region, lambda x1, x2: 1.0 + x2 / math.pi
    )
    pole = wg.solve_secular(V, eps, kernel)
    assert pole.classification == wg.BOUND_STATE
    k = pole.k.real

    def well(x1, x2):
        # cell-average of the box profile; edge cells get their covered share
        frac = np.clip((1.0 - np.abs(x1)) / 0.1 + 0.5, 0.0, 1.0)
        return -eps * frac * (1.0 + x2 / math.pi)

    guide = wg.TruncatedGuide(
        cross_section=STRIP,
        half_length=45.0,
        h=0.1,
        potential=well,
    )
    sol = wg.lowest_eigenpairs(wg.build_fd_operator(guide))
    tails = wg.extract_tail_coefficients(sol, basis, (2.0, 8.0))
    a1, rate1 = tails[0]
    a2, rate2 = tails[1]

    assert a1 == 1.0
    assert abs(rate1 - k) <= 0.10 * k, (
        f"mode-1 rate {rate1:.6f} vs k {k:.6f} "
        f"({abs(rate1 - k) / k:.1%} off)"
    )
    target = math.sqrt(basis.mu[1] - basis.mu[0] + k * k)
    assert abs(rate2 - target) <= 0.10 * target, (
        f"mode-2 rate {rate2:.6f} vs {target:.6f} "
        f"({abs(rate2 - target) / target:.1%} off)"
    )
    assert abs(a2) > 1e-4, f"mode-2 amplitude {a2:.2e} below measurable level"
