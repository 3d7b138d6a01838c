"""Secular-equation solver and residue checks against the exact square well.

The potential 1 on [-1, 1] times the cross section separates variables, so
the pole solves q tan q = k with q = sqrt(eps - k^2) exactly; that root,
found independently by bracketing here, anchors the solver tolerances.
"""

import logging

import numpy as np
import pytest
from scipy.optimize import brentq

from wgpoles import (
    BOUND_STATE,
    NO_EIGENVALUE,
    POLE_AT_ZERO,
    RESONANCE,
    AmbiguousClassificationError,
    BoxRegion,
    CrossSection,
    IterationDivergedError,
    ModeSumKernel,
    PerturbationField,
    assemble_birman_schwinger,
    assemble_residue,
    build_basis,
    classify_pole,
    operator_norm,
    regular_leading_asymptotic,
    solve_secular,
)

# exact well pole at eps = 0.04, from the matching condition q tan q = k
WELL_K_004 = 0.03898172374404702


def _setup(n_long: int = 65, n_trans: int = 9, count: int = 4):
    cs = CrossSection(width=np.pi, bc="dirichlet")
    basis = build_basis(cs, 24)
    reg = BoxRegion(cross_section=cs, half_length=1.0, n_long=n_long, n_trans=n_trans)
    kern = ModeSumKernel(basis=basis, m=1, region=reg, count=count)
    return basis, reg, kern


def _well(reg: BoxRegion) -> PerturbationField:
    return PerturbationField.from_function(reg, lambda x1, x2: np.ones_like(x1))


def test_well_oracle_root_is_frozen_value() -> None:
    # re-derive the transcendental root; guards against a drifted constant
    def f(k: float) -> float:
        q = np.sqrt(0.04 - k * k)
        return q * np.tan(q) - k

    k = brentq(f, 1e-12, 0.2 - 1e-12, xtol=1e-15)
    assert abs(k - WELL_K_004) < 1e-12


def test_secular_matches_exact_well() -> None:
    basis, reg, kern = _setup(n_long=129, n_trans=17)
    p = solve_secular(_well(reg), 0.04, kern)
    assert p.classification == BOUND_STATE
    assert p.converged
    # quadrature is the only error source left; measured 2.8e-8 at this grid
    assert abs(p.k - WELL_K_004) < 1e-7
    assert p.k.imag == 0.0


def test_pole_is_first_order_in_coupling() -> None:
    # <phi_1 V phi_1> = 2 for the well, so k = eps + O(eps^2)
    basis, reg, kern = _setup()
    p = solve_secular(_well(reg), 0.01, kern)
    assert abs(p.k - 0.01) < 5e-4
    # expanding q tan q = k gives k = eps - (2/3) eps^2 + ...
    assert 0.0 < 0.01 - p.k.real < 1e-4


def test_odd_potential_starts_at_second_order() -> None:
    basis, reg, kern = _setup()
    V = PerturbationField.from_function(
        reg, lambda x1, x2: x1 * np.exp(-(x1**2)) + 0.0 * x2
    )
    k_small = solve_secular(V, 0.02, kern).k
    k_large = solve_secular(V, 0.04, kern).k
    assert abs(k_small) < 1e-4
    assert abs(abs(k_large) / abs(k_small) - 4.0) < 0.15


def test_vanishing_forcing_short_circuits() -> None:
    basis, reg, kern = _setup()
    V = PerturbationField(region=reg, values=np.zeros((reg.n_long, reg.n_trans)))
    p = solve_secular(V, 0.3, kern)
    assert p.classification == POLE_AT_ZERO
    assert p.k == 0
    assert p.converged


def test_leading_asymptotic_values() -> None:
    basis, reg, kern = _setup()
    lam = regular_leading_asymptotic(_well(reg), 0.1, 1, basis)
    assert abs(lam - (-0.01)) < 1e-14
    Vodd = PerturbationField.from_function(
        reg, lambda x1, x2: x1 * np.exp(-(x1**2)) + 0.0 * x2
    )
    assert abs(regular_leading_asymptotic(Vodd, 0.1, 1, basis)) < 1e-15
    Vzero = PerturbationField(region=reg, values=np.zeros((reg.n_long, reg.n_trans)))
    assert regular_leading_asymptotic(Vzero, 0.1, 1, basis) == 0


def test_pole_minus_leading_scales_cubically() -> None:
    basis, reg, kern = _setup()
    diffs = []
    for eps in (0.02, 0.04):
        V = _well(reg)
        p = solve_secular(V, eps, kern)
        diffs.append(abs(p.lam - regular_leading_asymptotic(V, eps, 1, basis)))
    slope = np.log(diffs[1] / diffs[0]) / np.log(2.0)
    assert 2.7 <= slope <= 3.2


def test_zero_coupling_assembles_identity() -> None:
    basis, reg, kern = _setup(n_long=17, n_trans=5)
    B = assemble_birman_schwinger(_well(reg), 0.02, 0.0, kern)
    assert np.array_equal(B, np.eye(reg.size))


def test_real_data_stays_real() -> None:
    basis, reg, kern = _setup(n_long=17, n_trans=5)
    B = assemble_birman_schwinger(_well(reg), 0.02, 0.3, kern)
    assert not np.iscomplexobj(B)
    p = solve_secular(_well(reg), 0.04, kern)
    assert p.k.imag == 0.0
    assert not np.iscomplexobj(p.residue)


def test_potential_shape_validation() -> None:
    basis, reg, kern = _setup(n_long=9, n_trans=5)
    with pytest.raises(ValueError):
        PerturbationField(region=reg, values=np.ones((3, 3)))
    V = PerturbationField.from_function(
        reg, lambda x1, x2: np.exp(-(x1**2)) * np.sin(x2)
    )
    assert abs(V.bound - np.max(np.abs(V.values))) == 0.0


def test_operator_norm_agrees_with_dense_norm() -> None:
    assert abs(operator_norm(np.diag([3.0, 1.0, 0.5])) - 3.0) < 1e-12
    rng = np.random.default_rng(11)
    M = rng.standard_normal((40, 40))
    assert abs(operator_norm(M) / np.linalg.norm(M, 2) - 1.0) < 1e-3


def test_restart_agrees_with_fixed_point() -> None:
    basis, reg, kern = _setup()
    V = _well(reg)
    k_fp = solve_secular(V, 0.04, kern).k
    k_rs = solve_secular(V, 0.04, kern, k0=0.05).k
    assert abs(k_fp - k_rs) < 1e-10


def test_strong_coupling_diverges_loudly(caplog) -> None:
    basis, reg, kern = _setup()
    with caplog.at_level(logging.WARNING, logger="wgpoles.regular_pole"):
        with pytest.raises(IterationDivergedError) as exc:
            solve_secular(_well(reg), 5.0, kern)
    assert len(exc.value.trace) >= 2
    assert any("contraction" in r.message for r in caplog.records)


def test_classification_rules() -> None:
    assert classify_pole(0.0, 3) == POLE_AT_ZERO
    assert classify_pole(-0.01, 2) == NO_EIGENVALUE
    assert classify_pole(-0.01 + 0.5j, 2) == NO_EIGENVALUE
    assert classify_pole(0.02, 1) == BOUND_STATE
    assert classify_pole(0.02 + 1e-5j, 2) == BOUND_STATE
    assert classify_pole(0.02 - 1e-5j, 2, a1=0.3) == RESONANCE
    with pytest.raises(AmbiguousClassificationError):
        classify_pole(0.02, 2)
    with pytest.raises(AmbiguousClassificationError):
        classify_pole(0.02 - 1e-5j, 2)
    with pytest.raises(AmbiguousClassificationError):
        classify_pole(0.02 - 1e-5j, 2, a1=0.0)
    with pytest.raises(ValueError):
        classify_pole(0.5, 0)


def test_residue_is_normalized_eigenfunction() -> None:
    basis, reg, kern = _setup(n_long=129, n_trans=17)
    eps = 0.04
    p = solve_secular(_well(reg), eps, kern)
    ef = assemble_residue(p, kern)
    assert ef.amplitudes[0] == 1.0
    # x1-only potential excites no other transverse mode
    assert np.max(np.abs(ef.amplitudes[1:])) < 1e-12
    assert 0.9 <= ef.raw_threshold_amplitude.real <= 1.1
    assert abs(ef.raw_threshold_amplitude.imag) < 1e-14
    # outside the box the threshold profile is one pure exponential
    assert abs(ef.decay_rate / p.k.real - 1.0) < 1e-12
    assert ef.square_integrable
    assert ef.m == 1

    # the residue solves the eigenvalue equation inside the well
    i1 = np.arange(16, 113, 2)
    x2 = np.linspace(0.3, np.pi - 0.3, 33)
    X1, X2 = np.meshgrid(reg.x1[i1], x2, indexing="ij")
    U = np.asarray(ef(X1, X2)).real
    h1 = 2.0 * (reg.x1[1] - reg.x1[0])
    h2 = x2[1] - x2[0]
    lap = (U[2:, 1:-1] - 2.0 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / h1**2 + (
        U[1:-1, 2:] - 2.0 * U[1:-1, 1:-1] + U[1:-1, :-2]
    ) / h2**2
    resid = lap + (basis.mu[0] - p.k.real**2 + eps) * U[1:-1, 1:-1]
    assert np.max(np.abs(resid)) < 1e-3


def test_residue_not_defined_at_zero_pole() -> None:
    basis, reg, kern = _setup()
    V = PerturbationField(region=reg, values=np.zeros((reg.n_long, reg.n_trans)))
    p = solve_secular(V, 0.3, kern)
    with pytest.raises(ValueError):
        assemble_residue(p, kern)
