"""Closed-form transverse spectra, traces, and gap helpers."""

import math

import numpy as np
import pytest

from wgpoles.transverse import (
    BC_DIRICHLET,
    BC_NEUMANN,
    CrossSection,
    build_basis,
)

PI = math.pi


def test_dirichlet_spectrum_closed_form() -> None:
    basis = build_basis(CrossSection(width=PI, bc=BC_DIRICHLET), 6)
    assert np.allclose(basis.mu, [1.0, 4.0, 9.0, 16.0, 25.0, 36.0], rtol=0, atol=1e-12)
    assert np.all(np.diff(basis.mu) > 0)
    assert np.all(basis.wall_value == 0.0)


def test_neumann_spectrum_closed_form() -> None:
    basis = build_basis(CrossSection(width=PI, bc=BC_NEUMANN), 5)
    assert basis.mu[0] == 0.0
    assert np.allclose(basis.mu, [0.0, 1.0, 4.0, 9.0, 16.0], rtol=0, atol=1e-12)
    # constant mode is 1/sqrt(d) everywhere
    x = np.linspace(0.0, PI, 7)
    assert np.allclose(basis.phi(1, x), 1.0 / math.sqrt(PI), rtol=0, atol=1e-14)
    assert np.all(basis.wall_slope == 0.0)


def test_orthonormality_under_quadrature() -> None:
    for bc in (BC_DIRICHLET, BC_NEUMANN):
        basis = build_basis(CrossSection(width=PI, bc=bc), 8)
        n = 4001
        x = np.linspace(0.0, PI, n)
        w = np.full(n, PI / (n - 1))
        w[0] = w[-1] = PI / (2 * (n - 1))
        P = basis.phi_matrix(x)
        gram = (P * w) @ P.T
        # uniform trapezoid diagonalizes sampled sines/cosines exactly
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10


def test_wall_traces_match_numeric_derivative() -> None:
    basis = build_basis(CrossSection(width=PI, bc=BC_DIRICHLET), 4)
    h = 1e-6
    for j in range(1, 5):
        fd = (4.0 * basis.phi(j, np.array([h]))[0] - basis.phi(j, np.array([2 * h]))[0]) / (2.0 * h)
        assert abs(fd - basis.wall_slope[j - 1]) < 1e-8 * max(1.0, abs(fd))
    assert abs(basis.wall_slope[0] - math.sqrt(2.0 / PI)) < 1e-14

    neu = build_basis(CrossSection(width=PI, bc=BC_NEUMANN), 4)
    assert abs(neu.wall_value[0] - 1.0 / math.sqrt(PI)) < 1e-14
    assert abs(neu.wall_value[1] - math.sqrt(2.0 / PI)) < 1e-14
    for j in range(1, 5):
        f0 = neu.phi(j, np.array([0.0]))[0]
        fd = (
            -3.0 * f0
            + 4.0 * neu.phi(j, np.array([h]))[0]
            - neu.phi(j, np.array([2 * h]))[0]
        ) / (2.0 * h)
        assert abs(fd) < 1e-6


def test_wall_trace_arrays_per_mode() -> None:
    basis = build_basis(CrossSection(width=PI, bc=BC_DIRICHLET), 3)
    assert basis.wall_slope.shape == basis.wall_value.shape == (3,)
    assert abs(basis.wall_slope[1] - 2.0 * math.sqrt(2.0 / PI)) < 1e-14
    assert basis.wall_value[1] == 0.0


def test_gap_helpers() -> None:
    basis = build_basis(CrossSection(width=PI, bc=BC_DIRICHLET), 5)
    assert basis.gap_below(1) == math.inf
    assert abs(basis.gap_above(1) - 3.0) < 1e-12
    assert abs(basis.gap_below(2) - 3.0) < 1e-12
    assert abs(basis.gap_above(2) - 5.0) < 1e-12

    neu = build_basis(CrossSection(width=PI, bc=BC_NEUMANN), 5)
    assert neu.gap_below(1) == math.inf
    assert abs(neu.gap_above(1) - 1.0) < 1e-12


def test_nonunit_width_scaling() -> None:
    d = 2.5
    basis = build_basis(CrossSection(width=d, bc=BC_DIRICHLET), 3)
    assert abs(basis.mu[0] - (PI / d) ** 2) < 1e-12
    # L2 normalization on (0, d)
    n = 20001
    x = np.linspace(0.0, d, n)
    w = np.full(n, d / (n - 1))
    w[0] = w[-1] = d / (2 * (n - 1))
    for j in (1, 3):
        assert abs(float(np.sum(w * basis.phi(j, x) ** 2)) - 1.0) < 1e-9


def test_validation_errors() -> None:
    with pytest.raises(ValueError):
        CrossSection(width=0.0, bc=BC_DIRICHLET)
    with pytest.raises(ValueError):
        CrossSection(width=1.0, bc="robin")
    cs = CrossSection(width=PI, bc=BC_DIRICHLET)
    with pytest.raises(ValueError):
        build_basis(cs, 0)
    basis = build_basis(cs, 3)
    with pytest.raises(ValueError):
        basis.phi(4, np.zeros(1))
    with pytest.raises(ValueError):
        basis.gap_below(0)
