"""Finite-difference oracle: assembly, eigensolve contract, bindings, tails."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from wgpoles import (
    NEUMANN_ENDS,
    CrossSection,
    SolverError,
    TailFitError,
    TruncatedGuide,
    aitken_limit,
    build_basis,
    build_fd_operator,
    discrete_threshold,
    extract_tail_coefficients,
    lowest_eigenpairs,
    richardson,
)

_CS = CrossSection(width=np.pi, bc="dirichlet")

# roots of q tan q = k, q = sqrt(eps - k^2): the separable well poles
WELL_K_005 = 0.04842657581859076
WELL_K_05 = 0.39237838415464005


def _well(eps: float):
    # half-value edge samples keep the discontinuous well second-order
    def q(x1, x2):
        inside = (np.abs(x1) < 1.0 - 1e-12).astype(float)
        edge = np.abs(np.abs(x1) - 1.0) < 1e-12
        return -eps * (inside + 0.5 * edge) * np.ones_like(x2)

    return q


def test_well_roots_are_frozen_values() -> None:
    for eps, frozen in ((0.05, WELL_K_005), (0.5, WELL_K_05)):
        def f(k: float) -> float:
            q = math.sqrt(eps - k * k)
            return q * math.tan(q) - k

        k = brentq(f, 1e-12, math.sqrt(eps) - 1e-12, xtol=1e-15)
        assert abs(k - frozen) < 1e-12


def test_grid_counts_and_active_dimensions() -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=20.0, h=np.pi / 100)
    op = build_fd_operator(g)
    # 100 transverse cells minus two Dirichlet walls
    assert op.rows == 99
    assert op.columns == g.n_long + 1 - 2
    assert g.n_long % 2 == 0  # grid node at x1 = 0


def test_matrix_is_exactly_symmetric() -> None:
    g = TruncatedGuide(
        cross_section=_CS,
        half_length=4.0,
        h=0.1,
        window_half_width=0.5,
        potential=lambda x1, x2: -0.3 * np.exp(-(x1**2)) * np.sin(x2),
    )
    A = build_fd_operator(g).matrix
    assert (A - A.T).nnz == 0


def test_separable_eigenvalue_identity() -> None:
    # no potential: E_1 is the sum of 1-D discrete eigenvalues, exactly
    g = TruncatedGuide(cross_section=_CS, half_length=3.0, h=0.1)
    sol = lowest_eigenpairs(build_fd_operator(g))
    h1 = g.step_long
    nu1 = 4.0 / h1**2 * math.sin(math.pi * h1 / (2.0 * 6.0)) ** 2
    expected = nu1 + discrete_threshold(g, 1)
    assert abs(sol.values[0] - expected) < 1e-12 * expected
    assert sol.binding < 0
    assert abs(sol.binding + nu1) < 1e-12


def test_discrete_threshold_values() -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=5.0, h=np.pi / 100)
    assert abs(discrete_threshold(g, 1) - 0.999917756002418) < 1e-12
    assert discrete_threshold(g) == discrete_threshold(g, g.mode_index)
    gn = TruncatedGuide(
        cross_section=CrossSection(width=np.pi, bc="neumann"),
        half_length=5.0,
        h=np.pi / 100,
    )
    # lattice constant mode: exactly zero
    assert discrete_threshold(gn, 1) == 0.0
    assert abs(discrete_threshold(gn, 2) - discrete_threshold(g, 1)) < 1e-15


def test_deep_well_matches_transcendental_root() -> None:
    g = TruncatedGuide(
        cross_section=_CS, half_length=12.0, h=0.05, potential=_well(0.5)
    )
    sol = lowest_eigenpairs(build_fd_operator(g), count=2)
    assert np.all(sol.residuals <= 1e-8)
    assert sol.values[0] < sol.values[1]
    assert abs(sol.binding / WELL_K_05**2 - 1.0) < 2e-3


def test_shallow_well_binds_from_above_with_neumann_ends() -> None:
    # Dirichlet truncation at this L would drown the 2.3e-3 binding in
    # confinement energy; Neumann ends approach it from above instead
    g = TruncatedGuide(
        cross_section=_CS,
        half_length=10.0,
        h=0.05,
        ends=NEUMANN_ENDS,
        potential=_well(0.05),
    )
    sol = lowest_eigenpairs(build_fd_operator(g))
    assert sol.binding > WELL_K_005**2
    assert sol.binding < 5.0 * WELL_K_005**2


def test_solver_is_deterministic() -> None:
    g = TruncatedGuide(
        cross_section=_CS, half_length=4.0, h=0.1, potential=_well(0.5)
    )
    op = build_fd_operator(g)
    a = lowest_eigenpairs(op)
    b = lowest_eigenpairs(op)
    assert a.values[0] == b.values[0]
    assert np.array_equal(a.fields, b.fields)


def test_tail_coefficients_of_tilted_well() -> None:
    g = TruncatedGuide(
        cross_section=_CS,
        half_length=12.0,
        h=0.05,
        potential=lambda x1, x2: -0.5 * (1.0 + x2 / np.pi) * (np.abs(x1) <= 1.0),
    )
    sol = lowest_eigenpairs(build_fd_operator(g))
    basis = build_basis(_CS, 8)
    tails = extract_tail_coefficients(sol, basis, (2.5, 7.0))
    assert tails[0][0] == 1.0
    assert abs(tails[0][1] / math.sqrt(sol.binding) - 1.0) < 0.02
    # the tilt couples the second mode in with a definite sign
    assert tails[1][0] < 0
    rate2 = math.sqrt(discrete_threshold(g, 2) - sol.values[0])
    assert abs(tails[1][1] / rate2 - 1.0) < 0.02
    # deep modes drown in eigenvector noise and report cleanly as absent
    assert tails[5][0] == 0.0
    assert math.isnan(tails[5][1])


def test_tail_window_validation() -> None:
    g = TruncatedGuide(
        cross_section=_CS, half_length=8.0, h=0.1, potential=_well(0.5)
    )
    sol = lowest_eigenpairs(build_fd_operator(g))
    basis = build_basis(_CS, 6)
    with pytest.raises(ValueError):
        extract_tail_coefficients(sol, basis, (2.5, 7.0))  # within 2 of the end
    with pytest.raises(ValueError):
        extract_tail_coefficients(sol, basis, (1.2, 5.0))  # inside perturbed zone
    with pytest.raises(ValueError):
        extract_tail_coefficients(sol, basis, (3.0, 3.2))  # too few slices


def test_shallow_truncated_tail_is_rejected() -> None:
    # at k L ~ 0.5 the end condition bends the tail; the fit must notice
    g = TruncatedGuide(
        cross_section=_CS,
        half_length=10.0,
        h=0.05,
        ends=NEUMANN_ENDS,
        potential=_well(0.05),
    )
    sol = lowest_eigenpairs(build_fd_operator(g))
    basis = build_basis(_CS, 6)
    with pytest.raises(TailFitError):
        extract_tail_coefficients(sol, basis, (2.5, 8.0))


def test_no_bound_state_has_no_tails() -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=5.0, h=0.1)
    sol = lowest_eigenpairs(build_fd_operator(g))
    basis = build_basis(_CS, 6)
    with pytest.raises(ValueError):
        extract_tail_coefficients(sol, basis, (1.5, 3.0))


def test_window_carving_creates_binding() -> None:
    g = TruncatedGuide(
        cross_section=_CS, half_length=25.0, h=0.04, window_half_width=0.3
    )
    assert g.feature_half_width == pytest.approx(0.3, abs=1e-12)
    op = build_fd_operator(g)
    # window columns keep their wall node active
    assert op.rows == g.n_trans - 1
    sol = lowest_eigenpairs(op)
    k_lead = 0.5 * 0.3**2
    assert 0.0 < sol.binding < k_lead**2


def test_feature_snapping() -> None:
    g = TruncatedGuide(
        cross_section=_CS, half_length=5.0, h=0.04, window_half_width=0.33
    )
    assert abs(g.feature_half_width - 0.34) < 1e-12
    assert abs(g.feature_snap - 0.01) < 1e-12
    with pytest.raises(ValueError):
        TruncatedGuide(
            cross_section=_CS, half_length=5.0, h=0.2, window_half_width=0.3
        )


def test_symmetric_half_reproduces_even_ground_state() -> None:
    kwargs = dict(cross_section=_CS, half_length=8.0, h=0.1, potential=_well(0.5))
    full = lowest_eigenpairs(build_fd_operator(TruncatedGuide(**kwargs)))
    half = lowest_eigenpairs(
        build_fd_operator(TruncatedGuide(symmetric_half=True, **kwargs))
    )
    assert abs(half.values[0] - full.values[0]) < 1e-10 * abs(full.values[0])


def test_guide_validation() -> None:
    with pytest.raises(ValueError):
        TruncatedGuide(cross_section=_CS, half_length=-1.0, h=0.1)
    with pytest.raises(ValueError):
        TruncatedGuide(cross_section=_CS, half_length=5.0, h=0.1, ends="open")
    with pytest.raises(ValueError):
        TruncatedGuide(cross_section=_CS, half_length=5.0, h=0.1, mode_index=0)
    with pytest.raises(ValueError):
        TruncatedGuide(
            cross_section=_CS,
            half_length=5.0,
            h=0.1,
            window_half_width=0.5,
            patch_half_width=0.5,
        )
    ncs = CrossSection(width=np.pi, bc="neumann")
    with pytest.raises(ValueError):
        TruncatedGuide(cross_section=ncs, half_length=5.0, h=0.1, window_half_width=0.5)
    with pytest.raises(ValueError):
        TruncatedGuide(cross_section=_CS, half_length=5.0, h=0.1, patch_half_width=0.5)
    with pytest.raises(ValueError):
        TruncatedGuide(cross_section=_CS, half_length=5.0, h=0.1, window_half_width=6.0)
    g = TruncatedGuide(
        cross_section=_CS, half_length=2.0, h=0.5, potential=np.ones((3, 3))
    )
    with pytest.raises(ValueError):
        build_fd_operator(g)


def test_eigensolver_contract_errors() -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=2.0, h=0.5)
    op = build_fd_operator(g)
    with pytest.raises(ValueError):
        lowest_eigenpairs(op, count=op.size)
    with pytest.raises(SolverError):
        lowest_eigenpairs(op, shift=discrete_threshold(g) + 10.0)


def test_band_memory_guard() -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=2.0, h=0.2, h_trans=0.0005)
    op = build_fd_operator(g)
    with pytest.raises(MemoryError):
        lowest_eigenpairs(op)


def test_richardson_eliminates_leading_order() -> None:
    f = lambda h: 5.0 + 3.0 * h * h
    assert abs(richardson(f(0.2), f(0.1), 2.0) - 5.0) < 1e-12
    # first-order data, first-order elimination
    assert abs(richardson(5.3, 5.15, 2.0, order=1) - 5.0) < 1e-12


def test_aitken_limit() -> None:
    seq = [2.0 - 3.0 * 0.5**n for n in range(5)]
    assert abs(aitken_limit(seq) - 2.0) < 1e-12
    assert aitken_limit([4.0, 4.0, 4.0]) == 4.0
    with pytest.raises(ValueError):
        aitken_limit([1.0, 2.0])
