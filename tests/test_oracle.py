"""Finite-difference oracle: assembly, eigensolve contract, bindings, tails."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.sparse.linalg import ArpackNoConvergence

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
from wgpoles import oracle

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
    # the x1 = 0 symmetry plane stays active, the Dirichlet end does not
    assert g.x1[0] == 0.0 and g.x1[-1] == 20.0
    assert op.columns == g.n_long


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
    # no potential: E_1 is the sum of 1-D discrete eigenvalues, exactly.  The
    # half guide on [0, L] with a natural x1 = 0 plane carries the even
    # states of the lattice on [-L, L], whose lowest longitudinal eigenvalue
    # is 4/h^2 sin^2(pi h / 4L)
    L = 3.0
    g = TruncatedGuide(cross_section=_CS, half_length=L, h=0.1)
    op = build_fd_operator(g)
    h1 = g.step_long
    nu1 = 4.0 / h1**2 * math.sin(math.pi * h1 / (4.0 * L)) ** 2
    expected = nu1 + discrete_threshold(g, 1)
    # a negative hint (no bound state) still shifts 2|hint| below the
    # threshold, here 3 nu1 below E_1, and must change nothing
    for hint in (None, -0.5 * nu1):
        sol = lowest_eigenpairs(op, binding_hint=hint)
        assert abs(sol.value - expected) < 1e-12 * expected
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
    sol = lowest_eigenpairs(build_fd_operator(g))
    assert sol.residual <= 1e-8
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
    assert a.value == b.value
    assert np.array_equal(a.field, b.field)


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
    rate2 = math.sqrt(discrete_threshold(g, 2) - sol.value)
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
    # the well is constant in x2, so the even ground state of the full
    # lattice on [-L, L] is the lowest eigenvalue of the 1-D 3-point operator
    # with the well on the diagonal, plus the transverse threshold
    g = TruncatedGuide(cross_section=_CS, half_length=8.0, h=0.1, potential=_well(0.5))
    half = lowest_eigenpairs(build_fd_operator(g))
    h1 = g.step_long
    x = np.linspace(-g.half_length, g.half_length, 2 * g.n_long + 1)[1:-1]
    diag = 2.0 / h1**2 + _well(0.5)(x, np.zeros(1))
    off = np.full(x.size - 1, -1.0 / h1**2)
    lam = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0][0]
    full = lam + discrete_threshold(g, 1)
    assert abs(half.value - full) < 1e-10 * abs(full)


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


def test_eigensolver_contract_errors() -> None:
    # a well this deep binds by more than one: E_1 lies below the last shift
    # of the plan, threshold - 1, so its factorization fails and raises
    g = TruncatedGuide(cross_section=_CS, half_length=2.0, h=0.5, potential=_well(5.0))
    op = build_fd_operator(g)
    with pytest.raises(SolverError) as info:
        lowest_eigenpairs(op)
    assert info.value.residuals is None


def test_lanczos_failure_reports_no_residuals(monkeypatch) -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=2.0, h=0.5)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.array([1.25]), np.ones((1, 1))
        )

    monkeypatch.setattr(oracle, "eigsh", no_convergence)
    with pytest.raises(SolverError) as info:
        lowest_eigenpairs(build_fd_operator(g))
    # the partial eigenvalues go into the message, never into the residuals
    assert info.value.residuals is None
    assert "1.25" in str(info.value)


@pytest.fixture(scope="module")
def window_solves():
    """Mid-size window guide: its unhinted solve, a hint, the hinted solve.

    The hint is the binding on the step the harness would snap 0.06 to for
    this window, i.e. what a sweep row passes from its coarse solve.
    """

    def operator(h: float):
        g = TruncatedGuide(
            cross_section=_CS,
            half_length=32.0,
            h=h,
            window_half_width=0.3,
        )
        return build_fd_operator(g)

    hint = lowest_eigenpairs(operator(0.3 / 4.5)).binding
    op = operator(0.04)
    return op, lowest_eigenpairs(op), hint, lowest_eigenpairs(op, binding_hint=hint)


def test_binding_hint_keeps_the_eigenpair(window_solves) -> None:
    _, ref, hint, sol = window_solves
    assert ref.factor_attempts == 1
    assert ref.shift == ref.threshold - 1.0
    assert sol.factor_attempts == 1
    assert sol.shift == ref.threshold - 2.0 * hint
    assert abs(sol.value / ref.value - 1.0) < 1e-11
    assert abs(sol.binding / ref.binding - 1.0) < 1e-8
    assert sol.residual <= 1e-8


def test_shift_above_the_eigenvalue_steps_down(window_solves) -> None:
    # a hint of b/4 aims the first shift at threshold - b/2, above E_1; the
    # failed factorization moves it to threshold - 4b, below
    op, ref, _, _ = window_solves
    sol = lowest_eigenpairs(op, binding_hint=ref.binding / 4.0)
    assert sol.factor_attempts == 2
    assert sol.shift == ref.threshold - 4.0 * ref.binding
    assert abs(sol.value / ref.value - 1.0) < 1e-11
    assert sol.residual <= 1e-8


# inner solves of the hinted window solve: 11 measured, plus a margin of 5
HINTED_INNER_SOLVES_MAX = 16


def test_binding_hint_cuts_inner_solves(window_solves) -> None:
    # counts, not times: the start vector is fixed, so they repeat exactly
    _, ref, _, sol = window_solves
    assert 2 * sol.inner_solves <= ref.inner_solves
    assert sol.inner_solves <= HINTED_INNER_SOLVES_MAX


def test_band_memory_guard(monkeypatch) -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=2.0, h=0.2)
    op = build_fd_operator(g)
    # band storage of 16 rows by 150 unknowns: 19,200 bytes
    monkeypatch.setattr(oracle, "MAX_BAND_BYTES", 19_199)
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
