"""Finite-difference oracle: assembly, eigensolve contract, bindings, tails."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.sparse.linalg import eigsh

from wgpoles import harness, oracle
from wgpoles.oracle import (
    SolverError,
    TruncatedGuide,
    aitken_limit,
    build_fd_operator,
    discrete_threshold,
    extract_tail_coefficients,
    lowest_eigenpairs,
    richardson,
)
from wgpoles.transverse import CrossSection, build_basis

_CS = CrossSection(width=np.pi, bc="dirichlet")
_NCS = CrossSection(width=np.pi, bc="neumann")

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


def _tilted_well(x1, x2):
    return -0.5 * (1.0 + x2 / np.pi) * (np.abs(x1) <= 1.0)


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
    # 100 transverse cells minus two Dirichlet walls: 99 lattice sines
    assert op.mu.size == 99
    assert g.x1[0] == 0.0 and g.x1[-1] == 20.0
    # nothing is perturbed: the box is the x1 = 0 plane plus the padding, and
    # the exterior runs from its edge column to the Dirichlet end
    assert op.columns == oracle.BOX_PADDING + 1
    assert op.size == op.columns * 99
    assert op.exterior_columns == g.n_long - oracle.BOX_PADDING
    # a well's box ends BOX_PADDING columns past the last column its
    # potential touches: the half-value edge sample at x1 = 1, column 25
    gw = TruncatedGuide(cross_section=_CS, half_length=20.0, h=0.04, potential=_well(0.3))
    opw = build_fd_operator(gw)
    assert opw.columns == 25 + oracle.BOX_PADDING + 1
    assert opw.size == opw.columns * (gw.n_trans - 1)


@pytest.mark.parametrize("cs", [_CS, _NCS], ids=["window", "patch"])
@pytest.mark.parametrize("potential", [None, _well(0.3)], ids=["bare", "with-well"])
def test_box_refuses_a_wall_feature(cs, potential) -> None:
    # the box solves wells alone; a window or a patch, with or without a
    # potential, is refused before anything is assembled
    g = TruncatedGuide(
        cross_section=cs, half_length=20.0, h=0.1, half_width=0.4, potential=potential
    )
    with pytest.raises(ValueError, match="build_window_operator, build_patch_operator"):
        build_fd_operator(g)


def _x2_well_guide() -> TruncatedGuide:
    # a well that varies across the strip, cut off at x1 = 2
    return TruncatedGuide(
        cross_section=_CS,
        half_length=4.0,
        h=0.1,
        potential=lambda x1, x2: -np.exp(-(x1**2)) * np.sin(x2) * (x1 <= 2.0),
    )


def _box_nodes(op, v: np.ndarray) -> np.ndarray:
    """The box's mode coefficients ``v`` as values on its node grid, eliminated nodes zero."""
    g = op.guide
    k, _, phi = _lattice_modes(g, op.mu)
    u = np.zeros((op.columns, g.n_trans + 1))
    u[:, k] = v.reshape(op.columns, k.size) @ phi.T
    return u


def test_band_is_the_energy_form() -> None:
    # v^T A v from the band against the quadratic form written out on the
    # box's node grid: sum w (du)^2 / h over the edges, an edge to an
    # eliminated node counting that node as zero, plus sum q w1 w2 u^2
    g = _x2_well_guide()
    op = build_fd_operator(g)
    v = np.random.default_rng(7).standard_normal(op.size)
    u = _box_nodes(op, v)
    cols = u.shape[0]
    h1, h2 = g.step_long, g.step_trans
    w1 = np.full(cols, h1)
    w1[[0, -1]] = h1 / 2.0
    w2 = np.full(g.n_trans + 1, h2)
    w2[[0, -1]] = h2 / 2.0
    q = g.potential_samples()[:cols]
    energy = (
        np.sum(w2 * np.diff(u, axis=0) ** 2) / h1
        + np.sum(w1[:, None] * np.diff(u, axis=1) ** 2) / h2
        + np.sum(q * np.outer(w1, w2) * u**2)
    )
    Av = op.matvec(v)
    assert abs(v @ Av - energy) <= 1e-12 * abs(energy)
    # the product sums each row as the sparse matrix does, bit for bit
    assert np.array_equal(Av, op.matrix @ v)


def test_uniform_well_band_is_diagonal_in_the_modes() -> None:
    # the regular rows' well, sampled as the sweep samples it, is uniform
    # across the strip: in the columns' lattice modes its band fills only
    # the diagonal and the longitudinal row K, and the product visits those two
    g = TruncatedGuide(cross_section=_CS, half_length=40.0, h=0.125)
    g.potential = harness._box_sampler(0.08, 1.0, g.step_long)
    op = build_fd_operator(g)
    K = op.mu.size
    assert set(np.flatnonzero(op.band.any(axis=1))) == {0, K}
    assert [d for d, _ in op._diagonals] == [0, K]


def test_lapack_binding_matches_scipy() -> None:
    op = build_fd_operator(_x2_well_guide())
    sol = lowest_eigenpairs(op)
    b = np.random.default_rng(3).standard_normal(op.size)

    def shifted(E: float) -> np.ndarray:
        ab = op.band.copy(order="F")
        ab[0] -= E * op.mass
        return ab

    # below E_1 the box's pencil factors, and the oracle's LAPACK calls give
    # scipy's results bit for bit
    ab = shifted(sol.value - 0.5)
    want = sla.cholesky_banded(ab, lower=True)
    got = oracle.cholesky_banded(ab.copy(order="F"))
    assert np.array_equal(got, want)
    assert np.array_equal(
        oracle.cho_solve_banded(got, b), sla.cho_solve_banded((want, True), b)
    )
    # the box with a natural edge has its lowest eigenvalue below the
    # guide's E_1, so at the threshold, above E_1, it is indefinite
    assert sol.binding > 0
    with pytest.raises(np.linalg.LinAlgError):
        oracle.cholesky_banded(shifted(sol.threshold))
    # the extension loads on the first banded factorization, on its own, and
    # is the one scipy.linalg then imports
    script = (
        "import sys, numpy as np, wgpoles\n"
        "from wgpoles import oracle\n"
        "assert 'scipy.linalg._flapack' not in sys.modules\n"
        "c = oracle.cholesky_banded(np.array([[4.0, 4.0], [1.0, 0.0]]))\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "import scipy.linalg as sla\n"
        "assert sla.lapack._flapack is oracle._load_flapack()\n"
        "assert np.array_equal(c, sla.cholesky_banded(np.array([[4.0, 4.0], [1.0, 0.0]]), lower=True))\n"
    )
    src = str(Path(oracle.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 0, run.stderr


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
    # a negative hint (no bound state) gives the default plan and must
    # change nothing
    for hint in (None, -0.5 * nu1):
        sol = lowest_eigenpairs(op, binding_hint=hint)
        assert abs(sol.value - expected) < 1e-12 * expected
        assert sol.binding < 0
        assert abs(sol.binding + nu1) < 1e-12


def test_discrete_threshold_values() -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=5.0, h=np.pi / 100)
    assert abs(discrete_threshold(g, 1) - 0.999917756002418) < 1e-12
    assert discrete_threshold(g) == discrete_threshold(g, 1)
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


def test_solver_is_deterministic() -> None:
    g = TruncatedGuide(
        cross_section=_CS, half_length=4.0, h=0.1, potential=_well(0.5)
    )
    op = build_fd_operator(g)
    a = lowest_eigenpairs(op)
    b = lowest_eigenpairs(op)
    assert a.value == b.value
    assert np.array_equal(a.vector, b.vector)


def _lattice_rate(g: TruncatedGuide, j: int, E: float) -> float:
    # theta / h1 with cosh(theta) = 1 + h1^2 (mu_j^h - E) / 2; arccosh(1 + x)
    # is written log1p(x + sqrt(x (x + 2))) so small x keeps its digits
    h1 = g.step_long
    x = 0.5 * h1 * h1 * (discrete_threshold(g, j) - E)
    return math.log1p(x + math.sqrt(x * (x + 2.0))) / h1


def _assert_tails_rebuild_exterior(sol, tails) -> None:
    # the whole guide from two parts: the box from the eigenvector, and past
    # its edge column every mode's decaying tail minus the image of that
    # tail in the Dirichlet end at L, one overall scale, since a_1 = 1,
    # fitted on the edge column
    op = sol.operator
    g = op.guide
    c = op.columns - 1
    x = g.x1[c:, None]
    a = np.array([t[0] for t in tails])
    rate = np.array([t[1] for t in tails])
    profile = a * (np.exp(-rate * x) - np.exp(-rate * (2.0 * g.x1[-1] - x)))
    rebuilt = profile @ build_basis(g.cross_section, len(tails)).phi_matrix(g.x2)
    u = np.zeros((g.n_long + 1, g.n_trans + 1))
    u[: c + 1] = _box_nodes(op, sol.vector)
    edge = u[c]
    scale = float(rebuilt[0] @ edge / (rebuilt[0] @ rebuilt[0]))
    assert np.max(np.abs(scale * rebuilt[0] - edge)) <= 1e-9 * np.max(np.abs(edge))
    u[c + 1 :] = scale * rebuilt[1:]
    # the 5-point equation of the whole guide holds at E_1 from the edge
    # column to the end
    h1, h2 = g.step_long, g.step_trans
    lap = (
        (2.0 * u[c:-1, 1:-1] - u[c - 1 : -2, 1:-1] - u[c + 1 :, 1:-1]) / h1**2
        + (2.0 * u[c:-1, 1:-1] - u[c:-1, :-2] - u[c:-1, 2:]) / h2**2
    )
    assert np.max(np.abs(lap - sol.value * u[c:-1, 1:-1])) <= 1e-9 * np.max(np.abs(lap))
    # mass-normalized over the whole guide
    w1 = np.full(g.n_long + 1, h1)
    w1[[0, -1]] = h1 / 2.0
    w2 = np.full(g.n_trans + 1, h2)
    w2[[0, -1]] = h2 / 2.0
    assert abs(float(np.sum(u * u * np.outer(w1, w2))) - 1.0) < 1e-12


def test_tail_coefficients_of_tilted_well() -> None:
    cs, kw = FULL_GRID_CASES["tilted well"]
    g = TruncatedGuide(cross_section=cs, **kw)
    sol = lowest_eigenpairs(build_fd_operator(g))
    tails = extract_tail_coefficients(sol, g.n_trans - 1)
    assert len(tails) == g.n_trans - 1
    with pytest.raises(ValueError):
        extract_tail_coefficients(sol, g.n_trans)  # more modes than the lattice
    assert tails[0][0] == 1.0
    assert abs(tails[0][1] / math.sqrt(sol.binding) - 1.0) < 0.02
    # the tilt couples the second mode in with a definite sign; a log-linear
    # fit of the projections over x1 in [2.5, 7] read -0.0675
    assert tails[1][0] < 0
    assert abs(tails[1][0] / -0.0675 - 1.0) < 0.01
    rate2 = math.sqrt(discrete_threshold(g, 2) - sol.value)
    assert abs(tails[1][1] / rate2 - 1.0) < 0.02
    for j, (_, rate) in enumerate(tails, start=1):
        assert abs(rate / _lattice_rate(g, j, sol.value) - 1.0) < 1e-12
    _assert_tails_rebuild_exterior(sol, tails)


# flat wells whose tail the Dirichlet end bends: a log-linear fit of the
# first-mode projections over x1 in [2, 4], [2, 2.5] and [2, 6] passed
# R^2 > 0.99 and read rates 0.347, 0.461 and 0.339
@pytest.mark.parametrize("eps, L", [(0.2, 6.0), (0.3, 4.5), (0.3, 8.0)])
def test_tail_rate_of_a_dirichlet_bent_well(eps, L) -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=L, h=0.05, potential=_well(eps))
    sol = lowest_eigenpairs(build_fd_operator(g))
    tails = extract_tail_coefficients(sol, g.n_trans - 1)
    rate = tails[0][1]
    assert abs(rate / _lattice_rate(g, 1, sol.value) - 1.0) < 1e-12
    # cosh(h1 k) = 1 + h1^2 b / 2: the rate is sqrt(b) up to O(h1^2 b)
    assert abs(rate / math.sqrt(sol.binding) - 1.0) < 1e-4
    _assert_tails_rebuild_exterior(sol, tails)


def test_no_bound_state_has_no_tails() -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=5.0, h=0.1)
    sol = lowest_eigenpairs(build_fd_operator(g))
    with pytest.raises(ValueError, match="no bound state"):
        extract_tail_coefficients(sol, 6)


def test_window_carving_creates_binding() -> None:
    g = TruncatedGuide(
        cross_section=_CS, half_length=25.0, h=0.04, half_width=0.3
    )
    assert g.feature_half_width == pytest.approx(0.3, abs=1e-12)
    # solved on the window's wall nodes, which the window opens
    sol = lowest_eigenpairs(oracle.build_window_operator(g))
    assert sol.vector.size == g.feature_nodes + 1
    k_lead = 0.5 * 0.3**2
    assert 0.0 < sol.binding < k_lead**2


def test_feature_snapping() -> None:
    # h = 0.04 is snapped so the edge of a 0.33 half-width falls midway
    # between nodes, 8.5 steps out; a guide a whole number of those steps
    # long keeps the edge where it was asked for
    g = TruncatedGuide(cross_section=_CS, half_length=128 * 0.33 / 8.5, h=0.04, half_width=0.33)
    assert g.h_snapped == 0.33 / 8.5
    assert (g.n_long, g.feature_nodes) == (128, 8)
    assert g.feature_snap < 1e-12
    # any other length rounds L/h to whole cells, which moves the step, and
    # the edge is snapped again onto the moved step
    g = TruncatedGuide(cross_section=_CS, half_length=5.0, h=0.04, half_width=0.33)
    assert g.h_snapped == 0.33 / 8.5
    assert (g.n_long, g.feature_nodes) == (129, 8)
    assert g.feature_half_width == 8.5 * g.step_long
    assert abs(g.feature_snap - (0.33 - 8.5 * 5.0 / 129)) < 1e-15


@pytest.mark.parametrize("cs", [_CS, _NCS], ids=["window", "patch"])
def test_too_coarse_step_is_refined_to_four_feature_nodes(cs) -> None:
    # h = 0.2 leaves a 0.3 half-width feature one node; the guide refines
    # the step to 0.3/4.5 instead, and solves the grid that step gives
    g = TruncatedGuide(cross_section=cs, half_length=5.0, h=0.2, half_width=0.3)
    assert g.h_snapped == 0.3 / 4.5
    assert (g.n_long, g.feature_nodes) == (75, 4)
    assert g.feature_snap < 1e-12
    same = TruncatedGuide(cross_section=cs, half_length=5.0, h=0.3 / 4.5, half_width=0.3)
    assert (same.step_long, same.step_trans) == (g.step_long, g.step_trans)


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


def _full_grid_form(n1, h1, n2, h2):
    """Energy form (sparse) and trapezoid mass (on the node grid) of the whole half guide."""

    def weights(n, step):
        w = np.full(n + 1, step)
        w[[0, -1]] = step / 2.0
        return w

    def stiffness(n, step):
        D = sp.diags([-np.ones(n), np.ones(n)], [0, 1], shape=(n, n + 1))
        return (D.T @ D) / step

    w1, w2 = weights(n1, h1), weights(n2, h2)
    A = sp.kron(stiffness(n1, h1), sp.diags(w2)) + sp.kron(sp.diags(w1), stiffness(n2, h2))
    return A, np.outer(w1, w2)


def _full_grid_binding(bc, L, h, half_width=None, potential=None):
    """Binding of the whole half guide, assembled and solved apart from ``wgpoles``.

    The energy form on the full node grid of ``[0, L] x [0, pi]`` is built
    from Kronecker products of 1-D difference matrices, the wall and end
    conditions applied by deleting Dirichlet nodes, and the lowest
    eigenvalue found by scipy's shift-invert Lanczos; the grid follows the
    guide's rules (``h`` snapped to the feature's ``half_width``,
    ``round(L/h)`` cells, feature edge midway between nodes), and the
    feature is a window in a Dirichlet wall, a patch in a Neumann one.
    """
    d = math.pi
    if half_width is not None:
        h = half_width / (max(4, round(half_width / h - 0.5)) + 0.5)
    n1 = max(4, round(L / h))
    n2 = max(4, round(d / h))
    h1, h2 = L / n1, d / n2
    x1 = np.linspace(0.0, L, n1 + 1)
    x2 = np.linspace(0.0, d, n2 + 1)
    A, mass = _full_grid_form(n1, h1, n2, h2)
    if potential is not None:
        q = np.broadcast_to(potential(x1[:, None], x2[None, :]), mass.shape)
        A = A + sp.diags((q * mass).ravel())
    active = np.ones((n1 + 1, n2 + 1), dtype=bool)
    if half_width is not None:
        carved = np.arange(n1 + 1) <= round(half_width / h1 - 0.5)
    if bc == "dirichlet":
        active[:, [0, -1]] = False
        if half_width is not None:
            active[carved, 0] = True
        mu1 = 4.0 / h2**2 * math.sin(math.pi * h2 / (2.0 * d)) ** 2
    else:
        if half_width is not None:
            active[carved, 0] = False
        mu1 = 0.0
    active[-1, :] = False
    keep = np.flatnonzero(active.ravel())
    A = A.tocsr()[keep][:, keep].tocsc()
    M = sp.diags(mass.ravel()[keep])
    E = eigsh(A, k=1, M=M, sigma=mu1 - 1.0, which="LM", v0=np.ones(keep.size))[0][0]
    return mu1 - E


# (cross section, guide keywords)
FULL_GRID_CASES = {
    "window": (_CS, dict(half_length=16.0, h=0.06, half_width=0.3)),
    "patch": (_NCS, dict(half_length=10.0, h=0.05, half_width=0.4)),
    "tilted well": (_CS, dict(half_length=12.0, h=0.05, potential=_tilted_well)),
    "neumann well": (_NCS, dict(half_length=12.0, h=0.05, potential=_tilted_well)),
}


@pytest.mark.parametrize("case", sorted(FULL_GRID_CASES))
def test_box_solve_matches_full_grid(case) -> None:
    # each guide on the operator a sweep uses: the box for the wells, the
    # wall forms for the window and the patch.  Measured 4.5e-11 (window),
    # 3.4e-12 (patch), 5.3e-13 and 5.5e-13 (the wells), the full grid's own
    # error; the bound leaves a margin of 22
    cs, kw = FULL_GRID_CASES[case]
    g = TruncatedGuide(cross_section=cs, **kw)
    build = {"window": oracle.build_window_operator, "patch": oracle.build_patch_operator}
    sol = lowest_eigenpairs(build.get(case, build_fd_operator)(g))
    assert sol.residual <= 1e-8
    want = _full_grid_binding(
        cs.bc,
        kw["half_length"],
        kw["h"],
        half_width=kw.get("half_width"),
        potential=kw.get("potential"),
    )
    assert abs(sol.binding / want - 1.0) < 1e-9


def _window_schur(g: TruncatedGuide, E: float) -> np.ndarray:
    """``T_W(E)`` of a window guide, computed densely apart from ``wgpoles``.

    The whole finite guide's ``A - E M`` on its active nodes (the Dirichlet
    walls and end deleted, the window's wall nodes kept), with every node
    but the window's eliminated by a dense Schur complement.
    """
    A, mass = _full_grid_form(g.n_long, g.step_long, g.n_trans, g.step_trans)
    active = np.ones(mass.shape, dtype=bool)
    active[:, [0, -1]] = False
    active[-1, :] = False
    active[: g.feature_nodes + 1, 0] = True
    wall = np.zeros(mass.shape, dtype=bool)
    wall[: g.feature_nodes + 1, 0] = True
    keep = active.ravel()
    T = (A.toarray() - E * np.diag(mass.ravel()))[np.ix_(keep, keep)]
    w = wall.ravel()[keep]
    return T[np.ix_(w, w)] - T[np.ix_(w, ~w)] @ np.linalg.solve(T[np.ix_(~w, ~w)], T[np.ix_(~w, w)])


def test_window_form_is_the_schur_complement() -> None:
    # below mu_1^h, on it (theta_1 = 0: the limit), between it and the cap
    # (mode 1 oscillates, theta_1 = i phi), 1e-9 either side of it, and a
    # pair straddling r's series join: at mu_1^h - 1e-8 every a theta_1 is
    # below SERIES_BELOW, at mu_1^h - 1e-6 those with a >= 5 are above it.
    # Measured: H(E) within 1.8e-15 of the dense complement, relative to its
    # largest entry, and -H'(E) within 2.6e-9 of its central difference with
    # step 1e-6, which is that difference's own error; the bounds leave a
    # margin of 57 and 38.  H and H' are read from the form directly
    g = TruncatedGuide(cross_section=_CS, half_length=3.0, h=0.25, half_width=1.1)
    op = oracle.build_window_operator(g)
    assert (op.size, g.n_long, g.n_trans) == (g.feature_nodes + 1, 12, 13)
    mu1 = discrete_threshold(g)
    for E in (mu1 - 0.3, mu1, 0.5 * (mu1 + op.first), mu1 - 1e-9, mu1 + 1e-9, mu1 - 1e-8, mu1 - 1e-6):
        got, d_got = op.evaluate(E)
        want = _window_schur(g, E)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        dE = 1e-6
        d_want = (_window_schur(g, E + dE) - _window_schur(g, E - dE)) / (2.0 * dE)
        assert np.abs(d_got - d_want).max() <= 1e-7 * np.abs(d_want).max()


def test_window_closure_does_not_depend_on_its_block_size(monkeypatch) -> None:
    # the tau^2 gate's finest level at eps = 0.05 on a short guide: 81
    # offsets by 2,544 modes, 14 blocks of 6 rows by default; below the
    # threshold, on it, and with mode 1 oscillating.  The block's row count
    # changes only how BLAS groups the rows of each product: measured
    # within 2.8e-16 (H) and 3.0e-14 (H') of one-row blocks, relative
    # to the largest entry
    h = 0.05 / 40.5
    g = TruncatedGuide(cross_section=_CS, half_length=300 * h, h=h, half_width=0.05)
    op = oracle.build_window_operator(g)
    rows = oracle.WINDOW_BLOCK // op.mu.size
    assert (2 * op.size - 1, op.mu.size, rows) == (81, 2544, 6)
    mu1 = discrete_threshold(g)
    for E in (mu1 - 1e-5, mu1, 0.5 * (mu1 + op.first)):
        blocked = op.evaluate(E)
        with monkeypatch.context() as m:
            m.setattr(oracle, "WINDOW_BLOCK", 1)
            one_row = op.evaluate(E)
        for got, want, tol in zip(blocked, one_row, (1e-14, 1e-12)):
            assert np.abs(got - want).max() <= tol * np.abs(want).max()


# relative difference of the wall forms' bindings from the full grid's on
# the same guides: at most 5.3e-11 measured below, the full grid's own
# roundoff (its binding moves by up to 7.8e-11 as its shift moves from
# mu_1 - 1 to mu_1 - 0.1); the bound leaves a margin of 3.8
FULL_GRID_REL_TOL = 2e-10


@pytest.mark.parametrize("eps", [0.4, 0.3])
def test_window_form_matches_the_box(eps) -> None:
    # the window-ladder's first length at its coarse step 0.08, and at eps =
    # 0.4 at its fine step 0.04 too, against the full grid of the same
    # guide: measured 1.4e-12 and 5.3e-11 (eps = 0.4), 1.4e-11 (eps = 0.3).
    # The window form solves n_feat + 1 unknowns
    L = round(2.8 / eps**2, 1)
    for h in {0.4: (0.08, 0.04), 0.3: (0.08,)}[eps]:
        g = TruncatedGuide(cross_section=_CS, half_length=L, h=h, half_width=eps)
        win = lowest_eigenpairs(oracle.build_window_operator(g))
        assert win.operator.form == "window"
        assert win.vector.size == g.feature_nodes + 1
        assert win.residual <= oracle.EIGEN_RESIDUAL_TOL
        want = _full_grid_binding("dirichlet", L, h, half_width=eps)
        assert abs(win.binding / want - 1.0) <= FULL_GRID_REL_TOL


def test_hinted_window_solve_stops_when_a_trial_closes_the_bracket(well_solves, monkeypatch) -> None:
    # the regular row's well at its fine step, hinted by its coarse step as
    # a sweep row is: the first shift and the first trial each take a
    # Rayleigh functional; the second trial factors within BRACKET_TOL of
    # the upper bound, so the solve stops there, with no Rayleigh functional
    # after it.  Each Rayleigh functional and the final mass contract the
    # pencil vector once
    op, _, hint, _ = well_solves
    log = []
    for name, tag in (("factor", "F"), ("contract", "C")):
        method = getattr(op, name)
        monkeypatch.setattr(op, name, lambda x, method=method, tag=tag: log.append(tag) or method(x))
    sol = lowest_eigenpairs(op, binding_hint=hint)
    assert "".join(log) == "FCFCFC"
    assert (sol.factorizations, sol.inner_solves) == (3, 5)
    assert sol.residual <= oracle.EIGEN_RESIDUAL_TOL


def test_window_form_refuses_what_it_does_not_solve() -> None:
    # no window, a potential, a window too close to the guide's end, as the
    # box refuses it, and a patch, which a Neumann wall makes of the feature
    for cs, kw in (
        (_CS, dict(half_length=4.0, h=0.1)),
        (_CS, dict(half_length=4.0, h=0.1, half_width=0.5, potential=lambda x1, x2: 0.0 * x1)),
        (_CS, dict(half_length=0.8, h=0.1, half_width=0.5)),
        (_NCS, dict(half_length=4.0, h=0.1, half_width=0.5)),
    ):
        with pytest.raises(ValueError):
            oracle.build_window_operator(TruncatedGuide(cross_section=cs, **kw))


def test_window_form_solution_has_no_tails() -> None:
    # the tails are read from the box's edge column, which the window form
    # eliminates with the rest of the guide
    g = TruncatedGuide(cross_section=_CS, half_length=17.5, h=0.08, half_width=0.4)
    sol = lowest_eigenpairs(oracle.build_window_operator(g))
    assert sol.binding > 0
    with pytest.raises(ValueError, match="read from the box form's edge column"):
        extract_tail_coefficients(sol, 1)


def _patch_guide_dense(g: TruncatedGuide):
    """Unperturbed Neumann guide's dense ``A`` and mass on its active nodes, and which are the patch's.

    Built apart from ``wgpoles``: every node but the Dirichlet end is
    active, and the patch's nodes are the wall nodes ``(i, 0)``, ``i <=
    n_feat``; the patched guide is the block off them.
    """
    A, mass = _full_grid_form(g.n_long, g.step_long, g.n_trans, g.step_trans)
    active = np.ones(mass.shape, dtype=bool)
    active[-1, :] = False
    patch = np.zeros(mass.shape, dtype=bool)
    patch[: g.feature_nodes + 1, 0] = True
    keep = active.ravel()
    return A.toarray()[np.ix_(keep, keep)], mass.ravel()[keep], patch.ravel()[keep]


# (L, h, W) of short Neumann guides whose E_1 lies above 0.25
SHORT_PATCH_GUIDES = [(3.0, 0.1, 0.4), (2.0, 0.1, 0.6)]

# a short guide and a wide patch, each small enough to solve densely
PATCH_DENSE_GUIDES = pytest.mark.parametrize(
    "L, h, W", [(2.0, 0.1, 0.6), (2.0, 0.1, 1.4)], ids=["short-guide", "wide-patch"]
)

# the wall-row Green function and its slope against the dense inverse,
# relative to the largest entry: at most 1.9e-13 and 2.3e-13 measured below,
# the dense inverse's own error next to a pole; the bound leaves a margin of 8
PATCH_GREEN_REL_TOL = 2e-12


@PATCH_DENSE_GUIDES
def test_wall_row_green_function_is_the_dense_inverse(L, h, W) -> None:
    # G_PP(E) against the patch block of (A - E M)^-1 of the unperturbed
    # guide, and G_PP'(E) against that of G M G: below E_1^0 = lam_1, between
    # it and mu_1 (the constant mode oscillates), 1e-9 either side of mu_1,
    # where mode 1 reaches its threshold, and between later poles with two
    # modes oscillating
    g = TruncatedGuide(cross_section=_NCS, half_length=L, h=h, half_width=W)
    op = oracle.build_patch_operator(g)
    assert (op.size, op.form, op.columns) == (g.feature_nodes + 1, "patch", None)
    A, mass, patch = _patch_guide_dense(g)
    lam1, mu1 = op.first, op.mu[1]
    assert mu1 < mu1 + lam1 < 3.0 < op.mu[2]
    for E in (0.5 * lam1, 0.5 * (lam1 + mu1), mu1 - 1e-9, mu1 + 1e-9, mu1 + 0.5 * lam1, 3.0):
        G = np.linalg.inv(A - E * np.diag(mass))
        got = op.evaluate(E)
        for g_, want in zip(got, (G, G @ np.diag(mass) @ G)):
            want = want[np.ix_(patch, patch)]
            assert np.abs(g_ - want).max() <= PATCH_GREEN_REL_TOL * np.abs(want).max()


@PATCH_DENSE_GUIDES
def test_patch_inertia_counts_the_patched_guide_eigenvalues(L, h, W) -> None:
    # the unperturbed eigenvalues are mu_j + lam_k, lam_k = (4/h1^2)
    # sin^2((2k - 1) pi / (4N)) (measured within 1.2e-13 of the dense
    # eigensolve), which the operator counts in closed form, and between
    # any two eigenvalues of either guide G_PP(E) has as many negative
    # eigenvalues as the unperturbed guide has eigenvalues below E, less
    # the patched guide's
    g = TruncatedGuide(cross_section=_NCS, half_length=L, h=h, half_width=W)
    op = oracle.build_patch_operator(g)
    A, mass, patch = _patch_guide_dense(g)
    unperturbed = sla.eigh(A, np.diag(mass), eigvals_only=True)
    k = np.arange(1, g.n_long + 1)
    lam = 4.0 / g.step_long**2 * np.sin((2 * k - 1) * np.pi / (4 * g.n_long)) ** 2
    formula = np.sort(np.add.outer(op.mu, lam).ravel())
    assert np.abs(unperturbed / formula - 1.0).max() <= 1e-12
    patched = sla.eigh(A[np.ix_(~patch, ~patch)], np.diag(mass[~patch]), eigvals_only=True)
    both = np.sort(np.concatenate((unperturbed[:10], patched[:10])))
    for E in 0.5 * (both[1:] + both[:-1]):
        count, pole = op.unperturbed_below(E)
        assert count == np.searchsorted(formula, E), E
        want = lam[np.searchsorted(lam, E) - 1] if E > lam[0] else -math.inf
        assert pole == pytest.approx(want, rel=1e-14), E
        negative = np.count_nonzero(np.linalg.eigvalsh(op.evaluate(E)[0]) < 0.0)
        assert negative == count - np.searchsorted(patched, E), E
    assert abs(lowest_eigenpairs(op).value / patched[0] - 1.0) <= 1e-11


def test_window_inertia_counts_the_windowed_guide_eigenvalues() -> None:
    # the window form's inertia: between any two eigenvalues of either
    # guide, the windowed guide has as many eigenvalues below E as the
    # Dirichlet guide, counted in closed form, plus the negative
    # eigenvalues of H(E); below the first pole no pole lies below E
    g = TruncatedGuide(cross_section=_CS, half_length=3.0, h=0.25, half_width=1.1)
    op = oracle.build_window_operator(g)
    A, mass = _full_grid_form(g.n_long, g.step_long, g.n_trans, g.step_trans)
    active = np.ones(mass.shape, dtype=bool)
    active[:, [0, -1]] = False
    active[-1, :] = False
    wall = np.zeros(mass.shape, dtype=bool)
    wall[: g.feature_nodes + 1, 0] = True
    A, mass = A.toarray(), mass.ravel()
    spectra = []
    for keep in (active.ravel(), (active | wall).ravel()):
        spectra.append(sla.eigh(A[np.ix_(keep, keep)], np.diag(mass[keep]), eigvals_only=True))
    unperturbed, windowed = spectra
    assert windowed[0] < op.first == pytest.approx(unperturbed[0], rel=1e-12)
    both = np.sort(np.concatenate((unperturbed[:10], windowed[:10])))
    for E in 0.5 * (both[1:] + both[:-1]):
        count, pole = op.unperturbed_below(E)
        assert count == np.searchsorted(unperturbed, E), E
        assert (pole == -math.inf) == (E < op.first), E
        negative = np.count_nonzero(np.linalg.eigvalsh(op.evaluate(E)[0]) < 0.0)
        assert count + negative == np.searchsorted(windowed, E), E
    assert abs(lowest_eigenpairs(op).value / windowed[0] - 1.0) <= 1e-11


# traced peak of one wall-form solve: measured 0.16 MiB (patch) and 0.15
# MiB (window) at L = 40 and at L = 4e5 alike, since no wall form holds an
# array as long as the guide; the bound leaves a margin of 6
WALL_SOLVE_PEAK_BYTES = 2**20


@pytest.mark.parametrize("form", ["patch", "window"])
def test_long_wall_guide_solves_in_bounded_memory(form) -> None:
    # the nominal patch row's step and feature on a guide of 12.5 million
    # columns: the poles below E are counted in closed form, not listed
    cs, build = {"patch": (_NCS, oracle.build_patch_operator),
                 "window": (_CS, oracle.build_window_operator)}[form]
    g = TruncatedGuide(cross_section=cs, half_length=4e5, h=0.0316, half_width=0.4)
    assert g.n_long == 12_500_000
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        sol = lowest_eigenpairs(build(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.residual <= oracle.EIGEN_RESIDUAL_TOL
    assert peak <= WALL_SOLVE_PEAK_BYTES, f"{peak / 2**20:.1f} MiB"


EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


def _extended_root(g: TruncatedGuide) -> np.longdouble:
    """``E_1`` of a patch guide by bisection on the inertia of ``G_PP``, all in ``np.longdouble``.

    Built apart from ``wgpoles``: each mode's wall-row sum from its plain
    closed form, ``E_1`` the point between ``lam_1`` and ``lam_2`` where
    ``G_PP`` stops having one negative eigenvalue, counted by the pivots of
    an unpivoted symmetric elimination.
    """
    ld = np.longdouble
    N, n2, K, d = g.n_long, g.n_trans, g.feature_nodes + 1, ld(g.cross_section.width)
    pi = ld("3.14159265358979323846264338327950288")
    h1, h2 = ld(g.half_length) / N, d / n2
    j, n = np.arange(n2 + 1).astype(ld), np.arange(2 * K - 1).astype(ld)
    mu = 4 / h2**2 * np.sin(j * pi * h2 / (2 * d)) ** 2
    weight = np.where((j == 0) | (j == n2), 1 / d, 2 / d)
    i = np.arange(K)

    def negatives(E):
        s = np.zeros(n.size, dtype=ld)
        for m, w in zip(mu, weight):
            delta = h1**2 * (m - E) / 2
            if delta >= 0:
                t = 2 * np.arcsinh(np.sqrt(delta / 2))
                image = np.exp(-n * t) - np.exp(-(2 * N - n) * t)
                s += w * h1 / 2 * image / (np.sinh(t) * (1 + np.exp(-2 * N * t)))
            else:
                t = 2 * np.arcsin(np.sqrt(-delta / 2))
                s += w * h1 / 2 * np.sin((N - n) * t) / (np.sin(t) * np.cos(N * t))
        G = s[np.abs(i[:, None] - i)] + s[i[:, None] + i]
        count = 0
        for k in range(K):
            count += G[k, k] < 0
            G[k + 1 :, k + 1 :] -= np.outer(G[k + 1 :, k], G[k, k + 1 :]) / G[k, k]
        return count

    lo, hi = (4 / h1**2 * np.sin(a * pi / (4 * N)) ** 2 for a in (1, 3))
    for _ in range(70):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if negatives(mid) == 1 else (lo, mid)
    return lo


@pytest.mark.skipif(not EXTENDED, reason="no extended precision")
def test_patch_root_matches_an_extended_precision_bisection() -> None:
    # the nominal row's first rung: the wall form's E_1 measured within
    # 6.7e-16 of the extended-precision root (at most 5.1e-15 over the nine
    # rungs of eps = 0.3, 0.4, 0.45; the box and the former one-column form
    # lay 1.1e-12 and 7.8e-13 away here).  The bound is the root loop's own
    # stop, ROOT_STEP
    g = TruncatedGuide(cross_section=_NCS, half_length=10.0, h=0.0316, half_width=0.4)
    sol = lowest_eigenpairs(oracle.build_patch_operator(g))
    assert abs(sol.value / float(_extended_root(g)) - 1.0) <= oracle.ROOT_STEP


def _lattice_modes(g: TruncatedGuide, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A uniform column's active nodes ``k``, their weights ``w2`` and modes ``Phi``, built apart from the oracle.

    ``Phi[k, j]`` holds the lattice sines ``sqrt(2/d) sin(j k pi / n2)``,
    ``j, k = 1 .. n2 - 1``, of a Dirichlet strip, or the cosines ``s_j
    cos(j k pi / n2)``, ``j, k = 0 .. n2``, of a Neumann one, ``s_j^2 =
    2/d`` (``1/d`` at ``j = 0, n2``), so ``Phi^T W2 Phi = I``; ``k j`` is
    reduced modulo the period, so the phase stays exact.  The projector on
    the modes is ``P = W2 Phi``.  ``mu``, the operator's mode eigenvalues,
    must be the columns' stencil eigenvalues.
    """
    n2, d = g.n_trans, g.cross_section.width
    w2 = np.full(n2 + 1, g.step_trans)
    w2[[0, -1]] /= 2.0
    k = np.arange(n2 + 1)
    s = np.full(n2 + 1, math.sqrt(2.0 / d))
    if g.cross_section.bc == "dirichlet":
        k, s, wave = k[1:-1], s[1:-1], np.sin
    else:
        s[[0, -1]] = math.sqrt(1.0 / d)
        wave = np.cos
    lam = 4.0 / g.step_trans**2 * np.sin(k * np.pi * g.step_trans / (2.0 * d)) ** 2
    assert np.allclose(mu, lam, rtol=1e-14, atol=0.0)
    return k, w2[k], wave(np.pi * (np.outer(k, k) % (2 * n2)) / n2) * s


def _nodal_box_pencil(op, k: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The box's stiffness and mass on its active nodes in Kronecker form, numbered along each column.

    The natural ends in ``x1`` are the symmetry plane and the box's edge
    column; an eliminated Dirichlet node is dropped from the transverse
    stiffness, which keeps its edge's weight on the active end's diagonal.
    """
    g = op.guide
    C, h1, h2 = op.columns, g.step_long, g.step_trans

    def stiffness(n: int, step: float) -> np.ndarray:
        D = np.diff(np.eye(n + 1), axis=0)
        return D.T @ D / step

    w1 = np.full(C, h1)
    w1[[0, -1]] = h1 / 2.0
    q = g.potential_samples()[:C, k]
    A = (
        np.kron(stiffness(C - 1, h1), np.diag(w2))
        + np.kron(np.diag(w1), stiffness(g.n_trans, h2)[np.ix_(k, k)])
        + np.diag((np.outer(w1, w2) * q).ravel())
    )
    return A, np.kron(w1, w2)


# the modal box's pencil, mapped back to the nodes, against the nodal box
# assembled in Kronecker form plus the closure P diag(sigma) P^T, relative
# to the largest entry: at most 8.7e-16 (sines) and 6.1e-16 (cosines)
# measured below; the bound leaves a margin of 11
BOX_PENCIL_REL_TOL = 1e-14


@pytest.mark.parametrize("cs", [_CS, _NCS], ids=["dirichlet-sines", "neumann-cosines"])
def test_box_closure_is_the_projector_product(cs) -> None:
    # the box in its columns' lattice modes is the nodal box rotated by
    # P = W2 Phi: T(E) = A - E M + sigma(E) on the edge column's modes, and
    # T'(E) = -M + sigma'(E), each mapped back as blockdiag(P) T
    # blockdiag(P)^T, against the nodal pencil with the edge closure
    # P diag(sigma) P^T, sigma from the closure kit: below the threshold,
    # 1e-9 either side of it, with one mode oscillating, and next to the
    # cap, where two do.  The well varies across the strip, so every
    # column's potential block is dense
    g = TruncatedGuide(
        cross_section=cs, half_length=2.0, h=0.1,
        potential=lambda x1, x2: -0.5 * (1.0 + x2 / np.pi) * (x1 <= 0.5),
    )
    op = build_fd_operator(g)
    k, w2, phi = _lattice_modes(g, op.mu)
    P = w2[:, None] * phi
    K, n = k.size, op.size
    A, mass = _nodal_box_pencil(op, k, w2)
    rotate = np.kron(np.eye(op.columns), P)

    def edge(sigma: np.ndarray) -> np.ndarray:
        block = np.zeros((n, n))
        block[-K:, -K:] = (P * sigma) @ P.T
        return block

    def closure(weights: np.ndarray) -> np.ndarray:
        return np.diag(op.terms(np.ones(n), weights)[2])

    modal_A, modal_M = op.matrix.toarray(), np.diag(op.mass)
    mu1 = discrete_threshold(g)
    assert op.mu[1] < op.cap
    for E in (mu1 - 0.3, mu1 - 1e-9, mu1 + 1e-9, 0.5 * (mu1 + op.cap), op.cap - 0.01 * (op.cap - mu1)):
        sigma, slope = op.coupling(E)
        ref_sigma, ref_slope = oracle._exterior_coupling(g.step_long, op.exterior_columns, op.mu, E)
        for modal, want in (
            (modal_A - E * modal_M + closure(sigma), A - E * np.diag(mass) + edge(ref_sigma)),
            (closure(slope) - modal_M, edge(ref_slope) - np.diag(mass)),
        ):
            got = rotate @ modal @ rotate.T
            assert np.abs(got - want).max() <= BOX_PENCIL_REL_TOL * np.abs(want).max()


@pytest.mark.parametrize(
    "L, h, W",
    [(10.0, 0.0316, 0.4), (20.0, 0.0316, 0.4), (40.0, 0.0316, 0.4), *SHORT_PATCH_GUIDES,
     (2.0, 0.1, 1.4)],
)
def test_patch_form_matches_the_box(L, h, W) -> None:
    # the nominal patch row's ladder, two short guides and a wide patch,
    # each against an independent solve of the same grid: the full grid
    # (measured 1.2e-11 at L = 10, at most 9.3e-14 on the short guides),
    # or on the ladder's two longer rungs, whose full grids take 0.7 and
    # 1.7 s, the extended-precision bisection (measured 2.2e-16 and 0).
    # The patch form solves the patch's n_feat + 1 wall nodes
    g = TruncatedGuide(cross_section=_NCS, half_length=L, h=h, half_width=W)
    pat = lowest_eigenpairs(oracle.build_patch_operator(g))
    assert (pat.operator.form, pat.operator.columns) == ("patch", None)
    assert pat.vector.size == g.feature_nodes + 1
    assert pat.residual <= oracle.EIGEN_RESIDUAL_TOL
    if L <= 10.0:
        want = _full_grid_binding("neumann", L, h, half_width=W)
        assert abs(pat.binding / want - 1.0) <= FULL_GRID_REL_TOL
    elif not EXTENDED:
        pytest.skip("no extended precision")
    else:
        assert abs(pat.value / float(_extended_root(g)) - 1.0) <= oracle.ROOT_STEP


def test_patch_form_refuses_what_it_does_not_solve() -> None:
    # no feature, a Dirichlet wall (which makes the feature a window), a
    # potential, and a patch too close to the guide's end, as the box
    # refuses it
    for cs, kw in (
        (_NCS, dict(half_length=4.0, h=0.1)),
        (_CS, dict(half_length=4.0, h=0.1, half_width=0.5)),
        (_NCS, dict(half_length=4.0, h=0.1, half_width=0.5, potential=lambda x1, x2: 0.0 * x1)),
        (_NCS, dict(half_length=0.8, h=0.1, half_width=0.5)),
    ):
        with pytest.raises(ValueError):
            oracle.build_patch_operator(TruncatedGuide(cross_section=cs, **kw))


def test_patch_form_solution_has_no_tails() -> None:
    # a short patch guide solved on its wall nodes: the tails are read from
    # the box's edge column, which the patch form eliminates with the rest
    # of the guide (and nothing binds under a patch)
    L, h, W = SHORT_PATCH_GUIDES[0]
    g = TruncatedGuide(cross_section=_NCS, half_length=L, h=h, half_width=W)
    sol = lowest_eigenpairs(oracle.build_patch_operator(g))
    assert sol.binding < 0
    with pytest.raises(ValueError, match="read from the box form's edge column"):
        extract_tail_coefficients(sol, 1)


def test_perturbation_at_the_guide_end_is_rejected() -> None:
    # the potential reaches x1 = L: no uniform exterior is left to eliminate
    g = TruncatedGuide(
        cross_section=_CS,
        half_length=4.0,
        h=0.1,
        potential=lambda x1, x2: -0.3 * np.exp(-(x1**2)) * np.sin(x2),
    )
    with pytest.raises(ValueError, match="lengthen the guide"):
        build_fd_operator(g)
    # a well whose last column sits BOX_PADDING columns before the end is
    # refused; one column more of guide gives a one-column exterior
    h = 0.1
    last = 5
    for cells, ok in ((last + oracle.BOX_PADDING, False), (last + oracle.BOX_PADDING + 1, True)):
        g = TruncatedGuide(
            cross_section=_CS, half_length=cells * h, h=h,
            potential=lambda x1, x2: -0.3 * (x1 < (last + 0.5) * h) * np.ones_like(x2),
        )
        assert np.flatnonzero(g.potential_samples()[:, 1])[-1] == last
        if ok:
            assert build_fd_operator(g).exterior_columns == 1
        else:
            with pytest.raises(ValueError):
                build_fd_operator(g)


# (cross section, guide keywords) of the regular row's well at its fine step
UNIFORM_WELL = (_CS, dict(half_length=40.0, h=0.125, potential=_well(0.08)))


@pytest.mark.parametrize("case", ["uniform well", "neumann well", "tilted well"])
def test_box_padding_does_not_move_the_binding(case, monkeypatch) -> None:
    # measured 1.7e-13 (uniform), 2.0e-14 (Neumann) and 3.2e-14 (tilted)
    cs, kw = UNIFORM_WELL if case == "uniform well" else FULL_GRID_CASES[case]
    g = TruncatedGuide(cross_section=cs, **kw)
    bindings = []
    for padding in (2, 12):
        monkeypatch.setattr(oracle, "BOX_PADDING", padding)
        op = build_fd_operator(g)
        assert op.exterior_columns == g.n_long - op.columns + 1
        bindings.append(lowest_eigenpairs(op).binding)
    assert abs(bindings[1] / bindings[0] - 1.0) < 1e-9


def test_field_extends_the_box_in_closed_form() -> None:
    # a well that varies across the strip: the tails extend the eigenvector
    # past the box's edge column to the whole guide
    g = _x2_well_guide()
    sol = lowest_eigenpairs(build_fd_operator(g))
    _assert_tails_rebuild_exterior(sol, extract_tail_coefficients(sol, g.n_trans - 1))


def test_guide_validation() -> None:
    for length, h in ((-1.0, 0.1), (5.0, 0.0), (5.0, -0.1)):
        with pytest.raises(ValueError, match="must be positive"):
            TruncatedGuide(cross_section=_CS, half_length=length, h=h, half_width=0.5)
    for width in (6.0, 0.0):
        with pytest.raises(ValueError, match="must lie in"):
            TruncatedGuide(cross_section=_CS, half_length=5.0, h=0.1, half_width=width)


def test_eigensolver_contract_errors(monkeypatch) -> None:
    # when no shift factors, not even the last one below the well's floor,
    # the solve fails without an eigenpair and so without a residual
    g = TruncatedGuide(cross_section=_CS, half_length=6.0, h=0.5, potential=_well(5.0))
    op = build_fd_operator(g)

    def no_factor(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(oracle, "cholesky_banded", no_factor)
    with pytest.raises(SolverError, match="every shift down to -6.0") as info:
        lowest_eigenpairs(op)
    assert info.value.residuals is None


def test_binding_above_one_takes_the_floor_shift() -> None:
    # depth 2.5 binds by 1.62 > 1: E_1 lies below the last shift of the plan,
    # threshold - 1, so the solve falls back to one shift below zero and the
    # well's floor, where T(s) factors; depth 1.5 binds by 0.81 and never
    # needs it.  Both must match the root of q tan q = k, q^2 = depth - b
    for depth, floor_shift in ((1.5, False), (2.5, True)):
        q = brentq(
            lambda q: q * math.tan(q) - math.sqrt(depth - q * q),
            1e-12, min(math.sqrt(depth), 0.5 * math.pi) - 1e-12, xtol=1e-15,
        )
        exact = depth - q * q
        g = TruncatedGuide(
            cross_section=_CS, half_length=8.0, h=0.05, potential=_well(depth)
        )
        sol = lowest_eigenpairs(build_fd_operator(g))
        assert sol.residual <= 1e-8
        assert abs(sol.binding / exact - 1.0) < 1e-3, (depth, sol.binding, exact)
        assert (sol.shift == -depth - 1.0) == floor_shift


@pytest.fixture(scope="module")
def well_solves():
    """The regular row's well at its fine step: its unhinted solve, a hint, the hinted solve.

    The hint is the binding on the coarse step 0.25, i.e. what a sweep row
    passes from its coarse solve.
    """
    cs, kw = UNIFORM_WELL

    def operator(h: float):
        return build_fd_operator(TruncatedGuide(cross_section=cs, **{**kw, "h": h}))

    hint = lowest_eigenpairs(operator(0.25)).binding
    op = operator(kw["h"])
    return op, lowest_eigenpairs(op), hint, lowest_eigenpairs(op, binding_hint=hint)


def test_factorization_cap_reports_no_residuals(well_solves, monkeypatch) -> None:
    # the hinted well solve needs 3 factorizations; a cap of 2 stops the
    # bracket before it closes, which is a solver failure with no residual
    op, _, hint, sol = well_solves
    assert sol.factorizations == 3
    monkeypatch.setattr(oracle, "MAX_FACTORIZATIONS", 2)
    with pytest.raises(SolverError) as info:
        lowest_eigenpairs(op, binding_hint=hint)
    assert info.value.residuals is None
    assert "2 factorizations" in str(info.value)


@pytest.mark.parametrize("hinted", [False, True], ids=["unhinted", "hinted"])
def test_pencil_bound_at_the_cap_is_a_solver_failure(well_solves, hinted) -> None:
    # with the cap moved to just above E_1 the pencil's first bound lies
    # above it, where the Rayleigh functional has no start: the solve fails
    # without an eigenpair, naming both, unhinted and hinted alike
    op, ref, hint, _ = well_solves
    capped = dataclasses.replace(op, cap=ref.value + 1e-9)
    with pytest.raises(SolverError, match="pencil bound .* at or above the exterior's cap") as info:
        lowest_eigenpairs(capped, binding_hint=hint if hinted else None)
    assert info.value.residuals is None
    assert f"{capped.cap:.17g}" in str(info.value)


def test_binding_hint_keeps_the_eigenpair(well_solves) -> None:
    _, ref, hint, sol = well_solves
    assert ref.shift == ref.threshold - 1.0
    assert sol.shift == ref.threshold - 2.0 * hint
    assert abs(sol.value / ref.value - 1.0) < 1e-11
    assert abs(sol.binding / ref.binding - 1.0) < 1e-8
    assert sol.residual <= 1e-8


def test_shift_above_the_eigenvalue_steps_down(well_solves) -> None:
    # a hint of b/4 aims the first shift at threshold - b/2, above E_1; the
    # failed factorization moves it to threshold - 4b, below
    op, ref, _, _ = well_solves
    sol = lowest_eigenpairs(op, binding_hint=ref.binding / 4.0)
    assert sol.shift == ref.threshold - 4.0 * ref.binding
    assert abs(sol.value / ref.value - 1.0) < 1e-11
    assert sol.residual <= 1e-8


def test_first_bound_within_the_tolerance_stops_the_solve(well_solves, monkeypatch) -> None:
    # a hint that puts the first shift 5e-11 below E_1: it factors, and the
    # Rayleigh functional of its pencil vector closes the bracket, so the
    # solve stops after that one bound, with no trial shift
    op, ref, _, _ = well_solves
    log = []
    for name, tag in (("factor", "F"), ("contract", "C")):
        method = getattr(op, name)
        monkeypatch.setattr(op, name, lambda x, method=method, tag=tag: log.append(tag) or method(x))
    sol = lowest_eigenpairs(op, binding_hint=0.5 * (ref.binding + 5e-11))
    assert "".join(log) == "FCC"
    assert sol.shift < ref.value < sol.shift + oracle.BRACKET_TOL
    assert abs(sol.value / ref.value - 1.0) < 1e-11
    assert sol.residual <= oracle.EIGEN_RESIDUAL_TOL


# factorizations of the hinted well solve: 3 measured (9 unhinted), plus a
# margin of 2
HINTED_FACTORIZATIONS_MAX = 5


def test_binding_hint_cuts_factorizations(well_solves) -> None:
    # counts, not times: the start vector is fixed, so they repeat exactly
    _, ref, _, sol = well_solves
    assert 2 * sol.factorizations <= ref.factorizations
    assert sol.factorizations <= HINTED_FACTORIZATIONS_MAX


# exterior coupling evaluations of one Rayleigh functional on the well
# solves: at most 5 measured, plus a margin of 2
RAYLEIGH_COUPLINGS_MAX = 7


def test_rayleigh_functional_stops_at_roundoff(well_solves, monkeypatch) -> None:
    # Newton converges quadratically in about five steps; it must stop
    # there, not take roundoff-sized steps up to its cap
    op, ref, hint, sol = well_solves
    coupling = oracle.FdOperator.coupling
    per_call = Counter()

    def counting(self, E):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "rayleigh_functional":
            per_call[caller] += 1
        return coupling(self, E)

    monkeypatch.setattr(oracle.FdOperator, "coupling", counting)
    again = [lowest_eigenpairs(op), lowest_eigenpairs(op, binding_hint=hint)]
    assert [s.value for s in again] == [ref.value, sol.value]
    assert per_call and max(per_call.values()) <= RAYLEIGH_COUPLINGS_MAX


@pytest.mark.parametrize(
    "short, long", [(10.0, 20.0), (20.0, 40.0)], ids=["10.0-20.0-patch-form", "20.0-40.0-patch-form"]
)
def test_patch_hint_costs_no_extra_factorizations(short, long) -> None:
    # nothing binds under a patch; the shorter guide's binding, the hint a
    # sweep row passes along its length ladder, is about four times the
    # longer one's and must not cost the longer solve G_PP evaluations
    def operator(L: float):
        g = TruncatedGuide(cross_section=_NCS, half_length=L, h=0.0316, half_width=0.4)
        return oracle.build_patch_operator(g)

    hint = lowest_eigenpairs(operator(short)).binding
    assert hint < 0
    op = operator(long)
    ref = lowest_eigenpairs(op)
    sol = lowest_eigenpairs(op, binding_hint=hint)
    assert sol.closure_evaluations <= ref.closure_evaluations
    assert abs(sol.value / ref.value - 1.0) < 1e-11


def test_patch_step_hint_starts_the_root_loop() -> None:
    # a coarse step's binding, the hint a two-step row passes to its fine
    # solve, is the fine solve's first iterate and saves it evaluations:
    # measured 4 against 5 unhinted
    def operator(h: float):
        g = TruncatedGuide(cross_section=_NCS, half_length=10.0, h=h, half_width=0.4)
        return oracle.build_patch_operator(g)

    hint = lowest_eigenpairs(operator(0.05)).binding
    op = operator(0.025)
    ref, sol = lowest_eigenpairs(op), lowest_eigenpairs(op, binding_hint=hint)
    assert sol.shift == sol.threshold - hint != ref.shift
    assert sol.closure_evaluations < ref.closure_evaluations
    assert abs(sol.value / ref.value - 1.0) <= oracle.ROOT_STEP


# the nominal patch row's ladder (eps = 0.4, the guide snapping h = 0.0316
# to 0.4/12.5), each guide hinted by the shorter one's binding: the patch
# form's binding and its G_PP evaluations (measured 5, 5, 6 and 6) plus a
# margin of 2.  The bindings are solved the way this test solves them: the
# four rungs in order at h = 0.0316 and half_width = 0.4, L = 6 unhinted and
# each later rung hinted by the one before; they lie within 6.7e-16 of an
# extended-precision root at L = 10 (see
# test_patch_root_matches_an_extended_precision_bisection).  The rung L = 6
# in front is not the row's
PATCH_LADDER = {
    6.0: (-0.1385652638528261, 7),
    10.0: (-0.06043032145644699, 7),
    20.0: (-0.01855404829221393, 8),
    40.0: (-0.0052937281330847664, 8),
}


def test_patch_form_ladder_closes_below_the_cap(monkeypatch, caplog) -> None:
    # the patch form factors nothing: a wrapper on cholesky_banded sees no
    # call, and the -v line counts no factorization and the G_PP
    # evaluations as closure evaluations
    calls = Counter()
    monkeypatch.setattr(oracle, "cholesky_banded", lambda a: calls.update(["cholesky"]))
    hint = None
    for L, (binding, budget) in PATCH_LADDER.items():
        g = TruncatedGuide(cross_section=_NCS, half_length=L, h=0.0316, half_width=0.4)
        caplog.clear()
        with caplog.at_level("INFO", logger="wgpoles.oracle"):
            sol = lowest_eigenpairs(oracle.build_patch_operator(g), binding_hint=hint)
        assert sol.operator.form == "patch"
        assert sol.shift != sol.threshold
        assert sol.closure_evaluations <= budget
        assert abs(sol.binding / binding - 1.0) < 1e-12
        (line,) = [r.getMessage() for r in caplog.records if "eigensolve" in r.getMessage()]
        assert "0 factorizations (0 failed)" in line
        assert f"{sol.closure_evaluations} closure evaluations" in line
        hint = sol.binding
    assert not calls


def test_band_memory_guard(monkeypatch) -> None:
    g = TruncatedGuide(cross_section=_CS, half_length=2.0, h=0.2)
    # box band storage of 16 rows by 5 columns of 15 unknowns: 9,600 bytes,
    # refused when the operator is assembled, before the band is allocated
    monkeypatch.setattr(oracle, "MAX_BAND_BYTES", 9_599)
    with pytest.raises(MemoryError):
        build_fd_operator(g)
    monkeypatch.setattr(oracle, "MAX_BAND_BYTES", 9_600)
    op = build_fd_operator(g)
    assert op.size == 75 and op.band.nbytes == 9_600
    assert lowest_eigenpairs(op).residual <= 1e-8


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
