"""Finite-difference oracle: assembly, eigensolve contract, bindings, tails."""

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.sparse.linalg import eigsh

from wgpoles import oracle
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
    assert np.count_nonzero(op.mask[-1]) == 99
    assert g.x1[0] == 0.0 and g.x1[-1] == 20.0
    # nothing is perturbed: the box is the x1 = 0 plane plus the padding, and
    # the exterior runs from its edge column to the Dirichlet end
    assert op.columns == oracle.BOX_PADDING + 1
    assert op.size == op.columns * 99
    assert op.exterior_columns == g.n_long - oracle.BOX_PADDING
    # a window's box ends BOX_PADDING columns past its last carved column,
    # whose wall nodes stay active
    gw = TruncatedGuide(cross_section=_CS, half_length=20.0, h=0.04, half_width=0.3)
    opw = build_fd_operator(gw)
    assert opw.columns == gw.feature_nodes + oracle.BOX_PADDING + 1
    assert opw.size == opw.columns * (gw.n_trans - 1) + gw.feature_nodes + 1


def _window_well_guide() -> TruncatedGuide:
    return TruncatedGuide(
        cross_section=_CS,
        half_length=4.0,
        h=0.1,
        half_width=0.5,
        potential=lambda x1, x2: -0.3 * np.exp(-(x1**2)) * np.sin(x2) * (x1 <= 2.0),
    )


def test_band_is_the_energy_form() -> None:
    # v^T A v from the band against the quadratic form written out on the
    # box's node grid: sum w (du)^2 / h over the edges, an edge to an
    # eliminated node counting that node as zero, plus sum q w1 w2 u^2
    g = _window_well_guide()
    op = build_fd_operator(g)
    v = np.random.default_rng(7).standard_normal(op.size)
    u = np.zeros(op.mask.shape)
    u[op.mask] = v
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


@pytest.mark.parametrize(
    "cs, kw",
    [
        (_CS, dict(half_length=16.0, h=0.06, half_width=0.3)),
        (_CS, dict(half_length=12.0, h=0.05, potential=lambda x1, x2: -0.5 * (np.abs(x1) <= 1.0))),
    ],
    ids=["window", "well"],
)
def test_band_sum_matches_add_at(cs, kw, monkeypatch) -> None:
    # the band is summed by np.bincount over flat Fortran indices; np.add.at
    # on the same triplets, the reference, sums each entry in the same
    # order, so the two bands agree bit for bit
    bincount = np.bincount
    calls = []

    def recording(x, weights=None, minlength=0):
        calls.append((x, weights))
        return bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(np, "bincount", recording)
    op = build_fd_operator(TruncatedGuide(cross_section=cs, **kw))
    ((flat, vals),) = calls
    rows = op.band.shape[0]
    ref = np.zeros(op.band.shape, order="F")
    np.add.at(ref, (flat % rows, flat // rows), vals)
    assert op.band.flags.f_contiguous
    assert np.array_equal(op.band, ref)


def test_lapack_binding_matches_scipy() -> None:
    op = build_fd_operator(_window_well_guide())
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
    u[: c + 1][op.mask] = sol.vector
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
    op = build_fd_operator(g)
    # window columns keep their wall node active
    assert np.count_nonzero(op.mask[-1]) == g.n_trans - 1
    sol = lowest_eigenpairs(op)
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


def _tilted_well(x1, x2):
    return -0.5 * (1.0 + x2 / np.pi) * (np.abs(x1) <= 1.0)


# (cross section, guide keywords)
FULL_GRID_CASES = {
    "window": (_CS, dict(half_length=16.0, h=0.06, half_width=0.3)),
    "patch": (_NCS, dict(half_length=10.0, h=0.05, half_width=0.4)),
    "tilted well": (_CS, dict(half_length=12.0, h=0.05, potential=_tilted_well)),
}


@pytest.mark.parametrize("case", sorted(FULL_GRID_CASES))
def test_box_solve_matches_full_grid(case) -> None:
    cs, kw = FULL_GRID_CASES[case]
    g = TruncatedGuide(cross_section=cs, **kw)
    sol = lowest_eigenpairs(build_fd_operator(g))
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
    # Measured: T_W within 1.8e-15 of the dense complement, relative to its
    # largest entry, and -T_W' within 2.6e-9 of its central difference with
    # step 1e-6, which is that difference's own error; the bounds leave a
    # margin of 57 and 38.  T_W is read off the form through its terms
    g = TruncatedGuide(cross_section=_CS, half_length=3.0, h=0.25, half_width=1.1)
    op = oracle.build_window_operator(g)
    assert (op.size, g.n_long, g.n_trans) == (g.feature_nodes + 1, 12, 13)
    mu1 = discrete_threshold(g)
    for E in (mu1 - 0.3, mu1, 0.5 * (mu1 + op.cap), mu1 - 1e-9, mu1 + 1e-9, mu1 - 1e-8, mu1 - 1e-6):
        sigma, slope = op.coupling(E)
        want = _window_schur(g, E)
        A, M, C = _dense_terms(op, sigma)
        got = A - E * M + C
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        dE = 1e-6
        d_want = (_window_schur(g, E + dE) - _window_schur(g, E - dE)) / (2.0 * dE)
        _, M, C = _dense_terms(op, slope)
        d_got = C - M
        assert np.abs(d_got - d_want).max() <= 1e-7 * np.abs(d_want).max()


# relative difference of the window form's bindings from the box's on the
# same guides: at most 4.8e-12 measured below, 6.9e-11 over the hinted
# solves of the nominal window-ladder sweep; the bound leaves a margin of 21
WINDOW_FORM_REL_TOL = 1e-10


@pytest.mark.parametrize("eps", [0.4, 0.3])
def test_window_form_matches_the_box(eps) -> None:
    # the window-ladder steps 0.08 and 0.04 and two lengths of its rule;
    # the window form solves n_feat + 1 unknowns
    L0 = round(2.8 / eps**2, 1)
    for h in (0.08, 0.04):
        for L in (L0, 2.0 * L0):
            g = TruncatedGuide(cross_section=_CS, half_length=L, h=h, half_width=eps)
            box = lowest_eigenpairs(build_fd_operator(g))
            win = lowest_eigenpairs(oracle.build_window_operator(g))
            assert (box.operator.form, win.operator.form) == ("box", "window")
            assert win.vector.size == g.feature_nodes + 1
            assert win.residual <= oracle.EIGEN_RESIDUAL_TOL
            assert abs(win.binding / box.binding - 1.0) <= WINDOW_FORM_REL_TOL


def test_hinted_window_solve_stops_when_a_trial_closes_the_bracket() -> None:
    # the window-ladder's fine step at eps = 0.4, hinted by its coarse step
    # as a sweep row is: inverse iteration takes two back-solves at the
    # first shift and two at the first trial; the second trial factors
    # within BRACKET_TOL of the upper bound, so the solve stops there
    L = round(2.8 / 0.4**2, 1)

    def operator(h: float):
        g = TruncatedGuide(cross_section=_CS, half_length=L, h=h, half_width=0.4)
        return oracle.build_window_operator(g)

    hint = lowest_eigenpairs(operator(0.08)).binding
    sol = lowest_eigenpairs(operator(0.04), binding_hint=hint)
    assert (sol.factorizations, sol.inner_solves) == (3, 4)
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


def _patch_eliminated(g: TruncatedGuide):
    """Whole patch guide's ``A`` and mass on its active nodes, and which lie on column ``n_feat + 1``.

    Built apart from ``wgpoles``: the Neumann walls keep every node but the
    patch's wall nodes and the Dirichlet end.
    """
    A, mass = _full_grid_form(g.n_long, g.step_long, g.n_trans, g.step_trans)
    active = np.ones(mass.shape, dtype=bool)
    active[: g.feature_nodes + 1, 0] = False
    active[-1, :] = False
    column = np.zeros(mass.shape, dtype=bool)
    column[g.feature_nodes + 1] = True
    keep = active.ravel()
    return A.toarray()[np.ix_(keep, keep)], mass.ravel()[keep], column.ravel()[keep]


def _dense_terms(op, weights: np.ndarray):
    """``A``, ``M`` and the closure at ``weights`` as dense matrices, from ``op.terms`` on unit vectors."""
    return (np.column_stack(t) for t in zip(*(op.terms(e, weights) for e in np.eye(op.size))))


def _patch_schur(g: TruncatedGuide, E: float) -> np.ndarray:
    """``T_P(E)`` of a patch guide: every node off the interface column eliminated densely.

    The column's nodes are numbered from the far wall, as the patch form
    numbers them.
    """
    A, mass, c = _patch_eliminated(g)
    T = A - E * np.diag(mass)
    S = T[np.ix_(c, c)] - T[np.ix_(c, ~c)] @ np.linalg.solve(T[np.ix_(~c, ~c)], T[np.ix_(~c, c)])
    return S[::-1, ::-1]


# (L, h, W) of short Neumann guides whose E_1 lies above nu_1 = 0.25, where
# the lowest patch-side mode oscillates
SHORT_PATCH_GUIDES = [(3.0, 0.1, 0.4), (2.0, 0.1, 0.6)]

# a short guide whose cap is the exterior's and a wide patch whose cap is
# the patch side's
PATCH_CAP_GUIDES = pytest.mark.parametrize(
    "L, h, W", [(2.0, 0.1, 0.6), (2.0, 0.1, 1.4)], ids=["exterior-cap", "patch-side-cap"]
)


def _patch_energies(op, g: TruncatedGuide) -> tuple[float, ...]:
    """Below the threshold, between ``nu_1`` and the cap, next to the cap, and around the threshold."""
    nu1, mu1 = op.nu[0], discrete_threshold(g)
    return (mu1 - 0.3, 0.5 * (nu1 + op.cap), op.cap - 0.01 * (op.cap - nu1),
            mu1 - 1e-9, mu1 + 1e-9, mu1 - 1e-7, mu1 - 1e-5)


@PATCH_CAP_GUIDES
def test_patch_form_is_the_schur_complement(L, h, W) -> None:
    # below the threshold, between nu_1 and the cap (patch-side and exterior
    # modes oscillate), 1% of that gap below the cap, 1e-9 either side of
    # the threshold mu_1^h = 0, and a pair straddling r's series join in the
    # exterior: M theta_0 is 4.2e-4 and 4.2e-3 (short guide) or 1.7e-4 and
    # 1.7e-3 (wide patch) at 1e-7 and 1e-5 below the threshold.  The short
    # guide's cap is the exterior's; the wide patch's is the patch side's.
    # Measured: T_P within 2.7e-16 of the dense complement, relative to its
    # largest entry, and 5.5e-13 next to the cap, where the dense solve
    # loses digits; -T_P' within 4.0e-8 of its central difference with step
    # 1e-6, that difference's own error (1.4e-8 away from the threshold);
    # the bounds leave a margin of 18 and 2.5.  T_P is read off the dense
    # form through its terms
    g = TruncatedGuide(cross_section=_NCS, half_length=L, h=h, half_width=W)
    op = oracle.build_patch_operator(g)
    assert (op.size, op.form, op.columns) == (g.n_trans + 1, "patch", None)
    # the cap is the lowest eigenvalue of the guide with the column held at
    # zero: measured within 3.7e-14 of the dense eigensolve's
    A, mass, c = _patch_eliminated(g)
    lowest = sla.eigh(
        A[np.ix_(~c, ~c)], np.diag(mass[~c]), eigvals_only=True, subset_by_index=[0, 0]
    )[0]
    assert abs(lowest / op.cap - 1.0) <= 1e-12
    for E in _patch_energies(op, g):
        sigma, slope = op.coupling(E)
        want = _patch_schur(g, E)
        A, M, C = _dense_terms(op, sigma)
        got = A - E * M + C
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
        dE = 1e-6
        d_want = (_patch_schur(g, E + dE) - _patch_schur(g, E - dE)) / (2.0 * dE)
        _, M, C = _dense_terms(op, slope)
        d_got = C - M
        assert np.abs(d_got - d_want).max() <= 1e-7 * np.abs(d_want).max()


def _lattice_projector(g: TruncatedGuide, mu: np.ndarray) -> np.ndarray:
    """``P = W2 Phi`` on a uniform column's active nodes, built apart from the oracle.

    The lattice sines ``sqrt(2/d) sin(j k pi / n2)``, ``j, k = 1 .. n2 - 1``,
    of a Dirichlet strip, or the cosines ``s_j cos(j k pi / n2)``, ``j, k =
    0 .. n2``, of a Neumann one, ``s_j^2 = 2/d`` (``1/d`` at ``j = 0, n2``);
    ``k j`` is reduced modulo the period, so the phase stays exact.  ``mu``,
    the operator's mode eigenvalues, must be the columns' stencil eigenvalues.
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
    return w2[k, None] * wave(np.pi * (np.outer(k, k) % (2 * n2)) / n2) * s


# the box's closure at offsets against the projector product it transforms,
# relative to the largest entry: at most 1.0e-15 (sines) and 6.7e-16
# (cosines) measured below; the bound leaves a margin of 10
BOX_CLOSURE_REL_TOL = 1e-14


@pytest.mark.parametrize("cs", [_CS, _NCS], ids=["dirichlet-sines", "neumann-cosines"])
def test_box_closure_is_the_projector_product(cs) -> None:
    # the box's edge closure, W2 (q[|k - k'|] -+ q[k + k']) W2 from one
    # cosine sum, and its slope against P diag(sigma) P^T with P rebuilt from the
    # lattice modes and sigma from the closure kit: below the threshold,
    # 1e-9 either side of it, with one mode oscillating, and next to the
    # cap, where two do
    g = TruncatedGuide(cross_section=cs, half_length=2.0, h=0.1)
    op = build_fd_operator(g)
    P = _lattice_projector(g, op.mu)
    mu1 = discrete_threshold(g)
    assert op.mu[1] < op.cap
    for E in (mu1 - 0.3, mu1 - 1e-9, mu1 + 1e-9, 0.5 * (mu1 + op.cap), op.cap - 0.01 * (op.cap - mu1)):
        modes = oracle._exterior_coupling(g.step_long, op.exterior_columns, op.mu, E)
        for weights, sigma in zip(op.coupling(E), modes):
            want = (P * sigma) @ P.T
            got = op.closure(weights)
            assert np.abs(got - want).max() <= BOX_CLOSURE_REL_TOL * np.abs(want).max()
    # the closure's cosine tables are kept for the last 8 grids, not for
    # every grid the process solves
    info = oracle._cosines.cache_info()
    assert info.maxsize == 8 and 0 < info.currsize <= 8


# the patch form's closure against the projector sum it transforms, relative
# to the largest entry: at most 1.2e-15 measured below; the bound leaves a
# margin of 8
PATCH_CLOSURE_REL_TOL = 1e-14


@PATCH_CAP_GUIDES
def test_patch_closure_is_the_projector_sum(L, h, W) -> None:
    # the closure at offsets, C Sigma C, against P diag(sigma) P^T +
    # Q diag(tau) Q^T built from the lattice cosines and the patch side's
    # mixed sines on the column's nodes numbered from the far wall, the two
    # sides' couplings and derivatives taken from the closure kit.  The
    # Schur complement test above cannot see the transform at roundoff
    g = TruncatedGuide(cross_section=_NCS, half_length=L, h=h, half_width=W)
    op = oracle.build_patch_operator(g)
    n2, h1, c = g.n_trans, g.step_long, g.feature_nodes + 1
    P = _lattice_projector(g, op.mu)
    w2 = np.full(n2 + 1, g.step_trans)
    w2[[0, -1]] /= 2.0
    k = np.arange(n2)
    phase = np.outer(np.arange(1, n2 + 1), 2 * k + 1) % (4 * n2)
    Q = np.zeros((n2 + 1, n2))
    Q[1:] = w2[1:, None] * np.sin(np.pi * phase / (2 * n2)) * math.sqrt(2.0 / g.cross_section.width)
    P, Q = P[::-1], Q[::-1]
    for E in _patch_energies(op, g):
        sides = zip(oracle._exterior_coupling(h1, g.n_long - c, op.mu, E),
                    oracle._patch_side_coupling(h1, c, op.nu, E))
        for (sigma, tau), weights in zip(sides, op.coupling(E)):
            want = (P * sigma) @ P.T + (Q * tau) @ Q.T
            got = op.closure(weights)
            assert np.abs(got - want).max() <= PATCH_CLOSURE_REL_TOL * np.abs(want).max()


# relative difference of the patch form's bindings from the box's on the
# same guides: at most 3.6e-13 measured below; the bound leaves a margin of 5
PATCH_FORM_REL_TOL = 2e-12


@pytest.mark.parametrize(
    "L, h, W",
    [(10.0, 0.0316, 0.4), (20.0, 0.0316, 0.4), (40.0, 0.0316, 0.4), *SHORT_PATCH_GUIDES,
     (2.0, 0.1, 1.4)],
)
def test_patch_form_matches_the_box(L, h, W) -> None:
    # the nominal patch row's ladder, two short guides and a wide patch whose
    # cap is the patch side's, on the same grid; the patch form solves the
    # n_trans + 1 nodes of the first column past the patch
    g = TruncatedGuide(cross_section=_NCS, half_length=L, h=h, half_width=W)
    box = lowest_eigenpairs(build_fd_operator(g))
    pat = lowest_eigenpairs(oracle.build_patch_operator(g))
    assert (box.operator.form, box.operator.columns) == ("box", g.feature_nodes + oracle.BOX_PADDING + 1)
    assert (pat.operator.form, pat.operator.columns) == ("patch", None)
    assert pat.vector.size == g.n_trans + 1
    assert pat.residual <= oracle.EIGEN_RESIDUAL_TOL
    assert abs(pat.binding / box.binding - 1.0) <= PATCH_FORM_REL_TOL


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
    # a short patch guide solved on one column: the tails are read from the
    # box's edge column, which the patch form eliminates with the rest of
    # the guide (and nothing binds under a patch)
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
        half_width=0.5,
        potential=lambda x1, x2: -0.3 * np.exp(-(x1**2)) * np.sin(x2),
    )
    with pytest.raises(ValueError, match="lengthen the guide"):
        build_fd_operator(g)
    # a window whose last carved column sits BOX_PADDING columns before the
    # end is refused; one column more of guide gives a one-column exterior
    h = 0.1
    n_feat = 5
    for cells, ok in ((n_feat + oracle.BOX_PADDING, False), (n_feat + oracle.BOX_PADDING + 1, True)):
        g = TruncatedGuide(
            cross_section=_CS, half_length=cells * h, h=h, half_width=(n_feat + 0.5) * h
        )
        assert g.feature_nodes == n_feat
        if ok:
            assert build_fd_operator(g).exterior_columns == 1
        else:
            with pytest.raises(ValueError):
                build_fd_operator(g)


@pytest.mark.parametrize("case", ["window", "patch", "tilted well"])
def test_box_padding_does_not_move_the_binding(case, monkeypatch) -> None:
    cs, kw = FULL_GRID_CASES[case]
    g = TruncatedGuide(cross_section=cs, **kw)
    bindings = []
    for padding in (2, 12):
        monkeypatch.setattr(oracle, "BOX_PADDING", padding)
        op = build_fd_operator(g)
        assert op.exterior_columns == g.n_long - op.columns + 1
        bindings.append(lowest_eigenpairs(op).binding)
    assert abs(bindings[1] / bindings[0] - 1.0) < 1e-9


def test_field_extends_the_box_in_closed_form() -> None:
    # a window and a well: the tails extend the eigenvector past the box's
    # edge column to the whole guide
    g = _window_well_guide()
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


def test_factorization_cap_reports_no_residuals(monkeypatch) -> None:
    # the window solve below needs 3 factorizations; a cap of 2 stops the
    # bracket before it closes, which is a solver failure with no residual
    g = TruncatedGuide(cross_section=_CS, half_length=16.0, h=0.06, half_width=0.3)
    op = build_fd_operator(g)
    monkeypatch.setattr(oracle, "MAX_FACTORIZATIONS", 2)
    with pytest.raises(SolverError) as info:
        lowest_eigenpairs(op)
    assert info.value.residuals is None
    assert "2 factorizations" in str(info.value)


@pytest.fixture(scope="module")
def window_solves():
    """Mid-size window guide: its unhinted solve, a hint, the hinted solve.

    The hint is the binding on the coarser step 0.06, i.e. what a sweep row
    passes from its coarse solve.
    """

    def operator(h: float):
        g = TruncatedGuide(
            cross_section=_CS,
            half_length=32.0,
            h=h,
            half_width=0.3,
        )
        return build_fd_operator(g)

    hint = lowest_eigenpairs(operator(0.06)).binding
    op = operator(0.04)
    return op, lowest_eigenpairs(op), hint, lowest_eigenpairs(op, binding_hint=hint)


def test_binding_hint_keeps_the_eigenpair(window_solves) -> None:
    _, ref, hint, sol = window_solves
    assert ref.shift == ref.threshold - 1.0
    assert sol.shift == ref.threshold - 2.0 * hint
    assert abs(sol.value / ref.value - 1.0) < 1e-11
    assert abs(sol.binding / ref.binding - 1.0) < 1e-8
    assert sol.residual <= 1e-8


def test_shift_above_the_eigenvalue_steps_down(window_solves) -> None:
    # a hint of b/4 aims the first shift at threshold - b/2, above E_1; the
    # failed factorization moves it to threshold - 4b, below
    op, ref, _, _ = window_solves
    sol = lowest_eigenpairs(op, binding_hint=ref.binding / 4.0)
    assert sol.shift == ref.threshold - 4.0 * ref.binding
    assert abs(sol.value / ref.value - 1.0) < 1e-11
    assert sol.residual <= 1e-8


# factorizations of the hinted window solve: 3 measured, plus a margin of 2
HINTED_FACTORIZATIONS_MAX = 5


def test_binding_hint_cuts_factorizations(window_solves) -> None:
    # counts, not times: the start vector is fixed, so they repeat exactly
    _, ref, _, sol = window_solves
    assert 2 * sol.factorizations <= ref.factorizations
    assert sol.factorizations <= HINTED_FACTORIZATIONS_MAX


# exterior coupling evaluations of one Rayleigh functional on the window
# solves: at most 6 measured, plus a margin of 2
RAYLEIGH_COUPLINGS_MAX = 8


def test_rayleigh_functional_stops_at_roundoff(window_solves, monkeypatch) -> None:
    # Newton converges quadratically in about five steps; it must stop
    # there, not take roundoff-sized steps up to its cap
    op, ref, hint, sol = window_solves
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


# the patch guide's two forms: the full box, and the patch form on the
# first column past the patch, both factored by cholesky_banded
PATCH_FORMS = {"box": build_fd_operator, "patch": oracle.build_patch_operator}


# the box cases keep their ids; the patch form's carry a suffix
@pytest.mark.parametrize(
    "short, long, form",
    [
        pytest.param(short, long, form, id=f"{short}-{long}" + ("" if form == "box" else "-patch-form"))
        for form in sorted(PATCH_FORMS)
        for short, long in ((10.0, 20.0), (20.0, 40.0))
    ],
)
def test_patch_hint_costs_no_extra_factorizations(short, long, form) -> None:
    # nothing binds under a patch; the shorter guide's binding, the hint a
    # sweep row passes along its length ladder, is about four times the
    # longer one's and must not cost the longer solve factorizations
    build = PATCH_FORMS[form]

    def operator(L: float):
        g = TruncatedGuide(cross_section=_NCS, half_length=L, h=0.0316, half_width=0.4)
        return build(g)

    hint = lowest_eigenpairs(operator(short)).binding
    assert hint < 0
    op = operator(long)
    ref = lowest_eigenpairs(op)
    sol = lowest_eigenpairs(op, binding_hint=hint)
    assert sol.factorizations <= ref.factorizations
    assert abs(sol.value / ref.value - 1.0) < 1e-11


# the nominal patch row's ladder (eps = 0.4, the guide snapping h = 0.0316
# to 0.4/12.5), each guide hinted by the shorter one's binding, and per
# form the factorizations measured (box: 5 at L = 10, 3 at L = 20 and 40;
# patch form: 4, 4 and 3), plus a margin of 2.  The bindings are the box's,
# solved the way this test solves them: the four rungs in order on the box
# at h = 0.0316 and half_width = 0.4, L = 6 unhinted and each later rung
# hinted by the one before (the patch form lies within 3.6e-13 relative of
# them).  The rung L = 6 in front is not the row's: on either form one of
# its 5 factorizations, a trial shift above E_1, fails, so the failure
# count is checked on both
PATCH_LADDER = {
    6.0: (-0.13856526385271012, {"box": 7, "patch": 7}),
    10.0: (-0.060430321456377986, {"box": 7, "patch": 6}),
    20.0: (-0.01855404829219981, {"box": 5, "patch": 6}),
    40.0: (-0.005293728133082047, {"box": 5, "patch": 5}),
}


def test_patch_ladder_closes_below_the_cap(monkeypatch, caplog) -> None:
    _assert_patch_ladder_closes_below_the_cap("box", monkeypatch, caplog)


def test_patch_form_ladder_closes_below_the_cap(monkeypatch, caplog) -> None:
    _assert_patch_ladder_closes_below_the_cap("patch", monkeypatch, caplog)


def _assert_patch_ladder_closes_below_the_cap(form, monkeypatch, caplog) -> None:
    # nothing binds, so the first shift of every solve, the threshold,
    # factors; the -v line counts the factorizations that failed, which a
    # wrapper on cholesky_banded counts too
    build = PATCH_FORMS[form]
    cholesky = oracle.cholesky_banded
    failures = Counter()

    def counting(a):
        try:
            return cholesky(a)
        except np.linalg.LinAlgError:
            failures["failed"] += 1
            failures["ladder"] += 1
            raise

    monkeypatch.setattr(oracle, "cholesky_banded", counting)
    hint = None
    for L, (binding, budgets) in PATCH_LADDER.items():
        g = TruncatedGuide(cross_section=_NCS, half_length=L, h=0.0316, half_width=0.4)
        failures["failed"] = 0
        caplog.clear()
        with caplog.at_level("INFO", logger="wgpoles.oracle"):
            sol = lowest_eigenpairs(build(g), binding_hint=hint)
        assert sol.operator.form == form
        assert sol.shift == sol.threshold
        assert sol.factorizations <= budgets[form]
        assert abs(sol.binding / binding - 1.0) < 1e-12
        (line,) = [r.getMessage() for r in caplog.records if "eigensolve" in r.getMessage()]
        assert f"{sol.factorizations} factorizations ({failures['failed']} failed)" in line
        hint = sol.binding
    assert failures["ladder"] > 0


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
    # a wall form's band is as wide as its unknowns, the closure's width
    for cs, build in ((_CS, oracle.build_window_operator), (_NCS, oracle.build_patch_operator)):
        g = TruncatedGuide(cross_section=cs, half_length=4.0, h=0.1, half_width=0.5)
        n = g.feature_nodes + 1 if cs is _CS else g.n_trans + 1
        monkeypatch.setattr(oracle, "MAX_BAND_BYTES", 8 * n * n - 1)
        with pytest.raises(MemoryError):
            build(g)
        monkeypatch.setattr(oracle, "MAX_BAND_BYTES", 8 * n * n)
        assert build(g).band.nbytes == 8 * n * n


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
