"""Secular-equation solver and residue checks against the exact square well.

The potential 1 on [-1, 1] times the cross section separates variables, so
the pole solves q tan q = k with q = sqrt(eps - k^2) exactly; that root,
found independently by bracketing here, anchors the solver tolerances.
"""

import logging

import numpy as np
import pytest
from scipy.optimize import brentq

from wgpoles.modesum import ModeSumKernel, lattice_modes
from wgpoles.regular_pole import (
    BOUND_STATE,
    NO_EIGENVALUE,
    POLE_AT_ZERO,
    RESONANCE,
    SECULAR_RTOL,
    AmbiguousClassificationError,
    IterationDivergedError,
    _birman_schwinger,
    _mode_coupling,
    _secular_value,
    classify_pole,
    regular_leading_asymptotic,
    solve_secular,
)
from wgpoles.transverse import CrossSection, build_basis

from conftest import mode_profiles

# exact well pole at eps = 0.04, from the matching condition q tan q = k
WELL_K_004 = 0.03898172374404702


def _setup(n_long: int = 65, n_trans: int = 9, count: int = 4, m: int = 1):
    basis = build_basis(CrossSection(width=np.pi, bc="dirichlet"), 24)
    kern = ModeSumKernel(
        basis=basis, m=m, half_length=1.0, n_long=n_long, n_trans=n_trans, count=count
    )
    return basis, kern


def _well(kern: ModeSumKernel) -> np.ndarray:
    return kern.sample(lambda x1, x2: np.ones_like(x1))


def _tilted(x1, x2):
    return 1.0 + x2 / np.pi + 0.0 * x1


def test_well_oracle_root_is_frozen_value() -> None:
    # re-derive the transcendental root; guards against a drifted constant
    def f(k: float) -> float:
        q = np.sqrt(0.04 - k * k)
        return q * np.tan(q) - k

    k = brentq(f, 1e-12, 0.2 - 1e-12, xtol=1e-15)
    assert abs(k - WELL_K_004) < 1e-12


def test_secular_matches_exact_well() -> None:
    basis, kern = _setup(n_long=129, n_trans=17)
    p = solve_secular(_well(kern), 0.04, kern)
    assert p.classification == BOUND_STATE
    # quadrature is the only error source left; measured 2.8e-8 at this grid
    assert abs(p.k - WELL_K_004) < 1e-7
    assert p.k.imag == 0.0


def test_pole_is_first_order_in_coupling() -> None:
    # <phi_1 V phi_1> = 2 for the well, so k = eps + O(eps^2)
    basis, kern = _setup()
    p = solve_secular(_well(kern), 0.01, kern)
    assert abs(p.k - 0.01) < 5e-4
    # expanding q tan q = k gives k = eps - (2/3) eps^2 + ...
    assert 0.0 < 0.01 - p.k.real < 1e-4


def test_odd_potential_starts_at_second_order() -> None:
    basis, kern = _setup()
    V = kern.sample(lambda x1, x2: x1 * np.exp(-(x1**2)) + 0.0 * x2
    )
    k_small = solve_secular(V, 0.02, kern).k
    k_large = solve_secular(V, 0.04, kern).k
    assert abs(k_small) < 1e-4
    assert abs(abs(k_large) / abs(k_small) - 4.0) < 0.15


def test_vanishing_forcing_short_circuits() -> None:
    basis, kern = _setup()
    V = np.zeros((kern.n_long, kern.n_trans))
    p = solve_secular(V, 0.3, kern)
    assert p.classification == POLE_AT_ZERO
    assert p.k == 0


def test_leading_asymptotic_values() -> None:
    basis, kern = _setup()
    lam = regular_leading_asymptotic(_well(kern), 0.1, kern)
    assert abs(lam - (-0.01)) < 1e-14
    Vodd = kern.sample(lambda x1, x2: x1 * np.exp(-(x1**2)) + 0.0 * x2)
    assert abs(regular_leading_asymptotic(Vodd, 0.1, kern)) < 1e-15
    Vzero = np.zeros((kern.n_long, kern.n_trans))
    assert regular_leading_asymptotic(Vzero, 0.1, kern) == 0


def test_pole_minus_leading_scales_cubically() -> None:
    basis, kern = _setup()
    diffs = []
    for eps in (0.02, 0.04):
        V = _well(kern)
        p = solve_secular(V, eps, kern)
        diffs.append(abs(p.lam - regular_leading_asymptotic(V, eps, kern)))
    slope = np.log(diffs[1] / diffs[0]) / np.log(2.0)
    assert 2.7 <= slope <= 3.2


def test_zero_coupling_assembles_identity() -> None:
    basis, kern = _setup(n_long=17, n_trans=5)
    V = _well(kern)
    B = _birman_schwinger(_mode_coupling(V, kern)[0], kern.assemble(0.02), 0.0)
    assert np.array_equal(B, np.eye(kern.count * kern.n_long))


def test_birman_schwinger_matches_einsum_reference() -> None:
    # the 4-index product B[i, l, j, q] = C[l, i, j] E[j, l, q], bit for bit
    basis, kern = _setup(n_long=17, n_trans=5, count=5, m=2)
    V = kern.sample(_tilted)
    k, eps = 0.05 - 0.01j, 0.3
    C, modes = _mode_coupling(V, kern)
    assert modes.tolist() == [0, 1, 2, 3, 4]
    size = kern.count * kern.n_long
    ref = -eps * np.einsum("lij,jlq->iljq", C, kern.assemble(k)).reshape(size, size)
    ref[np.diag_indices_from(ref)] += 1.0
    B = _birman_schwinger(C, kern.assemble(k), eps)
    assert np.array_equal(B, ref)


def test_real_data_stays_real() -> None:
    basis, kern = _setup(n_long=17, n_trans=5)
    V = _well(kern)
    B = _birman_schwinger(_mode_coupling(V, kern)[0], kern.assemble(0.02), 0.3)
    assert not np.iscomplexobj(B)
    p = solve_secular(_well(kern), 0.04, kern)
    assert p.k.imag == 0.0
    assert not np.iscomplexobj(p.residue)


def test_potential_shape_validation() -> None:
    # samples that are not on the kernel's grid are refused, the transposed
    # grid included; the kernel samples a function of one coordinate on all
    basis, kern = _setup(n_long=9, n_trans=5)
    for shape in ((3, 3), (5, 9), (45,)):
        with pytest.raises(ValueError, match="do not match grid"):
            solve_secular(np.ones(shape), 0.04, kern)
    V = kern.sample(lambda x1, x2: np.exp(-(x1**2)))
    assert V.shape == (9, 5) and V.flags.c_contiguous
    assert np.array_equal(V, np.exp(-(kern.x1**2))[:, None] * np.ones(5))


def test_restart_agrees_with_fixed_point() -> None:
    basis, kern = _setup()
    V = _well(kern)
    k_fp = solve_secular(V, 0.04, kern).k
    k_rs = solve_secular(V, 0.04, kern, k0=0.05).k
    assert abs(k_fp - k_rs) < 1e-10


def _evaluate(V: np.ndarray, k: complex, eps: float, kern: ModeSumKernel):
    # one evaluation of the secular map at k, on the modes solve_secular
    # picks: the secular value, the residue's samples and the modes
    C, modes = _mode_coupling(V, kern)
    rhs = C[:, modes, kern.m - 1].T.ravel()
    f, E, ghat = _secular_value(k, eps, kern, modes, C[:, modes][:, :, modes], rhs)
    u = np.einsum("jlq,jq->lj", E, ghat)
    return f, V * (kern.phi[kern.m - 1] + eps * (u @ kern.phi[modes])), modes


def _plain_fixed_point(V: np.ndarray, eps: float, kern: ModeSumKernel) -> complex:
    # k <- F(k) from the threshold, by repeated evaluations of the secular map
    k = 0j
    for _ in range(60):
        f, _, _ = _evaluate(V, k, eps, kern)
        if abs(f - k) <= 1e-14 * abs(f):
            return f
        k = f
    raise AssertionError(f"fixed point did not settle: last k = {k}")


@pytest.mark.parametrize(
    "m, count, eps, fn",
    [
        (1, 4, 0.04, lambda x1, x2: np.ones_like(x1) * np.ones_like(x2)),
        (1, 4, 0.08, _tilted),
        # the tilt couples the threshold to the open first mode: complex k
        (2, 5, 0.2, _tilted),
    ],
    ids=["flat-well", "tilted-well", "m2-complex"],
)
def test_secant_matches_plain_fixed_point(m, count, eps, fn) -> None:
    basis, kern = _setup(count=count, m=m)
    V = kern.sample(fn)
    p = solve_secular(V, eps, kern)
    k_fp = _plain_fixed_point(V, eps, kern)
    assert abs(p.k - k_fp) <= 1e-12 * abs(k_fp)
    if m == 2:
        # the open channel's outgoing amplitude marks it a resonance
        assert p.k.imag < 0.0
        assert p.classification == RESONANCE


def test_residue_comes_from_the_reported_pole() -> None:
    # k, the residue and |F(k) - k| all belong to one evaluation, at p.k
    basis, kern = _setup()
    V = kern.sample(_tilted)
    eps = 0.08
    p = solve_secular(V, eps, kern)
    f, g, _ = _evaluate(V, p.k, eps, kern)
    assert p.residual == abs(f - p.k)
    assert p.residual < SECULAR_RTOL * max(eps * eps, abs(f))
    assert np.array_equal(p.residue, g.real)
    assert p.iterates[-1] == p.k


# Birman-Schwinger solves over the seven regular-secular couplings on the
# 129x17, 4-mode box: 29 measured, plus a margin of 3
SECULAR_EVALUATIONS_MAX = 32


def test_secant_bounds_the_secular_work() -> None:
    basis, kern = _setup(n_long=129, n_trans=17)
    couplings = (0.16, 0.113, 0.08, 0.057, 0.04, 0.028, 0.02)
    poles = [solve_secular(_well(kern), eps, kern) for eps in couplings]
    assert all(p.evaluations == p.iterations + 1 for p in poles)
    assert sum(p.evaluations for p in poles) <= SECULAR_EVALUATIONS_MAX


def test_each_evaluation_is_one_dense_solve_and_one_assembly(monkeypatch, caplog) -> None:
    # the benchmark trace counts numpy.linalg.solve and ModeSumKernel.assemble
    # calls under solve_secular; both must equal the solver's own count, and
    # a strip-uniform well solves on, and assembles, its threshold mode alone
    basis, kern = _setup()
    solve = np.linalg.solve
    assemble = ModeSumKernel.assemble

    def counting_solve(a, b):
        calls["solve"] += 1
        shapes.add(a.shape)
        return solve(a, b)

    def counting_assemble(self, k, modes=None):
        calls["assemble"] += 1
        E = assemble(self, k, modes)
        blocks.add(len(E))
        return E

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(ModeSumKernel, "assemble", counting_assemble)
    for V, solved in ((_well(kern), 1), (kern.sample(_tilted), 4)):
        calls = {"solve": 0, "assemble": 0}
        shapes, blocks = set(), set()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="wgpoles.regular_pole"):
            p = solve_secular(V, 0.04, kern)
        assert calls == {"solve": p.evaluations, "assemble": p.evaluations}
        unknowns = solved * kern.n_long
        assert shapes == {(unknowns, unknowns)}
        assert blocks == {solved}
        assert p.modes == tuple(range(1, solved + 1))
        # the -v line reports the same work and residual
        (line,) = [r.getMessage() for r in caplog.records if "secular solve" in r.getMessage()]
        assert f"{p.evaluations} evaluations, {unknowns} mode-space unknowns" in line
        assert f"|F(k) - k| = {p.residual:.3e}" in line


def _einsum_coupling(V: np.ndarray, kern: ModeSumKernel) -> np.ndarray:
    # the quadrature C[l] = Phi^T W2 diag(V[l]) Phi on every row
    phi = kern.phi
    return np.einsum("ib,lb,jb->lij", phi * kern.w2, V, phi)


def test_coupled_modes_match_the_full_system() -> None:
    # the strip-uniform well solves on mode 1 alone; the full system on all
    # four modes, with the quadrature's roundoff coupling, agrees
    basis, kern = _setup(n_long=129, n_trans=17)
    V, eps = _well(kern), 0.04
    Cref = _einsum_coupling(V, kern)
    assert np.any(Cref[:, 0, 1:] != 0)
    for k in (0j, 0.03 + 0j, WELL_K_004 + 0j):
        f, g, modes = _evaluate(V, k, eps, kern)
        assert modes.tolist() == [0]
        E = kern.assemble(k.real)
        B = _birman_schwinger(Cref, E, eps)
        ghat = np.linalg.solve(B, Cref[:, :, 0].T.ravel()).reshape(kern.count, kern.n_long)
        u = np.einsum("jlq,jq->lj", E, ghat)
        gref = V * (kern.phi[0] + eps * (u @ kern.phi))
        fref = 0.5 * eps * (kern.w1 @ ghat[0])
        assert abs(f - fref) <= 1e-13 * abs(fref)
        assert np.max(np.abs(g - gref)) <= 1e-13 * np.max(np.abs(gref))


@pytest.mark.parametrize("bc, spare", [("dirichlet", 2), ("neumann", 1)])
def test_sampled_modes_are_orthonormal_up_to_the_lattice_bound(bc, spare) -> None:
    cs = CrossSection(width=np.pi, bc=bc)
    basis = build_basis(cs, 24)
    for n_trans in (9, 17):
        bound = n_trans - spare
        assert lattice_modes(cs, n_trans) == bound
        box = dict(half_length=1.0, n_long=9, n_trans=n_trans)
        kern = ModeSumKernel(basis=basis, m=1, count=bound, **box)
        V = _well(kern)
        gram = (kern.phi * kern.w2) @ kern.phi.T
        assert np.max(np.abs(gram - np.eye(bound))) < 1e-14
        eye = np.broadcast_to(np.eye(bound), (kern.n_long, bound, bound))
        C, modes = _mode_coupling(V, kern)
        assert np.array_equal(C, eye) and modes.tolist() == [0]
        # one mode past the bound aliases: the quadrature stays as computed,
        # and every mode is solved
        past = ModeSumKernel(basis=basis, m=1, count=bound + 1, **box)
        Cpast, modes = _mode_coupling(V, past)
        assert modes.tolist() == list(range(bound + 1))
        assert np.array_equal(Cpast, _einsum_coupling(V, past))
        assert abs(Cpast[0, bound, bound] - 1.0) > 0.5


def test_one_varying_row_couples_every_mode() -> None:
    basis, kern = _setup(n_long=33, n_trans=9)
    V = np.ones((kern.n_long, kern.n_trans))
    V[16] += kern.x2 / np.pi
    C, modes = _mode_coupling(V, kern)
    assert modes.tolist() == [0, 1, 2, 3]
    assert np.array_equal(np.delete(C, 16, axis=0), np.broadcast_to(np.eye(4), (32, 4, 4)))
    assert np.array_equal(C[16], _einsum_coupling(V, kern)[16])
    p = solve_secular(V, 0.04, kern)
    assert p.modes == (1, 2, 3, 4)
    assert p.classification == BOUND_STATE


def test_a_row_only_on_the_wall_solves_every_mode() -> None:
    # a row nonzero only on a Dirichlet wall node is not flat, but its
    # quadrature couples nothing, since every mode vanishes there: it solves
    # all four modes, the extra ones with ghat exactly zero, and its pole
    # is the one of the same well with that row cleared, which solves mode
    # 1 alone (measured equal; roundoff allowed)
    basis, kern = _setup()
    V = _well(kern)
    V[32] = 0.0
    cleared = solve_secular(V, 0.04, kern)
    V[32, 0] = 1.0
    C, modes = _mode_coupling(V, kern)
    assert not np.any(C[32])
    p = solve_secular(V, 0.04, kern)
    assert cleared.modes == (1,) and p.modes == (1, 2, 3, 4)
    assert p.classification == BOUND_STATE
    assert abs(p.k - cleared.k) <= 1e-13 * abs(cleared.k)
    _, _, ghat = _secular_value(p.k, 0.04, kern, modes, C, C[:, :, 0].T.ravel())
    assert not np.any(ghat[1:])


def test_strip_uniform_pole_above_the_first_threshold_is_real() -> None:
    # the well separates variables, so its m = 2 pole is an eigenvalue
    # embedded in the continuum: exactly real k, which the classification
    # rules do not cover
    basis, kern = _setup(n_long=129, n_trans=17, count=5, m=2)
    V = _well(kern)
    k = 0.17831495740890066 + 0j  # the pole, to roundoff
    f, g, modes = _evaluate(V, k, 0.2, kern)
    assert modes.tolist() == [1]
    assert f.imag == 0.0 and not np.any(g.imag)
    assert abs(f - k) < 1e-12 * abs(k)
    with pytest.raises(AmbiguousClassificationError, match="exactly real k"):
        solve_secular(V, 0.2, kern)


def test_strong_coupling_diverges_loudly() -> None:
    basis, kern = _setup()
    with pytest.raises(IterationDivergedError) as exc:
        solve_secular(_well(kern), 5.0, kern)
    assert len(exc.value.trace) >= 2


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


def _check_normalized_residue(p, kern):
    """Mode profiles of the residue's field ``A(k) g`` on the box's ``x1`` nodes.

    Scaled so the threshold-mode amplitude ``a_1`` of ``a_j exp(-K_j |x1|)``
    past the box is one; the amplitudes come in closed form, and the
    assembled field meets them at the box's end.
    """
    assert p.classification == BOUND_STATE and p.m == 1
    amps = kern.outside_amplitudes(p.residue, p.k)
    # x1-only potential excites no other transverse mode
    assert np.max(np.abs(amps[1:])) < 1e-12 * abs(amps[0])
    # under the scaling psi = eps A(k) g the amplitude tends to one
    raw = p.eps * amps[0]
    assert 0.9 <= raw.real <= 1.1
    assert abs(raw.imag) < 1e-14
    prof = mode_profiles(kern, p.residue, p.k, raw=True)
    edge = amps * np.exp(-kern.exponents(p.k) * kern.half_length)
    assert np.max(np.abs(prof[:, -1] - edge)) < 1e-12 * abs(edge[0])
    return prof / amps[0]


def test_residue_is_normalized_eigenfunction() -> None:
    basis, kern = _setup()
    for eps in (0.01, 0.02):
        _check_normalized_residue(solve_secular(_well(kern), eps, kern), kern)

    basis, kern = _setup(n_long=129, n_trans=17)
    eps = 0.04
    p = solve_secular(_well(kern), eps, kern)
    prof = _check_normalized_residue(p, kern)

    # the residue solves the eigenvalue equation inside the well
    i1 = np.arange(16, 113, 2)
    x2 = np.linspace(0.3, np.pi - 0.3, 33)
    U = (prof[:, i1].T @ basis.phi_matrix(x2)[: kern.count]).real
    h1 = 2.0 * (kern.x1[1] - kern.x1[0])
    h2 = x2[1] - x2[0]
    lap = (U[2:, 1:-1] - 2.0 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / h1**2 + (
        U[1:-1, 2:] - 2.0 * U[1:-1, 1:-1] + U[1:-1, :-2]
    ) / h2**2
    resid = lap + (basis.mu[0] - p.k.real**2 + eps) * U[1:-1, 1:-1]
    assert np.max(np.abs(resid)) < 1e-3


def test_mode_space_residue_solves_grid_equation() -> None:
    # the residue comes from the mode-space system on the coupled modes; the
    # grid equation g - eps V (A~ g) = V phi_m is checked by applying the
    # assembled blocks of every mode to the grid samples, so this checks the
    # mode-space reduction given the assembly (the assembly itself is checked
    # in test_modesum.py::test_assembled_blocks_match_complex_reference)
    basis, kern = _setup(n_long=129, n_trans=17)
    V = kern.sample(lambda x1, x2: 1.0 + x2 / np.pi + 0.0 * x1)
    eps = 0.08
    p = solve_secular(V, eps, kern)
    g = p.residue
    Ag = mode_profiles(kern, g, p.k).T @ kern.phi
    forcing = V * basis.phi(1, kern.x2)[None, :]
    resid = g - eps * V * Ag - forcing
    assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(forcing))
    # the secular value is the threshold-mode quadrature of that residue
    k = 0.5 * eps * np.einsum("i,j,ij->", kern.w1, kern.w2 * basis.phi(1, kern.x2), g)
    assert abs(k - p.k) < 1e-12 * abs(p.k)
