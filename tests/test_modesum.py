"""Mode-sum resolvent: branch rules, regularized kernel, quadrature operator."""

import cmath
import math

import numpy as np
import pytest

from wgpoles.modesum import (
    BoxRegion,
    ModeSumKernel,
    longitudinal_exponents,
    regularized_kernel,
)
from wgpoles.transverse import BC_DIRICHLET, CrossSection, build_basis

from conftest import mode_profiles

PI = math.pi


def _dirichlet_basis(count: int = 16):
    return build_basis(CrossSection(width=PI, bc=BC_DIRICHLET), count)


def test_exponent_threshold_mode_is_k_exactly() -> None:
    basis = _dirichlet_basis()
    assert longitudinal_exponents(basis, 1, 0.03, 1)[0] == 0.03 + 0j
    k = 0.01 - 1e-4j
    assert longitudinal_exponents(basis, 2, k, 2)[1] == k


def test_exponent_branches() -> None:
    basis = _dirichlet_basis()
    # above threshold: real positive
    K2 = longitudinal_exponents(basis, 1, 0.0, 2)[1]
    assert abs(K2 - math.sqrt(3.0)) < 1e-12
    assert K2.imag == 0.0
    # below threshold: purely imaginary, positive imaginary part
    K1 = longitudinal_exponents(basis, 2, 0.0, 2)[0]
    assert abs(K1 - 1j * math.sqrt(3.0)) < 1e-12
    k = 0.03
    K1, _, K3 = longitudinal_exponents(basis, 2, k, 3)
    assert K1.real == 0.0
    assert abs(K1.imag - math.sqrt(3.0 - k * k)) < 1e-12
    assert abs(K3 - math.sqrt(5.0 + k * k)) < 1e-12


def test_exponent_domain_error() -> None:
    basis = _dirichlet_basis()
    with pytest.raises(ValueError):
        longitudinal_exponents(basis, 1, 2.0, 6)
    with pytest.raises(ValueError):
        longitudinal_exponents(basis, 2, 1.8, 6)


def test_regularized_kernel_values() -> None:
    assert regularized_kernel(0.0, 0.5) == 0.0
    # removable singularity at k = 0
    assert regularized_kernel(2.0, 0.0) == -1.0
    assert regularized_kernel(2.0, 1e-13) == -1.0
    v = regularized_kernel(1.0, 0.1)
    assert abs(v - (math.exp(-0.1) - 1.0) / 0.2) < 1e-14
    assert abs(v - (-0.4758129098)) < 1e-9
    with pytest.raises(ValueError):
        regularized_kernel(-0.5, 0.1)


def test_regularized_kernel_complex_matches_real_route() -> None:
    s = np.linspace(0.0, 3.0, 17)
    for k in (1e-8, 1e-5, 0.02, 0.7):
        ref = np.expm1(-k * s) / (2.0 * k)
        got = regularized_kernel(s, complex(k))
        assert np.max(np.abs(np.asarray(got) - ref)) < 1e-13 * max(1.0, float(np.max(np.abs(ref))))


def _kernel_reference(s: float, k: complex) -> complex:
    # (e^x - 1)/(2k) at x = -k s without expm1: the series of (e^x - 1)/x,
    # 30 terms, up to |x| = 0.5, where the plain difference cancels, and the
    # plain difference above, where it does not
    x = -k * s
    if abs(x) > 0.5:
        return (cmath.exp(x) - 1.0) / (2.0 * k)
    term, ratio = 1.0 + 0j, 0j
    for n in range(1, 31):
        ratio += term
        term *= x / (n + 1)
    return -0.5 * s * ratio


def test_regularized_kernel_complex_k_across_the_small_ks_range() -> None:
    # genuinely complex k, |k s| from 2.5e-6 to 2; a join between a short
    # series and (e^x - 1)/x near |k s| = 1e-4 was off by 1e-12 relative.
    # The worst error measured on this grid is 5.0e-16; the bound leaves a 4x margin
    s = np.array([0.25, 1.0, 2.0])
    worst = 0.0
    for phase in (math.pi / 4, -math.pi / 4, math.pi / 3, -math.pi / 3):
        for r in np.logspace(-5.0, 0.0, 61):
            k = cmath.rect(r, phase)
            got = regularized_kernel(s, k)
            for sv, g in zip(s, got):
                ref = _kernel_reference(float(sv), k)
                worst = max(worst, abs(g - ref) / abs(ref))
    assert worst < 2e-15, worst


def test_regularized_kernel_continuity_bound() -> None:
    # |(e^{-ks}-1)/(2k) + s/2| <= |k| s^2 / 4 * e^{|k|s}
    s = np.linspace(0.0, 2.0, 9)
    for k in (1e-10, 1e-6, 1e-3, 0.1):
        lhs = np.abs(np.asarray(regularized_kernel(s, k)) + s / 2.0)
        rhs = abs(k) * s * s / 4.0 * np.exp(abs(k) * s)
        assert np.all(lhs <= rhs + 1e-15)


def test_region_weights_sum_to_box_area() -> None:
    cs = CrossSection(width=PI, bc=BC_DIRICHLET)
    reg = BoxRegion(cross_section=cs, half_length=1.5, n_long=33, n_trans=17)
    assert abs(reg.w1.sum() - 3.0) < 1e-13
    assert abs(reg.w2.sum() - PI) < 1e-13
    total = np.outer(reg.w1, reg.w2).sum()
    assert abs(total - 2.0 * 1.5 * PI) < 1e-12
    assert np.all(reg.w1 > 0) and np.all(reg.w2 > 0)
    with pytest.raises(ValueError):
        BoxRegion(cross_section=cs, half_length=-1.0)


def test_kernel_count_validation() -> None:
    basis = _dirichlet_basis()
    cs = basis.cross_section
    reg = BoxRegion(cross_section=cs, half_length=1.0, n_long=17, n_trans=9)
    with pytest.raises(ValueError):
        ModeSumKernel(basis=basis, m=2, region=reg, count=4)  # < m + 3
    assert ModeSumKernel(basis=basis, m=2, region=reg, count=5).count == 5


def _complex_reference_blocks(kern: ModeSumKernel, k: complex) -> np.ndarray:
    # every block in complex arithmetic, straight from the kernel formulas
    x1 = kern.region.x1
    dx = np.abs(x1[:, None] - x1[None, :])
    K = longitudinal_exponents(kern.basis, kern.m, k, kern.count)
    blocks = [
        regularized_kernel(dx, complex(k)) if j == kern.m - 1
        else np.exp(-K[j] * dx) / (2.0 * K[j])
        for j in range(kern.count)
    ]
    return np.array(blocks) * kern.region.w1


@pytest.mark.parametrize(
    "m, k, real",
    [(1, 0.0, True), (1, 0.07, True), (2, 0.07, False), (1, 0.05 - 0.01j, False)],
)
def test_assembled_blocks_match_complex_reference(m, k, real) -> None:
    # real arithmetic exactly when every exponent is real: m = 1 and real k
    basis = _dirichlet_basis()
    reg = BoxRegion(cross_section=basis.cross_section, half_length=1.0, n_long=33, n_trans=9)
    kern = ModeSumKernel(basis=basis, m=m, region=reg, count=m + 4)
    E = kern.assemble(k)
    ref = _complex_reference_blocks(kern, k)
    assert np.iscomplexobj(E) != real
    assert np.max(np.abs(E - ref)) <= 1e-15 * np.max(np.abs(ref))
    # a subset of the modes is exactly those rows of the full assembly, in
    # the same arithmetic even where the modes left out set it
    for modes in ([m - 1], [m - 1, m + 1], [m + 3, 0]):
        sub = kern.assemble(k, np.array(modes))
        assert sub.dtype == E.dtype
        assert np.array_equal(sub, E[modes])


def test_bilinear_symmetry() -> None:
    basis = _dirichlet_basis()
    reg = BoxRegion(cross_section=basis.cross_section, half_length=1.0, n_long=21, n_trans=13)
    kern = ModeSumKernel(basis=basis, m=1, region=reg, count=9)
    w = np.outer(reg.w1, reg.w2)
    rng = np.random.default_rng(7)
    f = rng.standard_normal((reg.n_long, reg.n_trans))
    g = rng.standard_normal((reg.n_long, reg.n_trans))
    Af = mode_profiles(kern, f, 0.05).T @ kern.phi
    Ag = mode_profiles(kern, g, 0.05).T @ kern.phi
    left = complex(np.sum(f * w * Ag))
    right = complex(np.sum(g * w * Af))
    assert abs(left - right) < 1e-12 * max(abs(left), 1.0)


def test_apply_analytic_example() -> None:
    # source phi_2(x2) * 1_(-1,1)(x1), m = 1, k = 0: only the j = 2 kernel
    # survives, giving phi_2(x2) * (1 - e^{-sqrt(3)})/3 at x1 = 0
    basis = _dirichlet_basis()
    reg = BoxRegion(cross_section=basis.cross_section, half_length=1.0, n_long=257, n_trans=41)
    kern = ModeSumKernel(basis=basis, m=1, region=reg, count=9)
    g = reg.sample(lambda x1, x2: basis.phi(2, x2.ravel())[None, :] * np.ones_like(x1))
    x2 = np.array([0.4, 1.1, 2.0])
    got = mode_profiles(kern, g, 0.0)[:, reg.n_long // 2] @ basis.phi_matrix(x2)[: kern.count]
    expect = basis.phi(2, x2) * (1.0 - math.exp(-math.sqrt(3.0))) / 3.0
    assert np.max(np.abs(got - expect)) < 2e-5
    assert abs((1.0 - math.exp(-math.sqrt(3.0))) / 3.0 - 0.2743596) < 1e-7


def test_apply_excites_single_mode() -> None:
    basis = _dirichlet_basis()
    reg = BoxRegion(cross_section=basis.cross_section, half_length=1.0, n_long=33, n_trans=21)
    kern = ModeSumKernel(basis=basis, m=1, region=reg, count=9)
    g = reg.sample(lambda x1, x2: basis.phi(3, x2.ravel())[None, :] * np.exp(-x1**2))
    # mode profiles at x1 = 2.5, past the box
    prof = kern.outside_amplitudes(g, 0.02) * np.exp(-kern.exponents(0.02) * 2.5)
    for j in (1, 2, 4, 5):
        assert abs(prof[j - 1]) < 1e-13
    assert abs(prof[2]) > 1e-4


def test_apply_grid_mismatch_and_zero_mass_guard() -> None:
    basis = _dirichlet_basis()
    reg = BoxRegion(cross_section=basis.cross_section, half_length=1.0, n_long=9, n_trans=7)
    kern = ModeSumKernel(basis=basis, m=1, region=reg, count=9)
    with pytest.raises(ValueError):
        kern.outside_amplitudes(np.ones(5), 0.1)
    # the raw resolvent's amplitudes are refused at k = 0 ...
    g = reg.sample(lambda x1, x2: basis.phi(1, x2.ravel())[None, :] * np.ones_like(x1))
    with pytest.raises(ValueError):
        kern.outside_amplitudes(g, 0.0)
    # ... while the regularized assembly is finite there on threshold-mode mass
    assert abs(kern.project_sources(g)[0].sum()) > 1.0
    assert np.all(np.isfinite(mode_profiles(kern, g, 0.0)))


def test_truncation_tail_off_support() -> None:
    basis = build_basis(CrossSection(width=PI, bc=BC_DIRICHLET), 40)
    reg = BoxRegion(cross_section=basis.cross_section, half_length=1.0, n_long=25, n_trans=15)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((reg.n_long, reg.n_trans))
    x1 = np.array([2.0, 3.0])
    x2 = np.array([1.0, 2.2])
    vals = {}
    for count in (9, 18):
        kern = ModeSumKernel(basis=basis, m=1, region=reg, count=count)
        # the regularized field past the box: the threshold mode drops the
        # constant <g, phi_1>/(2k) of the raw resolvent's
        prof = kern.outside_amplitudes(g, 0.05)[:, None] * np.exp(
            -kern.exponents(0.05)[:, None] * x1
        )
        prof[0] -= kern.project_sources(g)[0].sum() / (2.0 * 0.05)
        vals[count] = np.sum(prof * basis.phi_matrix(x2)[:count], axis=0)
    delta = 1.0  # separation of the evaluation points from the box
    mu = basis.mu
    bound = 10.0 * math.exp(-math.sqrt(mu[8] - mu[0]) * delta) * np.max(np.abs(vals[9]))
    assert np.max(np.abs(vals[9] - vals[18])) < bound


def test_output_mode_decay_rates() -> None:
    # the field past the box, applied by the assembly of a longer box at the
    # same step with the source padded by zeros, is a_j exp(-K_j x1) mode by
    # mode with the closed-form amplitudes
    basis = _dirichlet_basis()
    reg = BoxRegion(cross_section=basis.cross_section, half_length=1.0, n_long=33, n_trans=21)
    kern = ModeSumKernel(basis=basis, m=1, region=reg, count=8)
    rng = np.random.default_rng(11)
    g = rng.standard_normal((reg.n_long, reg.n_trans))
    k = 0.04
    amps = kern.outside_amplitudes(g, k)
    big = BoxRegion(cross_section=basis.cross_section, half_length=5.0, n_long=161, n_trans=21)
    wide = ModeSumKernel(basis=basis, m=1, region=big, count=8)
    gw = np.zeros((big.n_long, big.n_trans))
    gw[64:97] = g
    # the small box's end nodes are interior in the big one: full weight there
    gw[[64, 96]] *= 0.5
    prof = mode_profiles(wide, gw, k, raw=True)
    far = big.x1 >= 2.0
    xs = big.x1[far]
    want = amps[:, None] * np.exp(-kern.exponents(k)[:, None] * xs)
    assert np.max(np.abs(prof[:, far] - want)) < 1e-12 * np.max(np.abs(want))
    for j in (2, 3):
        slope = np.polyfit(xs, np.log(np.abs(prof[j - 1, far])), 1)[0]
        expected = math.sqrt(basis.mu[j - 1] - basis.mu[0] + k * k)
        assert abs(-slope - expected) < 0.05 * expected


def test_helmholtz_residual_on_interior_grid() -> None:
    # u = A(k) g solves (Delta + mu_m - k^2) u = -g.  The quadrature field
    # has derivative kinks at source nodes, so the finite-difference check
    # runs on a subgrid of those nodes, where the kinks sit on stencil
    # points and the composite error stays O(h^2).
    basis = _dirichlet_basis()
    reg = BoxRegion(cross_section=basis.cross_section, half_length=1.0, n_long=161, n_trans=97)
    kern = ModeSumKernel(basis=basis, m=1, region=reg, count=10)

    def g_fn(x1, x2):
        return np.exp(-3.0 * x1**2) * np.sin(x2) ** 3

    g = reg.sample(g_fn)
    k = 0.05
    prof = mode_profiles(kern, g, k, raw=True)
    i1 = np.arange(20, 141, 2)
    i2 = np.arange(12, 85)
    X1, X2 = np.meshgrid(reg.x1[i1], reg.x2[i2], indexing="ij")
    U = (prof.T @ kern.phi)[np.ix_(i1, i2)]
    h1 = 2.0 * (reg.x1[1] - reg.x1[0])
    h2 = reg.x2[1] - reg.x2[0]
    lap = (U[2:, 1:-1] - 2.0 * U[1:-1, 1:-1] + U[:-2, 1:-1]) / h1**2 + (
        U[1:-1, 2:] - 2.0 * U[1:-1, 1:-1] + U[1:-1, :-2]
    ) / h2**2
    resid = lap + (basis.mu[0] - k * k) * U[1:-1, 1:-1] + g_fn(X1[1:-1, 1:-1], X2[1:-1, 1:-1])
    assert np.max(np.abs(resid)) < 5e-3
