"""Window and patch pole asymptotics, and resonance widths."""

import math

import numpy as np
import pytest

from wgpoles.regular_pole import BOUND_STATE, NO_EIGENVALUE, RESONANCE
from wgpoles.singular_asym import (
    AsymptoticPole,
    dirichlet_window_pole,
    dirichlet_window_width,
    neumann_patch_pole,
)
from wgpoles.transverse import CrossSection, build_basis


def _dirichlet_basis(count: int = 24):
    return build_basis(CrossSection(width=np.pi, bc="dirichlet"), count)


def _neumann_basis(count: int = 24):
    return build_basis(CrossSection(width=np.pi, bc="neumann"), count)


def test_window_pole_first_threshold() -> None:
    # d = pi, m = 1: Phi_1^2 = 2/pi, c_2 = 1/2, |S_2| = 2 pi, so tau = 1/2
    basis = _dirichlet_basis()
    pole = dirichlet_window_pole(0.1, 0.5, basis, 1)
    assert abs(pole.tau - 0.5) < 1e-14
    assert abs(pole.k_lead - 0.5 * 0.1**2) < 1e-15
    assert abs(pole.lam_lead + 0.25 * 0.1**4) < 1e-18
    assert pole.order == 2.0
    assert not pole.logarithmic
    assert pole.im_k_lead == 0.0
    assert pole.a1_pred == 0
    assert pole.classification == BOUND_STATE


def test_window_pole_shrinks_with_scale() -> None:
    basis = _dirichlet_basis()
    small = dirichlet_window_pole(1e-3, 0.5, basis, 1)
    large = dirichlet_window_pole(0.1, 0.5, basis, 1)
    assert 0 < small.k_lead < large.k_lead
    assert abs(small.k_lead / large.k_lead - 1e-4) < 1e-12


def test_window_resonance_width_and_amplitude() -> None:
    # m = 2, d = pi, a = 1: Im k = -eps^4 / sqrt(3), checked symbolically
    basis = _dirichlet_basis()
    eps = 0.1
    pole = dirichlet_window_pole(eps, 0.5, basis, 2)
    assert abs(pole.k_lead - 2.0 * eps**2) < 1e-14
    expected_im = -(eps**4) / math.sqrt(3.0)
    assert abs(pole.im_k_lead - expected_im) < 1e-12 * abs(expected_im)
    assert pole.classification == RESONANCE
    k = pole.k_lead
    a1_expected = k * basis.wall_slope[0] / (
        1j * math.sqrt(3.0 - k * k) * basis.wall_slope[1]
    )
    assert abs(pole.a1_pred - a1_expected) < 1e-12 * abs(a1_expected)


def test_window_width_edge_cases() -> None:
    basis = _dirichlet_basis()
    assert dirichlet_window_width(0.05, 0.5, basis, 1) == (0.0, 0.0)
    im3, a13 = dirichlet_window_width(0.05, 0.5, basis, 3)
    assert im3 < 0.0
    assert a13 != 0
    with pytest.raises(ValueError):
        dirichlet_window_width(0.05, 0.5, _neumann_basis(), 2)


def test_window_pole_validation() -> None:
    basis = _dirichlet_basis()
    with pytest.raises(ValueError):
        dirichlet_window_pole(0.05, -0.5, basis, 1)
    # a Neumann wall has no normal-derivative trace for the window to couple to
    with pytest.raises(ValueError):
        dirichlet_window_pole(0.05, 0.5, _neumann_basis(), 1)


def test_scale_and_width_validation() -> None:
    for eps in (0.0, 1.5):
        with pytest.raises(ValueError, match="scale"):
            dirichlet_window_pole(eps, 0.5, _dirichlet_basis(), 1)
        with pytest.raises(ValueError, match="scale"):
            dirichlet_window_width(eps, 0.5, _dirichlet_basis(), 2)
        with pytest.raises(ValueError, match="scale"):
            neumann_patch_pole(eps, _neumann_basis(), 1)
    with pytest.raises(ValueError):
        AsymptoticPole(
            k_lead=0.1, im_k_lead=0.1, lam_lead=-0.01, a1_pred=0j,
            tau=1.0, order=2.0, logarithmic=False, classification=None,
        )


def test_patch_pole_is_logarithmic_in_two_dimensions() -> None:
    # d = pi Neumann, m = 1: phi_1(0)^2 = 1/pi, so tau = -pi phi^2 / 2 = -1/2
    basis = _neumann_basis()
    pole = neumann_patch_pole(0.01, basis, 1)
    assert abs(pole.tau + 0.5) < 1e-14
    assert abs(pole.k_lead - 0.5 / math.log(0.01)) < 1e-15
    assert pole.k_lead < 0
    assert pole.logarithmic
    assert pole.order == 0.0
    assert pole.classification == NO_EIGENVALUE
    # the displacement decays, but only logarithmically
    tiny = neumann_patch_pole(1e-6, basis, 1)
    assert abs(tiny.k_lead) < abs(pole.k_lead)
    assert abs(tiny.k_lead) > abs(pole.k_lead) / 4.0


def test_patch_pole_validation() -> None:
    with pytest.raises(ValueError):
        neumann_patch_pole(0.01, _dirichlet_basis(), 1)
