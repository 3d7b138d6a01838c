"""Leading pole asymptotics for singular wall perturbations of a planar guide.

Two geometries: a small Neumann window of scaled half-width ``eps * a`` in
the Dirichlet wall of a quantum guide, and a small Dirichlet patch in the
Neumann wall of an acoustic guide.  In both, matched expansions near the
perturbation reduce the leading pole displacement from the threshold
``mu_m`` to closed form in the wall trace of the threshold mode and, for
the window, the far-field constant ``c_2`` of the rescaled window:

    window:  k = eps^2 c_2 (2 pi) Phi_m^2 / 4 + ...   (pole detaches,
             bound state for m = 1; for m >= 2 a lower-order negative
             imaginary part makes it a resonance),
    patch:   k = pi phi_m(0)^2 / (2 ln eps) + ...    (negative: no
             eigenvalue detaches).

``2 pi`` is the length of the unit circle.  Only leading terms are
computed.

The rescaled window problem asks for a function harmonic above the wall,
zero on the wall outside the window, with zero normal derivative across it,
and growing like ``xi_2`` at infinity.  For the interval window ``(-a, a)``
the conformal map ``z -> sqrt(z^2 - a^2)`` solves it in closed form,
``X = Im sqrt(z^2 - a^2) = xi_2 + c_2 xi_2 / rho^2 + o(1/rho)`` with
``c_2 = a^2 / 2``, the constant the sweep passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .modesum import longitudinal_exponents
from .regular_pole import classify_pole
from .transverse import BC_DIRICHLET, BC_NEUMANN, TransverseBasis


def _check_scale(eps: float) -> None:
    if not (0 < eps < 1):
        raise ValueError(f"scale must lie in (0, 1), got {eps}")


@dataclass(frozen=True)
class AsymptoticPole:
    """Leading term of a pole displaced from the threshold by a wall perturbation.

    ``k_lead = tau * eps^order`` in the power case, ``-tau / ln(eps)`` in the
    logarithmic one; ``im_k_lead`` is the lower-order resonance width (zero
    when not applicable), ``a1_pred`` the predicted first-mode amplitude of
    the resonance state, and ``classification`` the verdict the rules give.
    """

    k_lead: float
    im_k_lead: float
    lam_lead: float
    a1_pred: complex
    tau: float
    order: float
    logarithmic: bool
    classification: str

    def __post_init__(self) -> None:
        if self.im_k_lead > 0:
            raise ValueError(f"width must be nonpositive, got {self.im_k_lead}")


def dirichlet_window_pole(
    eps: float, c_2: float, basis: TransverseBasis, m: int
) -> AsymptoticPole:
    """Leading pole for a Neumann window of scale ``eps`` in a Dirichlet guide wall.

    ``c_2`` is the far-field constant of the rescaled window and ``Phi_m``,
    the threshold mode's normal derivative at the window center, is read
    from ``basis.wall_slope``.  ``k_lead = eps^2 c_2 (2 pi) Phi_m^2 / 4 > 0``:
    the pole detaches toward a bound state for ``m = 1``; for ``m >= 2`` the
    width and first-mode amplitude of :func:`dirichlet_window_width` decide
    the classification.
    """
    if not (c_2 > 0):
        raise ValueError(f"far-field constant must be positive, got {c_2}")
    im_k, a1 = dirichlet_window_width(eps, c_2, basis, m)
    trace = basis.wall_slope[m - 1]
    tau = 0.5 * math.pi * c_2 * trace * trace
    k_lead = eps**2 * tau
    return AsymptoticPole(
        k_lead=k_lead,
        im_k_lead=im_k,
        lam_lead=-k_lead * k_lead,
        a1_pred=a1,
        tau=tau,
        order=2.0,
        logarithmic=False,
        classification=classify_pole(complex(k_lead, im_k), m, a1),
    )


def dirichlet_window_width(
    eps: float, c_2: float, basis: TransverseBasis, m: int
) -> tuple[float, complex]:
    """Resonance width and first-mode amplitude for an ``m >= 2`` window pole.

    Below-threshold modes open radiation channels; their wall traces give

        Im k = -eps^4 (c_2 (2 pi) Phi_m / 4)^2 sum_{j<m} Phi_j^2 / sqrt(mu_m - mu_j),

    one order beyond the real displacement.  Returns ``(0, 0)`` for ``m = 1``
    (no open channel, empty sum).  The amplitude prediction is
    ``a1 = k_lead Phi_1 / (K_1(k_lead) Phi_m)``.
    """
    _check_scale(eps)
    if basis.cross_section.bc != BC_DIRICHLET:
        raise ValueError("window formula applies to Dirichlet guides")
    if m == 1:
        return 0.0, 0.0 + 0.0j
    traces = basis.wall_slope
    factor = 0.5 * math.pi * c_2 * traces[m - 1]
    mu = basis.mu
    channels = sum(
        traces[j] ** 2 / math.sqrt(mu[m - 1] - mu[j]) for j in range(m - 1)
    )
    im_k = -(eps**4) * factor * factor * channels
    k_lead = eps**2 * factor * traces[m - 1]
    K1 = longitudinal_exponents(basis, m, k_lead, m)[0]
    a1 = k_lead * traces[0] / (K1 * traces[m - 1])
    return float(im_k), complex(a1)


def neumann_patch_pole(eps: float, basis: TransverseBasis, m: int) -> AsymptoticPole:
    """Leading pole for a Dirichlet patch of scale ``eps`` in a Neumann guide wall.

    The patch pushes the pole to negative ``k``, logarithmically slowly:
    ``k_lead = pi phi_m(0)^2 / (2 ln eps)``.  Negative ``k_lead`` means no
    eigenvalue detaches from the threshold.
    """
    _check_scale(eps)
    if basis.cross_section.bc != BC_NEUMANN:
        raise ValueError("patch formula applies to Neumann guides")
    value = basis.wall_value[m - 1]
    tau = -0.5 * math.pi * value * value
    k_lead = -tau / math.log(eps)
    return AsymptoticPole(
        k_lead=k_lead,
        im_k_lead=0.0,
        lam_lead=-k_lead * k_lead,
        a1_pred=0.0 + 0.0j,
        tau=tau,
        order=0.0,
        logarithmic=True,
        classification=classify_pole(k_lead, m),
    )
