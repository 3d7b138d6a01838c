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
computed, and the near-field routines verify the expansion structure that
the matching rests on, using the mode-sum Green function of the
unperturbed guide.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .modesum import (
    ModeSumKernel,
    longitudinal_exponents,
    wall_source_sum,
)
from .regular_pole import classify_pole
from .transverse import BC_DIRICHLET, BC_NEUMANN, TransverseBasis

logger = logging.getLogger(__name__)

NEUMANN_WINDOW = "neumann-window"
DIRICHLET_PATCH = "dirichlet-patch"
_VALID_KINDS = (NEUMANN_WINDOW, DIRICHLET_PATCH)

# Fitting band for near-field checks; inside r_min the truncated mode sum
# loses the singularity, outside r_max higher harmonics pollute the fit.
NEAR_FIELD_RADII = (1e-2, 1e-1)


class ExpansionMismatchError(RuntimeError):
    """Near-field samples do not match the assumed expansion structure."""


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


def near_field(kind: str, m: int, k: float, kernel: ModeSumKernel):
    """Evaluator of the threshold-normalized wall-source field ``Psi_m``.

    ``Psi_m`` is the guide Green function with source at the wall point
    ``(0, 0)`` (normal-derivative source for the window kind, point source
    for the patch kind), scaled by ``2k`` over the threshold-mode trace so
    that ``Psi_m -> phi_m`` pointwise as ``k -> 0``.  Needs a kernel with a
    large mode count to resolve small radii.
    """
    if kind not in _VALID_KINDS:
        raise ValueError(f"kind must be one of {_VALID_KINDS}, got {kind!r}")
    basis = kernel.basis
    # window: dipole source weighted by the wall slopes; patch: point source
    # weighted by the wall values
    traces = basis.wall_slope if kind == NEUMANN_WINDOW else basis.wall_value
    trace = traces[m - 1]
    if trace == 0:
        raise ValueError("threshold mode has zero wall trace")

    def psi(x1, x2):
        out = wall_source_sum(basis, m, k, x1, x2, traces[: kernel.count])
        return _drop_spurious_imag(2.0 * k / trace * out)

    return psi


def _drop_spurious_imag(out: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(out)) + 1e-300
    if np.max(np.abs(out.imag)) < 1e-12 * scale:
        return out.real
    return out


@dataclass(frozen=True)
class NearFieldReport:
    """Fit of the singular part of ``Psi_m`` against its predicted coefficient."""

    kind: str
    k: float
    singular_coefficient: float
    predicted: float
    rel_deviation: float
    fit_residual: float


def near_field_check(
    kind: str,
    m: int,
    k: float,
    kernel: ModeSumKernel,
    radii: tuple[float, float] = NEAR_FIELD_RADII,
) -> NearFieldReport:
    """Verify the near-field expansion of ``Psi_m`` at the wall point.

    Samples ``Psi_m`` along a 45-degree ray at radii in ``radii`` and fits
    the singular term: ``x2/r^2`` dipole for the window kind (expansion
    ``Phi_m x2 + 4k/(Phi_m |S_2|) x2/r^2 + ...``), ``-ln r`` for the patch
    kind.  The fitted coefficient must reproduce ``4k / (trace |S_2|)``; a
    residual above 20% of the samples signals a kernel inconsistency, or a
    radius band leaving the matching region, and raises.  Off-axis sampling
    matters: along the guide axis the mode sum is only conditionally
    convergent.  Only the first threshold has a radiation-free near field,
    so ``m`` must be one.
    """
    if m != 1:
        raise ValueError(
            "near-field check applies at the first threshold only; higher "
            "thresholds radiate into open channels"
        )
    if not (0 < k <= 0.05) or (isinstance(k, complex) and k.imag != 0):
        raise ValueError(f"near-field check requires real k in (0, 0.05], got {k}")
    k = float(k)
    psi = near_field(kind, m, k, kernel)
    rmin, rmax = radii
    if not (0 < rmin < rmax):
        raise ValueError(f"need 0 < rmin < rmax, got {radii}")
    if kernel.count * rmin < 15 * kernel.basis.width / math.pi:
        logger.warning(
            "mode count %d may under-resolve radius %g", kernel.count, rmin
        )
    r = np.geomspace(rmin, rmax, 24)
    s = 1.0 / math.sqrt(2.0)
    y = np.asarray(psi(r * s, r * s), dtype=float)
    basis = kernel.basis
    if kind == NEUMANN_WINDOW:
        design = np.column_stack([1.0 / r, r, r * r])
        predicted = 4.0 * k / (basis.wall_slope[m - 1] * 2.0 * math.pi)
        scale = s  # singular term C x2/r^2 contributes C sin(45deg)/r
    else:
        design = np.column_stack([-np.log(r), np.ones_like(r), r])
        predicted = 4.0 * k / (basis.wall_value[m - 1] * 2.0 * math.pi)
        scale = 1.0
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rel_resid = float(np.sqrt(np.mean(resid**2) / np.mean(y**2)))
    if rel_resid > 0.2:
        raise ExpansionMismatchError(
            f"near-field samples deviate from the expansion by {rel_resid:.1%}; "
            "mode-sum kernel and matching structure disagree"
        )
    fitted = float(coef[0]) / scale
    return NearFieldReport(
        kind=kind,
        k=k,
        singular_coefficient=fitted,
        predicted=predicted,
        rel_deviation=abs(fitted - predicted) / abs(predicted),
        fit_residual=rel_resid,
    )
