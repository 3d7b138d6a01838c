"""Leading pole asymptotics for singular wall perturbations of a guide.

Two geometries: a small Neumann window of scaled half-width ``eps * a`` in
the Dirichlet wall of a quantum guide, and a small Dirichlet patch in the
Neumann wall of an acoustic guide.  In both, matched expansions near the
perturbation reduce the leading pole displacement from the threshold
``mu_m`` to closed form in the wall trace of the threshold mode and one
geometric constant of the rescaled perturbation (the window's far-field
constant ``c_n``, or the patch capacity ``C_n``):

    window:  k = eps^n * c_n |S_n| Phi_m^2 / 4 + ...        (pole detaches,
             bound state for m = 1; for m >= 2 a lower-order negative
             imaginary part makes it a resonance),
    patch:   k = pi phi_m(0)^2 / (2 ln eps) + ...  (n = 2)   or
             k = -eps^{n-2} C_n |S_n| phi_m(0)^2 / 4  (n >= 3),
             negative either way: no eigenvalue detaches.

``|S_n|`` is the unit-sphere area.  Only leading terms are computed, and the
near-field routines verify the expansion structure that the matching rests
on, using the mode-sum Green function of the unperturbed guide.
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


def sphere_area(n: int) -> float:
    """Area of the unit sphere in R^n: 2 pi for n = 2, 4 pi for n = 3."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class WindowSpec:
    """Scaled wall perturbation: shape half-width ``a``, scale ``eps``, kind."""

    dimension: int
    half_width: float
    eps: float
    kind: str

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        if not (self.half_width > 0):
            raise ValueError(f"half-width must be positive, got {self.half_width}")
        if not (0 < self.eps < 1):
            raise ValueError(f"scale must lie in (0, 1), got {self.eps}")
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"kind must be one of {_VALID_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class AsymptoticPole:
    """Leading term of a pole displaced from the threshold by a wall perturbation.

    ``k_lead = tau * eps^order`` in the power case, ``-tau / ln(eps)`` in the
    logarithmic one; ``im_k_lead`` is the lower-order resonance width (zero
    when not applicable), ``a1_pred`` the predicted first-mode amplitude of
    the resonance state, and ``classification`` the verdict the rules give
    (``None`` when the real-axis data alone cannot classify).
    """

    k_lead: float
    im_k_lead: float
    lam_lead: float
    a1_pred: complex
    tau: float
    order: float
    logarithmic: bool
    classification: str | None

    def __post_init__(self) -> None:
        if self.im_k_lead > 0:
            raise ValueError(f"width must be nonpositive, got {self.im_k_lead}")


def dirichlet_window_pole(
    spec: WindowSpec,
    c_n: float,
    trace: float,
    m: int,
    basis: TransverseBasis | None = None,
) -> AsymptoticPole:
    """Leading pole for a Neumann window in a Dirichlet guide wall.

    ``trace`` is the wall trace ``Phi_m`` of the threshold mode (its normal
    derivative at the window center); ``c_n`` the far-field constant of the
    rescaled window.  ``k_lead = eps^n c_n |S_n| Phi_m^2 / 4 > 0``: the pole
    detaches toward a bound state for ``m = 1``.  For ``m >= 2`` pass the
    ``basis`` to resolve the resonance width and classification; without it
    they are left open.
    """
    if spec.kind != NEUMANN_WINDOW:
        raise ValueError(f"expected a {NEUMANN_WINDOW} spec, got {spec.kind}")
    if not (c_n > 0):
        raise ValueError(f"far-field constant must be positive, got {c_n}")
    if trace == 0:
        raise ValueError(
            "threshold mode has zero wall trace; the leading term is void"
        )
    n = spec.dimension
    tau = 0.25 * c_n * sphere_area(n) * trace * trace
    k_lead = spec.eps**n * tau
    im_k = 0.0
    a1 = 0.0 + 0.0j
    classification: str | None
    if m == 1:
        classification = classify_pole(k_lead, 1)
    elif basis is not None:
        im_k, a1 = dirichlet_window_width(spec, c_n, basis, m)
        classification = classify_pole(complex(k_lead, im_k), m, a1)
    else:
        classification = None
    return AsymptoticPole(
        k_lead=k_lead,
        im_k_lead=im_k,
        lam_lead=-k_lead * k_lead,
        a1_pred=a1,
        tau=tau,
        order=float(n),
        logarithmic=False,
        classification=classification,
    )


def dirichlet_window_width(
    spec: WindowSpec, c_n: float, basis: TransverseBasis, m: int
) -> tuple[float, complex]:
    """Resonance width and first-mode amplitude for an ``m >= 2`` window pole.

    Below-threshold modes open radiation channels; their wall traces give

        Im k = -eps^{2n} (c_n |S_n| Phi_m / 4)^2 sum_{j<m} Phi_j^2 / sqrt(mu_m - mu_j),

    one order beyond the real displacement.  Returns ``(0, 0)`` for ``m = 1``
    (no open channel, empty sum).  The amplitude prediction is
    ``a1 = k_lead Phi_1 / (K_1(k_lead) Phi_m)``.
    """
    if spec.kind != NEUMANN_WINDOW:
        raise ValueError(f"expected a {NEUMANN_WINDOW} spec, got {spec.kind}")
    if basis.cross_section.bc != BC_DIRICHLET:
        raise ValueError("window width formula applies to Dirichlet guides")
    if m == 1:
        return 0.0, 0.0 + 0.0j
    traces = basis.wall_slope
    if traces[m - 1] == 0:
        raise ValueError("threshold mode has zero wall trace; formula void")
    n = spec.dimension
    area = sphere_area(n)
    factor = 0.25 * c_n * area * traces[m - 1]
    mu = basis.mu
    channels = sum(
        traces[j] ** 2 / math.sqrt(mu[m - 1] - mu[j]) for j in range(m - 1)
    )
    im_k = -spec.eps ** (2 * n) * factor * factor * channels
    k_lead = spec.eps**n * factor * traces[m - 1]
    K1 = longitudinal_exponents(basis, m, k_lead, m)[0]
    a1 = k_lead * traces[0] / (K1 * traces[m - 1])
    return float(im_k), complex(a1)


def neumann_patch_pole(
    spec: WindowSpec,
    basis: TransverseBasis,
    m: int,
    capacity: float | None = None,
) -> AsymptoticPole:
    """Leading pole for a Dirichlet patch in a Neumann guide wall.

    The patch pushes the pole to negative ``k``: logarithmically slowly for
    ``n = 2``, like ``eps^{n-2}`` times the patch capacity for ``n >= 3``
    (the capacity has no closed form here and must be supplied).  Negative
    ``k_lead`` means no eigenvalue detaches from the threshold.
    """
    if spec.kind != DIRICHLET_PATCH:
        raise ValueError(f"expected a {DIRICHLET_PATCH} spec, got {spec.kind}")
    if basis.cross_section.bc != BC_NEUMANN:
        raise ValueError("patch formula applies to Neumann guides")
    value = basis.wall_value[m - 1]
    if value == 0:
        raise ValueError("threshold mode vanishes at the patch; formula void")
    n = spec.dimension
    if n == 2:
        tau = -0.5 * math.pi * value * value
        k_lead = -tau / math.log(spec.eps)
        order = 0.0
        logarithmic = True
    else:
        if capacity is None:
            raise ValueError(
                f"patch capacity C_{n} is required for dimension {n} and has "
                "no built-in value"
            )
        if not (capacity > 0):
            raise ValueError(f"capacity must be positive, got {capacity}")
        tau = -0.25 * capacity * sphere_area(n) * value * value
        k_lead = spec.eps ** (n - 2) * tau
        order = float(n - 2)
        logarithmic = False
    return AsymptoticPole(
        k_lead=k_lead,
        im_k_lead=0.0,
        lam_lead=-k_lead * k_lead,
        a1_pred=0.0 + 0.0j,
        tau=tau,
        order=order,
        logarithmic=logarithmic,
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
        predicted = 4.0 * k / (basis.wall_slope[m - 1] * sphere_area(2))
        scale = s  # singular term C x2/r^2 contributes C sin(45deg)/r
    else:
        design = np.column_stack([-np.log(r), np.ones_like(r), r])
        predicted = 4.0 * k / (basis.wall_value[m - 1] * sphere_area(2))
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
