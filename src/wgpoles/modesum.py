"""Mode-sum resolvent of the unperturbed guide near a transverse threshold.

Spectral decomposition in the transverse variable turns the resolvent of the
guide Laplacian, shifted to the ``m``-th threshold ``mu_m`` and parametrized by
the spectral displacement ``lambda = -k^2``, into a sum of 1-D convolution
kernels

    (A(k) g)(x) = sum_j phi_j(x2) / (2 K_j) * int exp(-K_j |x1 - t1|)
                                                  phi_j(t2) g(t) dt,

one kernel per transverse mode.  The longitudinal exponents carry the branch
structure: modes below the threshold oscillate (``K_j`` imaginary), the
threshold mode itself has ``K_m = k`` exactly, and modes above decay.  The
threshold kernel degenerates like ``1/(2k)`` as ``k -> 0``; subtracting its
constant part leaves the regularized kernel ``(exp(-k s) - 1)/(2k)`` which is
finite at ``k = 0`` and is what the pole solver iterates with.

On the grid ``A~ = sum_j (E_j W1) (x) (phi_j phi_j^T W2)``, so
:meth:`ModeSumKernel.assemble` returns only the ``count`` longitudinal blocks
``E_j W1``; solvers work on per-mode amplitudes ordered mode-major (see
:mod:`wgpoles.regular_pole`), never on the ``(n_long n_trans)^2`` matrix.

Sums are truncated at ``J`` modes; the discarded tail decays like
``exp(-sqrt(mu_J - mu_m) * dist)`` away from the source box, so small ``J``
suffices off the support.  Quadrature is trapezoid on a uniform tensor grid
over the source box; the ``|x1 - t1|`` kink always sits on grid nodes, keeping
the composite rule second order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .transverse import CrossSection, TransverseBasis

logger = logging.getLogger(__name__)

# Below this magnitude k is treated as exactly zero in the threshold kernel
# (removable singularity limit -s/2).
K_ZERO_TOL = 1e-12

# Switch to the Taylor series of (e^x - 1)/x for complex k when |k s| is below
# this, where direct evaluation loses digits to cancellation.
_SERIES_TOL = 1e-4


def longitudinal_exponents(
    basis: TransverseBasis, m: int, k: complex, count: int
) -> np.ndarray:
    """Branch-resolved exponents ``K_j(k)`` for modes ``j = 1 .. count``.

    ``K_j = i sqrt(mu_m - mu_j - k^2)`` below the threshold, ``K_m = k``
    exactly, ``K_j = sqrt(mu_j - mu_m + k^2)`` above; principal square roots.
    Valid for ``|k|^2`` smaller than the gap to the neighboring thresholds
    (domain error otherwise): beyond that the principal branch no longer
    represents the resolvent.

    Returns a complex array of shape ``(count,)``.
    """
    if not 1 <= m <= basis.count:
        raise ValueError(f"threshold index {m} outside basis range 1..{basis.count}")
    if count > basis.count:
        raise ValueError(f"requested {count} modes from a basis of {basis.count}")
    gap = min(basis.gap_below(m), basis.gap_above(m)) if m < basis.count else basis.gap_below(m)
    if abs(k) ** 2 >= gap:
        raise ValueError(
            f"|k|^2 = {abs(k)**2:.3e} reaches the neighboring-threshold gap "
            f"{gap:.3e}; outside the principal-branch domain"
        )
    mu = basis.mu[:count]
    mum = basis.mu[m - 1]
    k = complex(k)
    K = np.empty(count, dtype=complex)
    below = np.arange(count) < m - 1
    above = np.arange(count) > m - 1
    K[below] = 1j * np.sqrt((mum - mu[below]) - k * k)
    K[above] = np.sqrt((mu[above] - mum) + k * k)
    K[m - 1] = k  # exact by definition, not sqrt(k^2)
    return K


def regularized_kernel(s, k: complex):
    """Threshold-mode kernel ``(exp(-k s) - 1)/(2k)`` with its ``k = 0`` limit.

    ``s`` is a nonnegative separation (scalar or array); ``k`` a scalar.
    Below ``|k| = 1e-12`` the removable-singularity limit ``-s/2`` is returned
    exactly.  Real ``k`` uses ``expm1``; complex ``k`` switches to a Taylor
    series when ``|k s|`` is small, so the evaluation is cancellation-free
    everywhere.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise ValueError("separation s must be nonnegative")
    scalar = np.isscalar(s) or s_arr.ndim == 0
    if abs(k) < K_ZERO_TOL:
        out = -0.5 * s_arr
        if np.iscomplexobj(np.asarray(k)) or isinstance(k, complex):
            out = out.astype(complex)
    elif not isinstance(k, complex) and not np.iscomplexobj(np.asarray(k)):
        out = np.expm1(-float(k) * s_arr) / (2.0 * float(k))
    else:
        k = complex(k)
        x = -k * s_arr
        # (e^x - 1)/x, stable for small |x|
        ratio = np.ones_like(x)
        small = np.abs(x) < _SERIES_TOL
        xs = x[small]
        ratio[small] = 1.0 + xs / 2.0 + xs * xs / 6.0 + xs * xs * xs / 24.0
        xb = x[~small]
        ratio[~small] = (np.exp(xb) - 1.0) / xb
        out = -0.5 * s_arr * ratio
    return out.item() if scalar else out


@dataclass
class BoxRegion:
    """Uniform tensor quadrature grid over the source box ``Q = (-R, R) x (0, d)``.

    Trapezoid weights; endpoints included in both directions, so the weights
    sum exactly to the box area ``2 R d``.
    """

    cross_section: CrossSection
    half_length: float
    n_long: int = 64
    n_trans: int = 32
    x1: np.ndarray = field(init=False, repr=False)
    x2: np.ndarray = field(init=False, repr=False)
    w1: np.ndarray = field(init=False, repr=False)
    w2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.half_length > 0):
            raise ValueError(f"half-length must be positive, got {self.half_length}")
        if self.n_long < 2 or self.n_trans < 2:
            raise ValueError("need at least 2 nodes per direction")
        R = self.half_length
        d = self.cross_section.width
        self.x1 = np.linspace(-R, R, self.n_long)
        self.x2 = np.linspace(0.0, d, self.n_trans)
        self.w1 = _trapezoid_weights(self.x1)
        self.w2 = _trapezoid_weights(self.x2)

    @property
    def size(self) -> int:
        return self.n_long * self.n_trans

    def sample(self, fn) -> np.ndarray:
        """Sample ``fn(x1, x2)`` on the grid; returns shape ``(n_long, n_trans)``."""
        vals = np.asarray(fn(self.x1[:, None], self.x2[None, :]))
        # functions of one coordinate only come back collapsed; expand them
        return np.ascontiguousarray(
            np.broadcast_to(vals, (self.n_long, self.n_trans))
        )


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    h = x[1] - x[0]
    w = np.full(x.size, h)
    w[0] = w[-1] = h / 2.0
    return w


@dataclass
class ModeSumKernel:
    """Truncated mode-sum operator ``A(k)`` over a :class:`BoxRegion` grid.

    ``count`` modes are kept; at least three evanescent modes beyond the
    threshold are required so the truncation tail is controlled.
    """

    basis: TransverseBasis
    m: int
    region: BoxRegion
    count: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"threshold index must be >= 1, got {self.m}")
        if self.count < self.m + 3:
            raise ValueError(
                f"mode count {self.count} < m + 3 = {self.m + 3}: "
                "need at least three evanescent modes beyond the threshold"
            )
        if self.count > self.basis.count:
            raise ValueError(
                f"mode count {self.count} exceeds basis size {self.basis.count}"
            )
        if self.region.cross_section != self.basis.cross_section:
            raise ValueError("region and basis disagree on the cross-section")
        # transverse samples phi_j(x2), shape (count, n_trans)
        self.phi = self.basis.phi_matrix(self.region.x2)[: self.count]

    def exponents(self, k: complex) -> np.ndarray:
        return longitudinal_exponents(self.basis, self.m, k, self.count)

    def assemble(self, k: complex) -> np.ndarray:
        """Weighted per-mode longitudinal kernels, shape ``(count, n_long, n_long)``.

        Entry ``[j, i, l]`` is the mode-``j`` kernel between ``x1[i]`` and
        ``x1[l]`` times the quadrature weight ``w1[l]``; the threshold mode
        carries the regularized kernel.  On grid samples the operator is
        ``A~ = sum_j assemble(k)[j] (x) phi_j phi_j^T W2``, so the blocks are
        all a solver needs.  An exactly zero imaginary part (real ``k`` with
        no mode below the threshold) is dropped, so real data stays real.
        """
        K = self.exponents(k)
        x1 = self.region.x1
        dx = np.abs(x1[:, None] - x1[None, :])
        E = np.empty((self.count, x1.size, x1.size), dtype=complex)
        for j in range(self.count):
            if j == self.m - 1:
                E[j] = regularized_kernel(dx, k)
            else:
                E[j] = np.exp(-K[j] * dx) / (2.0 * K[j])
        E *= self.region.w1
        if not np.any(E.imag):
            return np.ascontiguousarray(E.real)
        return E

    def project_sources(self, g: np.ndarray) -> np.ndarray:
        """Weighted per-mode longitudinal sources ``ghat[j, l1]``.

        ``ghat[j, l1] = w1[l1] * sum_l2 phi_j(x2[l2]) w2[l2] g[l1, l2]``.
        """
        reg = self.region
        g2 = np.asarray(g).reshape(reg.n_long, reg.n_trans)
        ghat = (self.phi * reg.w2) @ g2.T
        return ghat * reg.w1[None, :]


@dataclass
class ModeSumField:
    """Field ``u = A(k) g`` as an evaluator on the whole guide.

    Built by :func:`apply_mode_sum`; holds the per-mode weighted sources, so
    evaluation anywhere (inside or far outside the source box) is a small
    mode-by-mode sum.  ``square_integrable`` is informational: oscillatory
    modes below the threshold make the field non-decaying.
    """

    kernel: ModeSumKernel
    k: complex
    regularize_m: bool
    ghat: np.ndarray = field(repr=False)
    exponents: np.ndarray = field(repr=False)

    @property
    def threshold_mass(self) -> complex:
        """Quadrature of ``g`` against the threshold mode, ``<g, phi_m>``."""
        return complex(self.ghat[self.kernel.m - 1].sum())

    def _mode_profile(self, j: int, x1: np.ndarray) -> np.ndarray:
        """Longitudinal amplitude ``c_j(x1)`` so that ``u = sum_j c_j phi_j(x2)``."""
        kern = self.kernel
        k = complex(self.k)
        dx = np.abs(np.asarray(x1, dtype=float)[:, None] - kern.region.x1[None, :])
        if j == kern.m - 1:
            C = regularized_kernel(dx, k)
            out = C @ self.ghat[j]
            if not self.regularize_m and abs(k) >= K_ZERO_TOL:
                # at k ~ 0 the constructor only let a raw field through with
                # vanishing threshold mass, so the 1/(2k) term drops out
                out = out + self.threshold_mass / (2.0 * k)
            return out
        Kj = self.exponents[j]
        return (np.exp(-Kj * dx) / (2.0 * Kj)) @ self.ghat[j]

    def mode_profile(self, j: int, x1: np.ndarray) -> np.ndarray:
        """Public 1-based variant of the per-mode longitudinal amplitude."""
        if not 1 <= j <= self.kernel.count:
            raise ValueError(f"mode index {j} outside 1..{self.kernel.count}")
        return self._mode_profile(j - 1, np.atleast_1d(np.asarray(x1, dtype=float)))

    def __call__(self, x1, x2) -> np.ndarray:
        """Evaluate the field at points ``(x1, x2)`` (broadcast together)."""
        x1b, x2b = np.broadcast_arrays(np.asarray(x1, float), np.asarray(x2, float))
        shape = x1b.shape
        x1f = x1b.ravel()
        phi_eval = self.kernel.basis.phi_matrix(x2b.ravel())[: self.kernel.count]
        u = np.zeros(x1f.size, dtype=complex)
        for j in range(self.kernel.count):
            u += phi_eval[j] * self._mode_profile(j, x1f)
        if not np.iscomplexobj(self.ghat) and not np.iscomplexobj(
            np.asarray(self.k)
        ) and self.kernel.m == 1:
            u = u.real
        return u.reshape(shape)


def apply_mode_sum(
    g: np.ndarray, k: complex, kernel: ModeSumKernel, regularize_m: bool = False
) -> ModeSumField:
    """Apply ``A(k)`` to grid samples ``g``; returns an evaluator on the guide.

    ``g`` must match the kernel's region grid (flat or 2-D).  With
    ``regularize_m = False`` (the raw resolvent) and ``|k| < 1e-12`` the
    threshold mode's constant part carries a ``1/(2k)`` factor; that is only
    meaningful when ``g`` has no threshold-mode mass, and a ``ValueError``
    is raised otherwise.
    """
    g = np.asarray(g)
    if g.size != kernel.region.size:
        raise ValueError(
            f"sample count {g.size} does not match region grid {kernel.region.size}"
        )
    ghat = kernel.project_sources(g)
    fieldv = ModeSumField(
        kernel=kernel,
        k=complex(k),
        regularize_m=regularize_m,
        ghat=ghat,
        exponents=kernel.exponents(k),
    )
    if not regularize_m and abs(k) < K_ZERO_TOL:
        mass = abs(fieldv.threshold_mass)
        scale = np.abs(ghat).sum() + 1e-300
        if mass > 1e-10 * scale:
            raise ValueError(
                "raw mode sum at k = 0 requires zero threshold-mode mass; "
                f"got relative mass {mass / scale:.2e}"
            )
    return fieldv


def wall_source_sum(
    basis: TransverseBasis, m: int, k: complex, x1, x2, trace: np.ndarray
) -> np.ndarray:
    """Mode sum ``sum_j phi_j(x2) trace_j exp(-K_j |x1|) / (2 K_j)``.

    Guide Green function with its source on the wall point ``(0, 0)``, summed
    over the ``len(trace)`` lowest modes.  With the wall slopes ``Phi_j`` as
    ``trace`` it is the normal-derivative (dipole) source of a Dirichlet
    guide, the building block of the window near-field checks; with the wall
    values ``phi_j(0)`` it is the point source of a Neumann guide,
    log-singular as ``|x| -> 0``.  Many modes resolve small ``|x|``;
    convergence is exponential off the wall point.
    """
    count = len(trace)
    K = longitudinal_exponents(basis, m, k, count)
    phi = basis.phi_matrix(np.atleast_1d(np.asarray(x2, float)))[:count]
    coef = trace[:, None] / (2.0 * K[:, None])
    damp = np.exp(-np.outer(K, np.abs(np.atleast_1d(np.asarray(x1, float)))))
    return np.sum(coef * damp * phi, axis=0)
