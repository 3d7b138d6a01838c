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
finite at ``k = 0`` and is what the pole solver iterates with; it is evaluated
as ``expm1(-k s)/(2k)`` for real and complex ``k`` alike.

On the grid ``A~ = sum_j (E_j W1) (x) (phi_j phi_j^T W2)``, so
:meth:`ModeSumKernel.assemble`, the one application of ``A(k)``, returns only
the longitudinal blocks ``E_j W1``, of all ``count`` modes or of those a
solver asks for; solvers work on per-mode amplitudes ordered mode-major (see
:mod:`wgpoles.regular_pole`), never on the ``(n_long n_trans)^2`` matrix.

Past the source box each mode of the field is one exponential
``a_j exp(-K_j |x1|)``; :meth:`ModeSumKernel.outside_amplitudes` gives the
``a_j`` in closed form, and the pole solver reads nothing else of the field
there.  Quadrature is trapezoid on a uniform tensor grid over the source
box; the ``|x1 - t1|`` kink always sits on grid nodes, keeping the composite
rule second order.  The kernel alone owns that grid, and
:meth:`ModeSumKernel.sample` samples a potential on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transverse import BC_DIRICHLET, CrossSection, TransverseBasis

# Below this magnitude k is treated as exactly zero in the threshold kernel
# (removable singularity limit -s/2).
K_ZERO_TOL = 1e-12


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

    ``s`` is a nonnegative separation (scalar or array); ``k`` a real or
    complex scalar.  Below ``|k| = 1e-12`` the removable-singularity limit
    ``-s/2`` is returned exactly; any other ``k`` takes
    ``expm1(-k s)/(2k)``, which does not cancel at small ``|k s|``.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise ValueError("separation s must be nonnegative")
    if abs(k) < K_ZERO_TOL:
        out = -0.5 * s_arr
        if np.iscomplexobj(k):
            out = out.astype(complex)
    else:
        out = np.expm1(-k * s_arr) / (2.0 * k)
    return out.item() if np.isscalar(s) or s_arr.ndim == 0 else out


def lattice_modes(cross_section: CrossSection, n_trans: int) -> int:
    """Most modes whose samples on ``n_trans`` transverse nodes stay orthonormal.

    ``n_trans - 2`` between Dirichlet walls (whose end nodes vanish),
    ``n_trans - 1`` between Neumann walls; past that the sampled modes alias.
    """
    return n_trans - (2 if cross_section.bc == BC_DIRICHLET else 1)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    h = x[1] - x[0]
    w = np.full(x.size, h)
    w[0] = w[-1] = h / 2.0
    return w


@dataclass
class ModeSumKernel:
    """Truncated mode-sum operator ``A(k)`` on the grid of its source box.

    The box ``(-half_length, half_length) x (0, d)``, ``d`` the width of the
    basis's cross-section, has ``n_long`` by ``n_trans`` uniform nodes
    ``x1``, ``x2`` with trapezoid weights ``w1``, ``w2`` (endpoints
    included, so the weights sum to the box area).  ``count`` modes are
    kept; at least three evanescent modes beyond the threshold are required
    so the truncation tail is controlled.
    """

    basis: TransverseBasis
    m: int
    half_length: float
    n_long: int
    n_trans: int
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
            raise ValueError(f"mode count {self.count} exceeds basis size {self.basis.count}")
        if not (self.half_length > 0):
            raise ValueError(f"half-length must be positive, got {self.half_length}")
        if self.n_long < 2 or self.n_trans < 2:
            raise ValueError("need at least 2 nodes per direction")
        self.x1 = np.linspace(-self.half_length, self.half_length, self.n_long)
        self.x2 = np.linspace(0.0, self.basis.width, self.n_trans)
        self.w1, self.w2 = _trapezoid_weights(self.x1), _trapezoid_weights(self.x2)
        # transverse samples phi_j(x2), shape (count, n_trans)
        self.phi = self.basis.phi_matrix(self.x2)[: self.count]

    def sample(self, fn) -> np.ndarray:
        """Sample ``fn(x1, x2)`` on the grid; returns shape ``(n_long, n_trans)``."""
        vals = np.asarray(fn(self.x1[:, None], self.x2[None, :]))
        # functions of one coordinate only come back collapsed; expand them
        return np.ascontiguousarray(np.broadcast_to(vals, (self.n_long, self.n_trans)))

    def exponents(self, k: complex) -> np.ndarray:
        return longitudinal_exponents(self.basis, self.m, k, self.count)

    def assemble(self, k: complex, modes: np.ndarray | None = None) -> np.ndarray:
        """Weighted per-mode longitudinal kernels, shape ``(len(modes), n_long, n_long)``.

        ``modes`` are the 0-based indices of the modes whose blocks are
        built, every one of the ``count`` by default.  Entry ``[j, i, l]``
        of the default assembly is the mode-``j`` kernel between ``x1[i]``
        and ``x1[l]`` times the quadrature weight ``w1[l]``; the threshold
        mode carries the regularized kernel.  On grid samples the operator
        is ``A~ = sum_j assemble(k)[j] (x) phi_j phi_j^T W2``, so the blocks
        are all a solver needs.  When every exponent is real (real ``k``
        with no mode below the threshold) the blocks are built in real
        arithmetic, so real data stays real; a subset is exactly the same
        rows of the default assembly.
        """
        K = self.exponents(k)
        if not np.any(K.imag):
            K = K.real
            k = float(K[self.m - 1])
        if modes is None:
            modes = range(self.count)
        x1 = self.x1
        dx = np.abs(x1[:, None] - x1[None, :])
        E = np.empty((len(modes), x1.size, x1.size), dtype=K.dtype)
        for i, j in enumerate(modes):
            if j == self.m - 1:
                E[i] = regularized_kernel(dx, k)
            else:
                E[i] = np.exp(-K[j] * dx) / (2.0 * K[j])
        E *= self.w1
        return E

    def project_sources(self, g: np.ndarray) -> np.ndarray:
        """Weighted per-mode longitudinal sources ``ghat[j, l1]``.

        ``ghat[j, l1] = w1[l1] * sum_l2 phi_j(x2[l2]) w2[l2] g[l1, l2]``.
        """
        g2 = np.asarray(g).reshape(self.n_long, self.n_trans)
        ghat = (self.phi * self.w2) @ g2.T
        return ghat * self.w1[None, :]

    def outside_amplitudes(self, g: np.ndarray, k: complex) -> np.ndarray:
        """Amplitudes ``a_j`` of the field ``A(k) g`` past the source box, shape ``(count,)``.

        For ``x1 >= R`` mode ``j`` is exactly ``a_j exp(-K_j x1)``, ``a_j = sum_l
        exp(K_j x1[l]) ghat[j, l] / (2 K_j)`` with ``ghat`` from :meth:`project_sources`;
        the threshold mode keeps the raw resolvent's ``1/(2k)``, so ``k = 0`` is refused.
        """
        if abs(k) < K_ZERO_TOL:
            raise ValueError("outside amplitudes need k != 0: a_m carries 1/(2k)")
        K = self.exponents(k)
        ghat = self.project_sources(g)
        return np.einsum("jl,jl->j", np.exp(K[:, None] * self.x1), ghat) / (2.0 * K)
