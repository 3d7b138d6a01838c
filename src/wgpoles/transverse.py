"""Transverse eigenbasis of a straight planar waveguide.

The guide is the strip ``Pi = R x (0, d)``.  Separation of variables reduces
the Laplacian on ``Pi`` to 1-D longitudinal problems indexed by the eigenpairs
``(mu_j, phi_j)`` of ``-d^2/dx^2`` on ``(0, d)`` with Dirichlet or Neumann
walls, and for an interval those are plain sines and cosines.  Everything
downstream (mode sums, threshold gaps, asymptotic prefactors) consumes this
basis, so it is kept in closed form: no numerical eigensolve.

Conventions: modes are indexed from ``j = 1``; ``phi_j`` is normalized in
``L^2(0, d)``; the wall traces are ``Phi_j = phi_j'(0)`` and ``phi_j(0)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BC_DIRICHLET = "dirichlet"
BC_NEUMANN = "neumann"
_VALID_BCS = (BC_DIRICHLET, BC_NEUMANN)


@dataclass(frozen=True)
class CrossSection:
    """Interval cross-section ``(0, width)`` with a wall condition.

    Parameters
    ----------
    width : float
        Width ``d`` of the guide, must be positive.
    bc : str
        Either ``"dirichlet"`` (quantum guide) or ``"neumann"`` (acoustic).
    """

    width: float
    bc: str

    def __post_init__(self) -> None:
        if not (self.width > 0.0 and np.isfinite(self.width)):
            raise ValueError(f"cross-section width must be positive, got {self.width}")
        if self.bc not in _VALID_BCS:
            raise ValueError(f"bc must be one of {_VALID_BCS}, got {self.bc!r}")


@dataclass(frozen=True)
class TransverseBasis:
    """First ``count`` transverse eigenpairs of a :class:`CrossSection`.

    Fields ``mu``, ``wall_slope`` (``phi_j'(0)``) and ``wall_value``
    (``phi_j(0)``) are arrays over modes ``j = 1 .. count`` in spectral order.
    """

    cross_section: CrossSection
    count: int
    mu: np.ndarray = field(repr=False)
    wall_slope: np.ndarray = field(repr=False)
    wall_value: np.ndarray = field(repr=False)

    @property
    def width(self) -> float:
        return self.cross_section.width

    def phi(self, j: int, x: np.ndarray | float) -> np.ndarray:
        """Evaluate ``phi_j`` at transverse points ``x``: row ``j - 1`` of :meth:`phi_matrix`.

        ``j`` is 1-based.  ``x`` may be a scalar or array, and the result has
        its shape; values outside ``[0, d]`` are not meaningful and are not
        checked.
        """
        self._check_mode(j)
        x = np.asarray(x, dtype=float)
        return self.phi_matrix(x.ravel())[j - 1].reshape(x.shape)

    def phi_matrix(self, x: np.ndarray) -> np.ndarray:
        """All modes at once: returns array of shape ``(count, len(x))``."""
        x = np.asarray(x, dtype=float)
        d = self.width
        j = np.arange(1, self.count + 1)[:, None]
        if self.cross_section.bc == BC_DIRICHLET:
            return np.sqrt(2.0 / d) * np.sin(j * np.pi / d * x[None, :])
        # Neumann mode j has frequency (j - 1) pi / d; mode 1 is the constant
        out = np.sqrt(2.0 / d) * np.cos((j - 1) * np.pi / d * x[None, :])
        out[0, :] = 1.0 / np.sqrt(d)
        return out

    def gap_below(self, m: int) -> float:
        """Distance mu_m - mu_{m-1} (inf for m = 1)."""
        self._check_mode(m)
        if m == 1:
            return np.inf
        return float(self.mu[m - 1] - self.mu[m - 2])

    def gap_above(self, m: int) -> float:
        """Distance mu_{m+1} - mu_m (requires mode m+1 in the basis)."""
        self._check_mode(m + 1)
        return float(self.mu[m] - self.mu[m - 1])

    def _check_mode(self, j: int) -> None:
        if not (1 <= j <= self.count):
            raise ValueError(f"mode index {j} outside 1..{self.count}")


def build_basis(cs: CrossSection, count: int) -> TransverseBasis:
    """Construct the closed-form transverse basis.

    Dirichlet: ``mu_j = (j pi/d)^2``, ``phi_j = sqrt(2/d) sin(j pi x/d)``.
    Neumann: ``mu_1 = 0``, ``phi_1 = d^{-1/2}``, then
    ``mu_j = ((j-1) pi/d)^2``, ``phi_j = sqrt(2/d) cos((j-1) pi x/d)``.

    Raises ``ValueError`` for a non-positive mode count.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"mode count must be a positive integer, got {count}")
    d = cs.width
    j = np.arange(1, count + 1, dtype=float)
    if cs.bc == BC_DIRICHLET:
        freq = j * np.pi / d
        mu = freq**2
        # phi_j'(0) = sqrt(2/d) * (j pi / d); phi_j(0) = 0 on a Dirichlet wall
        wall_slope = np.sqrt(2.0 / d) * freq
        wall_value = np.zeros(count)
    else:
        freq = (j - 1) * np.pi / d
        mu = freq**2
        wall_slope = np.zeros(count)
        wall_value = np.full(count, np.sqrt(2.0 / d))
        wall_value[0] = 1.0 / np.sqrt(d)
    return TransverseBasis(
        cross_section=cs,
        count=count,
        mu=mu,
        wall_slope=wall_slope,
        wall_value=wall_value,
    )

