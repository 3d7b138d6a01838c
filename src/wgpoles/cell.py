"""Half-plane cell problem for a wall window: explicit solution and far field.

Near a small window the wall condition switches from Dirichlet to Neumann on
a segment; rescaling to unit size leaves a half-plane problem for a harmonic
function that vanishes on the wall outside the window, has zero normal
derivative across it, and grows like the linear coordinate at infinity.  For
an interval window ``(-a, a)`` the conformal map ``z -> sqrt(z^2 - a^2)``
solves it in closed form, with far field

    X(xi) = xi_2 + c * xi_2 / rho^2 + o(1/rho),    c = a^2 / 2.

The quadratic-in-``a`` constant ``c`` is what the window pole asymptotics
consume; the fitting routine recovers it from any evaluator and doubles as a
consistency check on the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_FIT_SAMPLES = 48


@dataclass(frozen=True)
class CellSolution:
    """Explicit window field on the closed upper half-plane.

    ``farfield_constant`` is exact for the interval window; the evaluator is
    vectorized and rejects points below the wall.
    """

    half_width: float
    farfield_constant: float

    def __call__(self, xi1, xi2) -> np.ndarray:
        xi1 = np.asarray(xi1, dtype=float)
        xi2 = np.asarray(xi2, dtype=float)
        if np.any(xi2 < 0):
            raise ValueError("cell field is defined on the upper half-plane only")
        # |xi1| keeps Im(z^2) >= 0, so the principal square root is taken on
        # a branch continuous across the closed upper half-plane and X >= 0;
        # the field is even in xi1 by the symmetry of the window.
        z = np.abs(xi1) + 1j * xi2
        out = np.sqrt(z * z - self.half_width**2).imag
        if out.ndim == 0:
            return float(out)
        return out

    def wall_height(self, xi1) -> np.ndarray:
        """Field on the wall: ``sqrt(a^2 - xi1^2)`` inside the window, zero outside."""
        return self(xi1, np.zeros_like(np.asarray(xi1, dtype=float)))


def explicit_window_solution_2d(a: float) -> CellSolution:
    """Closed-form cell field for the interval window ``(-a, a)``.

    Harmonic above the wall, zero on the wall outside the window, zero normal
    derivative across it, and ``X - xi_2 -> 0`` at infinity.  The far-field
    constant ``a^2/2`` is attached exactly.
    """
    if not (a > 0):
        raise ValueError(f"window half-width must be positive, got {a}")
    return CellSolution(half_width=float(a), farfield_constant=0.5 * a * a)


def fit_farfield_coefficient(sol, rho_min: float, rho_max: float) -> float:
    """Recover the far-field constant from samples of ``(X(0, rho) - rho) rho``.

    ``sol`` is a :class:`CellSolution` or any evaluator ``(xi1, xi2) -> X``.
    Samples along the vertical axis are fit against ``[1, rho^-2]``; the
    constant term is returned.  The sampling range must satisfy
    ``rho_max >= 2 rho_min`` and, when the window size is known,
    ``2 rho_min >= 20 a``; a residual spread above 1% of the recovered
    constant signals an evaluator without the assumed far field.
    """
    if not (rho_max >= 2.0 * rho_min > 0):
        raise ValueError(
            f"need rho_max >= 2 rho_min > 0, got [{rho_min}, {rho_max}]"
        )
    a = getattr(sol, "half_width", None)
    if a is not None and 2.0 * rho_min < 20.0 * a:
        raise ValueError(
            f"2 rho_min = {2 * rho_min} is inside the near zone; "
            f"need at least 20 a = {20 * a}"
        )
    rho = np.geomspace(rho_min, rho_max, _FIT_SAMPLES)
    y = (np.asarray(sol(np.zeros_like(rho), rho)) - rho) * rho
    design = np.column_stack([np.ones_like(rho), rho**-2.0])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    spread = float(resid.max() - resid.min())
    scale = max(abs(float(coef[0])), 1e-9)
    if spread / scale > 1e-2:
        raise ValueError(
            f"far-field fit residual spread {spread:.3e} exceeds 1% of the "
            f"constant {coef[0]:.3e}; evaluator lacks the dipole far field"
        )
    return float(coef[0])
