"""Pole of the perturbed guide near a threshold: secular equation and residue.

For ``H = H0 - eps L`` with a localized perturbation ``L`` supported in the
source box, the resolvent pole ``lambda = -k^2`` near the threshold ``mu_m``
solves a scalar secular equation.  Splitting the threshold mode's ``1/(2k)``
degeneracy off the mode-sum resolvent leaves the regularized operator
``T g = V (A~ g)``; with ``S(k) = (I - eps T(k))^{-1}`` the pole is the fixed
point of

    k = F(k) = (eps / 2) <phi_m, S(k) (V phi_m)>,

a contraction with rate ``O(eps)`` starting from ``k = 0``.  The solver
finds the root of ``F(k) - k`` by safeguarded secant steps, with the plain
update ``k <- F(k)`` as the fallback, at one linear solve per iterate.  The
residue of the resolvent at the pole is ``psi = A(k) g`` with
``g = S(k)(V phi_m)``, taken from the solve at the reported ``k``; ``k``
and ``psi``'s first-mode amplitude past the box identify it as a genuine
eigenfunction (``m = 1``, or ``m >= 2`` with ``Im k > 0``) or a resonance.

The linear solves run in mode space.  On the box grid ``A~`` is
``sum_j (E_j W1) (x) phi_j phi_j^T W2``, so ``g`` enters only through its
transverse projections ``ghat_j[l] = sum_b phi_j(x2_b) w2_b g[l, b]``.
These ``count * n_long`` unknowns, ordered mode-major (``j * n_long + l``),
solve ``(I - eps C E) ghat = C e_m`` with the per-row mode coupling
``C[l] = Phi^T W2 diag(V[l]) Phi``; the secular value is
``(eps/2) w1 . ghat_m`` and the grid samples are rebuilt as
``g = V (phi_m + eps sum_j phi_j E_j W1 ghat_j)``.  This is the grid system
``(I - eps V A~) g = V phi_m`` exactly, at ``count / n_trans`` of its size.

On a row where ``V`` is constant across the strip, ``C[l] = V[l, 0] I``
exactly: the sampled modes are orthonormal under the trapezoid weights
while they fit the transverse lattice (Dirichlet ``count <= n_trans - 2``,
Neumann ``count <= n_trans - 1``; :func:`wgpoles.modesum.lattice_modes`).
A potential constant across the strip on every row therefore couples no
other mode to ``m`` and solves ``n_long`` unknowns on mode ``m`` alone, and
at ``m >= 2`` its pole is exactly real, an eigenvalue embedded in the
continuum; any other potential solves every mode.

``V`` is a plain ``(n_long, n_trans)`` array sampled on the kernel's grid
(:meth:`ModeSumKernel.sample`), so the predictor and the secular solve read
one grid.  Pairings are bilinear (no conjugation): the secular function
continues analytically in ``k`` and ``V`` may be complex.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as nla

from .modesum import ModeSumKernel, lattice_modes

logger = logging.getLogger(__name__)

# classification labels (also the literal strings in sweep CSV output)
BOUND_STATE = "BoundState"
RESONANCE = "Resonance"
NO_EIGENVALUE = "NoEigenvalue"
POLE_AT_ZERO = "PoleAtZero"
POLE_CLASSES = (BOUND_STATE, RESONANCE, NO_EIGENVALUE, POLE_AT_ZERO)

MAX_SECULAR_ITERATIONS = 100
SECULAR_RTOL = 1e-12

# Successive-difference plateau below this multiple of the stop scale counts
# as roundoff-limited convergence.
_PLATEAU_FACTOR = 1e3


class IterationDivergedError(RuntimeError):
    """Secular iteration failed to settle; carries the iterate trace."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


class AmbiguousClassificationError(ValueError):
    """Pole parameters fall on a boundary the classification rules do not cover."""


def _mode_coupling(V: np.ndarray, kernel: ModeSumKernel) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mode coupling ``C[l, i, j] = sum_b phi_i(x2_b) w2_b V[l, b] phi_j(x2_b)``, and the solved modes.

    A row of ``V`` constant across the strip couples ``V[l, 0] I``, written
    exactly, while the modes fit the transverse lattice (:func:`lattice_modes`);
    past that bound the sampled modes alias and every row keeps the quadrature.
    The modes (0-based) are the threshold mode alone when every row is
    written so, and every mode otherwise: a non-flat row whose quadrature
    couples nothing exactly, such as one nonzero only on a Dirichlet wall
    node, solves modes whose ``ghat`` stays exactly zero.
    """
    phi = kernel.phi
    C = np.einsum("ib,lb,jb->lij", phi * kernel.w2, V, phi)
    flat = np.all(V == V[:, :1], axis=1)
    if kernel.count > lattice_modes(kernel.basis.cross_section, kernel.n_trans):
        flat[:] = False
    C[flat] = V[flat, 0, None, None] * np.eye(kernel.count)
    return C, np.array([kernel.m - 1] if flat.all() else range(kernel.count))


def _birman_schwinger(C: np.ndarray, E: np.ndarray, eps: float) -> np.ndarray:
    """``I - eps C E`` from the mode coupling and the blocks ``E = kernel.assemble(k)``."""
    if eps < 0:
        raise ValueError(f"coupling must be nonnegative, got {eps}")
    count, n = E.shape[:2]
    # B[i, l, j, q] = C[l, i, j] E[j, l, q], then scaled by -eps; written
    # into a C-ordered array so that the reshape below copies nothing
    B = np.empty((count, n, count, n), dtype=np.result_type(C, E))
    np.multiply(C.transpose(1, 0, 2)[:, :, :, None], E.transpose(1, 0, 2)[None], out=B)
    B *= -eps
    B = B.reshape(count * n, count * n)
    B[np.diag_indices_from(B)] += 1.0
    return B


@dataclass
class PoleResult:
    """Pole location, residue samples, and classification for one solve.

    ``evaluations`` counts the Birman-Schwinger solves, one per iterate;
    ``residual`` is ``|F(k) - k|`` at the reported ``k``; ``modes`` lists
    the transverse modes (1-based) those solves ran on.
    """

    k: complex
    classification: str
    residue: np.ndarray = field(repr=False)
    iterates: list = field(repr=False)
    eps: float
    m: int
    evaluations: int = 0
    residual: float = 0.0
    modes: tuple[int, ...] = ()

    @property
    def lam(self) -> complex:
        """Spectral displacement from the threshold, ``lambda = -k^2``."""
        return -self.k * self.k

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1


def _secular_value(
    k: complex, eps: float, kernel: ModeSumKernel, modes: np.ndarray, C: np.ndarray, rhs: np.ndarray
) -> tuple[complex, np.ndarray, np.ndarray]:
    """One evaluation of the secular map: ``(eps/2) w1 . ghat_m``, the blocks ``E`` and ``ghat``.

    Solves the mode-space system ``(I - eps C E) ghat = rhs`` on the mode
    indices ``modes`` (0-based, from :func:`_mode_coupling`), with ``C`` the
    coupling among those modes and ``rhs`` its column ``C e_m``.
    """
    E = kernel.assemble(k.real if k.imag == 0.0 else k, modes)
    ghat = nla.solve(_birman_schwinger(C, E, eps), rhs).reshape(len(modes), kernel.n_long)
    return 0.5 * eps * complex(kernel.w1 @ ghat[modes == kernel.m - 1][0]), E, ghat


def solve_secular(
    V: np.ndarray,
    eps: float,
    kernel: ModeSumKernel,
    k0: complex = 0.0,
) -> PoleResult:
    """Solve the secular equation for the pole ``k`` near threshold ``m``.

    ``V`` is sampled on the kernel's grid; another shape raises
    ``ValueError``.  Safeguarded secant iteration on ``G(k) = F(k) - k`` with
    ``F(k) = (eps/2)<phi_m, S(k)(V phi_m)>``, from ``k0`` (default the
    threshold itself).  The second iterate is ``F(k0)``; each later one is
    the secant point through the last two ``(k, G)`` pairs, or the plain
    update ``F(k)`` when the secant's denominator vanishes or its point lies
    farther from ``F(k)`` than ``|G(k)|``.  The solve stops at the first
    evaluation point with ``|G(k)| < 1e-12 * max(eps^2, |F(k)|)``, or when
    ``|G|`` plateaus at roundoff, and reports that ``k`` with the residue
    ``g`` from its own Birman-Schwinger solve: one solve per iterate.  On
    the resonance side at ``m >= 2``, ``a_1`` of ``A(k) g`` past the box
    comes from :meth:`ModeSumKernel.outside_amplitudes`.  ``V phi_m = 0``
    short-circuits to a ``PoleAtZero`` result: the threshold pole does not
    detach.
    """
    start = time.perf_counter()
    grid = (kernel.n_long, kernel.n_trans)
    if np.shape(V) != grid:
        raise ValueError(f"potential samples {np.shape(V)} do not match grid {grid}")
    if not np.any(V * kernel.phi[kernel.m - 1]):
        return PoleResult(
            k=0.0 + 0.0j,
            classification=POLE_AT_ZERO,
            residue=np.zeros(grid),
            iterates=[complex(k0)],
            eps=eps,
            m=kernel.m,
        )

    C, modes = _mode_coupling(V, kernel)
    # the k-independent part of every evaluation: the coupling among the
    # solved modes and its threshold column
    system = C[:, modes][:, :, modes], C[:, modes, kernel.m - 1].T.ravel()
    k = complex(k0)
    trace = [k]
    prev = None  # the previous (k, G(k)) pair
    stalled = 0
    for _ in range(MAX_SECULAR_ITERATIONS):
        try:
            f, E, ghat = _secular_value(k, eps, kernel, modes, *system)
        except ValueError as exc:
            # iterate escaped the kernel's analyticity domain; that is a
            # divergence, not a usage error
            raise IterationDivergedError(
                f"secular iterate k = {k} left the resolvent domain: {exc}",
                trace,
            ) from exc
        gk = f - k
        residual = abs(gk)
        scale = max(eps * eps, abs(f))
        if residual < SECULAR_RTOL * scale:
            break
        if prev is not None and residual >= abs(prev[1]):
            stalled += 1
            if stalled >= 3 and residual < _PLATEAU_FACTOR * SECULAR_RTOL * scale:
                logger.debug("secular iteration plateaued at |F(k) - k| = %.3e", residual)
                break
        else:
            stalled = 0
        knext = f
        if prev is not None and gk != prev[1]:
            secant = k - gk * (k - prev[0]) / (gk - prev[1])
            if abs(secant - f) <= residual:
                knext = secant
        prev = (k, gk)
        k = knext
        trace.append(k)
    else:
        raise IterationDivergedError(
            f"secular iteration did not converge in {MAX_SECULAR_ITERATIONS} "
            f"steps (last |F(k) - k| = {residual:.3e})",
            trace,
        )
    # the residue's samples g = V (phi_m + eps sum_j phi_j E_j ghat_j), from
    # the evaluation at the reported k
    u = np.einsum("jlq,jq->lj", E, ghat)
    g = V * (kernel.phi[kernel.m - 1] + eps * (u @ kernel.phi[modes]))
    logger.info(
        "secular solve: %d iterations, %d evaluations, %d mode-space unknowns, "
        "|F(k) - k| = %.3e, %.2f s",
        len(trace) - 1,
        len(trace),
        len(modes) * kernel.n_long,
        residual,
        time.perf_counter() - start,
    )
    if k.imag == 0.0 and np.iscomplexobj(g) and not np.any(g.imag):
        g = g.real
    a1 = None
    if kernel.m >= 2 and k.real > 0 and k.imag < 0:
        a1 = complex(kernel.outside_amplitudes(g, k)[0])
    return PoleResult(
        k=k,
        classification=classify_pole(k, kernel.m, a1),
        residue=g,
        iterates=trace,
        eps=eps,
        m=kernel.m,
        evaluations=len(trace),
        residual=residual,
        modes=tuple(int(j) + 1 for j in modes),
    )


def regular_leading_asymptotic(V: np.ndarray, eps: float, kernel: ModeSumKernel) -> complex:
    """Leading pole asymptotics ``lambda = -(eps^2/4) <phi_m V phi_m>^2``.

    The average is the quadrature of ``V phi_m^2`` over the kernel's source
    box, on the grid and threshold mode the secular lane solves with.
    First order in the detachment parameter; the solver's pole differs from
    this by ``O(eps^3)``.
    """
    phim2 = kernel.phi[kernel.m - 1] ** 2
    avg = complex(np.einsum("i,j,ij->", kernel.w1, kernel.w2 * phim2, V))
    lam = -0.25 * eps * eps * avg * avg
    if lam.imag == 0.0:
        return complex(lam.real)
    return lam


def classify_pole(k: complex, m: int, a1: complex | None = None) -> str:
    """Classify a threshold pole as bound state, resonance, or neither.

    ``m = 1``: any pole with ``Re k > 0`` is a bound state below the
    threshold.  ``m >= 2``: ``Im k > 0`` keeps the pole on the physical
    sheet (bound state); ``Im k < 0`` with a nonzero amplitude ``a1`` of
    the open first mode past the box (see :func:`solve_secular`) is a
    resonance; ``Re k <= 0`` detaches no eigenvalue; ``k = 0`` means the
    pole never left the threshold.  The boundary cases (``m >= 2``
    with ``Im k`` exactly zero, or a missing/vanishing ``a1`` on the
    resonance side) are not covered by the classification rules and raise.
    """
    if m < 1:
        raise ValueError(f"threshold index must be >= 1, got {m}")
    k = complex(k)
    if k == 0:
        return POLE_AT_ZERO
    if k.real <= 0:
        return NO_EIGENVALUE
    if m == 1:
        return BOUND_STATE
    if k.imag > 0:
        return BOUND_STATE
    if k.imag == 0.0:
        raise AmbiguousClassificationError(
            f"m = {m} pole with exactly real k = {k}: bound-state/resonance "
            "boundary case is not classifiable"
        )
    if a1 is None:
        raise AmbiguousClassificationError(
            "resonance-side pole requires the first-mode amplitude a1"
        )
    if a1 == 0:
        raise AmbiguousClassificationError(
            "resonance-side pole with vanishing a1 is not classifiable"
        )
    return RESONANCE

