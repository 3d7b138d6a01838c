"""Pole of the perturbed guide near a threshold: secular equation and residue.

For ``H = H0 - eps L`` with a localized perturbation ``L`` supported in the
source box, the resolvent pole ``lambda = -k^2`` near the threshold ``mu_m``
solves a scalar secular equation.  Splitting the threshold mode's ``1/(2k)``
degeneracy off the mode-sum resolvent leaves the regularized operator
``T g = V (A~ g)``; with ``S(k) = (I - eps T(k))^{-1}`` the pole is the fixed
point of

    k = (eps / 2) <phi_m, S(k) (V phi_m)>,

a contraction with rate ``O(eps)`` starting from ``k = 0``.  The residue of
the resolvent at the pole is ``psi = A(k) g`` with ``g = S(k)(V phi_m)``; its
transverse mode amplitudes and decay identify it as a genuine eigenfunction
(``m = 1``, or ``m >= 2`` with ``Im k > 0``) or a resonance state.

The linear solves run in mode space.  On the box grid ``A~`` is
``sum_j (E_j W1) (x) phi_j phi_j^T W2``, so ``g`` enters only through its
transverse projections ``ghat_j[l] = sum_b phi_j(x2_b) w2_b g[l, b]``.
These ``count * n_long`` unknowns, ordered mode-major (``j * n_long + l``),
solve ``(I - eps C E) ghat = C e_m`` with the per-row mode coupling
``C[l] = Phi^T W2 diag(V[l]) Phi``; the secular value is
``(eps/2) w1 . ghat_m`` and the grid samples are rebuilt as
``g = V (phi_m + eps sum_j phi_j E_j W1 ghat_j)``.  This is the grid system
``(I - eps V A~) g = V phi_m`` exactly, at ``count / n_trans`` of its size.

Pairings are bilinear (no conjugation): the secular function continues
analytically in ``k`` and ``V`` may be complex.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import numpy.linalg as nla

from .modesum import BoxRegion, ModeSumField, ModeSumKernel, apply_mode_sum
from .transverse import TransverseBasis

logger = logging.getLogger(__name__)

# classification labels (also the literal strings in sweep CSV output)
BOUND_STATE = "BoundState"
RESONANCE = "Resonance"
NO_EIGENVALUE = "NoEigenvalue"
POLE_AT_ZERO = "PoleAtZero"

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


@dataclass
class PerturbationField:
    """Multiplicative perturbation: sampled potential ``V`` on a box grid."""

    region: BoxRegion
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.shape != (self.region.n_long, self.region.n_trans):
            raise ValueError(
                f"potential samples {self.values.shape} do not match grid "
                f"({self.region.n_long}, {self.region.n_trans})"
            )

    @classmethod
    def from_function(cls, region: BoxRegion, fn: Callable) -> "PerturbationField":
        """Sample ``fn(x1, x2)`` on the region grid."""
        return cls(region=region, values=region.sample(fn))

    @property
    def bound(self) -> float:
        """Uniform operator bound ``C(L) = max |V|``."""
        return float(np.max(np.abs(self.values)))


def _mode_coupling(V: PerturbationField, kernel: ModeSumKernel) -> np.ndarray:
    """Per-row mode coupling ``C[l, i, j] = sum_b phi_i(x2_b) w2_b V[l, b] phi_j(x2_b)``."""
    phi = kernel.phi
    return np.einsum("ib,lb,jb->lij", phi * kernel.region.w2, V.values, phi)


def _birman_schwinger(
    C: np.ndarray, E: np.ndarray, eps: float, bound: float
) -> np.ndarray:
    """``I - eps C E`` from the mode coupling and the blocks ``E = kernel.assemble(k)``.

    When the contraction heuristic ``eps * C(L) * max_j ||E_j W1||_2 >= 1``
    fails a warning is logged; the assembly itself proceeds.
    """
    if eps < 0:
        raise ValueError(f"coupling must be nonnegative, got {eps}")
    if eps > 0:
        # cheap screen first: sqrt(||E_j||_1 ||E_j||_inf) bounds the 2-norm
        # from above, so it never misses; the exact norms cost about as much
        # as the solve itself
        absE = np.abs(E)
        rough = np.sqrt(absE.sum(axis=1).max(axis=1) * absE.sum(axis=2).max(axis=1))
        if eps * bound * float(rough.max()) >= 1.0:
            sharp = eps * bound * max(nla.norm(Ej, 2) for Ej in E)
            if sharp >= 1.0:
                logger.warning(
                    "contraction heuristic violated: eps*C(L)*||A|| = %.3g >= 1; "
                    "secular iteration may not converge",
                    sharp,
                )
    count, n = E.shape[:2]
    B = -eps * np.einsum("lij,jlq->iljq", C, E).reshape(count * n, count * n)
    B[np.diag_indices_from(B)] += 1.0
    return B


def assemble_birman_schwinger(
    V: PerturbationField, k: complex, eps: float, kernel: ModeSumKernel
) -> np.ndarray:
    """Matrix of ``I - eps T(k)`` with ``T g = V (A~ g)``, in mode space.

    ``count * n_long`` rows on the unknowns ``ghat_j[l]``, ordered
    mode-major; see the module docstring for the reduction.
    """
    return _birman_schwinger(_mode_coupling(V, kernel), kernel.assemble(k), eps, V.bound)


@dataclass
class PoleResult:
    """Pole location, residue samples, and classification for one solve."""

    k: complex
    classification: str
    residue: np.ndarray = field(repr=False)
    iterates: list = field(repr=False)
    converged: bool
    eps: float
    m: int

    @property
    def lam(self) -> complex:
        """Spectral displacement from the threshold, ``lambda = -k^2``."""
        return -self.k * self.k

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1


def _secular_value(
    V: PerturbationField, k: complex, eps: float, kernel: ModeSumKernel, C: np.ndarray
) -> tuple[complex, np.ndarray]:
    """One evaluation of the secular map: returns ``((eps/2)<phi_m, g>, g)``.

    Solves the mode-space system for ``ghat`` and rebuilds the grid samples
    ``g = V (phi_m + eps sum_j phi_j E_j ghat_j)``.
    """
    reg = kernel.region
    mi = kernel.m - 1
    E = kernel.assemble(k.real if k.imag == 0.0 else k)
    rhs = C[:, :, mi].T.ravel()
    ghat = nla.solve(_birman_schwinger(C, E, eps, V.bound), rhs)
    ghat = ghat.reshape(kernel.count, reg.n_long)
    u = np.einsum("jlq,jq->lj", E, ghat)
    g = V.values * (kernel.phi[mi] + eps * (u @ kernel.phi))
    return 0.5 * eps * complex(reg.w1 @ ghat[mi]), g


def solve_secular(
    V: PerturbationField,
    eps: float,
    kernel: ModeSumKernel,
    k0: complex = 0.0,
) -> PoleResult:
    """Solve the secular equation for the pole ``k`` near threshold ``m``.

    Fixed-point iteration of ``k -> (eps/2)<phi_m, S(k)(V phi_m)>`` from
    ``k0`` (default the threshold itself), stopping when the update falls
    below ``1e-12 * max(eps^2, |k|)`` or plateaus at roundoff.
    ``V phi_m = 0`` short-circuits to a ``PoleAtZero`` result: the threshold
    pole does not detach.
    """
    start = time.perf_counter()
    reg = kernel.region
    if not np.any(V.values * kernel.phi[kernel.m - 1]):
        return PoleResult(
            k=0.0 + 0.0j,
            classification=POLE_AT_ZERO,
            residue=np.zeros((reg.n_long, reg.n_trans)),
            iterates=[complex(k0)],
            converged=True,
            eps=eps,
            m=kernel.m,
        )

    C = _mode_coupling(V, kernel)
    k = complex(k0)
    trace = [k]
    prev_step = np.inf
    stalled = 0
    for _ in range(MAX_SECULAR_ITERATIONS):
        try:
            knew, _ = _secular_value(V, k, eps, kernel, C)
        except ValueError as exc:
            # iterate escaped the kernel's analyticity domain; that is a
            # divergence, not a usage error
            raise IterationDivergedError(
                f"secular iterate k = {k} left the resolvent domain: {exc}",
                trace,
            ) from exc
        step = abs(knew - k)
        trace.append(knew)
        scale = max(eps * eps, abs(knew))
        k = knew
        if step < SECULAR_RTOL * scale:
            break
        if step >= prev_step:
            stalled += 1
            if stalled >= 3 and step < _PLATEAU_FACTOR * SECULAR_RTOL * scale:
                logger.debug("secular iteration plateaued at step %.3e", step)
                break
        else:
            stalled = 0
        prev_step = step
    else:
        raise IterationDivergedError(
            f"secular iteration did not converge in {MAX_SECULAR_ITERATIONS} "
            f"steps (last update {prev_step:.3e})",
            trace,
        )
    # final residue at the converged k
    _, g = _secular_value(V, k, eps, kernel, C)
    logger.info(
        "secular solve: %d iterations, %d mode-space unknowns, last update %.3e, "
        "%.2f s",
        len(trace) - 1,
        kernel.count * reg.n_long,
        step,
        time.perf_counter() - start,
    )
    if k.imag == 0.0 and np.iscomplexobj(g) and not np.any(g.imag):
        g = g.real
    a1 = None
    if kernel.m >= 2 and k.real > 0 and k.imag < 0:
        fld = apply_mode_sum(g, k, kernel, regularize_m=False)
        a1 = _outside_amplitude(fld, 1, kernel.region.half_length + 1.0)
    return PoleResult(
        k=k,
        classification=classify_pole(k, kernel.m, a1),
        residue=g,
        iterates=trace,
        converged=True,
        eps=eps,
        m=kernel.m,
    )


def regular_leading_asymptotic(
    V: PerturbationField, eps: float, m: int, basis: TransverseBasis
) -> complex:
    """Leading pole asymptotics ``lambda = -(eps^2/4) <phi_m V phi_m>^2``.

    The average is the quadrature of ``V phi_m^2`` over the source box.
    First order in the detachment parameter; the solver's pole differs from
    this by ``O(eps^3)``.
    """
    reg = V.region
    phim2 = basis.phi(m, reg.x2) ** 2
    avg = complex(np.einsum("i,j,ij->", reg.w1, reg.w2 * phim2, V.values))
    lam = -0.25 * eps * eps * avg * avg
    if lam.imag == 0.0:
        return complex(lam.real)
    return lam


def classify_pole(k: complex, m: int, a1: complex | None = None) -> str:
    """Classify a threshold pole as bound state, resonance, or neither.

    ``m = 1``: any pole with ``Re k > 0`` is a bound state below the
    threshold.  ``m >= 2``: ``Im k > 0`` keeps the pole on the physical
    sheet (bound state); ``Im k < 0`` with a nonzero first-mode amplitude
    ``a1`` is a resonance; ``Re k <= 0`` detaches no eigenvalue; ``k = 0``
    means the pole never left the threshold.  The boundary cases (``m >= 2``
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


def _outside_amplitude(fld: ModeSumField, j: int, r: float) -> complex:
    """Amplitude ``a_j`` of ``exp(-K_j |x1|)`` in the field at ``x1 = r``.

    Exact at any ``r`` beyond the source box, where mode ``j`` of the field
    is the pure exponential ``a_j exp(-K_j |x1|)``.
    """
    Kj = fld.exponents[j - 1]
    return complex(fld.mode_profile(j, np.array([r]))[0] * np.exp(Kj * r))


@dataclass
class EigenfunctionField:
    """Residue of the resolvent at the pole, as an evaluator on the guide.

    ``amplitudes[j-1]`` is the coefficient of ``phi_j(x2) exp(-K_j |x1|)``
    outside the source box; for bound states the threshold-mode amplitude is
    normalized to one (evaluator scaled to match).
    ``raw_threshold_amplitude`` is that amplitude before normalization,
    under the natural scaling ``psi = eps A(k) g`` in which it tends to one
    as the coupling vanishes.  ``square_integrable`` is false for resonance
    and no-eigenvalue poles, whose fields grow or radiate; the evaluator
    still returns values there.
    """

    amplitudes: np.ndarray = field(repr=False)
    raw_threshold_amplitude: complex
    decay_rate: float
    square_integrable: bool
    m: int
    _field: "object" = field(repr=False)
    _prefactor: complex = field(repr=False)

    def __call__(self, x1, x2) -> np.ndarray:
        return self._prefactor * self._field(x1, x2)

    def mode_profile(self, j: int, x1) -> np.ndarray:
        """Longitudinal amplitude of transverse mode ``j`` (normalized)."""
        return self._prefactor * self._field.mode_profile(j, x1)


def assemble_residue(p: PoleResult, kernel: ModeSumKernel) -> EigenfunctionField:
    """Assemble the residue field ``psi = eps A(k) g`` and its mode amplitudes.

    Amplitudes are read off one unit outside the source box; the decay rate
    comes from a log-linear fit of the threshold-mode profile over the next
    five units.  Not defined for ``PoleAtZero`` results.
    """
    if p.classification == POLE_AT_ZERO:
        raise ValueError("pole never detached from the threshold; no residue field")
    fld = apply_mode_sum(p.residue, p.k, kernel, regularize_m=False)
    R = kernel.region.half_length
    r0 = R + 1.0
    amps = np.array(
        [_outside_amplitude(fld, j, r0) for j in range(1, kernel.count + 1)]
    )
    raw_m = p.eps * amps[p.m - 1]
    if p.classification == BOUND_STATE:
        if amps[p.m - 1] == 0:
            raise ValueError("threshold-mode amplitude vanished; cannot normalize")
        prefactor = 1.0 / amps[p.m - 1]
    else:
        prefactor = complex(p.eps)
    xs = np.linspace(r0, R + 6.0, 11)
    prof = np.abs(fld.mode_profile(p.m, xs))
    if np.any(prof == 0):
        decay = float("nan")
    else:
        decay = -float(np.polyfit(xs, np.log(prof), 1)[0])
    scaled = amps * prefactor
    if p.classification == BOUND_STATE:
        # exactly one: the product with the reciprocal can round to 1 - 1e-16
        scaled[p.m - 1] = 1.0
    else:
        logger.info(
            "residue field for %s pole is not square integrable", p.classification
        )
    return EigenfunctionField(
        amplitudes=scaled,
        raw_threshold_amplitude=complex(raw_m),
        decay_rate=decay,
        square_integrable=p.classification == BOUND_STATE,
        m=p.m,
        _field=fld,
        _prefactor=complex(prefactor),
    )
