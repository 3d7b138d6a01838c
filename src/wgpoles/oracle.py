"""Finite-difference eigensolver on a truncated guide: the ground-truth lane.

Everything else in the package reasons through mode sums and asymptotic
formulas; this module knows none of that.  It discretizes ``-Delta + q`` on
the even half ``(0, L) x (0, d)`` of a guide symmetric in ``x1``, with a
natural condition on the symmetry plane ``x1 = 0`` and the requested wall
conditions (a Neumann window or Dirichlet patch carved into the ``x2 = 0``
wall), solves for the lowest eigenpair, and reports the binding
``b = mu_1^h - E_1`` against the closed-form *discrete* lowest transverse
threshold.  Measuring against ``mu_1^h`` rather than ``mu_1`` cancels the
leading ``O(h^2)`` discretization bias, which matters because the bindings
of interest sit orders of magnitude below that bias.

Discretization is by the quadratic form (energy) on a tensor grid with
trapezoid mass: interior rows reproduce the 5-point stencil, Neumann
boundary rows the ghost-point reflection, and sampled transverse eigenmodes
are lattice-exact, so the transverse factor of the error cancels in ``b``
identically.

Only a box of columns around the feature is assembled.  Past it the guide
is a uniform lattice whose transverse sines (or cosines) are exact
eigenvectors of the stencil, so the rest of the guide, out to its end at
``L``, is eliminated exactly, one mode at a time, in closed form: a
discrete transparent boundary condition for the finite guide (Ehrhardt and
Arnold).  Each closure is one formula in each mode's angle ``theta_j``
(:func:`_lattice_angles`), which continues past the mode's threshold to
``theta = i phi``: no closure branches on how a mode behaves.  The
eigenvalue is then the root of a small nonlinear symmetric problem
``T(E) v = 0`` on the box, whose ``T`` is concave in ``E``.  It is
bracketed from below by Cholesky factorizations, which succeed
exactly when the shift lies below ``E_1`` (as long as it stays below the
exterior's own lowest eigenvalue, the cap where ``T`` has its first pole),
and from above by the smallest eigenvalue of the linearized pencil, found
by inverse iteration, tightened to the Rayleigh functional of its
eigenvector.  A binding estimate places the first shift next to the
eigenvalue; the eigenpair does not depend on it, only the number of
factorizations does.  The same exterior gives the bound state's tails in
closed form (:func:`extract_tail_coefficients`): past the box each lattice
mode decays at the exact lattice rate of its threshold, with an amplitude
read from the box's edge column, the last unknowns of the eigenvector.
The solution keeps the operator's unknowns only; the tails are the one
closed form of the rest.  Everything is deterministic: fixed all-ones
start vector, direct factorizations.

A wall feature without a potential is reduced further, every other node
of the same finite guide eliminated in closed form (the capacitance
matrix method of Buzbee, Dorr, George and Golub, and of Proskurowski and
Widlund): a window to its ``n_feat + 1`` wall nodes
(:class:`WindowOperator`), a patch to the ``n_trans + 1`` nodes of the
first column past it (:class:`PatchOperator`).  The box and both wall
forms are one operator, :class:`FdOperator`: a stiffness band plus a
closure on its last few unknowns that is Toeplitz plus or minus Hankel in
their node index, so the three forms differ only in their ``coupling(E)``
and in the fields their builders set.  :func:`lowest_eigenpairs` brackets
each with one loop, through the interface the class offers: factor or
report failure, back-solve, apply ``-T'(s)``, and ``v^T T(E) v`` with its
derivative.  The box still accepts windows and patches, as the reference
the wall forms are tested against.

The stiffness is assembled straight into LAPACK lower band storage,
``band[i - j, j] = A[i, j]`` for ``i >= j``; the box numbers its unknowns
along each column, so its band is as wide as one column's active nodes,
and the 5-point stencil fills only a few of its diagonals, which is all
the matrix-vector product visits.  The closure's lower triangle is
gathered into the same band, full on the wall forms.  Every factorization
and back-solve is LAPACK's ``dpbtrf`` and ``dpbtrs`` from scipy's
compiled LAPACK extension, loaded on its own on the first of them:
importing ``scipy.linalg`` would pull in scipy's array-API layer and with
it much of numpy's test and build tooling, which costs more CPU at
start-up than a window sweep spends solving.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from .transverse import BC_DIRICHLET, CrossSection

logger = logging.getLogger(__name__)

EIGEN_RESIDUAL_TOL = 1e-8

# box columns kept past the last column the feature or potential touches
BOX_PADDING = 4

# the solve stops once the bracket around E_1 is this narrow
BRACKET_TOL = 1e-10

# cap on the factorizations of one solve
MAX_FACTORIZATIONS = 60

# each shift after the first sits this share of the bracket below its upper bound
SHIFT_GAP = 1e-4

# Newton steps on the Rayleigh functional, which converge quadratically; they
# stop after a step shorter than this share of BRACKET_TOL, below which
# further steps only move the iterate by roundoff
NEWTON_STEPS = 30
NEWTON_STOP = 1e-3

# inverse iteration stops when the Rayleigh quotient falls by less than this
# relative amount, or after this many back-solves
INVERSE_TOL = 1e-8
INVERSE_ITERATIONS = 50

# below this |u| the closures' r(u) = (u coth u - 1) / u^2 takes its Taylor series
SERIES_BELOW = 1e-3

# refuse factorizations whose band storage would not fit in memory
MAX_BAND_BYTES = 3 * 1024**3


# row threads that reach their first LAPACK call together load the
# extension once
_FLAPACK_LOCK = threading.Lock()


@cache
def _load_flapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, without ``scipy.linalg``.

    The extension needs only numpy, so it is loaded from its file in the
    installed scipy, on the first factorization; the module already
    imported is reused, and the one loaded here is registered under its own
    name, so a later ``import scipy.linalg`` shares it.
    """
    name = "scipy.linalg._flapack"
    with _FLAPACK_LOCK:
        if name in sys.modules:
            return sys.modules[name]
        spec = importlib.util.find_spec("scipy")
        roots = [] if spec is None else list(spec.submodule_search_locations or [])
        paths = [
            os.path.join(root, "linalg", "_flapack" + suffix)
            for root in roots
            for suffix in importlib.machinery.EXTENSION_SUFFIXES
        ]
        for path in paths:
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader)
                )
                loader.exec_module(module)
                sys.modules[name] = module
                return module
    raise ImportError(
        f"scipy's LAPACK extension {name} not found; looked for "
        + (", ".join(paths) or "an installed scipy package"),
        name=name,
    )


def _lapack_info(routine: str, info: int) -> None:
    # scipy.linalg's mapping of the LAPACK status
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")


def cholesky_banded(ab: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite band, LAPACK ``dpbtrf``.

    ``ab`` is the matrix in lower band storage, ``ab[i - j, j] = A[i, j]``;
    the factor comes back in the same storage, in place of ``ab`` when that
    is a Fortran-ordered float64 array.  Raises ``LinAlgError`` when ``A``
    is not positive definite.
    """
    c, info = _load_flapack().dpbtrf(ab, lower=1, overwrite_ab=1)
    _lapack_info("pbtrf", info)
    return c


def cho_solve_banded(cb: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from the factor ``cb`` of :func:`cholesky_banded`, LAPACK ``dpbtrs``."""
    x, info = _load_flapack().dpbtrs(cb, b, lower=1)
    _lapack_info("pbtrs", info)
    return x


class SolverError(RuntimeError):
    """Eigensolve failed its contract; carries the residual when one exists."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass
class TruncatedGuide:
    """Even half ``x1 in [0, L]`` of a discretized truncated guide.

    The symmetry plane ``x1 = 0`` keeps the natural (Neumann) condition, so
    the half carries exactly the even eigenstates of the guide on
    ``(-L, L)``, the ground state among them; the column ``x1 = L`` is a
    Dirichlet end.  ``potential(x1, x2)`` is the full operator term ``q`` in
    ``-Delta + q`` (so an attractive well of depth ``eps`` is ``q = -eps``
    on its support), sampled at the grid nodes.  Callers are responsible for
    choosing ``L`` several decay lengths beyond the perturbation;
    :func:`build_fd_operator` refuses a guide whose perturbation comes
    within ``BOX_PADDING`` columns of its end.

    ``half_width`` carves a wall feature, centered at ``x1 = 0`` on the
    ``x2 = 0`` wall, whose kind follows the wall condition: a Neumann window
    in a Dirichlet guide, a Dirichlet patch in a Neumann guide.  The guide
    alone turns the requested step ``h`` into the grid it solves:

    - with a feature of half-width ``W``, ``h`` is first snapped to
      ``h_snapped = W / (n + 1/2)``, ``n = max(4, round(W/h - 1/2))``, so
      the feature edge falls midway between boundary nodes; a step too
      coarse for a small feature is refined to four nodes rather than
      rejected, since a sweep shares one step plan across shrinking
      features.  Without a feature ``h_snapped`` is ``h``;
    - each direction then takes a whole number of cells of about
      ``h_snapped``, and the resulting steps ``step_long`` and
      ``step_trans`` are what the solver uses;
    - the feature edge is snapped again, to the midpoint between boundary
      nodes of ``step_long``, and the snap distance recorded.

    Rounding ``L/h`` moves the step after the feature snap, so the edge
    stays exact only where ``L`` is a whole number of snapped steps: at
    ``W = 0.4``, ``h = 0.04`` the effective half-width is 0.400424,
    0.399859 and 0.400000 at ``L`` = 18, 27 and 36.  This is a known
    defect, kept bit for bit until the benchmark's stored bindings are
    regenerated: solving every guide a whole number of snapped steps long
    moves the ``window-ladder`` bindings by up to 1.43%.
    """

    cross_section: CrossSection
    half_length: float
    h: float
    half_width: float | None = None
    potential: Callable | None = None

    def __post_init__(self) -> None:
        if not (self.half_length > 0 and self.h > 0):
            raise ValueError(
                f"half-length and step must be positive, got {self.half_length}, {self.h}"
            )
        width = self.half_width
        self.h_snapped = self.h
        if width is not None:
            if not (0 < width < self.half_length):
                raise ValueError(
                    f"feature half-width {width} must lie in (0, L = {self.half_length})"
                )
            self.h_snapped = width / (max(4, round(width / self.h - 0.5)) + 0.5)

        self.n_long = int(max(4, round(self.half_length / self.h_snapped)))
        self.step_long = self.half_length / self.n_long
        self.n_trans = int(max(4, round(self.cross_section.width / self.h_snapped)))
        self.step_trans = self.cross_section.width / self.n_trans

        self.feature_nodes = 0
        self.feature_half_width = self.feature_snap = 0.0
        if width is not None:
            # edge between the last changed node and the first unchanged one:
            # effective half-width (n + 1/2) h, second-order edge placement.
            # The guide is longer than the feature's 4.5 snapped steps, so
            # it has at least 5 cells, whose rounding moves the step by at
            # most a tenth: the feature keeps its four nodes
            self.feature_nodes = round(width / self.step_long - 0.5)
            self.feature_half_width = (self.feature_nodes + 0.5) * self.step_long
            self.feature_snap = abs(width - self.feature_half_width)
            if self.feature_snap > 1e-12:
                logger.info(
                    "feature edge snapped by %.3e to %.6f",
                    self.feature_snap,
                    self.feature_half_width,
                )

    @cached_property
    def x1(self) -> np.ndarray:
        """Longitudinal nodes ``0 .. L``, built on first use: the wall forms never read them."""
        return np.linspace(0.0, self.half_length, self.n_long + 1)

    @cached_property
    def x2(self) -> np.ndarray:
        """Transverse nodes ``0 .. d``."""
        return np.linspace(0.0, self.cross_section.width, self.n_trans + 1)

    def potential_samples(self) -> np.ndarray | None:
        """Potential ``q`` on the node grid, shape ``(n_long+1, n_trans+1)``."""
        if self.potential is None:
            return None
        q = np.asarray(self.potential(self.x1[:, None], self.x2[None, :]))
        q = np.broadcast_to(q, (self.n_long + 1, self.n_trans + 1))
        return np.ascontiguousarray(q, dtype=float)


def _lattice_angles(h1: float, mu: np.ndarray, E: float) -> tuple[np.ndarray, np.ndarray]:
    """``theta_j`` of each mode's column recurrence, and ``theta_j / sinh(theta_j)``.

    ``a_{i+1} + a_{i-1} = 2 cosh(theta) a_i``, ``cosh(theta) = 1 + h1^2
    (mu_j - E) / 2``, ``mu`` ascending.  Past its threshold a mode
    oscillates and ``theta`` continues to ``i phi``, so it is complex only
    when some mode oscillates; ``theta / sinh(theta)`` is real either way.
    On a threshold ``theta`` is about ``3e-154``, not zero, and every
    closure takes its limit there by plain arithmetic.
    """
    # from delta = cosh(theta) - 1 directly, so that modes next to E keep
    # their digits; half = |sinh(theta / 2)|, plus the smallest normal number
    delta = 0.5 * h1**2 * (mu - E)
    half = np.sqrt(0.5 * np.abs(delta) + sys.float_info.min)
    angle = np.arcsinh(half)
    theta = 2.0 * angle
    if E > mu[0]:
        # the oscillating modes, a prefix; below the cap |delta| <= 2
        k = int(np.searchsorted(mu, E))
        angle[:k] = np.arcsin(half[:k])
        theta = np.where(delta < 0.0, 2j, 2.0) * angle
    # |sinh(theta)| = 2 half sqrt(1 + delta / 2) on both sides of the threshold
    return theta, angle / (half * np.sqrt(1.0 + 0.5 * delta))


def _r(u: np.ndarray, uc: np.ndarray) -> np.ndarray:
    """``r(u) = (u coth u - 1) / u^2`` from ``uc = u coth u``, for a real or an imaginary ``u``.

    ``u coth u`` and ``u^2`` are real for such ``u``, and so is ``r``, an
    even function.  Below ``SERIES_BELOW``, where ``u coth u - 1`` cancels,
    ``r`` is its series ``1/3 - u^2/45``: the one series of the closures.
    """
    u2 = (u * u).real
    r = (uc.real - 1.0) / u2
    small = np.abs(u2) < SERIES_BELOW**2
    if np.count_nonzero(small):
        r[small] = 1.0 / 3.0 - u2[small] / 45.0
    return r


def _t(u: np.ndarray) -> np.ndarray:
    """``t(u) = tanh(u) / u`` for a real or an imaginary ``u``: real, and 1 as ``u -> 0``."""
    return (np.tanh(u) / u).real


def _exterior_coupling(h1: float, M: int, mu: np.ndarray, E: float) -> tuple[np.ndarray, np.ndarray]:
    """``sigma_j(E)`` of an ``M``-column exterior closed by a Dirichlet end, and ``d sigma / dE``.

    ``sigma_j = sinh(theta) coth(M theta) / h1``; with ``x = M theta`` it is
    ``(x coth x) / (M h1) * sinh(theta) / theta``, and ``d sigma / dE =
    -(h1/2) (x coth x / M) (r(theta) - M^2 r(x) + M^2 t(x))``, taken with
    ``x coth x * t(x) = 1``, finite where ``t(x)`` has a pole.  This
    derivative and ``d tau / dE`` are minus the mass of the mode's
    eliminated extension, real on both sides of the threshold.
    """
    theta, ratio = _lattice_angles(h1, mu, E)
    # theta and x = M theta in one array
    u = np.multiply.outer((1.0, M), theta)
    uc = (u / np.tanh(u)).real
    r1, rx = _r(u, uc)
    sigma = uc[1] / (M * h1 * ratio)
    slope = -0.5 * h1 * (uc[1] * (r1 - M * M * rx) / M + M)
    return sigma, slope


def _patch_side_coupling(h1: float, c: int, nu: np.ndarray, E: float) -> tuple[np.ndarray, np.ndarray]:
    """``tau_k(E)`` of the ``c`` columns under a Dirichlet patch, closed by the natural plane, and ``d tau / dE``.

    ``tau_k = -(1/h1) cosh((c - 1) theta) / cosh(c theta)``, summed from
    ``exp(-theta)``, and ``d tau / dE = -(h1^2/2) tau (theta / sinh theta)
    ((c - 1)^2 t((c - 1) theta) - c^2 t(c theta))``.
    """
    theta, ratio = _lattice_angles(h1, nu, E)
    u = np.multiply.outer((c - 1.0, c), theta)
    em = np.expm1(-2.0 * u)
    tau = (-np.exp(-theta) * (2.0 + em[0]) / ((2.0 + em[1]) * h1)).real
    dtau = -0.5 * h1**2 * tau * ratio * ((c - 1) ** 2 * _t(u[0]) - c * c * _t(u[1]))
    return tau, dtau


def _lattice_eigenvalues(g: TruncatedGuide, j):
    """``(4/h^2) sin^2(j pi h / (2d))``: eigenvalues of the transverse stencil.

    ``j`` counts the lattice sines of a Dirichlet strip from one and the
    cosines of a Neumann strip from zero, so index ``j`` is the eigenvalue of
    mode ``j`` or ``j + 1``; ``j = k - 1/2`` gives mode ``k`` of the mixed
    sines of a strip Dirichlet on one wall and Neumann on the other.
    """
    h = g.step_trans
    s = np.sin(j * math.pi * h / (2.0 * g.cross_section.width))
    return 4.0 / (h * h) * s * s


def _exterior_cap(h1: float, M: int, mu: np.ndarray) -> float:
    """Lowest eigenvalue of the ``M``-column exterior with its first column held at zero."""
    s = math.sin(math.pi / (2 * M))
    return float(mu.min()) + 4.0 / h1**2 * s * s


def _check_band(rows: int, n: int) -> None:
    """Refuse a working band of ``rows`` by ``n`` that would exceed ``MAX_BAND_BYTES``."""
    band_bytes = rows * n * 8
    if band_bytes > MAX_BAND_BYTES:
        raise MemoryError(
            f"band factorization needs {band_bytes / 1e9:.1f} GB "
            f"(bandwidth {rows}, {n} unknowns); coarsen the grid"
        )


@lru_cache(maxsize=8)
def _cosines(n2: int, count: int, d: float) -> np.ndarray:
    """``cos(p pi m / (2 n2)) / d`` for the slots ``p = 0 .. 2 n2`` and the offsets ``m < count``.

    Rows ``p = 0`` and ``2 n2`` are halved.  ``p m`` is reduced modulo the
    period before scaling, so each phase stays exact.  Tables are kept for
    the 8 grids used last; a nominal benchmark sweep uses at most 4.
    """
    table = np.cos(np.pi * (np.outer(np.arange(2 * n2 + 1), np.arange(count)) % (4 * n2)) / (2 * n2))
    table[[0, -1]] *= 0.5
    return table / d


@dataclass
class Factored:
    """``T(s)`` factored at a shift ``s`` below ``E_1``: back-solves, and ``-T'(s)``."""

    solve: Callable[[np.ndarray], np.ndarray]
    pencil: Callable[[np.ndarray], np.ndarray]


@dataclass(kw_only=True)
class FdOperator:
    """A guide on a few of its nodes, the rest eliminated exactly: ``T(E) = A - E M + closure``.

    ``band`` is the stiffness ``A`` in LAPACK lower band storage,
    ``band[i - j, j] = A[i, j]`` for ``i >= j``, as wide as ``T(E)``, and
    ``mass`` the diagonal of ``M``.  The closure couples the last ``K =
    scale.size`` unknowns, Toeplitz plus or minus Hankel in their node
    index: ``C Sigma C``, ``C = diag(scale)``,

        ``Sigma[i, i'] = w[|i - i'|] + image w[i + i' + 2 first]``,

    the second term each pair's image in the wall ``first`` nodes before
    node 0, with ``w`` the closure's weights ``sigma`` of ``coupling(E)``,
    or their slope for ``T'(E)``, at the offsets ``0 .. 2 (K + first) -
    2``.  ``cap`` is the lowest eigenvalue of the guide with the kept nodes
    held at zero; below it ``T(E)`` factors exactly when ``E < E_1``.  The
    box and the two wall forms (:class:`WindowOperator`,
    :class:`PatchOperator`) differ only in ``coupling(E)`` and in the fields
    their builders set.

    This class is the box: ``mask`` (the active nodes) covers its columns
    ``0 .. c = columns - 1``, from the symmetry plane to the natural edge
    column ``c``, whose active nodes are the last unknowns.  Past it the
    guide has no perturbation, so the lattice sines (Dirichlet walls) or
    cosines (Neumann walls) ``phi_j`` of the transverse stencil, with
    eigenvalues ``mu``, decouple it into ``M = exterior_columns`` column
    recurrences ``a_{i+1} + a_{i-1} = t_j a_i``, ``t_j = 2 + h1^2 (mu_j -
    E)``, closed by the Dirichlet end at column ``n_long``.  Eliminating
    them adds ``sigma_j(E) a_j^2`` to the energy, ``a_j`` the projection
    of column ``c`` on ``phi_j``: ``P diag(sigma(E)) P^T``, ``P = W2 Phi``
    on the column's active nodes ``k``.  By product to sum that is ``W2
    (q[|k - k'|] -+ q[k + k']) W2``, ``q[m] = sum_j z_j cos(j pi m / n2)``,
    ``z_j = s_j^2 sigma_j / 2`` (``s_j^2 = 2/d``, ``1/d`` for the cosines
    ``j = 0, n2``): minus for the sines, whose first active node is ``k =
    1``, plus for the cosines.
    """

    guide: TruncatedGuide
    band: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    cap: float
    image: float = 1.0
    first: int = 0
    exterior_columns: int | None = None
    mask: np.ndarray | None = field(default=None, repr=False)
    columns: int | None = None  # no box

    form = "box"

    @property
    def size(self) -> int:
        return int(self.band.shape[1])

    def coupling(self, E: float) -> tuple[np.ndarray, np.ndarray]:
        """``q[m]`` and ``dq[m]/dE`` of the box's exterior below the cap (see :func:`_exterior_coupling`)."""
        return self._cosine_sums(self._exterior(E))

    def _exterior(self, E: float) -> np.ndarray:
        # sigma_j and its slope in the even slots 2 j of a table of 2 n2 + 1;
        # the modes start at j = first, as the active nodes do
        g = self.guide
        z = np.zeros((2, 2 * g.n_trans + 1))
        start = 2 * self.first
        z[:, start : start + 2 * self.mu.size : 2] = _exterior_coupling(
            g.step_long, self.exterior_columns, self.mu, E
        )
        return z

    def _cosine_sums(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the sums of z over the slots at the closure's offsets
        g = self.guide
        q = z @ _cosines(g.n_trans, self._count, g.cross_section.width)
        return q[0], q[1]

    @property
    def _count(self) -> int:
        # the closure's offsets, 0 .. 2 (K + first) - 2
        return 2 * (self.scale.size + self.first) - 1

    @cached_property
    def _offsets(self) -> tuple[np.ndarray, np.ndarray]:
        # |i - i'| and i + i' + 2 first of every pair of the closure's nodes
        i = np.arange(self.scale.size)
        return np.abs(i[:, None] - i), i[:, None] + i + 2 * self.first

    @cached_property
    def _lower(self) -> tuple[np.ndarray, ...]:
        # the closure's lower triangle: offsets, C_i C_i', and flat indices
        # in the Fortran-ordered band
        K, rows = self.scale.size, self.band.shape[0]
        i, j = np.tril_indices(K)
        dst = (i - j) + rows * (self.size - K + j)
        return i - j, i + j + 2 * self.first, self.scale[i] * self.scale[j], dst

    def closure(self, weights: np.ndarray) -> np.ndarray:
        """The closure's ``K``-square block ``C Sigma C`` at ``weights``."""
        diff, pair = self._offsets
        return np.outer(self.scale, self.scale) * (weights[diff] + self.image * weights[pair])

    @staticmethod
    def _apply(block: np.ndarray, x: np.ndarray) -> np.ndarray:
        # the closure's block on the last K unknowns, zero elsewhere
        y = np.zeros_like(x)
        y[-block.shape[0]:] = block @ x[-block.shape[0]:]
        return y

    @cached_property
    def _work(self) -> np.ndarray:
        # one factor is live at a time, so every factorization reuses this buffer
        return np.empty_like(self.band, order="F")

    def factor(self, E: float) -> Factored | None:
        """``T(E)`` by banded Cholesky, or ``None`` when it is not positive definite.

        The closure's lower triangle is gathered straight into the band.
        The factor lives in a buffer that the next call overwrites.
        """
        sigma, slope = self.coupling(E)
        diff, pair, cc, dst = self._lower
        ab = self._work
        np.copyto(ab, self.band)
        ab[0, :] -= E * self.mass
        ab.reshape(-1, order="F")[dst] += cc * (sigma[diff] + self.image * sigma[pair])
        try:
            cb = cholesky_banded(ab)
        except LinAlgError:
            return None
        block = self.closure(slope)
        return Factored(
            solve=lambda y: cho_solve_banded(cb, y),
            pencil=lambda v: self.mass * v - self._apply(block, v),
        )

    def contract(self, v: np.ndarray) -> tuple[float, float, np.ndarray]:
        """``v^T A v``, ``v^T M v`` and the pair sums ``a2`` of ``x = C v``: ``v^T T(E) v = ... + sigma(E) . a2``."""
        diff, pair = self._offsets
        x = self.scale * v[-self.scale.size:]
        xx = np.outer(x, x).ravel()
        n = self._count
        a2 = np.bincount(diff.ravel(), xx, n) + self.image * np.bincount(pair.ravel(), xx, n)
        return float(v @ self.matvec(v)), float(v @ (self.mass * v)), a2

    def terms(self, v: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``A v``, ``M v`` and the closure's part of ``T(E) v = A v - E M v + closure``, ``sigma`` at ``E``."""
        return self.matvec(v), self.mass * v, self._apply(self.closure(sigma), v)

    @cached_property
    def _diagonals(self) -> list[tuple[int, np.ndarray]]:
        # the stencil fills only a few rows of the band, the diagonal first;
        # each is copied out, since a row of the Fortran-ordered band is
        # strided
        n = self.size
        return [(int(d), self.band[d, : n - d].copy())
                for d in np.flatnonzero(self.band.any(axis=1))]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``A v``, each row summed in column order, as a sparse product sums it."""
        (_, diag), *lower = self._diagonals
        y = np.zeros_like(v)
        for d, a in reversed(lower):
            y[d:] += a * v[:-d]
        y += diag * v
        for d, a in lower:
            y[:-d] += a * v[d:]
        return y

    @cached_property
    def matrix(self):
        """``A`` as a scipy CSC matrix, built from ``band`` on first access."""
        import scipy.sparse as sp

        d, j = np.nonzero(self.band)
        vals = self.band[d, j]
        off = d > 0
        return sp.csc_matrix(
            (
                np.concatenate((vals, vals[off])),
                (np.concatenate((j + d, j[off])), np.concatenate((j, (j + d)[off]))),
            ),
            shape=(self.size, self.size),
        )


def _box_edge(g: TruncatedGuide, last: int) -> int:
    """Box edge column, ``BOX_PADDING`` past column ``last``; it must lie inside the guide."""
    edge = last + BOX_PADDING
    if edge >= g.n_long:
        raise ValueError(
            f"the perturbation reaches column {last} of a guide with {g.n_long} "
            f"columns; it must end more than {BOX_PADDING} columns before "
            f"x1 = L = {g.half_length} (lengthen the guide)"
        )
    return edge


def _chain_band(diag: np.ndarray, link: float) -> np.ndarray:
    """A chain's ``K``-square stiffness in a band of ``K`` rows, the closure's width.

    ``diag`` is its diagonal and ``-link`` every edge between neighbours;
    refused with ``MemoryError`` beyond ``MAX_BAND_BYTES``.
    """
    K = diag.size
    _check_band(K, K)
    band = np.zeros((K, K), order="F")
    band[0] = diag
    band[1, :-1] = -link
    return band


def build_fd_operator(g: TruncatedGuide) -> FdOperator:
    """Assemble the energy-form discretization of ``-Delta + q`` on the feature box.

    The box runs from the symmetry plane to column ``edge``, ``BOX_PADDING``
    columns past the last column the feature or the potential touches; a
    guide too short to leave a column past ``edge`` raises ``ValueError``.
    The quadratic form ``sum (du)^2 * w / h`` over grid edges plus the
    trapezoid-weighted potential gives a symmetric matrix pencil whose
    interior rows are the standard 5-point stencil and whose Neumann
    boundary rows, the symmetry plane and the box's edge column among them,
    carry the ghost-point form automatically; Dirichlet nodes are
    eliminated.  Its lower triangle is scattered straight into band
    storage, after a ``MemoryError`` for a band larger than
    ``MAX_BAND_BYTES``.  The guide beyond ``edge`` is eliminated by the
    operator's lattice modes (see :class:`FdOperator`).
    """
    n1, n2 = g.n_long, g.n_trans
    h1, h2 = g.step_long, g.step_trans
    cs = g.cross_section

    q = g.potential_samples()
    last = g.feature_nodes
    if q is not None:
        hit = np.nonzero(np.any(q != 0, axis=1))[0]
        if hit.size:
            last = max(last, int(hit[-1]))
    edge = _box_edge(g, last)

    mask = np.ones((edge + 1, n2 + 1), dtype=bool)
    if cs.bc == BC_DIRICHLET:
        mask[:, [0, -1]] = False
    if g.half_width is not None:
        # a window opens its wall nodes, a patch closes them
        mask[: g.feature_nodes + 1, 0] = cs.bc == BC_DIRICHLET

    w1 = np.full(edge + 1, h1)
    w1[0] = w1[-1] = h1 / 2.0
    w2 = np.full(n2 + 1, h2)
    w2[0] = w2[-1] = h2 / 2.0

    n = int(mask.sum())
    index = -np.ones((edge + 1, n2 + 1), dtype=np.int64)
    index[mask] = np.arange(n)

    # lower-triangle triplets: row - col is the band row, col the band column
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add_edges(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        # the numbering runs along the edges, so b > a where both are active;
        # an edge to an eliminated node adds to the active end's diagonal only
        both = (a >= 0) & (b >= 0)
        ab, bb, cb = a[both], b[both], c[both]
        rows.extend((ab, bb, bb))
        cols.extend((ab, bb, ab))
        vals.extend((cb, cb, -cb))
        for keep, other in ((a, b), (b, a)):
            solo = (keep >= 0) & (other < 0)
            rows.append(keep[solo])
            cols.append(keep[solo])
            vals.append(c[solo])

    add_edges(
        index[:-1, :].ravel(),
        index[1:, :].ravel(),
        np.broadcast_to(w2[None, :] / h1, (edge, n2 + 1)).ravel(),
    )
    add_edges(
        index[:, :-1].ravel(),
        index[:, 1:].ravel(),
        np.broadcast_to(w1[:, None] / h2, (edge + 1, n2)).ravel(),
    )

    weight = w1[:, None] * w2[None, :]
    if q is not None:
        diag = index[mask]
        rows.append(diag)
        cols.append(diag)
        vals.append((q[: edge + 1] * weight)[mask])

    col = np.concatenate(cols)
    offset = np.concatenate(rows) - col
    # the edge column's active nodes k, which are also its lattice modes' j
    k = np.flatnonzero(mask[-1])
    width = max(int(offset.max()) + 1, k.size)
    _check_band(width, n)
    # band[offset, col] summed in input order, as np.add.at sums it
    band = np.bincount(
        offset + width * col, weights=np.concatenate(vals), minlength=width * n
    ).reshape((width, n), order="F")
    mu = _lattice_eigenvalues(g, k)
    return FdOperator(
        guide=g,
        band=band,
        mass=weight[mask],
        scale=w2[k],
        mu=mu,
        cap=_exterior_cap(h1, n1 - edge, mu),
        image=-1.0 if cs.bc == BC_DIRICHLET else 1.0,
        first=int(k[0]),
        exterior_columns=n1 - edge,
        mask=mask,
        columns=edge + 1,
    )


@dataclass(kw_only=True)
class WindowOperator(FdOperator):
    """A window guide reduced to its wall nodes: the capacitance matrix method.

    A Neumann window without a potential changes the Dirichlet guide only on
    its ``K = n_feat + 1`` wall nodes ``(i, 0)``.  Eliminating every other
    node of the finite guide, exactly, leaves the dense ``K``-square

        ``T_W(E) = A_WW - E M_WW - C G(E) C``,

    with ``w1 = h1`` (``h1/2`` at ``i = 0``), ``M_WW = diag(w1 h2 / 2)``,
    ``C = diag(w1 / h2)`` the wall nodes' edges to the first row, and
    ``A_WW = diag(w1 / h2)`` plus the wall chain (edges of weight
    ``h2 / (2 h1)`` between wall nodes, and one from node ``n_feat`` to the
    Dirichlet wall).  ``G`` is the unperturbed guide's lattice Green function
    on the first row, ``G[i, i'] = s(|i - i'|) + s(i + i')`` (the second
    term the image in the symmetry plane), with

        ``s(n) = sum_j phi_j(h2)^2 (h1/2) sinh((N - n) theta_j)
        / (sinh(theta_j) cosh(N theta_j))``,

    ``N = n_long``, ``cosh(theta_j) = 1 + h1^2 (mu_j - E) / 2``: each lattice
    mode's column recurrence, closed by the natural plane at ``i = 0`` and
    the Dirichlet end at ``N``, continued to ``theta = i phi`` where the
    mode oscillates (see :func:`_lattice_angles`).
    """

    weight: np.ndarray = field(repr=False)

    form = "window"

    def coupling(self, E: float) -> tuple[np.ndarray, np.ndarray]:
        """``-s(n)`` and ``-ds(n)/dE`` at the offsets ``n = 0 .. 2 n_feat``, for ``E`` below the cap.

        ``-C G C`` is the closure ``sigma`` assembles on the offsets.  Per
        mode, with ``a = N - n``, ``s(n)`` is summed from ``exp(-n theta)``
        and the Dirichlet end's image ``exp(-(2N - n) theta)``: ``exp(-n
        theta) 2a e1(2a theta) (theta / sinh theta) / (1 + exp(-2N
        theta))``, with ``e1(u) = (1 - exp(-u)) / u``, and ``ds/dE =
        -(h1^2/2) s (theta / sinh theta) (a^2 r(a theta) - r(theta) - N^2
        t(N theta))``; both hold through the threshold and at ``theta = i
        phi``.
        """
        N, h1 = self.guide.n_long, self.guide.step_long
        sigma, slope = self._mode_sums(*_lattice_angles(h1, self.mu, E))
        sign = np.sign(N - np.arange(2 * self.size - 1.0))
        return -0.5 * h1 * sign * sigma, 0.25 * h1**3 * sign * slope

    def _mode_sums(self, theta, ratio) -> tuple[np.ndarray, np.ndarray]:
        # s(n) and its slope's factor, each up to sign(a) and its factor in
        # h1; complex when some mode oscillates, and only their real parts
        # are kept.  s is the call's one (offset, mode) matrix; the rest
        # runs on blocks of its rows of about 2^14 entries, small enough for
        # malloc's heap, each entry by the same operations in the same
        # order, and each block but the last takes u and em again for r
        N = self.guide.n_long
        # |a|, taken as 1 on the offset n = N, whose row sign(a) = 0 clears
        A = np.maximum(np.abs(N - np.arange(2 * self.size - 1.0)), 1.0)[:, None]
        s = np.empty((A.size, theta.size), dtype=theta.dtype)
        rows = max(1, 2**14 // theta.size)
        blocks = [(A[i : i + rows], s[i : i + rows]) for i in range(0, A.size, rows)]
        for a, sb in blocks:
            u = a * theta
            em = np.expm1(-2.0 * u)
            np.exp(np.multiply(a - N, theta, out=sb), out=sb)
            sb *= em
        u0 = N * theta  # row 0 of u: A[0] = N
        s *= -ratio / (theta * (2.0 + np.expm1(-2.0 * u0)))
        w = ratio * self.weight
        sigma, ends = s @ self.weight, s @ ((_r(theta, theta / np.tanh(theta)) + N * N * _t(u0)) * w)
        for k, (a, sb) in enumerate(reversed(blocks)):
            if k:
                u = a * theta
                em = np.expm1(-2.0 * u)
            # 2|a| e1(2|a| theta) theta / sinh(theta) = -expm1(-2|a| theta) / sinh(theta)
            r = _r(u, -u * (2.0 + em) / em)
            sb *= np.multiply(r, a * a, out=r)
        return sigma.real, (s @ w - ends).real


def build_window_operator(g: TruncatedGuide) -> WindowOperator:
    """The window guide ``g`` on its ``n_feat + 1`` wall nodes (see :class:`WindowOperator`).

    Solves the same finite guide, on the same grid, as
    :func:`build_fd_operator`, and refuses the same guides: one whose window
    comes within ``BOX_PADDING`` columns of its end raises ``ValueError``,
    and so does a guide without a window or with a potential.
    """
    if g.half_width is None or g.cross_section.bc != BC_DIRICHLET or g.potential is not None:
        raise ValueError("the window form needs a window guide without a potential")
    _box_edge(g, g.feature_nodes)
    h1, h2, n2 = g.step_long, g.step_trans, g.n_trans
    w1 = np.full(g.feature_nodes + 1, h1)
    w1[0] = h1 / 2.0
    chain = h2 / (2.0 * h1)
    band = _chain_band(w1 / h2 + 2.0 * chain, chain)
    band[0, 0] -= chain
    j = np.arange(1, n2)
    wall = np.sin(np.pi * j / n2)
    mu = _lattice_eigenvalues(g, j)
    return WindowOperator(
        guide=g,
        band=band,
        mass=w1 * h2 / 2.0,
        scale=w1 / h2,
        mu=mu,
        # a natural plane N columns from a held end: half of a 2N chain
        # between two held ends
        cap=_exterior_cap(h1, 2 * g.n_long, mu),
        weight=2.0 / g.cross_section.width * wall * wall,
    )


@dataclass(kw_only=True)
class PatchOperator(FdOperator):
    """A patch guide reduced to the first column past the patch, ``c = n_feat + 1``.

    A Dirichlet patch without a potential leaves both sides of column ``c``
    uniform.  Eliminating every other node of the finite guide, exactly,
    leaves on its ``n2 + 1`` nodes ``T_P(E) = A_c - E M_c + P diag(sigma(E))
    P^T + Q diag(tau(E)) Q^T``, ``P = W2 Phi`` the box's exterior closure on
    the lattice cosines (see :class:`FdOperator`), ``Q = W2 Psi`` the patch
    side's on the mixed lattice sines ``psi_k(j) = sqrt(2/d) sin((2k + 1) pi
    j / (2 n2))``, with eigenvalues ``nu``.  By product to sum both terms
    are ``W2 Sigma W2``, ``Sigma[j, j'] = q[|j - j'|] + q[2 n2 - j - j']``,
    with ``q[m] = sum_p z_p cos(p pi m / (2 n2))``, ``z_{2j} = s_j^2
    sigma_j / 2`` (``s_j^2 = 2/d``, ``1/d`` for ``j = 0, n2``) and
    ``z_{2k + 1} = tau_k / d``.  Numbered from the far wall, ``i = n2 -
    j``, the column's nodes make ``Sigma`` the closure of :class:`FdOperator`
    with the image sign ``+1``.
    """

    nu: np.ndarray = field(repr=False)

    form = "patch"

    def coupling(self, E: float) -> tuple[np.ndarray, np.ndarray]:
        """``q[m]`` and ``dq[m]/dE`` below the cap: the exterior's modes in the even slots, the patch side's in the odd."""
        g = self.guide
        z = self._exterior(E)
        z[:, 1::2] = _patch_side_coupling(g.step_long, g.feature_nodes + 1, self.nu, E)
        return self._cosine_sums(z)


def build_patch_operator(g: TruncatedGuide) -> PatchOperator:
    """The patch guide ``g`` on the first column past the patch (see :class:`PatchOperator`).

    Solves the same finite guide, on the same grid, as
    :func:`build_fd_operator`, and refuses the same guides: one whose patch
    comes within ``BOX_PADDING`` columns of its end raises ``ValueError``,
    and so does a guide without a patch (a Dirichlet wall or no feature) or
    with a potential.  The column's stencil and weights read the same from
    either wall.
    """
    if g.half_width is None or g.cross_section.bc == BC_DIRICHLET or g.potential is not None:
        raise ValueError("the patch form needs a patch guide without a potential")
    _box_edge(g, g.feature_nodes)
    h1, h2, n2 = g.step_long, g.step_trans, g.n_trans
    w2 = np.full(n2 + 1, h2)
    w2[[0, -1]] = h2 / 2.0
    # the column's transverse edges at half weight, and its edges to column c - 1
    chain = h1 / (2.0 * h2)
    band = _chain_band(w2 / h1 + 2.0 * chain, chain)
    band[0, [0, -1]] -= chain
    mu, nu = _lattice_eigenvalues(g, np.arange(n2 + 1)), _lattice_eigenvalues(g, np.arange(n2) + 0.5)
    M = g.n_long - (g.feature_nodes + 1)
    return PatchOperator(
        guide=g,
        band=band,
        mass=0.5 * h1 * w2,
        scale=w2,
        mu=mu,
        # the patch side of c columns, closed by the natural plane, has the
        # lowest eigenvalue of 2c columns between two held ones
        cap=min(_exterior_cap(h1, M, mu), _exterior_cap(h1, 2 * (g.feature_nodes + 1), nu)),
        exterior_columns=M,
        nu=nu,
    )


@dataclass
class OracleSolution:
    """Lowest eigenpair of a truncated guide, with threshold bookkeeping.

    ``value`` is ``E_1`` and ``residual`` the relative residual of
    ``T(E_1) v`` on the operator's unknowns.  ``vector`` is ``v``,
    mass-normalized over the whole guide with a deterministic sign;
    ``operator`` is the operator solved, whose ``guide`` and ``form`` say
    what it was: ``"box"`` (``v`` on the box's columns), ``"window"``
    (``v`` on the window's wall nodes) or ``"patch"`` (``v`` on the first
    column past the patch).  On the box form the eliminated exterior is
    given in closed form by :func:`extract_tail_coefficients`.  ``binding``
    is ``mu_1^h - E_1``:
    positive exactly when a state sits below the discrete threshold.
    ``shift`` is the first shift of the plan whose factorization
    succeeded; ``factorizations`` and ``inner_solves`` count the banded Cholesky
    factorizations and back-solves of the whole solve, and
    ``closure_evaluations`` its calls of the operator's ``coupling(E)``.
    """

    value: float
    residual: float
    threshold: float
    binding: float
    shift: float
    factorizations: int
    inner_solves: int
    closure_evaluations: int
    vector: np.ndarray = field(repr=False)
    operator: FdOperator = field(repr=False)


def discrete_threshold(g: TruncatedGuide, m: int = 1) -> float:
    """Closed-form ``m``-th eigenvalue of the discrete transverse operator.

    Dirichlet: ``(4/h^2) sin^2(m pi h / (2d))``; Neumann shifts the index by
    one (the constant mode is exactly zero on the lattice).  This is the
    reference the binding is measured against.
    """
    return float(_lattice_eigenvalues(g, m if g.cross_section.bc == BC_DIRICHLET else m - 1))


def _shift_plan(threshold: float, binding_hint: float | None) -> list[float]:
    """Shifts to try, nearest the threshold first, ending at ``threshold - 1``.

    A positive hint ``b`` gives distances ``2b, 16b, 128b, ...`` below the
    threshold while they stay under one.  Without one (a missing, zero or
    negative hint) the plan is the threshold itself, then ``threshold - 1``:
    the threshold factors exactly when nothing binds, and where it does not
    it is an upper bound on ``E_1`` tighter than the exterior's cap.
    """
    if binding_hint is not None and binding_hint > 0:
        distances = []
        d = 2.0 * binding_hint
        while d < 1.0:
            distances.append(d)
            d *= 8.0
    else:
        distances = [0.0]
    distances.append(1.0)
    return [threshold - d for d in distances]


def lowest_eigenpairs(
    op: FdOperator, binding_hint: float | None = None
) -> OracleSolution:
    """Lowest eigenpair of the guide: the root ``E_1`` of ``T(E) v = 0``.

    ``T(E) = A - E M + closure(sigma(E))`` is the exact Schur complement
    of the rest of the guide onto the operator's unknowns (see
    :class:`FdOperator`): the box's columns, a window's wall nodes, or the
    first column past a patch, each factored by banded Cholesky.  The
    operator factors ``T(s)`` or reports that it is not positive definite,
    back-solves with the factor, applies ``-T'(s)``, and gives ``f(E) = v^T
    T(E) v`` as ``v^T A v - E v^T M v + sigma(E) . a2``.  ``E_1`` is kept in a bracket
    ``[s, p]``:

    - below the operator's cap, a Cholesky factorization of ``T(s)``
      succeeds exactly when ``s < E_1``, so each shift that factors is a
      lower bound;
    - ``T`` is concave in ``E``, so the smallest eigenvalue ``theta`` of the
      linearized pencil ``T(s) x = theta (-T'(s)) x``, found by inverse
      iteration, bounds ``E_1 <= s + theta``; Newton steps from there on
      ``f(E)`` with that eigenvector ``v`` fall monotonically to its root
      ``p``, the Rayleigh functional, a tighter upper bound: ``T(p)`` is not
      positive definite, so ``E_1 <= p`` by the same inertia count.  When
      ``s + theta`` is at or above the cap, where ``f`` falls to ``-inf`` if
      ``v`` has weight on the eliminated guide's lowest mode, Newton starts
      instead from the first of the midpoint of ``(s, cap)`` and the points
      halving its distance to the cap where ``f(E) <= 0``; if there is none,
      the cap stays the bound.

    The first shift comes from the plan (see :func:`_shift_plan`): with a
    positive ``binding_hint`` (an estimate of ``mu_1^h - E_1``) ``2 hint``
    below the threshold, each failed factorization moving eight times
    farther, down to ``threshold - 1``; without one, the threshold itself,
    which factors exactly when nothing binds and otherwise is the first
    upper bound, then ``threshold - 1``.  If that fails too, one last shift
    sits one below both zero and the potential's minimum, where ``T(s)`` is
    positive definite by construction.  Every shift of the plan lies at or
    below the threshold ``mu_1^h``, so below the cap.  Each next shift sits
    ``SHIFT_GAP`` of the bracket (at least half of ``BRACKET_TOL``) below
    ``p``; a shift that does not factor becomes the new upper bound, and
    the gap widens sixteenfold, up to half the bracket.  The solve stops at
    the first point where ``p - s <= BRACKET_TOL``: after a Newton bound, or
    as soon as a trial shift factors, with no inverse iteration at that
    trial.  It reports ``E_1 = p`` with the last pencil vector; more than
    ``MAX_FACTORIZATIONS`` factorizations raise :class:`SolverError`.  The
    eigenpair does not depend on the hint; only the number of
    factorizations does.  The pair is checked against the
    ``1e-8`` relative-residual contract.
    """
    start = time.perf_counter()
    g = op.guide
    threshold = discrete_threshold(g)
    cap = op.cap
    coupling = op.coupling
    factorizations = failed = inner_solves = evaluations = 0

    def factor(E: float) -> Factored | None:
        nonlocal factorizations, failed
        if factorizations >= MAX_FACTORIZATIONS:
            raise SolverError(
                f"no eigenvalue bracket within {MAX_FACTORIZATIONS} factorizations"
            )
        factorizations += 1
        got = op.factor(E)
        if got is None:
            failed += 1
        return got

    def pencil_vector(factored: Factored, v: np.ndarray) -> tuple[float, np.ndarray]:
        # inverse iteration on (T(s), B), B = -T'(s) positive definite; its
        # Rayleigh quotient falls monotonically to the smallest eigenvalue
        nonlocal inner_solves
        theta = math.inf
        for _ in range(INVERSE_ITERATIONS):
            y = factored.pencil(v)
            z = factored.solve(y)
            inner_solves += 1
            bz = factored.pencil(z)
            zbz = float(z @ bz)
            new = float(z @ y) / zbz
            v = z / math.sqrt(zbz)
            done = new <= 0.0 or theta - new <= INVERSE_TOL * new
            theta = new
            if done:
                break
        return theta, v

    def rayleigh_functional(v: np.ndarray, s: float, E: float) -> float:
        # Newton on the concave, decreasing f(E) = v^T T(E) v from a point
        # with f(E) <= 0: every step stays at or above the root.  f falls to
        # -inf at the cap when v has weight on the lowest eliminated mode,
        # so a start at the cap is searched for between s and the cap
        nonlocal evaluations
        stiff, mass, a2 = op.contract(v)
        if E >= cap:
            d = 0.5 * (cap - s)
            while True:
                E = cap - d
                if not E < cap:
                    return cap
                sigma, _ = coupling(E)
                evaluations += 1
                if stiff - E * mass + sigma @ a2 <= 0.0:
                    break
                d *= 0.5
        for _ in range(NEWTON_STEPS):
            sigma, slope = coupling(E)
            evaluations += 1
            step = (stiff - E * mass + sigma @ a2) / (mass - slope @ a2)
            if not step < 0.0:
                break
            E += step
            if -step < NEWTON_STOP * BRACKET_TOL:
                break
        return E

    upper = cap
    for s in _shift_plan(threshold, binding_hint):
        got = factor(s)
        if got is not None:
            break
        upper = min(upper, s)
    else:
        # a binding above one: below zero and the potential's minimum, T(s)
        # is the stiffness plus a positive diagonal, so it factors
        q = g.potential_samples()
        s = min(0.0, 0.0 if q is None else float(q.min())) - 1.0
        got = factor(s)
        if got is None:
            raise SolverError(
                f"factorization of T(E) failed at every shift down to {s}; "
                "operator indefinite"
            )
    first_shift = s
    v = np.ones(op.size)
    while True:
        theta, v = pencil_vector(got, v)
        upper = rayleigh_functional(v, s, min(s + theta, upper))
        if upper - s <= BRACKET_TOL:
            break
        gap = SHIFT_GAP
        while True:
            trial = upper - max(gap * (upper - s), 0.5 * BRACKET_TOL)
            got = factor(trial)
            if got is not None:
                break
            upper = trial
            gap = min(16.0 * gap, 0.5)
        s = trial
        if upper - s <= BRACKET_TOL:
            break

    value = upper
    sigma, slope = coupling(value)
    # and each factorization evaluated the closure once
    evaluations += factorizations + 1
    av, mv, cv = op.terms(v, sigma)
    residual = float(
        np.linalg.norm(av - value * mv + cv)
        / (np.linalg.norm(av) + abs(value) * np.linalg.norm(mv) + np.linalg.norm(cv))
    )
    if residual > EIGEN_RESIDUAL_TOL:
        raise SolverError(
            f"eigen-residual {residual} exceeds {EIGEN_RESIDUAL_TOL}",
            residuals=residual,
        )

    # -T'(E) is the mass of the whole guide, the eliminated nodes included
    _, mass, a2 = op.contract(v)
    v = v / math.sqrt(mass - slope @ a2)
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v

    logger.info(
        "eigensolve: %s form, %d unknowns%s, %d factorizations (%d failed), "
        "%d back-solves, %d closure evaluations, %.3f s",
        op.form,
        op.size,
        "" if op.columns is None else f" on {op.columns} box columns",
        factorizations,
        failed,
        inner_solves,
        evaluations,
        time.perf_counter() - start,
    )
    return OracleSolution(
        value=value,
        residual=residual,
        threshold=threshold,
        binding=float(threshold - value),
        shift=float(first_shift),
        factorizations=factorizations,
        inner_solves=inner_solves,
        closure_evaluations=evaluations,
        vector=v,
        operator=op,
    )


def extract_tail_coefficients(sol: OracleSolution, count: int) -> list[tuple[float, float]]:
    """Mode amplitudes and decay rates of the ground state's tail, in closed form.

    Past the box the eigenvector is, mode by mode, the exterior's exact
    solution (see :class:`FdOperator`): with ``c`` the box's edge column,
    ``p_j`` the projection of that column on lattice mode ``j`` and
    ``cosh(theta_j) = 1 + h1^2 (mu_j^h - E_1) / 2``, its column ``i`` carries
    ``A_j (exp(-theta_j i) - exp(-theta_j (2 n_long - i)))``, the decaying
    tail and its image in the Dirichlet end, where
    ``A_j = p_j exp(theta_j c) / (1 - exp(-2 M theta_j))``.  Returns one
    ``(a_j, rate_j) = (A_j, theta_j / h1)`` for each of the lowest
    ``count`` modes, amplitudes normalized so the threshold mode's is
    exactly one.  Raises ``ValueError`` for a solution of a wall form,
    which keeps no edge column, and when nothing binds: a binding puts
    ``E_1`` below every ``mu_j^h``, so every mode then decays.
    """
    op = sol.operator
    if op.form != "box":
        raise ValueError(
            "tails are read from the box form's edge column; "
            f"this solution is of the {op.form} form"
        )
    if sol.binding <= 0:
        raise ValueError(
            f"no bound state: binding {sol.binding:.3e} <= 0; tails undefined"
        )
    if count > op.mu.size:
        raise ValueError(f"{count} modes requested; the lattice has {op.mu.size}")
    g = op.guide
    h1, M, K = g.step_long, op.exterior_columns, op.scale.size
    theta = _lattice_angles(h1, op.mu, sol.value)[0][:count]
    # the edge column's active nodes k, the last unknowns since the
    # numbering runs along each column, and the lowest modes j, sines from
    # j = 1 or cosines from j = 0 like them, each unit in w2 over the strip;
    # k j is reduced modulo the period before scaling, so the phase stays exact
    k = np.arange(op.first, op.first + K)
    j = k[:count]
    wave = np.sin if g.cross_section.bc == BC_DIRICHLET else np.cos
    phi = wave(np.pi * (np.outer(k, j) % (2 * g.n_trans)) / g.n_trans)
    norm = np.sqrt(np.where((j == 0) | (j == g.n_trans), 1.0, 2.0) / g.cross_section.width)
    p = (op.scale * sol.vector[-K:]) @ phi * norm
    a = p * np.exp(theta * (op.columns - 1)) / -np.expm1(-2.0 * M * theta)
    a /= a[0]
    rate = theta / h1
    return [(float(aj), float(rj)) for aj, rj in zip(a, rate)]


def richardson(coarse: float, fine: float, ratio: float, order: int = 2) -> float:
    """Eliminate the leading ``O(h^order)`` error from two-grid values."""
    return fine + (fine - coarse) / (ratio**order - 1.0)


def aitken_limit(seq) -> float:
    """Aitken extrapolation of a geometrically converging sequence's last terms."""
    s = [float(v) for v in seq]
    if len(s) < 3:
        raise ValueError("need at least three terms")
    a, b, c = s[-3], s[-2], s[-1]
    denom = (c - b) - (b - a)
    if denom == 0:
        return c
    return c - (c - b) ** 2 / denom
