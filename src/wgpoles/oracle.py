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
discrete transparent boundary condition for the finite guide.  The
eigenvalue is then the root of a small nonlinear symmetric problem
``T(E) v = 0`` on the box, whose ``T`` is concave in ``E``.  It is
bracketed from below by banded Cholesky factorizations, which succeed
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

A Neumann window without a potential changes the guide only on its
``n_feat + 1`` wall nodes, so :class:`WindowOperator` eliminates every
other node of the same finite guide, on the same grid, in closed form (the
capacitance matrix method of Buzbee, Dorr, George and Golub, and of
Proskurowski and Widlund): a dense ``(n_feat + 1)``-square ``T_W(E)``
built from the same lattice modes, closed by the natural plane and the
Dirichlet end.  A Dirichlet patch without a potential leaves both sides of
the first column past it uniform, so :class:`PatchOperator` eliminates
everything but that column: a dense ``(n_trans + 1)``-square ``T_P(E)``,
closed on the right by the box's own exterior closure and on the left by
the patch side's mixed lattice sines and the natural plane.  Each operator
owns its closure, the ``cap`` and the ``coupling(E)`` of the guide it
eliminates, and :func:`lowest_eigenpairs` brackets any of them with one
loop, through the interface all three offer: factor or report failure,
back-solve, apply ``-T'(s)``, and ``v^T T(E) v`` with its derivative.  The
box still accepts windows and patches, as the reference the reduced forms
are tested against.

The box's stiffness matrix is assembled straight into LAPACK lower band
storage, ``band[i - j, j] = A[i, j]`` for ``i >= j``, with the unknowns
numbered along each column: the band is as wide as one column's active
nodes, and the 5-point stencil fills only a few of its diagonals, which is
all the matrix-vector product visits.  The factorizations and back-solves
are LAPACK's ``dpbtrf`` and ``dpbtrs`` from scipy's compiled LAPACK
extension, loaded on its own on the first of them: importing
``scipy.linalg`` would pull in scipy's array-API layer and with it much of
numpy's test and build tooling, which costs more CPU at start-up than a
window sweep spends solving.  The patch form's dense factorizations and
back-solves are ``dpotrf`` and ``dpotrs`` from the same extension; the
window form's use numpy alone.
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
from functools import cache, cached_property
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

# below this M * theta the exterior coupling uses its Taylor series
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


def cholesky_dense(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix, LAPACK ``dpotrf``.

    Reads the lower triangle of ``a`` only; raises ``LinAlgError`` when it
    is not positive definite.
    """
    c, info = _load_flapack().dpotrf(a, lower=1, clean=0)
    _lapack_info("potrf", info)
    return c


def cho_solve_dense(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from the factor ``c`` of :func:`cholesky_dense`, LAPACK ``dpotrs``."""
    x, info = _load_flapack().dpotrs(c, b, lower=1)
    _lapack_info("potrs", info)
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
        """Longitudinal nodes ``0 .. L``, built on first use: the window form never reads them."""
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


def _lattice_angles(h1: float, mu: np.ndarray, E: float):
    """Column recurrence ``a_{i+1} + a_{i-1} = t a_i``, ``t = 2 + h1^2 (mu - E)``, per mode.

    Returns the angle (``theta`` with ``cosh(theta) = t/2`` where the mode
    decays, ``t >= 2``; ``phi`` with ``cos(phi) = t/2`` where it
    oscillates), ``sinh(theta)`` or ``sin(phi)``, and which modes decay.
    """
    # from delta = t/2 - 1 directly, so that modes next to E keep their digits
    delta = 0.5 * h1**2 * (mu - E)
    half = np.sqrt(0.5 * np.abs(delta))
    decay = delta >= 0
    angle = 2.0 * np.where(decay, np.arcsinh(half), np.arcsin(np.minimum(half, 1.0)))
    return angle, np.sqrt(np.abs(delta * (delta + 2.0))), decay


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


def _lattice_modes(g: TruncatedGuide) -> tuple[np.ndarray, np.ndarray]:
    """``projector`` and ``mu`` of the lattice modes on a column's active nodes.

    See :class:`FdOperator`; a column past the feature is active off the
    walls of a Dirichlet strip and everywhere on a Neumann one.
    """
    n2, h2 = g.n_trans, g.step_trans
    d = g.cross_section.width
    k = np.arange(n2 + 1)
    if g.cross_section.bc == BC_DIRICHLET:
        nodes = (k > 0) & (k < n2)
        j = k[1:-1]
        scale = np.full(j.size, math.sqrt(2.0 / d))
        w2 = np.full(j.size, h2)
        wave = np.sin
    else:
        nodes = np.ones(n2 + 1, dtype=bool)
        j = k
        scale = np.full(j.size, math.sqrt(2.0 / d))
        scale[[0, -1]] = math.sqrt(1.0 / d)
        w2 = np.full(j.size, h2)
        w2[[0, -1]] = h2 / 2.0
        wave = np.cos
    # reduce k j modulo the period before scaling, so the phase stays exact;
    # phi is scaled before it is weighted, which fixes the projector's last bit
    phase = np.outer(k[nodes], j) % (2 * n2)
    phi = wave(np.pi * phase / n2) * scale
    return w2[:, None] * phi, _lattice_eigenvalues(g, j)


def _exterior_cap(h1: float, M: int, mu: np.ndarray) -> float:
    """Lowest eigenvalue of the ``M``-column exterior with its first column held at zero."""
    s = math.sin(math.pi / (2 * M))
    return float(mu.min()) + 4.0 / h1**2 * s * s


def _exterior_coupling(h1: float, M: int, mu: np.ndarray, E: float) -> tuple[np.ndarray, np.ndarray]:
    """Exterior closure ``sigma_j(E)`` and ``d sigma_j / dE`` per lattice mode, below the cap.

    Eliminating the right half of a natural column and the ``M`` columns
    from it to a Dirichlet end adds ``sigma_j a_j^2`` to the energy of mode
    ``j``'s amplitude ``a_j`` on that column, ``sigma_j = sinh(theta)
    coth(M theta) / h1`` with ``cosh(theta) = 1 + h1^2 (mu_j - E) / 2`` (the
    ``sin`` form where the mode oscillates).  ``d sigma_j / dE`` is minus the
    mass of the mode's exterior extension, so it is negative and ``sigma_j``
    concave.
    """
    angle, sh, decay = _lattice_angles(h1, mu, E)
    x = M * angle
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sigma = np.where(decay, sh / np.tanh(x), sh / np.tan(x))
        slope = np.where(
            decay,
            1.0 / (np.tanh(angle) * np.tanh(x)) - M / np.sinh(x) ** 2,
            M / np.sin(x) ** 2 - 1.0 / (np.tan(angle) * np.tan(x)),
        )
    # both forms cancel to 2M/3 + 1/(3M) as x -> 0
    small = x < SERIES_BELOW
    sq = np.where(decay, angle, -angle) * angle
    sigma = np.where(small, 1.0 / M + sq * (M / 3.0 + 1.0 / (6.0 * M)), sigma)
    slope = np.where(small, 2.0 * M / 3.0 + 1.0 / (3.0 * M), slope)
    return sigma / h1, -0.5 * h1 * slope


@dataclass
class Factored:
    """``T(s)`` factored at a shift ``s`` below ``E_1``: back-solves, and ``-T'(s)``."""

    solve: Callable[[np.ndarray], np.ndarray]
    pencil: Callable[[np.ndarray], np.ndarray]


@dataclass
class FdOperator:
    """Box part ``A u = E M u`` of the guide on its active nodes, closed by the exterior.

    ``band`` (``A`` in LAPACK lower band storage) and ``mass`` cover columns
    ``0 .. c`` of the guide, ``c = columns - 1``; column ``c`` is the box's
    natural edge column, whose active nodes are the last
    ``projector.shape[0]`` unknowns.  Past it the guide has no
    perturbation, so the lattice sines (Dirichlet walls) or cosines
    (Neumann walls) ``phi_j`` of the transverse stencil, with eigenvalues
    ``mu``, decouple it into ``M = n_long - c`` (``exterior_columns``)
    column recurrences ``a_{i+1} + a_{i-1} = t_j a_i``, ``t_j = 2 + h1^2
    (mu_j - E)``, closed by the Dirichlet end at column ``n_long``.
    Eliminating the exterior half of column ``c`` and every column beyond
    it adds ``sigma_j(E) a_j^2`` to the energy (:func:`_exterior_coupling`),
    with ``a_j`` the projection of column ``c`` on ``phi_j``.
    ``projector`` is ``W2 Phi`` on the column's active nodes, whose columns
    are w2-orthonormal, so the Schur complement is ``T(E) = A - E M +
    projector diag(sigma(E)) projector^T``.  The operator offers
    :func:`lowest_eigenpairs` the same interface as the reduced forms:
    ``cap``, ``factor``, ``coupling``, ``contract`` and ``terms``.
    """

    guide: TruncatedGuide
    band: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    columns: int
    projector: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)

    form = "box"

    @property
    def size(self) -> int:
        return int(self.band.shape[1])

    @property
    def exterior_columns(self) -> int:
        """``M``: the exterior's columns, from past the edge column to the Dirichlet end."""
        return self.guide.n_long - self.columns + 1

    @property
    def cap(self) -> float:
        """Lowest eigenvalue of the exterior with the edge column held at zero.

        Below it the exterior block is positive definite, so ``T(E)`` has as
        many negative eigenvalues as the whole guide's pencil at ``E``.
        """
        return _exterior_cap(self.guide.step_long, self.exterior_columns, self.mu)

    def coupling(self, E: float) -> tuple[np.ndarray, np.ndarray]:
        """``sigma_j(E)`` and ``d sigma_j / dE`` of every mode, for ``E`` below the cap."""
        return _exterior_coupling(self.guide.step_long, self.exterior_columns, self.mu, E)

    @cached_property
    def _work(self) -> np.ndarray:
        # one factor is live at a time, so every factorization reuses this buffer
        return np.empty_like(self.band, order="F")

    @cached_property
    def _edge_lower(self) -> tuple[np.ndarray, np.ndarray]:
        # lower triangle of the closure's block on the edge column
        return np.tril_indices(self.projector.shape[0])

    def _closure(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # projector diag(weights) projector^T on the edge column, zero elsewhere
        P = self.projector
        y = np.zeros_like(x)
        y[-P.shape[0]:] = P @ (weights * (P.T @ x[-P.shape[0]:]))
        return y

    def factor(self, E: float) -> Factored | None:
        """``T(E)`` by banded Cholesky, or ``None`` when it is not positive definite.

        The factor lives in a buffer that the next call overwrites.
        """
        sigma, slope = self.coupling(E)
        P = self.projector
        low_i, low_j = self._edge_lower
        ab = self._work
        np.copyto(ab, self.band)
        ab[0, :] -= E * self.mass
        ab[low_i - low_j, self.size - P.shape[0] + low_j] += ((P * sigma) @ P.T)[low_i, low_j]
        try:
            cb = cholesky_banded(ab)
        except LinAlgError:
            return None
        return Factored(
            solve=lambda y: cho_solve_banded(cb, y),
            pencil=lambda v: self.mass * v - self._closure(v, slope),
        )

    def contract(self, v: np.ndarray) -> tuple[float, float, np.ndarray]:
        """``v^T A v``, ``v^T M v`` and the weights ``a2`` with ``v^T T(E) v = ... + sigma(E) . a2``."""
        P = self.projector
        return (
            float(v @ self.matvec(v)),
            float(v @ (self.mass * v)),
            (P.T @ v[-P.shape[0]:]) ** 2,
        )

    def terms(self, v: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``A v``, ``M v`` and the closure's part of ``T(E) v = A v - E M v + closure``."""
        return self.matvec(v), self.mass * v, self._closure(v, sigma)

    @cached_property
    def _diagonals(self) -> list[tuple[int, np.ndarray]]:
        # the 5-point stencil fills only a few rows of the band, the diagonal
        # first; each is copied out, since a row of the Fortran-ordered band
        # is strided
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
    bw = int(offset.max())
    band_bytes = (bw + 1) * n * 8
    if band_bytes > MAX_BAND_BYTES:
        raise MemoryError(
            f"band factorization needs {band_bytes / 1e9:.1f} GB "
            f"(bandwidth {bw + 1}, {n} unknowns); coarsen the grid"
        )
    # band[offset, col] summed in input order, as np.add.at sums it
    band = np.bincount(
        offset + (bw + 1) * col, weights=np.concatenate(vals), minlength=(bw + 1) * n
    ).reshape((bw + 1, n), order="F")
    projector, mu = _lattice_modes(g)
    return FdOperator(
        guide=g,
        band=band,
        mass=weight[mask],
        mask=mask,
        columns=edge + 1,
        projector=projector,
        mu=mu,
    )


@dataclass
class WindowOperator:
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
    the Dirichlet end at ``N`` (its ``sin`` form where the mode oscillates).
    ``cap`` is the lowest eigenvalue of the guide with the window closed;
    below it the eliminated block is positive definite, so ``T_W(E)``
    factors exactly when ``E < E_1``, as the box's ``T(E)`` does.
    """

    guide: TruncatedGuide
    stiffness: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)

    form = "window"
    columns = None  # no box

    @property
    def size(self) -> int:
        return int(self.mass.size)

    @property
    def cap(self) -> float:
        g = self.guide
        s = math.sin(math.pi / (4 * g.n_long))
        return float(self.mu[0]) + 4.0 / g.step_long**2 * s * s

    @cached_property
    def _offsets(self) -> tuple[np.ndarray, np.ndarray]:
        # |i - i'| and i + i' of every pair of wall nodes
        i = np.arange(self.size)
        return np.abs(i[:, None] - i), i[:, None] + i

    def coupling(self, E: float) -> tuple[np.ndarray, np.ndarray]:
        """``-s(n)`` and ``-ds(n)/dE`` at the offsets ``n = 0 .. 2 n_feat``, for ``E`` below the cap.

        ``-C G C`` is the closure ``sigma`` assembles on the offsets, so
        ``v^T T_W(E) v = ... + sigma(E) . a2`` as on the box.  The decaying
        form is summed from ``exp(-n theta)`` and the Dirichlet end's image
        ``exp(-(2N - n) theta)`` directly, each below one; at ``theta = 0``
        (``E`` on the mode's threshold) ``s`` is its limit ``(h1/2)(N - n)``.
        ``ds/dE = -(h1^2/2) s (theta / sinh theta) (a^2 r(a theta) -
        r(theta) - N tanh(N theta) / theta)``, ``a = N - n``, with
        ``r(u) = (u coth u - 1) / u^2``, is finite there too.  A mode between
        its threshold and the cap oscillates, and takes the ``sin`` form of
        both.
        """
        g = self.guide
        N, h1 = g.n_long, g.step_long
        angle, sh, decay = _lattice_angles(h1, self.mu, E)
        wave = ~decay
        zero = angle == 0.0
        sign = np.where(decay, 1.0, -1.0)
        a = N - np.arange(2 * self.size - 1.0)[:, None]
        au = np.abs(a) * angle
        with np.errstate(divide="ignore", invalid="ignore"):
            em = np.expm1(-2.0 * au)
            s = np.sign(a) * np.exp((np.abs(a) - N) * angle) * (
                em / (-sh * (1.0 + np.exp(-2.0 * N * angle)))
            )
            q = -au * (2.0 + em) / em - 1.0
            if wave.any():
                u = a * angle[wave]
                s[:, wave] = np.sin(u) / (sh[wave] * np.cos(N * angle[wave]))
                q[:, wave] = u / np.tan(u) - 1.0
            s[:, zero] = a
            # per mode, each 1 at theta = 0: theta / sinh(theta) and
            # tanh(N theta) / (N theta); and 1 / (+-theta^2)
            x = np.where(zero, 1.0, angle)
            ratio = np.where(zero, 1.0, x / sh)
            ends = np.where(zero, 1.0, np.where(decay, np.tanh(N * x), np.tan(N * x)) / (N * x))
            inverse = 1.0 / (angle * angle * sign)
            # r(theta), and a^2 r(a theta) = q / (+-theta^2), from the series
            # 1/3 - (+-u^2)/45 where u coth u - 1 cancels
            r1 = np.where(
                angle < SERIES_BELOW,
                1.0 / 3.0 - angle * angle * sign / 45.0,
                (np.where(decay, x / np.tanh(x), x / np.tan(x)) - 1.0) * inverse,
            )
            r = q * inverse
            small = au < SERIES_BELOW
            if small.any():
                r = np.where(small, a * a * (1.0 / 3.0 - au * au * sign / 45.0), r)
        w = ratio * self.weight
        return (
            -0.5 * h1 * (s @ self.weight),
            0.25 * h1**3 * ((s * r) @ w - s @ ((r1 + N * N * ends) * w)),
        )

    def closure(self, weights: np.ndarray) -> np.ndarray:
        """``C Sigma C``, ``Sigma[i, i'] = weights[|i - i'|] + weights[i + i']``.

        With ``sigma(E)`` it is ``-C G(E) C``, with ``d sigma / dE`` its
        derivative, so ``T_W(E) = stiffness - E diag(mass) + closure(sigma)``.
        """
        diff, pair = self._offsets
        return np.outer(self.scale, self.scale) * (weights[diff] + weights[pair])

    def factor(self, E: float) -> Factored | None:
        """``T_W(E)`` by dense Cholesky, or ``None`` when it is not positive definite."""
        sigma, slope = self.coupling(E)
        mass = np.diag(self.mass)
        try:
            low = np.linalg.cholesky(self.stiffness - E * mass + self.closure(sigma))
        except LinAlgError:
            return None
        pencil = mass - self.closure(slope)
        return Factored(
            solve=lambda y: np.linalg.solve(low.T, np.linalg.solve(low, y)),
            pencil=lambda v: pencil @ v,
        )

    def contract(self, v: np.ndarray) -> tuple[float, float, np.ndarray]:
        """``v^T A v``, ``v^T M v`` and the pair sums ``a2[n]`` of ``x = C v`` at each offset."""
        diff, pair = self._offsets
        xx = np.outer(self.scale * v, self.scale * v).ravel()
        count = 2 * self.size - 1
        a2 = np.bincount(diff.ravel(), xx, count) + np.bincount(pair.ravel(), xx, count)
        return float(v @ (self.stiffness @ v)), float(v @ (self.mass * v)), a2

    def terms(self, v: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``A v``, ``M v`` and the closure's part of ``T_W(E) v``, ``sigma`` at ``E``."""
        return self.stiffness @ v, self.mass * v, self.closure(sigma) @ v


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
    stiffness = np.diag(w1 / h2 + 2.0 * chain)
    stiffness[0, 0] -= chain
    i = np.arange(w1.size - 1)
    stiffness[i, i + 1] = stiffness[i + 1, i] = -chain
    j = np.arange(1, n2)
    wall = np.sin(np.pi * j / n2)
    return WindowOperator(
        guide=g,
        stiffness=stiffness,
        mass=w1 * h2 / 2.0,
        scale=w1 / h2,
        weight=2.0 / g.cross_section.width * wall * wall,
        mu=_lattice_eigenvalues(g, j),
    )


@dataclass
class PatchOperator:
    """A patch guide reduced to one interface column.

    A Dirichlet patch without a potential changes the Neumann guide only on
    its wall nodes ``(i, 0)``, ``i <= n_feat``, so both sides of column
    ``c = n_feat + 1``, the first past the patch, are uniform lattices, and
    eliminating each exactly leaves the dense ``(n_trans + 1)``-square

        ``T_P(E) = A_c - E M_c + P diag(sigma(E)) P^T + Q diag(tau(E)) Q^T``

    on that column's nodes.  ``A_c`` and ``M_c = (h1/2) w2`` are the left
    half of the column (its transverse stencil at weight ``h1/2``) plus its
    edges to column ``c - 1`` (``w2 / h1`` on the diagonal).  ``P`` and
    ``sigma`` are the box's exterior closure (:func:`_exterior_coupling`)
    on ``M = n_long - c`` columns, over the lattice cosines ``mu``.  Left
    of ``c`` the patch makes the wall Dirichlet, so columns ``0 .. c - 1``
    decouple in the mixed lattice sines ``psi_k(j) = sqrt(2/d) sin((2k - 1)
    pi j / (2 n2))`` on nodes ``1 .. n2``, with eigenvalues ``nu``;
    ``Q = W2 Psi`` (zero on the wall node), and closing each mode's column
    recurrence by the natural plane gives ``tau_k = -(1/h1) cosh((c - 1)
    theta_k) / cosh(c theta_k)``.  ``projector`` is ``[P, Q]`` and
    ``coupling`` returns ``(sigma, tau)`` together.  ``cap`` is the lower
    of the two sides' lowest eigenvalues with column ``c`` held at zero;
    below it the eliminated blocks are positive definite, so ``T_P(E)``
    factors exactly when ``E < E_1``.
    """

    guide: TruncatedGuide
    stiffness: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    projector: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)

    form = "patch"
    columns = None  # no box

    @property
    def size(self) -> int:
        return int(self.mass.size)

    @property
    def exterior_columns(self) -> int:
        """``M``: the columns from past column ``c`` to the Dirichlet end."""
        return self.guide.n_long - self.guide.feature_nodes - 1

    @property
    def cap(self) -> float:
        g = self.guide
        s = math.sin(math.pi / (4 * (g.feature_nodes + 1)))
        patch_side = float(self.nu[0]) + 4.0 / g.step_long**2 * s * s
        return min(_exterior_cap(g.step_long, self.exterior_columns, self.mu), patch_side)

    def coupling(self, E: float) -> tuple[np.ndarray, np.ndarray]:
        """``(sigma, tau)`` and their derivatives in ``E``, for ``E`` below the cap.

        ``tau`` is summed from ``exp(-theta)`` where the mode decays,
        ``exp(-theta) (1 + exp(-2 (c - 1) theta)) / (1 + exp(-2 c theta))``,
        and takes the ``cos`` form where it oscillates; ``d tau / dE =
        -(h1/2) (c / cosh^2(c theta) + sinh((c - 1) theta) / (sinh(theta)
        cosh(c theta)))``, minus the mass of the mode's extension to the
        left, is ``-(h1/2)(2c - 1)`` at ``theta = 0``.
        """
        g = self.guide
        h1, c = g.step_long, g.feature_nodes + 1
        sigma, dsigma = _exterior_coupling(h1, self.exterior_columns, self.mu, E)
        angle, sh, decay = _lattice_angles(h1, self.nu, E)
        wave = ~decay
        e1 = np.exp(-angle)
        ec = np.exp(-2.0 * c * angle)
        em = np.expm1(-2.0 * (c - 1) * angle)
        ratio = e1 * (2.0 + em) / (1.0 + ec)
        with np.errstate(divide="ignore", invalid="ignore"):
            mass = 4.0 * c * ec / (1.0 + ec) ** 2 - e1 * em / ((1.0 + ec) * sh)
        if wave.any():
            u = angle[wave]
            cu = np.cos(c * u)
            ratio[wave] = np.cos((c - 1) * u) / cu
            mass[wave] = c / cu**2 + np.sin((c - 1) * u) / (sh[wave] * cu)
        mass[sh == 0.0] = 2.0 * c - 1.0
        return (
            np.concatenate((sigma, -ratio / h1)),
            np.concatenate((dsigma, -0.5 * h1 * mass)),
        )

    def closure(self, weights: np.ndarray) -> np.ndarray:
        """``[P, Q] diag(weights) [P, Q]^T``: ``T_P(E) = stiffness - E diag(mass) + closure(sigma)``."""
        R = self.projector
        return (R * weights) @ R.T

    def _apply(self, v: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # closure(weights) @ v, without forming the matrix
        R = self.projector
        return R @ (weights * (R.T @ v))

    def factor(self, E: float) -> Factored | None:
        """``T_P(E)`` by dense Cholesky, or ``None`` when it is not positive definite."""
        sigma, slope = self.coupling(E)
        try:
            low = cholesky_dense(self.stiffness - E * np.diag(self.mass) + self.closure(sigma))
        except LinAlgError:
            return None
        return Factored(
            solve=lambda y: cho_solve_dense(low, y),
            pencil=lambda v: self.mass * v - self._apply(v, slope),
        )

    def contract(self, v: np.ndarray) -> tuple[float, float, np.ndarray]:
        """``v^T A v``, ``v^T M v`` and the weights ``a2 = ([P, Q]^T v)^2``."""
        return (
            float(v @ (self.stiffness @ v)),
            float(v @ (self.mass * v)),
            (self.projector.T @ v) ** 2,
        )

    def terms(self, v: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``A v``, ``M v`` and the closure's part of ``T_P(E) v``, ``sigma`` at ``E``."""
        return self.stiffness @ v, self.mass * v, self._apply(v, sigma)


def build_patch_operator(g: TruncatedGuide) -> PatchOperator:
    """The patch guide ``g`` on column ``n_feat + 1`` (see :class:`PatchOperator`).

    Solves the same finite guide, on the same grid, as
    :func:`build_fd_operator`, and refuses the same guides: one whose patch
    comes within ``BOX_PADDING`` columns of its end raises ``ValueError``,
    and so does a guide without a patch (a Dirichlet wall or no feature) or
    with a potential.
    """
    if g.half_width is None or g.cross_section.bc == BC_DIRICHLET or g.potential is not None:
        raise ValueError("the patch form needs a patch guide without a potential")
    _box_edge(g, g.feature_nodes)
    h1, h2, n2 = g.step_long, g.step_trans, g.n_trans
    w2 = np.full(n2 + 1, h2)
    w2[[0, -1]] = h2 / 2.0
    # the column's transverse edges at half weight, and its edges to column c - 1
    chain = h1 / (2.0 * h2)
    stiffness = np.diag(w2 / h1 + 2.0 * chain)
    stiffness[[0, -1], [0, -1]] -= chain
    j = np.arange(n2)
    stiffness[j, j + 1] = stiffness[j + 1, j] = -chain
    P, mu = _lattice_modes(g)
    # mixed sines, phase reduced modulo their period 4 n2 before scaling
    k = np.arange(n2)
    phase = np.outer(np.arange(1, n2 + 1), 2 * k + 1) % (4 * n2)
    psi = np.sin(np.pi * phase / (2 * n2)) * math.sqrt(2.0 / g.cross_section.width)
    Q = np.zeros((n2 + 1, n2))
    Q[1:] = w2[1:, None] * psi
    return PatchOperator(
        guide=g,
        stiffness=stiffness,
        mass=0.5 * h1 * w2,
        projector=np.hstack((P, Q)),
        mu=mu,
        nu=_lattice_eigenvalues(g, k + 0.5),
    )


@dataclass
class OracleSolution:
    """Lowest eigenpair of a truncated guide, with threshold bookkeeping.

    ``value`` is ``E_1`` and ``residual`` the relative residual of
    ``T(E_1) v`` on the operator's unknowns.  ``vector`` is ``v``,
    mass-normalized over the whole guide with a deterministic sign;
    ``operator`` is the operator solved, whose ``guide`` and ``form`` say
    what it was: ``"box"``, ``"window"`` (``v`` on the window's wall nodes)
    or ``"patch"`` (``v`` on the first column past the patch).  On the box
    form the eliminated exterior is given in closed form by
    :func:`extract_tail_coefficients`.  ``binding`` is ``mu_1^h - E_1``:
    positive exactly when a state sits below the discrete threshold.
    ``shift`` is the first shift of the plan whose factorization
    succeeded; ``factorizations`` and ``inner_solves`` count the Cholesky
    factorizations and back-solves of the whole solve.
    """

    value: float
    residual: float
    threshold: float
    binding: float
    shift: float
    factorizations: int
    inner_solves: int
    vector: np.ndarray = field(repr=False)
    operator: FdOperator | WindowOperator | PatchOperator = field(repr=False)


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
    op: FdOperator | WindowOperator | PatchOperator, binding_hint: float | None = None
) -> OracleSolution:
    """Lowest eigenpair of the guide: the root ``E_1`` of ``T(E) v = 0``.

    ``T(E)`` is the exact Schur complement of the rest of the guide onto the
    operator's unknowns: the exterior beyond the box of an
    :class:`FdOperator` (``T(E) = A - E M + projector diag(sigma(E))
    projector^T``), everything but the wall nodes of a
    :class:`WindowOperator`, or everything but the interface column of a
    :class:`PatchOperator`.  Each operator factors
    ``T(s)`` or reports that it is not positive definite, back-solves with
    the factor, applies ``-T'(s)``, and gives ``f(E) = v^T T(E) v`` as
    ``v^T A v - E v^T M v + sigma(E) . a2``.  ``E_1`` is kept in a bracket
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
    factorizations = failed = inner_solves = 0

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
        stiff, mass, a2 = op.contract(v)
        if E >= cap:
            d = 0.5 * (cap - s)
            while True:
                E = cap - d
                if not E < cap:
                    return cap
                sigma, _ = coupling(E)
                if stiff - E * mass + sigma @ a2 <= 0.0:
                    break
                d *= 0.5
        for _ in range(NEWTON_STEPS):
            sigma, slope = coupling(E)
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
        "%d back-solves, %.3f s",
        op.form,
        op.size,
        "" if op.columns is None else f" on {op.columns} box columns",
        factorizations,
        failed,
        inner_solves,
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
    exactly one.  Raises ``ValueError`` for a solution of the window or
    patch form, which keeps no edge column, and when nothing binds: a binding puts
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
    h1, M, P = op.guide.step_long, op.exterior_columns, op.projector
    theta = _lattice_angles(h1, op.mu, sol.value)[0][:count]
    # the numbering runs along each column, so the edge column's active
    # nodes are the last unknowns
    p = P.T[:count] @ sol.vector[-P.shape[0]:]
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
