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

A well is solved on a box of columns around it, the only part assembled.
The transverse sines (or cosines) of the lattice are exact eigenvectors
of the stencil, so the box is assembled in them, column by column, and
past it, where the guide is uniform, they decouple the rest of the
guide, out to its end at ``L``, which is eliminated exactly, one mode at
a time, in closed form: a discrete transparent boundary condition for
the finite guide (Ehrhardt and Arnold), a diagonal on the box's edge
column.  Each closure is one formula in each mode's angle ``theta_j``
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
that is the mode's coefficient in the box's edge column, one of the last
unknowns of the eigenvector.  The solution keeps the operator's unknowns
only; the tails are the one closed form of the rest.  Everything is
deterministic: a fixed start vector, the threshold mode in every column,
and direct factorizations.

A window or a patch without a potential has no box: every node of the
finite guide but its ``n_feat + 1`` wall nodes is eliminated in closed
form (the capacitance matrix method of Buzbee, Dorr, George and Golub,
and of Proskurowski and Widlund), through one sum, the unperturbed
guide's Green function on the wall row (:func:`_wall_row`): a window is
its Schur complement, a patch its constraint, both one dense
matrix ``H(E)`` of :class:`WallOperator`.  Its root loop
(:func:`_wall_root`) eigendecomposes ``H(E)``, whose inertia makes each
point a bound on ``E_1``, and takes Newton steps on its crossing
eigenvalue.  The box, :class:`FdOperator`, keeps the banded Cholesky
bracket above and solves wells alone: it refuses a guide with a wall
feature.

The box's stiffness is assembled straight into LAPACK lower band storage,
``band[i - j, j] = A[i, j]`` for ``i >= j``; the box numbers its unknowns
by mode within each column, so its band is as wide as one column's
modes.  Only the potential couples modes, inside a column; a well
uniform across the strip couples none, and its band fills only the
diagonal and the row that joins neighbouring columns, which is all the
matrix-vector product visits.  The closure is added to the band's
diagonal.  Every factorization and back-solve is LAPACK's ``dpbtrf`` and
``dpbtrs`` from scipy's compiled LAPACK extension, loaded on its own on
the first of them:
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
import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from .transverse import BC_DIRICHLET, CrossSection

logger = logging.getLogger(__name__)

EIGEN_RESIDUAL_TOL = 1e-8

# box columns kept past the last column a well touches; a wall feature must
# end as far before the guide's end
BOX_PADDING = 4

# the solve stops once the bracket around E_1 is this narrow
BRACKET_TOL = 1e-10

# cap on the factorizations (a wall form's evaluations) of one solve
MAX_FACTORIZATIONS = 60

# each shift after the first sits this share of the bracket below its upper bound
SHIFT_GAP = 1e-4

# a wall form's Newton iterate is its root once its step is below this share of it
ROOT_STEP = 1e-13

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

# the wall-row sum forms its (offset, mode) terms on blocks of rows of
# about this many entries, small enough for malloc's heap
WINDOW_BLOCK = 2**14


@cache
def _load_flapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, without ``scipy.linalg``.

    The extension needs only numpy, so it is loaded from its file in the
    installed scipy, once, on the process's first factorization; the module
    already imported is reused, and the one loaded here is registered under
    its own name, so a later ``import scipy.linalg`` shares it.
    """
    name = "scipy.linalg._flapack"
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


def _lattice_eigenvalues(g: TruncatedGuide, j):
    """``(4/h^2) sin^2(j pi h / (2d))``: eigenvalues of the transverse stencil.

    ``j`` counts the lattice sines of a Dirichlet strip from one and the
    cosines of a Neumann strip from zero, so index ``j`` is the eigenvalue of
    mode ``j`` or ``j + 1``.
    """
    h = g.step_trans
    s = np.sin(j * math.pi * h / (2.0 * g.cross_section.width))
    return 4.0 / (h * h) * s * s


def _exterior_cap(h1: float, M: int, mu: np.ndarray) -> float:
    """Lowest eigenvalue of the ``M``-column exterior with its first column held at zero."""
    s = math.sin(math.pi / (2 * M))
    return float(mu.min()) + 4.0 / h1**2 * s * s


@dataclass
class Factored:
    """``T(s)`` factored at a shift ``s`` below ``E_1``: back-solves, and ``-T'(s)``."""

    solve: Callable[[np.ndarray], np.ndarray]
    pencil: Callable[[np.ndarray], np.ndarray]


@dataclass(kw_only=True)
class FdOperator:
    """A well's box in its columns' lattice modes, the guide past it eliminated: ``T(E) = A - E M + closure``.

    The box has ``columns`` columns, from the symmetry plane to the natural
    edge column ``c = columns - 1``.  Each column's active nodes carry the
    lattice sines (Dirichlet walls, ``j = 1 .. n2 - 1``) or cosines (Neumann
    walls, ``j = 0 .. n2``) ``phi_j`` of the transverse stencil, unit in the
    trapezoid weight ``w2`` and with eigenvalues ``mu``; unknown ``i K +
    j``, ``K = mu.size``, is the coefficient of mode ``j`` in column ``i``.
    These are exact eigenvectors of the stencil, so the energy form keeps
    its longitudinal and transverse parts diagonal: ``A`` is ``w1_i mu_j +
    edges_i / h1`` on the diagonal, ``-1/h1`` between the same mode of
    neighbouring columns, plus the potential's ``K``-square block ``w1_i
    Phi^T W2 diag(q_i) Phi`` in each column, and ``M = diag(mass)`` is
    ``w1_i``.  ``band`` holds ``A`` in LAPACK lower band storage,
    ``band[i - j, j] = A[i, j]`` for ``i >= j``.

    Past column ``c`` the guide has no perturbation, so each mode's
    coefficient follows the recurrence ``a_{i+1} + a_{i-1} = t_j a_i``,
    ``t_j = 2 + h1^2 (mu_j - E)``, over ``M = exterior_columns`` columns to
    the Dirichlet end at ``n_long``.  Eliminating them adds ``sigma_j(E)
    a_j^2`` to the energy (:func:`_exterior_coupling`): the closure is
    ``sigma(E)`` on the last ``K`` diagonal entries, and ``coupling(E)``
    gives it with its slope, for ``T'(E)``.  ``cap`` is the lowest
    eigenvalue of the guide with the box's nodes held at zero; below it
    ``T(E)`` factors exactly when ``E < E_1``.
    """

    guide: TruncatedGuide
    band: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    cap: float
    exterior_columns: int
    columns: int

    form = "box"

    @property
    def size(self) -> int:
        return int(self.band.shape[1])

    def coupling(self, E: float) -> tuple[np.ndarray, np.ndarray]:
        """``sigma_j(E)`` and ``d sigma_j / dE`` of the box's exterior below the cap."""
        g = self.guide
        return _exterior_coupling(g.step_long, self.exterior_columns, self.mu, E)

    @staticmethod
    def _apply(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        # the closure's diagonal on the edge column's modes, zero elsewhere
        y = np.zeros_like(x)
        y[-weights.size:] = weights * x[-weights.size:]
        return y

    @cached_property
    def _work(self) -> np.ndarray:
        # one factor is live at a time, so every factorization reuses this buffer
        return np.empty_like(self.band, order="F")

    def factor(self, E: float) -> Factored | None:
        """``T(E)`` by banded Cholesky, or ``None`` when it is not positive definite.

        The factor lives in a buffer that the next call overwrites.
        """
        sigma, slope = self.coupling(E)
        ab = self._work
        np.copyto(ab, self.band)
        ab[0, :] -= E * self.mass
        ab[0, -sigma.size:] += sigma
        try:
            cb = cholesky_banded(ab)
        except LinAlgError:
            return None
        return Factored(
            solve=lambda y: cho_solve_banded(cb, y),
            pencil=lambda v: self.mass * v - self._apply(slope, v),
        )

    def contract(self, v: np.ndarray) -> tuple[float, float, np.ndarray]:
        """``v^T A v``, ``v^T M v`` and ``a2``, the edge column's squared coefficients in ``v^T T(E) v``."""
        return float(v @ self.matvec(v)), float(v @ (self.mass * v)), v[-self.mu.size:] ** 2

    def terms(self, v: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``A v``, ``M v`` and the closure's part of ``T(E) v = A v - E M v + closure``, ``sigma`` at ``E``."""
        return self.matvec(v), self.mass * v, self._apply(sigma, v)

    @cached_property
    def _diagonals(self) -> list[tuple[int, np.ndarray]]:
        # only the nonzero rows of the band, the diagonal first: a well
        # uniform across the strip fills only the diagonal and row K; each
        # is copied out, since a row of the Fortran-ordered band is strided
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
    """Assemble the energy-form discretization of ``-Delta + q`` on the well's box.

    The box runs from the symmetry plane to column ``edge``, ``BOX_PADDING``
    columns past the last column the potential touches; a guide too short
    to leave a column past ``edge`` raises ``ValueError``, and so does a
    guide with a window or a patch, which is solved on its wall nodes
    (:func:`build_window_operator`, :func:`build_patch_operator`).
    The quadratic form ``sum (du)^2 * w / h`` over grid edges plus the
    trapezoid-weighted potential, whose node rows are the 5-point stencil
    with the ghost-point form on the Neumann boundaries (the symmetry plane
    and the box's edge column among them), is written in each column's
    lattice modes (see :class:`FdOperator`) straight into band storage,
    after a ``MemoryError`` for a band larger than ``MAX_BAND_BYTES``.  A
    column's potential block is one batched matrix product; a column
    uniform across the strip keeps it diagonal, so a strip-uniform well's
    band fills only its diagonal and row ``K``.  The guide beyond ``edge``
    is eliminated mode by mode.
    """
    if g.half_width is not None:
        raise ValueError(
            "the box solves wells only; a window or a patch is solved on its "
            "wall nodes (build_window_operator, build_patch_operator)"
        )
    n2, h1 = g.n_trans, g.step_long
    q = g.potential_samples()
    touched = [] if q is None else np.flatnonzero(np.any(q != 0, axis=1))
    edge = _box_edge(g, int(max(touched, default=0)))
    C = edge + 1

    # the active nodes k of a column, which are also its lattice modes' j
    k = np.arange(n2 + 1)
    if g.cross_section.bc == BC_DIRICHLET:
        k = k[1:-1]
    K = k.size
    mu = _lattice_eigenvalues(g, k)
    w1 = np.full(C, h1)
    w1[0] = w1[-1] = h1 / 2.0
    edges = np.full(C, 2.0)
    edges[0] = edges[-1] = 1.0

    if (K + 1) * C * K * 8 > MAX_BAND_BYTES:
        raise MemoryError(
            f"band factorization needs {(K + 1) * C * K * 8 / 1e9:.1f} GB "
            f"(bandwidth {K + 1}, {C * K} unknowns); coarsen the grid"
        )
    # band[r, i, j]: row r of the band at unknown i K + j
    band = np.zeros((K + 1, C, K))
    band[0] = w1[:, None] * mu + edges[:, None] / h1
    band[K, :-1] = -1.0 / h1
    if q is not None:
        # w1 (c I + Phi^T W2 diag(q - c) Phi) in each column, c the potential
        # at its first active node: a column uniform across the strip gives
        # c I exactly.  Phi is unit in w2 = h2 (h2/2 at a Neumann wall); k j
        # is reduced modulo the period before scaling, so each phase is exact
        wall = (k == 0) | (k == n2)
        wave = np.sin if g.cross_section.bc == BC_DIRICHLET else np.cos
        phi = wave(np.pi * (np.outer(k, k) % (2 * n2)) / n2)
        phi *= np.sqrt(np.where(wall, 1.0, 2.0) / g.cross_section.width)
        w2 = np.where(wall, 0.5, 1.0) * g.step_trans
        c = q[:C, k[0]]
        block = (phi.T * w2 * (q[:C, k] - c[:, None])[:, None, :]) @ phi
        block *= w1[:, None, None]
        band[0] += w1[:, None] * c[:, None]
        for r in range(K):
            band[r, :, : K - r] += block.diagonal(-r, 1, 2)
    return FdOperator(
        guide=g,
        band=band.reshape(K + 1, C * K),
        mass=np.repeat(w1, K),
        mu=mu,
        cap=_exterior_cap(h1, g.n_long - edge, mu),
        exterior_columns=g.n_long - edge,
        columns=C,
    )


def _mode_sums(N: int, count: int, theta, ratio, weight) -> tuple[np.ndarray, np.ndarray]:
    """``s(n)`` and its slope's factor, up to ``sign(N - n)`` and a power of ``h1`` (see :func:`_wall_row`).

    The (offset, mode) terms are formed a block of ``WINDOW_BLOCK`` at a
    time, which moves the sums by roundoff only; the real parts are kept.
    """
    # |a| = |N - n|, taken as 1 on the offset n = N, whose row sign(a) = 0 clears
    A = np.maximum(np.abs(N - np.arange(count, dtype=float)), 1.0)[:, None]
    u0 = N * theta  # u on the offset n = 0, where |a| = N
    factor = -ratio / (theta * (2.0 + np.expm1(-2.0 * u0)))
    w = ratio * weight
    ends = (_r(theta, theta / np.tanh(theta)) + N * N * _t(u0)) * w
    sigma = np.empty(A.size, dtype=theta.dtype)
    slope = np.empty_like(sigma)
    rows = max(1, WINDOW_BLOCK // theta.size)
    for i in range(0, A.size, rows):
        a = A[i : i + rows]
        u = a * theta
        em = np.expm1(-2.0 * u)
        s = np.exp((a - N) * theta)
        s *= em
        s *= factor
        sigma[i : i + rows] = s @ weight
        end = s @ ends
        # 2|a| e1(2|a| theta) theta / sinh(theta) = -expm1(-2|a| theta) / sinh(theta)
        r = _r(u, -u * (2.0 + em) / em)
        s *= np.multiply(r, a * a, out=r)
        slope[i : i + rows] = s @ w - end
    return sigma.real, slope.real


def _wall_row(g: TruncatedGuide, mu: np.ndarray, weight: np.ndarray, count: int, E: float):
    """``s(n)`` and ``ds(n)/dE`` at the offsets ``n = 0 .. count - 1``: the unperturbed guide's wall-row sum.

    The unperturbed guide's lattice Green function on one row is ``G[i, i']
    = s(|i - i'|) + s(i + i')`` (the second term the image in the symmetry
    plane), with

        ``s(n) = sum_j weight_j (h1/2) sinh((N - n) theta_j)
        / (sinh(theta_j) cosh(N theta_j))``,

    ``N = n_long``, ``weight_j`` the square of lattice mode ``j``'s value on
    the row and ``cosh(theta_j) = 1 + h1^2 (mu_j - E) / 2``: each mode's
    column recurrence, closed by the natural plane at ``i = 0`` and the
    Dirichlet end at ``N``, continued to ``theta = i phi`` where the mode
    oscillates (see :func:`_lattice_angles`).  Per mode, with ``a = N - n``,
    ``s(n)`` is summed from ``exp(-n theta)`` and the Dirichlet end's image
    ``exp(-(2N - n) theta)``: ``exp(-n theta) 2a e1(2a theta) (theta / sinh
    theta) / (1 + exp(-2N theta))``, with ``e1(u) = (1 - exp(-u)) / u``,
    and ``ds/dE = -(h1^2/2) s (theta / sinh theta) (a^2 r(a theta) -
    r(theta) - N^2 t(N theta))``; both hold through the threshold and at
    ``theta = i phi``.  The decaying modes are summed in real arithmetic,
    the oscillating prefix ``mu_j < E`` apart: only its terms are complex.
    """
    N, h1 = g.n_long, g.step_long
    theta, ratio = _lattice_angles(h1, mu, E)
    k = int(np.searchsorted(mu, E)) if E > mu[0] else 0
    s, slope = _mode_sums(N, count, theta[k:].real, ratio[k:], weight[k:])
    if k:
        s, slope = np.add((s, slope), _mode_sums(N, count, theta[:k], ratio[:k], weight[:k]))
    sign = np.sign(N - np.arange(count, dtype=float))
    return 0.5 * h1 * sign * s, -0.25 * h1**3 * sign * slope


@dataclass(kw_only=True)
class WallOperator:
    """A wall feature's guide on its ``K = n_feat + 1`` wall nodes: the capacitance matrix method.

    A window or a patch without a potential changes the unperturbed guide
    only on its wall nodes ``(i, 0)``.  Eliminating every other node,
    exactly, through the unperturbed guide's Green function ``G`` on one
    row (:func:`_wall_row`, ``weight`` the lattice modes' squares on it)
    leaves the dense ``K``-square ``H(E) = A - E diag(M) - sign C G(E) C``:

    - a Neumann window in a Dirichlet guide (``sign = +1``) is the Schur
      complement of the rest of the guide, ``G`` on the first row: with
      ``w1 = h1`` (``h1/2`` at ``i = 0``), ``M = w1 h2 / 2``, ``C = diag(w1
      / h2)`` the wall nodes' edges to the first row, and ``A = diag(w1 /
      h2)`` plus the wall chain (edges of weight ``h2 / (2 h1)`` between
      wall nodes, and one from node ``n_feat`` to the Dirichlet wall);
    - a Dirichlet patch in a Neumann guide (``sign = -1``, ``A = M = 0``,
      ``C = I``) is a constraint, ``G`` on the wall: ``E`` is an eigenvalue
      exactly when some force ``q`` on the wall nodes gives ``G(E) q = 0``.

    By the inertia of the Schur complement or of the constraint, the guide
    has ``N0(E) + sign neg(H(E))`` eigenvalues below ``E``, ``neg``
    counting negative eigenvalues and ``N0`` the unperturbed ``mu_j +
    lam_k``, ``lam_k = (4/h1^2) sin^2((2k - 1) pi / (4N))``, which are
    ``H``'s poles.  ``E_1`` lies below the first of them, ``first``, under
    a window and above it under a patch; ``bracket``, ``start`` and
    ``top`` are the root loop's data (see :func:`_wall_root`).
    """

    guide: TruncatedGuide
    form: str
    sign: float
    stiffness: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    first: float
    bracket: tuple[float, float]
    start: float
    top: float

    columns = None  # no box

    @property
    def size(self) -> int:
        return self.scale.size

    def evaluate(self, E: float) -> tuple[np.ndarray, np.ndarray]:
        """``H(E)`` and ``H'(E)``, each ``K``-square."""
        i = np.arange(self.size)[:, None]
        sums = _wall_row(self.guide, self.mu, self.weight, 2 * i.size - 1, E)
        G, slope = (s[abs(i - i.T)] + s[i + i.T] for s in sums)
        cc = -self.sign * np.outer(self.scale, self.scale)
        return self.stiffness - E * np.diag(self.mass) + cc * G, cc * slope - np.diag(self.mass)

    def unperturbed_below(self, E: float) -> tuple[int, float]:
        """``N0(E)``, and the highest ``mu_1 + lam_k`` below ``E`` (``-inf`` if none), in closed form.

        ``lam_k < E - mu_j`` exactly when ``k < 2N asin(h1 sqrt(E - mu_j) /
        2) / pi + 1/2``, so no list of the ``N = n_long`` poles is formed.
        """
        g = self.guide
        N, h1 = g.n_long, g.step_long
        half = np.minimum(1.0, 0.5 * h1 * np.sqrt(np.maximum(E - self.mu, 0.0)))
        counts = np.ceil(2.0 * N / math.pi * np.arcsin(half) + 0.5) - 1.0
        k = counts[0]
        pole = self.mu[0] + 4.0 / h1**2 * math.sin((2 * k - 1) * math.pi / (4 * N)) ** 2
        return int(counts.sum()), pole if k else -math.inf


def build_window_operator(g: TruncatedGuide) -> WallOperator:
    """The window guide ``g`` on its ``n_feat + 1`` wall nodes (see :class:`WallOperator`).

    A guide whose window comes within ``BOX_PADDING`` columns of its end
    raises ``ValueError``, and so does a guide without a window or with a
    potential.  The root loop starts at the threshold, or at a hint
    anywhere below the first pole.
    """
    if g.half_width is None or g.cross_section.bc != BC_DIRICHLET or g.potential is not None:
        raise ValueError("the window form needs a window guide without a potential")
    _box_edge(g, g.feature_nodes)
    h1, h2, n2 = g.step_long, g.step_trans, g.n_trans
    w1 = np.full(g.feature_nodes + 1, h1)
    w1[0] = h1 / 2.0
    # the wall chain's K-square stiffness
    chain = h2 / (2.0 * h1)
    stiffness = np.diag(w1 / h2 + 2.0 * chain) - chain * (np.eye(w1.size, k=1) + np.eye(w1.size, k=-1))
    stiffness[0, 0] -= chain
    j = np.arange(1, n2)
    wall = np.sin(np.pi * j / n2)
    mu = _lattice_eigenvalues(g, j)
    # mu_1 + lam_1: a natural plane N columns from a held end is half of a
    # 2N chain between two held ends
    first = _exterior_cap(h1, 2 * g.n_long, mu)
    return WallOperator(
        guide=g, form="window", sign=1.0, stiffness=stiffness, mass=w1 * h2 / 2.0, scale=w1 / h2,
        mu=mu, weight=2.0 / g.cross_section.width * wall * wall,
        first=first, bracket=(-math.inf, first), start=float(mu[0]), top=first,
    )


def build_patch_operator(g: TruncatedGuide) -> WallOperator:
    """The patch guide ``g`` on its ``n_feat + 1`` wall nodes (see :class:`WallOperator`).

    A guide whose patch comes within ``BOX_PADDING`` columns of its end
    raises ``ValueError``, and so does a guide without a patch (a Dirichlet
    wall or no feature) or with a potential.  The root loop starts where
    ``N phi_0 = 3 pi / 4``, ``phi_0`` the threshold mode's angle, or at a
    hint between the first pole and ``(4/h1^2) sin^2(pi / (2N))``.
    """
    if g.half_width is None or g.cross_section.bc == BC_DIRICHLET or g.potential is not None:
        raise ValueError("the patch form needs a patch guide without a potential")
    _box_edge(g, g.feature_nodes)
    K, h1, N = g.feature_nodes + 1, g.step_long, g.n_long
    j = np.arange(g.n_trans + 1)
    weight = np.where((j == 0) | (j == g.n_trans), 1.0, 2.0) / g.cross_section.width
    top, start = (4.0 / h1**2 * math.sin(a * math.pi / N) ** 2 for a in (0.5, 0.375))
    mu = _lattice_eigenvalues(g, j)
    first = _exterior_cap(h1, 2 * N, mu)
    return WallOperator(
        guide=g, form="patch", sign=-1.0, stiffness=np.zeros((K, K)), mass=np.zeros(K),
        scale=np.ones(K), mu=mu, weight=weight,
        first=first, bracket=(first, math.inf), start=start, top=top,
    )


@dataclass
class OracleSolution:
    """Lowest eigenpair of a truncated guide, with threshold bookkeeping.

    ``value`` is ``E_1`` and ``residual`` the relative residual of
    ``T(E_1) v`` on the box's unknowns (on a wall form's, the eigenvalue of
    ``H`` nearest zero over its largest).  ``vector`` is ``v``,
    mass-normalized over the whole guide with a deterministic sign;
    ``operator`` is the operator solved, whose ``guide`` and ``form`` say
    what it was: ``"box"`` (``v`` on the box's columns), ``"window"`` (``v``
    on the window's wall nodes) or ``"patch"`` (``v`` the force on the
    patch's wall nodes, whose field ``G(E_1) v`` has unit mass).  On the
    box ``v`` holds each column's lattice-mode coefficients (see
    :class:`FdOperator`), and the eliminated exterior is given in closed form by
    :func:`extract_tail_coefficients`.  ``binding`` is ``mu_1^h - E_1``:
    positive exactly when a state sits below the discrete threshold.
    ``shift`` is the box's first shift whose factorization succeeded, or
    a wall form's first iterate.  ``factorizations`` and ``inner_solves``
    count the box's banded Cholesky factorizations and back-solves, and
    ``closure_evaluations`` its evaluations of the closure ``coupling(E)``.
    A window or patch solve factors and back-solves nothing; its closure
    evaluations are its evaluations of ``H(E)``, each eigendecomposed once.
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
    operator: FdOperator | WallOperator = field(repr=False)


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
    op: FdOperator | WallOperator, binding_hint: float | None = None
) -> OracleSolution:
    """Lowest eigenpair of the guide: the root ``E_1`` of ``T(E) v = 0``.

    A window's or a patch's is the root of the crossing eigenvalue of its
    ``H(E)`` (see :func:`_wall_root`).  The box's ``T(E) = A - E M +
    closure(sigma(E))`` is the exact Schur complement of the rest of the
    guide onto its columns (see :class:`FdOperator`), factored by banded
    Cholesky.  The operator factors ``T(s)`` or reports that it is not
    positive definite, back-solves with the factor, applies ``-T'(s)``, a
    diagonal, and gives ``f(E) = v^T T(E) v`` as ``v^T A v - E v^T M v +
    sigma(E) . a2``, ``a2`` the squares of ``v``'s edge-column coefficients.
    ``E_1`` is kept in a bracket ``[s, p]``:

    - below the operator's cap, a Cholesky factorization of ``T(s)``
      succeeds exactly when ``s < E_1``, so each shift that factors is a
      lower bound;
    - ``T`` is concave in ``E``, so the smallest eigenvalue ``theta`` of the
      linearized pencil ``T(s) x = theta (-T'(s)) x``, found by inverse
      iteration from the threshold mode in every column, bounds ``E_1 <= s
    + theta``; Newton steps from there on
      ``f(E)`` with that eigenvector ``v`` fall monotonically to its root
      ``p``, the Rayleigh functional, a tighter upper bound: ``T(p)`` is not
      positive definite, so ``E_1 <= p`` by the same inertia count.  Newton
      needs a start below the cap, where ``T`` has its first pole: a bound
      ``s + theta`` at or above the cap, with no tighter bound yet, raises
      :class:`SolverError`, without an eigenpair.

    The first shift comes from the plan of :func:`_shift_plan`, all at or
    below the threshold ``mu_1^h``, so below the cap; past its end one last
    shift sits one below both zero and the potential's minimum, where
    ``T(s)`` is positive definite by construction.  Each next shift sits
    ``SHIFT_GAP`` of the bracket (at least half of ``BRACKET_TOL``) below
    ``p``; a shift that does not factor becomes the new upper bound, and
    the gap widens sixteenfold, up to half the bracket.  The solve stops at
    the first point where ``p - s <= BRACKET_TOL``: after a Newton bound, or
    as soon as a trial shift factors.  It reports ``E_1 = p`` with the last
    pencil vector; more than ``MAX_FACTORIZATIONS`` factorizations raise
    :class:`SolverError`.  The eigenpair does not depend on the hint, an
    estimate of ``mu_1^h - E_1``; only the work does.  The pair is checked
    against the ``1e-8`` relative-residual contract.
    """
    start = time.perf_counter()
    g = op.guide
    threshold = discrete_threshold(g)
    if isinstance(op, WallOperator):
        return _wall_root(op, threshold, binding_hint, start)
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

    def rayleigh_functional(v: np.ndarray, E: float) -> float:
        # Newton on the concave, decreasing f(E) = v^T T(E) v from a point
        # below the cap with f(E) <= 0: every step stays at or above the root
        nonlocal evaluations
        stiff, mass, a2 = op.contract(v)
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
    # the threshold mode in every column
    v = np.zeros(op.size)
    v[:: op.mu.size] = 1.0
    while True:
        theta, v = pencil_vector(got, v)
        bound = min(s + theta, upper)
        if bound >= cap:
            raise SolverError(
                f"pencil bound {s + theta:.17g} from shift {s:.17g} is at or "
                f"above the exterior's cap {cap:.17g}"
            )
        upper = rayleigh_functional(v, bound)
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
    # -T'(E) is the mass of the whole guide, the eliminated nodes included
    _, mass, a2 = op.contract(v)
    return _solved(op, start, threshold, value, residual, v, mass - slope @ a2, first_shift,
                   (factorizations, failed, inner_solves, evaluations))


def _wall_root(op: WallOperator, threshold: float, binding_hint, start: float) -> OracleSolution:
    """``E_1`` of a wall form: the root of the eigenvalue of ``H(E)`` that crosses zero.

    Each evaluation's inertia (see :class:`WallOperator`) makes ``E`` a
    bound: ``E < E_1`` exactly when ``N0(E) + sign neg(H(E)) = 0``.  Newton
    follows the crossing eigenvalue through ``psi(E) = 1 / (c^T H^-1 c)``,
    ``c = cosh(theta_0 i)`` (``cos(phi_0 i)`` past the threshold),
    ``theta_0`` the threshold mode's angle (:func:`_lattice_angles`):
    ``psi`` is the eigenvalue over ``(c . v)^2`` at the root, and has no
    poles below ``mu_1`` but ``H``'s.  Steps on ``(E - P) psi``, ``P`` the
    unperturbed eigenvalue below ``E`` on the threshold mode (on ``psi``
    alone below the first), start at ``threshold - binding_hint`` when that
    lies in the bracket below ``top``, else at ``start``; one out of the
    bracket bisects it, or doubles ``E``'s distance from the first pole.  An
    iterate whose step is below ``ROOT_STEP`` of it, and whose eigenvalue
    nearest zero meets the residual contract, gives the root, its Newton
    update, with ``v`` that eigenvalue's vector; the bracket's far side is
    then evaluated ``BRACKET_TOL / 2`` away.
    """
    h1 = op.guide.step_long
    (lo, hi), found, evaluations = op.bracket, None, 0
    E = math.nan if binding_hint is None else threshold - binding_hint
    initial = E = E if lo < E < op.top else op.start
    while True:
        if evaluations >= MAX_FACTORIZATIONS:
            raise SolverError(f"no eigenvalue bracket within {MAX_FACTORIZATIONS} evaluations")
        evaluations += 1
        H, slope = op.evaluate(E)
        w, V = np.linalg.eigh(H)
        count, pole = op.unperturbed_below(E)
        lo, hi = (E, hi) if count + op.sign * np.count_nonzero(w < 0.0) == 0 else (lo, E)
        if found is not None:
            if hi - lo <= BRACKET_TOL:
                break
            found = None
        c = np.cosh(_lattice_angles(h1, op.mu[:1], E)[0] * np.arange(op.size)).real
        z = V @ (V.T @ c / w)
        psi = 1.0 / (c @ z)
        trial = E - psi / (psi / (E - pole) + psi * psi * (z @ slope @ z))
        residual = np.abs(w).min() / np.abs(w).max()
        if abs(trial - E) <= ROOT_STEP * E and residual <= EIGEN_RESIDUAL_TOL:
            found = trial, residual, V[:, np.argmin(np.abs(w))], slope
            if hi - lo <= BRACKET_TOL:
                break
            E += 0.5 * BRACKET_TOL if hi - E > BRACKET_TOL else -0.5 * BRACKET_TOL
        elif lo < trial < hi:
            E = trial
        else:
            E = 0.5 * (lo + hi) if hi - lo < math.inf else 2.0 * E - op.first
    E, residual, v, slope = found
    # -sign H' is the mass of the whole guide's field, the eliminated nodes included
    return _solved(op, start, threshold, E, float(residual), v, -op.sign * (v @ slope @ v), initial,
                   (0, 0, 0, evaluations))


def _solved(op, start, threshold, value, residual, v, mass, shift, work) -> OracleSolution:
    """The solution past the residual contract: ``v / sqrt(mass)``, its sign fixed; ``work`` the ``-v`` counts."""
    if residual > EIGEN_RESIDUAL_TOL:
        raise SolverError(
            f"eigen-residual {residual} exceeds {EIGEN_RESIDUAL_TOL}",
            residuals=residual,
        )
    v = v / math.sqrt(mass)
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    factorizations, failed, inner_solves, evaluations = work
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
        shift=float(shift),
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
    ``p_j`` that column's coefficient of lattice mode ``j``, one of the
    eigenvector's last ``K`` unknowns, and
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
    h1, M = op.guide.step_long, op.exterior_columns
    theta = _lattice_angles(h1, op.mu, sol.value)[0][:count]
    # the edge column's mode coefficients, the last unknowns
    p = sol.vector[-op.mu.size:][:count]
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
