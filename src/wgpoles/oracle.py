"""Finite-difference eigensolver on a truncated guide: the ground-truth lane.

Everything else in the package reasons through mode sums and asymptotic
formulas; this module knows none of that.  It discretizes ``-Delta + q`` on
the even half ``(0, L) x (0, d)`` of a guide symmetric in ``x1``, with a
natural condition on the symmetry plane ``x1 = 0`` and the requested wall
conditions (a Neumann window or Dirichlet patch carved into the ``x2 = 0``
wall), solves for the lowest eigenpair, and reports the binding
``b = mu_m^h - E_1`` against the closed-form *discrete* transverse
threshold.  Measuring against ``mu_m^h`` rather than ``mu_m`` cancels the
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
closed form: past the box each lattice mode decays at the exact lattice
rate of its threshold, with an amplitude read from the box's edge column.
Everything is deterministic: fixed all-ones start vector, direct banded
factorizations.

The box's stiffness matrix is assembled straight into LAPACK lower band
storage, ``band[i - j, j] = A[i, j]`` for ``i >= j``, with the unknowns
numbered along each column: the band is as wide as one column's active
nodes, and the 5-point stencil fills only a few of its diagonals, which is
all the matrix-vector product visits.  The factorizations and back-solves
are LAPACK's ``dpbtrf`` and ``dpbtrs`` from scipy's compiled LAPACK
extension, loaded on its own: importing ``scipy.linalg`` would pull in
scipy's array-API layer and with it much of numpy's test and build
tooling, which costs more CPU at start-up than a window sweep spends
solving.
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
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError

from .transverse import BC_DIRICHLET, BC_NEUMANN, CrossSection, TransverseBasis

logger = logging.getLogger(__name__)

# a window or patch narrower than this many boundary nodes is unresolved
MIN_FEATURE_NODES = 8

EIGEN_RESIDUAL_TOL = 1e-8

# box columns kept past the last column the feature or potential touches
BOX_PADDING = 4

# the solve stops once the bracket around E_1 is this narrow
BRACKET_TOL = 1e-10

# cap on the banded factorizations of one solve
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


def _load_flapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, without ``scipy.linalg``.

    The extension needs only numpy, so it is loaded from its file in the
    installed scipy; the module already imported is reused, and the one
    loaded here is registered under its own name, so a later
    ``import scipy.linalg`` shares it.
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


_flapack = _load_flapack()


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
    c, info = _flapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    _lapack_info("pbtrf", info)
    return c


def cho_solve_banded(cb: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from the factor ``cb`` of :func:`cholesky_banded`, LAPACK ``dpbtrs``."""
    x, info = _flapack.dpbtrs(cb, b, lower=1)
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
    Dirichlet end.  ``h`` is snapped in each direction so an integer number
    of cells fits, and the snapped steps are what the solver uses.  A window
    or patch of the given half-width is centered at ``x1 = 0`` on the
    ``x2 = 0`` wall; its edge is snapped to the midpoint between boundary
    nodes and the snap distance recorded.  ``potential(x1, x2)`` is the full
    operator term ``q`` in ``-Delta + q`` (so an attractive well of depth
    ``eps`` is ``q = -eps`` on its support), sampled at the grid nodes.
    Callers are responsible for choosing ``L`` several decay lengths beyond
    the perturbation; :func:`build_fd_operator` refuses a guide whose
    perturbation comes within ``BOX_PADDING`` columns of its end.
    """

    cross_section: CrossSection
    half_length: float
    h: float
    window_half_width: float | None = None
    patch_half_width: float | None = None
    potential: Callable | None = None
    mode_index: int = 1

    def __post_init__(self) -> None:
        if not (self.half_length > 0):
            raise ValueError(f"half-length must be positive, got {self.half_length}")
        if self.window_half_width is not None and self.patch_half_width is not None:
            raise ValueError("cannot carve both a window and a patch")
        if self.window_half_width is not None and self.cross_section.bc != BC_DIRICHLET:
            raise ValueError("a Neumann window requires a Dirichlet guide")
        if self.patch_half_width is not None and self.cross_section.bc != BC_NEUMANN:
            raise ValueError("a Dirichlet patch requires a Neumann guide")
        if self.mode_index < 1:
            raise ValueError(f"mode index must be >= 1, got {self.mode_index}")

        self.n_long = int(max(4, round(self.half_length / self.h)))
        self.step_long = self.half_length / self.n_long
        self.n_trans = int(max(4, round(self.cross_section.width / self.h)))
        self.step_trans = self.cross_section.width / self.n_trans
        self.x1 = np.linspace(0.0, self.half_length, self.n_long + 1)
        self.x2 = np.linspace(0.0, self.cross_section.width, self.n_trans + 1)

        width = self.window_half_width or self.patch_half_width
        if width is not None:
            if not (0 < width < self.half_length):
                raise ValueError(
                    f"feature half-width {width} must lie in (0, L = {self.half_length})"
                )
            # edge between the last changed node and the first unchanged one:
            # effective half-width (n + 1/2) h, second-order edge placement
            n_feat = round(width / self.step_long - 0.5)
            self.feature_nodes = int(max(n_feat, 0))
            self.feature_half_width = (self.feature_nodes + 0.5) * self.step_long
            self.feature_snap = abs(width - self.feature_half_width)
            if 2 * self.feature_nodes + 1 < MIN_FEATURE_NODES:
                raise ValueError(
                    f"feature resolved by {2 * self.feature_nodes + 1} boundary "
                    f"nodes; need at least {MIN_FEATURE_NODES} (shrink h)"
                )
            if self.feature_snap > 1e-12:
                logger.info(
                    "feature edge snapped by %.3e to %.6f",
                    self.feature_snap,
                    self.feature_half_width,
                )
        else:
            self.feature_nodes = 0
            self.feature_half_width = 0.0
            self.feature_snap = 0.0

    def potential_samples(self) -> np.ndarray | None:
        """Potential ``q`` on the node grid, shape ``(n_long+1, n_trans+1)``."""
        if self.potential is None:
            return None
        q = np.asarray(self.potential(self.x1[:, None], self.x2[None, :]))
        q = np.broadcast_to(q, (self.n_long + 1, self.n_trans + 1))
        return np.ascontiguousarray(q, dtype=float)


def _lattice_eigenvalues(g: TruncatedGuide, j):
    """``(4/h^2) sin^2(j pi h / (2d))``: eigenvalues of the transverse stencil.

    ``j`` counts the lattice sines of a Dirichlet strip from one and the
    cosines of a Neumann strip from zero, so index ``j`` is the eigenvalue of
    mode ``j`` or ``j + 1``.
    """
    h = g.step_trans
    s = np.sin(j * math.pi * h / (2.0 * g.cross_section.width))
    return 4.0 / (h * h) * s * s


@dataclass
class LatticeExterior:
    """The uniform guide beyond the box, eliminated exactly one mode at a time.

    Past the box's last column ``c`` the guide has no perturbation, so the
    lattice sines (Dirichlet walls) or cosines (Neumann walls) ``phi_j`` of
    the transverse stencil, with eigenvalues ``mu_j``, decouple it into
    ``M = n_long - c`` column recurrences ``a_{i+1} + a_{i-1} = t_j a_i``,
    ``t_j = 2 + h1^2 (mu_j - E)``, closed by the Dirichlet end at column
    ``n_long``.  Eliminating the exterior half of column ``c`` and every
    column beyond it adds ``sigma_j(E) a_j^2`` to the energy, with ``a_j``
    the projection of column ``c`` on ``phi_j`` and, writing
    ``cosh(theta) = t_j / 2``, ``sigma_j = sinh(theta) coth(M theta) / h1``
    (the ``sin`` form when ``t_j < 2``).  ``projector`` is ``W2 Phi`` on the
    column's active nodes ``nodes``, whose columns are w2-orthonormal, so
    the Schur complement is ``projector diag(sigma) projector^T``.
    """

    phi: np.ndarray = field(repr=False)
    projector: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    columns: int
    h1: float

    @property
    def cap(self) -> float:
        """Lowest eigenvalue of the exterior with column ``c`` held at zero.

        Below it the exterior block is positive definite, so ``T(E)`` has as
        many negative eigenvalues as the whole guide's pencil at ``E``.
        """
        s = math.sin(math.pi / (2 * self.columns))
        return float(self.mu.min()) + 4.0 / self.h1**2 * s * s

    def _angles(self, E: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # theta (decaying, t >= 2) or phi (oscillating), from delta = t/2 - 1
        # directly so that modes next to E keep their digits
        delta = 0.5 * self.h1**2 * (self.mu - E)
        half = np.sqrt(0.5 * np.abs(delta))
        decay = delta >= 0
        angle = 2.0 * np.where(decay, np.arcsinh(half), np.arcsin(np.minimum(half, 1.0)))
        return angle, np.sqrt(np.abs(delta * (delta + 2.0))), decay

    def coupling(self, E: float) -> tuple[np.ndarray, np.ndarray]:
        """``sigma_j(E)`` and ``d sigma_j / dE`` of every mode, for ``E`` below the cap.

        ``d sigma_j / dE`` is minus the mass of the mode's exterior extension,
        so it is negative and ``sigma_j`` concave.
        """
        M = self.columns
        angle, sh, decay = self._angles(E)
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
        return sigma / self.h1, -0.5 * self.h1 * slope

    def extend(self, E: float, edge: np.ndarray) -> np.ndarray:
        """Exterior columns ``c+1 .. n_long`` of the eigenvector whose column ``c`` is ``edge``."""
        M = self.columns
        angle, _, decay = self._angles(E)
        k = np.arange(1, M + 1)[:, None]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            decaying = np.where(
                angle > 0,
                np.exp(-k * angle) * np.expm1(-2.0 * (M - k) * angle)
                / np.expm1(-2.0 * M * angle),
                (M - k) / M,
            )
            waving = np.sin((M - k) * angle) / np.sin(M * angle)
        profile = np.where(decay, decaying, waving)
        return (profile * (self.projector.T @ edge)) @ self.phi.T


def _lattice_exterior(g: TruncatedGuide, c: int) -> LatticeExterior:
    """Closed-form transverse modes of column ``c`` and the exterior beyond it."""
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
    # reduce k j modulo the period before scaling, so the phase stays exact
    phase = np.outer(k[nodes], j) % (2 * n2)
    phi = wave(np.pi * phase / n2) * scale
    return LatticeExterior(
        phi=phi,
        projector=w2[:, None] * phi,
        mu=_lattice_eigenvalues(g, j),
        nodes=nodes,
        columns=g.n_long - c,
        h1=g.step_long,
    )


@dataclass
class FdOperator:
    """Box part ``A u = E M u`` of the guide on its active nodes, and the exterior.

    ``band`` (``A`` in LAPACK lower band storage) and ``mass`` cover columns
    ``0 .. columns - 1`` of the guide; the last of them is the box's natural
    edge column, whose active nodes are the last ``rows`` unknowns, and the
    uniform guide beyond it is ``exterior``.
    """

    guide: TruncatedGuide
    band: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    columns: int
    rows: int
    exterior: LatticeExterior

    @property
    def size(self) -> int:
        return int(self.band.shape[1])

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
    ``MAX_BAND_BYTES``.  The guide beyond ``edge`` becomes the operator's
    :class:`LatticeExterior`.
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
    edge = last + BOX_PADDING
    if edge >= n1:
        raise ValueError(
            f"the perturbation reaches column {last} of a guide with {n1} "
            f"columns; it must end more than {BOX_PADDING} columns before "
            f"x1 = L = {g.half_length} (lengthen the guide)"
        )

    mask = np.ones((edge + 1, n2 + 1), dtype=bool)
    feature_cols = np.arange(edge + 1) <= g.feature_nodes
    if cs.bc == BC_DIRICHLET:
        mask[:, 0] = False
        mask[:, -1] = False
        if g.window_half_width is not None:
            mask[feature_cols, 0] = True
    else:
        if g.patch_half_width is not None:
            mask[feature_cols, 0] = False

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
    col_counts = mask.sum(axis=1)
    return FdOperator(
        guide=g,
        band=band,
        mass=weight[mask],
        mask=mask,
        columns=int(np.count_nonzero(col_counts)),
        rows=int(col_counts[col_counts > 0].min()),
        exterior=_lattice_exterior(g, edge),
    )


@dataclass
class OracleSolution:
    """Lowest eigenpair of a truncated guide, with threshold bookkeeping.

    ``value`` is ``E_1`` and ``residual`` the relative residual of
    ``T(E_1) v`` on the box.  ``box_field`` is the eigenvector on the box's
    node grid (zeros at eliminated nodes), and ``field`` the same on the
    whole guide, its exterior columns rebuilt from the closed-form modes on
    first access; both are mass-normalized over the whole guide with a
    deterministic sign.  ``binding`` is ``mu_m^h - E_1``: positive exactly
    when a state sits below the discrete threshold.  ``shift`` is the first
    shift of the plan whose factorization succeeded; ``factorizations`` and
    ``inner_solves`` count the banded Cholesky factorizations and
    back-solves of the whole solve.
    """

    guide: TruncatedGuide
    value: float
    residual: float
    threshold: float
    binding: float
    shift: float
    factorizations: int
    inner_solves: int
    box_field: np.ndarray = field(repr=False)
    exterior: LatticeExterior = field(repr=False)

    @cached_property
    def field(self) -> np.ndarray:
        """Eigenvector on the whole node grid, shape ``(n_long+1, n_trans+1)``."""
        g = self.guide
        u = np.zeros((g.n_long + 1, g.n_trans + 1))
        c = self.box_field.shape[0] - 1
        u[: c + 1] = self.box_field
        ext = self.exterior
        u[c + 1 :, ext.nodes] = ext.extend(self.value, u[c, ext.nodes])
        return u


def discrete_threshold(g: TruncatedGuide, m: int | None = None) -> float:
    """Closed-form ``m``-th eigenvalue of the discrete transverse operator.

    Dirichlet: ``(4/h^2) sin^2(m pi h / (2d))``; Neumann shifts the index by
    one (the constant mode is exactly zero on the lattice).  This is the
    reference the binding is measured against.
    """
    if m is None:
        m = g.mode_index
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
    """Lowest eigenpair of the guide: the root ``E_1`` of ``T(E) v = 0`` on the box.

    ``T(E) = A - E M + projector diag(sigma(E)) projector^T`` is the exact
    Schur complement of the exterior (see :class:`LatticeExterior`).
    ``E_1`` is kept in a bracket ``[s, p]``:

    - below the exterior's cap, a banded Cholesky of ``T(s)`` succeeds
      exactly when ``s < E_1``, so each shift that factors is a lower bound;
    - ``T`` is concave in ``E``, so the smallest eigenvalue ``theta`` of the
      linearized pencil ``T(s) x = theta (-T'(s)) x``, found by inverse
      iteration, bounds ``E_1 <= s + theta``; Newton steps from there on
      ``f(E) = v^T T(E) v`` with that eigenvector ``v`` fall monotonically
      to its root ``p``, the Rayleigh functional, a tighter upper bound:
      ``T(p)`` is not positive definite, so ``E_1 <= p`` by the same
      inertia count.  When ``s + theta`` is at or above the cap, where
      ``f`` falls to ``-inf`` if ``v`` has weight on the exterior's lowest
      mode, Newton starts instead from the first of the midpoint of
      ``(s, cap)`` and the points halving its distance to the cap where
      ``f(E) <= 0``; if there is none, the cap stays the bound.

    The first shift comes from the plan (see :func:`_shift_plan`): with a
    positive ``binding_hint`` (an estimate of ``mu_m^h - E_1``) ``2 hint``
    below the threshold, each failed factorization moving eight times
    farther, down to ``threshold - 1``; without one, the threshold itself,
    which factors exactly when nothing binds and otherwise is the first
    upper bound, then ``threshold - 1``.  If that fails too, one last shift
    sits one below both zero and the potential's minimum, where ``T(s)`` is
    positive definite by construction.  Only shifts of the plan below the
    exterior's cap are tried; a plan with none raises :class:`SolverError`
    without a factorization.  Each next shift sits ``SHIFT_GAP`` of the
    bracket (at least half of ``BRACKET_TOL``) below ``p``; a shift that
    does not factor becomes the new upper bound, and the gap widens
    sixteenfold, up to half the bracket.  The solve stops when
    ``p - s <= BRACKET_TOL`` and reports ``E_1 = p``; more than ``MAX_FACTORIZATIONS``
    factorizations raise :class:`SolverError`.  The eigenpair does not
    depend on the hint; only the number of factorizations does.  The pair
    is checked against the ``1e-8`` relative-residual contract.
    """
    start = time.perf_counter()
    g = op.guide
    ext = op.exterior
    threshold = discrete_threshold(g)
    n = op.size
    P = ext.projector
    cap = ext.cap
    coupling = ext.coupling
    tail = n - P.shape[0]
    low_i, low_j = np.tril_indices(P.shape[0])
    factorizations = failed = inner_solves = 0
    # one factor is live at a time, so every factorization reuses this buffer
    ab = np.empty_like(op.band, order="F")

    def closure(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # projector diag(weights) projector^T on the edge column, zero elsewhere
        y = np.zeros_like(x)
        y[tail:] = P @ (weights * (P.T @ x[tail:]))
        return y

    def factor(E: float):
        nonlocal factorizations, failed
        if factorizations >= MAX_FACTORIZATIONS:
            raise SolverError(
                f"no eigenvalue bracket within {MAX_FACTORIZATIONS} factorizations"
            )
        factorizations += 1
        sigma, slope = coupling(E)
        np.copyto(ab, op.band)
        ab[0, :] -= E * op.mass
        ab[low_i - low_j, tail + low_j] += ((P * sigma) @ P.T)[low_i, low_j]
        try:
            cb = cholesky_banded(ab)
        except LinAlgError:
            failed += 1
            return None
        return cb, slope

    def pencil_vector(cb: np.ndarray, slope: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
        # inverse iteration on (T(s), B), B = -T'(s) positive definite; its
        # Rayleigh quotient falls monotonically to the smallest eigenvalue
        nonlocal inner_solves
        theta = math.inf
        for _ in range(INVERSE_ITERATIONS):
            y = op.mass * v - closure(v, slope)
            z = cho_solve_banded(cb, y)
            inner_solves += 1
            bz = op.mass * z - closure(z, slope)
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
        # -inf at the cap when v has weight on the lowest exterior mode, so
        # a start at the cap is searched for between s and the cap
        stiff = float(v @ op.matvec(v))
        mass = float(v @ (op.mass * v))
        a2 = (P.T @ v[tail:]) ** 2
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

    shifts = [s for s in _shift_plan(threshold, binding_hint) if s < cap]
    if not shifts:
        raise SolverError(
            f"no shift of the plan (threshold {threshold:.6g} down to "
            f"{threshold - 1.0:.6g}) lies below the exterior's cap {cap:.6g}, "
            f"the lowest eigenvalue of the guide beyond the box; "
            f"no factorization was tried"
        )
    upper = cap
    for s in shifts:
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
    v = np.ones(n)
    while True:
        theta, v = pencil_vector(*got, v)
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

    value = upper
    sigma, slope = coupling(value)
    av = op.matvec(v)
    mv = op.mass * v
    cv = closure(v, sigma)
    residual = float(
        np.linalg.norm(av - value * mv + cv)
        / (np.linalg.norm(av) + abs(value) * np.linalg.norm(mv) + np.linalg.norm(cv))
    )
    if residual > EIGEN_RESIDUAL_TOL:
        raise SolverError(
            f"eigen-residual {residual} exceeds {EIGEN_RESIDUAL_TOL}",
            residuals=residual,
        )

    # -T'(E) is the mass of the whole guide, the exterior extension included
    v = v / math.sqrt(float(v @ (mv - closure(v, slope))))
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    u = np.zeros(op.mask.shape)
    u[op.mask] = v

    logger.info(
        "eigensolve: %d box columns, %d unknowns, %d factorizations "
        "(%d failed), %d back-solves, %.3f s",
        op.columns,
        n,
        factorizations,
        failed,
        inner_solves,
        time.perf_counter() - start,
    )
    return OracleSolution(
        guide=g,
        value=value,
        residual=residual,
        threshold=threshold,
        binding=float(threshold - value),
        shift=float(first_shift),
        factorizations=factorizations,
        inner_solves=inner_solves,
        box_field=u,
        exterior=ext,
    )


def extract_tail_coefficients(
    sol: OracleSolution, basis: TransverseBasis
) -> list[tuple[float, float]]:
    """Mode amplitudes and decay rates of the ground state's tail, in closed form.

    Past the box the eigenvector is, mode by mode, the exterior's exact
    solution (see :class:`LatticeExterior`): with ``c`` the box's edge
    column, ``p_j`` the projection of that column on lattice mode ``j`` and
    ``cosh(theta_j) = 1 + h1^2 (mu_j^h - E_1) / 2``, its column ``i`` carries
    ``A_j (exp(-theta_j i) - exp(-theta_j (2 n_long - i)))``, the decaying
    tail and its image in the Dirichlet end, where
    ``A_j = p_j exp(theta_j c) / (1 - exp(-2 M theta_j))``.  Returns one
    ``(a_j, rate_j) = (A_j, theta_j / h1)`` for each of the ``basis``'s
    modes, amplitudes normalized so the threshold mode's is exactly one.
    Raises ``ValueError`` when nothing binds, or when a mode lies below
    ``E_1`` and so has no decaying tail.
    """
    g = sol.guide
    if sol.binding <= 0:
        raise ValueError(
            f"no bound state: binding {sol.binding:.3e} <= 0; tails undefined"
        )
    ext = sol.exterior
    count = basis.count
    if count > ext.mu.size:
        raise ValueError(f"{count} modes requested; the lattice has {ext.mu.size}")
    theta, _, decay = ext._angles(sol.value)
    theta = theta[:count]
    if not np.all(decay[:count]):
        raise ValueError(
            f"mode {int(np.argmin(decay)) + 1} lies below E_1 = {sol.value}; "
            "it does not decay"
        )
    c = g.n_long - ext.columns
    p = ext.projector.T[:count] @ sol.box_field[c, ext.nodes]
    a = p * np.exp(theta * c) / -np.expm1(-2.0 * ext.columns * theta)
    a /= a[g.mode_index - 1]
    rate = theta / ext.h1
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
