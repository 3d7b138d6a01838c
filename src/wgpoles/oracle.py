"""Finite-difference eigensolver on a truncated guide: the ground-truth lane.

Everything else in the package reasons through mode sums and asymptotic
formulas; this module knows none of that.  It discretizes ``-Delta + q`` on
the rectangle ``(-L, L) x (0, d)`` with the requested wall conditions (a
Neumann window or Dirichlet patch carved into the ``x2 = 0`` wall), solves
for the lowest eigenpairs by banded shift-invert Lanczos, and reports the
binding ``b = mu_m^h - E_1`` against the closed-form *discrete* transverse
threshold.  Measuring against ``mu_m^h`` rather than ``mu_m`` cancels the
leading ``O(h^2)`` discretization bias, which matters because the bindings
of interest sit orders of magnitude below that bias.

Discretization is by the quadratic form (energy) on a tensor grid with
trapezoid mass: interior rows reproduce the 5-point stencil, Neumann
boundary rows the ghost-point reflection, and sampled transverse eigenmodes
are lattice-exact, so the transverse factor of the error cancels in ``b``
identically.  Everything is deterministic: fixed all-ones start vector,
direct banded factorization for the inner solves.

Shift-invert Lanczos converges at the rate ``(E_1 - s)/(E_2 - s)``, and the
bindings of interest sit only 1e-4 to 1e-2 below the threshold, so the shift
``s`` is placed next to the eigenvalue when a binding estimate is at hand:
``s = mu_m^h - 2|hint|``.  A shift above ``E_1`` makes ``A - s M`` indefinite,
which the banded Cholesky detects; the shift then steps down eightfold in
distance until it reaches the default ``mu_m^h - 1``.  The eigenpairs do
not depend on the shift, only the number of inner solves does.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .transverse import BC_DIRICHLET, BC_NEUMANN, CrossSection, TransverseBasis

logger = logging.getLogger(__name__)

DIRICHLET_ENDS = "dirichlet-ends"
NEUMANN_ENDS = "neumann-ends"
_VALID_ENDS = (DIRICHLET_ENDS, NEUMANN_ENDS)

# a window or patch narrower than this many boundary nodes is unresolved
MIN_FEATURE_NODES = 8

EIGEN_RESIDUAL_TOL = 1e-8

# ARPACK Krylov basis size; with a shift next to E_1 fewer vectors restart
# less wastefully (on the window-ladder benchmark 20 vectors cost 574 inner
# solves, 12 cost 420, 10 cost 409, 8 cost 448 and 6 cost 528)
LANCZOS_VECTORS = 10

# refuse factorizations whose band storage would not fit in memory
MAX_BAND_BYTES = 3 * 1024**3


class SolverError(RuntimeError):
    """Eigensolve failed its contract; carries residuals when available."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class TailFitError(RuntimeError):
    """Eigenvector tail is not a clean exponential over the fit window."""


@dataclass
class TruncatedGuide:
    """Discretized truncated guide: geometry, wall plan, and potential.

    ``h`` is the longitudinal step and ``h_trans`` the transverse one
    (defaults to ``h``); both are snapped so an integer number of cells fits,
    and the snapped values are what the solver uses.  A window or patch of
    the given half-width is centered at ``x1 = 0`` on the ``x2 = 0`` wall;
    its edge is snapped to the midpoint between boundary nodes and the snap
    distance recorded.  ``potential`` is the full operator term ``q`` in
    ``-Delta + q`` (so an attractive well of depth ``eps`` is ``q = -eps``
    on its support), sampled at the grid nodes.

    ``symmetric_half`` restricts to ``x1 in [0, L]`` with a natural
    (Neumann) condition at the symmetry plane, which reproduces the even
    eigenstates of the full problem, the ground state among them, at half
    the cost.  Callers are responsible for choosing ``L`` several decay
    lengths beyond the perturbation.
    """

    cross_section: CrossSection
    half_length: float
    h: float
    h_trans: float | None = None
    ends: str = DIRICHLET_ENDS
    window_half_width: float | None = None
    patch_half_width: float | None = None
    potential: Callable | np.ndarray | None = None
    mode_index: int = 1
    symmetric_half: bool = False

    def __post_init__(self) -> None:
        if not (self.half_length > 0):
            raise ValueError(f"half-length must be positive, got {self.half_length}")
        if self.ends not in _VALID_ENDS:
            raise ValueError(f"ends must be one of {_VALID_ENDS}, got {self.ends!r}")
        if self.window_half_width is not None and self.patch_half_width is not None:
            raise ValueError("cannot carve both a window and a patch")
        if self.window_half_width is not None and self.cross_section.bc != BC_DIRICHLET:
            raise ValueError("a Neumann window requires a Dirichlet guide")
        if self.patch_half_width is not None and self.cross_section.bc != BC_NEUMANN:
            raise ValueError("a Dirichlet patch requires a Neumann guide")
        if self.mode_index < 1:
            raise ValueError(f"mode index must be >= 1, got {self.mode_index}")
        if self.h_trans is None:
            self.h_trans = self.h

        span = self.half_length if self.symmetric_half else 2.0 * self.half_length
        n1 = max(4, round(span / self.h))
        if not self.symmetric_half and n1 % 2:
            n1 += 1  # keep a node at x1 = 0 so centered features align
        self.n_long = int(n1)
        self.step_long = span / self.n_long
        n2 = max(4, round(self.cross_section.width / self.h_trans))
        self.n_trans = int(n2)
        self.step_trans = self.cross_section.width / self.n_trans
        if self.symmetric_half:
            self.x1 = np.linspace(0.0, self.half_length, self.n_long + 1)
        else:
            self.x1 = np.linspace(-self.half_length, self.half_length, self.n_long + 1)
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
        if callable(self.potential):
            q = np.asarray(self.potential(self.x1[:, None], self.x2[None, :]))
            q = np.broadcast_to(q, (self.n_long + 1, self.n_trans + 1))
            return np.ascontiguousarray(q, dtype=float)
        q = np.asarray(self.potential, dtype=float)
        if q.shape != (self.n_long + 1, self.n_trans + 1):
            raise ValueError(
                f"potential samples {q.shape} do not match node grid "
                f"({self.n_long + 1}, {self.n_trans + 1})"
            )
        return q

    def perturbation_extent(self) -> float:
        """Longitudinal reach of the perturbation (for tail-window checks)."""
        extent = self.feature_half_width
        q = self.potential_samples()
        if q is not None:
            hit = np.any(q != 0, axis=1)
            if np.any(hit):
                extent = max(extent, float(np.max(np.abs(self.x1[hit]))))
        return extent


@dataclass
class FdOperator:
    """Assembled generalized eigenproblem ``A u = E M u`` on the active nodes."""

    guide: TruncatedGuide
    matrix: sp.csc_matrix = field(repr=False)
    mass: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)
    index: np.ndarray = field(repr=False)
    columns: int
    rows: int

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])


def build_fd_operator(g: TruncatedGuide) -> FdOperator:
    """Assemble the energy-form discretization of ``-Delta + q`` on the guide.

    The quadratic form ``sum (du)^2 * w / h`` over grid edges plus the
    trapezoid-weighted potential gives a symmetric matrix pencil whose
    interior rows are the standard 5-point stencil and whose Neumann
    boundary rows carry the ghost-point form automatically; Dirichlet nodes
    are eliminated.  Active-grid column and row counts are recorded on the
    result.
    """
    n1, n2 = g.n_long, g.n_trans
    h1, h2 = g.step_long, g.step_trans
    cs = g.cross_section

    mask = np.ones((n1 + 1, n2 + 1), dtype=bool)
    center = 0 if g.symmetric_half else n1 // 2
    feature_cols = np.abs(np.arange(n1 + 1) - center) <= g.feature_nodes
    if cs.bc == BC_DIRICHLET:
        mask[:, 0] = False
        mask[:, -1] = False
        if g.window_half_width is not None:
            mask[feature_cols, 0] = True
    else:
        if g.patch_half_width is not None:
            mask[feature_cols, 0] = False
    if g.ends == DIRICHLET_ENDS:
        mask[-1, :] = False
        if not g.symmetric_half:
            mask[0, :] = False
    # symmetric half: x1 = 0 plane keeps the natural (Neumann) condition

    w1 = np.full(n1 + 1, h1)
    w1[0] = w1[-1] = h1 / 2.0
    w2 = np.full(n2 + 1, h2)
    w2[0] = w2[-1] = h2 / 2.0

    index = -np.ones((n1 + 1, n2 + 1), dtype=np.int64)
    index[mask] = np.arange(int(mask.sum()))

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add_edges(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        both = (a >= 0) & (b >= 0)
        ab, bb, cb = a[both], b[both], c[both]
        rows.extend((ab, bb, ab, bb))
        cols.extend((ab, bb, bb, ab))
        vals.extend((cb, cb, -cb, -cb))
        for keep, other in ((a, b), (b, a)):
            solo = (keep >= 0) & (other < 0)
            rows.append(keep[solo])
            cols.append(keep[solo])
            vals.append(c[solo])

    add_edges(
        index[:-1, :].ravel(),
        index[1:, :].ravel(),
        np.broadcast_to(w2[None, :] / h1, (n1, n2 + 1)).ravel(),
    )
    add_edges(
        index[:, :-1].ravel(),
        index[:, 1:].ravel(),
        np.broadcast_to(w1[:, None] / h2, (n1 + 1, n2)).ravel(),
    )

    weight = w1[:, None] * w2[None, :]
    q = g.potential_samples()
    if q is not None:
        diag = index[mask]
        rows.append(diag)
        cols.append(diag)
        vals.append((q * weight)[mask])

    n = int(mask.sum())
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsc()
    col_counts = mask.sum(axis=1)
    return FdOperator(
        guide=g,
        matrix=A,
        mass=weight[mask],
        mask=mask,
        index=index,
        columns=int(np.count_nonzero(col_counts)),
        rows=int(col_counts[col_counts > 0].min()),
    )


@dataclass
class OracleSolution:
    """Lowest eigenpairs of a truncated guide, with threshold bookkeeping.

    ``fields`` are the eigenvectors scattered back onto the full node grid
    (zeros at eliminated nodes), mass-normalized with a deterministic sign.
    ``binding`` is ``mu_m^h - E_1``: positive exactly when a state sits
    below the discrete threshold.  ``shift`` is the shift whose factorization
    succeeded, after ``factor_attempts`` tries, and ``inner_solves`` counts
    the banded back-solves ARPACK asked for.
    """

    guide: TruncatedGuide
    values: np.ndarray
    fields: np.ndarray = field(repr=False)
    residuals: np.ndarray
    threshold: float
    binding: float
    shift: float
    factor_attempts: int
    inner_solves: int


def discrete_threshold(g: TruncatedGuide, m: int | None = None) -> float:
    """Closed-form ``m``-th eigenvalue of the discrete transverse operator.

    Dirichlet: ``(4/h^2) sin^2(m pi h / (2d))``; Neumann shifts the index by
    one (the constant mode is exactly zero on the lattice).  This is the
    reference the binding is measured against.
    """
    if m is None:
        m = g.mode_index
    h = g.step_trans
    d = g.cross_section.width
    m_eff = m if g.cross_section.bc == BC_DIRICHLET else m - 1
    s = math.sin(m_eff * math.pi * h / (2.0 * d))
    return 4.0 / (h * h) * s * s


def _shift_plan(threshold: float, binding_hint: float | None) -> list[float]:
    """Shifts to try, nearest the threshold first, ending at ``threshold - 1``.

    A hint ``b`` gives distances ``2|b|, 16|b|, 128|b|, ...`` below the
    threshold while they stay under one; a zero or missing hint gives only
    the default.
    """
    distances = []
    if binding_hint is not None:
        d = 2.0 * abs(binding_hint)
        while 0.0 < d < 1.0:
            distances.append(d)
            d *= 8.0
    distances.append(1.0)
    return [threshold - d for d in distances]


def lowest_eigenpairs(
    op: FdOperator,
    count: int = 1,
    shift: float | None = None,
    binding_hint: float | None = None,
) -> OracleSolution:
    """Lowest ``count`` eigenpairs by banded shift-invert Lanczos.

    An explicit ``shift`` must sit strictly below the lowest eigenvalue; it
    is tried once, and a failed factorization raises :class:`SolverError`.
    Otherwise the shifts of the plan are tried in turn: with a
    ``binding_hint`` (an estimate of ``mu_m^h - E_1``, of either sign) the
    first sits ``2|hint|`` below the threshold, each failed banded Cholesky
    of ``A - shift M`` (which means the shift lies above ``E_1``) moves it
    eight times farther, and the last try is the default ``threshold - 1``,
    whose failure raises.  The eigenpairs do not depend on the shift; only
    the number of inner solves does.  ARPACK gets ``LANCZOS_VECTORS``
    Lanczos vectors (at least ``2 count + 1``), which for a shift next to
    ``E_1`` needs fewer inner solves than its default of 20.  Each returned
    pair is checked against the ``1e-8`` relative-residual contract.
    """
    start = time.perf_counter()
    g = op.guide
    threshold = discrete_threshold(g)
    shifts = [shift] if shift is not None else _shift_plan(threshold, binding_hint)
    A = op.matrix
    n = op.size
    if count >= n:
        raise ValueError(f"cannot extract {count} pairs from {n} unknowns")
    coo = A.tocoo()
    lower = coo.row >= coo.col
    offsets = coo.row[lower] - coo.col[lower]
    cols = coo.col[lower]
    data = coo.data[lower]
    del coo, lower
    bw = int(offsets.max())
    band_bytes = (bw + 1) * n * 8
    if band_bytes > MAX_BAND_BYTES:
        raise MemoryError(
            f"band factorization needs {band_bytes / 1e9:.1f} GB "
            f"(bandwidth {bw + 1}, {n} unknowns); coarsen the grid"
        )
    for attempt, sigma in enumerate(shifts, start=1):
        # Fortran order lets the factorization overwrite the band in place,
        # so only one band is alive at a time
        ab = np.zeros((bw + 1, n), order="F")
        ab[offsets, cols] = data
        ab[0, :] -= sigma * op.mass
        try:
            cb = sla.cholesky_banded(
                ab, overwrite_ab=True, lower=True, check_finite=False
            )
            break
        except np.linalg.LinAlgError as exc:
            if attempt == len(shifts):
                raise SolverError(
                    f"factorization of A - {sigma} M failed; shift not below "
                    f"the spectrum or operator indefinite ({exc})"
                ) from exc
            del ab
    del ab, offsets, cols, data
    inner_solves = 0

    def solve(b: np.ndarray) -> np.ndarray:
        nonlocal inner_solves
        inner_solves += 1
        return sla.cho_solve_banded((cb, True), b, check_finite=False)

    opinv = LinearOperator((n, n), matvec=solve, dtype=float)
    M = sp.dia_matrix((op.mass[None, :], [0]), shape=(n, n))
    try:
        vals, vecs = eigsh(
            A,
            k=count,
            M=M,
            sigma=sigma,
            which="LM",
            v0=np.ones(n),
            ncv=min(n, max(2 * count + 1, LANCZOS_VECTORS)),
            OPinv=opinv,
        )
    except ArpackNoConvergence as exc:
        raise SolverError(
            f"Lanczos did not converge: {exc}", residuals=getattr(exc, "eigenvalues", None)
        ) from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]

    residuals = np.empty(count)
    for p in range(count):
        v = vecs[:, p]
        av = A @ v
        mv = op.mass * v
        residuals[p] = np.linalg.norm(av - vals[p] * mv) / (
            np.linalg.norm(av) + abs(vals[p]) * np.linalg.norm(mv)
        )
    if np.any(residuals > EIGEN_RESIDUAL_TOL):
        raise SolverError(
            f"eigen-residuals {residuals} exceed {EIGEN_RESIDUAL_TOL}",
            residuals=residuals,
        )

    fields = np.zeros((count, g.n_long + 1, g.n_trans + 1))
    for p in range(count):
        v = vecs[:, p]
        v = v / math.sqrt(float(v @ (op.mass * v)))
        peak = int(np.argmax(np.abs(v)))
        if v[peak] < 0:
            v = -v
        fields[p][op.mask] = v

    logger.info(
        "eigensolve: %d unknowns, shift %.3e below threshold, %d factorization(s), "
        "%d inner solves, %.2f s",
        n,
        threshold - sigma,
        attempt,
        inner_solves,
        time.perf_counter() - start,
    )
    return OracleSolution(
        guide=g,
        values=vals,
        fields=fields,
        residuals=residuals,
        threshold=threshold,
        binding=float(threshold - vals[0]),
        shift=float(sigma),
        factor_attempts=attempt,
        inner_solves=inner_solves,
    )


def extract_tail_coefficients(
    sol: OracleSolution, basis: TransverseBasis, x1_window: tuple[float, float]
) -> list[tuple[float, float]]:
    """Mode amplitudes and decay rates of the ground state's tail.

    Projects the eigenvector onto each transverse mode at the ``x1`` slices
    inside the window, fits ``log |coefficient|`` linearly, and returns one
    ``(a_j, rate_j)`` per mode, normalized so the threshold-mode amplitude
    is exactly one.  The window must sit beyond the perturbation (one unit
    of clearance) and at least two units short of the truncation end.
    Modes drowned below relative level 1e-10 report ``(0, nan)``; a genuine
    tail that is not exponential (R^2 < 0.99) raises.
    """
    g = sol.guide
    if sol.binding <= 0:
        raise ValueError(
            f"no bound state: binding {sol.binding:.3e} <= 0; tails undefined"
        )
    lo, hi = x1_window
    if hi > g.half_length - 2.0 + 1e-9:
        raise ValueError(f"window end {hi} must stay 2 below L = {g.half_length}")
    clearance = g.perturbation_extent() + 1.0
    if lo < clearance - 1e-9:
        raise ValueError(
            f"window start {lo} inside the perturbed zone; need >= {clearance}"
        )
    cols = np.nonzero((g.x1 >= lo - 1e-12) & (g.x1 <= hi + 1e-12))[0]
    if cols.size < 4:
        raise ValueError(f"only {cols.size} slices in window [{lo}, {hi}]; need >= 4")
    w2 = np.full(g.n_trans + 1, g.step_trans)
    w2[0] = w2[-1] = g.step_trans / 2.0
    phi = basis.phi_matrix(g.x2)
    u = sol.fields[0]
    coefs = (phi * w2[None, :]) @ u[cols].T
    xs = g.x1[cols]

    floor = 1e-10 * float(np.max(np.abs(coefs)))
    out: list[tuple[float, float]] = []
    for j in range(basis.count):
        c = coefs[j]
        # a mode must clear the eigenvector noise floor over the whole
        # window; one that decays into the floor mid-window has no
        # trustworthy rate either
        if float(np.min(np.abs(c))) < floor:
            out.append((0.0, float("nan")))
            continue
        y = np.log(np.abs(c))
        slope, intercept = np.polyfit(xs, y, 1)
        fitted = slope * xs + intercept
        ss_res = float(np.sum((y - fitted) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        if r2 < 0.99:
            raise TailFitError(
                f"mode {j + 1} tail is not exponential over [{lo}, {hi}]: "
                f"R^2 = {r2:.4f}"
            )
        sign = 1.0 if c[0] > 0 else -1.0
        out.append((sign * math.exp(float(intercept)), -float(slope)))

    m = g.mode_index
    am = out[m - 1][0]
    if am == 0:
        raise TailFitError("threshold-mode amplitude vanished; cannot normalize")
    return [(a / am, rate) for a, rate in out]


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
