"""Suite-wide settings, applied before numpy is imported, and shared test helpers."""

import os

# one BLAS thread, as the benchmark runs: the window form's dense products
# are large enough for OpenBLAS to thread, which spends more CPU for no
# faster test
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread setting)


def mode_profiles(kern, g: np.ndarray, k: complex, raw: bool = False) -> np.ndarray:
    """Per-mode profiles ``c_j(x1[i])`` of a field ``sum_j c_j(x1) phi_j(x2)``.

    Shape ``(count, n_long)``, on the box's ``x1`` nodes, applied with the
    assembled blocks of every mode: the field ``A~ g``, whose threshold mode
    carries the regularized kernel, or with ``raw`` the resolvent's
    ``A(k) g``, which adds back the constant ``<g, phi_m>/(2k)`` that the
    regularized kernel drops.
    """
    src = (kern.phi * kern.region.w2) @ np.asarray(g).T
    prof = np.einsum("jil,jl->ji", kern.assemble(k), src)
    if not raw:
        return prof
    lift = np.zeros((kern.count, 1), dtype=np.result_type(prof, k))
    lift[kern.m - 1] = kern.project_sources(g)[kern.m - 1].sum() / (2.0 * k)
    return prof + lift
