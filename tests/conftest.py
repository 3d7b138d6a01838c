"""Shared test helpers."""

import wgpoles  # noqa: F401  (first: it sets the BLAS thread default before numpy loads)
import numpy as np


def mode_profiles(kern, g: np.ndarray, k: complex, raw: bool = False) -> np.ndarray:
    """Per-mode profiles ``c_j(x1[i])`` of a field ``sum_j c_j(x1) phi_j(x2)``.

    Shape ``(count, n_long)``, on the box's ``x1`` nodes, applied with the
    assembled blocks of every mode: the field ``A~ g``, whose threshold mode
    carries the regularized kernel, or with ``raw`` the resolvent's
    ``A(k) g``, which adds back the constant ``<g, phi_m>/(2k)`` that the
    regularized kernel drops.
    """
    src = (kern.phi * kern.w2) @ np.asarray(g).T
    prof = np.einsum("jil,jl->ji", kern.assemble(k), src)
    if not raw:
        return prof
    lift = np.zeros((kern.count, 1), dtype=np.result_type(prof, k))
    lift[kern.m - 1] = kern.project_sources(g)[kern.m - 1].sum() / (2.0 * k)
    return prof + lift
