"""Child-process entry points of the benchmark; run with ``PYTHONPATH=src``.

``setup CONFIG``
    Imports ``wgpoles``, parses ``CONFIG`` and builds the transverse basis the
    sweep would build, then prints ``time.process_time()``, the CPU seconds
    the process has used since launch, and one JSON line describing the
    numerical environment.

``trace SPANS ARGS...``
    Runs ``wgpoles.cli.main(ARGS)`` with the layer entry points wrapped from
    outside, and writes the recorded spans to ``SPANS`` as JSON when the CLI
    returns.  Each span is ``[name, start, end, id, parent, info]``; ``parent``
    is the id of the enclosing span on the same thread (0 for none) and
    ``info`` is a size the layer reported, or null.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import os
import sys
import threading
import time


def _blas_threads(package) -> int | None:
    """Thread count of the OpenBLAS a package ships, or None if not found."""
    for path in glob.glob(os.path.dirname(package.__file__) + ".libs/*openblas*"):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    def blas(package) -> dict:
        info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version"),
                "threads": _blas_threads(package)}

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup(config: str) -> None:
    import wgpoles

    cfg = wgpoles.parse_config(config)
    count = max(cfg.m + 8, int(cfg.perturbation.get("modes", 0)))
    wgpoles.build_basis(cfg.cross_section, count)
    done = time.process_time()
    print(repr(done))
    print(json.dumps(environment(), sort_keys=True))


class Tracer:
    """Spans of wrapped callables, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = iter(range(1, 2**62))
        self._id_lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``info(args, result)`` runs after the span closes, so what it costs is
        tracing overhead, not layer time.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._id_lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                size = info(args, result) if done and info is not None else None
                self.spans.append([name, start, end, sid, parent, size])

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _bandwidth(op) -> int:
    import numpy as np

    A = op.matrix.tocsc()
    cols = np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    return int(np.max(A.indices - cols))


def install(tracer: Tracer) -> None:
    import numpy.linalg
    import scipy.linalg

    from wgpoles import harness, modesum

    # harness binds these names at import; oracle reaches the banded
    # factorization through ``scipy.linalg`` and regular_pole the dense solve
    # through ``numpy.linalg``, both looked up at call time
    tracer.wrap(harness, "build_fd_operator", "oracle.build_fd_operator",
                lambda a, op: [op.size, _bandwidth(op)])
    tracer.wrap(harness, "lowest_eigenpairs", "oracle.lowest_eigenpairs",
                lambda a, sol: a[0].size)
    tracer.wrap(scipy.linalg, "cholesky_banded", "oracle.cholesky_banded")
    tracer.wrap(scipy.linalg, "cho_solve_banded", "oracle.cho_solve_banded")
    tracer.wrap(harness, "solve_secular", "regular_pole.solve_secular",
                lambda a, pole: pole.iterations)
    tracer.wrap(numpy.linalg, "solve", "regular_pole.solve", lambda a, x: a[0].shape[0])
    tracer.wrap(modesum.ModeSumKernel, "assemble", "modesum.assemble",
                lambda a, M: M.nbytes)
    tracer.wrap(harness, "truncated_binding", "harness.truncated_binding")
    tracer.wrap(harness, "predict_row", "harness.predict_row")
    tracer.wrap(harness, "build_basis", "transverse.build_basis")
    for report_stage in ("compute_fits", "emit_report", "render_csv"):
        tracer.wrap(harness, report_stage, f"harness.{report_stage}")


def trace(spans_path: str, argv: list[str]) -> int:
    from wgpoles import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    mode, arg, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "setup":
        setup(arg)
    elif mode == "trace":
        sys.exit(trace(arg, rest))
    else:
        sys.exit(f"unknown mode {mode!r}")
