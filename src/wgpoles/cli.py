"""Command line front end for the sweep pipeline and its individual stages.

Subcommands mirror the pipeline: ``basis`` (transverse eigenpairs), ``pole``
(secular solve per coupling), ``asym`` (leading-order predictions),
``oracle`` (single truncated-guide bindings), and ``sweep`` (full run
writing CSV and JSON artifacts).

Exit codes: 0 on success, 2 for configuration problems, 3 when a solver
fails to converge or ``pole`` finds a pole its classification rules do not
cover, 4 when ``sweep --check`` finds a tolerance violation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys
import time

from .harness import (
    REGULAR_POTENTIAL,
    ConfigError,
    basis_size,
    parse_config,
    predict_row,
    regular_inputs,
    run_experiment,
    truncated_binding,
)
from .oracle import SolverError
from .regular_pole import (
    AmbiguousClassificationError,
    IterationDivergedError,
    solve_secular,
)
from .transverse import build_basis

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


class _CheckFailed(RuntimeError):
    """Internal signal: declared tolerances were violated under ``--check``."""


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, required=True,
                   help="Path to the experiment JSON config.")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="Log solver progress.")


def positive_int(text: str) -> int:
    """``int(text)``, refused below 1; argparse reports either failure and exits 2."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_basis(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    basis = build_basis(cfg.cross_section, basis_size(cfg))
    print(f"cross section: width {cfg.cross_section.width:g}, {cfg.cross_section.bc}")
    print(f"{'j':>4} {'mu_j':>18} {'wall value':>14} {'wall slope':>14}")
    for j in range(basis.count):
        print(
            f"{j + 1:>4} {basis.mu[j]:>18.12f} "
            f"{basis.wall_value[j]:>14.8f} {basis.wall_slope[j]:>14.8f}"
        )
    return EXIT_OK


def _cmd_pole(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    if cfg.scenario != REGULAR_POTENTIAL:
        raise ConfigError(f"pole subcommand needs a {REGULAR_POTENTIAL} config")
    basis = build_basis(cfg.cross_section, basis_size(cfg))
    kernel, V = regular_inputs(cfg, basis)
    print(f"{'epsilon':>10} {'Re k':>16} {'Im k':>12} {'lambda':>16} "
          f"{'class':>14} {'iters':>6}")
    for eps in cfg.epsilons:
        p = solve_secular(V, eps, kernel)
        print(
            f"{eps:>10.6g} {p.k.real:>16.10g} {p.k.imag:>12.4g} "
            f"{p.lam.real:>16.10g} {p.classification:>14} {p.iterations:>6}"
        )
    return EXIT_OK


def _cmd_asym(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    basis = build_basis(cfg.cross_section, basis_size(cfg))
    # one potential for every coupling of a regular config
    V = regular_inputs(cfg, basis)[1] if cfg.scenario == REGULAR_POTENTIAL else None
    print(f"{'epsilon':>10} {'k lead':>16} {'Im k lead':>14} {'lambda pred':>16} "
          f"{'class':>14}")
    for eps in cfg.epsilons:
        row = predict_row(cfg, eps, basis, V)
        print(
            f"{eps:>10.6g} {row.k_re:>16.10g} {row.k_im:>14.6g} "
            f"{row.lambda_pred:>16.10g} {row.classification or '-':>14}"
        )
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    print(f"{'epsilon':>10} {'L':>8} {'h_long':>10} {'h_trans':>10} "
          f"{'half-width':>10} {'binding':>18}")
    for i, eps in enumerate(cfg.epsilons):
        L = cfg.oracle["L"][i][-1]
        try:
            b, s = truncated_binding(cfg, eps, L, cfg.oracle["h"][0])
        except ValueError as exc:  # the config describes an invalid guide
            raise ConfigError(f"epsilon {eps:g}, L {L:g}: {exc}") from exc
        width = s["feature_half_width"]
        width = "-" if width is None else f"{width:.6g}"
        print(f"{eps:>10.6g} {L:>8g} {s['h_long']:>10.6g} {s['h_trans']:>10.6g} "
              f"{width:>10} {b:>18.12g}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    rows, _, report = run_experiment(cfg, out_dir=args.out, threads=args.threads)
    if rows and all(r.error is not None for r in rows):
        print("every sweep row failed; see the report for details", file=sys.stderr)
        return EXIT_SOLVER
    for r in rows:
        status = r.error or r.classification or "-"
        b = "-" if r.b_oracle is None else f"{r.b_oracle:.6g}"
        print(f"eps {r.epsilon:<10g} b_oracle {b:<14} {status}")
    print(f"artifacts in {args.out}/")
    doc = json.loads(report)
    if args.check and not doc["pass"]:
        failing = [c for c in doc["checks"] if not c["pass"]]
        for c in failing:
            where = f" (row {c['row']})" if "row" in c else ""
            print(f"check failed: {c['name']}{where}: {c['detail']}",
                  file=sys.stderr)
        raise _CheckFailed(f"{len(failing)} tolerance checks failed")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wgpoles",
        description="Threshold poles of perturbed waveguides: predictions, "
        "secular solves, and finite-difference cross-checks.",
        epilog="Run with OPENBLAS_NUM_THREADS=1 in the environment: the solves "
        "are too small to gain from BLAS threads, which only add CPU time.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("basis", help="Transverse eigenvalues and wall traces.")
    _add_common(sp)
    sp.set_defaults(func=_cmd_basis)

    sp = sub.add_parser("pole", help="Secular pole solve for each coupling.")
    _add_common(sp)
    sp.set_defaults(func=_cmd_pole)

    sp = sub.add_parser("asym", help="Leading-order pole predictions.")
    _add_common(sp)
    sp.set_defaults(func=_cmd_asym)

    sp = sub.add_parser("oracle", help="Single truncated-guide bindings.")
    _add_common(sp)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("sweep", help="Full sweep; writes sweep.csv and report.json.")
    _add_common(sp)
    sp.add_argument("--threads", type=positive_int, default=1,
                    help="Worker threads for sweep rows, at least 1 (default 1).")
    sp.add_argument("--out", type=str, default="out",
                    help="Directory for sweep.csv and report.json (default out).")
    sp.add_argument("--check", action="store_true",
                    help="Exit 4 when a declared tolerance fails.")
    sp.set_defaults(func=_cmd_sweep)

    return p


def _steady_heap() -> None:
    """Fix glibc malloc's mmap and trim thresholds for the rest of the process.

    A sweep allocates and frees arrays of a few sizes thousands of times;
    the secular solve's 129 x 129 blocks sit just above malloc's initial
    128 KiB mmap threshold.  By default glibc raises that threshold as it
    frees mapped blocks, and gives the top of the heap back to the kernel
    once twice the threshold lies free there.  Whether a block reuses heap
    pages or faults in fresh ones then depends on the heap's layout, which
    even the length of the ``--out`` path shifts: the nominal regular grid
    took 5,500 or 9,000 page faults by that alone.  Both thresholds are
    fixed at the highest values the dynamic ones reach (32 MiB, trimming at
    64 MiB), so every smaller array comes from a heap that is not trimmed,
    whatever its layout.  Other C libraries are left as they are.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD; mallopt returns 0 on failure
    if mallopt(-3, 32 << 20):
        mallopt(-1, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    startup = time.process_time()
    _steady_heap()
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    logger.info("start-up: %.3f s CPU from process launch to the command", startup)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IterationDivergedError, SolverError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AmbiguousClassificationError as exc:
        print(f"classification error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except _CheckFailed as exc:
        print(f"acceptance check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


def run() -> None:
    """Process entry point of ``wgpoles`` and ``python -m wgpoles.cli``.

    Runs :func:`main`, then ends the process with its exit code without
    interpreter finalization, which tears down every imported module and
    costs a sweep about as much CPU as its window solves: logging is shut
    down and both standard streams are flushed first, and the artifacts are
    closed files by then.  An uncaught exception still exits normally.
    In-process callers use :func:`main`, which returns the code.
    """
    code = main()
    logging.shutdown()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
