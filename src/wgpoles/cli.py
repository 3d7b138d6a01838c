"""Command line front end: ``wgpoles sweep`` runs the whole experiment.

``sweep`` is the one subcommand.  It runs every lane for every coupling of
a JSON config and writes ``sweep.csv`` and ``report.json``; each report row
records the predictor, the secular pole and every oracle solve with the grid
it used (see :func:`wgpoles.harness.run_experiment`).

Exit codes: 0 on success, 2 for configuration problems or an ``--out``
that cannot be made a directory, 3 when every sweep row failed, 4 when
``--check`` finds a tolerance violation.  A solver that
fails fails only its row, which the report records with the error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from .harness import ConfigError, parse_config, run_experiment

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


def positive_int(text: str) -> int:
    """``int(text)``, refused below 1; argparse reports either failure and exits 2."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    rows, _, report = run_experiment(cfg, out_dir=args.out)
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
        print(f"acceptance check failed: {len(failing)} tolerance checks failed",
              file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wgpoles",
        description="Threshold poles of perturbed waveguides: predictions, "
        "secular solves, and finite-difference cross-checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sweep", help="Full sweep; writes sweep.csv and report.json.")
    sp.add_argument("--config", type=str, required=True,
                    help="Path to the experiment JSON config.")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="Log solver progress.")
    sp.add_argument("--threads", type=positive_int, default=1,
                    help="Accepted and ignored, at least 1: it does not change "
                    "how rows run, which is one after another on one thread.")
    sp.add_argument("--out", type=str, default="out",
                    help="Directory for sweep.csv and report.json (default out).")
    sp.add_argument("--check", action="store_true",
                    help="Exit 4 when a declared tolerance fails.")
    return p


def main(argv: list[str] | None = None) -> int:
    startup = time.process_time()
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    logger.info("start-up: %.3f s CPU from process launch to the command, "
                "OPENBLAS_NUM_THREADS=%s", startup, os.environ.get("OPENBLAS_NUM_THREADS"))
    try:
        return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # an --out that cannot be a directory fails before any row is solved
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


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
