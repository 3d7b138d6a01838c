"""wgpoles benchmark: CLI sweeps end to end, and a traced run per layer.

Run from the repository root::

    python3 bench/run.py --workload window-ladder --seed 0 --seconds 10 --trace 0

The load is a closed loop with one client: one ``wgpoles.cli sweep --check``
process at a time, each a fresh interpreter with ``PYTHONPATH=src``, repeated
until ``--seconds`` have passed (at least one sweep).  Workloads and their
checks are in ``workloads.py``; metric names and units come from
``BENCHMARK.json``.  Every run first prints an ``environment`` line: cores,
memory, Python, numpy and scipy versions, and each OpenBLAS with its thread
count.  Parent and change must be compared under the same BLAS setting.

The host is a few cores of a shared machine whose speed drifts by tens of
percent over minutes, so raw wall times of the same code spread wider than
any useful bound.  Two things go wrong.  The host withholds the CPU for
seconds at a time (steal): that time passes on the wall clock but not in the
process's CPU time, so both times below count CPU time.  And the CPU itself
runs faster or slower: so both are given at nominal host speed, divided by
how much slower than nominal the fixed reference kernels in ``calibrate.py``,
which do not use the program, ran at the same time.  An untraced sweep is
stopped (SIGSTOP) every ``SAMPLE_EVERY_S`` seconds while one reference round
is timed, then resumed (SIGCONT).  The raw wall and CPU times are printed
beside each sweep.  In ten window-ladder runs on a 2-core cloud host whose
raw wall times ranged from 21 to 36 s, the spread from first to third
quartile, as a share of the median, was 17% for the wall time at nominal
speed and 3% for the CPU time at nominal speed.

``--trace 0`` reports the end-to-end metrics:

- ``sweep_s``: median of the CPU time of the sweep process (user and
  system, all threads) at nominal host speed.  Two workloads run one thread,
  where this is the wall time less what the host withheld; under
  ``--threads 2`` it also sums the threads' CPU time where they overlap;
- ``setup_s``: median, over ``SETUP_REPEATS`` fresh interpreters, of the CPU
  time from launch to the end of ``import wgpoles``, ``parse_config`` and
  ``build_basis`` (one unmeasured launch first fills the bytecode cache), at
  nominal host speed by the reference rounds run before and after each;
- ``peak_rss_mb``: median ``ru_maxrss`` of the sweep process.

``--trace 1`` runs pairs of one untraced and one traced sweep and reports the
per-layer metrics of the traced one, from spans that ``child.py`` records
around the layer entry points, plus ``trace.sweep_s``, the traced sweep's
CPU time, and ``trace.overhead_s``, the traced minus the untraced CPU time.
Neither sweep of a pair is paused, since the spans would count the pauses,
so these are raw CPU times, not scaled to nominal speed.  Layer times are
busy wall time summed over threads, so under ``--threads 2`` they include
time spent waiting for the interpreter lock.

Every sweep is judged: its rows, the CLI exit code and the report's checks,
and the benchmark's own checks against stored values.  ``fail_ratio`` is the
failed share of those operations; a run with any failure prints its result
with ``"correct": false`` and exits 1.  The last line of standard output is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS thread unless the caller set one, for the sweeps (which inherit it)
# and for the reference rounds alike: on two cores the default pool spent
# twice the CPU on window-ladder for no faster sweep, and the thread count
# moves b_slope in its last digits
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import calibrate  # noqa: E402  (imports numpy, after the BLAS setting)
import workloads as wl  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 7
# reference rounds between two set-up probes
SETUP_ROUNDS = 3
# an untraced sweep is paused this often to time a reference round
SAMPLE_EVERY_S = 0.4
# a stuck child is killed so that a run ends within its time limit
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The program could not be set up or run at all; no result is printed."""


@dataclass
class Sweep:
    seconds: float  # CPU time at nominal host speed
    wall_seconds: float
    cpu_seconds: float
    host_factor: float
    rss_mb: float
    attempted: int
    failed: int
    doc: dict | None


@dataclass
class Child:
    """A finished child process."""

    seconds: float  # wall time, pauses left out
    code: int
    usage: resource.struct_rusage
    rounds: list[tuple] = field(default_factory=list)  # reference rounds timed in its pauses


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _watch(proc: subprocess.Popen, pidfd: int, calibrator: calibrate.Calibrator | None,
           rounds: list[tuple]) -> tuple[float, int, resource.struct_rusage]:
    """Wait for ``proc``; with a calibrator, pause it every ``SAMPLE_EVERY_S`` to time a round.

    Returns the seconds it stood paused, its wait status and its rusage.
    """
    paused = 0.0
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        wait = deadline - time.monotonic()
        if calibrator is not None:
            wait = min(wait, SAMPLE_EVERY_S)
        if select.select([pidfd], [], [], max(wait, 0.0))[0]:
            break
        if time.monotonic() >= deadline:
            proc.kill()
            break
        stop = time.monotonic()
        os.kill(proc.pid, signal.SIGSTOP)
        _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            return paused, status, usage  # it ended before it stopped
        rounds.append(calibrator.timed_round())
        os.kill(proc.pid, signal.SIGCONT)
        paused += time.monotonic() - stop
    _, status, usage = os.wait4(proc.pid, 0)
    return paused, status, usage


def _run_child(cmd: list[str], stdout_path: Path,
               calibrator: calibrate.Calibrator | None = None) -> Child:
    """Run ``cmd`` to completion.

    With a ``calibrator``, the child is stopped every ``SAMPLE_EVERY_S``, one
    round of the reference kernels is timed while it stands still, and it is
    resumed; the pauses are left out of its wall time, and the rounds tell how
    fast the host ran while the child did.
    """
    rounds: list[tuple] = []
    with open(stdout_path, "w") as out, open(stdout_path.with_suffix(".err"), "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            paused, status, usage = _watch(proc, pidfd, calibrator, rounds)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(end - start - paused, proc.returncode, usage, rounds)


def measure_setup(config: Path, work: Path) -> tuple[float, dict]:
    """CPU seconds from launch to the end of set-up, and the environment."""
    log = work / "setup.out"
    child = _run_child([sys.executable, str(BENCH_DIR / "child.py"), "setup", str(config)], log)
    lines = log.read_text().splitlines()
    if child.code != 0 or len(lines) < 2:
        raise BenchError(
            f"set-up probe exited {child.code}: {log.with_suffix('.err').read_text()[-2000:]}"
        )
    return float(lines[0]), json.loads(lines[1])


def measure_setups(config: Path, work: Path, calibrator: calibrate.Calibrator) -> list[float]:
    """Set-up seconds of ``SETUP_REPEATS`` probes, each at nominal host speed.

    A probe lasts about half a second, too short to pause; reference rounds
    run between probes instead, and each probe is scaled by the rounds on
    either side of it.
    """
    def rounds() -> list[tuple]:
        return [calibrator.timed_round() for _ in range(SETUP_ROUNDS)]

    before = rounds()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, _ = measure_setup(config, work)
        after = rounds()
        setups.append(seconds / calibrate.host_factor(before + after))
        before = after
    return setups


def judge(name: str, levels: list[int], code: int, out: Path, reference: dict) -> tuple[int, int, dict | None]:
    """Operations attempted and failed in one sweep, and its report."""
    report = out / "report.json"
    if not report.exists():
        print(f"  fail: no report; CLI exit code {code}", file=sys.stderr)
        return len(levels) + 1, len(levels) + 1, None
    doc = json.loads(report.read_text())
    ops = [("cli_exit", code == 0, f"exit code {code}")]
    ops += [(f"row[{i}]", r["error"] is None, str(r["error"])) for i, r in enumerate(doc["rows"])]
    # row_ok repeats the row errors counted above
    ops += [
        (f"report:{c['name']}" + (f"[{c['row']}]" if "row" in c else ""), c["pass"], c["detail"])
        for c in doc["checks"]
        if c["name"] != "row_ok"
    ]
    ops += wl.check_rows(name, levels, doc, reference)
    failed = [(n, d) for n, ok, d in ops if not ok]
    for n, d in failed:
        print(f"  fail: {n}: {d}", file=sys.stderr)
    return len(ops), len(failed), doc


def run_sweep(name: str, levels: list[int], config: Path, work: Path, reference: dict,
              spans: Path | None = None, calibrator: calibrate.Calibrator | None = None) -> Sweep:
    """One sweep, judged; ``spans`` traces it, ``calibrator`` pauses it (see ``_run_child``)."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    args = ["sweep", "--config", str(config), "--out", str(out), "--check"]
    threads = wl.SPECS[name].threads
    if threads > 1:
        args += ["--threads", str(threads)]
    if spans is None:
        cmd = [sys.executable, "-m", "wgpoles.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), "trace", str(spans), *args]
    child = _run_child(cmd, work / "sweep.out", calibrator)
    attempted, failed, doc = judge(name, levels, child.code, out, reference)
    usage = child.usage
    cpu = usage.ru_utime + usage.ru_stime
    # a sweep that ended before its first pause keeps its raw CPU time
    factor = calibrate.host_factor(child.rounds) if child.rounds else 1.0
    return Sweep(cpu / factor, child.seconds, cpu, factor, usage.ru_maxrss / 1024.0,
                 attempted, failed, doc)


def layer_metrics(spans: list[list], doc: dict | None) -> dict[str, float]:
    """Per-layer totals from the spans of one traced sweep."""
    parent_of = {s[3]: s[4] for s in spans}
    name_of = {s[3]: s[0] for s in spans}

    def under(span: list, ancestor: str) -> bool:
        p = span[4]
        while p:
            if name_of.get(p) == ancestor:
                return True
            p = parent_of.get(p, 0)
        return False

    count: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    sizes: dict[str, list] = defaultdict(list)
    for span in spans:
        name, start, end, _, _, size = span
        if name in ("oracle.cholesky_banded", "oracle.cho_solve_banded"):
            if not under(span, "oracle.lowest_eigenpairs"):
                continue
        if name == "regular_pole.solve" and not under(span, "regular_pole.solve_secular"):
            continue
        count[name] += 1
        busy[name] += end - start
        if size is not None:
            sizes[name].append(size)

    eigensolves = count["oracle.lowest_eigenpairs"]
    inner = count["oracle.cho_solve_banded"]
    fd = sizes["oracle.build_fd_operator"]
    return {
        "oracle.eigensolves": eigensolves,
        "oracle.inner_solves": inner,
        "oracle.inner_solves_per_eigenpair": inner / eigensolves if eigensolves else 0.0,
        "oracle.inner_solve_s": busy["oracle.cho_solve_banded"],
        "oracle.factorizations": count["oracle.cholesky_banded"],
        "oracle.factor_s": busy["oracle.cholesky_banded"],
        "oracle.eigen_self_s": busy["oracle.lowest_eigenpairs"]
        - busy["oracle.cholesky_banded"] - busy["oracle.cho_solve_banded"],
        "oracle.assemble_s": busy["oracle.build_fd_operator"],
        "oracle.unknowns": sum(n for n, _ in fd),
        "oracle.max_unknowns": max((n for n, _ in fd), default=0),
        "oracle.band_bytes_max": max(((bw + 1) * n * 8 for n, bw in fd), default=0),
        "regular_pole.secular_s": busy["regular_pole.solve_secular"],
        "regular_pole.secular_iterations": sum(sizes["regular_pole.solve_secular"]),
        "regular_pole.bs_solves": count["regular_pole.solve"],
        "regular_pole.bs_solve_s": busy["regular_pole.solve"],
        "regular_pole.bs_unknowns": max(sizes["regular_pole.solve"], default=0),
        "modesum.assemble_s": busy["modesum.assemble"],
        "modesum.assemble_calls": count["modesum.assemble"],
        "modesum.matrix_bytes": max(sizes["modesum.assemble"], default=0),
        "harness.eigensolves": count["harness.truncated_binding"],
        "harness.row_errors": sum(r["error"] is not None for r in doc["rows"]) if doc else 0,
        "harness.report_s": busy["harness.compute_fits"] + busy["harness.emit_report"]
        + busy["harness.render_csv"],
        "predict.predict_s": busy["harness.predict_row"],
        "transverse.basis_s": busy["transverse.build_basis"],
    }


def _median(values) -> float:
    return float(statistics.median(values))


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, int, int]:
    reference = wl.load_reference()
    levels = wl.levels_for(name, seed)
    config = work / "config.json"
    config.write_text(json.dumps(wl.make_config(name, levels), indent=1))
    shifts = [f"{100 * wl.JITTER_STEP * lv:+g}%" for lv in levels]
    print(f"workload {name} seed {seed}: couplings moved by {' '.join(shifts)}")

    _, env = measure_setup(config, work)  # also fills the bytecode cache
    print("environment " + json.dumps(env, sort_keys=True))
    attempted = failed = 0
    metrics: dict[str, float] = {}
    if not trace:
        calibrator = calibrate.Calibrator()
        setups = measure_setups(config, work, calibrator)
        sweeps: list[Sweep] = []
        start = time.monotonic()
        while not sweeps or time.monotonic() - start < seconds:
            s = run_sweep(name, levels, config, work, reference, calibrator=calibrator)
            print(f"sweep {len(sweeps) + 1}: {s.seconds:.3f} s CPU at nominal speed "
                  f"({s.wall_seconds:.3f} s wall, {s.cpu_seconds:.3f} s CPU, "
                  f"host factor {s.host_factor:.3f}), "
                  f"{s.rss_mb:.1f} MB, "
                  f"{s.failed}/{s.attempted} operations failed")
            sweeps.append(s)
        attempted = sum(s.attempted for s in sweeps)
        failed = sum(s.failed for s in sweeps)
        metrics = {
            "sweep_s": _median(s.seconds for s in sweeps),
            "setup_s": _median(setups),
            "peak_rss_mb": _median(s.rss_mb for s in sweeps),
        }
        print(f"samples: {len(sweeps)} sweeps, {len(setups)} set-ups")
    else:
        per_pair: list[dict] = []
        spans_path = work / "spans.json"
        start = time.monotonic()
        while not per_pair or time.monotonic() - start < seconds:
            plain = run_sweep(name, levels, config, work, reference)
            traced = run_sweep(name, levels, config, work, reference, spans=spans_path)
            attempted += plain.attempted + traced.attempted
            failed += plain.failed + traced.failed
            m = layer_metrics(json.loads(spans_path.read_text()), traced.doc)
            m["trace.sweep_s"] = traced.seconds
            m["trace.overhead_s"] = traced.seconds - plain.seconds
            print(f"pair {len(per_pair) + 1}: untraced {plain.seconds:.3f} s CPU, "
                  f"traced {traced.seconds:.3f} s CPU")
            per_pair.append(m)
        metrics = {k: _median(m[k] for m in per_pair) for k in per_pair[0]}
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.SPECS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a child may stand stopped when the run is cut: exit through the cleanup
    # in _run_child, which kills and reaps it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    try:
        declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "wgpoles" / "__init__.py").is_file():
            raise BenchError(f"no wgpoles package under {ROOT / 'src'}; run from the repository root")
        work = WORK_DIR / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            metrics, attempted, failed = measure(
                args.workload, args.seed, args.seconds, bool(args.trace), work
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK_DIR.rmdir()  # only when no other run is using it
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"benchmark error: metrics {sorted(metrics)} differ from the declared "
              f"{sorted(units)}", file=sys.stderr)
        return 2
    fail_ratio = failed / attempted
    for key in sorted(metrics):
        print(f"{key:36s} {metrics[key]:.6g} {units[key]}")
    print(f"{'fail_ratio':36s} {fail_ratio:.6g} ratio ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
