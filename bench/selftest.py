"""Self-test of the benchmark on seconds-long smoke configs.

Run from the repository root::

    python3 bench/selftest.py

Checks, through the same ``run.py`` the benchmark uses: a passing smoke run
prints every declared end-to-end metric (and, traced, every per-layer
metric) with its declared unit; a smoke config with one failing row raises
``fail_ratio`` above 0 and exits nonzero; a directory holding only
``BENCHMARK.json`` and the benchmark exits nonzero without a result; seeds
are deterministic.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads as wl

DECLARED = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_metrics(lines: list[str], section: str) -> dict:
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in DECLARED[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{section} metrics and units match BENCHMARK.json")
    expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
           f"{section} values are numbers")
    expect(any(line.startswith("fail_ratio") for line in lines), "fail_ratio is printed")
    return result


def main() -> int:
    expect(wl.levels_for("window-ladder", 0) == [0, 0, 0, 0], "seed 0 is the nominal config")
    expect(wl.levels_for("regular-secular", 7) == wl.levels_for("regular-secular", 7),
           "a seed gives the same inputs twice")
    expect(len({tuple(wl.levels_for("window-ladder", s)) for s in range(1, 9)}) > 1,
           "seeds vary the inputs")

    code, lines = bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0")
    expect(code == 0, "smoke run exits 0")
    result = check_metrics(lines, "end_to_end")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           "smoke run is correct with no failed operation")
    expect(all(v["value"] > 0 for v in result["metrics"].values()), "end-to-end metrics are nonzero")

    code, lines = bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "1")
    expect(code == 0, "traced smoke run exits 0")
    result = check_metrics(lines, "per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    expect(m["oracle.eigensolves"] == m["harness.eigensolves"] > 0, "eigensolves are traced")
    expect(m["oracle.inner_solves"] > m["oracle.factorizations"] == m["oracle.eigensolves"],
           "inner solves and factorizations are traced under the eigensolves")

    code, lines = bench("--workload", "smoke-fail", "--seed", "0", "--seconds", "1", "--trace", "0")
    result = json.loads(lines[-1])
    expect(code != 0 and not result["correct"], "a failing row makes the run fail")
    expect(result["failed"] / result["attempted"] > 0, "a failing row raises fail_ratio above 0")

    bare = run.WORK_DIR / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", bare)
        code, lines = bench("--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", "0",
                            cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_DIR.rmdir()
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           "without the program the benchmark exits nonzero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
