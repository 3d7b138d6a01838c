"""Write ``reference.json``: the stored bindings the benchmark checks against.

Run from the repository root::

    python3 bench/make_reference.py

For every workload and jitter level it runs one CLI sweep with all couplings
at that level, requires the sweep to pass its own ``--check`` with no row
error, and stores each row's ``b_oracle`` and ``lambda_pole``.  Since rows
are computed independently, a seed that mixes levels finds every row's
value in the table.  Run it again only when a change is meant to move the
numbers, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    table: dict[str, dict] = {}
    work = run.WORK_DIR / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name in (*wl.BENCHMARK_WORKLOADS, "smoke"):
            n = len(wl.SPECS[name].nominal)
            entry = {"b_oracle": [[None] * len(wl.LEVELS) for _ in range(n)],
                     "lambda_pole": [[None] * len(wl.LEVELS) for _ in range(n)]}
            for col, level in enumerate(wl.LEVELS):
                config = work / "config.json"
                config.write_text(json.dumps(wl.make_config(name, [level] * n)))
                out = work / "out"
                shutil.rmtree(out, ignore_errors=True)
                cmd = [sys.executable, "-m", "wgpoles.cli", "sweep", "--config", str(config),
                       "--out", str(out), "--check", "--threads", str(wl.SPECS[name].threads)]
                child = run._run_child(cmd, work / "sweep.out")
                code, seconds = child.code, child.seconds
                doc = json.loads((out / "report.json").read_text())
                errors = [r["error"] for r in doc["rows"] if r["error"] is not None]
                if code != 0 or errors:
                    failing = [c for c in doc["checks"] if not c["pass"]]
                    print(f"{name} level {level}: exit {code}, {failing}", file=sys.stderr)
                    return 1
                for i, row in enumerate(doc["rows"]):
                    entry["b_oracle"][i][col] = row["b_oracle"]
                    entry["lambda_pole"][i][col] = row["lambda_pole"]
                print(f"{name} level {level:+d}: {seconds:.1f} s, fits {doc['fits']}")
            table[name] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table["smoke-fail"] = table["smoke"]
    wl.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
