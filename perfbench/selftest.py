"""Self-test of the benchmark itself, in about a minute.

    python3 perfbench/selftest.py        (from the root of a voxsphere checkout)

* Runs one traced iteration of every workload at a tiny size; each must
  pass its output checks and leave a trace for every process.
* Changes one row of each workload's output and checks that the workload's
  own check counts it as a failed operation (fail_ratio above 0).
* Checks that BENCHMARK.json names exactly the metrics run.py reports.
* Checks that run.py exits non-zero, printing no result, in a directory
  holding only the benchmark and no voxsphere source.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads


def _corrupt(path: Path) -> None:
    """Change one row: fail the first passing check of a verify report,
    otherwise bump the last digit of the middle line."""
    lines = path.read_text().splitlines(keepends=True)
    passing = [i for i, ln in enumerate(lines) if ln.startswith("[PASS]")]
    if passing:
        i = passing[0]
        lines[i] = "[FAIL]" + lines[i][len("[PASS]"):]
    else:
        i = len(lines) // 2
        body = lines[i].rstrip("\n")
        lines[i] = body[:-1] + str((int(body[-1]) + 1) % 10) + "\n"
    path.write_text("".join(lines))


def _bare_run_refused(root: Path, tmp: Path) -> bool:
    bare = tmp / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "counts",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    return proc.returncode != 0 and '"correct"' not in proc.stdout


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "voxsphere" / "__init__.py").is_file():
        print(f"error: {root} holds no voxsphere source (src/voxsphere)",
              file=sys.stderr)
        return 2
    vs = run.load_voxsphere(root)
    tmp = root / ".perfbench_tmp" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    problems = []
    try:
        runner = run.Runner(root, tmp)
        for name in workloads.NAMES:
            steps = workloads.build(name, 1, tmp, vs, tiny=True)
            rec = runner.iteration(steps, traced=True)
            print(f"{name}: {rec['attempted']} operations, {rec['failed']} failed, "
                  f"{rec['wall_s']:.2f} s")
            if rec["attempted"] == 0 or rec["failed"] or len(rec["traces"]) != len(steps):
                problems.append(f"{name}: tiny run failed")
            _corrupt(steps[0].out)
            attempted, failed = steps[0].check(steps[0].out, 0)
            if not failed:
                problems.append(f"{name}: a corrupted row passed the check")

        spec = json.loads((root / "BENCHMARK.json").read_text())
        if [m["name"] for m in spec["per_layer"]] != list(run.per_layer_units()):
            problems.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
        if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
            problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
        if not _bare_run_refused(root, tmp):
            problems.append("run.py did not refuse a directory without voxsphere")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
