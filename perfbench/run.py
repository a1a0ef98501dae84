"""The voxsphere benchmark: one workload, run for a fixed time, outputs checked.

    python3 perfbench/run.py --workload {counts,queries,generate,verify}
        --seed N --seconds S --trace {0,1}

Run it from the root of a voxsphere checkout: the program under test is the
source in ./src, started in a fresh interpreter for every operation, one
process at a time, with OPENBLAS_NUM_THREADS=1.  Workloads and their checks are in workloads.py.

With --trace 0 the end-to-end metrics are reported:

* wall_s       median wall time of one iteration (spawn to exit of each of
               its processes, summed over them)
* peak_rss_mb  highest peak RSS of any process of the workload
* setup_s      median time to start the interpreter and `import voxsphere`,
               sampled after every iteration so that it sees the same
               machine conditions as wall_s

and, next to them, fail_ratio = failed / attempted operations (also in the
`attempted` and `failed` fields of the result line).

With --trace 1, iterations alternate between traced and untraced and the
per-layer metrics are reported: the self time of every span in spans.SPANS
(`<module>.<function>.s`), exact work counts, derived ratios, `import.s`,
and `trace.overhead_s` (median traced minus median untraced wall time).
The work counts must repeat exactly across the traced iterations.

The last line of standard output is the result as one JSON object.  Lines
before it give the environment stamp and a readable summary.  The exit code
is 2 when the current directory is not a voxsphere checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import SPANS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
BASELINE = HERE / "baseline.json"

SETUP_SPAWNS = 3  # import-time samples after each untraced iteration

# Work counts that must repeat exactly for one workload and seed.
EXACT_COUNTS = ("kernels.size_tables.radii", "lattice.canonicalize.rows_in",
                "circle.circle_pixels.calls", "circle.disc_pixels.calls",
                "io.emit.bytes", "kernels.flood_outside.cells")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{mod}.{fn}.s": "s" for mod, fns in SPANS.items() for fn in fns}
    units.update({name: "count" for name in EXACT_COUNTS})
    units.update({"analysis.table_build_ratio": "ratio",
                  "lattice.canonicalize.dedup_ratio": "ratio",
                  "circle.circle_pixels.distinct_ratio": "ratio",
                  "import.s": "s", "trace.overhead_s": "s"})
    return units


class Runner:
    """Spawns the operations of one workload and keeps their records."""

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.tmp = tmp
        self.env = dict(os.environ)
        # One BLAS thread: the workloads are sequential, and numpy's thread
        # pool start-up otherwise makes import time depend on whether the
        # second CPU happens to be free.
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))

    def spawn(self, argv: list[str], stdout: Path) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MB, exit code) of one process."""
        err = self.tmp / "stderr.txt"
        with open(stdout, "wb") as out, open(err, "wb") as errfh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=errfh,
                                    env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(f"exit {proc.returncode}: {' '.join(argv)}\n"
                             + err.read_text()[-2000:])
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def import_times(self, n: int) -> list[float]:
        argv = [sys.executable, "-c", "import voxsphere"]
        return [self.spawn(argv, self.tmp / "stdout.txt")[0] for _ in range(n)]

    def iteration(self, steps, traced: bool) -> dict:
        rec = {"wall_s": 0.0, "rss_mb": 0.0, "attempted": 0, "failed": 0,
               "traces": []}
        for i, step in enumerate(steps):
            step.out.unlink(missing_ok=True)
            argv = [sys.executable, str(CHILD)]
            trace_file = self.tmp / f"trace-{i}.json"
            if traced:
                trace_file.unlink(missing_ok=True)
                argv += ["--trace", str(trace_file)]
            stdout = step.out if step.stdout else self.tmp / "stdout.txt"
            wall, rss, rc = self.spawn(argv + step.argv, stdout)
            attempted, failed = step.check(step.out, rc)
            rec["wall_s"] += wall
            rec["rss_mb"] = max(rec["rss_mb"], rss)
            rec["attempted"] += attempted
            rec["failed"] += failed
            if traced and trace_file.is_file():
                rec["traces"].append(json.loads(trace_file.read_text()))
        return rec


def layer_values(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all its processes)."""
    self_s, counts = {}, {}
    for tr in traces:
        for name, v in tr["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v
        calls = {f"{name}.calls": v for name, v in tr["calls"].items()}
        for name, v in (tr["counts"] | calls).items():
            counts[name] = counts.get(name, 0) + v

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts.get(den) else 0.0

    values = {f"{mod}.{fn}.s": self_s.get(f"{mod}.{fn}", 0.0)
              for mod, fns in SPANS.items() for fn in fns}
    values.update({name: counts.get(name, 0) for name in EXACT_COUNTS})
    values["analysis.table_build_ratio"] = ratio(
        "analysis.tables_built", "analysis.tables_final")
    values["lattice.canonicalize.dedup_ratio"] = ratio(
        "lattice.canonicalize.rows_out", "lattice.canonicalize.rows_in")
    values["circle.circle_pixels.distinct_ratio"] = ratio(
        "circle.circle_pixels.radii", "circle.circle_pixels.calls")
    values["import.s"] = statistics.fmean(tr["import_s"] for tr in traces) if traces else 0.0
    return values


def measure(runner: Runner, steps, seconds: float, trace: bool) -> dict:
    """Run iterations until the next one would end past `seconds`.

    Untraced runs make at least one iteration and time SETUP_SPAWNS imports
    after each.  Traced runs alternate traced and untraced iterations,
    starting traced, and make at least two traced and one untraced.
    """
    runner.import_times(1)  # warm bytecode and file caches
    t0 = time.perf_counter()
    runs = {False: [], True: [], "setup_s": []}
    n = 0
    while True:
        elapsed = time.perf_counter() - t0
        enough = (len(runs[True]) >= 2 and runs[False]) if trace else n >= 1
        if enough and elapsed + elapsed / n > seconds:
            break
        traced = trace and n % 2 == 0
        runs[traced].append(runner.iteration(steps, traced))
        if not trace:
            runs["setup_s"] += runner.import_times(SETUP_SPAWNS)
        n += 1
    return runs


def environment(root: Path, seed: int, vs) -> dict:
    digest = hashlib.sha256()
    src = root / "src" / "voxsphere"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    env = {"commit": commit, "src_sha256": digest.hexdigest(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "using_numba": vs.kernels.using_numba(),
           "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}
    if BASELINE.is_file():
        base = json.loads(BASELINE.read_text())["env"]
        # numba and numpy kernels differ by orders of magnitude
        env["comparable_to_baseline"] = base["using_numba"] == env["using_numba"]
    return env


def load_voxsphere(root: Path):
    sys.path.insert(0, str(root / "src"))
    import voxsphere.analysis
    import voxsphere.kernels
    import voxsphere.solid
    import voxsphere.sphere
    return voxsphere


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "voxsphere" / "__init__.py").is_file():
        print(f"error: {root} holds no voxsphere source (src/voxsphere)",
              file=sys.stderr)
        return 2
    vs = load_voxsphere(root)
    tmp = root / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        runner = Runner(root, tmp)
        env = environment(root, args.seed, vs)
        steps = workloads.build(args.workload, args.seed, tmp, vs)
        runs = measure(runner, steps, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    every = runs[False] + runs[True]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    walls = sorted(r["wall_s"] for r in runs[False])
    print("env " + json.dumps(env))
    if args.trace:
        per_iter = [layer_values(r["traces"]) for r in runs[True]]
        attempted += 1  # the determinism self-check
        if any(it[name] != per_iter[0][name] for it in per_iter for name in EXACT_COUNTS):
            failed += 1
            print("determinism: work counts differ between traced iterations")
        units = per_layer_units()
        # times are medians; counts and their ratios repeat exactly
        values = {name: (statistics.median(it[name] for it in per_iter)
                         if units[name] == "s" else per_iter[0][name])
                  for name in units if name in per_iter[0]}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in runs[True]) - statistics.median(walls))
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        print(f"{args.workload}: {len(runs[True])} traced and {len(walls)} untraced iterations")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": max(r["rss_mb"] for r in every), "unit": "MB"},
            "setup_s": {"value": statistics.median(runs["setup_s"]), "unit": "s"},
        }
        print(f"{args.workload}: {len(walls)} iterations, wall_s min {walls[0]:.4f} "
              f"max {walls[-1]:.4f}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {failed / attempted:.6g} ({failed}/{attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
