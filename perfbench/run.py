"""Benchmark runner for subexp-lasso.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: curve-vector, phase-sparse, curve-lifted, diagnostics (see
NOTES.md).  The runner writes the workload's configs for the seed, then
runs the workload body in fresh child processes, one after another, until
about S seconds have passed:

- ``--trace 0``: untraced 1-thread bodies.  Reports the end-to-end metrics
  as medians over the run: set-up time, the CPU time of one body and the
  peak RSS of a body child.
- ``--trace 1``: traced 1-thread, untraced 1-thread and untraced 2-thread
  bodies in turn.  Reports the per-layer metrics, the tracing overhead as the
  difference of the 1-thread medians, and the 2-thread wall time.

Every body's outputs are checked (see workloads.py); the 2-thread and the
traced bodies must also reproduce the first 1-thread body's outputs.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Children run with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170.0
MAX_CYCLES = 20
RUN_FILL = 0.9
IMPORT_PROBE_S = 3.0
SETUP_ALLOWANCE_S = 1.0
SETUP_PROBES = 3
END_SLACK_S = 1.0
IMPORT_PROBES = 3
PIN_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def child_env(threads):
    env = {k: v for k, v in os.environ.items() if k != "SUBEXP_LASSO_THREADS"}
    env.update(PIN_BLAS)
    env["PYTHONPATH"] = SRC
    if threads > 1:
        # the program's documented override; reaches library entry points
        # that take no thread argument
        env["SUBEXP_LASSO_THREADS"] = str(threads)
    return env


class Run:
    """One benchmark run: its children, their checks and their samples."""

    def __init__(self, workload, seed, workdir, trace, started):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.trace = trace
        self.started = started
        make_configs, _, self.check = workloads.WORKLOADS[workload]
        self.configs = make_configs(seed, workdir)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.children = []    # (threads, traced, result of child.py)
        self.bodies = []      # (threads, traced, body entry)

    def child(self, threads, traced, budget_s):
        tag = (f"{len(self.children) + 1:03d}-t{threads}{'-traced' * traced}"
               f"{'-setup' * (budget_s is None)}")
        outdir = os.path.join(self.workdir, tag)
        os.makedirs(outdir)
        req = {"workload": self.workload, "configs": self.configs,
               "threads": threads, "outdir": outdir, "trace": traced,
               "budget_s": budget_s,
               "result": os.path.join(outdir, "result.json"),
               "run_id": f"{self.workload}-seed{self.seed}-{tag}",
               "spans": os.path.join(WORK, f"spans-{self.workload}"
                                           f"-seed{self.seed}.jsonl")}
        req_path = os.path.join(outdir, "request.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump(req, fh)
        planned = workloads.PLANNED_OPS[self.workload]
        timeout = max(10.0, CHILD_TIMEOUT_S - (time.perf_counter() - self.started))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), req_path],
                env=child_env(threads), cwd=ROOT, capture_output=True,
                text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
            problem = f"timed out after {timeout:.0f} s"
        else:
            tail = proc.stderr.strip().splitlines()[-3:]
            problem = f"exit {proc.returncode}: {tail}"
        if proc is None or proc.returncode != 0:
            self.attempted += planned
            self.failed += planned
            self.problems.append(f"{tag}: {problem}")
            return
        with open(req["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawned
        self.children.append((threads, traced, result))
        for i, body in enumerate(result["bodies"]):
            self.attempted += planned
            try:
                failed, problems = self.check(self.configs, body["outdir"],
                                              self.reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failed, problems = planned, [f"unreadable output: {exc!r}"]
            self.failed += failed
            self.problems.extend(f"{tag}/body{i:02d}: {p}" for p in problems)
            if self.reference is None:
                self.reference = body["outdir"]
            else:
                shutil.rmtree(body["outdir"])
            self.bodies.append((threads, traced, body))

    def walls(self, threads, traced):
        return [b["wall_s"] for t, tr, b in self.bodies
                if t == threads and tr == traced]

    def cpus(self, threads, traced):
        return [b["cpu_s"] for t, tr, b in self.bodies
                if t == threads and tr == traced]


def import_probe():
    """Median import figures of ``import subexp_lasso.cli`` over a few probes."""
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import subexp_lasso.cli"],
            env=child_env(1), cwd=ROOT, capture_output=True, text=True,
            timeout=60)
        if proc.returncode == 0:
            probes.append(tracing.parse_importtime(proc.stderr))
    return tracing.median_dicts(probes) if probes else {}


def provenance(seed):
    import importlib.metadata as md

    import numpy as np

    info = {"seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": md.version("scipy"), "blas_threads": PIN_BLAS,
            "commit": _commit()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def measure(run, seconds):
    """Run the children of one run, ending before `seconds` have passed.

    ``--trace 0``: three set-up probes, then one 1-thread body child that
    runs bodies until the run's time is up.  One long child wastes no time
    on set-up between bodies: a run holds about six bodies of the longest
    workloads.
    ``--trace 1``: cycles of a traced 1-thread child, an untraced 1-thread
    child (for the tracing overhead) and an untraced 2-thread child (for the
    thread pool); a run holds about two, and keeps time for the import
    probe.  Body children share nine tenths of the run, less set-up.
    """
    if not run.trace:
        for _ in range(SETUP_PROBES):
            run.child(1, False, None)
        elapsed = time.perf_counter() - run.started
        run.child(1, False, seconds - elapsed - SETUP_ALLOWANCE_S - END_SLACK_S)
        return
    kinds, cycles = [(1, True), (1, False), (2, False)], 2
    seconds -= IMPORT_PROBE_S
    budget = (RUN_FILL * seconds / cycles
              - len(kinds) * SETUP_ALLOWANCE_S) / len(kinds)
    longest = 0.0
    for _ in range(MAX_CYCLES):
        t0 = time.perf_counter()
        for threads, traced in kinds:
            run.child(threads, traced, budget)
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - run.started + longest > seconds:
            return


def _median_line(name, unit, vals):
    print(f"{name:<14} {statistics.median(vals):>12.4f} {unit:<3} median of "
          f"{len(vals)}: {', '.join(f'{v:.4f}' for v in vals)}")


def end_to_end(run):
    figures = {"setup_s": ("s", [r["setup_s"] for _, _, r in run.children]),
               "cpu_s": ("s", run.cpus(1, False)),
               "peak_rss_mb": ("MB", [r["rss_mb"] for _, _, r in run.children
                                      if r["bodies"]])}
    metrics = {}
    for name, (unit, vals) in figures.items():
        if vals:
            _median_line(name, unit, vals)
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    # wall time includes the time the host withheld the CPU; printed only
    _median_line("wall_s", "s", run.walls(1, False))
    return metrics


def per_layer(run):
    traced = [b for _, tr, b in run.bodies if tr]
    if not traced:
        return {}
    layers = tracing.median_dicts([b["layers"] for b in traced])
    for name in tracing.EXACT:
        values = {b["layers"][name] for b in traced}
        if len(values) > 1:
            run.problems.append(f"{name} differs between traced bodies: "
                                f"{sorted(values)}")
        layers[name] = traced[0]["layers"][name]
    untraced, t2 = run.walls(1, False), run.walls(2, False)
    _median_line("traced wall_s", "s", run.walls(1, True))
    if untraced:
        layers["trace.overhead_s"] = (statistics.median(run.walls(1, True))
                                      - statistics.median(untraced))
        _median_line("untraced wall_s", "s", untraced)
    if t2:
        layers["threads.t2_wall_s"] = statistics.median(t2)
        _median_line("2-thread wall_s", "s", t2)
    if untraced and t2:
        layers["threads.speedup"] = (statistics.median(untraced)
                                     / layers["threads.t2_wall_s"])
    layers.update(import_probe())
    print(f"{'function (first traced body)':<42} {'calls':>8} {'total_s':>10} "
          f"{'self_s':>10}")
    for name, f in traced[0]["functions"].items():
        print(f"{name:<42} {f['calls']:>8} {f['total_s']:>10.4f} "
              f"{f['self_s']:>10.4f}")
    units = {**tracing.PER_LAYER, **tracing.EXTRA_UNITS}
    for name, unit in units.items():
        if name in layers:
            extra = "" if name in tracing.PER_LAYER else "  (table only)"
            print(f"{name:<42} {layers[name]:>14.6g} {unit}{extra}")
    return {name: {"value": layers[name], "unit": unit}
            for name, unit in tracing.PER_LAYER.items() if name in layers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "subexp_lasso", "cli.py")):
        print(f"no program to benchmark: {SRC}/subexp_lasso/cli.py is missing",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        run = Run(args.workload, args.seed, workdir, bool(args.trace), started)
        print("# " + json.dumps(provenance(args.seed)))
        measure(run, args.seconds)
        if not run.bodies:
            print("no body completed:\n" + "\n".join(run.problems),
                  file=sys.stderr)
            return 1
        metrics = per_layer(run) if run.trace else end_to_end(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"# {len(run.children)} children, {len(run.bodies)} bodies, "
          f"{run.attempted} operations attempted, "
          f"{run.failed} failed, {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": run.failed == 0 and not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
