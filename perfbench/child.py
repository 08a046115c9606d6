"""Workload bodies in a fresh interpreter.

Usage: python3 perfbench/child.py REQUEST.json

The request (written by run.py) names the workload, its config paths, the
thread count, the output directory, whether to trace, a time budget and
where to write the result.  Set-up is importing ``subexp_lasso.cli`` and
loading the workload's YAML configs; run.py times it from spawn to the
``ready`` timestamp (``time.monotonic`` is system-wide, so both processes
share it).  The child then runs the body repeatedly, each time into its own
output directory, while another body fits in the budget (at least once).  A
request without a budget probes set-up only and runs no body.
"""

import json
import os
import resource
import sys
import time

import workloads


def main(request_path):
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)

    from subexp_lasso import cli, harness  # noqa: F401  (set-up: the CLI import)

    loaded = {key: harness.load_config(path)
              for key, path in req["configs"].items()}
    ready = time.monotonic()

    tracer = None
    if req["trace"]:
        import tracing

        tracer = tracing.Tracer()
        patched = tracer.install()

    _, body, _ = workloads.WORKLOADS[req["workload"]]
    bodies = []
    started = time.perf_counter()
    while req["budget_s"] is not None:
        outdir = os.path.join(req["outdir"], f"body{len(bodies):02d}")
        os.makedirs(outdir)
        if tracer is not None:
            tracer.reset()
        start, cpu = time.perf_counter(), time.process_time()
        body(req["configs"], req["threads"], outdir, loaded)
        wall = time.perf_counter() - start
        entry = {"outdir": outdir, "wall_s": wall,
                 "cpu_s": time.process_time() - cpu}
        if tracer is not None:
            entry["layers"], entry["functions"] = tracing.summarize(tracer, wall)
        bodies.append(entry)
        if time.perf_counter() - started + wall > req["budget_s"]:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"ready": ready, "rss_mb": rss_mb, "bodies": bodies}
    if tracer is not None:
        tracer.dump(req["spans"], {"run_id": req["run_id"],
                                   "workload": req["workload"],
                                   "wall_s": wall, "patched": patched})
    with open(req["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
