"""Outside-in tracing of the program's layers, and the import-time probe.

The tracer wraps public functions at the name their callers look them up
by: a name imported with ``from .x import f`` is patched in the importing
module, a name called as ``module.f`` is patched on that module.  Each call
records a span (id, name, start, end, parent id); spans stay in memory until
the body ends.  A span's self time is its duration minus its children's.
The layer of a span is the first part of its name, which is the module.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import statistics
import threading
import time

LAYERS = ("cli", "harness", "models", "distributions", "seeding", "solver",
          "geometry", "complexity")

# (module that looks the name up, attribute, span name)
SPAN_SITES = [
    ("cli", "main", "cli.main"),
    ("harness", "load_config", "harness.load_config"),
    ("harness", "run_error_curve", "harness.run_error_curve"),
    ("harness", "run_phase_transition", "harness.run_phase_transition"),
    ("harness", "resolve_target", "harness.resolve_target"),
    ("harness", "emit", "harness.emit"),
    ("harness", "parse_records_csv", "harness.parse_records_csv"),
    ("harness", "aggregate_records", "harness.aggregate_records"),
    ("harness", "fit_decay_rate_from_aggregates",
     "harness.fit_decay_rate_from_aggregates"),
    ("harness", "excess_certificate", "harness.excess_certificate"),
    ("harness", "generate_dataset", "models.generate_dataset"),
    ("cli", "generate_dataset", "models.generate_dataset"),
    ("models", "generate_dataset", "models.generate_dataset"),
    ("harness", "target_scale_mu", "models.target_scale_mu"),
    ("cli", "mismatch_report", "models.mismatch_report"),
    ("harness", "sparse_vector", "models.sparse_vector"),
    ("models", "lift_centering", "models.lift_centering"),
    ("models", "sample_inputs", "distributions.sample_inputs"),
    ("distributions", "sample_inputs", "distributions.sample_inputs"),
    ("models", "psi_norm_estimate", "distributions.psi_norm_estimate"),
    ("distributions", "profile_for", "distributions.profile_for"),
    ("harness", "derive_seed", "seeding.derive_seed"),
    ("models", "derive_seed", "seeding.derive_seed"),
    ("cli", "derive_seed", "seeding.derive_seed"),
    ("complexity", "derive_seed", "seeding.derive_seed"),
    ("distributions", "derive_seed", "seeding.derive_seed"),
    ("harness", "rng_for", "seeding.rng_for"),
    ("models", "rng_for", "seeding.rng_for"),
    ("complexity", "rng_for", "seeding.rng_for"),
    ("geometry", "rng_for", "seeding.rng_for"),
    ("solver", "rng_for", "seeding.rng_for"),
    ("models", "partitioned_mean", "seeding.partitioned_mean"),
    ("solver", "solve_lasso", "solver.solve_lasso"),
    ("solver", "solve_lifted", "solver.solve_lifted"),
    ("solver", "rank1_extract", "solver.rank1_extract"),
    ("solver", "sign_invariant_error", "solver.sign_invariant_error"),
    ("solver", "empirical_risk", "solver.empirical_risk"),
    ("solver", "excess_risk", "solver.excess_risk"),
    ("solver", "excess_decomposition", "solver.excess_decomposition"),
    ("geometry", "project", "geometry.project"),
    ("geometry", "contains", "geometry.contains"),
    ("geometry", "cone_directions", "geometry.cone_directions"),
    ("geometry", "sphere_slice_directions", "geometry.sphere_slice_directions"),
    ("geometry", "vertices_of", "geometry.vertices_of"),
    ("geometry", "support_function", "geometry.support_function"),
    ("complexity", "gaussian_width", "complexity.gaussian_width"),
    ("complexity", "exponential_width", "complexity.exponential_width"),
    ("complexity", "empirical_width", "complexity.empirical_width"),
    ("complexity", "polytope_complexity", "complexity.polytope_complexity"),
]

# Called once per vertex pair today: counted, not spanned.
COUNT_SITES = [("complexity", "seminorm_eval", "complexity.seminorm_evals")]

SOLVES = ("solver.solve_lasso", "solver.solve_lifted")

# The per-layer metrics reported in the result line, with their units.  A
# time is listed only when every workload spends some in it; the others
# (cli and complexity self time, per-solve and per-iteration times) are
# printed in the table above the result line.
PER_LAYER = {
    "import.total_s": "s", "import.pkg_self_s": "s", "import.numpy_s": "s",
    "import.modules": "count", "import.scipy_modules": "count",
    "harness.self_s": "s", "models.self_s": "s", "distributions.self_s": "s",
    "seeding.self_s": "s", "solver.self_s": "s", "geometry.self_s": "s",
    "cli.commands": "count",
    "models.generate_dataset.calls": "count",
    "models.lift_bytes.max": "bytes",
    "models.target_scale_mu.useful_frac": "ratio",
    "distributions.sample_inputs.calls": "count",
    "distributions.values": "count",
    "distributions.values_per_s": "1/s",
    "seeding.partitioned_mean.calls": "count",
    "solver.solves": "count", "solver.iterations.sum": "count",
    "solver.iterations.p50": "count", "solver.iterations.p90": "count",
    "solver.iterations.max": "count", "solver.nonconverged": "count",
    "geometry.project.calls": "count", "geometry.project.us_per_call": "us",
    "geometry.contains.calls": "count",
    "complexity.seminorm_evals": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.other_s": "s",
    "threads.t2_wall_s": "s", "threads.speedup": "ratio",
}
# Body counts that repeat exactly between bodies of one seed.
EXACT = ("cli.commands",
         "models.generate_dataset.calls", "models.lift_bytes.max",
         "models.target_scale_mu.useful_frac",
         "distributions.sample_inputs.calls", "distributions.values",
         "seeding.partitioned_mean.calls", "solver.solves",
         "solver.iterations.sum", "solver.iterations.p50",
         "solver.iterations.p90", "solver.iterations.max",
         "solver.nonconverged", "geometry.project.calls",
         "geometry.contains.calls", "complexity.seminorm_evals")
EXTRA_UNITS = {"cli.self_s": "s", "complexity.self_s": "s",
               "solver.us_per_iter": "us", "solver.solve.ms_p50": "ms",
               "solver.solve.ms_p90": "ms"}


class Tracer:
    """In-memory span recorder of one traced child, reset between bodies."""

    def __init__(self):
        self.spans = []        # [id, name, start, end, parent id]
        self.attrs = {}        # span id -> attributes taken from the result
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self):
        """Forget the spans and counts of the previous body."""
        self.spans = []
        self.attrs = {}
        self.counts = dict.fromkeys(self.counts, 0)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        on_result = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([sid, name, start, end, parent])
            if on_result is not None:
                self.attrs[sid] = on_result(args, kwargs, result)
            return result
        return traced

    def counter(self, name, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Patch every site that exists; return the sites patched."""
        import importlib

        patched = []
        for mod_name, attr, span in SPAN_SITES:
            mod = importlib.import_module(f"subexp_lasso.{mod_name}")
            fn = getattr(mod, attr, None)
            if callable(fn):
                setattr(mod, attr, self.wrap(span, fn))
                patched.append(f"{mod_name}.{attr}")
        cli = importlib.import_module("subexp_lasso.cli")
        commands = getattr(cli, "COMMANDS", {})
        for cmd, fn in list(commands.items()):
            commands[cmd] = self.wrap(f"cli.{cmd}", fn)
            patched.append(f"cli.COMMANDS[{cmd!r}]")
        for mod_name, attr, name in COUNT_SITES:
            mod = importlib.import_module(f"subexp_lasso.{mod_name}")
            fn = getattr(mod, attr, None)
            if callable(fn):
                setattr(mod, attr, self.counter(name, fn))
                patched.append(f"{mod_name}.{attr}")
        return patched

    def dump(self, path, meta):
        """Write the spans of the last body as JSON lines after a meta line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": meta["run_id"],
                                     **self.attrs.get(sid, {})}) + "\n")


def _solve_attrs(args, kwargs, res):
    return {"iterations": int(res.iterations), "converged": bool(res.converged)}


def _dataset_attrs(args, kwargs, ds):
    return {"lift_bytes": int(ds.inputs.nbytes) if ds.inputs.ndim == 3 else 0}


def _sample_attrs(args, kwargs, x):
    return {"values": int(x.size)}


def _target_attrs(args, kwargs, ts):
    """Draws times support size: the coordinates that enter <x, b0>."""
    model = args[0] if args else kwargs["model"]
    support = int((model.beta0 != 0).sum())
    return {"useful": int(ts.budget) * support}


RESULT_ATTRS = {
    "solver.solve_lasso": _solve_attrs,
    "solver.solve_lifted": _solve_attrs,
    "models.generate_dataset": _dataset_attrs,
    "distributions.sample_inputs": _sample_attrs,
    "models.target_scale_mu": _target_attrs,
}


# ---------------------------------------------------------------------------
# Span summaries
# ---------------------------------------------------------------------------

def quantile(vals, q):
    """Linear-interpolation quantile (numpy's default method); 0 when empty."""
    if not vals:
        return 0.0
    vals = sorted(vals)
    pos = q * (len(vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def summarize(tracer, wall_s):
    """Per-layer metrics and a per-function table of one traced body."""
    spans = tracer.spans
    child = {}
    for sid, name, start, end, parent in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    funcs = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    top = 0.0
    by_id = {}
    for sid, name, start, end, parent in spans:
        dur = end - start
        self_s = dur - child.get(sid, 0.0)
        f = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "ms": []})
        f["calls"] += 1
        f["total_s"] += dur
        f["self_s"] += self_s
        f["ms"].append(1000.0 * dur)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        if parent is None:
            top += dur
        by_id[sid] = (name, parent)

    attrs = tracer.attrs
    iters = [attrs[sid]["iterations"] for sid, name, *_ in spans if name in SOLVES]
    nonconv = sum(1 for sid, name, *_ in spans
                  if name in SOLVES and not attrs[sid]["converged"])
    lift = [attrs[sid]["lift_bytes"] for sid, name, *_ in spans
            if name == "models.generate_dataset"]

    # coordinates drawn inside target_scale_mu, against those that enter <x, b0>
    drawn_in_mu = 0
    for sid, name, *_ in spans:
        if name != "distributions.sample_inputs":
            continue
        anc = by_id[sid][1]
        while anc is not None and by_id[anc][0] != "models.target_scale_mu":
            anc = by_id[anc][1]
        if anc is not None:
            drawn_in_mu += attrs[sid]["values"]
    useful = sum(attrs[sid]["useful"] for sid, name, *_ in spans
                 if name == "models.target_scale_mu")

    def fn(name):
        return funcs.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                "ms": []})

    project = fn("geometry.project")
    sample = fn("distributions.sample_inputs")
    values = sum(attrs[sid]["values"] for sid, name, *_ in spans
                 if name == "distributions.sample_inputs")
    solver_iter_s = sum(fn(n)["self_s"] for n in SOLVES) + project["total_s"]
    cli_commands = sum(f["calls"] for n, f in funcs.items()
                       if n.startswith("cli.") and n != "cli.main")
    metrics = {
        **{f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS},
        "cli.commands": cli_commands,
        "models.generate_dataset.calls": fn("models.generate_dataset")["calls"],
        "models.lift_bytes.max": max(lift, default=0),
        "models.target_scale_mu.useful_frac":
            useful / drawn_in_mu if drawn_in_mu else 0.0,
        "distributions.sample_inputs.calls": sample["calls"],
        "distributions.values": values,
        "distributions.values_per_s":
            values / sample["self_s"] if sample["self_s"] > 0 else 0.0,
        "seeding.partitioned_mean.calls": fn("seeding.partitioned_mean")["calls"],
        "solver.solves": len(iters),
        "solver.iterations.sum": sum(iters),
        "solver.iterations.p50": quantile(iters, 0.5),
        "solver.iterations.p90": quantile(iters, 0.9),
        "solver.iterations.max": max(iters, default=0),
        "solver.nonconverged": nonconv,
        "solver.us_per_iter":
            1e6 * solver_iter_s / sum(iters) if iters and sum(iters) else 0.0,
        "solver.solve.ms_p50": quantile(
            fn("solver.solve_lasso")["ms"] + fn("solver.solve_lifted")["ms"], 0.5),
        "solver.solve.ms_p90": quantile(
            fn("solver.solve_lasso")["ms"] + fn("solver.solve_lifted")["ms"], 0.9),
        "geometry.project.calls": project["calls"],
        "geometry.project.us_per_call":
            1e6 * project["self_s"] / project["calls"] if project["calls"] else 0.0,
        "geometry.contains.calls": fn("geometry.contains")["calls"],
        "complexity.seminorm_evals": tracer.counts.get("complexity.seminorm_evals", 0),
        "trace.wall_s": wall_s,
        "trace.other_s": wall_s - top,
    }
    table = {name: {"calls": f["calls"], "total_s": f["total_s"],
                    "self_s": f["self_s"]} for name, f in sorted(funcs.items())}
    return metrics, table


# ---------------------------------------------------------------------------
# Import-time probe
# ---------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def parse_importtime(stderr, package="subexp_lasso"):
    """Import figures from ``python -X importtime`` output.

    Returns total, package-self and numpy seconds and the counts of modules
    (all, and scipy's) imported on behalf of the package.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            level = (len(m.group(3)) - 1) // 2
            entries.append((int(m.group(1)) * 1e-6, int(m.group(2)) * 1e-6,
                            level, m.group(4)))
    total = pkg_self = numpy = 0.0
    modules = scipy_modules = 0
    block = []
    for entry in entries:
        block.append(entry)
        self_s, cum_s, level, name = entry
        if level != 0:
            continue
        if name == package or name.startswith(package + "."):
            total += cum_s
            for e_self, e_cum, _, e_name in block:
                modules += 1
                if e_name == package or e_name.startswith(package + "."):
                    pkg_self += e_self
                elif e_name == "numpy":
                    numpy += e_cum
                elif e_name == "scipy" or e_name.startswith("scipy."):
                    scipy_modules += 1
        block = []
    return {"import.total_s": total, "import.pkg_self_s": pkg_self,
            "import.numpy_s": numpy, "import.modules": modules,
            "import.scipy_modules": scipy_modules}


def median_dicts(dicts):
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}
