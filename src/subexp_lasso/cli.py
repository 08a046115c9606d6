"""Command-line interface.

Subcommands: sample, solve, mismatch, complexity, certificate, experiment,
report.  Global flags: --seed, --config, --out, --format, --threads.  Only
`experiment` uses the thread count, which the SUBEXP_LASSO_THREADS
environment variable overrides.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import complexity as cx
from . import harness, solver
from .distributions import profile_for
from .errors import ConfigurationError
from .models import generate_dataset, mismatch_report
from .seeding import derive_seed


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", default="table",
                   choices=("csv", "jsonl", "table"))
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for the trials of `experiment`")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subexp-lasso",
        description="Constrained least squares under heavy-tailed data")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, descr in [
        ("sample", "emit one dataset as CSV (y, x_1..x_p)"),
        ("solve", "solve one dataset and print the result"),
        ("mismatch", "mismatch report for the configured target"),
        ("complexity", "width and complexity-bound table"),
        ("certificate", "excess-risk certificate at a given scale"),
        ("experiment", "full error-curve experiment"),
        ("report", "aggregates and decay slope from a records CSV"),
    ]:
        p = sub.add_parser(name, help=descr)
        if name == "report":
            p.add_argument("records", help="records CSV emitted by `experiment`")
            p.add_argument("--format", default="table",
                           choices=("csv", "jsonl", "table"))
            p.add_argument("--out", default=None)
        else:
            _add_common(p)
        if name in ("sample", "solve", "certificate"):
            p.add_argument("--n", type=int, default=None,
                           help="sample size (default: first n_grid entry)")
        if name == "certificate":
            p.add_argument("--scale", type=float, required=True,
                           help="certificate radius t")
            p.add_argument("--dirs", type=int, default=256)
    return parser


def _load(args) -> harness.ExperimentConfig:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    return config


def _write(text: str, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_sample(args) -> int:
    config = _load(args)
    n = args.n or config.n_grid[0]
    ds = generate_dataset(config.model, config.spec, n,
                          derive_seed(config.master_seed, "cli-sample"))
    X = ds.inputs.reshape(ds.n, -1)
    header = "y," + ",".join(f"x{j}" for j in range(X.shape[1]))
    body = "\n".join(",".join([repr(y)] + [repr(v) for v in row])
                     for y, row in zip(ds.outputs, X))
    _write(header + "\n" + body + "\n", args.out)
    return 0


def cmd_solve(args) -> int:
    config = _load(args)
    n = args.n or config.n_grid[0]
    ds = generate_dataset(config.model, config.spec, n,
                          derive_seed(config.master_seed, "cli-solve"))
    if ds.lifted:
        res = solver.solve_lifted(ds, config.hypothesis_set, config.solver_config)
    else:
        res = solver.solve_lasso(ds, config.hypothesis_set, config.solver_config)
    report = {"n": n, "objective": res.objective, "iterations": res.iterations,
              "converged": res.converged,
              "fixed_point_residual": res.fixed_point_residual,
              "estimate": np.asarray(res.estimate).ravel().tolist()}
    _write(harness.emit(report, args.format), args.out)
    return 0


def cmd_mismatch(args) -> int:
    config = _load(args)
    beta_nat = harness.resolve_target(config)
    rep = mismatch_report(config.model, config.spec, beta_nat,
                          hypothesis_set=config.hypothesis_set, t=0.0,
                          mc_budget=100_000,
                          seed=derive_seed(config.master_seed, "cli-mismatch"))
    _write(harness.emit(rep, args.format), args.out)
    return 0


def cmd_complexity(args) -> int:
    config = _load(args)
    s = config.hypothesis_set
    seed = derive_seed(config.master_seed, "cli-complexity")
    rows = [["kind", "mean", "std_error", "trials"]]
    for est in (cx.gaussian_width(s, 400, seed),
                cx.exponential_width(s, 400, seed + 1),
                cx.empirical_width(s, config.spec, config.n_grid[0], 400, seed + 2)):
        rows.append([est.width_kind, f"{est.mean:.6g}", f"{est.std_error:.3g}",
                     str(est.trials)])
    try:
        q, m = cx.polytope_complexity(s, profile_for(config.spec),
                                      config.n_grid[0])
    except ConfigurationError:  # no finite vertex list: l2 ball, large cube
        pass
    else:
        rows.append(["polytope-q", f"{q:.6g}", "-", "-"])
        rows.append(["polytope-m", f"{m:.6g}", "-", "-"])
    _write(harness.format_table(rows), args.out)
    return 0


def cmd_certificate(args) -> int:
    config = _load(args)
    n = args.n or config.n_grid[0]
    beta_nat = harness.resolve_target(config)
    ds = generate_dataset(config.model, config.spec, n,
                          derive_seed(config.master_seed, "cli-certificate"))
    rep = harness.excess_certificate(ds, config.hypothesis_set, beta_nat,
                                     args.scale, args.dirs,
                                     derive_seed(config.master_seed, "cert-dirs"))
    _write(harness.emit(rep, args.format), args.out)
    return 0


def cmd_experiment(args) -> int:
    config = _load(args)
    result = harness.run_error_curve(config, threads=args.threads)
    out = args.out or config.outputs
    harness.emit(result, "csv" if args.format == "table" and out else args.format, out)
    if not out:
        sys.stdout.write(harness.emit(result, args.format))
    return 0


def cmd_report(args) -> int:
    records = harness.parse_records_csv(args.records)
    aggregates = harness.aggregate_records(records)
    try:
        slope, stderr = harness.fit_decay_rate_from_aggregates(aggregates)
    except ValueError:
        slope, stderr = float("nan"), float("nan")
    rows = [["n", "median", "q25", "q75", "count"]]
    for n, agg in sorted(aggregates.items()):
        rows.append([str(n), f"{agg['median']:.6g}", f"{agg['q25']:.6g}",
                     f"{agg['q75']:.6g}", str(agg["count"])])
    rows.append(["decay_slope", f"{slope:.4f}", "stderr", f"{stderr:.4f}", ""])
    _write(harness.format_table(rows), args.out)
    return 0


COMMANDS = {
    "sample": cmd_sample,
    "solve": cmd_solve,
    "mismatch": cmd_mismatch,
    "complexity": cmd_complexity,
    "certificate": cmd_certificate,
    "experiment": cmd_experiment,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
