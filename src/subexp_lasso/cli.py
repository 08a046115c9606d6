"""Command-line interface.

Subcommands: sample, solve, mismatch, complexity, certificate, experiment,
report.  Global flags: --seed, --config, --out, --format, --threads.  Only
`experiment` uses the thread count, which the SUBEXP_LASSO_THREADS
environment variable overrides.

Each command returns its result (a report object, an experiment result, or
a `harness.Table` of values) and writes nothing; `main` renders it once
with `harness.emit` in --format (csv for `sample` by default) to --out or
stdout.  `experiment` writes to the config's `outputs` without --out, and
writes a table to a file as CSV.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple

import numpy as np

from . import complexity as cx
from . import harness, solver
from .distributions import profile_for
from .errors import ConfigurationError
from .models import generate_dataset, mismatch_report
from .seeding import derive_seed


def _add_output(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", default="table", choices=harness.FORMATS)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master seed")
    _add_output(p)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for the trials of `experiment`")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subexp-lasso",
        description="Constrained least squares under heavy-tailed data")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, descr in [
        ("sample", "emit one dataset (y, x_1..x_p), CSV by default"),
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
            _add_output(p)
        else:
            _add_common(p)
        if name == "sample":
            p.set_defaults(format="csv")
        if name in ("sample", "solve", "certificate"):
            p.add_argument("--n", type=int, default=None,
                           help="sample size (default: first n_grid entry)")
        if name == "certificate":
            p.add_argument("--scale", type=float, required=True,
                           help="certificate radius t")
            p.add_argument("--dirs", type=_positive_int, default=256)
    return parser


def _load(args) -> harness.ExperimentConfig:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    return config


def _vector_config(args, command: str) -> harness.ExperimentConfig:
    """The config of a command that needs vector inputs and a vector target,
    rejected before any work when its model is the lifted view."""
    config = _load(args)
    if config.model.kind == "lifted_view":
        raise ConfigurationError(f"{command} needs vector inputs, not the matrix "
                                 f"lifts of model.kind 'lifted_view'")
    return config


def _dataset(args, config: harness.ExperimentConfig, command: str):
    """The dataset of `command`: --n draws (default: the first n_grid entry)
    seeded from the master seed's "cli-<command>" stream."""
    return generate_dataset(config.model, config.spec,
                            config.n_grid[0] if args.n is None else args.n,
                            derive_seed(config.master_seed, f"cli-{command}"))


def cmd_sample(args) -> harness.Table:
    ds = _dataset(args, _load(args), "sample")
    X = (ds.lifts() if ds.lifted else ds.inputs).reshape(ds.n, -1)
    names = ["y"] + [f"x{j}" for j in range(X.shape[1])]
    return harness.Table(tuple(harness.Column(name, float) for name in names),
                         np.column_stack([ds.outputs, X]).tolist())


def cmd_solve(args) -> dict:
    """One row of scalars: the solve's summary, then the flat, row-major
    estimate as columns estimate_0, estimate_1, ..."""
    config = _load(args)
    ds = _dataset(args, config, "solve")
    res = solver.solve(ds, config.hypothesis_set, config.solver_config)
    return {"n": ds.n, "objective": res.objective, "iterations": res.iterations,
            "converged": res.converged,
            "fixed_point_residual": res.fixed_point_residual,
            **{f"estimate_{j}": v for j, v in enumerate(res.estimate.ravel().tolist())}}


def cmd_mismatch(args):
    config = _vector_config(args, "mismatch")
    beta_nat = harness.resolve_target(config)
    return mismatch_report(config.model, config.spec, beta_nat,
                           hypothesis_set=config.hypothesis_set, t=0.0,
                           mc_budget=100_000,
                           seed=derive_seed(config.master_seed, "cli-mismatch"))


def cmd_complexity(args) -> harness.Table:
    config = _vector_config(args, "complexity")
    s = config.hypothesis_set
    seed = derive_seed(config.master_seed, "cli-complexity")
    rows = [(est.width_kind, est.mean, est.std_error, est.trials)
            for est in (cx.gaussian_width(s, 400, seed),
                        cx.exponential_width(s, 400, seed + 1),
                        cx.empirical_width(s, config.spec, config.n_grid[0], 400,
                                           seed + 2))]
    try:
        q, m = cx.polytope_complexity(s, profile_for(config.spec),
                                      config.n_grid[0])
    except ConfigurationError as exc:  # no vertex list: l2 ball, large cube
        import logging  # only here: at the top it adds 4 modules to every CLI start
        logging.getLogger(__name__).warning("polytope surrogates skipped: %s", exc)
    else:
        rows += [("polytope-q", q, None, None), ("polytope-m", m, None, None)]
    return harness.Table(harness.COMPLEXITY_COLUMNS, rows)


def cmd_certificate(args) -> harness.CertificateReport:
    config = _vector_config(args, "certificate")
    beta_nat = harness.resolve_target(config)
    ds = _dataset(args, config, "certificate")
    return harness.excess_certificate(ds, config.hypothesis_set, beta_nat,
                                      args.scale, args.dirs,
                                      derive_seed(config.master_seed, "cert-dirs"))


def cmd_experiment(args) -> harness.ExperimentResult:
    config = _load(args)
    args.out = args.out or config.outputs
    if args.out and args.format == "table":  # a table written to a file is CSV
        args.format = "csv"
    return harness.run_error_curve(config, threads=args.threads)


def cmd_report(args) -> harness.Table:
    aggregates, *fit = harness.summarize(harness.parse_records_csv(args.records))
    return harness.Table(harness.columns_of(harness.AggregateRow),
                         [astuple(a) for a in aggregates.values()],
                         tuple(zip(harness.DECAY_FIT, fit)))


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
    result = COMMANDS[args.command](args)
    harness.emit(result, args.format, out=args.out or sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
