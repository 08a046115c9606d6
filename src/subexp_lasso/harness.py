"""End-to-end seeded experiments: error curves, decay fits, certificates.

An experiment is declared by a config (constructible from YAML), runs a
deterministic grid of (sample size, trial) cells, records per-cell errors,
and aggregates medians/quartiles plus a fitted log-log decay slope.  Records
round-trip losslessly through CSV / JSON-lines emitters.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np
import yaml

from . import geometry, solver
from .distributions import DistributionSpec
from .errors import ConfigurationError
from .models import (Dataset, Noise, ObservationModel, generate_dataset,
                     sparse_vector, target_scale_mu)
from .seeding import derive_seed

RESULT_COLUMNS = ("experiment", "n", "trial", "error", "runtime_ms",
                  "converged", "seed", "iterations")

TARGET_RULES = ("beta0", "mu_beta0", "erm_mc", "explicit")


def thread_count(cli_value: Optional[int] = None) -> int:
    """Worker count: SUBEXP_LASSO_THREADS overrides the CLI value.

    The variable also sets the workers of run_phase_transition, which takes
    no thread count.  Workers pay only on cells whose time goes to BLAS
    (n >> p, lifted): cells with n < p run many small numpy calls that
    contend for the GIL, and two workers are slower than one there.  On the
    phase-sparse grid (Gaussian p = 200, n in {120, 140, 160}, 72 solves, a
    2-core host) run_phase_transition took 0.71-0.85 s wall with one worker
    and 0.75-1.08 s with two (six runs each, two workers slower in every
    pair).  The count is never chosen from the cell shape.
    """
    env = os.environ.get("SUBEXP_LASSO_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigurationError("SUBEXP_LASSO_THREADS must be an integer") from exc
    return max(1, cli_value or 1)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

def _is_integer(value) -> bool:
    """Whether value is an integer of any integral type; bools are not
    integers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _grid(name: str, values) -> tuple:
    """values as a tuple of ints, checked and never truncated: a non-empty,
    strictly increasing sequence of integers >= 1.  Anything else raises a
    ConfigurationError naming `name`."""
    try:
        grid = tuple(values)
    except TypeError as exc:
        raise ConfigurationError(f"{name} must be a list of integers") from exc
    if not grid:
        raise ConfigurationError(f"{name} must not be empty")
    bad = [v for v in grid if not _is_integer(v)]
    if bad:
        raise ConfigurationError(f"{name} entries must be integers, got {bad[0]!r}")
    grid = tuple(int(v) for v in grid)
    if any(v < 1 for v in grid):
        raise ConfigurationError(f"{name} entries must be >= 1")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError(f"{name} must be strictly increasing")
    return grid


@dataclass
class ExperimentConfig:
    name: str
    model: ObservationModel
    spec: DistributionSpec
    hypothesis_set: geometry.HypothesisSet
    target_rule: str = "beta0"
    target_vector: Optional[np.ndarray] = None
    solver_config: solver.SolverConfig = field(default_factory=solver.SolverConfig)
    n_grid: tuple = (200, 400, 800)
    trials_per_n: int = 10
    master_seed: int = 0
    mu_budget: int = 1_000_000
    erm_budget: int = 200_000
    outputs: Optional[str] = None

    def __post_init__(self):
        grid = _grid("n_grid", self.n_grid)
        if self.trials_per_n < 1:
            raise ConfigurationError("trials_per_n must be >= 1")
        for name in ("mu_budget", "erm_budget"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.target_rule not in TARGET_RULES:
            raise ConfigurationError(f"unknown target rule {self.target_rule!r}")
        if self.target_rule == "explicit" and self.target_vector is None:
            raise ConfigurationError("explicit target rule needs target_vector")
        object.__setattr__(self, "n_grid", grid)


def config_hash(config: ExperimentConfig) -> str:
    """Stable content hash of an experiment config."""
    payload = json.dumps(_config_dict(config), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _config_dict(config: ExperimentConfig) -> dict:
    spec = config.spec
    model = config.model
    s = config.hypothesis_set
    return {
        "name": config.name,
        "spec": {"kind": spec.kind, "p": spec.p, "scale": spec.scale,
                 "base_kind": spec.base_kind,
                 "mixing": None if spec.mixing is None else spec.mixing.tolist(),
                 "seed_domain": spec.seed_domain},
        "model": {"kind": model.kind, "beta0": model.beta0.tolist(),
                  "link": model.link,
                  "noise": {"kind": model.noise.kind, "level": model.noise.level}},
        "set": {"kind": s.kind, "radius": s.radius, "p": s.p,
                "center": None if s.center is None else s.center.tolist(),
                "vertices": None if s.vertices is None else s.vertices.tolist()},
        "target_rule": config.target_rule,
        "target_vector": None if config.target_vector is None
                         else np.asarray(config.target_vector).tolist(),
        "solver": asdict(config.solver_config),
        "n_grid": list(config.n_grid),
        "trials_per_n": config.trials_per_n,
        "master_seed": config.master_seed,
        "mu_budget": config.mu_budget,
        "erm_budget": config.erm_budget,
    }


# ---------------------------------------------------------------------------
# Target resolution
# ---------------------------------------------------------------------------

def resolve_target(config: ExperimentConfig) -> np.ndarray:
    """Target vector according to the config's rule."""
    rule = config.target_rule
    if rule == "explicit":
        return np.asarray(config.target_vector, dtype=float)
    if rule == "beta0":
        return config.model.beta0.copy()
    if rule == "mu_beta0":
        mu = target_scale_mu(config.model, config.spec, config.mu_budget,
                             derive_seed(config.master_seed, "target-mu"))
        return mu.value * config.model.beta0
    return erm_mc_target(config)


def erm_mc_target(config: ExperimentConfig) -> np.ndarray:
    """Expected-risk minimizer on the set, approximated at scale.

    The constrained least-squares estimate (solve_lasso) on one calibration
    sample of erm_budget draws.  Restricted to small dimensions.
    """
    if config.spec.p > 12:
        raise ConfigurationError("erm_mc target rule is restricted to p <= 12")
    big = generate_dataset(config.model, config.spec, config.erm_budget,
                           derive_seed(config.master_seed, "erm-mc"))
    calib_cfg = solver.SolverConfig(max_iters=5_000, tol=1e-13)
    return solver.solve_lasso(big, config.hypothesis_set, calib_cfg).estimate


# ---------------------------------------------------------------------------
# Error-curve experiments
# ---------------------------------------------------------------------------

@dataclass
class TrialRecord:
    experiment: str
    n: int
    trial: int
    error: float
    runtime_ms: float
    converged: bool
    seed: int
    iterations: Optional[int] = None   # None when parsed from a 7-column CSV


@dataclass
class ExperimentResult:
    records: list
    aggregates: dict            # n -> aggregate_records entry
    decay_slope: Optional[float]
    decay_stderr: Optional[float]
    config_hash: str
    target: Optional[np.ndarray] = None


def _solve_cell(config: ExperimentConfig, beta_nat: np.ndarray, n: int,
                trial: int) -> TrialRecord:
    """One trial's record; a ConfigurationError is re-raised, from the
    original, with the cell's experiment, n, trial and seed in its message."""
    seed = derive_seed(config.master_seed, f"{config.name}:n={n}", trial)
    try:
        dataset = generate_dataset(config.model, config.spec, n, seed)
        t0 = time.perf_counter()
        res = solver.solve(dataset, config.hypothesis_set, config.solver_config)
        if dataset.lifted:
            lam, vec, _ = solver.rank1_extract(res.estimate)
            err = solver.sign_invariant_error(lam * vec, beta_nat)
        else:
            err = float(np.linalg.norm(res.estimate - beta_nat))
        ms = 1000.0 * (time.perf_counter() - t0)
    except ConfigurationError as exc:
        raise ConfigurationError(f"experiment {config.name!r}, n={n}, "
                                 f"trial={trial}, seed={seed}: {exc}") from exc
    return TrialRecord(config.name, n, trial, err, ms, res.converged, seed,
                       res.iterations)


def _run_cells(cells, threads: Optional[int] = None) -> list:
    """`_solve_cell` records of (config, target, n, trial) cells, in order.

    Each cell seeds itself, so the records are the same for any worker count.
    """
    workers = thread_count(threads)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda cell: _solve_cell(*cell), cells))
    return [_solve_cell(*cell) for cell in cells]


def run_error_curve(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Per-(n, trial) estimation errors against the resolved target.

    Trials are independent units scheduled by `_run_cells`, so the result is
    identical for any thread count.  Solver non-convergence is recorded, not
    fatal.
    """
    beta_nat = resolve_target(config)
    records = _run_cells([(config, beta_nat, n, trial) for n in config.n_grid
                          for trial in range(config.trials_per_n)], threads)
    aggregates = aggregate_records(records)
    slope, stderr = (None, None)
    try:
        slope, stderr = fit_decay_rate_from_aggregates(aggregates)
    except ValueError:
        pass
    return ExperimentResult(records, aggregates, slope, stderr,
                            config_hash(config), target=beta_nat)


def aggregate_records(records) -> dict:
    """Error quantiles and iteration counts per n.

    The iteration entries are None when any record of that n lacks its
    count (records parsed from a 7-column CSV).
    """
    by_n: dict = {}
    for r in records:
        by_n.setdefault(r.n, []).append(r)
    out = {}
    for n in sorted(by_n):
        errs = np.array([r.error for r in by_n[n]])
        iters = [r.iterations for r in by_n[n]]
        known = None not in iters
        out[n] = {"median": float(np.median(errs)),
                  "q25": float(np.quantile(errs, 0.25)),
                  "q75": float(np.quantile(errs, 0.75)),
                  "count": int(errs.size),
                  "iters_p50": float(np.median(iters)) if known else None,
                  "iters_max": max(iters) if known else None}
    return out


def fit_decay_rate_from_aggregates(aggregates: dict):
    """(slope, stderr) of the OLS fit of log(median error) on log(n), over
    the grid points whose median is positive (at least 3 of them)."""
    ns, meds = [], []
    for n, agg in sorted(aggregates.items()):
        if agg["median"] > 0:
            ns.append(n)
            meds.append(agg["median"])
    if len(ns) < 3:
        raise ValueError("need at least 3 grid points with positive medians")
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(meds, dtype=float))
    xc = x - x.mean()
    slope = float((xc @ (y - y.mean())) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = max(len(ns) - 2, 1)
    sigma2 = float(resid @ resid) / dof
    stderr = math.sqrt(sigma2 / float(xc @ xc))
    return slope, stderr


# ---------------------------------------------------------------------------
# Excess-risk certificate
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    t: float
    sampled_directions: int
    min_excess: float
    positive: bool
    empty_slice: bool = False


def excess_certificate(dataset: Dataset, s: geometry.HypothesisSet, beta_nat,
                       t: float, n_dirs: int, seed: int) -> CertificateReport:
    """Minimum excess risk over sampled points at distance t from beta_nat.

    A positive minimum certifies that the empirical minimizer lies strictly
    inside the radius-t sphere around beta_nat.
    """
    beta_nat = np.asarray(beta_nat, dtype=float)
    if not (t > 0):
        raise ConfigurationError("t must be positive")
    if not geometry.contains(s, beta_nat):
        raise ConfigurationError("beta_nat must belong to the set")
    sample = geometry.sphere_slice_directions(s, beta_nat, t, n_dirs, seed)
    if sample.directions.shape[0] == 0:
        return CertificateReport(t, 0, math.nan, False, empty_slice=True)
    excesses = [solver.excess_risk(dataset, beta_nat + t * v, beta_nat)
                for v in sample.directions]
    min_excess = float(min(excesses))
    return CertificateReport(t, sample.directions.shape[0], min_excess,
                             min_excess > 0.0)


# ---------------------------------------------------------------------------
# Phase transitions
# ---------------------------------------------------------------------------

@dataclass
class PhaseTransitionResult:
    k_grid: tuple
    n_grid: tuple
    success: np.ndarray         # |k_grid| x |n_grid| success fractions
    threshold_rule: str
    max_error: np.ndarray       # |k_grid| x |n_grid| largest trial errors


def run_phase_transition(k_grid, n_grid, config: ExperimentConfig,
                         success_threshold: Optional[float] = None) -> PhaseTransitionResult:
    """Fraction of trials with error below threshold, and the largest trial
    error, per (k, n) cell.

    For each sparsity k a fresh unit-norm k-sparse target is drawn and the
    l1 ball is tuned to it; the default threshold is 1e-3 times the target
    norm for noiseless models and the noise level otherwise.  The cells are
    the error-curve cells of a config named "pt:k=<k>", solved by
    `_run_cells` on thread_count() workers.
    """
    k_grid, n_grid = _grid("k_grid", k_grid), _grid("n_grid", n_grid)
    noise = config.model.noise
    cells, thresholds = [], []
    for i, k in enumerate(k_grid):
        beta0 = sparse_vector(config.spec.p, k,
                              derive_seed(config.master_seed, "pt-beta0", i))
        config_k = replace(
            config, name=f"pt:k={k}",
            model=replace(config.model, beta0=beta0),
            hypothesis_set=geometry.l1_ball(float(np.abs(beta0).sum()),
                                            config.spec.p))
        cells += [(config_k, beta0, n, trial) for n in n_grid
                  for trial in range(config.trials_per_n)]
        if success_threshold is not None:
            thresholds.append(float(success_threshold))
        elif noise.kind == "none" or noise.level == 0.0:
            thresholds.append(1e-3 * float(np.linalg.norm(beta0)))
        else:
            thresholds.append(noise.level)
    errors = np.array([r.error for r in _run_cells(cells)]).reshape(
        len(k_grid), len(n_grid), config.trials_per_n)
    hits = np.count_nonzero(errors < np.array(thresholds)[:, None, None], axis=2)
    rule = "auto" if success_threshold is None else "explicit"
    return PhaseTransitionResult(k_grid, n_grid, hits / config.trials_per_n,
                                 rule, errors.max(axis=2))


# ---------------------------------------------------------------------------
# Emission and round-tripping
# ---------------------------------------------------------------------------

def records_to_rows(records) -> list:
    return [[r.experiment, r.n, r.trial, repr(r.error), repr(r.runtime_ms),
             "true" if r.converged else "false", r.seed, r.iterations]
            for r in records]


def emit(result, fmt: str = "csv", out=None) -> str:
    """Render records (or a report object) as csv / jsonl / table text.

    Writes to `out` (path or file object) when given; returns the text.
    """
    if isinstance(result, ExperimentResult):
        text = _emit_records(result.records, fmt)
    elif isinstance(result, PhaseTransitionResult):
        text = _emit_phase(result, fmt)
    else:
        text = _emit_report(result, fmt)
    if out is not None:
        if hasattr(out, "write"):
            out.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    return text


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _emit_records(records, fmt: str) -> str:
    if fmt == "csv":
        return _csv_text([RESULT_COLUMNS] + records_to_rows(records))
    if fmt == "jsonl":
        return "\n".join(json.dumps(asdict(r)) for r in records) + "\n"
    if fmt == "table":
        rows = [list(RESULT_COLUMNS)]
        rows += [[r.experiment, str(r.n), str(r.trial), f"{r.error:.6g}",
                  f"{r.runtime_ms:.2f}", str(r.converged).lower(), str(r.seed),
                  str(r.iterations)]
                 for r in records]
        return format_table(rows)
    raise ConfigurationError(f"unknown format {fmt!r}")


def _emit_phase(result: PhaseTransitionResult, fmt: str) -> str:
    if fmt == "jsonl":
        lines = [json.dumps({"k": k, "n": n,
                             "success": float(result.success[i, j]),
                             "max_error": float(result.max_error[i, j])})
                 for i, k in enumerate(result.k_grid)
                 for j, n in enumerate(result.n_grid)]
        return "\n".join(lines) + "\n"
    rows = [["k/n"] + [str(n) for n in result.n_grid]]
    for i, k in enumerate(result.k_grid):
        rows.append([str(k)] + [f"{result.success[i, j]:.3f}"
                                for j in range(len(result.n_grid))])
    return _csv_text(rows) if fmt == "csv" else format_table(rows)


def _emit_report(obj, fmt: str) -> str:
    data = asdict(obj) if hasattr(obj, "__dataclass_fields__") else dict(obj)
    clean = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
             for k, v in data.items()}
    if fmt == "jsonl":
        return json.dumps(clean, default=str) + "\n"
    rows = [["field", "value"]] + [[str(k), str(v)] for k, v in clean.items()]
    return _csv_text(rows) if fmt == "csv" else format_table(rows)


def format_table(rows) -> str:
    """Left-aligned columns of string cells, two spaces apart."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def parse_records_csv(text_or_path) -> list:
    """Inverse of the csv emitter; returns TrialRecord objects.

    A non-empty string without a newline is a path, anything else CSV text.
    The 7-column header written before the iterations column was added is
    accepted too; its records have iterations None.
    """
    text = text_or_path
    if text and "\n" not in text:
        try:
            with open(text, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError as exc:
            raise ConfigurationError(f"records CSV {text!r} does not exist") from exc
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ConfigurationError("records CSV is empty")
    if tuple(header) not in (RESULT_COLUMNS, RESULT_COLUMNS[:-1]):
        raise ConfigurationError("unexpected result CSV header")
    records = []
    for row in reader:
        if not row:
            continue
        records.append(TrialRecord(row[0], int(row[1]), int(row[2]),
                                   float(row[3]), float(row[4]),
                                   row[5] == "true", int(row[6]),
                                   int(row[7]) if row[7:] and row[7] else None))
    return records


# ---------------------------------------------------------------------------
# Declarative configs (YAML)
# ---------------------------------------------------------------------------

def _required(d, path: str):
    """d[key] for the last key of a dotted path; raises naming the path."""
    value = (d or {}).get(path.rsplit(".", 1)[-1])
    if value is None:
        raise ConfigurationError(f"config is missing required key {path!r}")
    return value


def spec_from_dict(d: dict) -> DistributionSpec:
    mixing = d.get("mixing")
    if isinstance(mixing, str):
        mixing = np.loadtxt(mixing)
    return DistributionSpec(kind=_required(d, "spec.kind"),
                            p=int(_required(d, "spec.p")),
                            scale=float(d.get("scale", 1.0)),
                            mixing=None if mixing is None else np.asarray(mixing, float),
                            base_kind=d.get("base_kind", "laplace"),
                            seed_domain=d.get("seed_domain", "inputs"))


def model_from_dict(d: dict, p: int) -> ObservationModel:
    beta0 = d.get("beta0")
    if beta0 is None:
        rule = d.get("beta0_rule")
        if not rule:
            raise ConfigurationError("model needs beta0 or beta0_rule")
        beta0 = sparse_vector(p, int(_required(rule, "model.beta0_rule.k")),
                              int(rule.get("seed", 0)),
                              rule.get("norm", "l2"))
    noise_d = d.get("noise", {"kind": "none"})
    noise = Noise(noise_d.get("kind", "none"), float(noise_d.get("level", 0.0)))
    return ObservationModel(_required(d, "model.kind"), np.asarray(beta0, dtype=float),
                            d.get("link", "identity"), noise)


def set_from_dict(d: dict, p: int, beta0=None) -> geometry.HypothesisSet:
    kind = _required(d, "set.kind")
    if kind == "polytope":
        if "vertices_file" in d:
            return geometry.load_vertices(d["vertices_file"])
        return geometry.polytope(np.asarray(_required(d, "set.vertices"), dtype=float))
    builders = {"l1_ball": geometry.l1_ball, "hypercube": geometry.hypercube,
                "lifted_psd_fro": geometry.lifted_psd_fro,
                "l2_ball": lambda r, p: geometry.l2_ball(r, p, d.get("center"))}
    if kind not in builders:
        raise ConfigurationError(f"unknown set kind {kind!r}")
    radius = _required(d, "set.radius")
    if isinstance(radius, str):
        if beta0 is None:
            raise ConfigurationError(f"radius rule {radius!r} needs beta0")
        if radius == "beta0_l1":
            radius = float(np.abs(beta0).sum())
        elif radius == "beta0_l2":
            radius = float(np.linalg.norm(beta0))
        else:
            raise ConfigurationError(f"unknown radius rule {radius!r}")
    return builders[kind](float(radius), p)


def _integer(key: str):
    """A check that passes an integer on as an int and rejects anything
    else (a float, a bool, a string) with a ConfigurationError naming key."""
    def check(value):
        if not _is_integer(value):
            raise ConfigurationError(f"{key} must be an integer, got {value!r}")
        return int(value)
    return check


def _boolean(key: str):
    """A check that passes a bool on and rejects anything else (the string
    "false" included) with a ConfigurationError naming key."""
    def check(value):
        if not isinstance(value, bool):
            raise ConfigurationError(f"{key} must be true or false, got {value!r}")
        return value
    return check


# YAML keys passed on to ExperimentConfig and SolverConfig, with their checks;
# a key left out of the YAML takes the dataclass default.  tol is converted
# with float, because PyYAML reads 1e-14 (no decimal point) as a string.
_CONFIG_CHECKS = {"target_rule": lambda rule: rule, "outputs": lambda out: out,
                  "n_grid": lambda grid: _grid("n_grid", grid),
                  **{key: _integer(key) for key in ("trials_per_n", "master_seed",
                                                    "mu_budget", "erm_budget")}}
_SOLVER_CHECKS = {"max_iters": _integer("solver.max_iters"), "tol": float,
                  "track_trace": _boolean("solver.track_trace")}


def config_from_dict(d: dict) -> ExperimentConfig:
    spec = spec_from_dict(_required(d, "spec"))
    model = model_from_dict(_required(d, "model"), spec.p)
    hset = set_from_dict(_required(d, "set"), spec.p, beta0=model.beta0)
    solver_d = d.get("solver") or {}
    unknown = sorted(set(solver_d) - set(_SOLVER_CHECKS))
    if unknown:
        raise ConfigurationError(f"unknown solver key(s) {', '.join(unknown)}; "
                                 f"expected {', '.join(_SOLVER_CHECKS)}")
    config = {key: check(d[key]) for key, check in _CONFIG_CHECKS.items() if key in d}
    if isinstance(config.get("target_rule"), dict):
        config["target_vector"] = np.asarray(
            _required(config["target_rule"], "target_rule.explicit"), float)
        config["target_rule"] = "explicit"
    return ExperimentConfig(
        name=d.get("name", "experiment"), model=model, spec=spec,
        hypothesis_set=hset, solver_config=solver.SolverConfig(
            **{key: _SOLVER_CHECKS[key](value) for key, value in solver_d.items()}),
        **config)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(yaml.safe_load(fh))
