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
import os
import time
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np
import yaml

from . import geometry, solver
from .distributions import DistributionSpec
from .errors import ConfigurationError
from .models import (Dataset, Noise, ObservationModel, generate_dataset,
                     sparse_vector, target_scale_mu)
from .seeding import derive_seed, rng_for

RESULT_COLUMNS = ("experiment", "n", "trial", "error", "runtime_ms",
                  "converged", "seed")

TARGET_RULES = ("beta0", "mu_beta0", "erm_mc", "explicit")


def thread_count(cli_value: Optional[int] = None) -> int:
    """Worker count: SUBEXP_LASSO_THREADS overrides the CLI value."""
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
        grid = tuple(int(n) for n in self.n_grid)
        if any(b >= a for a, b in zip(grid[1:], grid[:-1])):
            raise ConfigurationError("n_grid must be strictly increasing")
        if self.trials_per_n < 1:
            raise ConfigurationError("trials_per_n must be >= 1")
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

    Dense candidate search (vertices, projected random points, the projected
    moment vector E[y x]) followed by a projected-gradient polish on one
    large calibration sample.  Restricted to small dimensions.
    """
    if config.spec.p > 12:
        raise ConfigurationError("erm_mc target rule is restricted to p <= 12")
    seed = derive_seed(config.master_seed, "erm-mc")
    big = generate_dataset(config.model, config.spec, config.erm_budget, seed)
    s = config.hypothesis_set
    rng = rng_for(seed, "erm-candidates")
    cands = [geometry.project(s, np.zeros(s.p))]
    moment = big.inputs.T @ big.outputs / big.n
    cands.append(geometry.project(s, moment))
    if s.kind in ("polytope", "l1_ball"):
        cands.extend(list(geometry.vertices_of(s)))
    scale = 2.0 * (s.radius or 1.0)
    for _ in range(64):
        cands.append(geometry.project(s, scale * rng.standard_normal(s.p)))
    best = min(cands, key=lambda b: solver.empirical_risk(big, b))
    polish_cfg = solver.SolverConfig(max_iters=5_000, tol=1e-13)
    res = solver._pgd(big, s, polish_cfg, best)
    return res.estimate


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


@dataclass
class ExperimentResult:
    records: list
    aggregates: dict            # n -> {"median", "q25", "q75"}
    decay_slope: Optional[float]
    decay_stderr: Optional[float]
    config_hash: str
    target: Optional[np.ndarray] = None


def _solve_cell(config: ExperimentConfig, beta_nat: np.ndarray, n: int,
                trial: int) -> TrialRecord:
    seed = derive_seed(config.master_seed, f"{config.name}:n={n}", trial)
    dataset = generate_dataset(config.model, config.spec, n, seed)
    t0 = time.perf_counter()
    if dataset.lifted:
        res = solver.solve_lifted(dataset, config.hypothesis_set, config.solver_config)
        lam, vec, _ = solver.rank1_extract(res.estimate)
        err = solver.sign_invariant_error(lam * vec, beta_nat)
    else:
        res = solver.solve_lasso(dataset, config.hypothesis_set, config.solver_config)
        err = float(np.linalg.norm(res.estimate - beta_nat))
    ms = 1000.0 * (time.perf_counter() - t0)
    return TrialRecord(config.name, n, trial, err, ms, res.converged, seed)


def run_error_curve(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Per-(n, trial) estimation errors against the resolved target.

    Trials are independent units; with threads > 1 they are scheduled
    concurrently, each on its own derived seed, and records are serialized
    in (n, trial) order, so the result is identical for any thread count.
    Solver non-convergence is recorded, not fatal.
    """
    beta_nat = resolve_target(config)
    cells = [(n, trial) for n in config.n_grid
             for trial in range(config.trials_per_n)]
    workers = thread_count(threads)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(
                lambda cell: _solve_cell(config, beta_nat, *cell), cells))
    else:
        records = [_solve_cell(config, beta_nat, n, trial)
                   for n, trial in cells]
    aggregates = aggregate_records(records)
    slope, stderr = (None, None)
    try:
        slope, stderr = fit_decay_rate_from_aggregates(aggregates)
    except ValueError:
        pass
    return ExperimentResult(records, aggregates, slope, stderr,
                            config_hash(config), target=beta_nat)


def aggregate_records(records) -> dict:
    by_n: dict = {}
    for r in records:
        by_n.setdefault(r.n, []).append(r.error)
    out = {}
    for n in sorted(by_n):
        errs = np.array(by_n[n])
        out[n] = {"median": float(np.median(errs)),
                  "q25": float(np.quantile(errs, 0.25)),
                  "q75": float(np.quantile(errs, 0.75)),
                  "count": int(errs.size)}
    return out


def fit_decay_rate(result: ExperimentResult):
    """OLS slope of log(median error) on log(n); see the aggregate variant."""
    return fit_decay_rate_from_aggregates(result.aggregates)


def fit_decay_rate_from_aggregates(aggregates: dict):
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


def run_phase_transition(k_grid, n_grid, config: ExperimentConfig,
                         success_threshold: Optional[float] = None) -> PhaseTransitionResult:
    """Fraction of trials with error below threshold per (k, n) cell.

    For each sparsity k a fresh unit-norm k-sparse target is drawn and the
    l1 ball is tuned to it; the default threshold is 1e-3 times the target
    norm for noiseless models and the noise level otherwise.
    """
    k_grid = tuple(int(k) for k in k_grid)
    n_grid = tuple(int(n) for n in n_grid)
    success = np.zeros((len(k_grid), len(n_grid)))
    for i, k in enumerate(k_grid):
        beta0 = sparse_vector(config.spec.p, k,
                              derive_seed(config.master_seed, "pt-beta0", i))
        model = ObservationModel(config.model.kind, beta0, config.model.link,
                                 config.model.noise)
        radius = float(np.abs(beta0).sum())
        s = geometry.l1_ball(radius, config.spec.p)
        if success_threshold is None:
            if model.noise.kind == "none" or model.noise.level == 0.0:
                thr = 1e-3 * float(np.linalg.norm(beta0))
            else:
                thr = model.noise.level
            rule = "auto"
        else:
            thr = float(success_threshold)
            rule = "explicit"
        for j, n in enumerate(n_grid):
            hits = 0
            for trial in range(config.trials_per_n):
                seed = derive_seed(config.master_seed, f"pt:k={k}:n={n}", trial)
                dataset = generate_dataset(model, config.spec, n, seed)
                res = solver.solve_lasso(dataset, s, config.solver_config)
                if float(np.linalg.norm(res.estimate - beta0)) < thr:
                    hits += 1
            success[i, j] = hits / config.trials_per_n
    return PhaseTransitionResult(k_grid, n_grid, success, rule)


# ---------------------------------------------------------------------------
# Emission and round-tripping
# ---------------------------------------------------------------------------

def records_to_rows(records) -> list:
    return [[r.experiment, r.n, r.trial, repr(r.error), repr(r.runtime_ms),
             "true" if r.converged else "false", r.seed] for r in records]


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


def _emit_records(records, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(records_to_rows(records))
        return buf.getvalue()
    if fmt == "jsonl":
        lines = []
        for r in records:
            lines.append(json.dumps({
                "experiment": r.experiment, "n": r.n, "trial": r.trial,
                "error": r.error, "runtime_ms": r.runtime_ms,
                "converged": r.converged, "seed": r.seed}))
        return "\n".join(lines) + "\n"
    if fmt == "table":
        rows = [["experiment", "n", "trial", "error", "runtime_ms",
                 "converged", "seed"]]
        rows += [[r.experiment, str(r.n), str(r.trial), f"{r.error:.6g}",
                  f"{r.runtime_ms:.2f}", str(r.converged).lower(), str(r.seed)]
                 for r in records]
        return format_table(rows)
    raise ConfigurationError(f"unknown format {fmt!r}")


def _emit_phase(result: PhaseTransitionResult, fmt: str) -> str:
    if fmt == "jsonl":
        lines = [json.dumps({"k": k, "n": n,
                             "success": float(result.success[i, j])})
                 for i, k in enumerate(result.k_grid)
                 for j, n in enumerate(result.n_grid)]
        return "\n".join(lines) + "\n"
    rows = [["k/n"] + [str(n) for n in result.n_grid]]
    for i, k in enumerate(result.k_grid):
        rows.append([str(k)] + [f"{result.success[i, j]:.3f}"
                                for j in range(len(result.n_grid))])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        return buf.getvalue()
    return format_table(rows)


def _emit_report(obj, fmt: str) -> str:
    data = asdict(obj) if hasattr(obj, "__dataclass_fields__") else dict(obj)
    clean = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
             for k, v in data.items()}
    if fmt == "jsonl":
        return json.dumps(clean, default=str) + "\n"
    rows = [[str(k), str(v)] for k, v in clean.items()]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["field", "value"])
        writer.writerows(rows)
        return buf.getvalue()
    return format_table([["field", "value"]] + rows)


def format_table(rows) -> str:
    """Left-aligned columns of string cells, two spaces apart."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def parse_records_csv(text_or_path) -> list:
    """Inverse of the csv emitter; returns TrialRecord objects."""
    if isinstance(text_or_path, str) and "\n" not in text_or_path \
            and os.path.exists(text_or_path):
        with open(text_or_path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = text_or_path
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != RESULT_COLUMNS:
        raise ConfigurationError("unexpected result CSV header")
    records = []
    for row in reader:
        if not row:
            continue
        records.append(TrialRecord(row[0], int(row[1]), int(row[2]),
                                   float(row[3]), float(row[4]),
                                   row[5] == "true", int(row[6])))
    return records


# ---------------------------------------------------------------------------
# Declarative configs (YAML)
# ---------------------------------------------------------------------------

def spec_from_dict(d: dict) -> DistributionSpec:
    mixing = d.get("mixing")
    if isinstance(mixing, str):
        mixing = np.loadtxt(mixing)
    return DistributionSpec(kind=d["kind"], p=int(d["p"]),
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
        beta0 = sparse_vector(p, int(rule["k"]), int(rule.get("seed", 0)),
                              rule.get("norm", "l2"))
    noise_d = d.get("noise", {"kind": "none"})
    noise = Noise(noise_d.get("kind", "none"), float(noise_d.get("level", 0.0)))
    return ObservationModel(d["kind"], np.asarray(beta0, dtype=float),
                            d.get("link", "identity"), noise)


def set_from_dict(d: dict, p: int, beta0=None) -> geometry.HypothesisSet:
    kind = d["kind"]
    radius = d.get("radius")
    if isinstance(radius, str):
        if beta0 is None:
            raise ConfigurationError(f"radius rule {radius!r} needs beta0")
        if radius == "beta0_l1":
            radius = float(np.abs(beta0).sum())
        elif radius == "beta0_l2":
            radius = float(np.linalg.norm(beta0))
        else:
            raise ConfigurationError(f"unknown radius rule {radius!r}")
    if kind == "l1_ball":
        return geometry.l1_ball(float(radius), p)
    if kind == "l2_ball":
        return geometry.l2_ball(float(radius), p, d.get("center"))
    if kind == "hypercube":
        return geometry.hypercube(float(radius), p)
    if kind == "lifted_psd_fro":
        return geometry.lifted_psd_fro(float(radius), p)
    if kind == "polytope":
        if "vertices_file" in d:
            return geometry.load_vertices(d["vertices_file"])
        return geometry.polytope(np.asarray(d["vertices"], dtype=float))
    raise ConfigurationError(f"unknown set kind {kind!r}")


def config_from_dict(d: dict) -> ExperimentConfig:
    spec = spec_from_dict(d["spec"])
    model = model_from_dict(d["model"], spec.p)
    hset = set_from_dict(d["set"], spec.p, beta0=model.beta0)
    solver_d = d.get("solver", {})
    scfg = solver.SolverConfig(
        max_iters=int(solver_d.get("max_iters", 20_000)),
        tol=float(solver_d.get("tol", 1e-12)),
        step_rule=solver_d.get("step_rule", "fixed_inverse_lipschitz"),
        restart_count=int(solver_d.get("restart_count", 1)),
        seed=int(solver_d.get("seed", 0)),
        track_trace=bool(solver_d.get("track_trace", False)))
    target_rule = d.get("target_rule", "beta0")
    target_vector = None
    if isinstance(target_rule, dict):
        target_vector = np.asarray(target_rule["explicit"], dtype=float)
        target_rule = "explicit"
    return ExperimentConfig(
        name=d.get("name", "experiment"),
        model=model, spec=spec, hypothesis_set=hset,
        target_rule=target_rule, target_vector=target_vector,
        solver_config=scfg,
        n_grid=tuple(int(n) for n in d.get("n_grid", (200, 400, 800))),
        trials_per_n=int(d.get("trials_per_n", 10)),
        master_seed=int(d.get("master_seed", 0)),
        mu_budget=int(d.get("mu_budget", 1_000_000)),
        erm_budget=int(d.get("erm_budget", 200_000)),
        outputs=d.get("outputs"))


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(yaml.safe_load(fh))
