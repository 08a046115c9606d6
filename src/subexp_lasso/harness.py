"""End-to-end seeded experiments: error curves, decay fits, certificates.

An experiment is declared by a config (constructible from YAML), runs a
deterministic grid of (sample size, trial) cells, records per-cell errors,
and aggregates medians/quartiles plus a fitted log-log decay slope.  Records
round-trip losslessly through CSV / JSON-lines emitters.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import numbers
import os
import time
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional

import numpy as np
import yaml

from . import geometry, solver
from .distributions import DistributionSpec
from .errors import ConfigurationError
from .models import (Dataset, Noise, ObservationModel, generate_dataset,
                     sparse_vector, target_scale_mu)
from .seeding import derive_seed

FORMATS = ("csv", "jsonl", "table")

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
    pair).  The count is never chosen from the cell shape.  None means one
    worker; a count below 1 raises a ConfigurationError naming its source.
    """
    env = os.environ.get("SUBEXP_LASSO_THREADS")
    name, value = ("SUBEXP_LASSO_THREADS", env) if env else ("--threads", cli_value)
    if value is None:
        return 1
    try:
        count = int(value)
    except ValueError as exc:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from exc
    if count < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {count}")
    return count


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

def _is_integer(value) -> bool:
    """Whether value is an integer of any integral type; bools are not
    integers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _grid(values, name: str) -> tuple:
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
        grid = _grid(self.n_grid, "n_grid")
        for name in ("trials_per_n", "mu_budget", "erm_budget"):
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
    """The config in schema keys, so that config_from_dict rebuilds it;
    `outputs`, where the results go, is left out."""
    spec, model, s = config.spec, config.model, config.hypothesis_set
    rule = ({"explicit": np.asarray(config.target_vector).tolist()}
            if config.target_rule == "explicit" else config.target_rule)
    return {
        "name": config.name, "target_rule": rule, "n_grid": list(config.n_grid),
        **{key: getattr(config, key)
           for key in ("trials_per_n", "master_seed", "mu_budget", "erm_budget")},
        "spec": {**asdict(spec),
                 "mixing": None if spec.mixing is None else spec.mixing.tolist()},
        "model": {**asdict(model), "beta0": model.beta0.tolist()},
        "set": {"kind": s.kind, "radius": s.radius,
                "center": None if s.center is None else s.center.tolist(),
                "vertices": None if s.vertices is None else s.vertices.tolist()},
        "solver": asdict(config.solver_config),
    }


# ---------------------------------------------------------------------------
# Resolving the target
# ---------------------------------------------------------------------------

def resolve_target(config: ExperimentConfig) -> np.ndarray:
    """The target vector of the config's rule."""
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
    """One (n, trial) cell.  The fields, in order, are the record columns of
    the emitter and the parser (`columns_of`); one with a default may be None."""
    experiment: str = field(metadata={"read": str})
    n: int = field(metadata={"read": int})
    trial: int = field(metadata={"read": int})
    error: float = field(metadata={"read": float, "fmt": ".6g"})
    runtime_ms: float = field(metadata={"read": float, "fmt": ".2f"})
    converged: bool = field(metadata={"read": {"true": True, "false": False}.__getitem__})
    seed: int = field(metadata={"read": int})
    iterations: Optional[int] = field(default=None, metadata={"read": int})


RESULT_COLUMNS = tuple(f.name for f in fields(TrialRecord))


@dataclass
class AggregateRow:
    """The records of one n (`aggregate_records`); the fields are the columns
    of `report`, with `read` and `fmt` as TrialRecord's."""
    n: int = field(metadata={"read": int})
    median: float = field(metadata={"read": float, "fmt": ".6g"})
    q25: float = field(metadata={"read": float, "fmt": ".6g"})
    q75: float = field(metadata={"read": float, "fmt": ".6g"})
    count: int = field(metadata={"read": int})
    iters_p50: Optional[float] = field(metadata={"read": float, "fmt": ".10g"})
    iters_max: Optional[int] = field(metadata={"read": int, "fmt": ".10g"})


@dataclass
class ExperimentResult:
    records: list
    aggregates: dict            # n -> AggregateRow
    decay_slope: float          # nan without a fit (summarize)
    decay_stderr: float
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
    return ExperimentResult(records, *summarize(records), config_hash(config),
                            target=beta_nat)


def summarize(records) -> tuple:
    """(aggregates, decay slope, its stderr): `aggregate_records` and the
    decay fit of their medians, nan when fewer than 3 medians are positive."""
    aggregates = aggregate_records(records)
    try:
        return (aggregates, *fit_decay_rate_from_aggregates(aggregates))
    except ValueError:
        return aggregates, math.nan, math.nan


def aggregate_records(records) -> dict:
    """n -> the AggregateRow of the records of that n, in increasing n.

    The iteration counts are None when any record of that n lacks its
    count (records parsed from a CSV without the iterations column).
    """
    by_n: dict = {}
    for r in records:
        by_n.setdefault(r.n, []).append(r)
    out = {}
    for n in sorted(by_n):
        errs = np.array([r.error for r in by_n[n]])
        iters = [r.iterations for r in by_n[n]]
        known = None not in iters
        out[n] = AggregateRow(n, float(np.median(errs)), float(np.quantile(errs, 0.25)),
                              float(np.quantile(errs, 0.75)), int(errs.size),
                              float(np.median(iters)) if known else None,
                              max(iters) if known else None)
    return out


def fit_decay_rate_from_aggregates(aggregates: dict):
    """(slope, stderr) of the OLS fit of log(median error) on log(n), over
    the grid points whose median is positive (at least 3 of them)."""
    ns, meds = [], []
    for n, agg in sorted(aggregates.items()):
        if agg.median > 0:
            ns.append(n)
            meds.append(agg.median)
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
    """Minimum excess risk over the sampled points at distance t from
    beta_nat, the points beta_nat + t v of `geometry.sample_directions`.

    The minimum runs over the sampled directions only: a positive minimum
    says that every sampled point at distance t has a larger empirical risk
    than beta_nat, not that every point of the slice has.  The excesses
    (Q + M of `solver.excess_decomposition`) come from one product with X.
    """
    beta_nat = np.asarray(beta_nat, dtype=float)
    if not (t > 0):
        raise ConfigurationError("t must be positive")
    dirs = geometry.sample_directions(s, beta_nat, t, n_dirs, seed)
    if dirs.shape[0] == 0:
        return CertificateReport(t, 0, math.nan, False, empty_slice=True)
    flat = beta_nat.ravel()
    diffs = (flat + t * dirs) - flat
    Xd = (np.column_stack([dataset.forward(d) for d in diffs]) if dataset.lifted
          else dataset.inputs @ diffs.T)
    resid = dataset.forward(beta_nat) - dataset.outputs
    excesses = (np.einsum("ij,ij->j", Xd, Xd) / dataset.n
                + 2.0 * (resid @ Xd) / dataset.n)
    min_excess = float(excesses.min())
    return CertificateReport(t, dirs.shape[0], min_excess, min_excess > 0.0)


# ---------------------------------------------------------------------------
# Phase transitions
# ---------------------------------------------------------------------------

@dataclass
class PhaseTransitionResult:
    k_grid: tuple
    n_grid: tuple
    success: np.ndarray         # |k_grid| x |n_grid| success fractions
    max_error: np.ndarray       # |k_grid| x |n_grid| largest trial errors


def run_phase_transition(k_grid, n_grid, config: ExperimentConfig) -> PhaseTransitionResult:
    """Fraction of trials with error below threshold, and the largest trial
    error, per (k, n) cell.

    For each sparsity k a fresh unit-norm k-sparse target is drawn and the
    l1 ball is tuned to it; the threshold is 1e-3 times the target norm for
    noiseless models and the noise level otherwise.  The cells are
    the error-curve cells of a config named "pt:k=<k>", solved by
    `_run_cells` on thread_count() workers.
    """
    k_grid, n_grid = _grid(k_grid, "k_grid"), _grid(n_grid, "n_grid")
    noise = config.model.noise
    noiseless = noise.kind == "none" or noise.level == 0.0
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
        thresholds.append(1e-3 * float(np.linalg.norm(beta0)) if noiseless
                          else noise.level)
    errors = np.array([r.error for r in _run_cells(cells)]).reshape(
        len(k_grid), len(n_grid), config.trials_per_n)
    hits = np.count_nonzero(errors < np.array(thresholds)[:, None, None], axis=2)
    return PhaseTransitionResult(k_grid, n_grid, hits / config.trials_per_n,
                                 errors.max(axis=2))


# ---------------------------------------------------------------------------
# Emission and round-tripping
# ---------------------------------------------------------------------------

class Column(NamedTuple):
    """A table column: `read` takes its csv cell back to the value (None for
    a report object's), `fmt` formats the value in a table."""
    name: str
    read: Optional[Callable] = None
    fmt: str = ""


def columns_of(cls) -> tuple:
    """The Columns of dataclass cls, from its fields' metadata."""
    return tuple(Column(f.name, f.metadata["read"], f.metadata.get("fmt", ""))
                 for f in fields(cls))


class Table(NamedTuple):
    """Rows of values under `columns`, and the (Column, value) pairs of a
    `fit` of the whole table: trailing columns of every row in csv and jsonl,
    the last line ("name value name value") of a table."""
    columns: tuple
    rows: list
    fit: tuple = ()


COMPLEXITY_COLUMNS = (Column("kind", str), Column("mean", float, ".6g"),
                      Column("std_error", float, ".3g"), Column("trials", int))
DECAY_FIT = (Column("decay_slope", float, ".4f"), Column("stderr", float, ".4f"))


def _table(result) -> Table:
    """A Table as it is, records and phase results as a row per record and
    per (k, n) cell, a report object (a dataclass or a mapping) as one row."""
    if isinstance(result, Table):
        return result
    if isinstance(result, ExperimentResult):
        return Table(columns_of(TrialRecord), [astuple(r) for r in result.records])
    if isinstance(result, PhaseTransitionResult):
        return Table((Column("k", int), Column("n", int), Column("success", float, ".3f"),
                      Column("max_error", float, ".6g")), [
            (k, n, float(result.success[i, j]), float(result.max_error[i, j]))
            for i, k in enumerate(result.k_grid) for j, n in enumerate(result.n_grid)])
    data = asdict(result) if hasattr(result, "__dataclass_fields__") else dict(result)
    return Table(tuple(map(Column, data)), [tuple(data.values())])


def emit(result, fmt: str = "csv", out=None) -> str:
    """Render a Table, records, a phase result or a report object (see
    `_table`) as csv, jsonl (an object per row) or table text.  A csv or
    table cell is the value's str (in a table, in its column's `fmt`),
    lower-cased for a bool, and empty (csv) or `-` (table) for None; a
    jsonl cell holding a non-finite float is null, since strict JSON has
    no NaN or Infinity.
    Writes to `out` (path or file object) when given; returns the text.
    """
    if fmt not in FORMATS:
        raise ConfigurationError(f"unknown format {fmt!r}")
    t = _table(result)
    names = [c.name for c in t.columns] + [c.name for c, _ in t.fit]
    rows = [(*row, *(v for _, v in t.fit)) for row in t.rows]
    if fmt == "jsonl":
        text = "".join(json.dumps({k: None if isinstance(v, float) and not math.isfinite(v)
                                   else v for k, v in zip(names, row)}) + "\n" for row in rows)
    elif fmt == "csv":
        text = _csv_text([names] + [[_cell(v, "", "") for v in row] for row in rows])
    else:
        fit = [s for c, v in t.fit for s in (c.name, _cell(v, c.fmt, "-"))]
        text = format_table([names[:len(t.columns)]] + [
            [_cell(v, c.fmt, "-") for v, c in zip(row, t.columns)] for row in t.rows]
            + ([fit + [""] * (len(t.columns) - len(fit))] if fit else []))
    if out is not None:
        if hasattr(out, "write"):
            out.write(text)
        else:
            try:  # encoded first, so a failure leaves no file behind
                data = text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ConfigurationError(f"cannot write {out!r}: {exc}") from exc
            with open(out, "wb") as fh:
                fh.write(data)
    return text


def _cell(value, fmt: str, none: str) -> str:
    if value is None:
        return none
    return ("true" if value else "false") if isinstance(value, bool) else format(value, fmt)


def _csv_text(rows) -> str:
    """CSV lines ending in "\n", each written ending "\r\n" so that "\r" cells are quoted."""
    def line(row):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        return buf.getvalue()[:-2] + "\n"
    return "".join(map(line, rows))


def format_table(rows) -> str:
    """Left-aligned columns of string cells, two spaces apart."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def _read_text(path, what: str) -> str:
    """The text of UTF-8 file `path`, line ends as written.  A missing or
    unreadable file raises a ConfigurationError naming it as `what`."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise ConfigurationError(f"{what} {path!r} does not exist") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{what} {path!r} cannot be read: {exc}") from exc


def parse_records_csv(text_or_path) -> list:
    """Inverse of the csv emitter; returns TrialRecord objects.

    A non-empty string without a newline is a path, anything else CSV text.
    The header is a prefix of RESULT_COLUMNS that keeps every column without
    a default; a defaulted column that is missing or empty reads as None.
    """
    text = text_or_path
    if text and "\n" not in text:
        text = _read_text(text, "records CSV")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ConfigurationError("records CSV is empty")
        required = sum(f.default is MISSING for f in fields(TrialRecord))
        if len(header) < required or tuple(header) != RESULT_COLUMNS[:len(header)]:
            raise ConfigurationError("unexpected result CSV header")
        records = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ConfigurationError(f"records CSV line {reader.line_num}: "
                                         f"{len(row)} fields, expected {len(header)}")
            cells = []
            for f, cell in zip(fields(TrialRecord), row):
                try:
                    cells.append(None if cell == "" and f.default is None
                                 else f.metadata["read"](cell))
                except (KeyError, ValueError) as exc:
                    raise ConfigurationError(f"records CSV line {reader.line_num}, column "
                                             f"{f.name}: cannot read {cell!r}") from exc
            records.append(TrialRecord(*cells))
    except csv.Error as exc:  # a cell past the csv module's field size limit
        raise ConfigurationError(f"records CSV line {reader.line_num}: {exc}") from exc
    return records


# ---------------------------------------------------------------------------
# Declarative configs (YAML)
# ---------------------------------------------------------------------------

def _fail(key: str, what: str, value):
    raise ConfigurationError(f"{key} must be {what}, got {value!r}")


def _str(value, key: str) -> str:
    return value if isinstance(value, str) else _fail(key, "a string", value)


def _int(value, key: str) -> int:
    return int(value) if _is_integer(value) else _fail(key, "an integer", value)


def _bool(value, key: str) -> bool:
    return value if isinstance(value, bool) else _fail(key, "true or false", value)


def _float(value, key: str) -> float:
    """A real number, bools excluded, or a numeric string: PyYAML reads
    1e-14 (no decimal point) as a string."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    try:
        return float(value) if isinstance(value, str) else _fail(key, "a number", value)
    except ValueError:
        return _fail(key, "a number", value)


def _array(value, key: str, ndmin: int = 1) -> np.ndarray:
    """A float array: an inline (nested) list whose entries pass `_float`,
    or the path of a text file with one whitespace-separated row per line,
    read with ndmin dimensions or more (2 for a matrix: one column stays 2-D)."""
    if isinstance(value, str):
        try:
            return np.loadtxt(value, dtype=float, ndmin=ndmin)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"{key}: cannot read {value!r}: {exc}") from exc
    if not isinstance(value, list):
        _fail(key, "a list of numbers or a file path", value)
    cells = np.array(value, dtype=object)
    return np.array([_float(v, key) for v in cells.ravel()]).reshape(cells.shape)


_matrix = functools.partial(_array, ndmin=2)


# Every YAML key: a check (value, dotted key) -> value, or a nested section.
# Keys left out take the dataclass defaults; a null value counts as left out.
_SCHEMA = {
    "name": _str, "n_grid": _grid, "outputs": _str,
    "target_rule": lambda value, key: (_checked(value, {"explicit": _array}, key)
                                       if isinstance(value, dict) else _str(value, key)),
    **dict.fromkeys(("trials_per_n", "master_seed", "mu_budget", "erm_budget"), _int),
    "spec": {"kind": _str, "p": _int, "scale": _float, "mixing": _matrix,
             "base_kind": _str, "seed_domain": _str},
    "model": {"kind": _str, "beta0": _array, "link": _str,
              "beta0_rule": {"k": _int, "seed": _int, "norm": _str},
              "noise": {"kind": _str, "level": _float}},
    "set": {"kind": _str, "center": _array, "vertices": _matrix,
            "radius": lambda value, key: (value if value in ("beta0_l1", "beta0_l2")
                                          else _float(value, key))},
    "solver": {"max_iters": _int, "tol": _float, "track_trace": _bool},
}
_REQUIRED = {"spec", "model", "set", "spec.kind", "spec.p", "model.kind",
             "model.beta0_rule.k", "set.kind", "target_rule.explicit"}


def _checked(d, schema: dict, path: str = "") -> dict:
    """The non-null entries of mapping d, each passed through its schema
    entry.  An unknown key, a missing required key or a value of the wrong
    type raises a ConfigurationError naming the dotted key."""
    if not isinstance(d, dict):
        _fail(path or "config", "a mapping", d)
    prefix = f"{path}." if path else ""
    unknown = [prefix + str(key) for key in d if key not in schema]
    if unknown:
        raise ConfigurationError(f"unknown config key(s) {', '.join(unknown)}; "
                                 f"expected one of {', '.join(schema)}")
    for key in schema:
        if prefix + key in _REQUIRED and d.get(key) is None:
            raise ConfigurationError(f"config is missing required key '{prefix}{key}'")
    return {key: _checked(value, schema[key], prefix + key)
            if isinstance(schema[key], dict) else schema[key](value, prefix + key)
            for key, value in d.items() if value is not None}


def _built(section: str, build, *args, **kwargs):
    """build(*args, **kwargs) for a config section.  A ConfigurationError
    from it (a range check) names the section, and the dotted key when its
    message starts with one of the section's keys ("spec.scale must be")."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        keys = functools.reduce(dict.__getitem__, section.split("."), _SCHEMA)
        sep = "." if str(exc).split(" ", 1)[0] in keys else ": "
        raise ConfigurationError(f"{section}{sep}{exc}") from exc


def config_from_dict(d: dict) -> ExperimentConfig:
    c = _checked(d, _SCHEMA)
    spec = _built("spec", DistributionSpec, **c.pop("spec"))
    m, s = c.pop("model"), c.pop("set")
    beta0 = m.get("beta0")
    if beta0 is None and "beta0_rule" not in m:
        raise ConfigurationError("model needs beta0 or beta0_rule")
    if beta0 is None:
        beta0 = _built("model.beta0_rule", sparse_vector, spec.p,
                       **{"seed": 0, **m["beta0_rule"]})
    model = _built("model", ObservationModel, m["kind"], beta0, m.get("link", "identity"),
                   _built("model.noise", Noise, **m.get("noise", {})))
    need = "vertices" if s["kind"] == "polytope" else "radius"
    if s.get(need) is None:
        raise ConfigurationError(f"config is missing required key 'set.{need}'")
    radius = s.get("radius")
    if radius in ("beta0_l1", "beta0_l2"):
        radius = float(np.linalg.norm(model.beta0, 1 if radius == "beta0_l1" else None))
    builders = {"l1_ball": geometry.l1_ball, "hypercube": geometry.hypercube,
                "lifted_psd_fro": geometry.lifted_psd_fro,
                "l2_ball": lambda r, p: geometry.l2_ball(r, p, s.get("center")),
                "polytope": lambda r, p: geometry.polytope(s["vertices"])}
    if s["kind"] not in builders:
        raise ConfigurationError(f"unknown set kind {s['kind']!r}")
    hset = _built("set", builders[s["kind"]], radius, spec.p)
    if isinstance(c.get("target_rule"), dict):
        c.update(target_rule="explicit", target_vector=c["target_rule"]["explicit"])
    return ExperimentConfig(model=model, spec=spec, hypothesis_set=hset,
                            solver_config=_built("solver", solver.SolverConfig,
                                                 **c.pop("solver", {})),
                            **{"name": "experiment", **c})


def load_config(path) -> ExperimentConfig:
    """The config of a YAML file, parsed by libyaml where PyYAML has it (the
    resolver is PyYAML's own either way).  A file that is missing or cannot
    be read, or a YAML syntax error, raises a ConfigurationError naming the
    file (and the line of the syntax error)."""
    text = _read_text(path, "config")
    try:
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f", line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigurationError(f"{path}{where}: not valid YAML: "
                                 f"{getattr(exc, 'problem', exc)}") from exc
    return config_from_dict(data)
