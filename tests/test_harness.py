import csv
import io
import json
import math
import os
import re
import tempfile
import typing
from dataclasses import MISSING, astuple, fields, replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subexp_lasso import geometry, harness, solver
from subexp_lasso.distributions import KINDS, DistributionSpec
from subexp_lasso.errors import ConfigurationError
from subexp_lasso.models import (LINKS, MODEL_KINDS, Noise, ObservationModel,
                                 generate_dataset, sparse_vector)
from subexp_lasso.solver import SolverConfig, solve_lasso
from subexp_lasso.seeding import MC_CHUNK, derive_seed, partitions


def small_config(**overrides):
    p = 6
    beta0 = np.zeros(p)
    beta0[:2] = [1.0, -0.5]
    defaults = dict(
        name="unit",
        model=ObservationModel("linear", beta0, noise=Noise("gaussian", 0.2)),
        spec=DistributionSpec("laplace", p),
        hypothesis_set=geometry.l1_ball(float(np.abs(beta0).sum()), p),
        solver_config=SolverConfig(max_iters=5_000, tol=1e-12),
        n_grid=(20, 40, 80),
        trials_per_n=4,
        master_seed=3,
    )
    defaults.update(overrides)
    return harness.ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# Seeding utilities
# ---------------------------------------------------------------------------

def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(1, "x", 0)
    assert a == derive_seed(1, "x", 0)
    assert a != derive_seed(1, "x", 1)
    assert a != derive_seed(1, "y", 0)
    assert a != derive_seed(2, "x", 0)


@settings(max_examples=60, deadline=None)
@given(total=st.integers(1, 40 * MC_CHUNK), seed=st.integers(0, 2 ** 64 - 1),
       domain=st.text(max_size=8))
@example(total=MC_CHUNK, seed=0, domain="mismatch")
@example(total=MC_CHUNK + 1, seed=0, domain="mismatch")
def test_partitions_are_near_equal_and_seeded_by_index(total, seed, domain):
    parts = partitions(total, seed, domain)
    sizes = [m for _, m in parts]
    assert len(parts) == -(-total // MC_CHUNK)
    assert sum(sizes) == total
    assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
    assert [child for child, _ in parts] == [derive_seed(seed, domain, i)
                                             for i in range(len(parts))]


@given(total=st.integers(max_value=0))
def test_partitions_reject_an_empty_budget(total):
    with pytest.raises(ConfigurationError, match="mc_budget must be >= 1"):
        partitions(total, 0, "t")


# ---------------------------------------------------------------------------
# Decay fitting
# ---------------------------------------------------------------------------

def synthetic_aggregates(fn):
    return {n: harness.AggregateRow(n, fn(n), fn(n), fn(n), 1, None, None)
            for n in (100, 200, 400, 800)}


def test_fit_decay_rate_synthetic_half():
    slope, stderr = harness.fit_decay_rate_from_aggregates(
        synthetic_aggregates(lambda n: n ** -0.5))
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-10)


def test_fit_decay_rate_synthetic_constant():
    slope, _ = harness.fit_decay_rate_from_aggregates(
        synthetic_aggregates(lambda n: 2.0))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_rate_synthetic_quarter():
    slope, _ = harness.fit_decay_rate_from_aggregates(
        synthetic_aggregates(lambda n: 3.0 * n ** -0.25))
    assert slope == pytest.approx(-0.25, abs=1e-12)


def test_fit_decay_rate_requires_three_positive_medians():
    aggs = {100: harness.AggregateRow(100, 0.0, 0, 0, 1, None, None),
            200: harness.AggregateRow(200, 1.0, 1, 1, 1, None, None),
            400: harness.AggregateRow(400, 0.5, 0.5, 0.5, 1, None, None)}
    with pytest.raises(ValueError):
        harness.fit_decay_rate_from_aggregates(aggs)


# ---------------------------------------------------------------------------
# Error curves
# ---------------------------------------------------------------------------

def test_error_curve_singleton_set_bounds_errors():
    beta0 = np.array([0.5, -0.25, 0.0, 0.0])
    radius = 1e-6
    config = harness.ExperimentConfig(
        name="singleton",
        model=ObservationModel("linear", beta0, noise=Noise("gaussian", 1.0)),
        spec=DistributionSpec("gaussian", 4),
        hypothesis_set=geometry.l2_ball(radius, 4, center=beta0),
        solver_config=SolverConfig(max_iters=200, tol=1e-10),
        n_grid=(10,), trials_per_n=3, master_seed=1)
    res = harness.run_error_curve(config)
    assert all(r.error <= radius + 1e-12 for r in res.records)


def test_error_curve_determinism_and_record_shape():
    config = small_config()
    a = harness.run_error_curve(config)
    b = harness.run_error_curve(config)
    assert len(a.records) == len(config.n_grid) * config.trials_per_n
    for ra, rb in zip(a.records, b.records):
        assert (ra.n, ra.trial, ra.error, ra.seed) == (rb.n, rb.trial, rb.error, rb.seed)
    assert a.config_hash == b.config_hash
    # aggregates recomputable from records exactly
    assert a.aggregates == harness.aggregate_records(a.records)


def test_error_curve_threaded_matches_sequential():
    config = small_config()
    seq = harness.run_error_curve(config, threads=1)
    par = harness.run_error_curve(config, threads=3)
    # identical modulo wall-clock timings
    for a, b in zip(seq.records, par.records):
        assert (a.n, a.trial, a.error, a.converged, a.seed) \
            == (b.n, b.trial, b.error, b.converged, b.seed)
    assert seq.aggregates == par.aggregates


def test_error_curve_lifted_model():
    p = 4
    beta0 = np.zeros(p)
    beta0[0] = 1.0
    config = harness.ExperimentConfig(
        name="lifted",
        model=ObservationModel("lifted_view", beta0),
        spec=DistributionSpec("gaussian", p),
        hypothesis_set=geometry.lifted_psd_fro(1.0, p),
        solver_config=SolverConfig(max_iters=4_000, tol=1e-12),
        n_grid=(120,), trials_per_n=2, master_seed=5)
    res = harness.run_error_curve(config)
    assert all(r.error < 0.5 for r in res.records)


def test_error_curve_noiseless_exact_recovery():
    config = small_config(
        model=ObservationModel("linear", small_config().model.beta0),
        n_grid=(40, 80, 160), trials_per_n=2)
    res = harness.run_error_curve(config)
    assert all(r.error < 1e-5 for r in res.records)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_certificate_positive_for_noiseless_overdetermined():
    beta0 = np.array([1.0, -1.0, 0.5])
    model = ObservationModel("linear", beta0)
    spec = DistributionSpec("gaussian", 3)
    ds = generate_dataset(model, spec, 30, 11)
    s = geometry.l2_ball(3.0, 3)
    for t in (0.1, 0.5, 1.0):
        rep = harness.excess_certificate(ds, s, beta0, t, 128, 12)
        assert rep.positive and rep.min_excess > 0


def test_certificate_fails_for_misplaced_target():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((40, 3))
    beta0 = np.array([1.0, 0.0, 0.0])
    y = X @ beta0
    from subexp_lasso.models import Dataset
    ds = Dataset(X, y, DistributionSpec("gaussian", 3),
                 ObservationModel("linear", beta0), 0)
    far = np.array([-1.0, 0.5, 0.5])  # not the empirical minimizer
    s = geometry.l2_ball(3.0, 3)
    rep = harness.excess_certificate(ds, s, far, 0.05, 128, 14)
    assert rep.min_excess < 0 and not rep.positive


@pytest.mark.parametrize("kind", ["linear", "lifted_view"])
def test_certificate_equals_the_per_direction_excess_risks(kind):
    # one product of X with the stacked differences scores what one
    # excess_risk call per sampled point scored, up to rounding
    p, t = 3, 0.3
    beta0 = np.array([0.6, -0.3, 0.2])
    ds = generate_dataset(ObservationModel(kind, beta0, noise=Noise("gaussian", 0.1)),
                          DistributionSpec("laplace", p), 60, 21)
    if kind == "linear":
        s, beta_nat = geometry.l1_ball(2.0, p), beta0
    else:  # a flat p x p target in the lifted set
        s, beta_nat = geometry.lifted_psd_fro(2.0, p), np.outer(beta0, beta0).ravel()
    rep = harness.excess_certificate(ds, s, beta_nat, t, 64, 22)
    dirs = geometry.sample_directions(s, beta_nat, t, 64, 22)
    per_direction = [solver.excess_risk(ds, beta_nat + t * v, beta_nat) for v in dirs]
    assert rep.sampled_directions == len(dirs) > 0
    assert rep.min_excess == pytest.approx(min(per_direction), rel=1e-12, abs=1e-15)


def test_certificate_empty_slice_flag():
    beta0 = np.zeros(2)
    model = ObservationModel("linear", np.array([1.0, 0.0]))
    spec = DistributionSpec("gaussian", 2)
    ds = generate_dataset(model, spec, 10, 15)
    s = geometry.l2_ball(0.5, 2)
    rep = harness.excess_certificate(ds, s, beta0, 2.0, 32, 16)
    assert rep.empty_slice and not rep.positive


@pytest.mark.parametrize("n_dirs", [0, -1])
def test_certificate_rejects_a_direction_count_below_one(n_dirs):
    # the slice at t = 0.5 of this ball is not empty: a count below one
    # is an error, not an empty slice
    beta0 = np.array([0.5, 0.0, 0.0])
    ds = generate_dataset(ObservationModel("linear", beta0),
                          DistributionSpec("gaussian", 3), 20, 17)
    with pytest.raises(ConfigurationError, match="n_dirs"):
        harness.excess_certificate(ds, geometry.l2_ball(2.0, 3), beta0, 0.5, n_dirs, 18)


# ---------------------------------------------------------------------------
# Phase transitions
# ---------------------------------------------------------------------------

def test_phase_transition_extremes_and_monotonicity():
    p = 12
    config = harness.ExperimentConfig(
        name="pt",
        model=ObservationModel("linear", np.eye(p)[0]),
        spec=DistributionSpec("laplace", p),
        hypothesis_set=geometry.l1_ball(1.0, p),
        solver_config=SolverConfig(max_iters=4_000, tol=1e-12),
        n_grid=(10,), trials_per_n=6, master_seed=17)
    res = harness.run_phase_transition([2, 3], [2, 6, 18], config)
    assert res.success.shape == (2, 3)
    # n >= p with noiseless data -> certain recovery
    assert np.all(res.success[:, -1] == 1.0)
    # n far below the sparsity level -> near-certain failure
    assert np.all(res.success[:, 0] <= 0.2)
    # monotone non-decreasing in n up to binomial noise (3 sigma at 6 trials)
    slack = 3 * math.sqrt(0.25 / config.trials_per_n)
    assert np.all(np.diff(res.success, axis=1) >= -slack)


def phase_oracle(k_grid, n_grid, config):
    """The (k, n, trial) solve loop written out: seeds pt:k=<k>:n=<n>.
    Returns the success fractions and the largest trial errors."""
    success = np.zeros((len(k_grid), len(n_grid)))
    max_error = np.zeros_like(success)
    for i, k in enumerate(k_grid):
        beta0 = sparse_vector(config.spec.p, k,
                              derive_seed(config.master_seed, "pt-beta0", i))
        model = ObservationModel(config.model.kind, beta0, config.model.link,
                                 config.model.noise)
        s = geometry.l1_ball(float(np.abs(beta0).sum()), config.spec.p)
        noise = config.model.noise
        thr = (1e-3 * float(np.linalg.norm(beta0))
               if noise.kind == "none" or noise.level == 0.0 else noise.level)
        for j, n in enumerate(n_grid):
            errors = []
            for trial in range(config.trials_per_n):
                seed = derive_seed(config.master_seed, f"pt:k={k}:n={n}", trial)
                res = solve_lasso(generate_dataset(model, config.spec, n, seed),
                                  s, config.solver_config)
                errors.append(float(np.linalg.norm(res.estimate - beta0)))
            success[i, j] = sum(e < thr for e in errors) / config.trials_per_n
            max_error[i, j] = max(errors)
    return success, max_error


@pytest.mark.parametrize("noise", [Noise(), Noise("gaussian", 0.05)],
                         ids=["noiseless", "noisy"])
def test_phase_transition_equals_inline_loop(noise, monkeypatch):
    p = 16
    config = harness.ExperimentConfig(
        name="pt-oracle",
        model=ObservationModel("linear", np.eye(p)[0], noise=noise),
        spec=DistributionSpec("gaussian", p),
        hypothesis_set=geometry.l1_ball(1.0, p),
        solver_config=SolverConfig(max_iters=500, tol=1e-12),
        n_grid=(10,), trials_per_n=3, master_seed=23)
    k_grid, n_grid = (1, 4), (4, 10, 20)
    oracle, max_error = phase_oracle(k_grid, n_grid, config)
    assert 0.0 < oracle.mean() < 1.0  # both outcomes occur on this grid
    monkeypatch.delenv("SUBEXP_LASSO_THREADS", raising=False)
    serial = harness.run_phase_transition(k_grid, n_grid, config)
    assert np.array_equal(serial.success, oracle)
    assert np.array_equal(serial.max_error, max_error)
    monkeypatch.setenv("SUBEXP_LASSO_THREADS", "2")
    threaded = harness.run_phase_transition(k_grid, n_grid, config)
    assert np.array_equal(threaded.success, oracle)
    assert np.array_equal(threaded.max_error, max_error)
    # the jsonl lines carry each cell's largest error, repr-exact
    lines = [json.loads(ln) for ln in harness.emit(serial, "jsonl").splitlines()]
    assert [(c["k"], c["n"]) for c in lines] == [(k, n) for k in k_grid
                                                 for n in n_grid]
    assert [c["max_error"] for c in lines] == max_error.ravel().tolist()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cell_failures_name_their_cell(threads, monkeypatch):
    def broken(*args, **kwargs):
        raise ConfigurationError("broken solve")

    monkeypatch.setattr(harness.solver, "solve", broken)
    monkeypatch.setenv("SUBEXP_LASSO_THREADS", threads)
    config = small_config(n_grid=(20, 40), trials_per_n=2)
    with pytest.raises(ConfigurationError) as info:
        harness.run_error_curve(config)
    seed = derive_seed(config.master_seed, "unit:n=20", 0)
    assert str(info.value) == (f"experiment 'unit', n=20, trial=0, "
                               f"seed={seed}: broken solve")
    assert isinstance(info.value.__cause__, ConfigurationError)
    assert str(info.value.__cause__) == "broken solve"


# ---------------------------------------------------------------------------
# Emission round trips
# ---------------------------------------------------------------------------

def test_csv_round_trip_lossless(tmp_path):
    config = small_config()
    res = harness.run_error_curve(config)
    path = tmp_path / "records.csv"
    text = harness.emit(res, "csv", str(path))
    assert text.splitlines()[0] == ",".join(harness.RESULT_COLUMNS)
    parsed = harness.parse_records_csv(str(path))
    assert len(parsed) == len(res.records)
    for a, b in zip(res.records, parsed):
        assert a == b  # dataclass equality: bitwise float round trip
    # decay slope recomputed from the emitted file matches in memory
    slope_disk, _ = harness.fit_decay_rate_from_aggregates(
        harness.aggregate_records(parsed))
    assert slope_disk == pytest.approx(res.decay_slope, abs=1e-12)


def test_jsonl_and_table_formats():
    config = small_config(n_grid=(20,), trials_per_n=2)
    res = harness.run_error_curve(config)
    jl = harness.emit(res, "jsonl")
    assert len(jl.strip().splitlines()) == 2
    table = harness.emit(res, "table")
    assert table.splitlines()[0].startswith("experiment")
    # reports and phase results rendered an unknown format as a table
    phase = harness.PhaseTransitionResult((1,), (20,), np.ones((1, 1)), np.zeros((1, 1)))
    for result in (res, harness.CertificateReport(0.5, 10, 0.1, True), phase):
        with pytest.raises(ConfigurationError, match="unknown format 'xml'"):
            harness.emit(result, "xml")


def test_jsonl_records_carry_the_result_columns():
    res = harness.run_error_curve(small_config(n_grid=(20,), trials_per_n=2))
    lines = harness.emit(res, "jsonl").splitlines()
    for line, r in zip(lines, res.records):
        row = json.loads(line)
        assert tuple(row) == harness.RESULT_COLUMNS
        assert row == {c: getattr(r, c) for c in harness.RESULT_COLUMNS}


def test_parse_records_csv_bad_input(tmp_path):
    from subexp_lasso.cli import main

    missing = str(tmp_path / "missing.csv")
    with pytest.raises(ConfigurationError, match="missing.csv.*does not exist"):
        harness.parse_records_csv(missing)
    with pytest.raises(ConfigurationError, match="missing.csv.*does not exist"):
        main(["report", missing])
    with pytest.raises(ConfigurationError, match="empty"):
        harness.parse_records_csv("")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigurationError, match="empty"):
        main(["report", str(empty)])
    # a directory raised IsADirectoryError, a Latin-1 file UnicodeDecodeError
    latin = tmp_path / "latin1.csv"
    latin.write_bytes((",".join(harness.RESULT_COLUMNS)
                       + "\ncaf\xe9,20,0,0.5,1.0,true,7,3\n").encode("latin-1"))
    for path in (str(tmp_path), str(latin)):
        message = re.escape(f"records CSV {path!r} cannot be read")
        with pytest.raises(ConfigurationError, match=message):
            harness.parse_records_csv(path)
        with pytest.raises(ConfigurationError, match=message):
            main(["report", path])
    # a lone "\r" outside quotes ends a row; it raised the csv module's Error
    lone_cr = ",".join(harness.RESULT_COLUMNS) + "\nun\rit,20,0,0.5,1.0,true,7,3\n"
    with pytest.raises(ConfigurationError, match="line 2: 1 fields, expected 8"):
        harness.parse_records_csv(lone_cr)
    # a cell past the csv module's field limit raised its Error
    long_name = harness.ExperimentResult(
        [harness.TrialRecord("x" * 140_000, 20, 0, 0.5, 1.0, True, 7)], {}, None, None, "")
    with pytest.raises(ConfigurationError, match="line 2: field larger than field limit"):
        harness.parse_records_csv(harness.emit(long_name, "csv"))


def record_strategy():
    """TrialRecords drawn field by field from fields(TrialRecord): names with
    commas, quotes and line breaks, integers up to 2**64 - 1, floats with
    -0.0, subnormals, infinities and NaN, and None for an optional field."""
    names = st.text(st.sampled_from(',"\r\n ') | st.characters(), max_size=12)
    floats = st.sampled_from([-0.0, 5e-324, -2.5e-310, math.inf, -math.inf]) | st.floats()
    by_type = {str: names, int: st.integers(0, 2**64 - 1), float: floats,
               bool: st.booleans()}
    hints = typing.get_type_hints(harness.TrialRecord)

    def values(f):
        kind = hints[f.name]
        if typing.get_origin(kind) is typing.Union:  # Optional[...]
            return st.none() | by_type[typing.get_args(kind)[0]]
        return by_type[kind]

    return st.builds(harness.TrialRecord,
                     **{f.name: values(f) for f in fields(harness.TrialRecord)})


def cut_columns(text, k):
    """The CSV text with only its first k columns, every cell quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(
        row[:k] for row in csv.reader(io.StringIO(text)))
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.lists(record_strategy(), min_size=1, max_size=4))
@example([harness.TrialRecord('a,"b"\r\nc\rd', 1, 0, -0.0, math.inf, True, 2**64 - 1),
          harness.TrialRecord("", 0, 2**64 - 1, 5e-324, -math.inf, False, 0, 0)])
@example([harness.TrialRecord("\ud800", 1, 0, 0.5, 1.0, True, 7)])
def test_records_round_trip_every_format_and_header_length(records):
    # every column comes from fields(TrialRecord), so a new column is covered
    # here without an edit; repr tells -0.0 from 0.0 and compares NaN
    result = harness.ExperimentResult(records, {}, None, None, "")
    text = harness.emit(result, "csv")
    columns = fields(harness.TrialRecord)
    required = sum(f.default is MISSING for f in columns)
    assert repr(harness.parse_records_csv(text)) == repr(records)
    with tempfile.TemporaryDirectory() as tmp:  # the path branch keeps "\r" too
        path = os.path.join(tmp, "records.csv")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate: an error naming the path, no file
            with pytest.raises(ConfigurationError, match=re.escape(repr(path))):
                harness.emit(result, "csv", path)
            assert not os.path.exists(path)
        else:
            harness.emit(result, "csv", path)
            assert repr(harness.parse_records_csv(path)) == repr(records)
    for k in range(required, len(columns) + 1):
        cut = cut_columns(text, k)
        parsed = harness.parse_records_csv(cut)
        assert repr(parsed) == repr([replace(r, **{f.name: None for f in columns[k:]})
                                     for r in records])
        again = harness.emit(harness.ExperimentResult(parsed, {}, None, None, ""), "csv")
        assert cut_columns(again, k) == cut
        if k == len(columns):
            assert again == text
    for k in range(1, required):
        with pytest.raises(ConfigurationError, match="unexpected result CSV header"):
            harness.parse_records_csv(cut_columns(text, k))
    body = text.split("\n", 1)[1]
    for header in (harness.RESULT_COLUMNS[::-1],
                   harness.RESULT_COLUMNS[1:] + harness.RESULT_COLUMNS[:1]):
        with pytest.raises(ConfigurationError, match="unexpected result CSV header"):
            harness.parse_records_csv(",".join(header) + "\n" + body)

    lines = harness.emit(result, "jsonl").rstrip("\n").split("\n")
    assert len(lines) == len(records)  # a non-finite float comes back as null
    assert [repr(harness.TrialRecord(**json.loads(line))) for line in lines] == \
        [repr(harness.TrialRecord(*_finite_or_none(astuple(r)))) for r in records]

    def cell(value, f):
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "true" if value else "false"
        return format(value, f.metadata["fmt"]) if "fmt" in f.metadata else str(value)

    rows = [[cell(getattr(r, f.name), f) for f in columns] for r in records]
    assert harness.emit(result, "table") == harness.format_table(
        [list(harness.RESULT_COLUMNS)] + rows)
    hints = typing.get_type_hints(harness.TrialRecord)
    assert all("fmt" in f.metadata for f in columns if hints[f.name] is float)


def test_emit_report_object():
    rep = harness.CertificateReport(0.5, 10, 0.1, True)
    text = harness.emit(rep, "table")
    assert "min_excess" in text


# ---------------------------------------------------------------------------
# Declarative configs and CLI
# ---------------------------------------------------------------------------

CONFIG_YAML = """
name: yaml-experiment
spec: {kind: laplace, p: 6, scale: 1.0}
model:
  kind: linear
  beta0_rule: {k: 2, seed: 4}
  noise: {kind: gaussian, level: 0.1}
set: {kind: l1_ball, radius: beta0_l1}
solver: {max_iters: 4000, tol: 1.0e-12}
target_rule: beta0
n_grid: [20, 40, 80]
trials_per_n: 2
master_seed: 9
"""


def test_config_yaml_load_and_run(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG_YAML)
    config = harness.load_config(str(path))
    assert config.spec.kind == "laplace"
    assert config.hypothesis_set.kind == "l1_ball"
    assert config.hypothesis_set.radius == pytest.approx(
        float(np.abs(config.model.beta0).sum()))
    res = harness.run_error_curve(config)
    assert len(res.records) == 6
    assert res.config_hash == harness.config_hash(config)


@pytest.mark.parametrize("old, new, message", [
    ("set: {kind: l1_ball, radius: beta0_l1}\n", "", "'set'"),
    ("{kind: laplace, p: 6, scale: 1.0}", "{kind: laplace, scale: 1.0}", "'spec.p'"),
    ("{kind: l1_ball, radius: beta0_l1}", "{kind: l2_ball}", "'set.radius'"),
    ("  kind: linear\n", "", "'model.kind'"),
    ("{k: 2, seed: 4}", "{seed: 4}", "'model.beta0_rule.k'"),
    ("target_rule: beta0", "target_rule: {}", "'target_rule.explicit'"),
    ("n_grid: [20, 40, 80]", "n_grid: [0, 5, 10]", "n_grid entries must be >= 1"),
    # scalar keys are checked, not cast: these ran as 2, 1, a raw ValueError,
    # 2 and track_trace=True
    ("trials_per_n: 2\n", "trials_per_n: 2.7\n", "trials_per_n must be an integer, got 2.7"),
    ("master_seed: 9\n", "master_seed: true\n", "master_seed must be an integer, got True"),
    ("master_seed: 9\n", "master_seed: 9\nmu_budget: \"1.5e3\"\n",
     "mu_budget must be an integer, got '1.5e3'"),
    ("{max_iters: 4000,", "{max_iters: 2.5,", "solver.max_iters must be an integer, got 2.5"),
    ("tol: 1.0e-12}", "tol: 1.0e-12, track_trace: \"false\"}",
     "solver.track_trace must be true or false, got 'false'"),
    # these ran with a cast, truncated or ignored value, or escaped as a raw
    # AttributeError or ValueError
    ("tol: 1.0e-12}", "tol: true}", "solver.tol must be a number, got True"),
    ("tol: 1.0e-12}", "tol: abc}", "solver.tol must be a number, got 'abc'"),
    ("tol: 1.0e-12}", "tol: [1]}", "solver.tol must be a number, got [1]"),
    ("name: yaml-experiment", "name: 5", "name must be a string, got 5"),
    ("trials_per_n: 2", "trails_per_n: 3", "unknown config key(s) trails_per_n;"),
    ("master_seed: 9", "master_seed: 4.5", "master_seed must be an integer, got 4.5"),
    ("scale: 1.0}", "scale: 1.0, scael: 2.0}", "unknown config key(s) spec.scael;"),
    ("p: 6,", "p: 6.5,", "spec.p must be an integer, got 6.5"),
    ("spec: {kind: laplace, p: 6, scale: 1.0}", "spec: laplace",
     "spec must be a mapping, got 'laplace'"),
    ("radius: beta0_l1}", "radius: true}", "set.radius must be a number, got True"),
    ("radius: beta0_l1}", "radius: beta0_l1, raduis: 1.0}",
     "unknown config key(s) set.raduis;"),
    ("{k: 2, seed: 4}", "{k: 2.5, seed: 4}", "model.beta0_rule.k must be an integer, got 2.5"),
    ("{k: 2, seed: 4}", "{k: 2, seed: 4.5}",
     "model.beta0_rule.seed must be an integer, got 4.5"),
    ("{k: 2, seed: 4}", "{k: 2, sede: 4}", "unknown config key(s) model.beta0_rule.sede;"),
    ("level: 0.1}", "levle: 0.1}", "unknown config key(s) model.noise.levle;"),
    ("  kind: linear\n", "  kind: linear\n  lnik: tanh\n", "unknown config key(s) model.lnik;"),
    ("target_rule: beta0", "target_rule: [beta0]", "target_rule must be a string, got ['beta0']"),
    ("target_rule: beta0", "target_rule: {explicit: [1, 2], scale: 2}",
     "unknown config key(s) target_rule.scale;"),
    # range checks of the dataclasses and sparse_vector, which named the
    # field but not its section
    ("{k: 2, seed: 4}", "{k: 2, seed: 4, norm: L2}",
     "model.beta0_rule.norm must be 'l1' or 'l2', got 'L2'"),
    ("scale: 1.0}", "scale: -1.0}", "spec.scale must be finite and positive, got -1.0"),
    ("p: 6,", "p: 0,", "spec.p must be >= 1"),
    ("level: 0.1}", "level: -0.1}", "model.noise.level must be finite and nonnegative"),
    ("tol: 1.0e-12}", "tol: -1.0}", "solver.tol must be positive"),
    ("{k: 2, seed: 4}", "{k: 7, seed: 4}", "model.beta0_rule: need 1 <= k <= p"),
    ("{kind: l1_ball, radius: beta0_l1}", "{kind: polytope, vertices: []}",
     "set.vertices must be a non-empty 2-D list of points, got shape (1, 0)"),
    ("{kind: l1_ball, radius: beta0_l1}", "{kind: polytope, vertices: [[[1.0]]]}",
     "set.vertices must be a non-empty 2-D list of points, got shape (1, 1, 1)"),
    ("{kind: l1_ball, radius: beta0_l1}", "{kind: polytope, vertices: [[.nan, 1.0]]}",
     "set.vertices must be finite, got a nan or inf coordinate"),
    ("radius: beta0_l1}", "radius: .inf}", "set.radius must be finite and positive, got inf"),
    ("radius: beta0_l1}", "radius: .nan}", "set.radius must be finite and positive, got nan"),
    ("{kind: l1_ball, radius: beta0_l1}",
     "{kind: l2_ball, radius: 1.0, center: [0, 0, 0, 0, 0, .inf]}",
     "set.center must be finite, got a nan or inf coordinate"),
    ("{kind: l1_ball, radius: beta0_l1}",
     "{kind: l2_ball, radius: 1.0, center: [.nan, 0, 0, 0, 0, 0]}",
     "set.center must be finite, got a nan or inf coordinate"),
])
def test_config_missing_or_bad_keys_name_the_key(tmp_path, old, new, message):
    assert old in CONFIG_YAML
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG_YAML.replace(old, new))
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        harness.load_config(str(path))


def test_config_hash_sensitivity(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG_YAML)
    a = harness.load_config(str(path))
    b = harness.load_config(str(path))
    assert harness.config_hash(a) == harness.config_hash(b)
    b.master_seed = 10
    assert harness.config_hash(a) != harness.config_hash(b)


def test_erm_rule_dimension_guard():
    config = small_config(target_rule="erm_mc",
                          spec=DistributionSpec("laplace", 13),
                          model=ObservationModel("linear", np.ones(13)),
                          hypothesis_set=geometry.l1_ball(1.0, 13))
    with pytest.raises(ConfigurationError):
        harness.resolve_target(config)


def test_erm_rule_equals_least_squares_when_the_set_does_not_bind():
    config = small_config(target_rule="erm_mc", erm_budget=20_000,
                          hypothesis_set=geometry.l2_ball(1e3, 6))
    target = harness.resolve_target(config)
    big = generate_dataset(config.model, config.spec, config.erm_budget,
                           derive_seed(config.master_seed, "erm-mc"))
    oracle = np.linalg.lstsq(big.inputs, big.outputs, rcond=None)[0]
    assert np.max(np.abs(target - oracle)) < 1e-6


def test_erm_rule_binding_set_keeps_target_feasible():
    config = small_config(target_rule="erm_mc", erm_budget=20_000,
                          hypothesis_set=geometry.l1_ball(0.5, 6))
    target = harness.resolve_target(config)
    assert geometry.contains(config.hypothesis_set, target)
    assert np.abs(target).sum() == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("field_name", ["mu_budget", "erm_budget"])
def test_config_rejects_an_empty_monte_carlo_budget(field_name):
    with pytest.raises(ConfigurationError, match=field_name):
        small_config(**{field_name: 0})


def test_thread_count_env_override(monkeypatch):
    monkeypatch.delenv("SUBEXP_LASSO_THREADS", raising=False)
    assert harness.thread_count(4) == 4
    monkeypatch.setenv("SUBEXP_LASSO_THREADS", "7")
    assert harness.thread_count(4) == 7
    monkeypatch.setenv("SUBEXP_LASSO_THREADS", "x")
    with pytest.raises(ConfigurationError):
        harness.thread_count(4)
    for env in ("0", "-2"):
        monkeypatch.setenv("SUBEXP_LASSO_THREADS", env)
        with pytest.raises(ConfigurationError, match="SUBEXP_LASSO_THREADS must be >= 1"):
            harness.thread_count(4)
    monkeypatch.delenv("SUBEXP_LASSO_THREADS")
    assert harness.thread_count(None) == 1
    for cli_value in (0, -3):
        with pytest.raises(ConfigurationError, match="--threads must be >= 1"):
            harness.thread_count(cli_value)


def test_cli_subcommands(tmp_path):
    from subexp_lasso.cli import main

    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML)

    sample_out = tmp_path / "sample.csv"
    assert main(["sample", "--config", str(cfg), "--out", str(sample_out),
                 "--n", "15"]) == 0
    lines = sample_out.read_text().splitlines()
    assert lines[0].startswith("y,x0") and len(lines) == 16
    # every cell is a plain float literal that parses back bit for bit
    config = harness.load_config(str(cfg))
    ds = generate_dataset(config.model, config.spec, 15,
                          derive_seed(config.master_seed, "cli-sample"))
    table = np.loadtxt(sample_out, delimiter=",", skiprows=1)
    assert np.array_equal(table, np.column_stack([ds.outputs, ds.inputs]))

    solve_out = tmp_path / "solve.txt"
    assert main(["solve", "--config", str(cfg), "--out", str(solve_out)]) == 0
    assert "objective" in solve_out.read_text()

    mm_out = tmp_path / "mismatch.txt"
    assert main(["mismatch", "--config", str(cfg), "--out", str(mm_out)]) == 0
    assert "rho_global" in mm_out.read_text()

    cx_out = tmp_path / "complexity.txt"
    assert main(["complexity", "--config", str(cfg), "--out", str(cx_out)]) == 0
    assert "gaussian" in cx_out.read_text()

    cert_out = tmp_path / "cert.txt"
    assert main(["certificate", "--config", str(cfg), "--scale", "0.5",
                 "--out", str(cert_out)]) == 0
    assert "min_excess" in cert_out.read_text()

    rec_out = tmp_path / "records.csv"
    assert main(["experiment", "--config", str(cfg), "--format", "csv",
                 "--out", str(rec_out)]) == 0
    records = harness.parse_records_csv(str(rec_out))
    assert len(records) == 6

    rep_out = tmp_path / "report.txt"
    assert main(["report", str(rec_out), "--out", str(rep_out)]) == 0
    assert "decay_slope" in rep_out.read_text()


def test_report_prints_iteration_counts_per_n(tmp_path):
    from subexp_lasso.cli import main

    res = harness.run_error_curve(small_config(n_grid=(20, 40), trials_per_n=3))
    records = tmp_path / "records.csv"
    harness.emit(res, "csv", str(records))
    report = tmp_path / "report.txt"
    assert main(["report", str(records), "--out", str(report)]) == 0
    lines = [line.split() for line in report.read_text().splitlines()]
    assert lines[0] == ["n", "median", "q25", "q75", "count", "iters_p50",
                        "iters_max"]
    for row, n in zip(lines[1:], (20, 40)):
        iters = [r.iterations for r in res.records if r.n == n]
        assert row[0] == str(n) and row[4] == "3"
        assert float(row[5]) == np.median(iters) and int(row[6]) == max(iters)
    assert lines[-1][0] == "decay_slope"


def test_parse_records_csv_accepts_the_legacy_header(tmp_path):
    # records written before the iterations column: 7 columns, no counts
    from subexp_lasso.cli import main

    res = harness.run_error_curve(small_config(n_grid=(20,), trials_per_n=2))
    lines = harness.emit(res, "csv").splitlines()
    legacy = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
    assert legacy.splitlines()[0] == ",".join(harness.RESULT_COLUMNS[:-1])
    parsed = harness.parse_records_csv(legacy)
    assert [replace(r, iterations=None) for r in res.records] == parsed
    agg = harness.aggregate_records(parsed)[20]
    assert agg.iters_p50 is None and agg.iters_max is None
    path = tmp_path / "legacy.csv"
    path.write_text(legacy)
    report = tmp_path / "report.txt"
    assert main(["report", str(path), "--out", str(report)]) == 0
    assert report.read_text().splitlines()[1].split()[5:] == ["-", "-"]
    # re-emitted legacy records keep an empty iterations cell
    again = harness.emit(harness.ExperimentResult(parsed, {}, None, None, ""), "csv")
    assert harness.parse_records_csv(again) == parsed


def test_cli_experiment_renders_stdout_once(tmp_path, capsys, monkeypatch):
    from subexp_lasso.cli import main

    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML)
    calls = []
    emit = harness.emit
    monkeypatch.setattr(harness, "emit",
                        lambda *a, **kw: calls.append(a[1:]) or emit(*a, **kw))
    assert main(["experiment", "--config", str(cfg), "--format", "jsonl"]) == 0
    assert calls == [("jsonl",)]
    rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [(r["n"], r["trial"]) for r in rows] == [
        (n, t) for n in (20, 40, 80) for t in range(2)]


def test_cli_complexity_without_vertex_list(tmp_path):
    # run in a fresh interpreter: pytest's logging handlers would take the
    # warning that, with no handler configured, goes to stderr
    import subprocess
    import sys

    import subexp_lasso

    cfg = tmp_path / "l2.yaml"
    cfg.write_text(CONFIG_YAML.replace("{kind: l1_ball, radius: beta0_l1}",
                                       "{kind: l2_ball, radius: 1.0}"))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from subexp_lasso.cli import main; "
            "sys.exit(main(['complexity', '--config', sys.argv[2]]))")
    captured = subprocess.run(
        [sys.executable, "-I", "-c", code,
         os.path.dirname(os.path.dirname(subexp_lasso.__file__)), str(cfg)],
        check=True, capture_output=True, text=True, timeout=120)
    text = captured.stdout
    assert "gaussian" in text and "exponential" in text
    assert "polytope" not in text
    assert captured.stderr == ("polytope surrogates skipped: l2_ball has no "
                               "finite vertex representation\n")


def test_cli_complexity_raises_real_errors(tmp_path, monkeypatch):
    from subexp_lasso import cli

    def broken(*args, **kwargs):
        raise ValueError("broken kernel")

    monkeypatch.setattr(cli.cx, "polytope_complexity", broken)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML)
    with pytest.raises(ValueError, match="broken kernel"):
        cli.main(["complexity", "--config", str(cfg)])


def _table_args(tmp_path, command):
    """The argv of `command` on CONFIG_YAML; `report` reads the records
    that `experiment` writes."""
    from subexp_lasso.cli import main

    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML)
    if command != "report":
        return [command, "--config", str(cfg)] + (["--n", "5"] if command == "sample" else [])
    records = tmp_path / "records.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(records)]) == 0
    return ["report", str(records)]


READ_BOOL = {"true": True, "false": False}.__getitem__


def read_back(text, fmt, columns):
    """The rows of csv or jsonl text, each cell read through its column (an
    empty csv cell as None), after checking the header or the keys."""
    names = [c.name for c in columns]
    if fmt == "jsonl":
        objects = [json.loads(line) for line in text.splitlines()]
        assert all(list(obj) == names for obj in objects)
        return [tuple(obj.values()) for obj in objects]
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    assert header == names
    return [tuple(None if cell == "" else c.read(cell) for c, cell in zip(columns, row))
            for row in rows]


@pytest.mark.parametrize("fmt", harness.FORMATS)
@pytest.mark.parametrize("command", ["sample", "complexity", "report"])
def test_cli_tables_follow_the_format(tmp_path, capsys, command, fmt):
    # csv and jsonl read back, column by column, to the command's values and
    # fit; a table prints each value in its column's fmt, None as "-", and
    # the fit as a last line; --out gets the bytes that stdout gets
    from subexp_lasso import cli

    args = _table_args(tmp_path, command)
    table = cli.COMMANDS[command](cli.build_parser().parse_args(args))
    assert cli.main(args + ["--format", fmt]) == 0
    text = capsys.readouterr().out
    out = tmp_path / "out"
    assert cli.main(args + ["--format", fmt, "--out", str(out)]) == 0
    assert out.read_bytes() == text.encode("utf-8")
    fit_columns, fit = zip(*table.fit) if table.fit else ((), ())
    if fmt != "table":
        assert repr(read_back(text, fmt, table.columns + fit_columns)) == repr(
            [(*row, *fit) for row in table.rows])
    else:
        expected = [[c.name for c in table.columns]] + [
            ["-" if v is None else format(v, c.fmt) for v, c in zip(row, table.columns)]
            for row in table.rows]
        if table.fit:
            expected.append([s for c, v in table.fit for s in (c.name, format(v, c.fmt))])
        assert [line.split() for line in text.splitlines()] == expected
    if command == "report":  # the fit of the records, under its own names
        records = harness.parse_records_csv(args[1])
        assert [c.name for c in fit_columns] == ["decay_slope", "stderr"]
        assert fit == harness.fit_decay_rate_from_aggregates(
            harness.aggregate_records(records))
        assert [row[0] for row in table.rows] == sorted({r.n for r in records})


def test_cli_default_formats(tmp_path, capsys):
    # complexity and report print a table, sample writes csv that reads back
    from subexp_lasso import cli

    for command, fmt in (("sample", "csv"), ("complexity", "table"), ("report", "table")):
        args = _table_args(tmp_path, command)
        assert cli.main(args) == 0
        text = capsys.readouterr().out
        assert cli.main(args + ["--format", fmt]) == 0
        assert text == capsys.readouterr().out
        if command == "sample":
            table = cli.COMMANDS[command](cli.build_parser().parse_args(args))
            assert [c.name for c in table.columns] == ["y"] + [f"x{j}" for j in range(6)]
            assert read_back(text, "csv", table.columns) == [tuple(row) for row in table.rows]


COLUMN_VALUES = {
    str: (str, st.text(min_size=1)),  # csv writes "" and None alike: no table mixes them
    int: (int, st.integers(-2**64, 2**64)),
    float: (float, st.sampled_from([-0.0, 5e-324, math.inf, -math.inf, math.nan]) | st.floats()),
    bool: (READ_BOOL, st.booleans()),
}


@st.composite
def typed_tables(draw):
    """A Table of up to 4 rows under 1 to 5 columns of one type each, a
    non-str column optionally holding None, and a fit of 0 to 2 floats."""
    kinds = draw(st.lists(st.sampled_from(list(COLUMN_VALUES)), min_size=1, max_size=5))
    columns, values = [], []
    for i, kind in enumerate(kinds):
        read, strategy = COLUMN_VALUES[kind]
        columns.append(harness.Column(f"c{i}", read))
        values.append(st.none() | strategy if kind is not str and draw(st.booleans())
                      else strategy)
    rows = draw(st.lists(st.tuples(*values), max_size=4))
    fit = draw(st.lists(COLUMN_VALUES[float][1], max_size=2))
    return harness.Table(tuple(columns), rows, tuple(
        (harness.Column(f"fit{i}", float), v) for i, v in enumerate(fit)))


def _finite_or_none(row):
    return tuple(None if isinstance(v, float) and not math.isfinite(v) else v for v in row)


@settings(max_examples=150, deadline=None)
@given(typed_tables())
def test_typed_rows_round_trip_through_csv_and_jsonl(table):
    # repr tells -0.0 from 0.0 and compares NaN; jsonl writes a non-finite
    # float as null
    fit_columns, fit = zip(*table.fit) if table.fit else ((), ())
    want = [(*row, *fit) for row in table.rows]
    assert repr(read_back(harness.emit(table, "csv"), "csv", table.columns + fit_columns)) \
        == repr(want)
    assert repr(read_back(harness.emit(table, "jsonl"), "jsonl", table.columns + fit_columns)) \
        == repr(list(map(_finite_or_none, want)))


def _reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def test_report_jsonl_is_strict_json_without_a_fit(tmp_path, capsys):
    # two n values leave the decay fit undefined: its cells are null, not
    # the NaN token that strict readers reject
    from subexp_lasso.cli import main

    cfg, records = tmp_path / "exp.yaml", tmp_path / "records.csv"
    cfg.write_text(CONFIG_YAML.replace("n_grid: [20, 40, 80]", "n_grid: [20, 40]"))
    assert main(["experiment", "--config", str(cfg), "--out", str(records)]) == 0
    _, *fit = harness.summarize(harness.parse_records_csv(str(records)))
    assert math.isnan(fit[0]) and math.isnan(fit[1])
    assert main(["report", str(records), "--format", "jsonl"]) == 0
    objects = [json.loads(line, parse_constant=_reject_constant)
               for line in capsys.readouterr().out.splitlines()]
    assert [obj["n"] for obj in objects] == [20, 40]
    assert all((obj["decay_slope"], obj["stderr"]) == _finite_or_none(fit)
               for obj in objects)


def test_solve_jsonl_is_strict_json_with_a_diverged_estimate(tmp_path, capsys,
                                                              monkeypatch):
    # the estimate is a scalar column per entry, so a non-finite entry is
    # null like every other cell, not a NaN token inside a list
    from subexp_lasso import cli

    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML)
    diverged = solver.SolveResult(np.array([np.nan, 1.0, -np.inf]), 7, np.inf, False)
    monkeypatch.setattr(cli.solver, "solve", lambda *args: diverged)
    assert cli.main(["solve", "--config", str(cfg), "--format", "jsonl"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out, parse_constant=_reject_constant) == {
        "n": 20, "objective": None, "iterations": 7, "converged": False,
        "fixed_point_residual": None, "estimate_0": None, "estimate_1": 1.0,
        "estimate_2": None}


@pytest.mark.parametrize("command", [["sample"], ["solve"], ["mismatch"], ["complexity"],
                                     ["certificate", "--scale", "0.5"], ["experiment"],
                                     ["report"]], ids=lambda command: command[0])
def test_every_cli_command_emits_once_in_its_format(tmp_path, capsys, monkeypatch,
                                                    command):
    from subexp_lasso import cli

    calls = []
    emit = harness.emit
    monkeypatch.setattr(harness, "emit",
                        lambda *a, **kw: calls.append(a[1]) or emit(*a, **kw))
    args = _table_args(tmp_path, command[0]) + command[1:]
    calls.clear()  # the records of `report` were emitted
    texts = set()
    for fmt in harness.FORMATS:
        assert cli.main(args + ["--format", fmt]) == 0
        texts.add(capsys.readouterr().out)
    assert calls == list(harness.FORMATS)
    assert len(texts) == len(harness.FORMATS)


def test_cli_experiment_writes_a_table_to_a_file_as_csv(tmp_path, capsys):
    # --out, or the config's outputs without --out, gets csv for a table
    from subexp_lasso.cli import main

    target = tmp_path / "records.csv"
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML + f"outputs: {target}\n")
    out = tmp_path / "out.csv"
    for argv in (["--out", str(out)], ["--out", str(out), "--format", "table"], []):
        assert main(["experiment", "--config", str(cfg)] + argv) == 0
        path = out if argv else target
        assert [(r.n, r.trial) for r in harness.parse_records_csv(str(path))] == [
            (n, t) for n in (20, 40, 80) for t in range(2)]
    assert capsys.readouterr().out == ""
    assert main(["experiment", "--config", str(cfg), "--out", str(out),
                 "--format", "jsonl"]) == 0
    assert len([json.loads(line) for line in out.read_text().splitlines()]) == 6


def test_cli_names_a_config_it_cannot_read(tmp_path):
    from subexp_lasso.cli import main

    latin = tmp_path / "latin1.yaml"
    latin.write_bytes((CONFIG_YAML + "# caf\xe9\n").encode("latin-1"))
    for path, what in ((str(tmp_path / "missing.yaml"), "does not exist"),
                       (str(tmp_path), "cannot be read"),
                       (str(latin), "cannot be read")):
        with pytest.raises(ConfigurationError, match=re.escape(f"config {path!r} {what}")):
            main(["certificate", "--config", path, "--scale", "0.5"])


# what `import subexp_lasso.cli` adds to a fresh interpreter that has
# imported numpy and yaml: the package and these standard-library modules
CLI_IMPORTS = sorted([
    "__future__", "_blake2", "_csv", "_hashlib", "_json", "argparse", "copy",
    "csv", "dataclasses", "gettext", "hashlib", "json", "json.decoder",
    "json.encoder", "json.scanner", "subexp_lasso", "subexp_lasso.cli",
    "subexp_lasso.complexity", "subexp_lasso.distributions",
    "subexp_lasso.errors", "subexp_lasso.geometry", "subexp_lasso.harness",
    "subexp_lasso.models", "subexp_lasso.seeding", "subexp_lasso.solver"])


def test_cli_import_loads_no_scipy():
    # a new import shows here: scipy anywhere, or any module past the list
    import subprocess
    import sys

    import subexp_lasso

    src = os.path.dirname(os.path.dirname(subexp_lasso.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, yaml; "
            "before = set(sys.modules); import subexp_lasso.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
            "print(sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-I", "-c", code, src], check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == "[]"
    assert out[1] == str(CLI_IMPORTS)


SCIPY_BLOCKED_RUN = """
import sys
sys.path.insert(0, sys.argv[1])


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
import numpy as np
import subexp_lasso.cli as cli
from subexp_lasso import geometry

square = geometry.polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
assert np.allclose(geometry.project(square, np.array([2.0, 0.5])), [1.0, 0.5])
assert geometry.certify_hull_membership(np.eye(2), [[0.2, 0.3]]) < 1e-12
cfg, out = sys.argv[2], sys.argv[3]
for args in (["sample", "--n", "15"], ["solve"], ["mismatch"], ["complexity"],
             ["certificate", "--scale", "0.5"],
             ["experiment", "--format", "csv"]):
    assert cli.main([args[0], "--config", cfg, "--out", f"{out}/{args[0]}"]
                    + args[1:]) == 0
assert cli.main(["report", f"{out}/experiment", "--out", f"{out}/report"]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_every_cli_command_runs_with_scipy_blocked(tmp_path):
    # an import hook refuses scipy: the runtime needs numpy and PyYAML only
    import subprocess
    import sys

    import subexp_lasso

    src = os.path.dirname(os.path.dirname(subexp_lasso.__file__))
    cfg = tmp_path / "exp.yaml"
    cross = np.vstack([np.eye(6), -np.eye(6)]) * 2.0  # holds beta0, l1 norm 1.29
    cfg.write_text(CONFIG_YAML.replace(
        "{kind: l1_ball, radius: beta0_l1}",
        f"{{kind: polytope, vertices: {cross.tolist()}}}"))
    out = subprocess.run([sys.executable, "-I", "-c", SCIPY_BLOCKED_RUN, src,
                          str(cfg), str(tmp_path)],
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]"]
    assert "decay_slope" in (tmp_path / "report").read_text()


@pytest.mark.parametrize("extra", ["step_rule: backtracking",
                                   "restart_count: 3", "seed: 0"])
def test_config_rejects_unknown_solver_keys(tmp_path, extra):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG_YAML.replace("tol: 1.0e-12}",
                                        f"tol: 1.0e-12, {extra}}}"))
    key = extra.split(":")[0]
    with pytest.raises(ConfigurationError, match=key):
        harness.load_config(str(path))


def test_config_solver_keys_reach_solver_config(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG_YAML.replace("tol: 1.0e-12}",
                                        "tol: 1.0e-12, track_trace: true}"))
    assert harness.load_config(str(path)).solver_config == SolverConfig(
        max_iters=4000, tol=1e-12, track_trace=True)
    # an empty `solver:` section means the defaults
    path.write_text(CONFIG_YAML.replace("solver: {max_iters: 4000, tol: 1.0e-12}",
                                        "solver:"))
    assert harness.load_config(str(path)).solver_config == SolverConfig()


def test_config_with_only_required_keys_takes_the_dataclass_defaults(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("spec: {kind: laplace, p: 6}\n"
                    "model: {kind: linear, beta0_rule: {k: 2, seed: 4}}\n"
                    "set: {kind: l1_ball, radius: beta0_l1}\n")
    config = harness.load_config(str(path))
    for obj in (config, config.solver_config):
        for f in fields(obj):
            if f.default is not MISSING:
                assert getattr(obj, f.name) == f.default, f.name
            elif f.default_factory is not MISSING:
                assert getattr(obj, f.name) == f.default_factory(), f.name


def test_cli_mismatch_on_lifted_model_names_the_kind(tmp_path):
    from subexp_lasso.cli import main

    cfg = tmp_path / "lifted.yaml"
    cfg.write_text(CONFIG_YAML.replace("kind: linear", "kind: lifted_view")
                   .replace("{kind: l1_ball, radius: beta0_l1}",
                            "{kind: lifted_psd_fro, radius: 1.0}"))
    with pytest.raises(ConfigurationError, match="lifted_view"):
        main(["mismatch", "--config", str(cfg)])


@pytest.mark.parametrize("command", [["complexity"],
                                     ["certificate", "--scale", "0.5"],
                                     ["mismatch"]])
def test_cli_vector_commands_reject_a_lifted_config_before_any_work(
        tmp_path, capsys, monkeypatch, command):
    # the lifted target is a matrix and its inputs are lifts: the commands
    # fail on the config, before drawing a width, a dataset, the erm_mc
    # calibration sample or a direction
    from subexp_lasso import cli, complexity

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a lifted config")

    for module, name in ((complexity, "gaussian_width"), (cli, "generate_dataset"),
                         (harness, "excess_certificate"), (harness, "generate_dataset"),
                         (cli, "mismatch_report")):
        monkeypatch.setattr(module, name, no_work)
    cfg = tmp_path / "lifted.yaml"
    cfg.write_text(CONFIG_YAML.replace("kind: linear", "kind: lifted_view")
                   .replace("{kind: l1_ball, radius: beta0_l1}",
                            "{kind: lifted_psd_fro, radius: 1.0}")
                   .replace("target_rule: beta0", "target_rule: erm_mc"))
    out = tmp_path / "out.txt"
    with pytest.raises(ConfigurationError, match="model.kind 'lifted_view'"):
        cli.main([command[0], "--config", str(cfg), "--out", str(out),
                  *command[1:]])
    assert not out.exists()
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("dirs", ["0", "-3", "2.5", "x"])
def test_cli_certificate_rejects_a_direction_count_below_one_by_its_flag(
        tmp_path, capsys, monkeypatch, dirs):
    # argparse stops at the flag: status 2 and a usage message naming --dirs
    from subexp_lasso import cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started on a bad --dirs")

    monkeypatch.setattr(cli, "_vector_config", no_work)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML)
    with pytest.raises(SystemExit) as stop:
        cli.main(["certificate", "--config", str(cfg), "--scale", "0.5", "--dirs", dirs])
    assert stop.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: subexp-lasso certificate")
    assert err.endswith(f"argument --dirs: must be an integer >= 1, got '{dirs}'\n")


def test_cli_sample_writes_the_lifts_of_a_lifted_config(tmp_path):
    from subexp_lasso.cli import main

    cfg = tmp_path / "lifted.yaml"
    cfg.write_text(CONFIG_YAML.replace("kind: linear", "kind: lifted_view")
                   .replace("{kind: l1_ball, radius: beta0_l1}",
                            "{kind: lifted_psd_fro, radius: 1.0}"))
    out = tmp_path / "sample.csv"
    assert main(["sample", "--config", str(cfg), "--out", str(out),
                 "--n", "9"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "y," + ",".join(f"x{j}" for j in range(36))
    config = harness.load_config(str(cfg))
    ds = generate_dataset(config.model, config.spec, 9,
                          derive_seed(config.master_seed, "cli-sample"))
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(table, np.column_stack([ds.outputs,
                                                  ds.lifts().reshape(9, -1)]))


def test_n_grid_must_increase():
    with pytest.raises(ConfigurationError):
        small_config(n_grid=(40, 40))


# grids that used to run truncated (120.7 as 120, True as 1) or empty
BAD_GRIDS = [((120.7,), "entries must be integers"), ((True,), "entries must be integers"),
             ((), "must not be empty"), (5, "must be a list of integers"),
             ((20, 20.5), "entries must be integers"), ((0, 5), "entries must be >= 1"),
             ((40, 20), "must be strictly increasing")]


@pytest.mark.parametrize("grid, message", BAD_GRIDS)
def test_bad_n_grid_is_rejected_by_name(tmp_path, grid, message):
    with pytest.raises(ConfigurationError, match=f"n_grid {message}"):
        small_config(n_grid=grid)
    path = tmp_path / "exp.yaml"
    yaml_grid = list(grid) if isinstance(grid, tuple) else grid
    path.write_text(CONFIG_YAML.replace("n_grid: [20, 40, 80]",
                                        f"n_grid: {json.dumps(yaml_grid)}"))
    with pytest.raises(ConfigurationError, match=f"n_grid {message}"):
        harness.load_config(str(path))


@pytest.mark.parametrize("grid, message", BAD_GRIDS)
def test_bad_phase_transition_grids_are_rejected_by_name(grid, message):
    config = small_config(n_grid=(10,), trials_per_n=1)
    for k_grid, n_grid, name in (((1, 2), grid, "n_grid"), (grid, (10,), "k_grid")):
        with pytest.raises(ConfigurationError, match=f"{name} {message}"):
            harness.run_phase_transition(k_grid, n_grid, config)


def test_integer_grids_of_any_integer_type_are_accepted():
    config = small_config(n_grid=[np.int64(20), 40])
    assert config.n_grid == (20, 40) and all(type(n) is int for n in config.n_grid)
    res = harness.run_phase_transition(np.array([1]), (np.int32(10),),
                                       small_config(n_grid=(10,), trials_per_n=1))
    assert res.k_grid == (1,) and res.n_grid == (10,)


def test_cli_datasets_come_from_the_command_streams(tmp_path):
    # solve and certificate (and sample, through the same helper) draw --n
    # points (default: the first n_grid entry) seeded by "cli-<command>"
    from subexp_lasso.cli import main

    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML)
    config = harness.load_config(str(cfg))

    def dataset(command, n):
        return generate_dataset(config.model, config.spec, n,
                                derive_seed(config.master_seed, f"cli-{command}"))

    solve_out = tmp_path / "solve.jsonl"
    assert main(["solve", "--config", str(cfg), "--format", "jsonl",
                 "--out", str(solve_out)]) == 0
    report = json.loads(solve_out.read_text())
    res = solve_lasso(dataset("solve", 20), config.hypothesis_set,
                      config.solver_config)
    assert report["n"] == 20 and report["iterations"] == res.iterations
    assert list(report)[5:] == [f"estimate_{j}" for j in range(res.estimate.size)]
    assert list(report.values())[5:] == res.estimate.tolist()

    cert_out = tmp_path / "cert.jsonl"
    assert main(["certificate", "--config", str(cfg), "--scale", "0.5",
                 "--n", "30", "--format", "jsonl", "--out", str(cert_out)]) == 0
    rep = harness.excess_certificate(
        dataset("certificate", 30), config.hypothesis_set,
        harness.resolve_target(config), 0.5, 256,
        derive_seed(config.master_seed, "cert-dirs"))
    assert json.loads(cert_out.read_text())["min_excess"] == rep.min_excess


@pytest.mark.parametrize("args", [["sample"], ["solve"],
                                  ["certificate", "--scale", "0.5"]])
def test_cli_rejects_n_zero(tmp_path, args):
    # --n 0 used to fall back to the first n_grid entry
    from subexp_lasso.cli import main

    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML)
    with pytest.raises(ConfigurationError, match="n must be >= 1"):
        main([args[0], "--config", str(cfg), "--n", "0"] + args[1:])


@pytest.mark.parametrize("row, message", [
    ("unit,abc,0,0.5,1.0,true,7,3", "line 3, column n: cannot read 'abc'"),
    ("unit,20", "line 3: 2 fields, expected 8"),
    ("unit,20,0,0.5,1.0,true,7,3,9", "line 3: 9 fields, expected 8"),
    ("unit,20,0,0.5,1.0,yes,7,3", "line 3, column converged: cannot read 'yes'"),
    ("unit,20,0,0.5,1.0,True,7,3", "line 3, column converged: cannot read 'True'"),
    ("unit,20,0,half,1.0,false,7,3", "line 3, column error: cannot read 'half'"),
    ("unit,20,0,0.5,1.0,false,7,3.5", "line 3, column iterations: cannot read '3.5'"),
])
def test_parse_records_csv_names_the_bad_line_and_column(tmp_path, row, message):
    # these rows raised a raw ValueError or IndexError, or read "yes" as false
    from subexp_lasso.cli import main

    text = ",".join(harness.RESULT_COLUMNS) + "\nunit,20,1,0.25,1.0,false,7,3\n" + row + "\n"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        harness.parse_records_csv(text)
    path = tmp_path / "records.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        main(["report", str(path)])


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

def load_yaml(tmp_path, text):
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    return harness.load_config(str(path))


def test_float_keys_take_numeric_strings(tmp_path):
    # PyYAML reads 1e-14 (no decimal point) as the string "1e-14"
    text = CONFIG_YAML.replace("tol: 1.0e-12", "tol: 1e-14").replace("level: 0.1", "level: 1e-1")
    assert yaml.safe_load(text)["solver"]["tol"] == "1e-14"
    config = load_yaml(tmp_path, text)
    assert config.solver_config.tol == 1e-14 and config.model.noise.level == 0.1


def test_config_vertices_file_is_read_as_a_polytope(tmp_path):
    V = np.array([[0.0, 1.0, 2.0, 0.0, 0.5, 0.0], [3.0, -1.0, 0.5, 0.0, 0.0, 1.0]])
    path = tmp_path / "verts.txt"
    np.savetxt(path, V)
    text = CONFIG_YAML.replace("{kind: l1_ball, radius: beta0_l1}",
                               f"{{kind: polytope, vertices: {path}}}")
    s = load_yaml(tmp_path, text).hypothesis_set
    assert s.kind == "polytope" and np.array_equal(s.vertices, V)
    np.savetxt(path, V[:1])  # one vertex, one line
    assert np.array_equal(load_yaml(tmp_path, text).hypothesis_set.vertices, V[:1])
    with pytest.raises(ConfigurationError, match="set.vertices: cannot read"):
        load_yaml(tmp_path, text.replace("verts.txt", "missing.txt"))


def test_config_mixing_file_is_read(tmp_path):
    M = np.random.default_rng(0).standard_normal((6, 4))
    path = tmp_path / "mixing.txt"
    np.savetxt(path, M)
    text = CONFIG_YAML.replace("{kind: laplace, p: 6, scale: 1.0}",
                               f"{{kind: mixed, p: 6, mixing: {path}}}")
    spec = load_yaml(tmp_path, text).spec
    assert spec.kind == "mixed" and np.array_equal(spec.mixing, M)
    inline = load_yaml(tmp_path, text.replace(str(path), json.dumps(M.tolist())))
    assert np.array_equal(inline.spec.mixing, M)
    with pytest.raises(ConfigurationError, match="spec.mixing: cannot read"):
        load_yaml(tmp_path, text.replace("mixing.txt", "missing.txt"))


def test_one_column_matrix_files_stay_matrices(tmp_path):
    # a p x 1 mixing file and a p = 1 vertex list: np.loadtxt alone reads
    # a one-column file as a vector
    col = np.array([[0.5], [-1.0], [2.0]])
    path = tmp_path / "column.txt"
    np.savetxt(path, col)
    text = CONFIG_YAML.replace("{kind: laplace, p: 6, scale: 1.0}",
                               f"{{kind: mixed, p: 3, mixing: {path}}}")
    spec = load_yaml(tmp_path, text).spec
    assert spec.mixing.shape == (3, 1) and np.array_equal(spec.mixing, col)
    text = (CONFIG_YAML.replace("{kind: laplace, p: 6, scale: 1.0}", "{kind: laplace, p: 1}")
            .replace("beta0_rule: {k: 2, seed: 4}", "beta0: [0.5]")
            .replace("{kind: l1_ball, radius: beta0_l1}",
                     f"{{kind: polytope, vertices: {path}}}"))
    assert np.array_equal(load_yaml(tmp_path, text).hypothesis_set.vertices, col)


def readme_text():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def readme_config_text():
    return readme_text().split("```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_records_schema_is_the_record_columns():
    after = readme_text().split("Records CSV schema", 1)[1]
    assert after.split("```\n", 1)[1].split("```", 1)[0] == \
        ",".join(harness.RESULT_COLUMNS) + "\n"


@pytest.mark.parametrize("libyaml", [
    pytest.param(True, marks=pytest.mark.skipif(
        not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")),
    False])
def test_load_config_with_either_loader(tmp_path, monkeypatch, libyaml):
    # libyaml parses as the Python parser does, with the same resolver;
    # without yaml.CSafeLoader, load_config takes yaml.SafeLoader
    loader = yaml.CSafeLoader if libyaml else yaml.SafeLoader
    readme = readme_config_text()
    assert yaml.load(readme, Loader=loader) == yaml.safe_load(readme)
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    expected = harness.config_from_dict(yaml.safe_load(CONFIG_YAML))
    used, load = [], yaml.load
    monkeypatch.setattr(yaml, "load", lambda stream, Loader: used.append(Loader)
                        or load(stream, Loader))
    config = load_yaml(tmp_path, CONFIG_YAML.replace("tol: 1.0e-12", "tol: 1e-12"))
    assert harness.config_hash(config) == harness.config_hash(expected)
    assert used == [loader]
    path = tmp_path / "bad.yaml"
    path.write_text("name: x\nspec: {kind: laplace, p: 6\nmodel: {kind: linear}\n")
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{path}, line 3, column 6: not valid YAML")):
        harness.load_config(str(path))


def test_beta0_rule_without_seed_draws_from_seed_0(tmp_path):
    # the phase-sparse benchmark's form: {k: 5} and no seed
    config = load_yaml(tmp_path, CONFIG_YAML.replace("{k: 2, seed: 4}", "{k: 2}"))
    assert np.array_equal(config.model.beta0, sparse_vector(6, 2, 0))
    config = load_yaml(tmp_path, CONFIG_YAML.replace("{k: 2, seed: 4}", "{k: 2, norm: l1}"))
    assert np.array_equal(config.model.beta0, sparse_vector(6, 2, 0, "l1"))


def test_benchmark_configs_load(tmp_path, monkeypatch):
    # a schema change that rejects a benchmark config, or a stream change
    # that breaks the benchmark's diagnostics check, fails here rather than
    # in a benchmark run
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    import workloads

    configs = {name: getattr(workloads, f"configs_{name}")(0, str(tmp_path))
               for name in ("curve_vector", "phase_sparse", "curve_lifted", "diagnostics")}
    paths = [path for named in configs.values() for path in named.values()]
    assert len(paths) == 6
    for path in paths:
        config = harness.load_config(path)
        again = harness.config_from_dict(harness._config_dict(config))
        assert harness.config_hash(again) == harness.config_hash(config)
    # the diagnostics body: the mismatch, complexity and certificate commands
    outdir = tmp_path / "diagnostics"
    outdir.mkdir()
    workloads.body_diagnostics(configs["diagnostics"], 1, str(outdir), None)
    assert workloads.check_diagnostics(configs["diagnostics"], str(outdir), None) == (0, [])


# every schema key and the kind of value it takes
SCHEMA_KINDS = {
    "name": "str", "outputs": "str", "target_rule": "rule",
    "target_rule.explicit": "array", "n_grid": "grid", "trials_per_n": "int",
    "master_seed": "int", "mu_budget": "int", "erm_budget": "int",
    "spec": "section", "spec.kind": "str", "spec.p": "int", "spec.scale": "float",
    "spec.mixing": "array", "spec.base_kind": "str", "spec.seed_domain": "str",
    "model": "section", "model.kind": "str", "model.beta0": "array",
    "model.link": "str", "model.beta0_rule": "section", "model.beta0_rule.k": "int",
    "model.beta0_rule.seed": "int", "model.beta0_rule.norm": "str",
    "model.noise": "section", "model.noise.kind": "str", "model.noise.level": "float",
    "set": "section", "set.kind": "str", "set.radius": "radius",
    "set.center": "array", "set.vertices": "array",
    "solver": "section", "solver.max_iters": "int", "solver.tol": "float",
    "solver.track_trace": "bool",
}


def schema_keys(schema, prefix=""):
    for key, entry in schema.items():
        yield prefix + key
        if isinstance(entry, dict):
            yield from schema_keys(entry, f"{prefix}{key}.")


def test_schema_kinds_cover_every_schema_key():
    assert set(schema_keys(harness._SCHEMA)) | {"target_rule.explicit"} == set(SCHEMA_KINDS)


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


words = st.text(max_size=6).filter(lambda t: not is_number(t))
reals = st.integers(-5, 5) | st.floats(allow_nan=False)
WRONG_VALUES = {
    "str": st.integers() | st.floats() | st.booleans() | st.lists(st.integers(), max_size=2),
    "int": st.floats() | st.booleans() | st.text(max_size=4) | st.lists(st.integers(), max_size=2),
    "float": st.booleans() | words | st.lists(reals, max_size=2) | st.just({"a": 1}),
    "bool": st.integers() | st.floats() | st.text(max_size=4) | st.just([True]),
    "array": (st.integers() | st.floats() | st.booleans() | st.just("no-such-file.txt")
              | st.lists(st.booleans() | words, min_size=1, max_size=3)
              | st.just([[1.0, 2.0], [3.0]]) | st.just({"a": [1.0]})),
    "grid": st.booleans() | st.floats() | st.lists(st.booleans() | st.floats(), min_size=1),
    "section": (st.integers() | st.text(max_size=4) | st.booleans()
                | st.lists(st.integers(), max_size=2) | st.just({"no_such_key": 1})),
    "radius": (st.booleans() | st.lists(reals, max_size=2)
               | words.filter(lambda t: t not in ("beta0_l1", "beta0_l2"))),
    "rule": st.integers() | st.floats() | st.booleans() | st.lists(st.text(max_size=3), max_size=2),
}


def valid_base():
    return {"name": "base", "outputs": "out.csv", "target_rule": "beta0",
            "n_grid": [5, 10], "trials_per_n": 1, "master_seed": 0,
            "mu_budget": 10, "erm_budget": 10,
            "spec": {"kind": "laplace", "p": 3, "scale": 1.0, "base_kind": "laplace",
                     "seed_domain": "inputs"},
            "model": {"kind": "linear", "beta0": [1.0, 0.0, -0.5], "link": "identity",
                      "beta0_rule": {"k": 1, "seed": 0, "norm": "l2"},
                      "noise": {"kind": "none", "level": 0.0}},
            "set": {"kind": "l1_ball", "radius": "beta0_l1"},
            "solver": {"max_iters": 100, "tol": 1e-9, "track_trace": False}}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), key=st.sampled_from(sorted(SCHEMA_KINDS)))
def test_a_wrong_typed_value_names_its_key(data, key):
    value = data.draw(WRONG_VALUES[SCHEMA_KINDS[key]], label=key)
    config = valid_base()
    *sections, last = key.split(".")
    node = config
    for section in sections:
        if not isinstance(node.get(section), dict):
            node[section] = {}
        node = node[section]
    node[last] = value
    with pytest.raises(ConfigurationError, match=re.escape(key)):
        harness.config_from_dict(config)


@st.composite
def valid_configs(draw):
    """A valid config mapping, optional keys left out at random."""
    p = draw(st.integers(1, 5))
    entry = st.floats(0.01, 10) | st.floats(-10, -0.01)
    vector = st.lists(entry, min_size=p, max_size=p)
    spec = {"kind": draw(st.sampled_from(KINDS)), "p": p,
            "scale": draw(st.floats(1e-3, 1e3))}
    if spec["kind"] == "mixed":
        spec["mixing"] = draw(st.lists(st.lists(entry, min_size=2, max_size=2),
                                       min_size=p, max_size=p))
        spec["base_kind"] = draw(st.sampled_from(["gaussian", "laplace"]))
    model = {"kind": draw(st.sampled_from(MODEL_KINDS)),
             "link": draw(st.sampled_from(sorted(LINKS))),
             "noise": {"kind": draw(st.sampled_from(["none", "gaussian", "laplace"])),
                       "level": draw(st.floats(0, 2))}}
    if draw(st.booleans()):
        model["beta0"] = draw(vector)
    else:
        model["beta0_rule"] = {"k": draw(st.integers(1, p)),
                               "seed": draw(st.integers(0, 2**32)),
                               "norm": draw(st.sampled_from(["l1", "l2"]))}
    kind = draw(st.sampled_from(["l1_ball", "l2_ball", "hypercube", "polytope",
                                 "lifted_psd_fro"]))
    hset = {"kind": kind}
    if kind == "polytope":
        hset["vertices"] = draw(st.lists(vector, min_size=1, max_size=4))
    else:
        hset["radius"] = draw(st.floats(1e-3, 1e3) | st.sampled_from(["beta0_l1", "beta0_l2"]))
    if kind == "l2_ball" and draw(st.booleans()):
        hset["center"] = draw(vector)
    optional = {
        "name": draw(st.text(max_size=8)),
        "target_rule": draw(st.sampled_from(["beta0", "mu_beta0", "erm_mc"])
                            | vector.map(lambda v: {"explicit": v})),
        "solver": {"max_iters": draw(st.integers(1, 10**6)),
                   "tol": draw(st.floats(1e-15, 1.0)),
                   "track_trace": draw(st.booleans())},
        "n_grid": draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=4,
                                unique=True).map(sorted)),
        **{key: draw(st.integers(1, 10**7))
           for key in ("trials_per_n", "master_seed", "mu_budget", "erm_budget")},
    }
    return {"spec": spec, "model": model, "set": hset,
            **{key: value for key, value in optional.items() if draw(st.booleans())}}


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_a_valid_config_round_trips_through_its_dict(d):
    config = harness.config_from_dict(d)
    emitted = harness._config_dict(config)
    again = harness.config_from_dict(emitted)
    assert harness._config_dict(again) == emitted
    assert harness.config_hash(again) == harness.config_hash(config)
    via_yaml = harness.config_from_dict(yaml.safe_load(yaml.safe_dump(emitted)))
    assert harness.config_hash(via_yaml) == harness.config_hash(config)
