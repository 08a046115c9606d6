import math
import os

import numpy as np
import pytest

from subexp_lasso import geometry, harness
from subexp_lasso.distributions import DistributionSpec
from subexp_lasso.errors import ConfigurationError
from subexp_lasso.models import Noise, ObservationModel, generate_dataset
from subexp_lasso.solver import SolverConfig
from subexp_lasso.seeding import derive_seed, split_trials, partitioned_mean


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


def test_split_trials():
    assert split_trials(10, 3) == [4, 3, 3]
    assert split_trials(2, 5) == [1, 1, 0, 0, 0]
    with pytest.raises(ValueError):
        split_trials(-1, 2)


def test_partitioned_mean_fixed_partition_determinism():
    def chunk(rng, m):
        return rng.standard_normal(m)

    a = partitioned_mean(10_000, 4, 7, "t", chunk)
    b = partitioned_mean(10_000, 4, 7, "t", chunk)
    assert a[0] == b[0] and a[1] == b[1]


# ---------------------------------------------------------------------------
# Decay fitting
# ---------------------------------------------------------------------------

def synthetic_aggregates(fn):
    return {n: {"median": fn(n), "q25": fn(n), "q75": fn(n), "count": 1}
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
    aggs = {100: {"median": 0.0, "q25": 0, "q75": 0, "count": 1},
            200: {"median": 1.0, "q25": 1, "q75": 1, "count": 1},
            400: {"median": 0.5, "q25": 0.5, "q75": 0.5, "count": 1}}
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


def test_certificate_empty_slice_flag():
    beta0 = np.zeros(2)
    model = ObservationModel("linear", np.array([1.0, 0.0]))
    spec = DistributionSpec("gaussian", 2)
    ds = generate_dataset(model, spec, 10, 15)
    s = geometry.l2_ball(0.5, 2)
    rep = harness.excess_certificate(ds, s, beta0, 2.0, 32, 16)
    assert rep.empty_slice and not rep.positive


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
    with pytest.raises(ConfigurationError):
        harness.emit(res, "xml")


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


def test_thread_count_env_override(monkeypatch):
    monkeypatch.delenv("SUBEXP_LASSO_THREADS", raising=False)
    assert harness.thread_count(4) == 4
    monkeypatch.setenv("SUBEXP_LASSO_THREADS", "7")
    assert harness.thread_count(4) == 7
    monkeypatch.setenv("SUBEXP_LASSO_THREADS", "x")
    with pytest.raises(ConfigurationError):
        harness.thread_count(4)


def test_cli_subcommands(tmp_path):
    from subexp_lasso.cli import main

    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML)

    sample_out = tmp_path / "sample.csv"
    assert main(["sample", "--config", str(cfg), "--out", str(sample_out),
                 "--n", "15"]) == 0
    lines = sample_out.read_text().splitlines()
    assert lines[0].startswith("y,x0") and len(lines) == 16

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


def test_cli_complexity_without_vertex_list(tmp_path, capsys):
    from subexp_lasso.cli import main

    cfg = tmp_path / "l2.yaml"
    cfg.write_text(CONFIG_YAML.replace("{kind: l1_ball, radius: beta0_l1}",
                                       "{kind: l2_ball, radius: 1.0}"))
    assert main(["complexity", "--config", str(cfg)]) == 0
    text = capsys.readouterr().out
    assert "gaussian" in text and "exponential" in text
    assert "polytope" not in text


def test_cli_complexity_raises_real_errors(tmp_path, monkeypatch):
    from subexp_lasso import cli

    def broken(*args, **kwargs):
        raise ValueError("broken kernel")

    monkeypatch.setattr(cli.cx, "polytope_complexity", broken)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(CONFIG_YAML)
    with pytest.raises(ValueError, match="broken kernel"):
        cli.main(["complexity", "--config", str(cfg)])


def test_cli_import_loads_no_scipy():
    import subprocess
    import sys

    import subexp_lasso

    src = os.path.dirname(os.path.dirname(subexp_lasso.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import subexp_lasso.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_n_grid_must_increase():
    with pytest.raises(ConfigurationError):
        small_config(n_grid=(40, 40))
