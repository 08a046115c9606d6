"""The four benchmark workloads: config generation, timed body and checks.

Each workload is three functions:

- ``configs(seed, workdir)`` writes the workload's YAML configs for one
  benchmark seed and returns their paths.  It runs in run.py and uses
  only numpy and yaml, never the program.
- ``body(configs, threads, outdir, loaded)`` runs in a child process after
  set-up, through the CLI or the public library entry points, and writes the
  program's outputs under ``outdir``.  ``loaded`` maps each config key to
  the config as the program parsed it during set-up.
- ``check(configs, outdir, reference)`` runs in run.py on those outputs.
  ``reference`` is the output directory of the run's first 1-thread body,
  or None when checking that body itself.  It returns the number of failed
  operations and a list of problems.

The checks hold for any seed: they test scaling laws, closed forms and
thread-count invariance, never a value of one seeded stream.
"""

from __future__ import annotations

import csv
import json
import math
import os

from tracing import quantile

# Master seeds at benchmark seed 0: the acceptance suite's seeds for the tuned
# curve (21), the lifted curve (8) and the mismatch check (41), and the
# sweep's own seed.  Benchmark seed s adds s to each.
DEFAULT_SEEDS = {"curve-vector": 21, "phase-sparse": 5, "curve-lifted": 8,
                 "diagnostics": 41}

ACCEPT_SOLVER = {"max_iters": 50_000, "tol": 1e-14}

CURVE_VECTOR = {"p": 100, "n_grid": [200, 400, 800, 1600, 3200], "trials": 15,
                "noise_std": 0.5, "slope_window": (-0.65, -0.35)}
PHASE = {"p": 200, "k_grid": [5, 10, 15], "n_grid": [120, 140, 160],
         "trials": 8}
LIFTED = {"p": 30, "n_grid": [500, 1000, 2000], "trials": 4,
          "max_final_median": 0.1}
MISMATCH = {"p": 50, "k": 5, "mu_budget": 1_000_000}
COMPLEXITY = {"p": 8, "halfwidth": 0.5, "n": 200}
CERTIFICATE = {"p": 100, "n": 400, "scale": 0.5}

# Operations per body: one solve, or one command for diagnostics.
PLANNED_OPS = {
    "curve-vector": len(CURVE_VECTOR["n_grid"]) * CURVE_VECTOR["trials"],
    "phase-sparse": len(PHASE["k_grid"]) * len(PHASE["n_grid"]) * PHASE["trials"],
    "curve-lifted": len(LIFTED["n_grid"]) * LIFTED["trials"],
    "diagnostics": 3,
}

# Laplace(scale 1) tail profile: g = 2 ||.||_2 and e = 2 ||.||_inf.
LAPLACE_G, LAPLACE_E = 2.0, 2.0
WIDTH_SIGMAS = 4.0


# ---------------------------------------------------------------------------
# Config generation (run.py side)
# ---------------------------------------------------------------------------

def _write_yaml(workdir, name, data):
    import yaml

    path = os.path.join(workdir, f"{name}.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    return path


def interior_sparse_beta0(p, k=5):
    """Criterion 2's 5-sparse unit-norm target with decaying magnitudes."""
    import numpy as np

    beta0 = np.zeros(p)
    beta0[np.linspace(3, p - 10, k, dtype=int)] = [1.0, 0.35, 0.2, 0.12, 0.08][:k]
    return beta0 / np.linalg.norm(beta0)


def tanh_scale():
    """E[tanh(Z) Z] for standard normal Z, by Gauss-Hermite quadrature."""
    import numpy as np

    z, w = np.polynomial.hermite_e.hermegauss(80)
    return float((w * np.tanh(z) * z).sum() / w.sum())


def master_seed(workload, seed):
    return DEFAULT_SEEDS[workload] + int(seed)


def _linear_model(beta0, noise_std):
    return {"kind": "linear", "beta0": [float(v) for v in beta0],
            "noise": {"kind": "laplace", "level": noise_std / math.sqrt(2.0)}}


def configs_curve_vector(seed, workdir):
    c = CURVE_VECTOR
    beta0 = interior_sparse_beta0(c["p"])
    return {"curve": _write_yaml(workdir, "curve-vector", {
        "name": "curve-vector",
        "spec": {"kind": "laplace", "p": c["p"]},
        "model": _linear_model(beta0, c["noise_std"]),
        "set": {"kind": "l1_ball", "radius": "beta0_l1"},
        "solver": ACCEPT_SOLVER,
        "n_grid": c["n_grid"], "trials_per_n": c["trials"],
        "master_seed": master_seed("curve-vector", seed)})}


def configs_phase_sparse(seed, workdir):
    c = PHASE
    # run_phase_transition draws a fresh target and l1 ball per sparsity; the
    # model and set below only fix the law, the noise and the dimension.  The
    # (k, n) grid is an argument of the entry point, not part of the config.
    return {"phase": _write_yaml(workdir, "phase-sparse", {
        "name": "phase-sparse",
        "spec": {"kind": "gaussian", "p": c["p"]},
        "model": {"kind": "linear", "beta0_rule": {"k": c["k_grid"][0]},
                  "noise": {"kind": "none"}},
        "set": {"kind": "l1_ball", "radius": "beta0_l1"},
        "solver": ACCEPT_SOLVER,
        "trials_per_n": c["trials"],
        "master_seed": master_seed("phase-sparse", seed)})}


def configs_curve_lifted(seed, workdir):
    import numpy as np

    c = LIFTED
    ms = master_seed("curve-lifted", seed)
    beta0 = np.random.default_rng(ms).standard_normal(c["p"])
    beta0 /= np.linalg.norm(beta0)
    return {"curve": _write_yaml(workdir, "curve-lifted", {
        "name": "curve-lifted",
        "spec": {"kind": "gaussian", "p": c["p"]},
        "model": {"kind": "lifted_view", "beta0": [float(v) for v in beta0]},
        "set": {"kind": "lifted_psd_fro", "radius": 1.0},
        "solver": ACCEPT_SOLVER,
        "n_grid": c["n_grid"], "trials_per_n": c["trials"],
        "master_seed": ms})}


def configs_diagnostics(seed, workdir):
    import numpy as np

    ms = master_seed("diagnostics", seed)
    m = MISMATCH
    # criterion 4's target: a 5-sparse unit vector, drawn from rng(40) at
    # benchmark seed 0
    rng = np.random.default_rng(40 + int(seed))
    beta0 = np.zeros(m["p"])
    beta0[rng.choice(m["p"], m["k"], replace=False)] = rng.standard_normal(m["k"])
    beta0 /= np.linalg.norm(beta0)
    # l1 ball tuned to the scaled target mu * beta0, widened by 1 % so that
    # the Monte-Carlo estimate of mu stays inside it
    radius = 1.01 * tanh_scale() * float(np.abs(beta0).sum())
    mismatch = _write_yaml(workdir, "mismatch", {
        "name": "mismatch",
        "spec": {"kind": "gaussian", "p": m["p"]},
        "model": {"kind": "single_index", "link": "tanh",
                  "beta0": [float(v) for v in beta0]},
        "set": {"kind": "l1_ball", "radius": radius},
        "target_rule": "mu_beta0", "mu_budget": m["mu_budget"],
        "master_seed": ms})
    c = COMPLEXITY
    complexity = _write_yaml(workdir, "complexity", {
        "name": "complexity",
        "spec": {"kind": "laplace", "p": c["p"]},
        "model": {"kind": "linear", "beta0": [0.0] * (c["p"] - 1) + [0.25]},
        "set": {"kind": "hypercube", "radius": c["halfwidth"]},
        "n_grid": [c["n"]], "master_seed": ms})
    c = CERTIFICATE
    certificate = _write_yaml(workdir, "certificate", {
        "name": "certificate",
        "spec": {"kind": "laplace", "p": c["p"]},
        "model": _linear_model(interior_sparse_beta0(c["p"]),
                               CURVE_VECTOR["noise_std"]),
        "set": {"kind": "l1_ball", "radius": "beta0_l1"},
        "n_grid": [c["n"]], "master_seed": ms})
    return {"mismatch": mismatch, "complexity": complexity,
            "certificate": certificate}


# ---------------------------------------------------------------------------
# Timed bodies (child side; the program is importable there)
# ---------------------------------------------------------------------------

def _cli(*argv):
    from subexp_lasso import cli

    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"subexp-lasso {argv[0]} exited with {code}")


def body_curve(configs, threads, outdir, loaded):
    records = os.path.join(outdir, "records.csv")
    _cli("experiment", "--config", configs["curve"], "--threads", threads,
         "--format", "csv", "--out", records)
    _cli("report", records, "--out", os.path.join(outdir, "report.txt"))


def body_phase_sparse(configs, threads, outdir, loaded):
    from subexp_lasso import harness

    result = harness.run_phase_transition(PHASE["k_grid"], PHASE["n_grid"],
                                          loaded["phase"])
    harness.emit(result, "jsonl", os.path.join(outdir, "phase.jsonl"))


def body_diagnostics(configs, threads, outdir, loaded):
    _cli("mismatch", "--config", configs["mismatch"], "--threads", threads,
         "--format", "jsonl", "--out", os.path.join(outdir, "mismatch.jsonl"))
    _cli("complexity", "--config", configs["complexity"], "--threads", threads,
         "--out", os.path.join(outdir, "complexity.txt"))
    _cli("certificate", "--config", configs["certificate"], "--threads", threads,
         "--scale", CERTIFICATE["scale"], "--format", "jsonl",
         "--out", os.path.join(outdir, "certificate.jsonl"))


# ---------------------------------------------------------------------------
# Output checks (run.py side)
# ---------------------------------------------------------------------------

def _read(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return fh.read()


def _table(text):
    """Whitespace-aligned table text -> (header, rows)."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    return lines[0], lines[1:]


def _same_outputs(outdir, reference, names, problems):
    for name in names:
        if _read(outdir, name) != _read(reference, name):
            problems.append(f"{name} differs from the 1-thread output")
            return False
    return True


def _check_records(outdir, reference, planned, problems):
    """Per-solve records: count, finite errors, thread-count invariance.

    Returns (errors by n, failed solves).  Columns ending in ``_ms`` are
    timings and are exempt from the invariance check.
    """
    with open(os.path.join(outdir, "records.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    by_n = {}
    for row in rows:
        by_n.setdefault(int(row["n"]), []).append(float(row["error"]))
    failed = sum(not math.isfinite(e) for errs in by_n.values() for e in errs)
    if failed:
        problems.append(f"{failed} non-finite errors")
    if len(rows) != planned:
        problems.append(f"{len(rows)} records for {planned} planned solves")
        failed += abs(planned - len(rows))
    if reference is not None:
        with open(os.path.join(reference, "records.csv"), encoding="utf-8") as fh:
            ref_rows = list(csv.DictReader(fh))
        differ = sum(any(row[k] != ref.get(k) for k in row if not k.endswith("_ms"))
                     for row, ref in zip(rows, ref_rows))
        if differ:
            problems.append(f"{differ} records differ from the 1-thread records")
            failed += differ
    return by_n, failed


def _check_report(outdir, by_n, problems):
    """`report` aggregates must equal those computed from the records CSV.

    Returns the printed decay slope (nan when missing).
    """
    header, rows = _table(_read(outdir, "report.txt"))
    col = {name: i for i, name in enumerate(header)}
    slope = float("nan")
    seen = set()
    for row in rows:
        if row[0] == "decay_slope":
            slope = float(row[1])
            continue
        n = int(row[0])
        errs = by_n.get(n, [])
        if not errs:
            problems.append(f"report has n={n}, the records do not")
            continue
        seen.add(n)
        expect = {"median": quantile(errs, 0.5), "q25": quantile(errs, 0.25),
                  "q75": quantile(errs, 0.75)}
        for key, val in expect.items():
            if row[col[key]] != f"{val:.6g}":
                problems.append(f"report {key} at n={n}: {row[col[key]]} "
                                f"!= {val:.6g} from the records")
        if int(row[col["count"]]) != len(errs):
            problems.append(f"report count at n={n} != {len(errs)}")
    if seen != set(by_n):
        problems.append("report and records cover different n")
    return slope


def check_curve_vector(configs, outdir, reference):
    problems = []
    planned = PLANNED_OPS["curve-vector"]
    by_n, failed = _check_records(outdir, reference, planned, problems)
    slope = _check_report(outdir, by_n, problems)
    lo, hi = CURVE_VECTOR["slope_window"]
    if not lo <= slope <= hi:
        problems.append(f"decay slope {slope} outside [{lo}, {hi}]")
    if problems:
        failed = planned
    return failed, problems


def check_curve_lifted(configs, outdir, reference):
    c = LIFTED
    problems = []
    planned = PLANNED_OPS["curve-lifted"]
    by_n, failed = _check_records(outdir, reference, planned, problems)
    _check_report(outdir, by_n, problems)
    medians = [quantile(by_n.get(n, [math.nan]), 0.5) for n in c["n_grid"]]
    if not all(a > b for a, b in zip(medians, medians[1:])):
        problems.append(f"median error does not fall with n: {medians}")
    if not medians[-1] < c["max_final_median"]:
        problems.append(f"median error {medians[-1]} at n={c['n_grid'][-1]} "
                        f"is not below {c['max_final_median']}")
    if problems:
        failed = planned
    return failed, problems


def check_phase_sparse(configs, outdir, reference):
    """Every cell lies above the noiseless transition, so every trial must
    recover its target: a cell's unrecovered trials are failed solves."""
    c = PHASE
    problems = []
    cells = [json.loads(ln) for ln in _read(outdir, "phase.jsonl").splitlines()
             if ln.strip()]
    planned = PLANNED_OPS["phase-sparse"]
    expected = {(k, n) for k in c["k_grid"] for n in c["n_grid"]}
    if {(cell["k"], cell["n"]) for cell in cells} != expected or \
            len(cells) != len(expected):
        problems.append("phase cells do not match the (k, n) grid")
        return planned, problems
    failed = 0
    for cell in cells:
        missed = round((1.0 - cell["success"]) * c["trials"])
        if missed:
            problems.append(f"k={cell['k']} n={cell['n']}: success "
                            f"{cell['success']}")
        failed += missed
    if reference is not None and not _same_outputs(outdir, reference,
                                                   ["phase.jsonl"], problems):
        failed = planned
    return failed, problems


def _closed_form_polytope():
    """Vertex-count surrogates of the hypercube from its antipodal diameters."""
    c = COMPLEXITY
    D = 2 ** c["p"]
    logd = math.log(D)
    dg = LAPLACE_G * 2.0 * c["halfwidth"] * math.sqrt(c["p"])
    de = LAPLACE_E * 2.0 * c["halfwidth"]
    q = de * logd / math.sqrt(c["n"]) + (dg + de) * math.sqrt(logd)
    m = de * logd + dg * math.sqrt(logd)
    return q, m


def check_diagnostics(configs, outdir, reference):
    failed = 0
    problems = []

    # mismatch: the scaled target leaves no covariance beyond Monte-Carlo
    # noise (criterion 4's allowance)
    try:
        rep = json.loads(_read(outdir, "mismatch.jsonl"))
        allow = 3.0 * rep["mc_std_error"] * math.sqrt(MISMATCH["p"])
        ok = (all(math.isfinite(rep[k]) for k in
                  ("sigma", "rho_global", "mc_std_error"))
              and rep["rho_global"] < allow)
        if not ok:
            problems.append(f"mismatch: rho_global {rep['rho_global']} "
                            f"(allowance {allow}), sigma {rep['sigma']}")
    except (OSError, ValueError, KeyError) as exc:
        ok = False
        problems.append(f"mismatch output unreadable: {exc!r}")
    failed += not ok

    # complexity: widths of the hypercube against their closed forms, and
    # the exact vertex-count surrogates
    c = COMPLEXITY
    expect = {"gaussian": c["halfwidth"] * c["p"] * math.sqrt(2.0 / math.pi),
              "exponential": c["halfwidth"] * c["p"]}
    q, m = _closed_form_polytope()
    try:
        _, rows = _table(_read(outdir, "complexity.txt"))
        by_kind = {row[0]: row[1:] for row in rows}
        ok = True
        for kind, value in expect.items():
            mean, se = float(by_kind[kind][0]), float(by_kind[kind][1])
            if not abs(mean - value) <= WIDTH_SIGMAS * se:
                ok = False
                problems.append(f"{kind} width {mean} +/- {se} vs {value}")
        # the CLI prints 6 significant digits, so the closed form must print
        # identically
        for kind, value in (("polytope-q", q), ("polytope-m", m)):
            if kind not in by_kind:
                ok = False
                problems.append(f"complexity table lacks the {kind} row")
            elif by_kind[kind][0] != f"{value:.6g}":
                ok = False
                problems.append(f"{kind} {by_kind[kind][0]} != {value:.6g}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        ok = False
        problems.append(f"complexity output unreadable: {exc!r}")
    failed += not ok

    # certificate: at a scale well above the estimation error, every sampled
    # point of the slice has positive excess risk
    try:
        cert = json.loads(_read(outdir, "certificate.jsonl"))
        ok = (cert["sampled_directions"] > 0
              and math.isfinite(cert["min_excess"])
              and cert["positive"] == (cert["min_excess"] > 0)
              and cert["positive"])
        if not ok:
            problems.append(f"certificate: {cert}")
    except (OSError, ValueError, KeyError) as exc:
        ok = False
        problems.append(f"certificate output unreadable: {exc!r}")
    failed += not ok

    if reference is not None and not _same_outputs(
            outdir, reference,
            ["mismatch.jsonl", "complexity.txt", "certificate.jsonl"], problems):
        failed = 3
    return failed, problems


WORKLOADS = {
    "curve-vector": (configs_curve_vector, body_curve, check_curve_vector),
    "phase-sparse": (configs_phase_sparse, body_phase_sparse, check_phase_sparse),
    "curve-lifted": (configs_curve_lifted, body_curve, check_curve_lifted),
    "diagnostics": (configs_diagnostics, body_diagnostics, check_diagnostics),
}
