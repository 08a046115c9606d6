"""Seeded streams, pinned by SHA-256 digests in `data/streams.json`.

Each case draws a small, fast instance of one seeded stream or of an
estimate built on it, and compares the digest of its exact values (floats
by repr) with the committed manifest.  A moved stream fails here; moving
one on purpose means rewriting the manifest, with

    PYTHONPATH=src python tests/test_streams.py --write

which prints each stream whose digest differs from the committed one
(name, old digest, new digest), and naming each stream that moved.  Solver
outputs depend on the BLAS, so the manifest records the numpy version and
BLAS it was made with, and a mismatch names both beside those of the
failing run.
"""

import hashlib
import json
import pathlib
import sys
from dataclasses import asdict, is_dataclass, replace

import numpy as np
import pytest

from subexp_lasso import complexity, geometry, harness
from subexp_lasso.distributions import (DistributionSpec, profile_for,
                                        psi_norm_estimate, sample_inputs)
from subexp_lasso.models import (Noise, ObservationModel, mismatch_report,
                                 target_scale_mu)
from subexp_lasso.seeding import MC_CHUNK, partitions
from subexp_lasso.solver import SolverConfig

MANIFEST = pathlib.Path(__file__).resolve().parent / "data" / "streams.json"
LAWS = ("gaussian", "rademacher", "laplace", "symmetric_exponential")
MIXING = np.array([[1.0, 0.5, 0.0], [-0.25, 1.0, 2.0], [0.0, 0.0, 1.0],
                   [3.0, -1.0, 0.5], [0.5, 0.5, 0.5]])
BETA0 = np.array([1.0, -0.5, 0.0, 0.0, 0.0, 0.0])


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, obj.shape, obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    if is_dataclass(obj):
        return asdict(obj)
    raise TypeError(f"no digest for {type(obj).__name__}")


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, default=_plain).encode()).hexdigest()


def blas() -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info['name']} {info.get('version', '')}".strip()


def _curve(model, spec, s, **kw):
    config = harness.ExperimentConfig(
        name="streams", model=model, spec=spec, hypothesis_set=s,
        solver_config=SolverConfig(max_iters=2_000, tol=1e-12), master_seed=11, **kw)
    return [replace(r, runtime_ms=None) for r in harness.run_error_curve(config).records]


def _directions(s, center, t):
    return geometry.sample_directions(s, center, t, 24, seed=5)


SPEC = DistributionSpec("laplace", 6)
L1 = geometry.l1_ball(1.5, 6)
LINEAR = ObservationModel("linear", BETA0, noise=Noise("gaussian", 0.2))

STREAMS = {
    **{f"inputs-{law}": lambda law=law: sample_inputs(DistributionSpec(law, 5), 40, 7)
       for law in LAWS},
    **{f"inputs-mixed-{law}": lambda law=law: sample_inputs(
        DistributionSpec("mixed", 5, mixing=MIXING, base_kind=law), 40, 7)
       for law in LAWS},
    "partitions": lambda: partitions(3 * MC_CHUNK + 5, 13, "streams"),
    "directions-l1-cone": lambda: _directions(L1, 0.75 * BETA0, 0.0),
    "directions-l2-slice": lambda: _directions(
        geometry.l2_ball(1.0, 6, center=0.1 * BETA0), 0.1 * BETA0, 0.3),
    "directions-hypercube": lambda: _directions(geometry.hypercube(1.0, 4),
                                                np.full(4, 0.5), 0.0),
    "directions-polytope": lambda: _directions(
        geometry.polytope(MIXING[:, :2]), MIXING[0, :2], 0.1),
    "directions-lifted": lambda: _directions(geometry.lifted_psd_fro(1.0, 3),
                                             0.3 * np.eye(3), 0.2),
    "width-gaussian": lambda: complexity.gaussian_width(L1, 200, 3),
    "width-exponential": lambda: complexity.exponential_width(L1, 200, 3),
    "width-empirical": lambda: complexity.empirical_width(L1, SPEC, 30, 200, 3),
    "psi-norm": lambda: psi_norm_estimate(sample_inputs(SPEC, 500, 2), alpha=1),
    "target-scale-mu": lambda: target_scale_mu(
        ObservationModel("single_index", BETA0, link="tanh"), SPEC, 20_000, 4),
    "mismatch": lambda: mismatch_report(
        ObservationModel("single_index", BETA0, link="tanh"), SPEC, 0.5 * BETA0,
        hypothesis_set=L1, t=0.0, mc_budget=5_000, seed=6, n_dirs=32),
    "small-ball": lambda: complexity.small_ball_report(
        SPEC, np.vstack([np.eye(6), MIXING.T @ np.ones((5, 6)) / 4.0]),
        "paley_zygmund", 2_000, 8),
    "polytope-complexity": lambda: [
        complexity.polytope_complexity(s, profile_for(spec), 50) for s, spec in [
            (L1, SPEC), (geometry.hypercube(1.0, 4), DistributionSpec("gaussian", 4)),
            (geometry.polytope(MIXING.T), DistributionSpec(
                "mixed", 5, mixing=MIXING, base_kind="symmetric_exponential"))]],
    "curve-vector": lambda: _curve(LINEAR, SPEC, L1, n_grid=(20, 40), trials_per_n=2),
    "curve-lifted": lambda: _curve(
        ObservationModel("lifted_view", np.array([1.0, 0.0, 0.0])),
        DistributionSpec("gaussian", 3), geometry.lifted_psd_fro(1.0, 3),
        n_grid=(40,), trials_per_n=2),
}


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def test_manifest_covers_every_stream():
    assert sorted(_manifest()["digests"]) == sorted(STREAMS)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_matches_its_digest(name):
    manifest = _manifest()
    got, want = digest(STREAMS[name]()), manifest["digests"][name]
    assert got == want, (
        f"stream {name!r} moved: digest {got} is not the manifest's {want}. "
        f"Manifest made with numpy {manifest['numpy']} and BLAS {manifest['blas']}; "
        f"this run has numpy {np.__version__} and BLAS {blas()}.")


def test_digest_reads_every_value():
    # one ulp anywhere changes it, so no value is summarised away
    x = sample_inputs(SPEC, 40, 7)
    y = x.copy()
    y[3, 2] = np.nextafter(y[3, 2], np.inf)
    assert digest(x) != digest(y)
    assert digest(x) == digest(x.copy())


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    old = _manifest()["digests"] if MANIFEST.exists() else {}
    digests = {name: digest(STREAMS[name]()) for name in sorted(STREAMS)}
    for name in sorted(old.keys() | digests.keys()):
        if old.get(name) != digests.get(name):
            print(f"{name}: {old.get(name)} -> {digests.get(name)}")
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(
        {"numpy": np.__version__, "blas": blas(), "digests": digests}, indent=1) + "\n")
