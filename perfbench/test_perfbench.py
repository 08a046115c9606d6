"""Self-tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    inner_traced = tracer.wrap("solver.inner", inner)

    def outer():
        time.sleep(0.01)
        inner_traced()
        inner_traced()

    tracer.wrap("harness.outer", outer)()
    metrics, table = tracing.summarize(tracer, wall_s=1.0)

    outer_span = next(s for s in tracer.spans if s[1] == "harness.outer")
    assert [s[4] for s in tracer.spans if s[1] == "solver.inner"] == [outer_span[0]] * 2
    assert table["solver.inner"]["calls"] == 2
    total = table["harness.outer"]["total_s"]
    assert abs(table["harness.outer"]["self_s"] + table["solver.inner"]["total_s"]
               - total) < 1e-9
    assert 0.005 < metrics["harness.self_s"] < 0.02
    assert abs(metrics["trace.other_s"] - (1.0 - total)) < 1e-9


def test_parse_importtime_counts_only_the_package_tree():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:       300 |        300 |     numpy.core",
        "import time:      2000 |       2300 |   numpy",
        "import time:        50 |         50 |     scipy.special",
        "import time:       400 |       2750 | subexp_lasso",
        "import time:       250 |        250 | subexp_lasso.cli",
    ])
    got = tracing.parse_importtime(stderr)
    assert got["import.total_s"] == pytest.approx(3000e-6)
    assert got["import.pkg_self_s"] == pytest.approx(650e-6)
    assert got["import.numpy_s"] == pytest.approx(2300e-6)
    assert got["import.modules"] == 5
    assert got["import.scipy_modules"] == 1


def test_quantile_matches_numpy():
    vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for q in (0.25, 0.5, 0.75, 0.9):
        assert abs(tracing.quantile(vals, q) - np.quantile(vals, q)) < 1e-12
