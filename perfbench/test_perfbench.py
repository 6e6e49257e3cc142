"""Self-tests of the benchmark on small grids.

Run from the root of the repository: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from layers import REMAINDERS, LayerTrace  # noqa: E402
from rscgc import multigrid  # noqa: E402

SMALL_2D = bench.SolveWorkload("small-2d", dim=2, cells=64, pad=20, G=12.0,
                               intergrid="cubic", alpha=1.0045, dampings=(0.89, 0.89),
                               kind="wedge", kappa2=(0.25, 1.0))
SMALL_3D = bench.SolveWorkload("small-3d", dim=3, cells=16, pad=8, G=10.0,
                               intergrid="level-dependent", alpha=1.0245,
                               dampings=(0.6, 0.4))
SMALL_TUNE = bench.TuneWorkload("small-tune", Gs=(10.0,))


@pytest.mark.parametrize("workload", [SMALL_2D, SMALL_3D], ids=lambda w: w.name)
def test_traced_solve_is_bitwise_identical(workload):
    inputs = workload.prepare(np.random.default_rng(3))
    originals = {name: getattr(multigrid, name) for name in ("_coarsen", "jacobi_smooth")}
    x, report = workload.solve(inputs)[:2]
    trace = LayerTrace()
    with trace.patched():
        x_traced, report_traced = workload.solve(inputs, trace)[:2]
    assert np.array_equal(x, x_traced)
    assert report.iterations == report_traced.iterations
    assert trace.calls["multigrid.smooth_fine"] > 0 and trace.calls["multigrid.smooth_mid"] > 0
    for name, fn in originals.items():
        assert getattr(multigrid, name) is fn


def _declared():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("workload", [SMALL_2D, SMALL_3D, SMALL_TUNE],
                         ids=lambda w: w.name)
def test_every_metric_is_emitted(workload):
    end_to_end, per_layer = _declared()
    assert tuple(end_to_end) == bench.END_TO_END
    assert tuple(per_layer) == bench.PER_LAYER

    result = bench.run(workload, seed=5, seconds=0)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
    assert all(v["value"] > 0 for v in result["metrics"].values())

    result = bench.run(workload, seed=5, seconds=0, trace=True)
    assert result["correct"] and result["attempted"] == 2
    expected = dict(per_layer)
    if workload is SMALL_TUNE:      # tunes G=10 only
        expected = {k: u for k, u in expected.items()
                    if not k.endswith((".G11", ".G12"))}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in REMAINDERS:
        assert result["metrics"][name]["value"] >= 0
    if workload is SMALL_TUNE:
        assert result["metrics"]["dispersion.alpha_star.G10"]["value"] == 1.0245
        assert result["metrics"]["multigrid.cycle_calls"]["value"] == 0
    else:
        assert result["metrics"]["multigrid.cycle_calls"]["value"] > 0
        assert result["metrics"]["dispersion.optimize_shift_s.G10"]["value"] == 0


def test_gate_rejects_a_perturbed_solution():
    inputs = SMALL_2D.prepare(np.random.default_rng(7))
    x, report = SMALL_2D.solve(inputs)[:2]
    assert bench.check_solution(inputs["check"], inputs["b"], x, report) == []
    perturbed = x.copy()
    perturbed[perturbed.size // 2] += 1e-3 * np.abs(x).max()
    assert bench.check_solution(inputs["check"], inputs["b"], perturbed, report)


def test_gate_rejects_a_tuned_shift_outside_tolerance():
    alpha, max_eg = bench.TUNED_3D[10.0]
    assert bench.check_tuned(10.0, alpha + 5e-4, max_eg) == []
    assert bench.check_tuned(10.0, alpha + 6e-4, max_eg)
    assert bench.check_tuned(10.0, alpha, 1.06 * max_eg)
