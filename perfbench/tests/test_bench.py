"""Checks of the benchmark itself: its reference check, seeds and span reduction.

Run with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reference import Reference, Trajectory
from run import reduce_spans
from workloads import WORKLOADS, make_config, sample_steps

BENCH = Path(__file__).resolve().parent.parent

SMALL = {
    "n": 2, "lambda_eg": 0.02, "lambda_g": 0.0, "lambda_e": 0.1,
    "t_end": 0.2, "dt": 0.001, "sample_every": 20, "n_max": 24,
    "csv_path": "small.csv",
}
SMALL_NUMERIC = {**SMALL, "initial_kind": "excited-fock", "propagators": ["numeric"]}
SMALL_SECULAR = {**SMALL, "initial_kind": "ground-coherent", "mean_photons": 3.0,
                 "lambda_g": 0.1, "propagators": ["rwa"]}


def exact_trajectory(ref: Reference) -> Trajectory:
    return Trajectory(ref.t_periods.copy(), ref.w.copy(), np.ones_like(ref.w),
                      4 + ref.n_max, 0, "")


def run_program(cfg: dict, tmp_path) -> Trajectory:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    subprocess.run([sys.executable, "-m", "mprabi.cli", "run", str(path),
                    "--output-dir", str(tmp_path)], check=True, env=env,
                   capture_output=True)
    (csv,) = tmp_path.glob("*.csv")
    return Trajectory.read(csv)


@pytest.mark.parametrize("cfg", [SMALL_NUMERIC, SMALL_SECULAR], ids=["numeric", "secular"])
def test_program_output_passes(cfg, tmp_path):
    problems, w_err, drift = Reference(cfg).check(run_program(cfg, tmp_path))
    assert problems == []
    assert w_err < 1e-9 and drift < 1e-9


@pytest.mark.parametrize(
    "corrupt, complaint",
    [
        (lambda t: dataclasses.replace(t, w=-t.w), "W - W_ref"),
        (lambda t: dataclasses.replace(t, norm=t.norm + 2e-6), "norm - 1"),
        (lambda t: dataclasses.replace(t, t_periods=t.t_periods * 1.001), "step grid"),
        (lambda t: dataclasses.replace(t, w=t.w[:-1], norm=t.norm[:-1],
                                       t_periods=t.t_periods[:-1]), "samples"),
        (lambda t: dataclasses.replace(t, n_columns=t.n_columns - 1), "columns"),
    ],
    ids=["w-sign-flipped", "norm-drift", "times", "row-missing", "column-missing"],
)
def test_check_rejects_corrupted_trajectory(corrupt, complaint):
    ref = Reference(SMALL_NUMERIC)
    assert ref.check(exact_trajectory(ref))[0] == []
    problems, _, _ = ref.check(corrupt(exact_trajectory(ref)))
    assert any(complaint in p for p in problems), problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_perturbs_couplings_only(name):
    configs = BENCH.parent / "configs"
    workload = WORKLOADS[name]
    shipped = json.loads((configs / workload.config).read_text())
    base = make_config(workload, configs, 0)
    assert base == {**shipped, **workload.overrides, "csv_path": f"{name}.csv"}
    perturbed_keys = {"lambda_eg", "mean_photons"}
    for seed in range(1, 6):
        cfg = make_config(workload, configs, seed)
        assert cfg == make_config(workload, configs, seed)
        assert cfg["lambda_eg"] != base["lambda_eg"]
        for key in base.keys() - perturbed_keys:
            assert cfg[key] == base[key], key
        assert sample_steps(cfg) == sample_steps(base)
        for key in perturbed_keys & base.keys():
            assert abs(cfg[key] / base[key] - 1.0) <= 0.03


def test_span_self_times_sum_to_traced_wall():
    dump = {
        "counts": {"fockmath.laguerre_transition": 7},
        "spans": [
            [2, 1, "dynamics.evolve_numeric.sample", 1.2, 1.3],
            [1, 0, "dynamics.evolve_numeric", 1.0, 2.0],
            [3, 0, "runner.format_csv", 2.0, 2.5],
            [0, -1, "process", 0.0, 3.0],
        ],
    }
    cfg = {"t_end": 1.0, "dt": 0.01}
    figures = reduce_spans(dump, cfg, {"samples": 50, "csv_bytes": 1000})
    assert figures["trace.span_self_sum_s"] == pytest.approx(figures["trace.wall_s"])
    assert figures["process.self_s"] == pytest.approx(1.5)
    assert figures["dynamics.evolve_numeric.self_s"] == pytest.approx(0.9)
    assert figures["dynamics.evolve_numeric.us_per_step"] == pytest.approx(9000.0)
    assert figures["dynamics.evolve_numeric.us_per_sample"] == pytest.approx(1e5)
    assert figures["runner.format_csv.us_per_row"] == pytest.approx(1e4)
    assert figures["fockmath.laguerre_transition.calls"] == 7
