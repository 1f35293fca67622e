"""Config parsing, emitters, orchestration, CLI exit codes."""

import errno
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from decimal import Decimal
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mprabi import cli, dynamics, runner, rwa
from mprabi import config as config_module
from mprabi.config import ConfigError, ScenarioConfig, parse_config
from mprabi.dynamics import Trajectory, evolve_rwa
from mprabi.fockmath import displacement_matrix
from mprabi.model import ModelParams
from mprabi.runner import emit_csv, emit_spectrum, run_scenario
from mprabi.rwa import resonant_omega0, spectrum_records

REPO = Path(__file__).resolve().parents[1]
CONFIGS = sorted((REPO / "configs").glob("*.json"))

QUICK = {
    "n": 2,
    "lambda_eg": 0.02,
    "lambda_e": 0.1,
    "n_max": 12,
    "t_end": 2.0,
    "dt": 0.002,
    "sample_every": 50,
}


def write_config(tmp_path, name="scenario.json", **extra):
    payload = dict(QUICK)
    payload.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        config = parse_config('{"n": 2, "lambda_eg": 0.02, "lambda_e": 0.1}')
        assert config.n == 2
        assert config.lambda_eg == 0.02
        assert config.lambda_e == 0.1
        assert config.lambda_g == 0.0
        assert config.omega == 1.0
        assert config.omega0 is None
        assert config.initial_kind == "excited-fock"
        assert config.t_end == 100.0
        assert config.dt == 0.001
        assert config.sample_every == 10
        assert config.n_max == 200
        assert config.propagators == ("numeric",)

    def test_n_and_omega0_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config('{"n": 2, "omega0": 2.0, "lambda_eg": 0.02}')

    def test_empty_document_lists_required_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{}")
        message = str(err.value)
        assert "lambda_eg" in message
        assert "n / omega0" in message

    def test_parse_error_carries_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("{,}")

    def test_every_violation_reported(self):
        bad = json.dumps(
            {"omega": -1.0, "dt": 0.0, "bogus_key": 1, "lambda_eg": 0.02, "n": 2}
        )
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert len(err.value.problems) >= 3
        joined = str(err.value)
        assert "omega" in joined and "dt" in joined and "bogus_key" in joined

    def test_several_faults_report_each_once(self):
        # the set of problems is pinned; their order follows the check tables
        bad = json.dumps({
            "bogus": 1, "lambda_eg": 0.02, "initial_kind": "thermal", "n_photons": -1,
            "n": 2, "omega0": 2.0, "order": 3,
        })
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert sorted(err.value.problems) == sorted([
            "unknown key 'bogus'",
            "keys 'n' and 'omega0' are mutually exclusive; give exactly one",
            "key 'initial_kind' must be one of ('excited-fock', 'ground-coherent'), "
            "got 'thermal'",
            "key 'n_photons' must be >= 0, got -1",
            "key 'order' must be one of (1, 2), got 3",
        ])

    def test_signed_couplings_accepted(self):
        config = parse_config('{"n": 3, "lambda_eg": 0.02, "lambda_g": -0.1, "lambda_e": 0.1}')
        assert config.lambda_g == -0.1

    def test_coherent_truncation_checked_up_front(self, tmp_path):
        # the config parses; the run plan checks the bound before any compute
        config = parse_config(json.dumps(
            {"n": 2, "lambda_eg": 0.02, "initial_kind": "ground-coherent",
             "mean_photons": 50.0, "n_max": 40}
        ))
        with pytest.raises(ConfigError) as err:
            runner.plan_run(config, str(tmp_path))
        assert err.value.problems == ["mean_photons = 50.0 needs n_max > 85.4, got n_max = 40"]
        assert list(tmp_path.iterdir()) == []

    def test_order_key(self):
        assert parse_config('{"n": 2, "lambda_eg": 0.02}').order == 1
        assert parse_config('{"n": 2, "lambda_eg": 0.02, "order": 2}').order == 2
        with pytest.raises(ConfigError) as err:
            parse_config('{"n": 2, "lambda_eg": 0.02, "order": 3, "dt": 0}')
        assert len(err.value.problems) == 2
        assert "key 'order' must be one of (1, 2), got 3" in str(err.value)

    def test_derived_output_paths(self):
        config = parse_config('{"n": 1, "lambda_eg": 0.01, "csv_path": "out/run.csv"}')
        assert config.rwa_csv_path == "out/run_rwa.csv"
        assert config.manifest_path == "out/run.manifest.json"
        # explicit paths stand; null ones are derived
        config = parse_config(json.dumps(
            {"n": 1, "lambda_eg": 0.01, "rwa_csv_path": "s.csv", "manifest_path": None}
        ))
        assert config.rwa_csv_path == "s.csv"
        assert config.manifest_path == "trajectory.manifest.json"
        config = parse_config('{"n": 1, "lambda_eg": 0.01, "manifest_path": "m.json"}')
        assert config.manifest_path == "m.json"

    @pytest.mark.parametrize("csv_path, rwa_csv_path, manifest_path", [
        ("run.csv", "run_rwa.csv", "run.manifest.json"),
        ("trajectory", "trajectory_rwa", "trajectory.manifest.json"),
        ("a.tar.gz", "a.tar_rwa.gz", "a.tar.manifest.json"),
        ("out.d/run", "out.d/run_rwa", "out.d/run.manifest.json"),
        ("./run", "./run_rwa", "./run.manifest.json"),
        ("../x/run", "../x/run_rwa", "../x/run.manifest.json"),
        (".hidden", ".hidden_rwa", ".hidden.manifest.json"),
    ])
    def test_names_derive_from_the_file_name(self, csv_path, rwa_csv_path, manifest_path):
        # a dot in a directory name is not an extension
        config = parse_config(json.dumps({"n": 1, "lambda_eg": 0.01, "csv_path": csv_path}))
        assert (config.rwa_csv_path, config.manifest_path) == (rwa_csv_path, manifest_path)

    @pytest.mark.parametrize("text, problem", [
        ('{"n": 2}', "missing key 'lambda_eg'"),
        ('{"n": 2, "lambda_eg": "0.02"}', "key 'lambda_eg' must be a number, got '0.02'"),
        ('{"n": 2, "lambda_eg": 0.02, "lambda_g": true}', "key 'lambda_g' must be a number"),
        ('{"n": 2, "lambda_eg": 0.02, "n_max": 10.5}', "key 'n_max' must be an integer"),
        ('{"n": 2, "lambda_eg": NaN}', "key 'lambda_eg' must be finite, got nan"),
        ('{"n": 2, "lambda_eg": 0.02, "t_end": Infinity}', "key 't_end' must be finite"),
        ('[{"n": 2, "lambda_eg": 0.02}]', "config must be a JSON object"),
        ('{"n": 2, "lambda_eg": 0.02, "initial_kind": "thermal"}', "key 'initial_kind'"),
        ('{"n": 2, "lambda_eg": 0.02, "propagators": []}', "key 'propagators'"),
        ('{"n": 2, "lambda_eg": 0.02, "propagators": ["exact"]}', "key 'propagators'"),
        ('{"n": 2, "lambda_eg": 0.02, "propagators": "rwa"}', "key 'propagators'"),
        ('{"n": 2, "lambda_eg": 0.02, "csv_path": ""}', "key 'csv_path' must be a nonempty"),
        ('{"n": 2, "lambda_eg": 0.02, "rwa_csv_path": 3}', "key 'rwa_csv_path' must be"),
        ('{"n": 2, "lambda_eg": 0.02, "spectrum_path": null}', "key 'spectrum_path' must be"),
    ], ids=[
        "missing", "string", "bool", "non-integer", "nan", "infinity", "array",
        "initial-kind", "propagators-empty", "propagators-unknown", "propagators-not-list",
        "path-empty", "path-number", "path-null",
    ])
    def test_problem_names_its_key(self, text, problem):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        (only,) = err.value.problems
        assert problem in only

    def test_omega_sets_the_units(self, tmp_path):
        # couplings, times and steps are in units of omega: a run at omega = 2
        # or 3 is the omega = 1 run on a rescaled clock, its energies rescaled
        runs = {}
        for omega in (1.0, 2.0, 3.0):
            config = parse_config(json.dumps({
                **QUICK, "omega": omega, "initial_kind": "ground-coherent",
                "mean_photons": 1.0, "n_max": 20,
            }))
            out = tmp_path / str(omega)
            out.mkdir()
            runs[omega], _ = run_scenario(config, output_dir=str(out))
        base = runs[1.0]
        for omega in (2.0, 3.0):
            traj = runs[omega]
            periods = traj.times * omega / (2.0 * math.pi)
            assert np.max(np.abs(periods - base.times / (2.0 * math.pi))) < 1e-12
            assert np.max(np.abs(traj.inversion - base.inversion)) < 1e-12
            assert np.max(np.abs(traj.photon_dist - base.photon_dist)) < 1e-12
            scaled = traj.energy / omega
            assert np.max(np.abs(scaled - base.energy) / np.abs(base.energy)) < 1e-12


def make_tiny_trajectory(n_max=3):
    dist = np.array([[0.5, 0.5, 0.0]])
    return Trajectory(
        times=np.array([2.0 * math.pi]),
        inversion=np.array([0.25]),
        photon_dist=dist,
        norm=np.array([1.0]),
        energy=np.array([1.5]),
    )


def reference_csv(traj, omega):
    """The CSV format rendered value by value: the byte oracle for emit_csv."""
    period = 2.0 * math.pi / omega
    n_max = traj.photon_dist.shape[1]
    lines = ["t_periods,W,norm,energy," + ",".join(f"P{i}" for i in range(n_max))]
    for i in range(len(traj)):
        row = [traj.times[i] / period, traj.inversion[i], traj.norm[i], traj.energy[i]]
        lines.append(",".join(format(float(x), ".17g") for x in [*row, *traj.photon_dist[i]]))
    return "\n".join(lines) + "\n"


CSV_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, math.nan, math.inf, 3.0, -17.0, 0.1]),
)


@st.composite
def trajectories(draw):
    n_samples = draw(st.integers(min_value=1, max_value=4))
    n_max = draw(st.integers(min_value=1, max_value=5))

    def column(size):
        return np.array(draw(st.lists(CSV_VALUES, min_size=size, max_size=size)))

    return Trajectory(
        times=column(n_samples),
        inversion=column(n_samples),
        photon_dist=column(n_samples * n_max).reshape(n_samples, n_max),
        norm=column(n_samples),
        energy=column(n_samples),
    )


def readme_config_keys():
    """Backticked keys in the first column of README's config schema table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Config schema\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("|")]
    return {key for row in rows for key in re.findall(r"`(\w+)`", row)}


def docstring_config_keys():
    """Keys in the first column of the table in the mprabi.config docstring."""
    lines = config_module.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("====")]
    width = len(lines[rules[0]].split()[0])
    rows = lines[rules[1] + 1 : rules[2]]
    return {key for row in rows for key in re.findall(r"\w+", row[:width])}


class TestConfigDocs:
    # every ScenarioConfig field is documented, and no table lists a key
    # the dataclass lacks
    FIELDS = {f.name for f in fields(ScenarioConfig)}

    def test_readme_table_matches_fields(self):
        assert readme_config_keys() == self.FIELDS

    def test_docstring_table_matches_fields(self):
        assert docstring_config_keys() == self.FIELDS


class TestEmitCsv:
    def test_single_sample_is_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(make_tiny_trajectory(), str(path), omega=1.0)
        lines = path.read_text().split("\n")
        assert lines[0] == "t_periods,W,norm,energy,P0,P1,P2"
        assert len(lines) == 3 and lines[2] == ""

    def test_lf_newlines_only(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv(make_tiny_trajectory(), str(path), omega=1.0)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        dist = rng.uniform(size=(4, 5))
        traj = Trajectory(
            times=rng.uniform(0, 100, size=4),
            inversion=rng.uniform(-1, 1, size=4),
            photon_dist=dist,
            norm=dist.sum(axis=1),
            energy=rng.normal(size=4),
        )
        path = tmp_path / "rt.csv"
        emit_csv(traj, str(path), omega=1.0)
        rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
        parsed = np.array([[float(x) for x in row] for row in rows])
        assert np.array_equal(parsed[:, 0], traj.times / (2.0 * math.pi))
        assert np.array_equal(parsed[:, 1], traj.inversion)
        assert np.array_equal(parsed[:, 2], traj.norm)
        assert np.array_equal(parsed[:, 3], traj.energy)
        assert np.array_equal(parsed[:, 4:], traj.photon_dist)

    def test_row_sums_match_norm_column(self, tmp_path):
        config = parse_config(json.dumps(QUICK))
        traj, _ = run_scenario(config, output_dir=str(tmp_path))
        text = (tmp_path / "trajectory.csv").read_text()
        for line in text.strip().split("\n")[1:]:
            vals = [float(x) for x in line.split(",")]
            assert abs(sum(vals[4:]) - vals[2]) < 1e-8

    def test_atomic_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # 1000 rows of 24 values make five kernel blocks; the first (~100 kB)
        # passes the 8 KiB write buffer, so the failure before the second comes
        # after bytes have reached the temp file
        rng = np.random.default_rng(3)
        dist = rng.uniform(size=(1000, 20))
        traj = Trajectory(
            times=rng.uniform(0, 100, size=1000),
            inversion=rng.uniform(-1, 1, size=1000),
            photon_dist=dist,
            norm=dist.sum(axis=1),
            energy=rng.normal(size=1000),
        )
        blocks = runner._csv_blocks
        temp_sizes = []

        def flaky(traj, omega):
            for i, chunk in enumerate(blocks(traj, omega)):
                if i == 2:
                    temp_sizes.extend(p.stat().st_size for p in tmp_path.iterdir())
                    raise RuntimeError("disk gremlin")
                yield chunk

        monkeypatch.setattr(runner, "_csv_blocks", flaky)
        path = tmp_path / "partial.csv"
        with pytest.raises(RuntimeError, match="disk gremlin"):
            emit_csv(traj, str(path), omega=1.0)
        assert len(temp_sizes) == 1 and temp_sizes[0] > 0
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(traj=trajectories(), omega=st.sampled_from([1.0, 0.7, 3.0]))
    @example(
        traj=Trajectory(
            times=np.array([-0.0, 5e-324]),
            inversion=np.array([1e300, math.nan]),
            photon_dist=np.array([[3.0, -math.inf], [math.inf, 0.1]]),
            norm=np.array([2.0, -17.0]),
            energy=np.array([math.nan, 1e-310]),
        ),
        omega=1.0,
    )
    def test_bytes_match_per_value_rendering(self, traj, omega):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "out.csv")
            emit_csv(traj, path, omega=omega)
            with open(path, "rb") as handle:
                assert handle.read() == reference_csv(traj, omega).encode("utf-8")


def values_trajectory(values, n_max=16):
    """A trajectory whose CSV rows hold ``values`` in order, the last row
    padded with zeros; emitted with omega = 2 pi, so that t_periods holds the
    times unchanged."""
    n_cols = 4 + n_max
    grid = np.zeros(-(-len(values) // n_cols) * n_cols)
    grid[: len(values)] = values
    grid = grid.reshape(-1, n_cols)
    return Trajectory(
        times=grid[:, 0].copy(),
        inversion=grid[:, 1].copy(),
        photon_dist=grid[:, 4:].copy(),
        norm=grid[:, 2].copy(),
        energy=grid[:, 3].copy(),
    )


def rendering_mismatches(values, directory):
    """Lines where emit_csv differs from the per-value oracle (first three)."""
    traj = values_trajectory(np.asarray(values, dtype=float))
    path = os.path.join(directory, "kernel.csv")
    emit_csv(traj, path, omega=2.0 * math.pi)
    with open(path, "rb") as handle:
        got = handle.read().decode("ascii").split("\n")
    want = reference_csv(traj, 2.0 * math.pi).split("\n")
    assert len(got) == len(want)
    return [(g, w) for g, w in zip(got, want) if g != w][:3]


def with_negatives(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


class TestCsvKernel:
    """emit_csv's vectorized renderer against the per-value '%.17g' oracle."""

    def test_random_bit_patterns(self, tmp_path):
        # every exponent, sign, nan payload and infinity; 200k values make
        # many kernel blocks
        bits = np.random.default_rng(7).integers(0, 2**64, size=200_000, dtype=np.uint64)
        with np.errstate(invalid="ignore"):  # signaling NaNs, divided by the period
            assert rendering_mismatches(bits.view(np.float64), tmp_path) == []

    def test_signed_zeros(self, tmp_path):
        values = [0.0, -0.0, 1.0, -0.0, 0.0, 5e-324, -0.0, -1e300, 0.0, 1e-5]
        assert rendering_mismatches(values, tmp_path) == []

    def test_subnormals(self, tmp_path):
        mantissas = np.random.default_rng(11).integers(1, 2**52, size=5000, dtype=np.uint64)
        edges = [5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308]
        values = np.concatenate([mantissas.view(np.float64), edges])
        values = np.concatenate([values, np.nextafter(values, np.inf)])
        assert rendering_mismatches(with_negatives(values), tmp_path) == []

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
        values = np.concatenate(
            [powers, np.nextafter(powers, -np.inf), np.nextafter(powers, np.inf)]
        )
        assert rendering_mismatches(with_negatives(values), tmp_path) == []

    def test_notation_and_digit_count_boundaries(self, tmp_path):
        # 1e16 and 1e17 bound the 17-digit integers and fixed notation; 1e-4
        # and 1e-5 bound fixed notation from below
        centres = [1e16, 1e17, 1e-4, 1e-5, 9007199254740992.0, 1.0, 0.1]
        values = []
        for centre in centres:
            below = above = centre
            for _ in range(40):
                below = math.nextafter(below, 0.0)
                above = math.nextafter(above, math.inf)
                values += [below, above]
        values += [9999999999999998.0, 99999999999999984.0, 123456789012345678.0]
        assert rendering_mismatches(with_negatives([*centres, *values]), tmp_path) == []

    def test_ties_at_the_seventeenth_digit(self, tmp_path):
        # odd multiples of 2^-(17-d) in [10^d, 10^(d+1)) have exactly 18
        # significant digits, the last a 5: '%.17g' rounds them half to even
        rng = np.random.default_rng(5)
        values = []
        for d in range(-8, 16):
            j = 17 - d
            lo = math.ceil(10.0**d * 2**j)
            hi = min(math.floor(10.0 ** (d + 1) * 2**j), 2**53)
            if hi <= lo:
                continue
            picks = rng.integers(lo, hi, size=40).tolist() + [lo, hi - 1]
            values += [math.ldexp(i | 1, -j) for i in picks if (i | 1) < hi]
        for x in values:
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        assert len(values) > 500
        assert rendering_mismatches(with_negatives(values), tmp_path) == []


class TestEmitSpectrum:
    def test_jc_sqrt_scaling_in_file(self, tmp_path):
        params = ModelParams(omega=1.0, omega0=1.0, lambda_eg=0.02)
        path = tmp_path / "spec.json"
        emit_spectrum(params, 1, range(1, 6), str(path))
        payload = json.loads(path.read_text())
        for rec in payload["manifolds"]:
            assert rec["Omega"] == pytest.approx(0.04 * math.sqrt(rec["n_manifold"]), rel=1e-10)

    def test_splitting_recorded(self, tmp_path):
        omega0 = resonant_omega0(2, omega=1.0, lambda_e=0.1)
        params = ModelParams(omega=1.0, omega0=omega0, lambda_e=0.1, lambda_eg=0.02)
        path = tmp_path / "spec.json"
        emit_spectrum(params, 2, range(2, 5), str(path))
        payload = json.loads(path.read_text())
        for rec in payload["manifolds"]:
            assert rec["E_plus"] - rec["E_minus"] == pytest.approx(2 * abs(rec["V"]), abs=1e-12)

    def test_empty_range_valid_document(self, tmp_path):
        params = ModelParams(omega=1.0, omega0=2.0, lambda_eg=0.02)
        path = tmp_path / "empty.json"
        emit_spectrum(params, 2, [], str(path))
        payload = json.loads(path.read_text())
        assert payload["manifolds"] == []


class TestRunScenario:
    def test_deterministic_byte_identical_csv(self, tmp_path):
        config = parse_config(json.dumps(QUICK))
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        run_scenario(config, output_dir=str(dir_a))
        run_scenario(config, output_dir=str(dir_b))
        assert (dir_a / "trajectory.csv").read_bytes() == (dir_b / "trajectory.csv").read_bytes()

    def test_manifest_reconstructs_run(self, tmp_path):
        config = parse_config(json.dumps(QUICK))
        _, manifest = run_scenario(config, output_dir=str(tmp_path))
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert stored["config"]["omega0"] == pytest.approx(2.01)
        assert stored["config"]["n_max"] == 12
        assert stored["derived"]["delta_n"] == pytest.approx(0.0, abs=1e-12)
        assert stored["derived"]["Omega_leading"] > 0
        assert stored["validity"]["norm_ok"] is True
        assert stored["outputs"]["csv"].endswith("trajectory.csv")
        assert stored["code_version"] == manifest["code_version"]
        assert stored["status"] == "ok" and stored["error"] is None
        # timings are checked for presence and type only, never for value
        assert sorted(stored["timings"]) == sorted(runner.STAGES)
        assert all(type(t) is float and t >= 0.0 for t in stored["timings"].values())

    def test_returns_the_manifest_it_wrote(self, tmp_path):
        config = parse_config(json.dumps({**QUICK, "propagators": ["numeric", "rwa"]}))
        _, manifest = run_scenario(config, output_dir=str(tmp_path))
        assert json.loads((tmp_path / "trajectory.manifest.json").read_text()) == manifest

    def test_manifest_reports_pruned_weight_beside_its_bound(self, tmp_path):
        # a vacuum start leaves eigenbasis columns empty: each trajectory's
        # pruned weight w is written with the bound 2 sqrt(w) + w it sets
        config = parse_config(json.dumps(
            {**QUICK, "n_max": 40, "propagators": ["numeric", "rwa"]}
        ))
        run_scenario(config, output_dir=str(tmp_path))
        pruned = json.loads((tmp_path / "trajectory.manifest.json").read_text())["validity"][
            "pruned"
        ]
        assert sorted(pruned) == ["numeric", "rwa"]
        for entry in pruned.values():
            w = entry["weight"]
            assert 0.0 < w <= 80 * dynamics._PRUNE_TOL
            assert entry["observable_bound"] == 2.0 * math.sqrt(w) + w

    def test_both_propagators_emit_files(self, tmp_path):
        config = parse_config(json.dumps({**QUICK, "propagators": ["numeric", "rwa"]}))
        run_scenario(config, output_dir=str(tmp_path))
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "trajectory_rwa.csv").exists()

    def test_files_get_the_umask_mode(self, tmp_path):
        # CSVs, manifest and spectrum JSON get the mode open(path, "w") gives
        config = parse_config(json.dumps({**QUICK, "propagators": ["numeric", "rwa"]}))
        params, n = runner.resolve_params(config)
        for umask, mode in ((0o022, 0o644), (0o077, 0o600), (0o002, 0o664)):
            out = tmp_path / oct(umask)
            out.mkdir()
            old = os.umask(umask)
            try:
                _, manifest = run_scenario(config, output_dir=str(out))
                emit_spectrum(params, n, range(2, 4), str(out / "spectrum.json"))
            finally:
                os.umask(old)
            files = sorted(out.iterdir())
            assert len(files) == 4 == len(manifest["outputs"]) + 1
            assert {path.stat().st_mode & 0o777 for path in files} == {mode}

    def test_unwritable_output_rejected_before_compute(self, tmp_path):
        config = parse_config(json.dumps({**QUICK, "csv_path": "no/such/dir/run.csv"}))
        with pytest.raises(ConfigError, match="does not exist"):
            run_scenario(config, output_dir=str(tmp_path))

    def test_truncation_failure_raises_validity_error(self, tmp_path):
        # five photon levels cannot hold a spreading state: flagged invalid
        config = parse_config(json.dumps({**QUICK, "n_max": 5, "t_end": 1.0}))
        with pytest.raises(runner.ValidityError):
            run_scenario(config, output_dir=str(tmp_path))
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert stored["validity"]["truncation_ok"] is False
        assert stored["status"] == "failed"
        assert stored["error"].startswith("run finished but failed validity checks")

    def test_secular_validity_warnings_fold_into_one_line(self, tmp_path):
        # at lambda_eg = 0.15 the couplings of manifolds 8..11 reach 0.1 omega
        config = parse_config(json.dumps({**QUICK, "lambda_eg": 0.15, "propagators": ["rwa"]}))
        run_scenario(config, output_dir=str(tmp_path))
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        lines = [w for w in stored["validity"]["warnings"] if w.startswith("RWAValidityWarning")]
        assert len(lines) == 1
        assert lines[0].startswith(
            "RWAValidityWarning: 4 manifolds N = 8..11 have |V_N(2)|/omega up to 0.153"
        )


    def test_outputs_planned_once(self, tmp_path):
        # the manifest lists exactly the files the plan resolved and checked
        config = parse_config(json.dumps({**QUICK, "propagators": ["rwa", "numeric"]}))
        planned = runner.plan_run(config, str(tmp_path)).outputs
        _, manifest = run_scenario(config, output_dir=str(tmp_path))
        assert manifest["outputs"] == planned
        assert sorted(planned) == ["csv", "manifest", "rwa_csv"]
        assert all(os.path.exists(path) for path in planned.values())

    def test_explicit_omega0_warning_reaches_manifest(self, tmp_path):
        # omega0 = 2.3 resolves to n = 2 with delta_2 = 2.3 - 0.01 - 2 = 0.29;
        # the detuning warning is raised while the parameters resolve
        payload = {key: val for key, val in QUICK.items() if key != "n"}
        config = parse_config(json.dumps({**payload, "omega0": 2.3}))
        run_scenario(config, output_dir=str(tmp_path))
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert stored["config"]["n"] == 2
        assert stored["derived"]["delta_n"] == pytest.approx(0.29, abs=1e-12)
        assert stored["validity"]["warnings"] == [
            "RWAValidityWarning: detuning |delta_2| = 0.29 is not small against "
            "omega = 1; secular results are unreliable"
        ]

    def test_one_secular_basis_per_run(self, tmp_path, monkeypatch):
        # a coherent start costs one displacement; the secular basis two, built
        # once by the plan and expanded by evolve_rwa as it stands
        calls = []

        def counted(beta, space):
            calls.append(beta)
            return displacement_matrix(beta, space)

        monkeypatch.setattr(dynamics, "displacement_matrix", counted)
        monkeypatch.setattr(rwa, "displacement_matrix", counted)
        config = parse_config(json.dumps({
            **QUICK, "initial_kind": "ground-coherent", "mean_photons": 1.0, "n_max": 30,
            "propagators": ["numeric", "rwa"],
        }))
        run_scenario(config, output_dir=str(tmp_path))
        assert len(calls) == 3

    def test_every_trajectory_norm_checked(self, tmp_path, monkeypatch):
        # a secular trajectory off by 1e-5 fails the run beside a clean numeric one
        def drifted(*args, **kwargs):
            traj = evolve_rwa(*args, **kwargs)
            traj.norm = traj.norm + 1e-5
            return traj

        monkeypatch.setattr(runner, "evolve_rwa", drifted)
        config = parse_config(json.dumps({**QUICK, "propagators": ["numeric", "rwa"]}))
        with pytest.raises(runner.ValidityError, match="norm_ok=False"):
            run_scenario(config, output_dir=str(tmp_path))
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert stored["validity"]["norm_ok"] is False
        assert stored["validity"]["truncation_ok"] is True


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = cli.main(["run", str(path), "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert "manifest" in capsys.readouterr().out

    def test_run_prints_every_file_it_wrote(self, tmp_path, capsys):
        path = write_config(tmp_path, propagators=["rwa", "numeric"])
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out == (
            f"wrote {tmp_path / 'trajectory.csv'}\n"
            f"wrote {tmp_path / 'trajectory_rwa.csv'}\n"
            f"manifest {tmp_path / 'trajectory.manifest.json'} (21 samples)\n"
        )

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("paths, problem", [
        ({"csv_path": "same.csv", "rwa_csv_path": "same.csv"},
         "keys 'csv_path' and 'rwa_csv_path' resolve to the same file {out}/same.csv"),
        ({"csv_path": "x.json", "manifest_path": "x.json"},
         "keys 'manifest_path' and 'csv_path' resolve to the same file {out}/x.json"),
        ({"csv_path": "a.csv", "rwa_csv_path": "./a.csv", "manifest_path": "sub/../a.csv"},
         "keys 'manifest_path' and 'csv_path' and 'rwa_csv_path' resolve to the same file "
         "{out}/a.csv"),
        ({"csv_path": "sub"}, "output path is a directory: {out}/sub"),
    ], ids=["csv-rwa", "csv-manifest", "all-three", "directory"])
    def test_unusable_output_paths_are_config_errors(
        self, tmp_path, capsys, command, paths, problem
    ):
        # outputs that would overwrite each other, or a directory, fail before
        # any compute and write nothing
        path = write_config(tmp_path, propagators=["numeric", "rwa"], **paths)
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"  - {problem.format(out=out)}\n" in err
        assert list(out.iterdir()) == [out / "sub"]
        assert list((out / "sub").iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("extra, flags, problem", [
        (', "n_max": 1' + "0" * 5000, [], "key 'n_max' must be an integer, got inf"),
        (', "n_max": 1' + "0" * 400, [], "key 'n_max' must be an integer, got inf"),
        (', "t_end": 1' + "0" * 400, [], "key 't_end' must be finite, got inf"),
        ("", ["--n-max", "1" + "0" * 400], "key 'n_max' must be an integer, got inf"),
    ], ids=["json-past-int-digit-limit", "json-past-float-range", "float-key", "flag"])
    def test_oversized_integer_is_config_error(
        self, tmp_path, capsys, command, extra, flags, problem
    ):
        # an integer beyond the float range reads as an infinity, as 1e400 does
        path = tmp_path / "big.json"
        path.write_text(json.dumps(QUICK)[:-1] + extra + "}", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"configuration error:\n  - {problem}\n"
        assert list(out.iterdir()) == []

    def test_spectrum_path_that_is_a_directory(self, tmp_path, capsys, monkeypatch):
        def no_compute(*args, **kwargs):
            raise AssertionError("spectrum computed")

        monkeypatch.setattr(runner, "spectrum_records", no_compute)
        path = write_config(tmp_path, spectrum_path="taken")
        (tmp_path / "taken").mkdir()
        assert cli.main(["spectrum", str(path), "--output-dir", str(tmp_path)]) == 1
        assert f"output path is a directory: {tmp_path / 'taken'}" in capsys.readouterr().err
        assert list((tmp_path / "taken").iterdir()) == []

    def test_validate_checks_spectrum_path(self, tmp_path, capsys):
        # validate runs spectrum's output check as well as run's
        out = tmp_path / "d"
        (out / "spectrum.json").mkdir(parents=True)
        path = REPO / "configs" / "two_photon_vacuum.json"
        assert cli.main(["validate", str(path), "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"output path is a directory: {out / 'spectrum.json'}" in captured.err
        assert list(out.iterdir()) == [out / "spectrum.json"]
        assert list((out / "spectrum.json").iterdir()) == []

    def test_validate_lists_run_and_spectrum_problems_at_once(self, tmp_path, capsys):
        # a bad csv_path does not hide the directory at spectrum.json: one
        # pass of validate reports both, and writes nothing
        out = tmp_path / "d"
        (out / "spectrum.json").mkdir(parents=True)
        path = write_config(tmp_path, csv_path="no/such/x.csv")
        assert cli.main(["validate", str(path), "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"  - output directory does not exist: {out / 'no' / 'such'}\n" in captured.err
        assert f"  - output path is a directory: {out / 'spectrum.json'}\n" in captured.err
        assert list(out.iterdir()) == [out / "spectrum.json"]
        assert list((out / "spectrum.json").iterdir()) == []

    def test_spectrum_needs_no_initial_state(self, tmp_path):
        # --n-max 30 cannot hold the config's coherent start of mean 20, which
        # run and validate reject; the spectrum export builds no state, so it
        # exits 0 and writes the same file as without the override
        path = REPO / "configs" / "collapse_revival_n2.json"
        spectra = []
        for name, extra in (("small", ["--n-max", "30"]), ("default", [])):
            out = tmp_path / name
            out.mkdir()
            assert cli.main(["spectrum", str(path), "--output-dir", str(out), *extra]) == 0
            spectra.append((out / "spectrum.json").read_bytes())
        assert spectra[0] == spectra[1]

    def test_omega0_config_writes_one_detuning(self, tmp_path):
        # omega0 = 1.96 gives omega_eg = 1.95, so n is the nearest integer 2;
        # the manifest and the spectrum export write the detuning
        # omega_eg - n omega bit for bit
        path = write_config(tmp_path, n=None, omega0=1.96)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
        code = cli.main(
            ["spectrum", str(path), "--output-dir", str(tmp_path), "--manifold-max", "5"]
        )
        assert code == 0
        params, n = runner.resolve_params(parse_config(path.read_text()))
        delta_n = rwa.omega_eg(params) - n * params.omega
        assert n == 2 and delta_n == pytest.approx(-0.05, abs=1e-12)
        manifest = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        spectrum = json.loads((tmp_path / "spectrum.json").read_text())
        assert manifest["config"]["n"] == 2
        assert manifest["derived"]["delta_n"] == delta_n
        assert [rec["delta_n"] for rec in spectrum["manifolds"]] == [delta_n] * 4

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"lambda_eg": 0.02}', encoding="utf-8")
        code = cli.main(["run", str(path), "--output-dir", str(tmp_path)])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "ghost.json")]) == 1

    def test_numeric_validity_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, n_max=5, t_end=1.0)
        code = cli.main(["run", str(path), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "validity" in capsys.readouterr().err

    def test_validate_subcommand(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["validate", str(path), "--output-dir", str(tmp_path)]) == 0

    def test_spectrum_subcommand(self, tmp_path):
        path = write_config(tmp_path)
        code = cli.main(
            ["spectrum", str(path), "--output-dir", str(tmp_path), "--manifold-max", "5"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert [rec["n_manifold"] for rec in payload["manifolds"]] == [2, 3, 4, 5]

    def test_spectrum_subcommand_honours_order(self, tmp_path):
        # an order-2 config exports the shifted energies, not first-order ones
        path = write_config(tmp_path, order=2)
        code = cli.main(
            ["spectrum", str(path), "--output-dir", str(tmp_path), "--manifold-max", "5"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        params, n = runner.resolve_params(parse_config(path.read_text()))
        assert payload["order"] == 2
        for order, same in ((2, True), (1, False)):
            expect = spectrum_records(params, n, range(2, 6), order=order)["manifolds"]
            assert (payload["manifolds"] == expect) is same

    def test_overrides_change_run(self, tmp_path):
        path = write_config(tmp_path)
        code = cli.main(
            ["run", str(path), "--output-dir", str(tmp_path),
             "--t-end", "1.0", "--n-max", "10", "--dt", "0.004"]
        )
        assert code == 0
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert stored["config"]["t_end_periods"] == 1.0
        assert stored["config"]["n_max"] == 10
        assert stored["config"]["dt_periods"] == 0.004

    def test_norm_drift_hint_in_periods_carries_the_run(self, tmp_path, capsys):
        # --dt and --t-end are in periods, so the abort names its time and
        # hinted step in periods too: fed back as --dt, the hint must pass
        path = Path(__file__).resolve().parents[1] / "configs" / "collapse_revival_n2.json"
        args = ["run", str(path), "--output-dir", str(tmp_path), "--t-end", "20"]
        assert cli.main([*args, "--dt", "0.01"]) == 2
        err = capsys.readouterr().err
        assert "at t = 10 periods" in err
        hinted = re.search(r"= (\S+) periods keeps it within bound", err).group(1)
        assert cli.main([*args, "--dt", hinted]) == 0

    def test_aborted_run_leaves_failed_manifest(self, tmp_path, capsys):
        # the numeric route aborts on norm drift: exit 2, no CSV, and a
        # manifest that says why
        path = REPO / "configs" / "collapse_revival_n2.json"
        args = ["run", str(path), "--output-dir", str(tmp_path), "--dt", "0.01", "--t-end", "20"]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        manifest = tmp_path / "collapse_revival_n2.manifest.json"
        assert list(tmp_path.iterdir()) == [manifest]
        stored = json.loads(manifest.read_text())
        assert stored["status"] == "failed"
        assert stored["error"].startswith("|psi|^2 deviated from 1")
        assert f"error: {stored['error']}" in err
        assert stored["outputs"] == {"manifest": str(manifest)}
        assert stored["validity"]["norm_ok"] is False
        assert stored["config"]["dt_periods"] == 0.01
        assert sorted(stored["timings"]) == sorted(runner.STAGES)

    def test_failed_csv_write_leaves_failed_manifest(self, tmp_path, capsys, monkeypatch):
        # the secular CSV cannot be written: exit 1 with one error line, the
        # numeric CSV stays, and the manifest lists it and says why
        emit = runner.emit_csv

        def full_disk(traj, path, **kwargs):
            if path.endswith("_rwa.csv"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            emit(traj, path, **kwargs)

        monkeypatch.setattr(runner, "emit_csv", full_disk)
        path = write_config(tmp_path, propagators=["numeric", "rwa"])
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
        text = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"error: {text}\n"
        csv, manifest = out / "trajectory.csv", out / "trajectory.manifest.json"
        assert sorted(out.iterdir()) == [csv, manifest]
        stored = json.loads(manifest.read_text())
        assert (stored["status"], stored["error"]) == ("failed", text)
        assert stored["outputs"] == {"manifest": str(manifest), "csv": str(csv)}

    def test_failed_manifest_write_raises_the_run_error(self, tmp_path, monkeypatch):
        # with the manifest unwritable too, the CSV's error is the one raised
        def fail(code):
            def raiser(*args, **kwargs):
                raise OSError(code, os.strerror(code))
            return raiser

        monkeypatch.setattr(runner, "emit_csv", fail(errno.ENOSPC))
        monkeypatch.setattr(runner, "_atomic_write", fail(errno.EACCES))
        config = parse_config(json.dumps(QUICK))
        with pytest.raises(OSError) as info:
            run_scenario(config, output_dir=str(tmp_path))
        assert info.value.errno == errno.ENOSPC

    def test_run_imports_no_test_dependency(self, tmp_path):
        # numpy is the only runtime dependency: a run pulls in none of the
        # test extras
        path = write_config(tmp_path)
        script = (
            "import sys\n"
            "from mprabi import cli\n"
            f"assert cli.main(['run', {str(path)!r}, '--output-dir', {str(tmp_path)!r}]) == 0\n"
            "print(sorted({'scipy', 'sympy', 'hypothesis', 'pytest'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_missing_output_directory_reported_once(self, tmp_path, capsys):
        # the manifest and both CSVs would land in one missing directory
        missing = tmp_path / "missing"
        path = REPO / "configs" / "two_photon_vacuum.json"
        assert cli.main(["validate", str(path), "--output-dir", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.count("does not exist") == 1
        assert f"output directory does not exist: {missing}\n" in err

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_validate_shipped_config_is_silent(self, tmp_path, path):
        # validate holds the secular projection but runs no propagator, so no
        # warning of the run may reach its stderr
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "mprabi.cli", "validate", str(path), "--output-dir",
             str(tmp_path)], env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0
        assert done.stderr == ""
        assert list(tmp_path.iterdir()) == []

    def test_validate_rejects_order_three(self, tmp_path, capsys):
        path = write_config(tmp_path, order=3)
        assert cli.main(["validate", str(path), "--output-dir", str(tmp_path)]) == 1
        assert "'order'" in capsys.readouterr().err

    def test_order_two_changes_secular_csv(self, tmp_path):
        csvs = {}
        for order in (1, 2):
            path = write_config(
                tmp_path, name=f"o{order}.json", order=order, propagators=["rwa"],
                csv_path=f"o{order}.csv",
            )
            assert cli.main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
            stored = json.loads((tmp_path / f"o{order}.manifest.json").read_text())
            assert stored["config"]["order"] == order
            csvs[order] = (tmp_path / f"o{order}_rwa.csv").read_bytes()
        assert csvs[1] != csvs[2]
        assert csvs[1].count(b"\n") == csvs[2].count(b"\n")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_override_validated_with_config(self, tmp_path, capsys, command):
        # --n-max 30 is too small for the config's coherent state of mean 20;
        # the override must fail the same check a config value would
        path = Path(__file__).resolve().parents[1] / "configs" / "collapse_revival_n2.json"
        code = cli.main([command, str(path), "--output-dir", str(tmp_path), "--n-max", "30"])
        assert code == 1
        err = capsys.readouterr().err
        assert "mean_photons = 20.0 needs n_max" in err
        assert "got n_max = 30" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_fock_level_outside_truncation_is_config_error(self, tmp_path, capsys, command):
        # validate runs run's pre-compute checks: both reject the start state
        # before any file is written
        path = tmp_path / "fock.json"
        path.write_text(json.dumps(
            {"n": 2, "lambda_eg": 0.02, "lambda_e": 0.1, "n_photons": 30, "n_max": 20}
        ), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Fock level 30 outside truncation 0..19" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_start_outside_secular_basis_is_config_error(self, tmp_path, capsys, command):
        # |up, 19> at n_max 20 leans on the top level the secular basis cannot
        # represent; both commands reject it before any propagation
        path = tmp_path / "top.json"
        path.write_text(json.dumps({
            "n": 2, "lambda_eg": 0.02, "lambda_e": 0.1, "n_photons": 19, "n_max": 20,
            "t_end": 0.2, "dt": 0.0002, "sample_every": 50, "propagators": ["numeric", "rwa"],
        }), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "secular basis captures only 0.00769974 of the state" in err
        assert list(out.iterdir()) == []

    # the detuning is 0.95 omega, far outside the secular window, on purpose
    @pytest.mark.filterwarnings("ignore::mprabi.rwa.RWAValidityWarning")
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_order_two_off_resonance_is_config_error(self, tmp_path, capsys, command):
        # omega0 = 0.05 resolves to n = 1 with the n = 0 pairs 0.05 omega apart,
        # inside the window the second-order shifts refuse
        path = tmp_path / "off.json"
        path.write_text(json.dumps({
            "omega0": 0.05, "lambda_eg": 0.02, "n_max": 12, "t_end": 1.0, "dt": 0.01,
            "propagators": ["rwa"], "order": 2,
        }), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "n = 1 is not the resonance of this model" in err
        assert list(out.iterdir()) == []

    def test_validate_checks_spectrum_manifolds(self, tmp_path, capsys):
        # the manifold range spectrum would export is checked by validate too
        path = write_config(tmp_path, manifold_max=1)
        for command in ("validate", "spectrum"):
            assert cli.main([command, str(path), "--output-dir", str(tmp_path)]) == 1
            assert "manifold_max = 1 below the first manifold n = 2" in capsys.readouterr().err
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", ["validate", "spectrum"])
    def test_unallocatable_manifold_range_is_config_error(self, tmp_path, capsys, command):
        # 10**16 manifolds cannot be mapped: one problem line, no file
        path = write_config(tmp_path, manifold_max=10**16)
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:\n  - manifold_max = 10000000000000000 is too large: ")
        assert err.count("\n") == 2
        assert list(out.iterdir()) == []

    def test_spectrum_override_validated(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = cli.main(
            ["spectrum", str(path), "--output-dir", str(tmp_path), "--manifold-max", "0"]
        )
        assert code == 1
        assert "'manifold_max' must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.json").exists()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "fromenv"
        target.mkdir()
        monkeypatch.setenv(runner.OUTPUT_DIR_ENV, str(target))
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path)
        assert cli.main(["run", str(path)]) == 0
        assert (target / "trajectory.csv").exists()

    def test_run_into_a_dotted_directory(self, tmp_path, capsys):
        path = write_config(tmp_path, csv_path="out.d/run", propagators=["numeric", "rwa"])
        (tmp_path / "out.d").mkdir()
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in (tmp_path / "out.d").iterdir()) == [
            "run", "run.manifest.json", "run_rwa",
        ]

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_absolute_output_paths_stand(self, tmp_path, monkeypatch, via):
        # an output directory, from the flag or the environment, leaves
        # absolute paths as they are
        target, elsewhere = tmp_path / "abs", tmp_path / "elsewhere"
        target.mkdir()
        elsewhere.mkdir()
        names = {"csv_path": "n.csv", "rwa_csv_path": "s.csv", "manifest_path": "m.json",
                 "spectrum_path": "spec.json"}
        path = write_config(tmp_path, propagators=["numeric", "rwa"],
                            **{key: str(target / name) for key, name in names.items()})
        flags = ["--output-dir", str(elsewhere)] if via == "flag" else []
        if via == "env":
            monkeypatch.setenv(runner.OUTPUT_DIR_ENV, str(elsewhere))
        for command in ("run", "spectrum"):
            assert cli.main([command, str(path), *flags]) == 0
        assert sorted(p.name for p in target.iterdir()) == sorted(names.values())
        assert list(elsewhere.iterdir()) == []

    def test_output_dir_flag_beats_env(self, tmp_path, monkeypatch):
        from_env, from_flag = tmp_path / "env", tmp_path / "flag"
        from_env.mkdir()
        from_flag.mkdir()
        monkeypatch.setenv(runner.OUTPUT_DIR_ENV, str(from_env))
        path = write_config(tmp_path)
        assert cli.main(["run", str(path), "--output-dir", str(from_flag)]) == 0
        assert sorted(p.name for p in from_flag.iterdir()) == [
            "trajectory.csv", "trajectory.manifest.json",
        ]
        assert list(from_env.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("extra, problem", [
        ({"t_end": 1e300}, "t_end / dt = 5e+302 steps is too many: Maximum allowed size exceeded"),
        ({"t_end": 1e300, "dt": 1e-10}, "t_end / dt = inf steps is too many: "),
        ({"n_max": 10**16}, "n_max = 10000000000000000 is too large: "),
    ], ids=["grid", "step-count-overflow", "state"])
    def test_unallocatable_plan_is_config_error(self, tmp_path, capsys, command, extra, problem):
        # neither the sample grid nor the state can be mapped at these sizes;
        # each is one problem line, before any file is written
        path = write_config(tmp_path, **extra)
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error:\n  - {problem}")
        assert err.count("\n") == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["validate", str(CONFIGS[0]), "--n-max", "abc"], "invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
    ], ids=["bad-value", "no-command"])
    def test_usage_error_exit_one(self, capsys, argv, message):
        # exit 2 is kept for numerical-validity failures
        assert cli.main(argv) == 1
        assert message in capsys.readouterr().err

    def test_help_exit_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "usage: mprabi" in capsys.readouterr().out

    def test_sweep_runs_all_matching(self, tmp_path):
        write_config(tmp_path, name="s1.json")
        write_config(tmp_path, name="s2.json", csv_path="second.csv")
        code = cli.main(["sweep", str(tmp_path / "s*.json"), "--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "second.csv").exists()

    def test_sweep_reports_worst_exit_code(self, tmp_path):
        write_config(tmp_path, name="good.json")
        (tmp_path / "broken.json").write_text("{}", encoding="utf-8")
        code = cli.main(["sweep", str(tmp_path / "*.json"), "--output-dir", str(tmp_path)])
        assert code == 1

    def test_sweep_empty_glob_is_config_error(self, tmp_path):
        assert cli.main(["sweep", str(tmp_path / "none*.json")]) == 1
