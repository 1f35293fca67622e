"""Config parsing, emitters, orchestration, CLI exit codes."""

import errno
import functools
import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from decimal import Decimal
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mprabi import cli, csvtext, dynamics, runner, rwa
from mprabi import config as config_module
from mprabi.config import ConfigError, ScenarioConfig, parse_config
from mprabi.csvtext import emit_csv
from mprabi.dynamics import Trajectory, evolve_rwa
from mprabi.fockmath import _displaced_vacuum, displacement_matrix
from mprabi.model import ModelParams
from mprabi.runner import emit_spectrum, run_scenario
from mprabi.rwa import coupling_element, resonant_omega0, spectrum_records

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


def long_numeric_config(tmp_path):
    """two_photon_vacuum, numeric only, with 20000001 samples (30.4 GiB)."""
    payload = json.loads((REPO / "configs" / "two_photon_vacuum.json").read_text())
    payload.update(t_end=20000.0, sample_every=1, propagators=["numeric"])
    path = tmp_path / "long.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_capped(*argv, address_space=None):
    """``python -m mprabi.cli *argv`` in a fresh process, spawned from a small
    launcher so that the peak is the command's alone, under an address-space
    limit of ``address_space`` bytes if given: its exit code, its peak
    resident set in KiB and its stderr."""
    launcher = (
        "import resource, subprocess, sys\n"
        "if sys.argv[1] != 'None':\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)\n"
        "done = subprocess.run(sys.argv[2:], capture_output=True, text=True)\n"
        "sys.stderr.write(done.stderr)\n"
        "print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run(
        [sys.executable, "-c", launcher, str(address_space), sys.executable, "-m", "mprabi.cli",
         *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    code, peak_kib = map(int, result.stdout.split())
    return code, peak_kib, result.stderr


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
        assert config.spectrum_path == "out/run.spectrum.json"
        # explicit paths stand; null ones are derived
        config = parse_config(json.dumps({
            "n": 1, "lambda_eg": 0.01, "rwa_csv_path": "s.csv", "manifest_path": None,
            "spectrum_path": None,
        }))
        assert config.rwa_csv_path == "s.csv"
        assert config.manifest_path == "trajectory.manifest.json"
        assert config.spectrum_path == "trajectory.spectrum.json"
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
        spectrum_path = manifest_path.removesuffix(".manifest.json") + ".spectrum.json"
        assert config.spectrum_path == spectrum_path

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
        ('{"n": 2, "lambda_eg": 0.02, "csv_path": null}', "key 'csv_path' must be"),
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
        emit_csv(make_tiny_trajectory(), str(path), period=2.0 * math.pi)
        lines = path.read_text().split("\n")
        assert lines[0] == "t_periods,W,norm,energy,P0,P1,P2"
        assert len(lines) == 3 and lines[2] == ""

    def test_lf_newlines_only(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv(make_tiny_trajectory(), str(path), period=2.0 * math.pi)
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
        emit_csv(traj, str(path), period=2.0 * math.pi)
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
        csv_rows = csvtext._csv_rows
        temp_sizes = []

        def flaky(traj, period, n_p, start, stop):
            for i, chunk in enumerate(csv_rows(traj, period, n_p, start, stop)):
                if i == 1:
                    temp_sizes.extend(p.stat().st_size for p in tmp_path.iterdir())
                    raise RuntimeError("disk gremlin")
                yield chunk

        monkeypatch.setattr(csvtext, "_csv_rows", flaky)
        path = tmp_path / "partial.csv"
        with pytest.raises(RuntimeError, match="disk gremlin"):
            emit_csv(traj, str(path), period=2.0 * math.pi)
        assert len(temp_sizes) == 1 and temp_sizes[0] > 0
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_failing_unlink_raises_the_write_error(self, tmp_path, monkeypatch):
        # the temp file cannot be removed either: the write's error is the one
        # raised, and nothing appears at the path
        def stuck(path):
            raise OSError(errno.EBUSY, os.strerror(errno.EBUSY))

        monkeypatch.setattr(os, "unlink", stuck)
        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError, match="disk gremlin"):
            with csvtext._atomic_write(str(path)) as handle:
                handle.write(b"partial")
                raise RuntimeError("disk gremlin")
        assert not path.exists()
        [left] = tmp_path.iterdir()
        assert left.name.startswith(".tmp_")

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
            emit_csv(traj, path, period=2.0 * math.pi / omega)
            with open(path, "rb") as handle:
                assert handle.read() == reference_csv(traj, omega).encode("utf-8")


def values_trajectory(values, n_max=16):
    """A trajectory whose CSV rows hold ``values`` in order, the last row
    padded with zeros; emitted with period 1, so that t_periods holds the
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
    emit_csv(traj, path, period=1.0)
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


def force_split(monkeypatch, cpus):
    """Let emit_csv split any CSV over ``cpus`` usable CPUs; returns the list
    that records the row count of every worker it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(csvtext, "_RANGE_MIN_VALUES", 1)
    fork_worker = csvtext._fork_worker
    forked = []

    def counted(traj, period, n_p, start, stop, path):
        forked.append(stop - start)
        return fork_worker(traj, period, n_p, start, stop, path)

    monkeypatch.setattr(csvtext, "_fork_worker", counted)
    return forked


def edge_values(size):
    """Random bit patterns with NaN, +-inf, -0.0, subnormals and exact
    17th-digit ties among them."""
    rng = np.random.default_rng(size)
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
    ties = [math.ldexp(2**17 + 1, -17), -math.ldexp(10 * 2**16 + 1, -16)]
    edges = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308, *ties]
    values = np.resize(edges, size)
    keep = rng.uniform(size=size) < 0.5
    values[keep] = bits[keep]
    return values


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitEmit:
    """emit_csv's forked row ranges against the oracle and the sequential stream."""

    # rows per kernel block at n_max 16 (20 columns)
    BLOCK_ROWS = csvtext._CSV_BLOCK // 20

    @pytest.mark.parametrize("rows", [1, 2, 3, 2 * BLOCK_ROWS, 509],
                             ids=["one", "two", "fewer-than-workers", "block-multiple", "prime"])
    def test_bytes_match_oracle_and_sequential_stream(self, tmp_path, monkeypatch, rows):
        traj = values_trajectory(edge_values(rows * 20))
        with np.errstate(invalid="ignore"):
            sequential = tmp_path / "sequential.csv"
            emit_csv(traj, str(sequential), period=1.0)
            forked = force_split(monkeypatch, cpus=4)
            split = tmp_path / "split.csv"
            emit_csv(traj, str(split), period=1.0)
        assert len(forked) == min(4, rows) - 1
        assert sum(forked) == rows - rows // min(4, rows)
        assert split.read_bytes() == sequential.read_bytes()
        assert split.read_bytes() == reference_csv(traj, 2.0 * math.pi).encode("ascii")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sequential.csv", "split.csv"]
        assert_no_child_left()

    @pytest.mark.parametrize("omega", [1.0, 0.7, 3.0])
    def test_period_writes_the_bytes_of_omega(self, tmp_path, monkeypatch, omega):
        # the writer takes the period 2 pi / omega that a run's plan settles,
        # and writes t_periods = times / (2 pi / omega), the oracle's bytes,
        # in one process and split alike
        rng = np.random.default_rng(11)
        period = 2.0 * math.pi / omega
        traj = values_trajectory(rng.uniform(-1.0, 1.0, 300 * 20))
        traj.times = np.arange(300) * (0.01 * period)
        expected = reference_csv(traj, omega).encode("ascii")
        emit_csv(traj, str(tmp_path / "sequential.csv"), period=period)
        forked = force_split(monkeypatch, cpus=3)
        emit_csv(traj, str(tmp_path / "split.csv"), period=period)
        assert forked == [100, 100]
        assert (tmp_path / "sequential.csv").read_bytes() == expected
        assert (tmp_path / "split.csv").read_bytes() == expected
        assert_no_child_left()

    def test_two_route_run_writes_the_one_route_bytes(self, tmp_path, monkeypatch):
        forked = force_split(monkeypatch, cpus=3)
        outputs = {}
        for propagators in (["numeric", "rwa"], ["numeric"], ["rwa"]):
            out = tmp_path / "+".join(propagators)
            out.mkdir()
            config = parse_config(json.dumps({**QUICK, "propagators": propagators}))
            manifest = run_scenario(config, output_dir=str(out))[1]
            outputs.update({
                ("+".join(propagators), key): Path(file).read_bytes()
                for key, file in manifest["outputs"].items() if key != "manifest"
            })
        assert len(forked) == 8  # two workers per CSV
        for key in ("csv", "rwa_csv"):
            only = "numeric" if key == "csv" else "rwa"
            assert outputs["numeric+rwa", key] == outputs[only, key]
        assert_no_child_left()

    def test_failing_worker_fails_the_run(self, tmp_path, monkeypatch):
        # rows 10..20 of 21 fall to the worker; the kernel fails on them only
        forked = force_split(monkeypatch, cpus=2)
        format_block = csvtext._format_block

        def gremlin(values, source):
            if values[0] >= 0.95:  # the block of rows 10..20, t = 1.0 .. 2.0 periods
                raise RuntimeError("kernel gremlin")
            return format_block(values, source)

        monkeypatch.setattr(csvtext, "_format_block", gremlin)
        config = parse_config(json.dumps(QUICK))
        with pytest.raises(OSError, match="RuntimeError: kernel gremlin"):
            run_scenario(config, output_dir=str(tmp_path))
        assert forked == [11]
        manifest = tmp_path / "trajectory.manifest.json"
        assert list(tmp_path.iterdir()) == [manifest]
        stored = json.loads(manifest.read_text())
        assert stored["status"] == "failed"
        assert "rows 10..20" in stored["error"] and "kernel gremlin" in stored["error"]
        assert stored["outputs"] == {"manifest": str(manifest)}
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
    def test_signalled_worker_fails_the_emission(self, tmp_path, monkeypatch):
        # the worker of rows 300..599 renders its first block (rows 300..549)
        # into its part, then is killed by SIGKILL: its status is the error,
        # never the CSV text in its part
        force_split(monkeypatch, cpus=2)
        format_block, join = csvtext._format_block, csvtext._join
        parent = os.getpid()

        def killer(values, source):
            if os.getpid() != parent and values[0] >= 550 * 20:
                os.kill(os.getpid(), signal.SIGKILL)
            return format_block(values, source)

        part_sizes = []

        def measured(workers, out):
            # the worker's end, awaited without reaping it, then its part's size
            pid, part = workers[0][2:]
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            part_sizes.append(os.fstat(part.fileno()).st_size)
            return join(workers, out)

        monkeypatch.setattr(csvtext, "_format_block", killer)
        monkeypatch.setattr(csvtext, "_join", measured)
        path = tmp_path / "out.csv"
        traj = values_trajectory(np.arange(600 * 20, dtype=float))
        with pytest.raises(OSError) as info:
            emit_csv(traj, str(path), period=1.0)
        assert str(info.value) == f"CSV worker for rows 300..599 of {path}: exit status -9"
        assert part_sizes[0] > 0  # the rows it rendered before it was killed
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt(), OSError(errno.ENOSPC, "full")],
                             ids=["keyboard-interrupt", "os-error"])
    def test_parent_failure_reaps_every_worker(self, tmp_path, monkeypatch, interrupt):
        # the parent's own range fails while its workers render theirs
        forked = force_split(monkeypatch, cpus=3)
        format_block = csvtext._format_block
        parent = os.getpid()

        def gremlin(values, source):
            if os.getpid() == parent:
                raise interrupt
            return format_block(values, source)

        monkeypatch.setattr(csvtext, "_format_block", gremlin)
        traj = values_trajectory(edge_values(600 * 20))
        with pytest.raises(type(interrupt)):
            emit_csv(traj, str(tmp_path / "out.csv"), period=2.0 * math.pi)
        assert forked == [200, 200]
        assert list(tmp_path.iterdir()) == []
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                        reason="needs /proc/<pid>/task/<tid>/children")
    def test_worker_stops_once_its_parent_is_gone(self, tmp_path, monkeypatch):
        # a SIGKILL leaves emit_csv no chance to reap its worker; the worker
        # sees its parent change between kernel blocks and stops, instead of
        # rendering the rest of its range (40 blocks of ~50 ms each)
        force_split(monkeypatch, cpus=2)
        format_block = csvtext._format_block

        def slow(values, source):
            time.sleep(0.05)
            return format_block(values, source)

        monkeypatch.setattr(csvtext, "_format_block", slow)
        rows = 80 * (csvtext._CSV_BLOCK // 20)
        traj = values_trajectory(np.arange(rows * 20, dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork beside BLAS threads
            emitter = os.fork()
        if emitter == 0:
            try:
                emit_csv(traj, str(tmp_path / "out.csv"), period=1.0)
            finally:
                os._exit(0)
        children = Path(f"/proc/{emitter}/task/{emitter}/children")
        deadline = time.monotonic() + 30.0
        while not (listed := children.read_text().split()) and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(emitter, signal.SIGKILL)
        os.waitpid(emitter, 0)
        [worker] = listed
        stat = Path(f"/proc/{worker}/stat")
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            try:
                state = stat.read_text().rpartition(")")[2].split()[0]
            except FileNotFoundError:
                break
            if state == "Z":  # exited; its new parent reaps it when it gets to it
                break
            time.sleep(0.01)
        else:
            pytest.fail(f"worker {worker} still running 1 s after its parent was killed")

    @pytest.mark.parametrize("tail, kept", [
        ("zeros", 9), ("negative-zero", 13), ("nan", 16), ("all-zero", 0), ("none", 16),
        ("one-range", 16), ("first-range", 16),
    ])
    def test_zero_tail_matches_oracle(self, tmp_path, monkeypatch, tail, kept):
        # the P columns after the last nonzero bit pattern are not rendered
        # value by value; the whole CSV decides the tail once, so every row
        # range renders the same columns, and the sequential and the split
        # path both give the oracle's bytes
        rng = np.random.default_rng(11)
        p = rng.uniform(size=(300, 16))
        if tail == "first-range":
            p[:100, 9:] = 0.0
        elif tail != "none":
            p[200 if tail == "one-range" else 0:, 9:] = 0.0
        if tail == "negative-zero":
            p[150, 12] = -0.0
        elif tail == "nan":
            p[5, 15] = math.nan
        elif tail == "all-zero":
            p[:] = 0.0
        traj = Trajectory(
            times=np.arange(300) * 0.01, inversion=rng.uniform(-1.0, 1.0, 300),
            photon_dist=p, norm=np.ones(300), energy=rng.uniform(size=300),
        )
        expected = reference_csv(traj, 2.0 * math.pi).encode("ascii")
        format_block = csvtext._format_block
        rendered = []

        def counted(values, source):
            rendered.append(values.size)
            return format_block(values, source)

        monkeypatch.setattr(csvtext, "_format_block", counted)
        emit_csv(traj, str(tmp_path / "sequential.csv"), period=1.0)
        assert sum(rendered) == 300 * (4 + kept)
        rendered.clear()
        forked = force_split(monkeypatch, cpus=3)
        emit_csv(traj, str(tmp_path / "split.csv"), period=1.0)
        assert forked == [100, 100]
        assert sum(rendered) == 100 * (4 + kept)  # this process's range; workers count apart
        assert (tmp_path / "sequential.csv").read_bytes() == expected
        assert (tmp_path / "split.csv").read_bytes() == expected
        assert_no_child_left()

    def test_split_sized_on_the_rendered_columns(self, tmp_path, monkeypatch):
        # 1000 rows of 4 + 96 columns hold 100,000 values, two ranges' worth
        # on two CPUs; with P columns 6 and up zero throughout, 10,000 values
        # are rendered, and they take one range, with the oracle's bytes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fork_worker = csvtext._fork_worker
        forked = []

        def counted(traj, period, n_p, start, stop, path):
            forked.append(stop - start)
            return fork_worker(traj, period, n_p, start, stop, path)

        monkeypatch.setattr(csvtext, "_fork_worker", counted)
        rng = np.random.default_rng(5)
        p = np.zeros((1000, 96))
        p[:, :6] = rng.uniform(size=(1000, 6))
        traj = Trajectory(
            times=np.arange(1000) * 0.01, inversion=rng.uniform(-1.0, 1.0, 1000),
            photon_dist=p, norm=np.ones(1000), energy=rng.uniform(size=1000),
        )
        assert 1000 * (4 + 96) >= 2 * csvtext._RANGE_MIN_VALUES > 1000 * (4 + 6)
        emit_csv(traj, str(tmp_path / "tail.csv"), period=1.0)
        assert forked == []
        assert (tmp_path / "tail.csv").read_bytes() == reference_csv(traj, 2.0 * math.pi).encode()
        # the same rows with their last column rendered split in two
        p[0, -1] = 0.5
        emit_csv(traj, str(tmp_path / "full.csv"), period=1.0)
        assert forked == [500]
        assert (tmp_path / "full.csv").read_bytes() == reference_csv(traj, 2.0 * math.pi).encode()
        assert_no_child_left()

    @pytest.mark.parametrize("how", ["no-fork", "one-cpu", "other-thread", "off-main-thread"])
    def test_fallback_writes_the_sequential_bytes(self, tmp_path, monkeypatch, how):
        traj = values_trajectory(edge_values(300 * 20))
        reference = reference_csv(traj, 2.0 * math.pi).encode("ascii")
        forked = force_split(monkeypatch, cpus=1 if how == "one-cpu" else 4)
        if how == "no-fork":
            monkeypatch.delattr(os, "fork")
        path = str(tmp_path / "out.csv")
        emit = functools.partial(emit_csv, traj, path, period=1.0)
        with np.errstate(invalid="ignore"):
            if how == "off-main-thread":
                worker = threading.Thread(target=emit)
                worker.start()
                worker.join(timeout=60)
                assert not worker.is_alive()
            elif how == "other-thread":
                stop = threading.Event()
                other = threading.Thread(target=stop.wait, args=(60,))
                other.start()
                try:
                    emit()
                finally:
                    stop.set()
                    other.join(timeout=60)
            else:
                emit()
        assert forked == []
        assert (tmp_path / "out.csv").read_bytes() == reference



def send_sigint(sender):
    """SIGINT to this process, from itself or from another process, as a
    terminal or a job scheduler sends it.  The latter finds out a hold by
    signal mask: a signal the main thread blocks is then taken by another
    thread of the process (OpenBLAS's), and CPython raises it all the same."""
    if sender == "other-process":
        kill = "import os, signal, sys; os.kill(int(sys.argv[1]), signal.SIGINT)"
        subprocess.run([sys.executable, "-c", kill, str(os.getpid())], check=True)
    else:
        os.kill(os.getpid(), signal.SIGINT)


class TestInterruptWindows:
    """An interrupt right after each step of emission that creates a file or
    a process: the failed manifest lists exactly the files on disk, and no
    worker is left."""

    def interrupted_run(self, directory):
        config = parse_config(json.dumps({**QUICK, "propagators": ["numeric", "rwa"]}))
        with pytest.raises(KeyboardInterrupt):
            run_scenario(config, output_dir=str(directory))
        stored = json.loads((directory / "trajectory.manifest.json").read_text())
        assert (stored["status"], stored["error"]) == ("failed", "KeyboardInterrupt")
        assert sorted(directory.iterdir()) == sorted(Path(p) for p in stored["outputs"].values())
        assert_no_child_left()
        return stored["outputs"]

    def test_interrupt_after_the_temp_file_is_opened(self, tmp_path, monkeypatch):
        # the first CSV's temp file exists when the interrupt is raised
        real_open = os.open
        opened = []

        def interrupted(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            if not opened and os.path.basename(path).startswith(".tmp_"):
                opened.append(fd)
                raise KeyboardInterrupt
            return fd

        monkeypatch.setattr(csvtext.os, "open", interrupted)
        try:
            outputs = self.interrupted_run(tmp_path)
        finally:
            for fd in opened:
                os.close(fd)
        assert sorted(outputs) == ["manifest"]

    @pytest.mark.parametrize("sender", ["same-process", "other-process"])
    def test_interrupt_as_the_temp_file_object_is_made(self, tmp_path, monkeypatch, sender):
        # the signal arrives before the with block holds the first CSV's file
        # object: the object is closed all the same, not dropped open
        real_fdopen = os.fdopen
        made = []

        def interrupted(fd, *args, **kwargs):
            handle = real_fdopen(fd, *args, **kwargs)
            if not made:
                made.append(handle)
                send_sigint(sender)
            return handle

        monkeypatch.setattr(csvtext.os, "fdopen", interrupted)
        try:
            assert sorted(self.interrupted_run(tmp_path)) == ["manifest"]
            assert made[0].closed
        finally:
            made[0].close()

    @pytest.mark.parametrize("sender", ["same-process", "other-process"])
    def test_interrupt_after_the_csv_is_renamed(self, tmp_path, monkeypatch, sender):
        # the first CSV is at its path when the signal arrives: the manifest
        # lists it, and the run stops before the second
        real_replace = os.replace
        renamed = []

        def interrupted(src, dst, *args, **kwargs):
            real_replace(src, dst, *args, **kwargs)
            if not renamed and str(dst).endswith(".csv"):
                renamed.append(dst)
                send_sigint(sender)

        monkeypatch.setattr(csvtext.os, "replace", interrupted)
        assert sorted(self.interrupted_run(tmp_path)) == ["csv", "manifest"]
        assert renamed == [str(tmp_path / "trajectory.csv")]

    @pytest.mark.parametrize("sender", ["same-process", "other-process"])
    def test_interrupt_after_a_worker_is_forked(self, tmp_path, monkeypatch, sender):
        # the first of two workers of the first CSV exists when the signal
        # arrives: it is killed and reaped, and its part is closed
        forked = force_split(monkeypatch, cpus=3)
        real_fork = os.fork

        def interrupted():
            pid = real_fork()
            if pid:
                send_sigint(sender)
            return pid

        monkeypatch.setattr(csvtext.os, "fork", interrupted)
        assert sorted(self.interrupted_run(tmp_path)) == ["manifest"]
        assert len(forked) == 1


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

    @pytest.mark.parametrize("propagators", [["numeric"], ["rwa"], ["numeric", "rwa"]])
    def test_stages_split_the_plan(self, tmp_path, propagators):
        # the plan's two projections are stages of their own, a route that
        # does not run leaves its stages at 0, and no span is counted twice:
        # the stages, each rounded to 1 us, sum to at most elapsed_seconds
        config = parse_config(json.dumps({**QUICK, "propagators": propagators}))
        _, manifest = run_scenario(config, output_dir=str(tmp_path))
        timings = manifest["timings"]
        assert list(timings) == list(runner.STAGES) == [
            "plan", "hamiltonian", "secular_basis", "numeric", "rwa", "emit",
        ]
        for route, stage in (("numeric", "hamiltonian"), ("rwa", "secular_basis")):
            if route not in propagators:
                assert timings[route] == timings[stage] == 0.0
        assert all(type(t) is float and t >= 0.0 for t in timings.values())
        assert sum(timings.values()) <= manifest["elapsed_seconds"] + 0.5e-6 * len(timings)

    def test_plan_returns_the_times_of_its_projections(self, tmp_path):
        # the plan times each projection it makes and returns the times: one
        # stage per route planned, no other
        stages = {"numeric": "hamiltonian", "rwa": "secular_basis"}
        for propagators in (["numeric"], ["rwa"], ["numeric", "rwa"]):
            config = parse_config(json.dumps({**QUICK, "propagators": propagators}))
            plan = runner.plan_run(config, str(tmp_path))
            assert plan.projections.keys() == set(propagators)
            assert sorted(plan.timings) == sorted(stages[route] for route in propagators)
            assert all(type(t) is float and t >= 0.0 for t in plan.timings.values())

    def test_ultrastrong_secular_csv_follows_the_closed_form(self, tmp_path):
        # configs/ultrastrong_n3.json, lambda_g = lambda_e = 0.5 at order 1:
        # no start weight on strong manifolds, and its secular CSV is the
        # closed-form coherent inversion
        path = REPO / "configs" / "ultrastrong_n3.json"
        config = parse_config(path.read_text(), {"propagators": ["rwa"]})
        _, manifest = run_scenario(config, output_dir=str(tmp_path))
        assert manifest["validity"]["strong_coupling"]["weight"] == 0.0
        assert manifest["validity"]["warnings"] == []
        with open(manifest["outputs"]["rwa_csv"], encoding="ascii") as handle:
            next(handle)
            t, w = np.array([line.split(",", 2)[:2] for line in handle], dtype=float).T
        params, n = runner.resolve_params(config)
        closed = dynamics.inversion_coherent(params, n, config.mean_photons, t * 2.0 * math.pi)
        assert np.max(np.abs(w - closed)) < 1e-10

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
        config = parse_config(json.dumps({**QUICK, "n_max": 6, "t_end": 1.0}))
        with pytest.raises(runner.ValidityError):
            run_scenario(config, output_dir=str(tmp_path))
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert stored["validity"]["truncation_ok"] is False
        assert stored["status"] == "failed"
        assert stored["error"].startswith("run finished but failed validity checks")

    def test_secular_truncation_warns_in_periods(self, tmp_path):
        # the secular route breaks the top-five bound as the numeric one
        # does, and its manifest says where, in periods
        payload = {**QUICK, "n_max": 6, "t_end": 1.0, "propagators": ["rwa"]}
        config = parse_config(json.dumps(payload))
        with pytest.raises(runner.ValidityError):
            run_scenario(config, output_dir=str(tmp_path))
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert stored["validity"]["truncation_ok"] is False
        lines = [w for w in stored["validity"]["warnings"] if w.startswith("IntegratorWarning")]
        assert len(lines) == 1
        assert re.fullmatch(
            r"IntegratorWarning: top five photon levels reached \S+ population at "
            r"t = \S+ periods; raise n_max", lines[0]
        )

    def test_manifest_records_what_decides_the_bytes(self, tmp_path, monkeypatch):
        for name in runner._THREAD_ENV:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        _, manifest = run_scenario(parse_config(json.dumps(QUICK)), output_dir=str(tmp_path))
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert stored["environment"] == manifest["environment"]
        env = stored["environment"]
        assert set(env) == {"python", "numpy", "usable_cpus", "thread_env"}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        if hasattr(os, "sched_getaffinity"):
            assert env["usable_cpus"] == len(os.sched_getaffinity(0))
            assert isinstance(env["usable_cpus"], int) and env["usable_cpus"] >= 1
        else:
            assert env["usable_cpus"] is None
        assert env["thread_env"] == {"OMP_NUM_THREADS": "3"}
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        assert runner._environment()["thread_env"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "2",
        }

    def test_secular_validity_warnings_fold_into_one_line(self, tmp_path):
        # at lambda_eg = 0.15 the couplings of manifolds 8..11 reach 0.1 omega;
        # a coherent field of mean 2 holds ~1e-3 there, past COMPLETENESS_TOL
        # (and in the top five levels, so the run fails its truncation check)
        config = parse_config(json.dumps({
            **QUICK, "lambda_eg": 0.15, "propagators": ["rwa"],
            "initial_kind": "ground-coherent", "mean_photons": 2.0,
        }))
        with pytest.raises(runner.ValidityError):
            run_scenario(config, output_dir=str(tmp_path))
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        lines = [w for w in stored["validity"]["warnings"] if w.startswith("RWAValidityWarning")]
        assert len(lines) == 1
        assert lines[0].startswith(
            "RWAValidityWarning: 4 manifolds N = 8..11 have |V_N(2)|/omega up to 0.153"
        )
        weight = stored["validity"]["strong_coupling"]["weight"]
        assert weight >= dynamics.COMPLETENESS_TOL
        assert f"hold {weight:.3g} of the initial state" in lines[0]

    def test_strong_coupling_weight_beside_its_bound(self, tmp_path):
        # the vacuum start holds next to nothing on manifolds 8..11: its weight
        # is recorded beside the bound, and no warning is; a numeric-only run
        # projects nothing and records no weight
        config = parse_config(json.dumps({**QUICK, "lambda_eg": 0.15, "propagators": ["rwa"]}))
        _, manifest = run_scenario(config, output_dir=str(tmp_path))
        stored = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert stored["validity"]["strong_coupling"] == manifest["validity"]["strong_coupling"]
        strong = stored["validity"]["strong_coupling"]
        assert strong["bound"] == dynamics.COMPLETENESS_TOL
        assert 0.0 <= strong["weight"] < strong["bound"]
        assert stored["validity"]["warnings"] == []
        _, manifest = run_scenario(parse_config(json.dumps(QUICK)), output_dir=str(tmp_path))
        assert "strong_coupling" not in manifest["validity"]


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
        # a coherent start costs one displaced vacuum and no matrix; the secular
        # basis two displacements, built once by the plan and expanded by
        # evolve_rwa as it stands; the numeric eigenbasis one H and one eigh,
        # in the plan too
        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)
            return wrapper

        def planned(*args):
            plan = plan_run(*args)
            calls.append("planned")
            return plan

        plan_run = runner.plan_run
        monkeypatch.setattr(dynamics, "_displaced_vacuum", counted("vacuum", _displaced_vacuum))
        monkeypatch.setattr(rwa, "displacement_matrix", counted("D", displacement_matrix))
        monkeypatch.setattr(runner, "build_full", counted("H", runner.build_full))
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(runner, "plan_run", planned)
        config = parse_config(json.dumps({
            **QUICK, "initial_kind": "ground-coherent", "mean_photons": 1.0, "n_max": 30,
            "propagators": ["numeric", "rwa"],
        }))
        run_scenario(config, output_dir=str(tmp_path))
        assert calls.count("D") == 2 and calls.count("vacuum") == 1
        assert calls.count("H") == calls.count("eigh") == 1
        assert calls[-1] == "planned"

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


class TestRecordedWarnings:
    def test_only_the_package_categories_are_always_recorded(self):
        # so that -W error::ResourceWarning still fails a command
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(ResourceWarning, match="unclosed"):
                with runner.recorded_warnings():
                    warnings.warn("unclosed file", ResourceWarning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with runner.recorded_warnings() as lines:
                warnings.warn("top levels", dynamics.IntegratorWarning)
                warnings.warn("detuning", rwa.RWAValidityWarning)
                warnings.warn("detuning", rwa.RWAValidityWarning)
        assert lines == ["IntegratorWarning: top levels", "RWAValidityWarning: detuning"]

    def test_a_failed_block_passes_its_warnings_on(self):
        with runner.recorded_warnings() as outer:
            with pytest.raises(ConfigError):
                with runner.recorded_warnings() as inner:
                    warnings.warn("detuning", rwa.RWAValidityWarning)
                    raise ConfigError(["no output directory"])
        assert inner == outer == ["RWAValidityWarning: detuning"]


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
        # validate runs spectrum's output check as well as run's, on the
        # export name derived from csv_path
        out = tmp_path / "d"
        taken = out / "two_photon_vacuum.spectrum.json"
        taken.mkdir(parents=True)
        path = REPO / "configs" / "two_photon_vacuum.json"
        assert cli.main(["validate", str(path), "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"output path is a directory: {taken}" in captured.err
        assert list(out.iterdir()) == [taken]
        assert list(taken.iterdir()) == []

    def test_validate_lists_run_and_spectrum_problems_at_once(self, tmp_path, capsys):
        # a bad csv_path does not hide the directory at spectrum.json: one
        # pass of validate reports both, and writes nothing
        out = tmp_path / "d"
        (out / "spectrum.json").mkdir(parents=True)
        path = write_config(tmp_path, csv_path="no/such/x.csv", spectrum_path="spectrum.json")
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
            spectra.append((out / "collapse_revival_n2.spectrum.json").read_bytes())
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
        spectrum = json.loads((tmp_path / "trajectory.spectrum.json").read_text())
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
        path = write_config(tmp_path, n_max=6, t_end=1.0)
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
        payload = json.loads((tmp_path / "trajectory.spectrum.json").read_text())
        assert [rec["n_manifold"] for rec in payload["manifolds"]] == [2, 3, 4, 5]

    def test_spectrum_past_the_factorial_range_is_finite(self, tmp_path):
        # the secular ladder of manifold_max 1150 pads to 1201 levels, past
        # where the displacement matrix's factorial form was inf * 0: the export
        # held 4002 NaN tokens.  Every V matches the scalar closed form
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps(
            {"n": 2, "lambda_eg": 0.02, "lambda_e": 0.1, "manifold_max": 1150}
        ), encoding="utf-8")
        assert cli.main(["spectrum", str(path), "--output-dir", str(tmp_path)]) == 0
        text = (tmp_path / "trajectory.spectrum.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        params, n = runner.resolve_params(parse_config(path.read_text()))
        records = json.loads(text)["manifolds"]
        assert [rec["n_manifold"] for rec in records] == list(range(2, 1151))
        for rec in records:
            assert rec["V"] == pytest.approx(
                coupling_element(params, rec["n_manifold"], n), rel=0, abs=1e-12
            )

    def test_spectrum_subcommand_honours_order(self, tmp_path):
        # an order-2 config exports the shifted energies, not first-order ones
        path = write_config(tmp_path, order=2)
        code = cli.main(
            ["spectrum", str(path), "--output-dir", str(tmp_path), "--manifold-max", "5"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "trajectory.spectrum.json").read_text())
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
        # the numeric route aborts on norm drift, here a norm past the float
        # range: exit 2, no CSV, and a manifest that says why
        path = REPO / "configs" / "collapse_revival_n2.json"
        args = ["run", str(path), "--output-dir", str(tmp_path), "--dt", "0.01", "--t-end", "20"]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        manifest = tmp_path / "collapse_revival_n2.manifest.json"
        assert list(tmp_path.iterdir()) == [manifest]
        stored = json.loads(manifest.read_text())
        assert stored["status"] == "failed"
        assert stored["error"].startswith("|psi|^2 is not finite at t = 10 periods")
        assert f"error: {stored['error']}" in err
        assert stored["outputs"] == {"manifest": str(manifest)}
        assert stored["validity"]["norm_ok"] is False
        assert stored["config"]["dt_periods"] == 0.01
        assert sorted(stored["timings"]) == sorted(runner.STAGES)

    def test_huge_step_aborts_with_finite_numbers(self, tmp_path, capsys):
        # lambda_eg 1.1e77, under the 2**256 bound, puts dt E near 5e76: the
        # step factor stays finite, so step 0 keeps norm 1, and the norm that
        # overflows at the next sample is named without a non-finite number
        path = write_config(tmp_path, n=1, lambda_e=0.0, lambda_eg=1.1e77, t_end=0.5, dt=0.01,
                            sample_every=5, propagators=["numeric", "rwa"])
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["run", str(path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        stored = (out / "trajectory.manifest.json").read_text()
        assert json.loads(stored)["error"].startswith("|psi|^2 is not finite at t = 0.05 periods ")
        for text in (err, stored):
            assert not re.search(r"(?i)(^|[^A-Za-z_])-?(nan|inf|infinity)([^A-Za-z_]|$)", text)

    def test_failed_csv_write_leaves_failed_manifest(self, tmp_path, capsys, monkeypatch):
        # the secular CSV cannot be written: exit 1 with one error line, the
        # numeric CSV stays, and the manifest lists it and says why
        emit = csvtext.emit_csv

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

    def test_package_import_loads_nothing(self):
        # the package namespace is only __version__: importing it loads no
        # numpy and no module of the package, so the CLI module runs first
        script = (
            "import json, sys\n"
            "import mprabi\n"
            "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('mprabi.'))\n"
            "print(json.dumps([mprabi.__version__, loaded]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == ["0.1.0", []]

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
        # validate holds each route's projection but runs no propagator, so its
        # stderr shows the plan's warnings alone, one line each with no source
        # location: none, but for collapse_revival_n4, whose start holds
        # 1.7e-4 on strong manifolds
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "mprabi.cli", "validate", str(path), "--output-dir",
             str(tmp_path)], env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0
        if path.stem == "collapse_revival_n4":
            assert done.stderr == (
                "RWAValidityWarning: 68 manifolds N = 92..159 have |V_N(4)|/omega up to "
                "0.157, not small, and hold 0.000174 of the initial state; secular results "
                "there are unreliable\n"
            )
        else:
            assert done.stderr == ""
        assert list(tmp_path.iterdir()) == []

    def test_validate_prints_the_warnings_the_run_records(self, tmp_path):
        # the strong-coupling warning comes from the plan, so validate's
        # stderr is exactly the lines the run's manifest lists
        path = REPO / "configs" / "collapse_revival_n4.json"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "mprabi.cli", "validate", str(path), "--output-dir",
             str(tmp_path)], env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "collapse_revival_n4.manifest.json").read_text())
        lines = manifest["validity"]["warnings"]
        assert done.stderr == "".join(f"{line}\n" for line in lines)
        assert [line.split(":")[0] for line in lines] == ["RWAValidityWarning"]

    def test_run_prints_the_warnings_of_a_failed_plan(self, tmp_path, capsys):
        # the detuning warning is raised as the plan resolves the parameters;
        # a plan that fails leaves no manifest, so run prints it as validate does
        path = tmp_path / "detuned.json"
        path.write_text(json.dumps({
            "omega0": 2.3, "lambda_eg": 0.02, "n_max": 12, "t_end": 1.0, "dt": 0.01,
        }), encoding="utf-8")
        missing = tmp_path / "missing"
        stderr = {}
        for command in ("validate", "run"):
            assert cli.main([command, str(path), "--output-dir", str(missing)]) == 1
            stderr[command] = capsys.readouterr().err
        assert stderr["run"] == stderr["validate"] == (
            f"configuration error:\n  - output directory does not exist: {missing}\n"
            "RWAValidityWarning: detuning |delta_2| = 0.3 is not small against omega = 1; "
            "secular results are unreliable\n"
        )
        assert list(tmp_path.iterdir()) == [path]

    def test_numeric_run_at_strong_coupling_records_no_warning(self, tmp_path, capsys):
        # manifold 1 has |V_1(1)| = 0.15 omega, but a numeric-only run makes no
        # secular claim: validate prints nothing and the manifest lists nothing
        path = tmp_path / "strong.json"
        path.write_text(json.dumps({
            "n": 1, "lambda_eg": 0.15, "n_max": 12, "t_end": 1.0, "dt": 0.002, "sample_every": 50,
        }), encoding="utf-8")
        assert cli.main(["validate", str(path), "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, manifest = run_scenario(parse_config(path.read_text()), output_dir=str(tmp_path))
        assert manifest["derived"]["V_leading"] == pytest.approx(0.15, rel=1e-12)
        assert manifest["validity"]["warnings"] == []

    def test_spectrum_prints_its_warning_as_one_line(self, tmp_path, capsys):
        # |V_N(1)| = 0.02 sqrt(N) reaches 0.1 omega from N = 25 on: the export
        # of manifolds 1..30 prints one line for N = 25..30, with no source
        # location
        path = write_config(tmp_path, n=1, lambda_e=0.0, manifold_max=30)
        assert cli.main(["spectrum", str(path), "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == (
            "RWAValidityWarning: 6 manifolds N = 25..30 have |V_N(1)|/omega up to 0.11, "
            "not small; secular results there are unreliable\n"
        )

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("n_max", [2, 3, 5])
    def test_n_max_within_the_top_levels_rejected(self, tmp_path, capsys, command, n_max):
        # the top five photon levels hold every photon when n_max <= 5, so the
        # truncation rule would fail every run after its compute
        path = write_config(tmp_path, n_max=n_max)
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"configuration error:\n  - n_max = {n_max} must exceed the top 5 photon levels "
            "that the truncation rule watches, or every run fails it\n"
        )
        assert list(out.iterdir()) == []
        # the spectrum export builds no state and keeps taking such configs
        assert cli.main(["spectrum", str(path), "--output-dir", str(out)]) == 0

    @pytest.mark.parametrize("extra, argv, code", [
        ({}, [], 0), ({"order": 3}, [], 1), ({}, ["--dt", "0.05"], 2),
    ], ids=["ok", "config-error", "norm-drift"])
    def test_run_entry_point_exit_codes(self, tmp_path, extra, argv, code):
        # python -m mprabi.cli runs entry(), which flushes stdout and stderr
        # after main() and exits without the interpreter's teardown; its exit
        # codes and outputs are main()'s
        path = write_config(tmp_path, **extra)
        out = tmp_path / "out"
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "mprabi.cli", "run", str(path), "--output-dir", str(out),
             *argv], env=env, capture_output=True, text=True,
        )
        assert done.returncode == code, done.stderr
        files = sorted(p.name for p in out.iterdir())
        if code == 0:
            assert files == ["trajectory.csv", "trajectory.manifest.json"]
            assert done.stdout.startswith(f"wrote {out / 'trajectory.csv'}\n")
        elif code == 1:
            assert done.stderr.startswith("configuration error:")
            assert files == []
        else:
            assert "deviated from 1" in done.stderr
            assert files == ["trajectory.manifest.json"]
            assert json.loads((out / files[0]).read_text())["status"] == "failed"

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

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_order_two_off_resonance_is_config_error(self, tmp_path, capsys, command):
        # omega0 = 0.05 resolves to n = 1 with the n = 0 pairs 0.05 omega apart,
        # inside the window the second-order shifts refuse; the detuning, 0.95
        # omega, is far outside the secular window on purpose
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
        assert err.startswith(
            "configuration error:\n  - spectrum up to manifold_max = 10000000000000000: "
            "the secular ladder for |lambda_g| + |lambda_e| = 0.1 omega, "
        )
        assert err.count("\n") == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "spectrum"])
    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_unallocatable_padded_ladder_is_config_error(self, tmp_path, capsys, command, via):
        # 10**7 manifolds fit as indices, but not the (n_loc x n_loc) matrices
        # of the ladder padded past them: one problem line, no file
        if via == "config":
            path, flag = write_config(tmp_path, manifold_max=10**7), []
        else:
            path, flag = write_config(tmp_path), ["--manifold-max", str(10**7)]
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out), *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "configuration error:\n  - spectrum up to manifold_max = 10000000: "
            "the secular ladder for |lambda_g| + |lambda_e| = 0.1 omega, "
        )
        assert err.count("\n") == 2
        assert list(out.iterdir()) == []

    def test_spectrum_override_validated(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = cli.main(
            ["spectrum", str(path), "--output-dir", str(tmp_path), "--manifold-max", "0"]
        )
        assert code == 1
        assert "'manifold_max' must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.spectrum.json").exists()

    @pytest.mark.parametrize("command, lines", [
        ("run", ["a", "b"]), ("validate", ["a", "b", "c"]), ("spectrum", ["c"]),
    ])
    def test_unwritable_directories_one_line_each(
        self, tmp_path, capsys, monkeypatch, command, lines
    ):
        # os.access is faked: a process running as root ignores directory modes
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        for name in "abc":
            (tmp_path / name).mkdir()
        path = write_config(
            tmp_path, propagators=["numeric", "rwa"], csv_path="a/t.csv",
            rwa_csv_path="b/t_rwa.csv", spectrum_path="c/s.json",
        )
        assert cli.main([command, str(path), "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "configuration error:\n" + "".join(
            f"  - output directory not writable: {tmp_path / name}\n" for name in lines
        )
        assert all(list((tmp_path / name).iterdir()) == [] for name in "abc")

    def test_failed_manifest_write_after_clean_run(self, tmp_path, capsys, monkeypatch):
        # every CSV was written, then the manifest cannot be: exit 1
        atomic_write = runner._atomic_write

        def full_disk(path):
            if path.endswith(".manifest.json"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return atomic_write(path)

        monkeypatch.setattr(runner, "_atomic_write", full_disk)
        path = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert list(out.iterdir()) == [out / "trajectory.csv"]

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
        ({"n_max": 10**30}, "n_max = 1000000000000000000000000000000 is too large: "
                            "Maximum allowed dimension exceeded"),
    ], ids=["grid", "step-count-overflow", "state", "state-past-the-index-range"])
    def test_unallocatable_plan_is_config_error(self, tmp_path, capsys, command, extra, problem):
        # neither the sample grid nor the state can be mapped at these sizes,
        # nor indexed past numpy's range; each is one problem line naming its
        # subject, before any file is written
        path = write_config(tmp_path, **extra)
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error:\n  - {problem}")
        assert err.count("\n") == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "run", "spectrum"])
    @pytest.mark.parametrize("payload", [
        {"lambda_eg": 0.02, "n": 2, "omega": 1e308},
        {"lambda_eg": 0.02, "n": 2, "omega": 1e200, "lambda_g": 0.1},
        {"lambda_eg": 0.02, "omega0": 1e300, "omega": 1e-10},
    ], ids=["omega0-infinite", "square-overflow", "order-infinite"])
    def test_model_past_the_float_range_is_config_error(self, tmp_path, command, payload):
        # products and squares of finite keys that leave the float range are
        # one configuration error naming the keys, not a traceback
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "mprabi.cli", command, str(path), "--output-dir", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("configuration error:\n  - model outside the float range ")
        assert all(f"'{key}' = " in done.stderr for key in payload)
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("n", [25, 45])
    def test_resonance_order_above_the_truncation(self, tmp_path, capsys, command, n):
        # the secular basis holds the n unmixed states below n_max, so an
        # order n > n_max is rejected in words before any compute
        path = write_config(tmp_path, n=n, n_max=20, propagators=["rwa"])
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"configuration error:\n  - photon order n = {n} exceeds the truncation n_max = 20\n"
        )
        assert list(out.iterdir()) == []

    def test_high_order_run_writes_its_manifest(self, tmp_path):
        # V_N(n) at n = 171 divides by N!/(N - n)! > 1.8e308; the run that
        # reports it as V_leading still ends cleanly with its manifest
        path = tmp_path / "n171.json"
        path.write_text(json.dumps({"lambda_eg": 0.02, "n": 171, "n_max": 20, "t_end": 0.01,
                                    "dt": 5e-05, "sample_every": 20}), encoding="utf-8")
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "trajectory.manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["derived"]["V_leading"] == 0.0

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_unallocatable_trajectories_are_config_error(self, tmp_path, capsys, command):
        # 2e7 samples of n_max 200 need 30.4 GiB of trajectory arrays; both
        # commands reject them before any compute and write nothing
        payload = json.loads((REPO / "configs" / "two_photon_vacuum.json").read_text())
        payload.update(t_end=20000.0, sample_every=1, propagators=["numeric"])
        path = tmp_path / "long.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "configuration error:\n  - t_end / dt / sample_every = 20000001 samples x "
            "n_max = 200 is too large: "
        )
        assert err.count("\n") == 2
        assert list(out.iterdir()) == []

    def test_validate_counts_samples_without_a_grid(self, tmp_path, capsys, monkeypatch):
        # the plan sizes the 2e7-sample run from its count: with the grid
        # builder broken, validate still rejects it with the same one line
        def no_grid(*args):
            raise AssertionError("the plan built the sample grid")

        monkeypatch.setattr(dynamics, "sample_steps", no_grid)
        monkeypatch.setattr(runner, "sample_steps", no_grid, raising=False)
        path = long_numeric_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["validate", str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "configuration error:\n  - t_end / dt / sample_every = 20000001 samples x "
            "n_max = 200 is too large: "
        )
        assert err.count("\n") == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_hamiltonian_too_large_is_rejected_by_the_plan(self, tmp_path, capsys, command):
        # H at n_max = 5e6 needs 728 TiB, and with its eigh's peak 4.26 PiB,
        # past any machine's memory and a 47-bit address space, so the plan's
        # reservation of both fails at once: validate rejects it and run
        # fails before compute
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "n": 1, "lambda_eg": 0.001, "n_max": 5000000, "t_end": 0.01, "dt": 0.001,
            "sample_every": 10,
        }), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main([command, str(path), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "configuration error:\n  - n_max = 5000000 is too large: Unable to allocate 4.26 PiB "
            "for an array with shape (6, 10000000, 10000000)"
        )
        assert err.count("\n") == 2
        assert list(out.iterdir()) == []

    def test_hamiltonian_past_the_index_range_is_named_as_too_large(self, tmp_path, monkeypatch):
        # at n_max 2.3e8, H with its eigh's peak, shape (6, 4.6e8, 4.6e8), is
        # past numpy's index range, not just past memory: the plan names
        # n_max as for any peak too large, where it gave numpy's bare "array
        # is too big".  A small start stands in for the 7 GB vector
        monkeypatch.setattr(runner, "prepare_initial", lambda *args: np.zeros(4, dtype=complex))
        config = parse_config(json.dumps({**QUICK, "n_max": 230_000_000}))
        with pytest.raises(ConfigError) as caught:
            runner.plan_run(config, str(tmp_path))
        assert [problem.split(": ")[0] for problem in caught.value.problems] == [
            "n_max = 230000000 is too large"
        ]
        assert str(caught.value).startswith("n_max = 230000000 is too large: array is too big")

    @pytest.mark.parametrize("command", ["validate", "run", "spectrum"])
    @pytest.mark.parametrize("payload", [
        {"lambda_eg": 1e160, "order": 2, "propagators": ["rwa"]},
        {"lambda_eg": 1e308},
    ], ids=["shifts-past-the-float-range", "hamiltonian-past-the-float-range"])
    def test_coupling_past_the_float_range_is_config_error(self, tmp_path, command, payload):
        # at n_max 12, lambda_eg = 1e160 squares past the float range in the
        # order-2 shifts, and 1e308 in H and V_N(1) themselves: validate and
        # spectrum exited 0 with NaN or Infinity, and run wrote a NaN CSV or
        # failed with "Eigenvalues did not converge".  Each command refuses
        # the coupling by name before any compute and writes nothing
        path = tmp_path / "strong.json"
        path.write_text(json.dumps({
            "n": 1, "n_max": 12, "t_end": 0.5, "dt": 0.01, "sample_every": 5, **payload,
        }), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "mprabi.cli", command, str(path), "--output-dir", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "configuration error:",
            "  - model outside the float range from 'omega' = 1.0, 'n' = 1, 'lambda_eg' = "
            f"{payload['lambda_eg']!r}: |lambda_eg| above 2**256 = 1.158e+77 omega drives "
            "level shifts past the float range",
        ]
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
    def test_validate_of_a_long_run_stays_small(self, tmp_path):
        # a fresh launcher, so that the peak is that of validate alone; building
        # the 2e7-entry grid took it to 182 MiB
        path = long_numeric_config(tmp_path)
        code, peak_kib, _ = run_capped("validate", str(path), "--output-dir", str(tmp_path))
        assert code == 1
        assert peak_kib < 100 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS, ru_maxrss in KiB")
    @pytest.mark.parametrize("start, address_space, problem", [
        ({}, 1 << 30, "Unable to allocate 2.86 GiB for an array with shape (6, 8000, 8000)"),
        ({"initial_kind": "ground-coherent", "mean_photons": 10.0}, 3 << 28,
         "Unable to allocate 2.86 GiB for an array with shape (6, 8000, 8000)"),
    ], ids=["assembly", "coherent-start"])
    def test_plan_too_large_to_hold_writes_no_page_of_it(
        self, tmp_path, start, address_space, problem
    ):
        # under an address-space limit that H (488 MiB) alone would fit, the
        # plan's reservation of H with its eigh's peak does not: validate
        # exits 1 naming it, before it writes H; building it first took the
        # peak to 762 MiB.  A coherent start takes one vector, so under a
        # tighter limit that reservation is still the first refused
        path = write_config(tmp_path, n_max=4000, t_end=0.01, dt=0.001, sample_every=10, **start)
        code, peak_kib, err = run_capped(
            "validate", str(path), "--output-dir", str(tmp_path), address_space=address_space
        )
        assert code == 1
        assert err.startswith(f"configuration error:\n  - n_max = 4000 is too large: {problem}")
        assert err.count("\n") == 2
        assert peak_kib < 100 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS")
    @pytest.mark.parametrize("command", ["validate", "run", "spectrum"])
    @pytest.mark.parametrize("lambda_e, ladders", [
        (50.0, [
            f"50 omega, {n_loc} levels, cannot be allocated: Unable to allocate {size} GiB for an "
            f"array with shape (8, {n_loc}, {n_loc}) and data type float64"
            for n_loc, size in ((21477, "27.5"), (22005, "28.9"))
        ]),
        (5e153, ["5e+153 omega, a level count past the float range, cannot be allocated: "
                 "cannot convert float infinity to integer"] * 2),
    ], ids=["ladder-too-large", "ladder-past-the-float-range"])
    def test_secular_ladder_too_large_is_named(self, tmp_path, command, lambda_e, ladders):
        # |lambda_e| = 50 pads the secular ladder of n_max 12 (manifold_max
        # 22 for spectrum) to 21477 (22005) levels, and 5e153 past any count:
        # every command rejects the ladder by name before any compute and
        # writes nothing, where run and validate were killed for memory or
        # raised OverflowError.  The 4 GiB limit keeps a regression from
        # taking the machine's memory
        path = tmp_path / "ultrastrong.json"
        path.write_text(json.dumps({
            "n": 2, "lambda_eg": 0.02, "lambda_e": lambda_e, "t_end": 0.5, "dt": 0.01,
            "sample_every": 5, "n_max": 12, "propagators": ["numeric", "rwa"],
        }), encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run_capped(command, str(path), "--output-dir", str(out),
                                  address_space=4 << 30)
        ladder, padded = (f"the secular ladder for |lambda_g| + |lambda_e| = {text}"
                          for text in ladders)
        problems = {"validate": [ladder, f"spectrum up to manifold_max = 22: {padded}"],
                    "run": [ladder], "spectrum": [f"spectrum up to manifold_max = 22: {padded}"]}
        assert code == 1
        expected = ["configuration error:", *(f"  - {line}" for line in problems[command])]
        assert err.splitlines()[: len(expected)] == expected
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS")
    def test_eigh_too_large_to_hold_is_named(self, tmp_path):
        # under 1.5 GiB, H at n_max 3200 (312 MiB) fits, and H with its eigh's
        # peak (6 x 312 MiB) does not: validate names the plan's reservation
        # of both, where the eigh itself failed with no text, before it
        # writes H
        path = write_config(tmp_path, n_max=3200, t_end=0.01, dt=0.001, sample_every=10)
        code, peak_kib, err = run_capped(
            "validate", str(path), "--output-dir", str(tmp_path), address_space=3 << 29
        )
        assert code == 1
        assert err.startswith(
            "configuration error:\n  - n_max = 3200 is too large: "
            "Unable to allocate 1.83 GiB for an array with shape (6, 6400, 6400)"
        )
        assert err.count("\n") == 2
        assert peak_kib < 100 * 1024

    def test_spectrum_probe_covers_the_solver_peak(self, tmp_path, monkeypatch):
        # the plan's reservation (in rwa._padded_size) maps as many
        # padded-ladder matrices as the solver holds at its peak (see
        # tests/test_rwa.py), not one
        empty = np.empty
        shapes = []

        def recorded(shape, *args, **kwargs):
            shapes.append(shape)
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(runner.np, "empty", recorded)
        path = write_config(tmp_path)
        assert cli.main(["spectrum", str(path), "--output-dir", str(tmp_path),
                         "--manifold-max", "30"]) == 0
        params, _ = runner.resolve_params(parse_config(path.read_text()))
        n_loc = rwa._padded_size(params, 31)
        assert shapes[0] == (rwa._SPECTRUM_MATRICES, n_loc, n_loc)

    def test_out_of_memory_in_compute_leaves_failed_manifest(self, tmp_path, monkeypatch, capsys):
        # an allocation the plan did not foresee fails the run with exit 1
        # and a manifest that names the error, and no CSV
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.8 GiB")

        monkeypatch.setattr(runner, "evolve_numeric", exhausted)
        path = write_config(tmp_path, propagators=["rwa", "numeric"])
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory during compute: Unable to allocate 29.8 GiB\n"
        manifest = tmp_path / "trajectory.manifest.json"
        stored = json.loads(manifest.read_text())
        assert stored["status"] == "failed"
        assert stored["error"] == "out of memory during compute: Unable to allocate 29.8 GiB"
        assert stored["outputs"] == {"manifest": str(manifest)}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "scenario.json", "trajectory.manifest.json",
        ]

    def test_out_of_memory_in_emission_leaves_failed_manifest(self, tmp_path, monkeypatch, capsys):
        # compute finished, so norm_ok holds; the CSV never reached the disk
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 GiB")

        monkeypatch.setattr(runner, "emit_csv", exhausted)
        path = write_config(tmp_path)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path)]) == 1
        text = "out of memory during emission: Unable to allocate 1.00 GiB"
        assert capsys.readouterr().err == f"error: {text}\n"
        manifest = tmp_path / "trajectory.manifest.json"
        stored = json.loads(manifest.read_text())
        assert (stored["status"], stored["error"]) == ("failed", text)
        assert stored["outputs"] == {"manifest": str(manifest)}
        assert stored["validity"]["norm_ok"] is True
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "scenario.json", "trajectory.manifest.json",
        ]

    @pytest.mark.parametrize("exc, code, text", [
        (ValueError("secular gremlin"), None, "secular gremlin"),
        (KeyboardInterrupt(), 128 + signal.SIGINT, "KeyboardInterrupt"),
    ], ids=["value-error", "bare-keyboard-interrupt"])
    def test_any_ending_in_compute_leaves_failed_manifest(
        self, tmp_path, monkeypatch, capsys, exc, code, text
    ):
        # an exception no handler names still writes the manifest; one the CLI
        # does not map is raised out of main, an interrupt is exit 128 + its
        # signal, and main puts the signal handlers back either way
        def gremlin(*args, **kwargs):
            raise exc

        monkeypatch.setattr(runner, "evolve_rwa", gremlin)
        handlers = [signal.getsignal(signum) for signum in csvtext.INTERRUPT_SIGNALS]
        path = write_config(tmp_path, propagators=["numeric", "rwa"])
        argv = ["run", str(path), "--output-dir", str(tmp_path)]
        if code is None:
            with pytest.raises(type(exc)) as info:
                cli.main(argv)
            assert info.value is exc
        else:
            assert cli.main(argv) == code
            assert capsys.readouterr().err == f"error: {text}\n"
        assert [signal.getsignal(signum) for signum in csvtext.INTERRUPT_SIGNALS] == handlers
        manifest = tmp_path / "trajectory.manifest.json"
        stored = json.loads(manifest.read_text())
        assert (stored["status"], stored["error"]) == ("failed", text)
        assert stored["outputs"] == {"manifest": str(manifest)}
        assert stored["validity"]["norm_ok"] is False  # the secular route did not finish
        assert stored["timings"]["numeric"] > 0.0 and stored["timings"]["emit"] == 0.0

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_interrupt_while_the_manifest_is_written(self, tmp_path, monkeypatch, capsys, signum):
        # both CSVs are on disk when the signal lands as the manifest is
        # built: the manifest is still written, and says how the run ended
        environment = runner._environment
        raised = []

        def interrupted():
            if not raised:
                raised.append(signum)
                raise cli.Interrupted(signum)
            return environment()

        monkeypatch.setattr(runner, "_environment", interrupted)
        path = write_config(tmp_path, propagators=["numeric", "rwa"])
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["run", str(path), "--output-dir", str(out)]) == 128 + signum
        name = signal.Signals(signum).name
        assert capsys.readouterr().err == f"error: {name}\n"
        stored = json.loads((out / "trajectory.manifest.json").read_text())
        assert (stored["status"], stored["error"]) == ("failed", name)
        assert sorted(stored["outputs"]) == ["csv", "manifest", "rwa_csv"]
        assert sorted(out.iterdir()) == sorted(Path(p) for p in stored["outputs"].values())
        assert stored["validity"]["norm_ok"] is True
        assert raised == [signum]

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                        reason="needs /proc/<pid>/task/<tid>/children")
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_interrupted_run_leaves_failed_manifest(self, tmp_path, signum):
        # collapse_revival_n4 with its CSV split over two processes and each
        # kernel block slowed to 50 ms, so that the run is still emitting
        # when the signal reaches its process group, as a terminal's Ctrl-C
        # or a job scheduler's SIGTERM would.  The run is in development mode
        # with ResourceWarning an error, so an unclosed part shows in stderr
        script = (
            "import time\n"
            "from mprabi import cli, csvtext\n"
            "format_block = csvtext._format_block\n"
            "def slow(values, source):\n"
            "    time.sleep(0.05)\n"
            "    return format_block(values, source)\n"
            "csvtext._format_block = slow\n"
            "csvtext._usable_cpus = lambda: 2\n"
            "cli.entry()\n"
        )
        config = REPO / "configs" / "collapse_revival_n4.json"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        run = subprocess.Popen(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script,
             "run", str(config), "--output-dir", str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            children = Path(f"/proc/{run.pid}/task/{run.pid}/children")
            deadline = time.monotonic() + 60.0
            while not (listed := children.read_text().split()) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert listed, "no CSV worker within 60 s"
            os.killpg(run.pid, signum)
            _, err = run.communicate(timeout=60)
        finally:
            if run.poll() is None:
                os.killpg(run.pid, signal.SIGKILL)
                run.communicate()
        name = signal.Signals(signum).name
        assert run.returncode == 128 + signum, err
        assert err == f"error: {name}\n"
        manifest = tmp_path / "collapse_revival_n4.manifest.json"
        stored = json.loads(manifest.read_text())
        assert (stored["status"], stored["error"]) == ("failed", name)
        listing = sorted(tmp_path.iterdir())
        assert listing == sorted(Path(p) for p in stored["outputs"].values()), (
            f"directory holds {[p.name for p in listing]}, manifest lists "
            f"{stored['outputs']}; stderr {err!r}"
        )
        [worker] = listed
        stat = Path(f"/proc/{worker}/stat")
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            try:
                state = stat.read_text().rpartition(")")[2].split()[0]
            except FileNotFoundError:
                break
            if state == "Z":
                break
            time.sleep(0.01)
        else:
            pytest.fail(f"worker {worker} still running 1 s after its run ended")

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

    def test_sweep_stops_at_an_interrupted_config(self, tmp_path, monkeypatch, capsys):
        write_config(tmp_path, name="a.json", csv_path="a.csv")
        write_config(tmp_path, name="b.json", csv_path="b.csv")
        run = runner.run_scenario
        started = []

        def interrupted(config, **kwargs):
            started.append(config.csv_path)
            if config.csv_path == "a.csv":
                raise cli.Interrupted(signal.SIGTERM)
            return run(config, **kwargs)

        monkeypatch.setattr(cli, "run_scenario", interrupted)
        code = cli.main(["sweep", str(tmp_path / "*.json"), "--output-dir", str(tmp_path)])
        assert code == 128 + signal.SIGTERM
        assert started == ["a.csv"]
        assert capsys.readouterr().err == "error: SIGTERM\n"

    def test_sweep_empty_glob_is_config_error(self, tmp_path):
        assert cli.main(["sweep", str(tmp_path / "none*.json")]) == 1
