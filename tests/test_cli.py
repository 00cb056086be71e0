"""Command-line front-end: exit codes, the .meta record, ``python -m``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pulsespec
from pulsespec.cli import CSV_HEADER, main, parse_config

META_KEYS = [
    "protocol", "delta", "gamma", "n_pulses", "tau", "t_end", "dt",
    "omega_min", "omega_max", "omega_step", "observable", "average_deltas",
    "schedule_digest", "sum_rule_lhs", "sum_rule_rhs", "kernel_method",
    "warnings",
]


def read_meta(path):
    lines = Path(str(path) + ".meta").read_text().splitlines()
    return dict(line.partition("=")[::2] for line in lines)


@pytest.mark.parametrize("bad", [
    ["--gamma", "nan"],
    ["--gamma", "inf"],
    ["--delta", "nan"],
    ["--dt", "nan"],
    ["--t-end", "inf"],
    ["--omega-max", "nan"],
    ["--average-deltas", "nan:1"],
    ["--average-deltas", "0:nan"],
])
def test_non_finite_input_is_a_configuration_error(tmp_path, capsys, bad):
    out = tmp_path / "x.csv"
    argv = ["--protocol", "none", "--t-end", "1", "-o", str(out)]
    assert main(argv + bad) == 1
    assert "configuration error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_window_off_the_step_lattice_is_a_configuration_error(tmp_path):
    out = tmp_path / "x.csv"
    argv = ["--protocol", "px", "--tau", "0.3", "--n-pulses", "3",
            "--dt", "0.07", "-o", str(out)]
    assert main(argv) == 1
    assert list(tmp_path.iterdir()) == []


def test_meta_round_trip_with_warnings(tmp_path, capsys):
    out = tmp_path / "u.csv"
    argv = ["--protocol", "uhrig", "--n-pulses", "4", "--t-end", "0.4",
            "--dt", "0.01", "--delta", "1.5", "-o", str(out)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    meta = read_meta(out)
    assert list(meta) == META_KEYS

    config = parse_config(argv)
    params = config.build_params()
    assert meta["protocol"] == "uhrig" and meta["observable"] == "both"
    assert int(meta["n_pulses"]) == 4 and meta["tau"] == ""
    for key in ("delta", "gamma", "dt", "omega_min", "omega_max", "omega_step"):
        assert float(meta[key]) == getattr(config, key)
    assert float(meta["t_end"]) == params.t_end
    assert meta["schedule_digest"] == config.build_schedule().digest()
    assert meta["kernel_method"] == "fft"

    # dt resolves the shortest Uhrig gap with fewer than 10 steps
    notes = meta["warnings"].split(" | ")
    assert any("fewer than 10 steps" in note for note in notes)
    assert len(set(notes)) == len(notes)
    for note in notes:
        assert f"warning: {note}" in err

    rows = out.read_text().splitlines()
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + params.omega_grid.size


def test_meta_warnings_empty_when_none_fire(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["--protocol", "none", "--t-end", "4", "--dt", "0.01",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read_meta(out)["warnings"] == ""


def run_module(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(pulsespec.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "pulsespec", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_pulsespec_writes_outputs(tmp_path):
    out = tmp_path / "m.csv"
    proc = run_module(["--protocol", "none", "--t-end", "1", "--dt", "0.01",
                       "-o", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith(CSV_HEADER + "\n")
    assert read_meta(out)["protocol"] == "none"


@pytest.mark.parametrize("argv", [
    ["--protocol", "none", "--gamma", "-1", "--t-end", "1", "-o", "{dir}/a.csv"],
    ["--protocol", "none", "--t-end", "1", "--dt", "0.01",
     "-o", "{dir}/missing/a.csv"],
])
def test_python_m_pulsespec_returns_the_exit_code_of_main(tmp_path, argv):
    argv = [a.format(dir=tmp_path) for a in argv]
    assert run_module(argv).returncode == main(argv) != 0
