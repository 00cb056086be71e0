"""Command-line front-end: exit codes, config layering, .meta, ``python -m``."""

import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pulsespec
from pulsespec import CorrelationKernel, SimParams, SpectrumResult, cli, spectra
from pulsespec.cli import CSV_HEADER, main, parse_config
from pulsespec.correlations import accumulate_kernel
from pulsespec.spectra import emission_sum_rule, spectrum_from_kernel

META_KEYS = [
    "protocol", "delta", "gamma", "n_pulses", "tau", "t_end", "dt",
    "omega_min", "omega_max", "omega_step", "observable", "average_deltas",
    "schedule_digest", "sum_rule_lhs", "sum_rule_rhs", "kernel_method",
    "transform_method", "warnings", "n_steps", "n_omega", "n_deltas",
    "pulsespec_version", "numpy_version",
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
    err = capsys.readouterr().err
    assert "configuration error" in err
    if bad[0] in ("--delta", "--average-deltas"):  # the detunings name the flag given
        assert err.startswith(f"configuration error: {bad[0][2:].replace('-', '_')}: ")
    assert list(tmp_path.iterdir()) == []


def test_window_off_the_step_lattice_is_a_configuration_error(tmp_path):
    out = tmp_path / "x.csv"
    argv = ["--protocol", "px", "--tau", "0.3", "--n-pulses", "3",
            "--dt", "0.07", "-o", str(out)]
    assert main(argv) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sizes", [
    ["--t-end", "1e308", "--dt", "1e-308"],
    ["--t-end", "1", "--omega-min=-1e308", "--omega-max", "1e308"],
])
def test_sizes_that_overflow_are_a_configuration_error(tmp_path, capsys, sizes):
    out = tmp_path / "x.csv"
    assert main(["--protocol", "none", *sizes, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, named", [
    (["--delta", "3000"], "|delta|=3000"),  # delta*dt = 3: unchecked, |P| grows to 1e171
    (["--delta", "1e5"], "|delta|=100000"),  # unchecked, these three give NaN rows
    (["--gamma", "5000"], "gamma=5000,"),
    (["--delta", "1e300"], "|delta|=1e+300"),
    (["--average-deltas=0:0.5,3000:0.5"], "|delta|=3000"),
])
def test_unstable_step_is_a_configuration_error(tmp_path, capsys, flags, named):
    out = tmp_path / "x.csv"
    assert main(["--protocol", "none", "--t-end", "1", *flags, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: dt=0.001 is outside the RK4 stability")
    assert named in err
    assert list(tmp_path.iterdir()) == []


def test_unstable_detuning_of_weight_zero_is_not_computed(tmp_path):
    out = tmp_path / "x.csv"
    argv = ["--protocol", "none", "--t-end", "1", "--dt", "0.01",
            "--average-deltas=0:1,3000:0", "-o", str(out)]
    assert main(argv) == 0 and out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_spectrum_is_a_runtime_error(tmp_path, monkeypatch, capsys, bad):
    def broken(kernel, omega):
        spec = spectrum_from_kernel(kernel, omega)
        emission = spec.emission.copy()
        emission[7] = bad
        return SpectrumResult(spec.omega, emission, spec.direct_absorption,
                              spec.direct_absorption - emission, kernel)

    monkeypatch.setattr(spectra, "spectrum_from_kernel", broken)
    out = tmp_path / "x.csv"
    assert main(["--protocol", "none", "--t-end", "1", "--dt", "0.01",
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: the spectrum is not finite; nothing written\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc", [
    MemoryError(),
    MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000001,)"),
])
def test_memory_error_is_a_runtime_error(tmp_path, monkeypatch, capsys, exc):
    # what a run whose arrays cannot be allocated raises, without allocating
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(spectra, "accumulate_kernel", exhausted)
    out = tmp_path / "x.csv"
    assert main(["--protocol", "none", "--t-end", "1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(exc or "MemoryError") in err


@pytest.mark.parametrize("outputs, blocker", [
    (["-o", "{dir}/missing/x.csv"], None),
    (["-o", "{dir}/x.csv", "--plot-script", "{dir}/missing/x.gp"], None),
    (["-o", "{dir}/x.csv"], "x.csv.meta"),  # a directory where .meta goes
])
def test_unwritable_output_fails_before_computing(tmp_path, monkeypatch, capsys,
                                                  outputs, blocker):
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before checking the outputs")

    monkeypatch.setattr(spectra, "accumulate_kernel", forbidden)
    if blocker:
        (tmp_path / blocker).mkdir()
    argv = ["--protocol", "none", "--t-end", "20",
            *[a.format(dir=tmp_path) for a in outputs]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ([blocker] if blocker else [])


def test_existing_outputs_are_overwritten(tmp_path):
    out, plot = tmp_path / "x.csv", tmp_path / "x.gp"
    for path in (out, plot, tmp_path / "x.csv.meta"):
        path.write_text("old\n")
    assert main(["--protocol", "none", "--t-end", "1", "--dt", "0.01",
                 "-o", str(out), "--plot-script", str(plot)]) == 0
    assert out.read_text().startswith(CSV_HEADER + "\n")
    assert read_meta(out)["protocol"] == "none"
    assert str(out) in plot.read_text()


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_config_file_on_its_own(tmp_path):
    out = tmp_path / "f.csv"
    cfg = write_config(tmp_path, f"protocol=pz\ntau=0.2\nn_pulses=3\n"
                                 f"delta=1.5\ndt=0.01\noutput={out}\n")
    config = parse_config(["--config", cfg])
    assert (config.protocol, config.tau, config.n_pulses) == ("pz", 0.2, 3)
    assert (config.delta, config.dt, config.output_path) == (1.5, 0.01, str(out))
    assert main(["--config", cfg]) == 0
    assert read_meta(out)["protocol"] == "pz"


def test_flag_overrides_file_value(tmp_path):
    cfg = write_config(tmp_path, "protocol=none\nt_end=1\ndelta=1.5\n"
                                 "output=a.csv\n")
    config = parse_config(["--config", cfg, "--delta", "-2", "-o", "b.csv"])
    assert config.delta == -2.0 and config.output_path == "b.csv"
    assert config.t_end == 1.0


def test_config_comments_and_output_key(tmp_path):
    cfg = write_config(tmp_path, "# free decay\n\nprotocol=none  # no pulses\n"
                                 "t_end = 2 # window\noutput = run.csv\n")
    config = parse_config(["--config", cfg])
    assert (config.protocol, config.t_end) == ("none", 2.0)
    assert config.output_path == "run.csv"


def test_hash_inside_a_config_value_is_kept(tmp_path, monkeypatch):
    # a '#' starts a comment only at the start of a line or after whitespace
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "protocol=none\nt_end=1\ndt=0.01 # coarse\n"
                                 "output=run#1.csv\n")
    assert parse_config(["--config", cfg]).output_path == "run#1.csv"
    assert main(["--config", cfg]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run#1.csv", "run#1.csv.meta",
                                                          "run.cfg"]


@pytest.mark.parametrize("plot", ["a.csv", "./a.csv", "a.csv.meta"])
def test_plot_script_on_an_output_path_is_a_configuration_error(tmp_path, monkeypatch,
                                                                capsys, plot):
    monkeypatch.chdir(tmp_path)
    argv = ["--protocol", "none", "--t-end", "1", "--dt", "0.01", "-o", "a.csv",
            "--plot-script", plot]
    assert main(argv) == 1
    assert "configuration error: plot_script" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line, message", [
    ("colour=blue", "unknown key 'colour'"),
    ("delta=fast", "delta: cannot parse 'fast'"),
])
def test_bad_config_line_names_its_place(tmp_path, capsys, line, message):
    cfg = write_config(tmp_path, f"# header\nprotocol=none\n{line}\nt_end=1\n")
    assert main(["--config", cfg, "-o", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:3: {message}" in err
    assert list(tmp_path.iterdir()) == [Path(cfg)]


def test_csv_text_is_the_per_value_format(tmp_path):
    # signed zeros, subnormals and three-digit exponents
    cols = np.array([0.0, -0.0, 5e-324, -2.2e-310, 1e-300, -1.7976931348623157e308,
                     1e300, 1.0 / 3.0, -4.5e-7, 1e22, 123456.789, -2.5]).reshape(4, 3)
    kernel = CorrelationKernel(np.zeros(2), np.zeros(2), SimParams(t_end=1.0, dt=1.0), "x")
    spec = SpectrumResult(*cols, kernel=kernel)
    path = tmp_path / "x.csv"
    cli._write_csv(str(path), spec)
    rows = "".join(f"{o:.11e},{p:.11e},{pp:.11e},{q:.11e}\n" for o, p, pp, q in cols.T)
    assert path.read_bytes() == (CSV_HEADER + "\n" + rows).encode()


def percent_text(table):
    """The reference text: ``"%.11e" % x`` per value, rows joined by newlines."""
    return "\n".join(",".join("%.11e" % x for x in row) for row in table.tolist()).encode()


def assert_formats_like_percent(values, width=4):
    values = np.asarray(values, dtype=float).ravel()
    table = values[:values.size // width * width].reshape(-1, width)
    if table.size:
        assert cli._format_e11(table) == percent_text(table)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64), st.integers(1, 4))
def test_format_of_any_float(values, width):
    assert_formats_like_percent(values, width)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=64))
def test_format_of_any_bit_pattern(bits):
    assert_formats_like_percent(np.array(bits, dtype=np.uint64).view(np.float64))


def both_sides(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([np.nextafter(values, -np.inf), values,
                               np.nextafter(values, np.inf)])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_format_of_crafted_values(sign):
    rng = np.random.default_rng(8)
    mantissas = rng.integers(10**11, 10**12, 400)
    exponents = rng.integers(-23, 24, 400) - 11.0
    values = [
        # near-ties: the 13th significant digit is a 5
        (mantissas + 0.5) * 10.0 ** exponents,
        # both sides of every power of ten the fast path can meet, and past it
        10.0 ** np.arange(-12, 35),
        # m in [1e12 - 0.5, 1e12): the mantissa rounds up to the next decade
        (1e12 - 0.5 + rng.uniform(0, 0.5, 200)) * 10.0 ** exponents[:200],
        # |k| = 22 and 23, where 10^|k| stops being exact
        rng.uniform(1, 10, 200) * 10.0 ** np.repeat([-11, -12, 33, 34], 50),
        # zeros, subnormals and the edges of the normal range
        [0.0, 5e-324, 2.2e-310, 2.2250738585072014e-308, 1.7976931348623157e308],
    ]
    assert_formats_like_percent(sign * both_sides(np.concatenate(values)))
    assert_formats_like_percent([0.0, -0.0, -5e-324, np.inf, -np.inf, np.nan, 1.0, -1.0])


def test_format_of_spectrum_like_tables():
    # spectra span many decades, with ω = 0 among the frequencies
    rng = np.random.default_rng(9)
    omega = np.arange(-1600, 1601) * 0.025
    peaks = rng.lognormal(0, 3, (3, omega.size)) * rng.choice([-1, 1], (3, omega.size))
    assert_formats_like_percent(np.column_stack([omega, *peaks]))


@pytest.mark.parametrize("name, reason", [
    ("nope.cfg", os.strerror(errno.ENOENT)),
    ("cfg_dir", os.strerror(errno.EISDIR)),
], ids=["missing", "directory"])
def test_unreadable_config_file_is_a_configuration_error(tmp_path, capsys,
                                                         name, reason):
    cfg = tmp_path / name
    if name == "cfg_dir":
        cfg.mkdir()
    out = tmp_path / "x.csv"
    assert main(["--protocol", "none", "--config", str(cfg), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"configuration error: cannot read {cfg}: {reason}\n"
    assert [p.name for p in tmp_path.iterdir()] == ([name] if cfg.exists() else [])


def test_undecodable_config_file_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"protocol=none\nt_end=1\n# caf\xe9 (Latin-1)\n")
    assert main(["--config", str(cfg), "-o", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: {cfg}: not UTF-8 text (invalid continuation byte at byte 27)\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_file_is_utf8_whatever_the_locale(tmp_path):
    cfg = write_config(tmp_path, "protocol=none\nt_end=1\ndt=0.01  # café\n")
    out = tmp_path / "x.csv"
    proc = run_module(["--config", cfg, "-o", str(out)], LC_ALL="C", PYTHONUTF8="0")
    assert proc.returncode == 0, proc.stderr
    assert read_meta(out)["dt"] == "0.01"


@pytest.mark.parametrize("flags, text", [
    ([], "0"),
    (["--delta=-0.0"], "-0"),
    (["--delta", "1.5"], "1.5"),
])
def test_meta_delta_is_the_detuning_computed(tmp_path, flags, text):
    out = tmp_path / "x.csv"
    assert main(["--protocol", "none", "--t-end", "1", "--dt", "0.01", *flags,
                 "-o", str(out)]) == 0
    assert read_meta(out)["delta"] == text


def test_meta_round_trip_with_warnings(tmp_path, capsys):
    out = tmp_path / "u.csv"
    argv = ["--protocol", "uhrig", "--n-pulses", "4", "--t-end", "0.4",
            "--dt", "0.01", "--delta", "1.5", "-o", str(out)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    meta = read_meta(out)
    assert list(meta) == META_KEYS

    config = parse_config(argv)
    schedule, params, omega, _ = config.validate()
    assert meta["protocol"] == "uhrig" and meta["observable"] == "both"
    assert int(meta["n_pulses"]) == 4 and meta["tau"] == ""
    for key in ("delta", "gamma", "dt", "omega_min", "omega_max", "omega_step"):
        assert float(meta[key]) == getattr(config, key)
    assert float(meta["t_end"]) == params.t_end
    assert meta["schedule_digest"] == schedule.digest()
    assert meta["kernel_method"] == "stretch-impulses"
    assert meta["transform_method"] == "chirp-z"
    assert int(meta["n_steps"]) == params.n_steps == 40
    assert int(meta["n_omega"]) == omega.size
    assert meta["n_deltas"] == "1"
    assert meta["pulsespec_version"] == pulsespec.__version__
    assert meta["numpy_version"] == np.__version__

    # dt resolves the shortest Uhrig gap with fewer than 10 steps
    notes = meta["warnings"].split(" | ")
    assert any("fewer than 10 steps" in note for note in notes)
    assert len(set(notes)) == len(notes)
    for note in notes:
        assert f"warning: {note}" in err

    rows = out.read_text().splitlines()
    assert rows[0] == CSV_HEADER
    assert len(rows) == 1 + omega.size


AVERAGE = ["--protocol", "pz", "--n-pulses", "4", "--tau", "0.25", "--dt", "0.01",
           "--average-deltas=0:0.5,1:0.5"]


def test_meta_of_a_detuning_average(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main([*AVERAGE[:-1], "--average-deltas=0:0.5,1:0.5,4:0", "-o", str(out)]) == 0
    meta = read_meta(out)
    assert list(meta) == META_KEYS
    assert meta["delta"] == ""
    assert meta["average_deltas"] == "0:0.5,1:0.5,4:0"
    assert meta["n_deltas"] == "2"  # the zero-weight detuning is not computed
    assert (meta["n_steps"], meta["n_omega"]) == ("100", "3201")

    schedule, params, omega, _ = parse_config([*AVERAGE, "-o", str(out)]).validate()
    # the digest's label holds the pairs as given, the zero weight included
    assert meta["schedule_digest"] == schedule.digest() + " avg[0:0.5,1:0.5,4:0]"

    # the sum rule of the mixture: its averaged spectrum against its G1(0)
    kern = accumulate_kernel(schedule, params, [0.0, 1.0], [0.5, 0.5])
    spec = spectrum_from_kernel(kern, omega)
    lhs, rhs = float(meta["sum_rule_lhs"]), float(meta["sum_rule_rhs"])
    assert (lhs, rhs) == emission_sum_rule(spec)
    note = f"emission sum rule off by {abs(lhs / rhs - 1):.1%}"
    assert abs(lhs / rhs - 1) > 0.10
    assert note in meta["warnings"] and f"warning: {note}" in capsys.readouterr().err


def test_detuning_average_builds_one_kernel(tmp_path, monkeypatch):
    kernels = []

    def counting(*args):
        kernels.append(accumulate_kernel(*args))
        return kernels[-1]

    monkeypatch.setattr(spectra, "accumulate_kernel", counting)
    out = tmp_path / "a.csv"
    assert main([*AVERAGE, "-o", str(out)]) == 0
    assert len(kernels) == 1
    assert float(read_meta(out)["sum_rule_rhs"]) == kernels[0].g1[0].real


@pytest.mark.parametrize("average", [False, True])
def test_run_inputs_are_built_once_per_main(tmp_path, monkeypatch, average):
    # by run's validation, which hands them on to the computation
    builds = ("build_schedule", "build_params")
    calls = []

    def counted(name):
        build = getattr(cli.RunConfig, name)

        def counting(self, *args):
            calls.append(name)
            return build(self, *args)
        return counting

    for name in builds:
        monkeypatch.setattr(cli.RunConfig, name, counted(name))
    argv = AVERAGE if average else ["--protocol", "uhrig", "--n-pulses", "4",
                                    "--t-end", "0.4", "--dt", "0.01"]
    assert main([*argv, "-o", str(tmp_path / "a.csv")]) == 0
    assert sorted(calls) == sorted(builds)


@pytest.mark.parametrize("where", ["flag", "file"])
def test_delta_with_average_deltas_is_a_configuration_error(tmp_path, capsys, where):
    out = tmp_path / "a.csv"
    argv = [*AVERAGE, "-o", str(out)]
    if where == "flag":
        argv += ["--delta", "7"]
    else:
        argv += ["--config", write_config(tmp_path, "delta=7\n")]
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        "configuration error: delta: not applicable with average_deltas\n"
    assert not out.exists() and not (tmp_path / "a.csv.meta").exists()


def test_meta_warnings_empty_when_none_fire(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["--protocol", "none", "--t-end", "4", "--dt", "0.01",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert read_meta(out)["warnings"] == ""


def run_module(argv, module="pulsespec", **env):
    env = dict(os.environ, PYTHONPATH=str(Path(pulsespec.__file__).parents[1]), **env)
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
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


def test_python_m_pulsespec_cli_writes_outputs(tmp_path):
    out = tmp_path / "c.csv"
    proc = run_module(["--protocol", "none", "--t-end", "1", "--dt", "0.01",
                       "-o", str(out)], module="pulsespec.cli")
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith(CSV_HEADER + "\n")
    assert read_meta(out)["protocol"] == "none"


def test_python_m_pulsespec_cli_returns_the_exit_code_of_main(tmp_path):
    argv = ["--protocol", "none", "--gamma", "-1", "--t-end", "1",
            "-o", str(tmp_path / "a.csv")]
    assert run_module(argv, module="pulsespec.cli").returncode == main(argv) == 1
