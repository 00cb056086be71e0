"""Every function in ``src/pulsespec`` is reached from the command line.

Code that only the tests reach belongs in the tests. The probe runs
``cli.main`` on each protocol, a detuning average and a bad flag under
``sys.setprofile``, and lists every function and method defined under
``src/pulsespec`` that no call entered. The functions the benchmark's spans
wrap (``pulsebench/spans.py``) must exist.
"""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pulsespec
from pulsespec import cli, spectra

from bench import load

SRC = Path(pulsespec.__file__).resolve().parent

#: code the command line does not reach, each entry with the caller outside src/
#: that keeps it there (moving them waits for the benchmark to stop using them)
NOT_ON_THE_CLI_PATH = {
    "density_trajectory",  # a layer pulsebench/spans.py times; the oracles' populations
    "CorrelationKernel.theta_grid",  # the lags pulsebench/gate.py reads; the transform needs
                                     # only their count
}


def defined_functions():
    """Code object -> qualified name of each function defined under SRC."""
    found = {}

    def add(fn):
        code = getattr(fn, "__code__", None)
        if code is not None and Path(code.co_filename).resolve().parent == SRC:
            found[code] = fn.__qualname__

    for info in pkgutil.iter_modules(pulsespec.__path__, "pulsespec."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if inspect.isfunction(obj):
                add(obj)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr in vars(obj).values():
                    if isinstance(attr, property):
                        attr = attr.fget
                    add(getattr(attr, "__func__", attr))
    return found


def run_cli(tmp_path):
    out = str(tmp_path / "x.csv")
    grid = ["--dt", "0.01", "-o", out]
    runs = [
        ["--protocol", "none", "--t-end", "1"],
        ["--protocol", "px", "--n-pulses", "4", "--tau", "0.25"],
        ["--protocol", "pxpy", "--n-pulses", "4", "--tau", "0.25"],
        ["--protocol", "pz", "--n-pulses", "4", "--tau", "0.25",
         "--average-deltas=0:0.5,2:0.5"],
        ["--protocol", "uhrig", "--n-pulses", "5", "--t-end", "1", "--delta", "2"],
    ]
    # every run here shares one grid; a fresh process builds its transform plan
    spectra._plan.cache_clear()
    codes = [cli.main(argv + grid) for argv in runs]
    codes.append(cli.main(["--protocol", "none", "--colour", "blue", "-o", out]))
    return codes


def test_every_src_function_is_reached_from_the_cli(tmp_path, capsys):
    functions = defined_functions()
    reached = set()

    def probe(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(probe)
    try:
        codes = run_cli(tmp_path)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * 5 + [1]
    unreached = {name for code, name in functions.items() if code not in reached}
    assert unreached == NOT_ON_THE_CLI_PATH


def test_every_benchmark_span_target_exists():
    # the benchmark drops its self-time metrics when one of these is gone
    spans = load("spans")
    missing = []
    for name, (module, attrs) in spans.LAYERS.items():
        obj = importlib.import_module(module)
        for attr in attrs.split("."):
            obj = getattr(obj, attr, None)
        if not (module.startswith("pulsespec.") and callable(obj)):
            missing.append(name)
    assert missing == []
