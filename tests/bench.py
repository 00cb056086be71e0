"""The benchmark's input tables and correctness gate, loaded from ``pulsebench/`` by path.

``pulsebench`` is a directory of scripts, not a package, so its modules are
loaded from their files; each is registered under a ``pulsebench_`` name,
which its dataclasses look up.
"""

import importlib.util
import sys
from pathlib import Path

PULSEBENCH = Path(__file__).resolve().parents[1] / "pulsebench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"pulsebench_{name}", PULSEBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
gate = load("gate")


def all_cases():
    """Every case of every workload, each on the full grid and then on the smoke grid."""
    return [case for name in workloads.WORKLOADS for full in workloads.workload_cases(name)
            for case in (full, workloads.smoke_case(full))]
