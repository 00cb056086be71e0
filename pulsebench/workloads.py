"""Input tables of the pulsespec benchmark and the argv each op receives.

Every input a seed can draw is a ``Case``: a key and the flags passed to
``pulsespec.cli.main``. The seed only shuffles the order in which a
workload's cases are visited; the tables themselves are fixed, so the
committed reference spectra cover every case.

Each case pins dt, gamma and the omega grid explicitly, so a later change
to the CLI defaults cannot change what a workload computes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("paper", "long-window", "detuning-avg")

#: grid of the paper workload and of detuning-avg: N = 2400, M = 3201
PAPER_GRID = ("--dt", "0.001", "--gamma", "2",
              "--omega-min", "-40", "--omega-max", "40", "--omega-step", "0.025")
#: grid of long-window: N = 16000, M = 401
LONG_GRID = ("--dt", "0.001", "--gamma", "2",
             "--omega-min", "-10", "--omega-max", "10", "--omega-step", "0.05")

PAPER_PROTOCOLS = {
    "none": ("--protocol", "none", "--t-end", "2.4"),
    "px": ("--protocol", "px", "--n-pulses", "12", "--tau", "0.2"),
    "pxpy": ("--protocol", "pxpy", "--n-pulses", "12", "--tau", "0.2"),
    "pz": ("--protocol", "pz", "--n-pulses", "12", "--tau", "0.2"),
    "uhrig": ("--protocol", "uhrig", "--n-pulses", "12", "--t-end", "2.4"),
}
PAPER_DELTAS = ("0", "1.5", "3", "6")

LONG_PROTOCOL = ("--protocol", "uhrig", "--n-pulses", "24", "--t-end", "16")
LONG_DELTAS = ("0", "2", "5")

AVERAGE_PROTOCOLS = ("pz", "uhrig")
AVERAGE_CENTRES = (0.0, 3.0, 6.0)
#: nine detunings centre + offset, with fixed weights summing to one
AVERAGE_OFFSETS = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
AVERAGE_WEIGHTS = ("0.04", "0.08", "0.12", "0.16", "0.2",
                   "0.16", "0.12", "0.08", "0.04")

#: smoke mode: the same cases on a coarse grid, for the benchmark's own tests
SMOKE_FLAGS = {"--dt": "0.01", "--omega-step": "0.5"}


@dataclass(frozen=True)
class Case:
    key: str
    argv: tuple[str, ...]


def _average_flag(centre: float) -> str:
    # passed as one "--flag=value" word: the list may start with a minus sign
    return ",".join(f"{centre + off:g}:{w}"
                    for off, w in zip(AVERAGE_OFFSETS, AVERAGE_WEIGHTS))


def workload_cases(name: str) -> list[Case]:
    """Every input of a workload, in table order."""
    if name == "paper":
        return [Case(f"paper/{p}/d{d}", flags + PAPER_GRID + ("--delta", d))
                for p, flags in PAPER_PROTOCOLS.items() for d in PAPER_DELTAS]
    if name == "long-window":
        return [Case(f"long-window/uhrig24/d{d}",
                     LONG_PROTOCOL + LONG_GRID + ("--delta", d))
                for d in LONG_DELTAS]
    if name == "detuning-avg":
        return [Case(f"detuning-avg/{p}/c{c:g}",
                     PAPER_PROTOCOLS[p] + PAPER_GRID
                     + ("--average-deltas=" + _average_flag(c),))
                for p in AVERAGE_PROTOCOLS for c in AVERAGE_CENTRES]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def smoke_case(case: Case) -> Case:
    """The same case on the coarse smoke grid."""
    argv = list(case.argv)
    for i, flag in enumerate(argv[:-1]):
        if flag in SMOKE_FLAGS:
            argv[i + 1] = SMOKE_FLAGS[flag]
    return Case("smoke/" + case.key, tuple(argv))


def op_order(name: str, seed: int, smoke: bool = False) -> list[Case]:
    """The workload's cases in the order the seed picks; ops cycle through it."""
    cases = workload_cases(name)
    random.Random(seed).shuffle(cases)
    return [smoke_case(c) for c in cases] if smoke else cases
