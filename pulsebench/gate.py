"""Correctness gate: compare an op's CSV with the committed reference.

The reference holds, for every case, the emission P and direct absorption
P' on a subsampled omega grid, plus each column's peak |value| over the
full grid. An op passes when

* P and P' match the reference within ``REL_TOL`` of the column's peak, and
* Q equals P' - P up to the CSV's 12 printed significant digits, i.e.
  |Q - (P' - P)| <= 5e-12 (|P| + |P'| + |Q|) for each row, the rounding
  of the three printed values.

Traced ops are also checked in memory: ``observe`` requires Q == P' - P
bit for bit on every spectrum a layer returned, and reads the gauges
(sizes, sum-rule deviation, |G1(0) + G2(0) - T| / T) from the same values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")
CSV_HEADER = "omega,emission,direct_absorption,net_absorption"
#: "the same spectra" in the sense of the project's roadmap
REL_TOL = 1e-10
#: half a unit in the 12th significant digit of the CSV's %.11e format, plus
#: a hair for parsing the decimal text back to binary
PRINT_TOL = 5.001e-12


@dataclass(frozen=True)
class Reference:
    n_omega: int
    stride: int
    emission: np.ndarray
    direct: np.ndarray
    peak_emission: float
    peak_direct: float

    @classmethod
    def from_columns(cls, emission: np.ndarray, direct: np.ndarray,
                     stride: int) -> "Reference":
        return cls(n_omega=emission.size, stride=stride,
                   emission=emission[::stride].copy(),
                   direct=direct[::stride].copy(),
                   peak_emission=float(np.max(np.abs(emission))),
                   peak_direct=float(np.max(np.abs(direct))))

    def to_json(self) -> dict:
        return {"n_omega": self.n_omega, "stride": self.stride,
                "peak_emission": self.peak_emission,
                "peak_direct": self.peak_direct,
                "emission": self.emission.tolist(),
                "direct": self.direct.tolist()}

    @classmethod
    def from_json(cls, d: dict) -> "Reference":
        return cls(n_omega=d["n_omega"], stride=d["stride"],
                   emission=np.array(d["emission"], dtype=float),
                   direct=np.array(d["direct"], dtype=float),
                   peak_emission=d["peak_emission"],
                   peak_direct=d["peak_direct"])


def load_references(path: Path = REFERENCE_PATH) -> dict[str, Reference]:
    with open(path) as f:
        return {k: Reference.from_json(v) for k, v in json.load(f)["cases"].items()}


def read_csv(path: Path) -> np.ndarray:
    """The four CSV columns as a (4, M) array; raises ValueError on a bad file."""
    with open(path) as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    if data.shape[1] != 4:
        raise ValueError(f"expected 4 CSV columns, got {data.shape[1]}")
    return data.T


def deviation(columns: np.ndarray, ref: Reference) -> float:
    """Largest |P - P_ref| and |P' - P'_ref|, each relative to its column's peak."""
    _, p, pp, _ = columns
    if p.size != ref.n_omega:
        return float("inf")
    s = ref.stride
    dev_p = np.max(np.abs(p[::s] - ref.emission)) / ref.peak_emission
    dev_pp = np.max(np.abs(pp[::s] - ref.direct)) / ref.peak_direct
    return float(max(dev_p, dev_pp))


def net_is_difference(columns: np.ndarray) -> bool:
    """Q = P' - P to the printed precision, on every row."""
    _, p, pp, q = columns
    slack = PRINT_TOL * (np.abs(p) + np.abs(pp) + np.abs(q))
    return bool(np.all(np.abs(q - (pp - p)) <= slack))


def check_csv(path: Path, ref: Reference) -> tuple[bool, float]:
    """(passed, deviation) of one op's output against its reference."""
    try:
        columns = read_csv(path)
    except (OSError, ValueError):
        return False, float("inf")
    dev = deviation(columns, ref)
    return dev <= REL_TOL and net_is_difference(columns), dev


def sum_rule_dev(spec, kernel) -> float:
    """|int P domega / 2pi / G1(0) - 1| on the spectrum's own grid."""
    p, omega = spec.emission, spec.omega
    lhs = np.sum((p[1:] + p[:-1]) * np.diff(omega)) / 2.0 / (2.0 * np.pi)
    return float(abs(lhs / kernel.g1[0].real - 1.0))


def observe(calls) -> tuple[dict[str, float], bool]:
    """Gauges of one traced op and whether every in-memory Q equals P' - P."""
    kernels = [r for name, _, r in calls if name == "correlations.kernel"]
    transforms = [(a, r) for name, a, r in calls if name == "spectra.transform"]
    spectra = [r for name, _, r in calls
               if name in ("spectra.transform", "spectra.average")]
    schedules = [r for name, _, r in calls if name == "sequences.schedule"]
    gauges = {}
    if kernels:
        gauges["size.n_steps"] = max(len(k.theta_grid) - 1 for k in kernels)
        gauges["size.n_deltas"] = len(kernels)
        gauges["check.g_identity_err"] = max(
            abs(k.g1[0].real + k.g2[0].real - k.params.t_end) / k.params.t_end
            for k in kernels)
    if transforms:
        gauges["size.n_omega"] = max(s.omega.size for _, s in transforms)
        gauges["check.sum_rule_dev"] = max(sum_rule_dev(s, a[0])
                                           for a, s in transforms)
    if schedules:
        gauges["size.n_pulses"] = max(len(s.events) for s in schedules)
    q_exact = all(np.array_equal(s.net_absorption,
                                 s.direct_absorption - s.emission)
                  for s in spectra)
    return gauges, q_exact
