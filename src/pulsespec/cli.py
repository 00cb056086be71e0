"""Batch front-end: configure a run, execute the pipeline, write results.

Configuration comes from command-line flags only. Results go to a CSV (one
row per frequency) with a ``<output>.meta`` sidecar recording every resolved
parameter, the emission sum rule on every grid (single runs and averages
alike), the kernel and transform methods, the warnings raised, the problem
sizes and the package and numpy versions. ``python -m pulsespec``, ``python
-m pulsespec.cli`` and the ``pulsespec`` console script run the same ``main``.

Every CSV value is written exactly as ``"%.11e" % x`` writes it. The text
of the whole table is built in a few numpy passes (``_format_e11``); ``%``
itself formats only the values outside that fast path's proven range.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from . import __version__
from .core import (PulseAxis, PulseSchedule, SimParams, SpectrumResult, check_mixture,
                   default_omega_grid)
from .dynamics import stable_step
from .sequences import no_drive_schedule, periodic_schedule, uhrig_schedule
from .spectra import detuning_average, emission_sum_rule

#: protocol -> the schedule inputs it takes, of tau, t_end and n_pulses
_TAKES = {"none": {"t_end"}, "px": {"tau", "n_pulses"}, "pxpy": {"tau", "n_pulses"},
          "pz": {"tau", "n_pulses"}, "uhrig": {"t_end", "n_pulses"}}
PROTOCOLS = tuple(_TAKES)
_PERIODIC = {"px": [PulseAxis.X], "pxpy": [PulseAxis.X, PulseAxis.Y],
             "pz": [PulseAxis.Z]}
CSV_HEADER = "omega,emission,direct_absorption,net_absorption"

#: RunConfig field -> argparse keywords of its flag, one entry per run input.
#: The flag is ``--name`` with '-' for '_'; ``output_path`` is ``--output``/``-o``.
_FLAGS = {
    "protocol": dict(choices=PROTOCOLS),
    "delta": dict(type=float),
    "gamma": dict(type=float),
    "n_pulses": dict(type=int),
    "tau": dict(type=float),
    "t_end": dict(type=float),
    "dt": dict(type=float),
    "omega_min": dict(type=float),
    "omega_max": dict(type=float),
    "omega_step": dict(type=float),
    "output_path": dict(metavar="CSV"),
    "average_deltas": dict(metavar="D:W,D:W,...",
                           help="detuning:weight pairs for ensemble averaging"),
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """The run inputs, a field per ``_FLAGS`` entry in its order; ``validate`` checks them."""

    protocol: str | None = None
    delta: float | None = None  # 0 for a single run; not set with average_deltas
    gamma: float = 2.0
    n_pulses: int | None = None
    tau: float | None = None
    t_end: float | None = None
    dt: float = 1e-3
    omega_min: float = -40.0
    omega_max: float = 40.0
    omega_step: float = 0.025
    output_path: str | None = None
    average_deltas: list[tuple[float, float]] | None = None

    def validate(self) -> tuple[PulseSchedule, SimParams, np.ndarray, tuple[np.ndarray, ...]]:
        """Check the configuration; return the schedule, SimParams, omega grid and mixture.

        The mixture is ``check_mixture`` of the ``average_deltas`` pairs, or of
        delta (0 if unset) with weight one; its errors name that flag.
        """
        if self.protocol is None:
            raise ConfigError("protocol: required")
        if not self.output_path:
            raise ConfigError("output: required")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol: must be one of {'/'.join(PROTOCOLS)}, "
                              f"got {self.protocol!r}")
        takes = _TAKES[self.protocol]
        for name in ("tau", "t_end", "n_pulses"):
            given = vars(self)[name] is not None
            if name in takes and not given:
                raise ConfigError(f"{name}: required for protocol {self.protocol!r}")
            if given and name not in takes:  # only the periodic protocols derive t_end
                raise ConfigError(
                    f"{name}: derived as n_pulses*tau for protocol {self.protocol!r}, "
                    f"do not set it" if name == "t_end" else
                    f"{name}: not applicable to protocol {self.protocol!r}"
                )
        if self.average_deltas is not None and self.delta is not None:
            raise ConfigError("delta: not applicable with average_deltas")
        try:
            schedule = self.build_schedule()
            params = self.build_params(schedule.window_end)
            flag, pairs = "average_deltas", self.average_deltas
            if self.average_deltas is None:
                flag, pairs = "delta", [(0.0 if self.delta is None else self.delta, 1.0)]
            try:  # a ConfigError keeps its text through the handler below
                mixture = check_mixture([d for d, _ in pairs], [w for _, w in pairs])
            except ValueError as exc:
                raise ConfigError(f"{flag}: {exc}") from None
            stable_step(params.dt, mixture[0], params.gamma)
            return schedule, params, default_omega_grid(self.omega_min, self.omega_max,
                                                        self.omega_step), mixture
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(str(exc)) from None

    def build_schedule(self) -> PulseSchedule:
        if self.protocol == "none":
            return no_drive_schedule(self.t_end)
        if self.protocol == "uhrig":
            return uhrig_schedule(self.n_pulses, self.t_end)
        return periodic_schedule(_PERIODIC[self.protocol], self.tau, self.n_pulses)

    def build_params(self, t_end: float) -> SimParams:
        return SimParams(gamma=self.gamma, t_end=t_end, dt=self.dt)


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on bad flags; surface them as ConfigError
    # instead so the caller controls the exit code.
    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser of one flag per ``_FLAGS`` entry, default None."""
    p = _Parser(prog="pulsespec", add_help=True, allow_abbrev=False, description=__doc__)
    for field, kwargs in _FLAGS.items():
        flags = ["--" + field.replace("_", "-")] if field != "output_path" else ["--output", "-o"]
        p.add_argument(*flags, dest=field, **kwargs)
    return p


def _parse_average(text: str) -> list[tuple[float, float]]:
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            d, w = item.split(":")
            pairs.append((float(d), float(w)))
        except ValueError:
            raise ConfigError(
                f"average_deltas: expected delta:weight pairs, got {item!r}"
            ) from None
    if not pairs:
        raise ConfigError("average_deltas: no pairs given")
    return pairs


def parse_config(args: list[str]) -> RunConfig:
    """Resolve, not validate, a RunConfig from the flags given."""
    given = {k: v for k, v in vars(_build_parser().parse_args(args)).items() if v is not None}
    if "average_deltas" in given:
        given["average_deltas"] = _parse_average(given["average_deltas"])
    return RunConfig(**given)


#: the four ASCII digits of 0..9999 as uint8 rows, by broadcasting (no division)
_ASCII = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_QUADS = np.stack(np.broadcast_arrays(_ASCII[:, None, None, None], _ASCII[:, None, None],
                                      _ASCII[:, None], _ASCII), axis=-1).reshape(10000, 4)
#: the same, each row read as one uint32
_DIGITS4 = _QUADS.view(np.uint32)[:, 0]
#: b"e+dd" or b"e-dd" of the decimal exponents -50..49 (entry e + 50), as uint32
_EXPONENTS = np.column_stack([
    np.full(100, ord("e"), np.uint8),
    np.where(np.arange(-50, 50) < 0, ord("-"), ord("+")).astype(np.uint8),
    _QUADS[np.abs(np.arange(-50, 50)), 2:],
]).view(np.uint32)[:, 0]
#: 10^k for k = 0..22, every one an exact double
_POW10 = np.array([float(10 ** k) for k in range(23)])


def _format_e11(table: np.ndarray) -> bytes:
    """CSV text of a 2-d table, each value exactly as ``"%.11e" % x``.

    Values are separated by commas, rows by newlines; there is no final
    newline. Each value gets a 20-byte slot of five uint32 words, filled for
    the whole table at once: the separator before it, a filler byte, the
    sign, then d0 '.' d1..d3 | d4..d7 | d8..d11 | e±dd. Filler bytes are zero
    and one mask drops them.

    Fast path: with e = floor(log10|x|) and k = 11 - e, |k| <= 22 makes
    10^|k| exact, so m = |x|*10^k (or |x|/10^-k) is one correctly rounded
    operation, within 2^-14 of the exact product for m < 2^40. Where
    1e11 <= m, rint(m) < 1e12 and |m - rint(m)| <= 0.5 - 1e-4, the exact
    product rounds to the same integer, so rint(m) is the correctly rounded
    12-digit mantissa and e the exponent, however log10 rounds near a power
    of ten. Every other value goes through ``%`` itself: zeros, subnormals,
    |k| > 22, ties and near-ties, inf, nan and a mantissa that rounds up to
    1e12.
    """
    x = table.ravel()
    ax = np.abs(x)
    with np.errstate(all="ignore"):
        k = 11.0 - np.floor(np.log10(ax))
        fast = np.abs(k) <= 22
        k = np.where(fast, k, 0.0).astype(np.intp)
        p = _POW10[np.abs(k)]
        m = np.where(k >= 0, ax * p, ax / p)
        r = np.rint(m)
        fast &= (m >= 1e11) & (r < 1e12) & (np.abs(m - r) <= 0.5 - 1e-4)
    q = np.where(fast, r, 1e11).astype(np.int64)
    words = np.empty((x.size, 5), np.uint32)
    words[:, 1] = _DIGITS4[q // 10**8]
    words[:, 2] = _DIGITS4[q // 10**4 % 10**4]
    words[:, 3] = _DIGITS4[q % 10**4]
    words[:, 4] = _EXPONENTS[61 - k]  # e + 50
    slots = words.view(np.uint8)
    slots[:, 0] = ord(",")
    slots[::table.shape[1], 0] = ord("\n")
    slots[0, 0] = 0
    slots[:, 1] = 0
    slots[:, 2] = np.where(x < 0, ord("-"), 0)
    slots[:, 3] = slots[:, 4]
    slots[:, 4] = ord(".")
    for i in np.flatnonzero(~fast):
        text = b"%.11e" % x[i]
        slots[i, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
        slots[i, 1 + len(text):] = 0
    return slots[slots != 0].tobytes()


def _write_csv(f: BinaryIO, spec: SpectrumResult) -> None:
    """Write the spectrum as CSV to ``f``: a header, then one row per frequency.

    Each value is written exactly as ``"%.11e" % x`` would write it; the
    text of the whole table comes from ``_format_e11``.
    """
    rows = np.column_stack([spec.omega, spec.emission, spec.direct_absorption,
                            spec.net_absorption])
    f.write(b"%s\n%s\n" % (CSV_HEADER.encode(), _format_e11(rows)))


def _meta_value(value) -> str:
    return "" if value is None else value if isinstance(value, str) else format(value, ".17g")


def _write_metadata(f: BinaryIO, config: RunConfig, spec: SpectrumResult, deltas: np.ndarray,
                    sum_rule: tuple[float, float], notes: list[str]) -> None:
    """Write the .meta record; ``deltas`` are the detunings computed, from ``validate``.

    It opens with the RunConfig fields but the output path, delta, t_end and
    average_deltas as resolved (delta empty for an average); ``_meta_value``
    writes every value.
    """
    params = spec.kernel.params
    pairs = ",".join(f"{d:.17g}:{w:.17g}" for d, w in config.average_deltas or ())
    record = dict(vars(config), delta=None if pairs else deltas[0], t_end=params.t_end,
                  average_deltas=pairs)
    del record["output_path"]
    record["schedule_digest"] = spec.kernel.schedule_digest + (f" avg[{pairs}]" if pairs else "")
    record["sum_rule_lhs"], record["sum_rule_rhs"] = sum_rule
    record.update(kernel_method="stretch-impulses", transform_method="chirp-z",
                  warnings=" | ".join(notes), n_steps=params.n_steps, n_omega=spec.omega.size,
                  n_deltas=deltas.size, pulsespec_version=__version__,
                  numpy_version=np.__version__)
    f.write("".join(f"{key}={_meta_value(value)}\n" for key, value in record.items()).encode())


@contextlib.contextmanager
def _opened_outputs(paths: list[str]) -> Iterator[list[BinaryIO]]:
    """Open every output once, before computing: an unwritable path raises OSError.

    A file that exists is opened for appending and keeps its contents until
    the outputs are written; on an error, every file this run created is removed.
    """
    files, created = [], []
    try:
        for path in paths:
            try:
                files.append(open(path, "xb"))
                created.append(path)
            except FileExistsError:
                files.append(open(path, "ab"))
        yield files
    except BaseException:
        for f in files:
            f.close()
        for path in created:
            os.remove(path)
        raise
    finally:
        for f in files:
            f.close()


def run(config: RunConfig) -> SpectrumResult:
    """Execute the pipeline and write the outputs; warnings go to stderr and .meta.

    The configuration is validated and each output opened before computing.
    """
    schedule, params, omega, (deltas, weights) = config.validate()
    with _opened_outputs([config.output_path, config.output_path + ".meta"]) as files:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spec = detuning_average(schedule, params, deltas, weights, omega)
            if not (np.isfinite(spec.emission).all()
                    and np.isfinite(spec.direct_absorption).all()):
                raise ArithmeticError("the spectrum is not finite; nothing written")
            sum_rule = emission_sum_rule(spec)
        notes = list(dict.fromkeys(str(w.message) for w in caught))
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)

        for f in files:
            if f.seekable() and f.tell():  # an existing file, opened for appending
                f.truncate(0)
        _write_csv(files[0], spec)
        _write_metadata(files[1], config, spec, deltas, sum_rule, notes)
    return spec


def main(argv: list[str] | None = None) -> int:
    try:
        run(parse_config(sys.argv[1:] if argv is None else argv))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, ArithmeticError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
