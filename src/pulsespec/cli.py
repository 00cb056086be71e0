"""Batch front-end: configure a run, execute the pipeline, write results.

Configuration comes from command-line flags, optionally layered on top of a
plain ``key=value`` file (a ``#`` at the start of a line or after whitespace
starts a comment); flags win. Results go to a CSV (one row per frequency)
with a ``<output>.meta`` sidecar recording every resolved parameter, the
emission sum rule (single runs and detuning averages alike), the kernel and
transform methods, the warnings raised, the problem sizes and the package
and numpy versions, and optionally a gnuplot script, which may not share a
path with either. ``python -m pulsespec`` and ``python -m pulsespec.cli``
run the same front-end.

Every CSV value is written exactly as ``"%.11e" % x`` writes it. The text
of the whole table is built in a few numpy passes (``_format_e11``); ``%``
itself formats only the values outside that fast path's proven range.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import (PulseAxis, PulseSchedule, SimParams, SpectrumResult, check_mixture,
                   default_omega_grid)
from .dynamics import stable_step
from .sequences import no_drive_schedule, periodic_schedule, uhrig_schedule
from .spectra import detuning_average, emission_sum_rule

PROTOCOLS = ("none", "px", "pxpy", "pz", "uhrig")
OBSERVABLES = ("emission", "absorption", "both")
_PERIODIC = {"px": [PulseAxis.X], "pxpy": [PulseAxis.X, PulseAxis.Y],
             "pz": [PulseAxis.Z]}
CSV_HEADER = "omega,emission,direct_absorption,net_absorption"


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    protocol: str
    output_path: str
    delta: float | None = None  # 0 for a single run; not set with average_deltas
    gamma: float = 2.0
    n_pulses: int | None = None
    tau: float | None = None
    t_end: float | None = None
    dt: float = 1e-3
    omega_min: float = -40.0
    omega_max: float = 40.0
    omega_step: float = 0.025
    observable: str = "both"
    average_deltas: list[tuple[float, float]] | None = None
    plot_script: str | None = None

    def validate(self) -> tuple[PulseSchedule, SimParams, np.ndarray, tuple[np.ndarray, ...]]:
        """Check the configuration; return the schedule, SimParams, omega grid and mixture.

        The mixture is ``check_mixture`` of the ``average_deltas`` pairs, or of
        delta (0 if unset) with weight one; its errors name that flag.
        """
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"protocol: must be one of {'/'.join(PROTOCOLS)}, got {self.protocol!r}"
            )
        periodic = self.protocol in _PERIODIC
        if periodic and self.tau is None:
            raise ConfigError(f"tau: required for protocol {self.protocol!r}")
        if not periodic and self.tau is not None:
            raise ConfigError(f"tau: not applicable to protocol {self.protocol!r}")
        if not periodic and self.t_end is None:
            raise ConfigError(f"t_end: required for protocol {self.protocol!r}")
        if periodic and self.t_end is not None:
            raise ConfigError(
                f"t_end: derived as n_pulses*tau for protocol {self.protocol!r}, "
                f"do not set it"
            )
        if self.protocol != "none" and self.n_pulses is None:
            raise ConfigError(f"n_pulses: required for protocol {self.protocol!r}")
        if self.protocol == "none" and self.n_pulses is not None:
            raise ConfigError("n_pulses: not applicable to protocol 'none'")
        if self.observable not in OBSERVABLES:
            raise ConfigError(
                f"observable: must be one of {'/'.join(OBSERVABLES)}, "
                f"got {self.observable!r}"
            )
        if not self.output_path:
            raise ConfigError("output: required")
        if self.plot_script and os.path.realpath(self.plot_script) in {
                os.path.realpath(self.output_path + end) for end in ("", ".meta")}:
            raise ConfigError("plot_script: must differ from the output CSV and its .meta")
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
    p = _Parser(prog="pulsespec", add_help=True, description=__doc__)
    p.add_argument("--config", metavar="FILE", help="key=value configuration file")
    p.add_argument("--protocol", choices=PROTOCOLS)
    p.add_argument("--delta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--n-pulses", type=int, dest="n_pulses")
    p.add_argument("--tau", type=float)
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--dt", type=float)
    p.add_argument("--omega-min", type=float, dest="omega_min")
    p.add_argument("--omega-max", type=float, dest="omega_max")
    p.add_argument("--omega-step", type=float, dest="omega_step")
    p.add_argument("--observable", choices=OBSERVABLES)
    p.add_argument("--output", "-o", dest="output_path", metavar="CSV")
    p.add_argument("--average-deltas", dest="average_deltas", metavar="D:W,D:W,...",
                   help="detuning:weight pairs for ensemble averaging")
    p.add_argument("--plot-script", dest="plot_script", metavar="FILE",
                   help="also write a gnuplot script referencing the CSV")
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


@functools.cache
def _config_keys() -> dict[str, tuple[str, type]]:
    """Config-file key -> (RunConfig field, value parser), one per flag.

    Read off the parser's own flags, so each key is declared once; the file
    key is the field name, except ``output`` for ``output_path``.
    """
    keys = {}
    for action in _build_parser()._actions:
        if action.dest in ("help", "config"):
            continue
        key = "output" if action.dest == "output_path" else action.dest
        keys[key] = (action.dest, action.type or str)
    return keys


def _read_config_file(path: str, keys: dict) -> dict:
    """Values of a UTF-8 key=value file, by RunConfig field; ``keys`` as _config_keys."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    values = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        # a '#' at the start of a line or after whitespace starts a comment
        line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        dest, parse = keys[key]
        try:
            values[dest] = parse(value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: {key}: cannot parse {value!r}"
            ) from None
    return values


def parse_config(args: list[str]) -> RunConfig:
    """Resolve, not validate, a RunConfig from flags over an optional ``--config`` file."""
    ns = _build_parser().parse_args(args)
    keys = _config_keys()
    merged = _read_config_file(ns.config, keys) if ns.config else {}
    for dest, _ in keys.values():
        flag = getattr(ns, dest)
        if flag is not None:
            merged[dest] = flag

    if "protocol" not in merged:
        raise ConfigError("protocol: required")
    if "output_path" not in merged:
        raise ConfigError("output: required")
    if isinstance(merged.get("average_deltas"), str):
        merged["average_deltas"] = _parse_average(merged["average_deltas"])

    defaults = RunConfig(protocol=merged["protocol"],
                         output_path=merged["output_path"])
    for key, value in merged.items():
        setattr(defaults, key, value)
    return defaults


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


def _write_csv(path: str, spec: SpectrumResult) -> None:
    """Write the spectrum as CSV: a header, then one row per frequency.

    Each value is written exactly as ``"%.11e" % x`` would write it; the
    text of the whole table comes from ``_format_e11``.
    """
    rows = np.column_stack([spec.omega, spec.emission, spec.direct_absorption,
                            spec.net_absorption])
    with open(path, "wb") as f:
        f.write(CSV_HEADER.encode() + b"\n")
        f.write(_format_e11(rows))
        f.write(b"\n")


def _write_metadata(path: str, config: RunConfig, spec: SpectrumResult, deltas: np.ndarray,
                    sum_rule: tuple[float, float] | None, notes: list[str]) -> None:
    """Write the .meta record; ``deltas`` are the detunings computed, from ``validate``."""
    params, averaged = spec.kernel.params, config.average_deltas is not None
    pairs = ",".join(f"{d:.17g}:{w:.17g}" for d, w in config.average_deltas or ())
    lines = [
        f"protocol={config.protocol}",
        f"delta={'' if averaged else format(deltas[0], '.17g')}",
        f"gamma={config.gamma:.17g}",
        f"n_pulses={'' if config.n_pulses is None else config.n_pulses}",
        f"tau={'' if config.tau is None else format(config.tau, '.17g')}",
        f"t_end={params.t_end:.17g}",
        f"dt={config.dt:.17g}",
        f"omega_min={config.omega_min:.17g}",
        f"omega_max={config.omega_max:.17g}",
        f"omega_step={config.omega_step:.17g}",
        f"observable={config.observable}",
        f"average_deltas={pairs}",
        f"schedule_digest={spec.kernel.schedule_digest}" + (f" avg[{pairs}]" if averaged else ""),
    ]
    if sum_rule is not None:
        lines.append(f"sum_rule_lhs={sum_rule[0]:.17g}")
        lines.append(f"sum_rule_rhs={sum_rule[1]:.17g}")
    lines.append("kernel_method=stretch-impulses")
    lines.append("transform_method=chirp-z")
    lines.append(f"warnings={' | '.join(notes)}")
    lines.append(f"n_steps={params.n_steps}")
    lines.append(f"n_omega={spec.omega.size}")
    lines.append(f"n_deltas={deltas.size}")
    lines.append(f"pulsespec_version={__version__}")
    lines.append(f"numpy_version={np.__version__}")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


_PLOT_COLUMNS = {
    "emission": [("emission", 2)],
    "absorption": [("net absorption", 4)],
    "both": [("emission", 2), ("net absorption", 4)],
}


def _write_plot_script(path: str, csv_path: str, observable: str) -> None:
    curves = ", ".join(
        f"'{csv_path}' using 1:{col} with lines title '{label}'"
        for label, col in _PLOT_COLUMNS[observable]
    )
    body = (
        "set datafile separator ','\n"
        "set xlabel 'omega'\n"
        "set ylabel 'spectrum (arb. units)'\n"
        "set key top right\n"
        f"plot {curves}\n"
    )
    with open(path, "w", newline="\n") as f:
        f.write(body)


def _check_writable(paths: list[str]) -> None:
    """Raise OSError if a path cannot be opened for writing; leave no new file."""
    for path in paths:
        existed = os.path.exists(path)
        with open(path, "a"):
            pass
        if not existed:
            os.remove(path)


def run(config: RunConfig) -> SpectrumResult:
    """Execute the pipeline and write the outputs; warnings go to stderr and .meta.

    The configuration is validated and each output path checked before computing.
    """
    schedule, params, omega, (deltas, weights) = config.validate()
    outputs = [config.output_path, config.output_path + ".meta"]
    if config.plot_script:
        outputs.append(config.plot_script)
    _check_writable(outputs)

    sum_rule = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = detuning_average(schedule, params, deltas, weights, omega)
        if not (np.isfinite(spec.emission).all() and np.isfinite(spec.direct_absorption).all()):
            raise ArithmeticError("the spectrum is not finite; nothing written")
        try:
            sum_rule = emission_sum_rule(spec)
        except ValueError:
            pass  # grid outside the sum rule's validity
    notes = [str(w.message) for w in caught]
    if sum_rule is not None and sum_rule[1] != 0.0:
        deviation = abs(sum_rule[0] / sum_rule[1] - 1.0)
        if deviation > 0.10:
            notes.append(f"emission sum rule off by {deviation:.1%} "
                         f"(lhs={sum_rule[0]:.6g}, rhs={sum_rule[1]:.6g})")
    notes = list(dict.fromkeys(notes))
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)

    _write_csv(config.output_path, spec)
    _write_metadata(config.output_path + ".meta", config, spec, deltas, sum_rule, notes)
    if config.plot_script:
        _write_plot_script(config.plot_script, config.output_path,
                           config.observable)
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


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
