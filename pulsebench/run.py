#!/usr/bin/env python3
"""Benchmark of the pulsespec CLI: one workload per run, closed loop, one caller.

    python3 pulsebench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. Each op
is one call to ``pulsespec.cli.main(argv)`` with flags drawn by the seed from
the input tables in ``workloads.py``. An op must return 0 and write a CSV and
a ``.meta`` file, and the CSV must pass the correctness gate in ``gate.py``.

``--trace 0`` times untraced ops, each between two runs of the fixed
reference computation in ``calibrate.py``, and prints the end-to-end
metrics: op times in units of that reference, which cancels the shared
host's changing speed, plus peak memory and set-up seconds.
``--trace 1`` alternates untraced and traced ops and prints the per-layer
metrics, derived from spans recorded around each layer's public calls
(``spans.py``). The last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the versions and the thread count. ``--smoke`` runs the
same cases on a coarse grid, for the benchmark's own tests.

Exit codes: 0 when a result was printed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from spans import ROOT_SPAN, Tracer

# Modules that import numpy (gate, pulsespec) are imported inside functions,
# after configure_threads: numpy reads the BLAS thread count at import.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".pulsebench"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
#: fresh interpreters timed for setup_s, after one untimed warm-up
SETUP_REPEATS = 9
SETUP_CODE = ("import time; t0 = time.perf_counter(); import pulsespec.cli; "
              "print(time.perf_counter() - t0)")
#: reference runs after an op last about this share of the op's time
REF_SHARE = 0.1
#: timed ops a run makes even when they overrun --seconds
MIN_OPS = 5

END_TO_END = {
    "op_ref_p50": "ref",
    "ops_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: per-layer time metrics: name -> (kind, span); "self" excludes child spans
LAYER_TIMES = {
    "spectra.transform_s": ("total", "spectra.transform"),
    "correlations.kernel_s": ("total", "correlations.kernel"),
    "correlations.kernel_self_s": ("self", "correlations.kernel"),
    "dynamics.trajectory_s": ("total", "dynamics.trajectory"),
    "spectra.average_s": ("total", "spectra.average"),
    "spectra.sum_rule_s": ("total", "spectra.sum_rule"),
    "sequences.schedule_s": ("total", "sequences.schedule"),
    "core.params_s": ("total", "core.params"),
    "cli.main_s": ("total", ROOT_SPAN),
    "cli.self_s": ("self", ROOT_SPAN),
}
#: per-op gauges observed in traced ops: name -> (unit, span they come from)
GAUGES = {
    "size.n_steps": ("count", "correlations.kernel"),
    "size.n_omega": ("count", "spectra.transform"),
    "size.n_pulses": ("count", "sequences.schedule"),
    "size.n_deltas": ("count", "correlations.kernel"),
    "check.sum_rule_dev": ("ratio", "spectra.transform"),
    "check.g_identity_err": ("ratio", "correlations.kernel"),
}
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "cli.bytes_written": "B",
    **{name: unit for name, (unit, _) in GAUGES.items()},
    "check.max_rel_dev": "ratio",
    "trace.overhead_frac": "ratio",
}


class StartError(RuntimeError):
    """The benchmark cannot run in this directory."""


@dataclass
class Op:
    index: int
    case: workloads.Case
    csv: Path
    timed: bool
    traced: bool
    seconds: float = 0.0
    ref_after: float = 0.0  # mean seconds of the reference runs right after the op
    rc: int | None = None  # None when cli.main raised
    passed: bool = False
    deviation: float = float("inf")
    bytes_written: int = 0
    gauges: dict[str, float] = field(default_factory=dict)
    q_exact: bool = True


def configure_threads() -> int:
    """Run BLAS on one thread; numpy reads the setting at import.

    The transform's matrix-vector products are too small to split: on two
    cores a second BLAS thread doubled the CPU time of a paper op and left
    its wall time unchanged, while adding contention that widens the spread.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import pulsespec
        import pulsespec.cli
    except ImportError as exc:
        raise StartError(f"cannot import pulsespec from {SRC}: {exc}") from None
    if SRC.resolve() not in Path(pulsespec.__file__).resolve().parents:
        raise StartError(f"pulsespec was imported from {pulsespec.__file__}, not {SRC}")
    return pulsespec


def measure_setup(repeats: int) -> list[float]:
    """Seconds a fresh interpreter takes to import pulsespec.cli, one per spawn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    times = []
    for i in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise StartError(f"fresh interpreter cannot import pulsespec.cli:\n"
                             f"{proc.stderr.strip()}")
        if i:  # the first spawn warms the page and bytecode caches
            times.append(float(proc.stdout))
    return times


def run_ops(cli_main, order, seconds: float, tracer: Tracer | None) -> list[Op]:
    """Closed loop, one caller: a warm-up op, then timed ops for ``seconds``.

    A timed op starts only if it is expected to end by the deadline. With a
    tracer every second timed op runs traced. Without one, the reference
    computation runs after every op, so each timed op lies between two
    stretches of reference runs.
    """
    import calibrate
    import gate

    ops: list[Op] = []

    def one(timed: bool, traced: bool) -> Op:
        i = len(ops)
        op = Op(i, order[i % len(order)], OUT / f"op{i:05d}.csv", timed, traced)
        argv = [*op.case.argv, "--output", str(op.csv)]
        if traced:
            tracer.op = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                op.rc = tracer.call(ROOT_SPAN, cli_main, argv)
            else:
                op.rc = cli_main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            print(f"op {i} ({op.case.key}) raised {exc!r}", file=sys.stderr)
        op.seconds = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            try:
                op.gauges, op.q_exact = gate.observe(tracer.calls)
            except (AttributeError, IndexError, TypeError) as exc:
                print(f"op {i}: cannot read gauges: {exc!r}", file=sys.stderr)
            tracer.calls.clear()
        elif tracer is None:
            op.ref_after = calibrate.reference_seconds_for(REF_SHARE * op.seconds)
        ops.append(op)
        return op

    if tracer is None:
        calibrate.reference_seconds_for(0.0)  # warm-up
    one(timed=False, traced=False)
    start = time.perf_counter()
    n = 0
    while True:
        one(timed=True, traced=tracer is not None and n % 2 == 1)
        n += 1
        now = time.perf_counter()
        if n >= MIN_OPS and now + (now - start) / n > start + seconds:
            break
    return ops


def apply_gate(ops: list[Op], refs) -> None:
    import gate

    for op in ops:
        meta = Path(str(op.csv) + ".meta")
        if op.rc == 0 and op.csv.is_file() and meta.is_file():
            op.passed, op.deviation = gate.check_csv(op.csv, refs[op.case.key])
            op.passed = op.passed and op.q_exact and meta.stat().st_size > 0
            op.bytes_written = op.csv.stat().st_size + meta.stat().st_size
        op.csv.unlink(missing_ok=True)
        meta.unlink(missing_ok=True)


def op_refs(ops: list[Op]) -> list[float]:
    """Each timed op's seconds over the mean of the reference runs around it."""
    return [op.seconds / (0.5 * (before.ref_after + op.ref_after))
            for before, op in zip(ops, ops[1:]) if op.timed]


def end_to_end_metrics(ops: list[Op], peak_rss_mb: float,
                       setup: list[float]) -> dict[str, float]:
    refs = op_refs(ops)
    return {
        "op_ref_p50": statistics.median(refs),
        "ops_per_ref": len(refs) / sum(refs),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }


def per_layer_metrics(ops: list[Op], tracer: Tracer) -> dict[str, float]:
    traced = [op for op in ops if op.timed and op.traced]
    untraced = [op.seconds for op in ops if op.timed and not op.traced]
    absent = set(tracer.absent)
    metrics: dict[str, float] = {}
    per_op = [tracer.op_times(op.index) for op in traced]
    for name, (kind, span) in LAYER_TIMES.items():
        if span in absent or (kind == "self" and absent):
            continue
        values = [(total if kind == "total" else self_time).get(span, 0.0)
                  for total, self_time in per_op]
        metrics[name] = statistics.median(values)
    metrics["cli.bytes_written"] = statistics.median(op.bytes_written for op in ops)
    for name, (_, span) in GAUGES.items():
        values = [op.gauges[name] for op in traced if name in op.gauges]
        if span not in absent and values:
            metrics[name] = max(values)
    metrics["check.max_rel_dev"] = max(op.deviation for op in ops)  # inf if one failed
    metrics["trace.overhead_frac"] = (
        statistics.median(op.seconds for op in traced)
        / statistics.median(untraced) - 1.0)
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="coarse grid and a single setup sample")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    threads = configure_threads()
    try:
        pulsespec = import_cli()
        import gate
        import numpy as np

        refs = gate.load_references()
        order = workloads.op_order(args.workload, args.seed, smoke=args.smoke)
        missing = [c.key for c in order if c.key not in refs]
        if missing:
            raise StartError(f"no reference spectra for {', '.join(missing)}")
        setup = measure_setup(1 if args.smoke else SETUP_REPEATS)
    except (StartError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"pulsebench: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    ops = run_ops(pulsespec.cli.main, order, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    apply_gate(ops, refs)

    if tracer:
        metrics = per_layer_metrics(ops, tracer)
        units = PER_LAYER
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_file, "w") as f:
            json.dump(tracer.to_json(), f)
    else:
        metrics = end_to_end_metrics(ops, peak_rss_mb, setup)
        units = END_TO_END
    # a value that cannot be measured (a failed op's deviation) is absent
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v)}
    failed = sum(not op.passed for op in ops)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "nproc": os.cpu_count(), "blas_threads": threads,
        "python": platform.python_version(), "numpy": np.__version__,
        "pulsespec": getattr(pulsespec, "__version__", "unknown"),
        "ops_timed": sum(op.timed for op in ops),
        "op_s_quartiles": statistics.quantiles(
            [op.seconds for op in ops if op.timed and not op.traced], n=4),
        "reference_s_p50": (statistics.median(op.ref_after for op in ops)
                            if not tracer else None),
        "failed_cases": sorted({op.case.key for op in ops if not op.passed}),
        "absent": sorted(set(units) - set(metrics)),
        "setup_samples_s": setup,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
