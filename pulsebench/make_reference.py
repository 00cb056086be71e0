#!/usr/bin/env python3
"""Regenerate reference.json: the spectra every benchmark case must reproduce.

    python3 pulsebench/make_reference.py

Runs ``pulsespec.cli.main`` once on every case of every workload, full size
and smoke size, and stores P and P' on a subsampled omega grid together with
each column's peak over the full grid. The committed file was generated from
the initial implementation of pulsespec; regenerate it only on purpose, when
the spectra are meant to change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

#: subsampled points per column is about this many plus one
SAMPLES = 40


def main() -> int:
    run.configure_threads()
    pulsespec = run.import_cli()
    import gate
    import numpy as np

    run.OUT.mkdir(exist_ok=True)
    csv = run.OUT / "reference.csv"
    cases = {}
    for name in workloads.WORKLOADS:
        for case in workloads.workload_cases(name):
            for c in (case, workloads.smoke_case(case)):
                rc = pulsespec.cli.main([*c.argv, "--output", str(csv)])
                if rc != 0:
                    print(f"{c.key}: exit {rc}", file=sys.stderr)
                    return 1
                _, p, pp, _ = gate.read_csv(csv)
                stride = max(1, (p.size - 1) // SAMPLES)
                cases[c.key] = gate.Reference.from_columns(p, pp, stride).to_json()
                print(c.key, p.size, stride, file=sys.stderr)
    csv.unlink()
    csv.with_name(csv.name + ".meta").unlink()
    doc = {"pulsespec": pulsespec.__version__, "numpy": np.__version__,
           "cases": cases}
    with open(gate.REFERENCE_PATH, "w") as f:
        json.dump(doc, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
