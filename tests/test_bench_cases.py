"""Every benchmark case, full and smoke, passes the benchmark's gate in tier-1.

Each case runs ``cli.main`` with its argv and must write a CSV that matches
the committed reference spectra (``pulsebench/reference.json``) within the
gate's tolerance, with Q = P' - P to the printed digits, and a non-empty
``.meta`` record: the same check a benchmark op passes.
"""

import pytest

from pulsespec import cli

from bench import all_cases, gate


@pytest.fixture(scope="module")
def references():
    return gate.load_references()


@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.key)
def test_case_passes_the_gate(case, references, tmp_path, capsys):
    csv = tmp_path / "out.csv"
    assert cli.main([*case.argv, "--output", str(csv)]) == 0
    capsys.readouterr()
    passed, dev = gate.check_csv(csv, references[case.key])
    assert passed, f"deviation {dev:.3g} of the column peak"
    assert (tmp_path / "out.csv.meta").stat().st_size > 0
