"""Byte-for-byte CLI output pinned in ``tests/golden``.

Each case is one CLI invocation; its standard output must equal the stored
file exactly.  They pin the reports (witnesses, core flags, tables) that a
refactor must keep byte-identical.  To capture a new case, run the CLI with
the same arguments and redirect standard output into
``tests/golden/<name>.json``.
"""

from pathlib import Path

import pytest

from subdepth.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "depth_s4_v4": ["depth", "--group", "S4", "--subgroup", "V4"],
    "depth_s4_d8": ["depth", "--group", "S4", "--subgroup", "D8"],
    "depth_s4_s3": ["depth", "--group", "S4", "--subgroup", "S3"],
    "depth_a2": ["depth", "--group", "A:n=2", "--subgroup", "A:n=2"],
    "depth_b2": ["depth", "--group", "B:n=2", "--subgroup", "B:n=2"],
    "depth_s7_s6": ["depth", "--group", "(1,2);(1,2,3,4,5,6,7)",
                    "--subgroup", "(1,2);(1,2,3,4,5,6)", "--degree", "7"],
    "family_a2_verify": ["family", "--series", "A", "--n", "2", "--verify"],
    "family_c2_verify": ["family", "--series", "C", "--n", "2", "--verify"],
    "depth_c2": ["depth", "--group", "C:step=2", "--subgroup", "C:step=2"],
    "table_s4": ["table", "--group", "S4"],
    "table_d8": ["table", "--group", "D8"],
    "table_a2": ["table", "--group", "A:n=2"],
    "table_f21": ["table", "--group", "(1,2,3,4,5,6,7);(2,3,5)(4,7,6)"],
    "depth_f21_c3": ["depth", "--group", "(1,2,3,4,5,6,7);(2,3,5)(4,7,6)",
                     "--subgroup", "(2,3,5)(4,7,6)", "--degree", "7"],
    "lemma_a2": ["lemma", "--n", "2"],
    "lemma_a3": ["lemma", "--n", "3"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json(name, capsys):
    assert main(CASES[name] + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text()
