"""Byte-for-byte CLI output pinned in ``tests/golden``.

Each case is one CLI invocation; its standard output must equal the stored
file exactly.  They pin the reports (witnesses, core flags, tables) that a
refactor must keep byte-identical.  Every case is pinned as ``--format json``
and the cases in ``PLAIN`` also as text and CSV.  To capture a new case, run
the CLI with the same arguments and redirect standard output into
``tests/golden/<name>.json`` (``.txt``, ``.csv``).
"""

from pathlib import Path

import pytest

from subdepth.cli import main

GOLDEN = Path(__file__).parent / "golden"

PSL2_13 = "(1,2,3,4,5,6,7,8,9,10,11,12,13);(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)"
BOREL_13 = "(1,2,3,4,5,6,7,8,9,10,11,12,13);(2,5,4,13,10,11)(3,9,7,12,6,8)"

CASES = {
    "depth_s4_v4": ["depth", "--group", "S4", "--subgroup", "V4"],
    "depth_s4_d8": ["depth", "--group", "S4", "--subgroup", "D8"],
    "depth_s4_s3": ["depth", "--group", "S4", "--subgroup", "S3"],
    "depth_a2": ["depth", "--group", "A:n=2", "--subgroup", "A:n=2"],
    "depth_b2": ["depth", "--group", "B:n=2", "--subgroup", "B:n=2"],
    "depth_s7_s6": ["depth", "--group", "(1,2);(1,2,3,4,5,6,7)",
                    "--subgroup", "(1,2);(1,2,3,4,5,6)", "--degree", "7"],
    "family_a1_verify": ["family", "--series", "A", "--n", "1", "--verify"],
    "family_a2_verify": ["family", "--series", "A", "--n", "2", "--verify"],
    "family_b2_verify": ["family", "--series", "B", "--n", "2", "--verify"],
    "family_b3": ["family", "--series", "B", "--n", "3"],
    "family_c1_verify": ["family", "--series", "C", "--n", "1", "--verify"],
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
    # PSL(2,13) on the projective line and its Borel subgroup: values of
    # conductors 13 and 7
    "table_psl2_13": ["table", "--group", PSL2_13],
    "depth_psl2_13_borel": ["depth", "--group", PSL2_13, "--subgroup", BOREL_13],
    # S4 > S3 moved onto the points 297-300: a group on more than 256 points
    "table_s4_at_300": ["table", "--group", "(297,298);(297,298,299,300)", "--degree", "300"],
    "depth_s4_s3_at_300": ["depth", "--group", "(297,298);(297,298,299,300)",
                           "--subgroup", "(297,298);(297,298,299)", "--degree", "300"],
}

# the cases also pinned in the text and CSV formats
PLAIN = ("depth_s4_d8", "depth_a2", "table_s4", "family_a2_verify", "lemma_a2")
SUFFIX = {"json": "json", "text": "txt", "csv": "csv"}


def check_golden(name, fmt, capsys):
    assert main(CASES[name] + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.{SUFFIX[fmt]}").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json(name, capsys):
    check_golden(name, "json", capsys)


@pytest.mark.parametrize("fmt", ("text", "csv"))
@pytest.mark.parametrize("name", PLAIN)
def test_golden_text_and_csv(name, fmt, capsys):
    check_golden(name, fmt, capsys)


def test_every_golden_file_is_pinned():
    """A file in ``tests/golden`` that no case reads would go stale unseen."""
    pinned = {f"{name}.json" for name in CASES}
    pinned |= {f"{name}.{suffix}" for name in PLAIN for suffix in ("txt", "csv")}
    pinned.add("reproduce_details.json")  # read by tests/test_acceptance.py
    assert {p.name for p in GOLDEN.iterdir()} - pinned == set()
