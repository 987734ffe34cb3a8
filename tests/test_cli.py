import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subdepth import cli
from subdepth.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_depth_subcommand(capsys):
    code, out, _ = run_cli(capsys, "depth", "--group", "S4", "--subgroup", "V4",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["depth"] == 2 and obj["schema"] == 1
    assert obj["criteria"]["normal"] is True


def test_depth_d8(capsys):
    code, out, _ = run_cli(capsys, "depth", "--group", "S4", "--subgroup", "D8")
    assert code == 0
    assert "depth = 4" in out


def test_json_determinism(capsys):
    _, first, _ = run_cli(capsys, "depth", "--group", "S4", "--subgroup", "S3",
                          "--format", "json")
    _, second, _ = run_cli(capsys, "depth", "--group", "S4", "--subgroup", "S3",
                           "--format", "json")
    assert first == second
    assert json.loads(first)["depth"] == 5


def test_table_formats(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "V4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 characters
    assert lines[0].startswith("degree,()")
    code, out, _ = run_cli(capsys, "table", "--group", "S4", "--format", "json")
    obj = json.loads(out)
    assert obj["kind"] == "character_table" and obj["order"] == 24
    assert [c["size"] for c in obj["classes"]] == [1, 3, 6, 6, 8]


def test_table_raw_generators(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "(1,2);(1,2,3)",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_table_prime_override(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "S4", "--prime", "37",
                           "--format", "json")
    assert code == 0
    _, reference, _ = run_cli(capsys, "table", "--group", "S4", "--format", "json")
    assert out == reference
    code, _, err = run_cli(capsys, "table", "--group", "S4", "--prime", "11")
    assert code == 2 and "error" in err


def test_family_subcommand(capsys):
    code, out, _ = run_cli(capsys, "family", "--series", "A", "--n", "2",
                           "--verify", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["expected_depth"] == 4 and obj["computed_depth"] == 4 and obj["verified"]


def test_family_specs_in_depth(capsys):
    code, out, _ = run_cli(capsys, "depth", "--group", "A:n=2",
                           "--subgroup", "A:n=2", "--format", "json")
    assert code == 0
    assert json.loads(out)["depth"] == 4


def test_depth_builds_a_family_member_once(capsys, monkeypatch):
    calls = []
    build = cli.family

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "family", counting)
    code, out, _ = run_cli(capsys, "depth", "--group", "A:n=2",
                           "--subgroup", "A:n=2", "--format", "json")
    assert code == 0 and json.loads(out)["depth"] == 4
    assert calls == [("A", 2)]


@pytest.mark.parametrize("argv", [
    ["table", "--group", "S4", "--format", "json"],
    ["depth", "--group", "S4", "--subgroup", "D8"],
])
def test_closed_stdout_exits_quietly(argv):
    # standard output is a pipe whose read end is already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from subdepth.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""


def test_lemma_subcommand(capsys):
    code, out, _ = run_cli(capsys, "lemma", "--n", "2")
    assert code == 0
    assert "all PASS" in out


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["depth", "--group", "S4"])  # missing --subgroup
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "depth", "--group", "S4", "--subgroup", "(1,2")
    assert code == 2 and "error" in err


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run_cli(capsys, "table", "--group", "S4", "--cap", "10")
    assert code == 3 and "cap" in err


def test_trivial_subgroup(capsys):
    code, out, _ = run_cli(capsys, "depth", "--group", "S4",
                           "--subgroup", "trivial", "--format", "json")
    assert code == 0
    assert json.loads(out)["depth"] == 1


def test_doubling_series_spec(capsys):
    code, out, _ = run_cli(capsys, "family", "--series", "C", "--n", "1",
                           "--verify", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["expected_depth"] == 4 and obj["computed_depth"] == 4
    # the step specifier resolves in group positions too
    code, out, _ = run_cli(capsys, "depth", "--group", "C:step=1",
                           "--subgroup", "C:step=1", "--format", "json")
    assert code == 0 and json.loads(out)["depth"] == 4


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SUBDEPTH_CAP", "10")
    code, _, err = run_cli(capsys, "table", "--group", "S4")
    assert code == 3 and "cap" in err
    monkeypatch.setenv("SUBDEPTH_CAP", "1000")
    code, _, _ = run_cli(capsys, "table", "--group", "S4")
    assert code == 0


def test_cap_env_var_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SUBDEPTH_CAP", "abc")
    code, out, err = run_cli(capsys, "depth", "--group", "S4", "--subgroup", "V4")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "SUBDEPTH_CAP" in err
    assert len(err.strip().splitlines()) == 1


def test_subgroup_resolved_at_group_degree(capsys):
    # without --degree the subgroup spec is read at the group's degree, not at
    # the (smaller) degree its own largest point would suggest
    code, out, _ = run_cli(capsys, "depth", "--group", "(1,2);(1,2,3,4,5,6,7)",
                           "--subgroup", "(1,2);(1,2,3,4,5,6)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["ambient_order"], obj["subgroup_order"], obj["depth"]) == (5040, 720, 11)
    code, out, _ = run_cli(capsys, "depth", "--group", "(1,2);(1,2,3,4,5)",
                           "--subgroup", "trivial", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["ambient_order"], obj["subgroup_order"], obj["depth"]) == (120, 1, 1)


@pytest.mark.parametrize("degree", ["-3", "0"])
def test_degree_below_one_rejected(capsys, degree):
    for argv in (["table", "--group", "trivial"],
                 ["depth", "--group", "S4", "--subgroup", "trivial"]):
        code, out, err = run_cli(capsys, *argv, "--degree", degree)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--degree" in err
        assert len(err.strip().splitlines()) == 1
