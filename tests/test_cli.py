import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from subdepth import chartab, cli, perm
from subdepth.cli import main
from subdepth.errors import CycleParseError
from subdepth.perm import DEFAULT_CAP

ROOT = Path(__file__).resolve().parent.parent


def run_cli_process(*argv, **kwargs):
    """Run the CLI in a child process importing ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from subdepth.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        text=True, env=env, timeout=120, **kwargs)


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


def test_reproduce_formats(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["schema"], obj["kind"], obj["passed"]) == (1, "reproduce_report", True)
    assert [c["criterion"] for c in obj["criteria"]] == list(range(1, 12))
    assert all(set(c) == {"criterion", "description", "passed", "detail", "seconds"}
               and c["passed"] is True for c in obj["criteria"])
    code, out, _ = run_cli(capsys, "reproduce", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "criterion,passed,seconds,detail"
    assert [line.split(",")[:2] for line in lines[1:]] == [[str(k), "True"] for k in range(1, 12)]
    code, out, _ = run_cli(capsys, "reproduce", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith(f"[{k:2d}] ") and " PASS  " in line
               for k, line in enumerate(lines, 1))


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


def test_an_explicit_prime_selects_dixon_and_prints_the_partition_table(capsys, monkeypatch):
    calls = []
    dixon, partitions = cli.dixon_character_table, chartab.symmetric_character_table

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(cli, "dixon_character_table", counted("dixon", dixon))
    monkeypatch.setattr(chartab, "symmetric_character_table", counted("partitions", partitions))
    spec = "(1,2);(1,2,3,4)"  # a fresh S4, whose table no other test holds
    code, out, _ = run_cli(capsys, "table", "--group", spec, "--prime", "37", "--format", "json")
    assert code == 0 and calls == ["dixon"]
    code, reference, _ = run_cli(capsys, "table", "--group", spec, "--format", "json")
    assert code == 0 and calls == ["dixon", "partitions"]
    assert out == reference
    with pytest.raises(SystemExit):
        main(["table", "--help"])
    assert "an explicit prime selects Dixon" in " ".join(capsys.readouterr().out.split())


def test_large_prime_with_the_wrong_residue_is_refused_at_once(capsys):
    # 10^18 + 3 == 7 (mod 12): refused by its residue before any primality test
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "--group", "S4",
                             "--prime", "1000000000000000003")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: 1000000000000000003 is not congruent to 1 mod the group "
                   "exponent 12\n")


def test_a_19_digit_prime_is_checked_and_used_at_once(capsys):
    _, reference, _ = run_cli(capsys, "table", "--group", "S4")
    start = time.perf_counter()
    done = run_cli_process("table", "--group", "S4", "--prime", "1000000000000000009",
                           capture_output=True)
    assert time.perf_counter() - start < 5.0
    assert (done.returncode, done.stdout, done.stderr) == (0, reference, "")


@pytest.mark.parametrize("prime, message", [
    # a strong pseudoprime to every base up to 37, == 1 (mod 12)
    ("318665857834031151167461", "318665857834031151167461 is not prime"),
    # == 1 (mod 12) and above the bound of the Miller-Rabin test
    ("3317044064679887385961993",
     "primality is decided only below 3317044064679887385961981"),
])
def test_a_prime_that_cannot_be_confirmed_is_refused(prime, message):
    done = run_cli_process("table", "--group", "S4", "--prime", prime, capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("group, prime", [("S4", "10000141"), ("A:n=2", "1000033")])
def test_table_at_a_large_prime_is_fast(capsys, group, prime):
    _, reference, _ = run_cli(capsys, "table", "--group", group)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "table", "--group", group, "--prime", prime)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == reference


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


@pytest.mark.parametrize("group", ["(1,2);(1,2,3,4)", "(1,2,3,4);(1,2)"])
def test_core_witnesses_do_not_depend_on_the_generator_order(capsys, group):
    code, out, _ = run_cli(capsys, "depth", "--group", group, "--subgroup", "(1,3)",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["criteria"]["core"]["witnesses"] == ["()", "(1,2)"]


def test_depth_of_two_members_closes_their_wreath_product_once(capsys, monkeypatch):
    gc.collect()  # so that no S4 wr C3 is left over from earlier tests
    orders = []
    generated = perm.PermGroup.generated.__func__

    def recording(cls, *args, **kwargs):
        group = generated(cls, *args, **kwargs)
        orders.append(group.order)
        return group

    monkeypatch.setattr(perm.PermGroup, "generated", classmethod(recording))
    code, out, _ = run_cli(capsys, "depth", "--group", "A:n=3",
                           "--subgroup", "B:n=3", "--format", "json")
    assert code == 0 and json.loads(out)["depth"] == 12
    assert orders.count(24 ** 3 * 3) == 1


@pytest.mark.parametrize("argv", [
    ["table", "--group", "S4", "--format", "json"],
    ["depth", "--group", "S4", "--subgroup", "D8"],
])
def test_closed_stdout_exits_quietly(argv):
    # standard output is a pipe whose read end is already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_cli_process(*argv, stdout=write_end, stderr=subprocess.PIPE)
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


@pytest.mark.parametrize("argv", [
    ["table", "--group", "(1,51)"],
    ["table", "--group", "(1,2)", "--degree", "51"],
    ["table", "--group", "trivial", "--degree", "51"],
    ["depth", "--group", "(1,51);(1,2)", "--subgroup", "(1,2)"],
    ["depth", "--group", "(1,2)", "--subgroup", "(1,2)", "--degree", "51"],
])
def test_degree_above_the_cap_is_refused(capsys, monkeypatch, argv):
    def no_permutation(*args):
        raise AssertionError("a permutation was built")

    monkeypatch.setattr(cli, "parse_generators", no_permutation)
    code, out, err = run_cli(capsys, *argv, "--cap", "50")
    assert (code, out) == (3, "")
    assert "degree 51" in err and "cap 50" in err


@pytest.mark.parametrize("argv", [["--group", "(1,50)"],
                                  ["--group", "(1,2)", "--degree", "50"]])
def test_degree_at_the_cap_is_accepted(capsys, argv):
    code, out, _ = run_cli(capsys, "table", *argv, "--cap", "50", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["degree"], obj["order"]) == (50, 2)


@pytest.mark.parametrize("argv", [["--group", "(1,2000000)"],
                                  ["--group", "(1,2)", "--degree", "2000000"]])
def test_large_degree_is_refused_at_the_default_cap(capsys, argv):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "table", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and f"degree 2000000 exceeds the element cap {DEFAULT_CAP}" in err


@pytest.mark.parametrize("argv", [
    ["table", "--group", "A:n=1"],
    ["table", "--group", "B:n=1"],
    ["table", "--group", "C:step=1"],
    ["depth", "--group", "C:step=1", "--subgroup", "C:step=1"],
    ["family", "--series", "C", "--n", "1"],
])
def test_cap_applies_to_members_built_from_the_base_groups(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--cap", "5")
    assert (code, out) == (3, "")
    assert err.startswith("error:") and "cap 5" in err
    code, out, _ = run_cli(capsys, *argv, "--cap", "24")
    assert code == 0 and out


@pytest.mark.parametrize("argv, order", [
    (["family", "--series", "A", "--n", "300", "--cap", "2000"], 7200),
    (["family", "--series", "C", "--n", "1", "--cap", "5"], 24),
    (["table", "--group", "B:n=3", "--cap", "2000"], 41472),
])
def test_cap_refusal_from_the_order_names_the_order(capsys, argv, order):
    # these groups are refused from their order, so no element count is quoted
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    cap = argv[-1]
    assert err == f"error: enumeration cap {cap} exceeded (the group order is at least {order})\n"


def test_internal_check_failure_exits_4(capsys, monkeypatch):
    # a core that fails its normality check is a fault of the program, not of
    # the command line
    monkeypatch.setattr(perm, "is_normal", lambda ambient, sub: False)
    code, out, err = run_cli(capsys, "depth", "--group", "S4", "--subgroup", "D8")
    assert (code, out) == (4, "")
    assert err == "internal error: core computation produced a non-normal subgroup\n"


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


@pytest.mark.parametrize("argv, message", [
    (["--group", "C:step=2", "--subgroup", "C:step=1"],
     "the second group is not a subgroup of the first: it acts on 4 points, the first on 8"),
    # a named group keeps its own degree, and a --degree that differs is refused
    (["--group", "S4", "--subgroup", "(1,2)", "--degree", "5"],
     "S4 acts on 4 points, not on the --degree 5"),
])
def test_subgroup_on_another_degree_names_both_degrees(capsys, argv, message):
    code, out, err = run_cli(capsys, "depth", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["table", "--group", "S4", "--degree", "5"], "S4 acts on 4 points, not on the --degree 5"),
    (["table", "--group", "A:n=2", "--degree", "3"],
     "A:n=2 acts on 8 points, not on the --degree 3"),
    (["depth", "--group", "(1,2);(1,2,3,4,5)", "--subgroup", "S4", "--degree", "5"],
     "S4 acts on 4 points, not on the --degree 5"),
    (["depth", "--group", "A:n=2", "--subgroup", "A:n=2", "--degree", "3"],
     "A:n=2 acts on 8 points, not on the --degree 3"),
    (["depth", "--group", "B:n=2", "--subgroup", "V4", "--degree", "8"],
     "V4 acts on 4 points, not on the --degree 8"),
])
def test_given_degree_must_be_the_named_groups(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["table", "--group", "B:n=3", "--degree", "5"],
     "B:n=3 acts on 12 points, not on the --degree 5"),
    (["table", "--group", "C:step=3", "--degree", "8"],
     "C:step=3 acts on 16 points, not on the --degree 8"),
    (["table", "--group", "C:step=99999999999", "--degree", "8"],
     "C:step=99999999999 acts on 4 * 2^99999999998 points, not on the --degree 8"),
    # the group spec is checked before the subgroup spec
    (["depth", "--group", "A:n=3", "--subgroup", "B:n=2", "--degree", "8"],
     "A:n=3 acts on 12 points, not on the --degree 8"),
])
def test_given_degree_is_refused_before_any_member_is_built(capsys, monkeypatch, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a family member was built")
    monkeypatch.setattr(cli, "family", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_given_degree_equal_to_the_named_groups_is_accepted(capsys):
    assert run_cli(capsys, "table", "--group", "S4", "--degree", "4") == run_cli(
        capsys, "table", "--group", "S4")
    assert run_cli(capsys, "depth", "--group", "A:n=2", "--subgroup", "A:n=2",
                   "--degree", "8", "--format", "json") == run_cli(
        capsys, "depth", "--group", "A:n=2", "--subgroup", "A:n=2", "--format", "json")
    code, out, _ = run_cli(capsys, "table", "--group", "trivial", "--degree", "3")
    assert code == 0 and out.startswith("group of order 1 on 3 points")


@pytest.mark.parametrize("degree", ["-3", "0"])
def test_degree_below_one_rejected(capsys, degree):
    for argv in (["table", "--group", "trivial"],
                 ["depth", "--group", "S4", "--subgroup", "trivial"]):
        code, out, err = run_cli(capsys, *argv, "--degree", degree)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--degree" in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("spec", ["(1,٢)", "A:n=٢", "(1,²)", "A:n=²"])
def test_non_ascii_digits_rejected(capsys, spec):
    # str.isdigit accepts an Arabic-Indic two and a superscript two; a spec
    # reads ASCII digits only
    with pytest.raises(CycleParseError):
        cli._resolve_group(spec, "group", None, DEFAULT_CAP)
    code, out, err = run_cli(capsys, "table", "--group", spec)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "invalid literal" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("spec", ["A:n=x", "B:step=", "C:n=٢", "A:", "b:k=2", "C:step=-1"])
def test_malformed_family_specs_name_the_spec(capsys, spec):
    # a head A, B or C and a ':' make a family spec; a bad value is reported
    # against it, not read as cycle notation ("cannot infer degree ...")
    with pytest.raises(CycleParseError):
        cli._resolve_group(spec, "group", None, DEFAULT_CAP)
    for argv in (["table", "--group", spec],
                 ["depth", "--group", "S4", "--subgroup", spec],
                 ["depth", "--group", spec, "--subgroup", "A:n=2"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and repr(spec) in err
        assert "infer degree" not in err
        assert len(err.strip().splitlines()) == 1
