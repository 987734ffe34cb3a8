"""Fuzzing of the command line: malformed and edge values of every option, on
every subcommand, end in exit 0, 1, 2 or 3 with their output or one error
message, never in a traceback or an internal error.  ``--cap`` stays at most
2000, so every run is small."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from subdepth.cli import main
from subdepth.perm import Permutation

# a value that is malformed whichever option it is given to
MALFORMED = ["", " ", "x", "1.5", "1e3", "0x10", "+2", " 2", "٢", "²", "(1,2", "A:n=٢"]

GROUP_TEXTS = [
    "S4", "s4", " V4 ", "D8", "S3", "trivial", "TRIVIAL", "A:n=1", "A:n=2", "B:n=1",
    "b:n=2", "C:step=1", "C:step=2", "A:n=3", "A:n=99999999999", "C:step=99999999999",
    "S5", ";", ";;", "()", "( )", "(1)", "(1,1)", "(0,1)", "1,2)", "((1,2))", "(1,2)(",
    "(1,2);;(2,3)", "(1,-2)", "(1,2.0)", "(1,²)", "(a,b)", "(1,2001)",
    "(1,99999999999999999999)", "A:", "A:n", "A:n=0", "B:n=-1", "C:step=0",
    "B:step=2", "X:n=2", "A:k=2", "A:n=2:3", "A:n= 2", "A : n = 2",
]


def cycle_text(degree):
    gens = st.lists(st.permutations(range(degree)).map(
        lambda images: Permutation(images).cycle_string()), min_size=1, max_size=3)
    return gens.map(";".join)


GROUPS = st.one_of(
    st.sampled_from(GROUP_TEXTS),
    st.integers(1, 6).flatmap(cycle_text),
    st.text(alphabet="(),;:=0123456789ABCSVDnstep -", max_size=14),
)


def ints(edges, low, high):
    """The text of an int option: an edge value (hypothesis shrinks toward the
    first) or any int in [low, high]."""
    return st.one_of(st.sampled_from(edges), st.integers(low, high).map(str))


DEGREES = ints(["8", "4", "2000", "2001", "10000000000"], -1, 12)
COUNTS = ints(["2", "1", "3", "10", "1000000000", "99999999999"], -1, 3)
OPTIONS = {
    # primes are decided at once at any size, but a group with irrational
    # classes scans most of F_p for eigenvalues, so --prime stays near 10^7
    "table": {"--group": GROUPS, "--degree": DEGREES,
              "--prime": ints(["73", "2", "3", "13", "37", "97", "1000033", "10000141"],
                              -3, 10**7)},
    "depth": {"--group": GROUPS, "--subgroup": GROUPS, "--degree": DEGREES},
    "family": {"--series": st.sampled_from(["A", "B", "C", "a", "c", "X"]), "--n": COUNTS},
    "lemma": {"--n": COUNTS},
    "reproduce": {},
}
OPTIONAL = {"--degree", "--prime"}
# subgroups of the named groups, so a depth run gets past the subgroup check
NAMED_SUBGROUPS = {"S4": ["V4", "D8", "S3", "trivial", "(1,2)", "(1,2,3,4)"],
                   "A:n=2": ["A:n=2", "trivial", "(1,2)(5,6)"],
                   "b:n=2": ["b:n=2", "(1,5)(2,6)(3,7)(4,8)"],
                   "C:step=2": ["C:step=2", "(1,3)"]}
# caps at a group order and next to it
CAPS = st.one_of(st.sampled_from([2000, 1152, 1151, 24, 23, 1]), st.integers(1, 2000))


@st.composite
def command_lines(draw):
    """An argv whose options are each left out, malformed or drawn from their
    strategy; an option with a default is left out half the time.  Half the
    depth runs ask for a subgroup of the group."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, values in OPTIONS[command].items():
        kind = draw(st.integers(0, 9))
        if kind == 0 or (flag in OPTIONAL and kind < 5):
            continue
        if kind == 9:
            value = draw(st.sampled_from(MALFORMED))
        elif flag == "--group" and command == "depth" and draw(st.booleans()):
            group = draw(st.sampled_from(sorted(NAMED_SUBGROUPS)) | cycle_text(5))
            subgroups = NAMED_SUBGROUPS.get(group) or group.split(";")[:1]
            argv += [f"--group={group}", f"--subgroup={draw(st.sampled_from(subgroups))}"]
            break
        else:
            value = draw(values)
        argv.append(f"{flag}={value}")
    if command == "family" and draw(st.booleans()):
        argv.append("--verify")
    cap = draw(CAPS)
    if cap == 1 and draw(st.booleans()):
        cap = draw(st.sampled_from(["0", "-1", "x"]))
    argv.append(f"--cap={cap}")
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(['text', 'json', 'csv', 'xml']))}")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=command_lines())
def test_every_command_line_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse refused the command line
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err
    if code >= 2:
        lines = err.strip().splitlines()
        assert lines and "error:" in lines[-1], (argv, err)
    else:
        assert out, (argv, code, err)
