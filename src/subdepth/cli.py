"""Command-line interface.

Subcommands::

    subdepth table   --group <spec> [--prime P]       emit a character table
    subdepth depth   --group <spec> --subgroup <spec>  emit a depth report
    subdepth family  --series A|B|C --n K [--verify]   build a family member
    subdepth lemma   --n K                             run the five seed checks
    subdepth reproduce                                 run the full verification table

Group specs are either named aliases (S4, V4, D8, S3, trivial) or raw
semicolon-separated cycle-notation generator lists such as
"(1,2);(1,2,3,4)" (add --degree when it cannot be inferred).  Family
specifiers (``A:n=2``, ``B:n=3``, ``C:step=2``) are accepted too: in the
--group position they denote the ambient group of that member, in the
--subgroup position its subgroup.  A named group other than trivial, and a
family member, act on their own degree, read from the spec; a --degree that
differs is refused before any group is built.

Output is deterministic: identical invocations produce byte-identical
output for every format.  Exit codes: 0 success, 1 verification failure or
a closed standard output, 2 usage error, 3 enumeration cap exceeded,
4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .chartab import character_table, dixon_character_table, table_to_obj
from .constructions import BASE_GENERATORS, family
from .depth import ordinary_depth
from .errors import (CycleParseError, DegreeCapExceeded, EnumerationCapExceeded,
                     InternalConsistencyError, SubdepthError,
                     TableConsistencyError)
from .lemma import lemma_report
from .perm import DEFAULT_CAP, PermGroup, largest_point, parse_generators
from .reproduce import AcceptanceContext, run_all

CAP_ENV_VAR = "SUBDEPTH_CAP"


def _parse_family_spec(spec):
    """``(series, k)`` for a family spec, None for any other spec.

    A head A, B or C followed by ':' always makes a family spec, so a
    malformed value is reported against the spec instead of being read as
    cycle notation.
    """
    head, colon, tail = spec.partition(":")
    series = head.strip().upper()
    if series not in ("A", "B", "C") or not colon:
        return None
    key, _, value = tail.partition("=")
    if (key.strip().lower() not in ("n", "step")
            or not (value.isascii() and value.strip().isdigit())):
        raise CycleParseError(f"malformed family spec {spec!r}: "
                              "expected A:n=<k>, B:n=<k> or C:step=<k>")
    return series, int(value)


def _resolve_group(spec, role, degree, cap):
    """Turn a group spec into a PermGroup (role: 'group' or 'subgroup').

    A degree inferred from cycle notation above the element cap is refused
    before any permutation is built (:func:`main` refuses a given one).
    """
    name = spec.strip()
    fam_spec = _parse_family_spec(name)
    if fam_spec is not None:
        fam = family(fam_spec[0], fam_spec[1], cap=cap)
        return fam.ambient if role == "group" else fam.subgroup
    upper = name.upper()
    if upper == "TRIVIAL":
        return PermGroup.trivial(degree or 4)
    if upper in BASE_GENERATORS:
        return PermGroup.generated(parse_generators(BASE_GENERATORS[upper], 4), cap=cap)
    inferred = largest_point(name) if degree is None else 0
    if inferred > cap:
        raise DegreeCapExceeded(cap, inferred)
    gens = parse_generators(name, degree)
    return PermGroup.generated(gens, cap=cap)


def _check_degree(spec, degree):
    """Refuse, from the spec's text alone, a --degree that a named group or
    family member does not act on: 4 for S4, V4, D8 and S3, 4n for A:n and
    B:n, 4 * 2^(k-1) for C:step=k (unexpanded past the degree's bit length).
    Trivial, cycle notation and an index below 1 (family's to refuse) pass."""
    if degree is None:
        return
    name = spec.strip()
    fam_spec = _parse_family_spec(name)
    if fam_spec is None:
        own = 4 if name.upper() in BASE_GENERATORS else degree
    elif fam_spec[1] < 1:
        return
    elif fam_spec[0] != "C":
        own = 4 * fam_spec[1]
    else:
        k = fam_spec[1]
        own = 4 << (k - 1) if k <= degree.bit_length() else f"4 * 2^{k - 1}"
    if own != degree:
        raise ValueError(f"{name} acts on {own} points, not on the --degree {degree}")


def _emit(obj, fmt, text_lines, csv_rows):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(csv_rows)
    else:
        for line in text_lines:
            print(line)


def _cmd_table(args, cap):
    _check_degree(args.group, args.degree)
    group = _resolve_group(args.group, "group", args.degree, cap)
    if args.prime is not None:
        table = dixon_character_table(group, prime=args.prime)
    else:
        table = character_table(group)
    obj = table_to_obj(table)
    header = ["degree"] + [c["rep"] for c in obj["classes"]]
    csv_rows = [header]
    text = [f"group of order {obj['order']} on {obj['degree']} points, "
            f"{len(obj['classes'])} classes",
            "  sizes: " + " ".join(str(c["size"]) for c in obj["classes"])]
    for chi, row in zip(table.irreducibles, obj["irreducibles"]):
        pretty = [v if isinstance(v, str) else json.dumps(v, sort_keys=True) for v in row]
        csv_rows.append([chi.degree()] + pretty)
        text.append("  " + "  ".join(f"{v:>6}" for v in pretty))
    _emit(obj, args.format, text, csv_rows)
    return 0


def _cmd_depth(args, cap):
    _check_degree(args.group, args.degree)
    _check_degree(args.subgroup, args.degree)
    fam_spec = _parse_family_spec(args.group.strip())
    if fam_spec is not None and fam_spec == _parse_family_spec(args.subgroup.strip()):
        report = family(*fam_spec, cap=cap).report()  # one member for both roles
    else:
        group = _resolve_group(args.group, "group", args.degree, cap)
        sub = _resolve_group(args.subgroup, "subgroup", group.degree, cap)
        report = ordinary_depth(group, sub)
    obj = report.to_obj()
    text = [
        f"depth = {report.depth}",
        f"  depth one: {report.depth_one}   normal: {report.normal}",
        f"  odd bound {report.odd_bound} (max distance {report.max_distance})   "
        f"even bound {report.even_bound} (max m(chi) {report.max_m_chi})",
        f"  matrix criterion: n = {report.matrix_n}, witness multiplier {report.matrix_witness}",
        f"  core bound {report.core.bound} from {report.core.conjugate_count} conjugates"
        + (" (central core)" if report.core.central else ""),
    ]
    csv_rows = [["key", "value"],
                ["depth", report.depth],
                ["depth_one", report.depth_one],
                ["normal", report.normal],
                ["odd_bound", report.odd_bound],
                ["even_bound", report.even_bound],
                ["matrix_depth", report.matrix_n],
                ["matrix_witness", report.matrix_witness],
                ["core_bound", report.core.bound]]
    _emit(obj, args.format, text, csv_rows)
    return 0


def _cmd_family(args, cap):
    fam = family(args.series, args.n, cap=cap)
    obj = {
        "schema": 1,
        "kind": "family_member",
        "series": fam.series,
        "n": fam.n,
        "ambient_order": fam.ambient.order,
        "subgroup_order": fam.subgroup.order,
        "block_product_order": fam.base_block.order,
        "core_order": fam.core.order,
        "degree": fam.ambient.degree,
        "expected_depth": fam.expected_depth,
    }
    text = [f"series {fam.series} member {fam.n}: ambient order {fam.ambient.order}, "
            f"subgroup order {fam.subgroup.order}, core order {fam.core.order}, "
            f"expected depth {fam.expected_depth}"]
    rc = 0
    if args.verify:
        report = fam.report()
        obj["computed_depth"] = report.depth
        obj["verified"] = report.depth == fam.expected_depth
        text.append(f"computed depth {report.depth}: "
                    + ("matches" if obj["verified"] else "MISMATCH"))
        if not obj["verified"]:
            rc = 1
    csv_rows = [["key", "value"]] + [[k, v] for k, v in obj.items() if k not in ("schema", "kind")]
    _emit(obj, args.format, text, csv_rows)
    return rc


def _cmd_lemma(args, cap):
    report = lemma_report(args.n, cap=cap)
    obj = report.to_obj()
    text = [f"seed-structure checks at n = {report.n}: "
            + ("all PASS" if report.passed else "FAILURES")]
    for k, p in report.parts.items():
        text.append(f"  ({k}) {'PASS' if p.passed else 'FAIL'}: {p.detail}")
    csv_rows = [["part", "passed", "detail"]] + [
        [k, p.passed, p.detail] for k, p in report.parts.items()]
    _emit(obj, args.format, text, csv_rows)
    return 0 if report.passed else 1


def _cmd_reproduce(args, cap):
    results = run_all(AcceptanceContext(cap=cap),
                      emit=print if args.format == "text" else None)
    ok = all(r.passed for r in results)
    obj = {"schema": 1, "kind": "reproduce_report", "passed": ok,
           "criteria": [r.to_obj() for r in results]}
    csv_rows = [["criterion", "passed", "seconds", "detail"]] + [
        [r.number, r.passed, f"{r.seconds:.3f}", r.detail] for r in results]
    _emit(obj, args.format, [], csv_rows)  # run_all streamed the text lines
    return 0 if ok else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=None,
                        help=f"element enumeration cap (default {DEFAULT_CAP}; "
                             f"also via ${CAP_ENV_VAR})")
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")

    parser = argparse.ArgumentParser(
        prog="subdepth",
        description="Exact depth computations for inclusions of finite permutation groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common], help="character table of a group")
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--prime", type=int, default=None,
                   help="the prime for the Dixon engine (validated); an explicit "
                        "prime selects Dixon even for a full symmetric group, whose "
                        "table otherwise comes from partitions")

    p = sub.add_parser("depth", parents=[common], help="depth report for a subgroup pair")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True)
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("family", parents=[common], help="build a named family member")
    p.add_argument("--series", required=True, choices=("A", "B", "C", "a", "b", "c"))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--verify", action="store_true",
                   help="also compute the depth and compare with the target")

    p = sub.add_parser("lemma", parents=[common], help="run the five seed-structure checks")
    p.add_argument("--n", required=True, type=int)

    sub.add_parser("reproduce", parents=[common], help="run the full verification table")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = args.cap
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        try:
            cap = int(env) if env else DEFAULT_CAP
        except ValueError:
            print(f"error: ${CAP_ENV_VAR} must be an integer, not {env!r}", file=sys.stderr)
            return 2
    if cap < 1:
        parser.error("--cap must be at least 1")
    degree = getattr(args, "degree", None)
    if degree is not None and degree < 1:
        print("error: --degree must be at least 1", file=sys.stderr)
        return 2
    if degree is not None and degree > cap:
        print(f"error: {DegreeCapExceeded(cap, degree)}", file=sys.stderr)
        return 3
    handlers = {
        "table": _cmd_table,
        "depth": _cmd_depth,
        "family": _cmd_family,
        "lemma": _cmd_lemma,
        "reproduce": _cmd_reproduce,
    }
    try:
        code = handlers[args.command](args, cap)
        sys.stdout.flush()  # a closed standard output raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: point standard output at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CycleParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EnumerationCapExceeded, DegreeCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InternalConsistencyError, TableConsistencyError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (SubdepthError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(argv=None))
