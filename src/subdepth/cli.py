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
--subgroup position its subgroup.

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
from .constructions import family
from .depth import ordinary_depth
from .errors import (CycleParseError, EnumerationCapExceeded,
                     InternalConsistencyError, SubdepthError,
                     TableConsistencyError)
from .lemma import lemma_report
from .perm import DEFAULT_CAP, PermGroup, parse_generators
from .reproduce import AcceptanceContext, run_all

CAP_ENV_VAR = "SUBDEPTH_CAP"

NAMED_GROUPS = {
    "S4": "(1,2);(1,2,3,4)",
    "V4": "(1,3)(2,4);(1,2)(3,4)",
    "D8": "(1,3);(1,2,3,4)",
    "S3": "(1,2);(1,2,3)",
}


def _parse_family_spec(spec):
    head, _, tail = spec.partition(":")
    series = head.strip().upper()
    if series not in ("A", "B", "C") or not tail:
        return None
    key, _, value = tail.partition("=")
    if key.strip().lower() not in ("n", "step") or not value.strip().isdigit():
        return None
    return series, int(value)


def _resolve_group(spec, role, degree, cap):
    """Turn a group spec into a PermGroup (role: 'group' or 'subgroup')."""
    name = spec.strip()
    fam_spec = _parse_family_spec(name)
    if fam_spec is not None:
        fam = family(fam_spec[0], fam_spec[1], cap=cap)
        return fam.ambient if role == "group" else fam.subgroup
    upper = name.upper()
    if upper == "TRIVIAL":
        return PermGroup.trivial(degree or 4)
    if upper in NAMED_GROUPS:
        return PermGroup.generated(parse_generators(NAMED_GROUPS[upper], 4), cap=cap)
    gens = parse_generators(name, degree)
    return PermGroup.generated(gens, cap=cap)


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
    fam_spec = _parse_family_spec(args.group.strip())
    if fam_spec is not None and fam_spec == _parse_family_spec(args.subgroup.strip()):
        report = family(*fam_spec, cap=cap).report()  # one member for both roles
    else:
        group = _resolve_group(args.group, "group", args.degree, cap)
        degree = group.degree if args.degree is None else args.degree
        sub = _resolve_group(args.subgroup, "subgroup", degree, cap)
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
    ctx = AcceptanceContext(cap=cap)
    if args.format == "text" and args.time_note:
        print(f"# note: {args.time_note}")
    lines = []
    results = run_all(ctx, emit=lines.append if args.format != "text" else print)
    ok = all(r.passed for r in results)
    if args.format == "json":
        obj = {"schema": 1, "kind": "reproduce_report", "passed": ok,
               "criteria": [r.to_obj() for r in results]}
        if args.time_note:
            obj["time_note"] = args.time_note
        print(json.dumps(obj, sort_keys=True, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["criterion", "passed", "seconds", "detail"])
        for r in results:
            writer.writerow([r.number, r.passed, f"{r.seconds:.3f}", r.detail])
    return 0 if ok else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=None,
                        help=f"element enumeration cap (default {DEFAULT_CAP}; "
                             f"also via ${CAP_ENV_VAR})")
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--time-note", default=None,
                        help="informational note echoed into reports (no effect on computation)")

    parser = argparse.ArgumentParser(
        prog="subdepth",
        description="Exact depth computations for inclusions of finite permutation groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common], help="character table of a group")
    p.add_argument("--group", required=True)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--prime", type=int, default=None,
                   help="override the modular prime (validated)")

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
    if getattr(args, "degree", None) is not None and args.degree < 1:
        print("error: --degree must be at least 1", file=sys.stderr)
        return 2
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
    except EnumerationCapExceeded as exc:
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
