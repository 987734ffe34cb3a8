"""One-shot verification harness: every headline value, recomputed exactly.

The harness owns a context that keeps the series A and B members, which share
S4 wr C_n at each n, and reads each member's one depth report
(``FamilyInstance.report``); it keeps the reports of the three S4 pairs and
the lemma's block tables itself.  So the 41472-element wreath product and its
table are built once.  Each criterion returns a PASS/FAIL verdict with a
human-readable detail line; the runner prints one line per criterion and
reports failure through the exit code.
"""

from __future__ import annotations

import random
import time

from .chartab import (character_table, induce_character, inner_product,
                      restrict_character, wreath_cyclic_table)
from .constructions import base_groups, family
from .depth import ordinary_depth
from .graphs import bfs_distance
from .lemma import expected_overlap_graph, lemma_report, seed_factor_graphs
from .perm import DEFAULT_CAP

__all__ = ["AcceptanceContext", "CriterionResult", "CRITERIA", "run_all"]

FROBENIUS_SAMPLES = 100
RNG_SEED = 0x5D47


class AcceptanceContext:
    """Lazily built shared state for the acceptance criteria."""

    def __init__(self, cap=DEFAULT_CAP):
        self.cap = cap
        self.bg = base_groups()
        self._families = {}
        self._reports = {}
        self._tables = {}

    def table(self, group):
        """The group's character table, kept for the context's lifetime (a
        group holds its table only weakly)."""
        return self._tables.setdefault(id(group), character_table(group))

    def family(self, series, n):
        """The series A or B member at n, kept for the context's lifetime."""
        if (series, n) not in self._families:
            self._families[series, n] = family(series, n, self.cap)
        return self._families[series, n]

    def base_report(self, sub_name):
        if sub_name not in self._reports:
            self._reports[sub_name] = ordinary_depth(self.bg.s4, getattr(self.bg, sub_name))
        return self._reports[sub_name]

    def all_pair_reports(self):
        out = [(f"d({name.upper()}, S4)", self.base_report(name))
               for name in ("v4", "d8", "s3")]
        for series, n in [("A", 2), ("B", 2), ("A", 3), ("B", 3)]:
            out.append((f"series {series} n={n}", self.family(series, n).report()))
        return out


class CriterionResult:
    __slots__ = ("number", "description", "passed", "detail", "seconds")

    def __init__(self, number, description, passed, detail, seconds):
        self.number = number
        self.description = description
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {self.description:<44} {verdict}  {self.detail} ({self.seconds:.1f}s)"

    def to_obj(self):
        return {"criterion": self.number, "description": self.description,
                "passed": self.passed, "detail": self.detail,
                "seconds": round(self.seconds, 3)}


def _depth_criterion(ctx, kind, expect):
    rep = ctx.family(*kind).report() if isinstance(kind, tuple) else ctx.base_report(kind)
    return rep.depth == expect, f"depth = {rep.depth}, expected {expect}"


def _criterion_lemma(ctx):
    details = []
    ok = True
    for n in (2, 3):
        fam = ctx.family("A", n)
        ctx.table(fam.base_block)  # the lemma's block table, revalidated in criterion 11
        rep = lemma_report(n, fam=fam)
        ok = ok and rep.passed
        details.append(f"n={n}: " + ("all five parts pass" if rep.passed else ", ".join(
            f"({k}) {p.detail}" for k, p in rep.parts.items() if not p.passed)))
    return ok, "; ".join(details)


def _criterion_cross_agreement(ctx):
    mismatches = []
    for name, rep in ctx.all_pair_reports():
        if rep.matrix_n != rep.depth:
            mismatches.append(f"{name}: matrix {rep.matrix_n} vs verdict {rep.depth}")
    if mismatches:
        return False, "; ".join(mismatches)
    return True, "matrix criterion agrees with the character criteria on all 7 pairs"


def _criterion_core_bound(ctx):
    details = []
    ok = True
    for n in (2, 3):
        fam = ctx.family("A", n)
        rep = fam.report()
        core = rep.core
        powers = [(fam.sigma ** i).images for i in range(n)]
        sigma_powers = all(w.images in powers for w in core.witnesses)
        good = (core.conjugate_count <= n and sigma_powers
                and rep.depth == 2 * n == core.bound)
        ok = ok and good
        details.append(f"n={n}: m={core.conjugate_count}, bound={core.bound}, "
                       f"depth={rep.depth}, shift-power witnesses={sigma_powers}")
    return ok, "; ".join(details)


def _criterion_properties(ctx):
    checks = []

    # (a) orthogonality re-validation of every table in play: those of the
    # seven reports and the lemma's block tables
    pairs = ctx.all_pair_reports()
    tables = {id(t): t for _, rep in pairs
              for t in (rep.ambient_table, rep.sub_table)}
    for n in (2, 3):
        block = ctx.table(ctx.family("A", n).base_block)
        tables[id(block)] = block
    for table in tables.values():
        table.validate()
    checks.append(f"orthogonality revalidated on {len(tables)} tables")

    # (b) Frobenius reciprocity on seeded random pairs, for each inclusion
    rng = random.Random(RNG_SEED)
    for name, rep in pairs:
        emb, ht, gt = rep.embedding, rep.sub_table, rep.ambient_table
        for _ in range(FROBENIUS_SAMPLES):
            psi = ht.irreducibles[rng.randrange(len(ht.irreducibles))]
            chi = gt.irreducibles[rng.randrange(len(gt.irreducibles))]
            lhs = inner_product(induce_character(psi, emb), chi)
            rhs = inner_product(psi, restrict_character(chi, emb))
            if lhs != rhs:
                return False, f"Frobenius reciprocity failed on {name}"
    checks.append(f"Frobenius reciprocity on {FROBENIUS_SAMPLES} samples x {len(pairs)} inclusions")

    # (c) the Clifford wreath oracle agrees with the Dixon engine
    for n in (2, 3):
        fam = ctx.family("A", n)
        oracle = wreath_cyclic_table(ctx.table(ctx.bg.s4), fam.ambient, fam.sigma, n)
        if oracle != ctx.table(fam.ambient):
            return False, f"wreath oracle disagrees with the Dixon table at n={n}"
    checks.append("Dixon tables equal the wreath oracle for n=2,3")

    # (d) dual computation of inclusion matrices is asserted at construction
    checks.append("inclusion matrices verified induction-vs-restriction at construction")

    # (e) Cartesian distances add coordinatewise on the label product graphs
    pair, triangle = seed_factor_graphs()
    for n in (2, 3):
        factors = [pair] + [triangle] * (n - 1)
        g = expected_overlap_graph(n)
        for u in g.vertices:
            for v in g.vertices:
                if bfs_distance(g, u, v) != sum(map(bfs_distance, factors, u, v)):
                    return False, f"distance additivity failed between {u} and {v}"
    checks.append("product-graph distances add coordinatewise")
    return True, "; ".join(checks)


CRITERIA = [
    (1, "d(V4, S4) = 2", lambda ctx: _depth_criterion(ctx, "v4", 2)),
    (2, "d(D8, S4) = 4", lambda ctx: _depth_criterion(ctx, "d8", 4)),
    (3, "d(S3, S4) = 5 (point stabiliser)", lambda ctx: _depth_criterion(ctx, "s3", 5)),
    (4, "d(V4 x S4, S4 wr C2) = 4", lambda ctx: _depth_criterion(ctx, ("A", 2), 4)),
    (5, "d(D8 x S4, S4 wr C2) = 8", lambda ctx: _depth_criterion(ctx, ("B", 2), 8)),
    (6, "d(V4 x S4 x S4, S4 wr C3) = 6", lambda ctx: _depth_criterion(ctx, ("A", 3), 6)),
    (7, "d(D8 x S4 x S4, S4 wr C3) = 12", lambda ctx: _depth_criterion(ctx, ("B", 3), 12)),
    (8, "seed-structure checks (i)-(v), n = 2 and 3", _criterion_lemma),
    (9, "matrix depth equals the combined verdict", _criterion_cross_agreement),
    (10, "core bound tight with shift-power witnesses", _criterion_core_bound),
    (11, "property suites (orthogonality, reciprocity, oracle, distances)",
     _criterion_properties),
]


def run_all(ctx=None, emit=print):
    """Run every criterion, emit one line each, return the list of results."""
    ctx = ctx or AcceptanceContext()
    results = []
    for number, description, fn in CRITERIA:
        t0 = time.time()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a crash is a failure with the exception as detail
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CriterionResult(number, description, passed, detail,
                                       time.time() - t0))
        if emit:
            emit(results[-1].line())
    return results
