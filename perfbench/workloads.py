"""The benchmark's workloads: seeded inputs, the ops of one pass, their checks.

Every op of ``headline`` and ``symmetric`` starts from fresh ``PermGroup``
objects, so no table cached on a group carries over between ops, as in one
``subdepth depth`` invocation.  ``verify`` works on warm objects built in
set-up, as the verification half of ``subdepth reproduce`` does.

An op returns ``(output_text, problem)``: the text is hashed for the
output-identity check, and ``problem`` is ``None`` or what was wrong.
"""

from __future__ import annotations

import json
import random

# Base-group generators on four points (1-based cycle notation), as in
# ``constructions.base_groups``.
BASE_GENERATORS = {
    "s4": ["(1,2)", "(1,2,3,4)"],
    "v4": ["(1,3)(2,4)", "(1,2)(3,4)"],
    "d8": ["(1,3)", "(1,2,3,4)"],
    "s3": ["(1,2)", "(1,2,3)"],
}

# (op name, subgroup seed, blocks n or None for the S4 base pair, known depth).
# Series A/B at n = 3 (depths 6 and 12) take 14-18 s per op on a 2-core Xeon,
# too long for passes that repeat within a 30 s run, so the pass stops at n = 2.
HEADLINE_PAIRS = [
    ("V4<S4", "v4", None, 2),
    ("D8<S4", "d8", None, 4),
    ("S3<S4", "s3", None, 5),
    ("A2", "v4", 2, 4),
    ("B2", "d8", 2, 8),
]

# S_n < S_(n+1) has depth 2n - 1 (Burciu-Kadison-Kuelshammer 2011).  S8 < S9
# takes 12 s per op, too long for the same reason, so the pass covers n = 6, 7.
SYMMETRIC_NS = [6, 7]

VERIFY_N = 2
FROBENIUS_SAMPLES = 100


def report_text(report):
    """The report exactly as ``subdepth depth`` prints it."""
    return json.dumps(report.to_obj(), sort_keys=True, indent=2)


def _relabel(images, sigma):
    """sigma * x * sigma^-1 on raw image tuples: x with its points renamed along sigma."""
    out = [0] * len(images)
    for i, v in enumerate(images):
        out[sigma[i]] = sigma[v]
    return tuple(out)


def _cycle_images(sd, text, degree):
    return sd["perm"].parse_cycle_notation(text, degree).images


class Headline:
    """The paper's pairs: V4, D8, S3 in S4 and series A/B with two blocks."""

    name = "headline"

    def __init__(self, sd, seed):
        rng = random.Random(seed)
        sigma = list(range(4))
        rng.shuffle(sigma)
        self.generators = {
            key: [_relabel(_cycle_images(sd, c, 4), sigma) for c in cycles]
            for key, cycles in BASE_GENERATORS.items()}
        self.ops = [(label, self._op(sd, seed_key, n, want))
                    for label, seed_key, n, want in HEADLINE_PAIRS]

    def _group(self, sd, key):
        perm = sd["perm"]
        return perm.PermGroup.generated(
            [perm.Permutation(g) for g in self.generators[key]])

    def _op(self, sd, seed_key, n, want):
        def op():
            s4 = self._group(sd, "s4")
            seed_group = self._group(sd, seed_key)
            if n is None:
                ambient, sub = s4, seed_group
            else:
                ambient = sd["constructions"].wreath_cyclic(s4, n).group
                sub = sd["constructions"].direct_product([seed_group] + [s4] * (n - 1))
            report = sd["depth"].ordinary_depth(ambient, sub)
            problem = None if report.depth == want else f"depth {report.depth}, want {want}"
            return report_text(report), problem
        return op


class Symmetric:
    """S_n < S_(n+1) with the n+1 points relabelled by the seed."""

    name = "symmetric"

    def __init__(self, sd, seed):
        rng = random.Random(seed)
        self.generators = {}
        for n in SYMMETRIC_NS:
            sigma = list(range(n + 1))
            rng.shuffle(sigma)
            swap = (1, 0) + tuple(range(2, n + 1))
            big_cycle = tuple(range(1, n + 1)) + (0,)
            small_cycle = tuple(range(1, n)) + (0, n)
            self.generators[n] = (
                [_relabel(g, sigma) for g in (swap, big_cycle)],
                [_relabel(g, sigma) for g in (swap, small_cycle)])
        self.ops = [(f"S{n}<S{n + 1}", self._op(sd, n)) for n in SYMMETRIC_NS]

    def _op(self, sd, n):
        perm = sd["perm"]
        big, small = self.generators[n]

        def op():
            ambient = perm.PermGroup.generated([perm.Permutation(g) for g in big])
            sub = perm.PermGroup.generated([perm.Permutation(g) for g in small])
            report = sd["depth"].ordinary_depth(ambient, sub)
            want = 2 * n - 1
            problem = None if report.depth == want else f"depth {report.depth}, want {want}"
            return report_text(report), problem
        return op


class Verify:
    """Criteria 8 and 11 of ``subdepth reproduce`` for series A, n = 2, on warm tables.

    Set-up builds the family member and the base groups with every table;
    the seed draws the Frobenius-reciprocity samples.
    """

    name = "verify"

    def __init__(self, sd, seed):
        self.sd = sd
        self.n = VERIFY_N
        constructions, chartab = sd["constructions"], sd["chartab"]
        self.bg = constructions.base_groups()
        self.fam = constructions.family("A", self.n)
        fam = self.fam
        self.groups = [self.bg.s4, self.bg.v4, self.bg.d8, self.bg.s3,
                       fam.ambient, fam.subgroup, fam.base_block]
        self.tables = [chartab.character_table(g) for g in self.groups]
        self.emb = fam.embedding_subgroup()
        rng = random.Random(seed)
        r = len(chartab.character_table(fam.subgroup).irreducibles)
        s = len(chartab.character_table(fam.ambient).irreducibles)
        self.samples = [(rng.randrange(r), rng.randrange(s))
                        for _ in range(FROBENIUS_SAMPLES)]
        self.ops = [("validate", self.validate), ("lemma", self.lemma),
                    ("oracle", self.oracle), ("roundtrip", self.roundtrip),
                    ("frobenius", self.frobenius)]

    def validate(self):
        for table in self.tables:
            table.validate()
        return json.dumps([[t.group.order, t.degrees()] for t in self.tables]), None

    def lemma(self):
        rep = self.sd["lemma"].lemma_report(self.n, fam=self.fam)
        problem = None if rep.passed else "lemma part failed"
        return json.dumps(rep.to_obj(), sort_keys=True), problem

    def oracle(self):
        chartab = self.sd["chartab"]
        fam = self.fam
        oracle = chartab.wreath_cyclic_table(chartab.character_table(self.bg.s4),
                                             fam.ambient, fam.sigma, self.n)
        problem = (None if oracle == chartab.character_table(fam.ambient)
                   else "wreath oracle differs from the Dixon table")
        return json.dumps(chartab.table_to_obj(oracle), sort_keys=True), problem

    def roundtrip(self):
        chartab = self.sd["chartab"]
        texts = []
        problem = None
        for group in (self.fam.ambient, self.fam.subgroup):
            table = chartab.character_table(group)
            text = json.dumps(chartab.table_to_obj(table), sort_keys=True, indent=2)
            back = chartab.table_from_obj(json.loads(text), group)
            if back != table:
                problem = f"table of order {group.order} changed in a JSON round trip"
            texts.append(text)
        return "\n".join(texts), problem

    def frobenius(self):
        chartab = self.sd["chartab"]
        sub_t = chartab.character_table(self.fam.subgroup)
        amb_t = chartab.character_table(self.fam.ambient)
        rows = []
        problem = None
        for i, j in self.samples:
            psi, chi = sub_t.irreducibles[i], amb_t.irreducibles[j]
            lhs = chartab.inner_product(chartab.induce_character(psi, self.emb), chi)
            rhs = chartab.inner_product(psi, chartab.restrict_character(chi, self.emb))
            if lhs != rhs:
                problem = f"Frobenius reciprocity fails at psi {i}, chi {j}"
            rows.append([i, j, lhs.to_obj()])
        return json.dumps(rows), problem


WORKLOADS = {cls.name: cls for cls in (Headline, Symmetric, Verify)}
