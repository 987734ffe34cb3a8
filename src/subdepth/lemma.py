"""Structural verification of the seed-character machinery for series A.

For the pair (S4 wr C_n, V4 x S4^(n-1)) the even depth 2n is certified by a
five-part argument about the 2*3^(n-1) outer-product characters of the full
block product whose first factor is faithful ("seeds"):

  i.   every seed induces irreducibly to the ambient group, injectively;
  ii.  the induced set is closed under sharing a subgroup constituent;
  iii. the sharing graph on the induced set is exactly the Cartesian product
       of a single edge (the two faithful labels) with n-1 triangles (the
       non-faithful labels), under the label tuples;
  iv.  that product graph puts (4,1,...,1) and (4,2,...,2) at distance n-1;
  v.   the two subgroup characters of :func:`distance_witness_pair` sit at
       relation distance exactly n.

Each part is checked exactly and failures carry a concrete counterexample.
The inclusion matrix, both tables and the relation graph come from the
member's depth report (``FamilyInstance.report``), and the seed helpers read
the S4 and V4 tables from the product tables' own factor groups, the base
groups every member shares: on a member that has its report the lemma builds
no inclusion matrix and no Dixon table.  Parts ii and iii read the sharing
graph on Irr(G) as :func:`~subdepth.depth.relation_graph` of the transposed
matrix: two characters of G are joined when they share a constituent.
"""

from __future__ import annotations

from .chartab import character_table, induce_character, inner_product
# base_groups and inclusion_matrix are unused here but perfbench/tracer.py
# wraps them on this module
from .constructions import (base_groups, distance_witness_pair,  # noqa: F401
                            family, seed_characters)
from .depth import inclusion_matrix, relation_graph  # noqa: F401
from .graphs import Graph, bfs_distance, cartesian_product
from .perm import DEFAULT_CAP, class_fusion

__all__ = ["LemmaPart", "LemmaReport", "seed_factor_graphs",
           "expected_overlap_graph", "lemma_report"]


class LemmaPart:
    __slots__ = ("passed", "detail")

    def __init__(self, passed, detail):
        self.passed = passed
        self.detail = detail


class LemmaReport:
    __slots__ = ("n", "parts")

    def __init__(self, n, parts):
        self.n = n
        self.parts = parts  # part name -> LemmaPart

    @property
    def passed(self):
        return all(p.passed for p in self.parts.values())

    def to_obj(self):
        return {
            "schema": 1,
            "kind": "lemma_report",
            "n": self.n,
            "passed": self.passed,
            "parts": {k: {"passed": p.passed, "detail": p.detail}
                      for k, p in self.parts.items()},
        }


def seed_factor_graphs():
    """The two factor graphs on conventional labels: one edge joining the
    faithful labels {4, 5}; a triangle on the non-faithful labels {1, 2, 3}."""
    pair = Graph.build([4, 5], [(4, 5)])
    triangle = Graph.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    return pair, triangle


def expected_overlap_graph(n):
    """Cartesian product of the pair graph with n-1 triangles (n >= 2)."""
    pair, triangle = seed_factor_graphs()
    g = pair
    for _ in range(n - 1):
        g = cartesian_product(g, triangle)
    return g


def lemma_report(n, fam=None, cap=DEFAULT_CAP):
    """Run the five checks for the series-A member at index n (n >= 2)."""
    if n < 2:
        raise ValueError("the seed-structure checks need n >= 2")
    if fam is None:
        fam = family("A", n, cap=cap)
    if (fam.series, fam.n) != ("A", n):
        raise ValueError(f"the seed checks at n = {n} need the series-A member {n}")
    report = fam.report()
    ambient_table, sub_table = report.ambient_table, report.sub_table
    block_table = character_table(fam.base_block)
    emb_block = class_fusion(fam.ambient, fam.base_block)

    parts = {}
    seeds = seed_characters(n, block_table)

    # (i) seeds induce irreducibly and injectively
    induced_rows = {}
    bad = None
    for sc in seeds:
        ind = induce_character(sc.values, emb_block)
        norm = inner_product(ind, ind).as_integer()
        if norm != 1:
            bad = f"seed {sc.labels} induces with norm {norm}"
            break
        row = ambient_table.irreducibles.index(ind)
        if row in induced_rows:
            bad = f"seeds {induced_rows[row]} and {sc.labels} induce to the same character"
            break
        induced_rows[row] = sc.labels
    expected_count = 2 * 3 ** (n - 1)
    if bad is None and len(induced_rows) != expected_count:
        bad = f"got {len(induced_rows)} induced characters, expected {expected_count}"
    parts["i"] = LemmaPart(bad is None,
                           bad or f"{expected_count} seeds induce irreducibly and injectively")

    sharing = relation_graph(tuple(zip(*report.entries))).adjacency()
    rows_sorted = sorted(induced_rows)

    # (ii) closure under sharing a subgroup constituent
    bad = next((f"induced character {induced_rows[y]} shares a constituent with "
                f"outside character amb:{j}"
                for y in rows_sorted for j in sharing[y] if j not in induced_rows), None)
    parts["ii"] = LemmaPart(bad is None, bad or "induced set is closed under the relation")

    # (iii) the sharing graph equals the expected product graph under the labels
    edges = {frozenset((induced_rows[y], induced_rows[j]))
             for y in rows_sorted for j in sharing[y] if j in induced_rows}
    expected = expected_overlap_graph(n)
    got_graph = Graph.build([induced_rows[y] for y in rows_sorted], edges)
    if got_graph.edges == expected.edges and set(got_graph.vertices) == set(expected.vertices):
        parts["iii"] = LemmaPart(True, f"sharing graph matches on {len(edges)} edges")
    else:
        missing = sorted(tuple(sorted(e)) for e in expected.edges - got_graph.edges)
        extra = sorted(tuple(sorted(e)) for e in got_graph.edges - expected.edges)
        parts["iii"] = LemmaPart(False, f"edge mismatch: missing {missing[:3]} extra {extra[:3]}")

    # (iv) distance of the two marked vertices in the product graph
    u = (4,) + (1,) * (n - 1)
    v = (4,) + (2,) * (n - 1)
    dist = bfs_distance(expected, u, v)
    parts["iv"] = LemmaPart(dist == n - 1, f"distance {u} -- {v} is {dist} (want {n - 1})")

    # (v) the witness pair sits at relation distance exactly n
    first, second = distance_witness_pair(n, sub_table)
    wdist = bfs_distance(report.graph, first, second)
    parts["v"] = LemmaPart(wdist == n, f"witness characters at distance {wdist} (want {n})")

    return LemmaReport(n, parts)
