"""The inclusion matrix of a subgroup pair and the depth criteria built on it.

For Irr(H) = psi_1..psi_r and Irr(G) = chi_1..chi_s the inclusion matrix has
entries m[i][j] = <psi_i^G, chi_j> = <psi_i, chi_j|_H>; both computations are
performed and must agree.  The matrix is a plain tuple of row tuples, and
every criterion below but the depth-one, normality and core checks reads
it alone, so a matrix with no tables behind it (a branching rule, say) goes
straight into them.  Its alternating powers M, M M^T, M M^T M, ... give
the matrix depth criterion: the depth is the smallest n with
M^(n+1) <= a * M^(n-1) entrywise for some positive integer a (M^0 is the
identity on the Irr(H) index set).

The character criteria: two irreducibles of H are related when they share an
irreducible constituent with some chi|_H.  Their distance in the relation
graph is None when no chain joins them; the maxima behind the bounds range
over reachable characters only, since ``distances_from`` returns no entry for
an unreachable one.  Depth <= 2m+1 iff all pairwise distances are at most
m (m >= 1); depth <= 2m iff every chi has its restriction's constituent set
within distance m-1 of every character of H (m >= 2);
depth <= 2 iff the subgroup is normal; depth = 1 iff G = H*C_G(x) for all x
in H.  A core bound comes separately from expressing the normal core as an
intersection of m conjugates: depth <= 2m, sharpened to 2m-1 for a central
core.

The verdict of the combined report is the minimum satisfied bound, and the
matrix criterion is recomputed independently and asserted to agree - any
mismatch raises instead of being smoothed over.
"""

from __future__ import annotations

from itertools import combinations, cycle
from operator import mul

from .chartab import (character_table, decompose, induce_character,
                      restrict_character)
from .errors import (CriterionMismatchError, InternalConsistencyError,
                     SubdepthError)
# bfs_distance and subgroup_core are unused here but perfbench/tracer.py
# wraps them on this module
from .graphs import Graph, bfs_distance, distances_from  # noqa: F401
from .perm import class_fusion, is_normal, min_core_conjugates, subgroup_core  # noqa: F401

__all__ = [
    "inclusion_matrix", "matrix_depth",
    "relation_graph", "m_chi", "depth_one_check", "core_depth_bound",
    "CoreBound", "ordinary_depth", "DepthReport",
]


def inclusion_matrix(ambient_table, sub_table, emb):
    """The inclusion matrix as a tuple of row tuples, rows Irr(H) and columns
    Irr(G); the criteria below read these entries alone.

    Columns come from restrict-then-decompose, rows from induce-then-decompose;
    a mismatch (or a failed column degree identity) raises
    :class:`InternalConsistencyError`.
    """
    if ambient_table.group is not emb.ambient or sub_table.group is not emb.sub:
        raise SubdepthError("tables do not match the embedding")
    columns = [decompose(restrict_character(chi, emb), sub_table)
               for chi in ambient_table.irreducibles]
    entries = tuple(zip(*columns))
    for i, psi in enumerate(sub_table.irreducibles):
        row = decompose(induce_character(psi, emb), ambient_table)
        if row != entries[i]:
            raise InternalConsistencyError(
                f"induction and restriction disagree on row {i}: {row} vs {entries[i]}")
    row_deg = sub_table.degrees()
    for j, (col, deg) in enumerate(zip(columns, ambient_table.degrees())):
        if sum(map(mul, col, row_deg)) != deg:
            raise InternalConsistencyError(f"column {j} does not decompose the degree")
    return entries


# ---------------------------------------------------------------------------
# Matrix powers and the matrix criterion
# ---------------------------------------------------------------------------

def _sparse_rows(rows):
    """Each row as the list of its nonzero (column, value) pairs."""
    return [[(c, v) for c, v in enumerate(row) if v] for row in rows]


def _alternating_powers(entries):
    """M^0, M^1, M^2, ... without end, each from the previous one by a
    single multiplication by M^T or M, held as sparse rows."""
    r, s = len(entries), len(entries[0])
    yield [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    factors = ((_sparse_rows(zip(*entries)), r), (_sparse_rows(entries), s))
    power = [list(row) for row in entries]
    for rows, width in cycle(factors):     # M^T to even powers, M to odd ones
        yield power
        nxt = []
        for prow in power:
            out = [0] * width
            for x, row in zip(prow, rows):
                if x:
                    for c, v in row:
                        out[c] += x * v
            nxt.append(out)
        power = nxt


def _dominated_by_multiple(p, q):
    """Smallest positive integer a with p <= a*q entrywise, or None."""
    a = 1
    for rp, rq in zip(p, q):
        for x, y in zip(rp, rq):
            if x:
                if not y:
                    return None
                need = -(-x // y)
                if need > a:
                    a = need
    return a


def matrix_depth(entries):
    """Smallest n with M^(n+1) <= a * M^(n-1) for some positive integer a,
    together with the smallest witness a."""
    powers = _alternating_powers(entries)
    prev, cur = next(powers), next(powers)                             # M^0, M^1
    for n in range(1, 2 * len(entries) + 2):
        nxt = next(powers)                                             # M^(n+1)
        a = _dominated_by_multiple(nxt, prev)
        if a is not None:
            return n, a
        prev, cur = cur, nxt
    raise InternalConsistencyError(
        "matrix depth search exceeded the theoretical bound 2|Irr(H)|+1")


# ---------------------------------------------------------------------------
# The relation graph and character distances
# ---------------------------------------------------------------------------

def relation_graph(entries):
    """Graph on Irr(H) indices: an edge joins two characters that share a
    column (i.e. occur together in some restricted irreducible of G)."""
    pairs = set()
    for column in zip(*entries):
        pairs.update(combinations([i for i, v in enumerate(column) if v], 2))
    return Graph.build(range(len(entries)), pairs)


def m_chi(entries, graph, j):
    """max over the alpha in Irr(H) reachable from the constituent set of
    column j of their distance to it (unreachable characters do not enter)."""
    support = [i for i, row in enumerate(entries) if row[j]]
    if not support:
        raise ValueError(f"column {j} of the inclusion matrix is zero")
    dist = distances_from(graph, support)
    return max(dist.values())


def depth_one_check(emb):
    """Whether G = H * C_G(x) for every x in H, for the embedding of H in G.

    Since |H C_G(x)| = |x^H| * |C_G(x)|, this holds exactly when every
    subgroup class has the same size as the ambient class it fuses into;
    one representative per class suffices.
    """
    g_sizes = emb.ambient.classes().sizes()
    for c, target in zip(emb.sub.classes().classes, emb.fusion):
        if c.size != g_sizes[target]:
            return False
    return True


class CoreBound:
    __slots__ = ("bound", "conjugate_count", "central", "witnesses")

    def __init__(self, bound, conjugate_count, central, witnesses):
        self.bound = bound
        self.conjugate_count = conjugate_count
        self.central = central
        self.witnesses = witnesses  # conjugating elements

    def to_obj(self):
        return {
            "bound": self.bound,
            "conjugate_count": self.conjugate_count,
            "core_is_central": self.central,
            "witnesses": [w.cycle_string() for w in self.witnesses],
        }


def core_depth_bound(ambient, sub):
    """Depth <= 2m from the core as an intersection of m conjugates; 2m-1
    when the core is central in the ambient group, that is, when each of its
    elements is alone in its ambient conjugacy class."""
    m, witnesses, core = min_core_conjugates(ambient, sub)
    cs = ambient.classes()
    central = all(cs.classes[cs.class_of(x)].size == 1 for x in core.raw_elements)
    bound = 2 * m - 1 if central else 2 * m
    return CoreBound(bound, m, central, tuple(witnesses))


# ---------------------------------------------------------------------------
# The combined report
# ---------------------------------------------------------------------------

class DepthReport:
    """Every depth criterion for H <= G, read off the inclusion matrix.

    The caller supplies the matrix with the tables and embedding behind it,
    and the three facts only the groups know: depth one, normality and the
    core bound.  The constructor computes the rest from ``entries``: the
    relation graph, the largest finite distance and the odd bound, the
    m-values, their maximum and the even bound, the verdict (the minimum
    satisfied bound) and the matrix depth with its witness.  It raises when
    the matrix criterion disagrees with the verdict or the verdict exceeds
    the core bound.
    """

    __slots__ = ("depth", "depth_one", "normal", "max_distance", "odd_bound", "max_m_chi",
                 "even_bound", "matrix_n", "matrix_witness", "core", "entries",
                 "ambient_table", "sub_table", "embedding", "graph", "m_values")

    def __init__(self, entries, ambient_table, sub_table, embedding, depth_one, normal, core):
        self.entries = entries            # the inclusion matrix, rows Irr(H)
        self.ambient_table = ambient_table
        self.sub_table = sub_table
        self.embedding = embedding
        self.depth_one = depth_one
        self.normal = normal
        self.core = core                  # CoreBound
        self.graph = graph = relation_graph(entries)
        # largest finite pairwise relation distance
        self.max_distance = max(max(distances_from(graph, [i]).values())
                                for i in range(len(entries)))
        self.odd_bound = 2 * max(1, self.max_distance) + 1
        self.m_values = tuple(m_chi(entries, graph, j) for j in range(len(entries[0])))
        self.max_m_chi = max(self.m_values)
        self.even_bound = 2 * max(2, self.max_m_chi + 1)
        # the odd bound is at least 3 and the even one at least 4
        self.depth = 1 if depth_one else 2 if normal else min(self.odd_bound, self.even_bound)
        self.matrix_n, self.matrix_witness = matrix_depth(entries)
        if self.matrix_n != self.depth:
            raise CriterionMismatchError(f"matrix criterion gives {self.matrix_n} "
                                         f"but the character criteria give {self.depth}")
        if self.depth > core.bound:
            raise InternalConsistencyError(
                f"depth {self.depth} exceeds the core bound {core.bound}")

    def to_obj(self):
        return {
            "schema": 1,
            "kind": "depth_report",
            "ambient_order": self.ambient_table.group.order,
            "subgroup_order": self.sub_table.group.order,
            "depth": self.depth,
            "criteria": {
                "depth_one": self.depth_one,
                "normal": self.normal,
                "odd": {"bound": self.odd_bound, "max_distance": self.max_distance},
                "even": {"bound": self.even_bound, "max_m_chi": self.max_m_chi},
                "matrix": {"depth": self.matrix_n, "witness_multiplier": self.matrix_witness},
                "core": self.core.to_obj(),
            },
            "inclusion_matrix": {
                "rows": [f"sub:{i}:deg{d}" for i, d in enumerate(self.sub_table.degrees())],
                "cols": [f"amb:{j}:deg{d}" for j, d in enumerate(self.ambient_table.degrees())],
                "entries": [list(r) for r in self.entries],
            },
            "relation_graph_edges": sorted(sorted(e) for e in self.graph.edges),
            "m_values": list(self.m_values),
        }


def ordinary_depth(ambient, sub):
    """Evaluate every depth criterion for H <= G and return the combined report.

    This supplies the class fusion, the two tables, the inclusion matrix and
    the three group facts (depth one, normality and the core bound);
    :class:`DepthReport` reads the matrix criteria off the entries and checks
    them against each other and against the core bound.
    """
    emb = class_fusion(ambient, sub)
    ambient_table, sub_table = character_table(ambient), character_table(sub)
    return DepthReport(inclusion_matrix(ambient_table, sub_table, emb), ambient_table,
                       sub_table, emb, depth_one_check(emb), is_normal(ambient, sub),
                       core_depth_bound(ambient, sub))
