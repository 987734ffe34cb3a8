"""The inclusion matrix of a subgroup pair and the depth criteria built on it.

For Irr(H) = psi_1..psi_r and Irr(G) = chi_1..chi_s the inclusion matrix has
entries m[i][j] = <psi_i^G, chi_j> = <psi_i, chi_j|_H>; both computations are
performed and must agree.  Its alternating powers M, M M^T, M M^T M, ... give
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

from dataclasses import dataclass
from itertools import cycle, islice

from .chartab import (character_table, decompose, induce_character,
                      restrict_character)
from .errors import (CriterionMismatchError, InternalConsistencyError,
                     SubdepthError)
# bfs_distance and subgroup_core are unused here but perfbench/tracer.py
# wraps them on this module
from .graphs import Graph, bfs_distance, distances_from  # noqa: F401
from .perm import class_fusion, is_normal, min_core_conjugates, subgroup_core  # noqa: F401

__all__ = [
    "InclusionMatrix", "inclusion_matrix", "alternating_power", "matrix_depth",
    "relation_graph", "m_chi", "depth_one_check", "core_depth_bound",
    "CoreBound", "ordinary_depth", "DepthReport",
]


@dataclass(frozen=True)
class InclusionMatrix:
    """Induction/restriction multiplicities between Irr(H) (rows) and Irr(G) (columns)."""

    ambient_table: object
    sub_table: object
    embedding: object
    entries: tuple  # tuple of row tuples, nonnegative ints

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]) if self.entries else 0)

    def row_degrees(self):
        return [chi.degree() for chi in self.sub_table.irreducibles]

    def col_degrees(self):
        return [chi.degree() for chi in self.ambient_table.irreducibles]

    def to_obj(self):
        return {
            "rows": [f"sub:{i}:deg{d}" for i, d in enumerate(self.row_degrees())],
            "cols": [f"amb:{j}:deg{d}" for j, d in enumerate(self.col_degrees())],
            "entries": [list(r) for r in self.entries],
        }


def inclusion_matrix(ambient_table, sub_table, emb):
    """Build the inclusion matrix, verifying both computations agree.

    Columns come from restrict-then-decompose, rows from induce-then-decompose;
    a mismatch (or a failed column degree identity) raises
    :class:`InternalConsistencyError`.
    """
    if ambient_table.group is not emb.ambient or sub_table.group is not emb.sub:
        raise SubdepthError("tables do not match the embedding")
    r = len(sub_table.irreducibles)
    s = len(ambient_table.irreducibles)
    by_restriction = [[0] * s for _ in range(r)]
    for j, chi in enumerate(ambient_table.irreducibles):
        col = decompose(restrict_character(chi, emb), sub_table)
        for i in range(r):
            by_restriction[i][j] = col[i]
    for i, psi in enumerate(sub_table.irreducibles):
        row = decompose(induce_character(psi, emb), ambient_table)
        if list(row) != by_restriction[i]:
            raise InternalConsistencyError(
                f"induction and restriction disagree on row {i}: {row} vs {by_restriction[i]}")
    row_deg = [psi.degree() for psi in sub_table.irreducibles]
    for j, chi in enumerate(ambient_table.irreducibles):
        if sum(by_restriction[i][j] * row_deg[i] for i in range(r)) != chi.degree():
            raise InternalConsistencyError(f"column {j} does not decompose the degree")
    return InclusionMatrix(ambient_table, sub_table, emb,
                           tuple(tuple(row) for row in by_restriction))


# ---------------------------------------------------------------------------
# Matrix powers and the matrix criterion
# ---------------------------------------------------------------------------

def _sparse_rows(rows):
    """Each row as the list of its nonzero (column, value) pairs."""
    return [[(c, v) for c, v in enumerate(row) if v] for row in rows]


def _alternating_powers(matrix):
    """M^0, M^1, M^2, ... without end, each from the previous one by a
    single multiplication by M^T or M, held as sparse rows."""
    entries = [list(row) for row in matrix.entries]
    r, s = matrix.shape
    yield [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    factors = ((_sparse_rows(zip(*entries)), r), (_sparse_rows(entries), s))
    power = entries
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


def alternating_power(matrix, n):
    """The n-th alternating power: M^1 = M, M^(2l) = M^(2l-1) M^T,
    M^(2l+1) = M^(2l) M; M^0 is the identity on the row index set."""
    return next(islice(_alternating_powers(matrix), n, None))


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


def matrix_depth(matrix):
    """Smallest n with M^(n+1) <= a * M^(n-1) for some positive integer a,
    together with the smallest witness a."""
    powers = _alternating_powers(matrix)
    prev, cur = next(powers), next(powers)                             # M^0, M^1
    for n in range(1, 2 * matrix.shape[0] + 2):
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

def relation_graph(matrix):
    """Graph on Irr(H) indices: an edge joins two characters that share a
    column (i.e. occur together in some restricted irreducible of G)."""
    r, s = matrix.shape
    pairs = set()
    for j in range(s):
        support = [i for i in range(r) if matrix.entries[i][j]]
        for a in range(len(support)):
            for b in range(a + 1, len(support)):
                pairs.add((support[a], support[b]))
    return Graph.build(range(r), pairs)


def m_chi(matrix, graph, j):
    """max over the alpha in Irr(H) reachable from the constituent set of
    column j of their distance to it (unreachable characters do not enter)."""
    support = [i for i in range(matrix.shape[0]) if matrix.entries[i][j]]
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


@dataclass(frozen=True)
class CoreBound:
    bound: int
    conjugate_count: int
    central: bool
    witnesses: tuple  # conjugating elements

    def to_obj(self):
        return {
            "bound": self.bound,
            "conjugate_count": self.conjugate_count,
            "core_is_central": self.central,
            "witnesses": [w.cycle_string() for w in self.witnesses],
        }


def core_depth_bound(ambient, sub):
    """Depth <= 2m from the core as an intersection of m conjugates; 2m-1
    when the core is central in the ambient group."""
    m, witnesses, core = min_core_conjugates(ambient, sub)
    central = all(ambient.center_contains(x) for x in core.raw_elements)
    bound = 2 * m - 1 if central else 2 * m
    return CoreBound(bound, m, central, tuple(witnesses))


# ---------------------------------------------------------------------------
# The combined report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DepthReport:
    depth: int
    depth_one: bool
    normal: bool
    max_distance: int        # largest finite pairwise relation distance
    odd_bound: int           # 2*max(1, max_distance) + 1
    max_m_chi: int
    even_bound: int          # 2*max(2, max_m_chi + 1)
    matrix_n: int
    matrix_witness: int
    core: CoreBound
    inclusion: InclusionMatrix
    graph: Graph
    m_values: tuple

    def to_obj(self):
        return {
            "schema": 1,
            "kind": "depth_report",
            "ambient_order": self.inclusion.ambient_table.group.order,
            "subgroup_order": self.inclusion.sub_table.group.order,
            "depth": self.depth,
            "criteria": {
                "depth_one": self.depth_one,
                "normal": self.normal,
                "odd": {"bound": self.odd_bound, "max_distance": self.max_distance},
                "even": {"bound": self.even_bound, "max_m_chi": self.max_m_chi},
                "matrix": {"depth": self.matrix_n, "witness_multiplier": self.matrix_witness},
                "core": self.core.to_obj(),
            },
            "inclusion_matrix": self.inclusion.to_obj(),
            "relation_graph_edges": sorted(sorted(e) for e in self.graph.edges),
            "m_values": list(self.m_values),
        }


def ordinary_depth(ambient, sub):
    """Evaluate every depth criterion for H <= G and return the combined report.

    The verdict is the minimum satisfied character-criterion bound; the matrix
    criterion and the core bound are computed independently and must be
    consistent (equality resp. upper bound), otherwise this raises.
    """
    emb = class_fusion(ambient, sub)
    matrix = inclusion_matrix(character_table(ambient), character_table(sub), emb)
    graph = relation_graph(matrix)

    r, s = matrix.shape
    max_distance = 0
    for i in range(r):
        dist = distances_from(graph, [i])
        far = max(dist.values())
        if far > max_distance:
            max_distance = far
    odd_bound = 2 * max(1, max_distance) + 1

    m_values = tuple(m_chi(matrix, graph, j) for j in range(s))
    max_m = max(m_values)
    even_bound = 2 * max(2, max_m + 1)

    bounds = [odd_bound, even_bound]
    d1 = depth_one_check(emb)
    if d1:
        bounds.append(1)
    nrm = is_normal(ambient, sub)
    if nrm:
        bounds.append(2)
    depth = min(bounds)

    mat_n, mat_a = matrix_depth(matrix)
    if mat_n != depth:
        raise CriterionMismatchError(
            f"matrix criterion gives {mat_n} but the character criteria give {depth}")
    core = core_depth_bound(ambient, sub)
    if depth > core.bound:
        raise InternalConsistencyError(
            f"depth {depth} exceeds the core bound {core.bound}")
    return DepthReport(depth, d1, nrm, max_distance, odd_bound, max_m,
                       even_bound, mat_n, mat_a, core, matrix, graph, m_values)
