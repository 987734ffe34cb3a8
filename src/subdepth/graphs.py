"""Small undirected graphs: Cartesian products and breadth-first distances.

A distance is an int, or ``None`` for a pair with no path between them.
"""

from __future__ import annotations

__all__ = ["Graph", "cartesian_product", "bfs_distance", "distances_from"]


class Graph:
    """Vertices are hashable labels; edges are unordered pairs, no loops.
    Two graphs are equal, and hash equal, when their vertex tuples and edge
    sets are; the adjacency cache takes no part."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices, edges):
        vs = set(vertices)
        if len(vs) != len(vertices):
            raise ValueError("duplicate vertex labels")
        for e in edges:
            pair = tuple(e)
            if len(pair) != 2:
                raise ValueError(f"edge {e!r} is not a 2-element set (loops are not allowed)")
            if pair[0] not in vs or pair[1] not in vs:
                raise ValueError(f"edge {e!r} references an unknown vertex")
        self.vertices = vertices  # tuple
        self.edges = edges        # frozenset of 2-element frozensets
        self._adj = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    @staticmethod
    def build(vertices, pairs):
        return Graph(tuple(vertices), frozenset(frozenset(p) for p in pairs))

    def adjacency(self):
        if self._adj is None:
            adj = {v: [] for v in self.vertices}
            for e in self.edges:
                a, b = tuple(e)
                adj[a].append(b)
                adj[b].append(a)
            for v in adj:
                adj[v].sort()
            self._adj = adj
        return self._adj


def cartesian_product(a, b):
    """Cartesian product: vertices are concatenated label tuples; an edge moves
    exactly one factor along one of that factor's edges."""
    def as_tuple(v):
        return v if isinstance(v, tuple) else (v,)

    verts = []
    for va in a.vertices:
        for vb in b.vertices:
            verts.append(as_tuple(va) + as_tuple(vb))
    pairs = []
    for va in a.vertices:
        ta = as_tuple(va)
        for e in b.edges:
            x, y = tuple(e)
            pairs.append((ta + as_tuple(x), ta + as_tuple(y)))
    for vb in b.vertices:
        tb = as_tuple(vb)
        for e in a.edges:
            x, y = tuple(e)
            pairs.append((as_tuple(x) + tb, as_tuple(y) + tb))
    return Graph.build(verts, pairs)


def distances_from(graph, sources):
    """Finite BFS distances from a set of source vertices (missing = unreachable)."""
    adj = graph.adjacency()
    dist = {}
    frontier = []
    for s in sources:
        if s not in adj:
            raise KeyError(f"unknown vertex {s!r}")
        if s not in dist:
            dist[s] = 0
            frontier.append(s)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist

def bfs_distance(graph, u, v):
    """Shortest-path length between two vertices; None when disconnected."""
    adj = graph.adjacency()
    if u not in adj or v not in adj:
        raise KeyError(f"unknown vertex {u!r} or {v!r}")
    return distances_from(graph, [u]).get(v)
