import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdepth.graphs import Graph, bfs_distance, cartesian_product
from subdepth.lemma import expected_overlap_graph, seed_factor_graphs


def test_factor_graphs():
    pair, triangle = seed_factor_graphs()
    assert len(pair.edges) == 1
    assert len(triangle.edges) == 3
    # the triangle is complete on its three vertices
    for a in triangle.vertices:
        for b in triangle.vertices:
            if a != b:
                assert frozenset((a, b)) in triangle.edges


def test_graph_invariants():
    with pytest.raises(ValueError, match="duplicate"):
        Graph.build([1, 2, 1], [(1, 2)])
    with pytest.raises(ValueError, match="loops"):
        Graph.build([1, 2], [(1, 1)])
    with pytest.raises(ValueError, match="unknown vertex"):
        Graph.build([1, 2], [(1, 3)])


def test_product_counts():
    pair, triangle = seed_factor_graphs()
    g2 = cartesian_product(pair, triangle)
    assert len(g2.vertices) == 6
    # |E(A x B)| = |V(A)|*|E(B)| + |V(B)|*|E(A)|
    assert len(g2.edges) == 2 * 3 + 3 * 1 == 9
    g3 = expected_overlap_graph(3)
    assert len(g3.vertices) == 2 * 9
    assert len(g3.edges) == 6 * 3 + 3 * 9 == 45


def test_product_with_single_vertex():
    pair, _ = seed_factor_graphs()
    single = Graph.build([(0,)], [])
    prod = cartesian_product(pair, single)
    assert len(prod.vertices) == len(pair.vertices)
    assert len(prod.edges) == len(pair.edges)
    d = bfs_distance(prod, (4, 0), (5, 0))
    assert d == bfs_distance(pair, 4, 5) == 1


def test_bfs():
    g = Graph.build([1, 2, 3, 4], [(1, 2), (2, 3)])
    assert bfs_distance(g, 1, 3) == 2
    assert bfs_distance(g, 1, 1) == 0
    assert bfs_distance(g, 1, 4) is None
    with pytest.raises(KeyError):
        bfs_distance(g, 1, 99)


def test_marked_vertex_distances():
    g2 = expected_overlap_graph(2)
    assert bfs_distance(g2, (4, 1), (4, 2)) == 1
    g3 = expected_overlap_graph(3)
    assert bfs_distance(g3, (4, 1, 1), (4, 2, 2)) == 2


def test_distance_additivity():
    pair, triangle = seed_factor_graphs()
    for n in (2, 3):
        factors = [pair] + [triangle] * (n - 1)
        g = factors[0]
        for f in factors[1:]:
            g = cartesian_product(g, f)
        for u in g.vertices:
            for v in g.vertices:
                assert bfs_distance(g, u, v) == sum(
                    bfs_distance(factors[k], u[k], v[k]) for k in range(n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graph_equality_and_hash_ignore_pair_order_and_adjacency(data):
    pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
    shuffled = data.draw(st.permutations(pairs))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    a = Graph.build(range(5), pairs)
    b = Graph.build(range(5), [(q, p) if f else (p, q) for (p, q), f in zip(shuffled, flips)])
    for g in (a, b):
        if data.draw(st.booleans()):
            g.adjacency()
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    fewer = Graph.build(range(5), shuffled[1:])
    assert a != fewer and b != fewer


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 5))
    verts = list(range(n))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((i, j))
    return Graph.build(verts, pairs)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), small_graphs())
def test_product_edge_count_identity(a, b):
    prod = cartesian_product(a, b)
    assert len(prod.vertices) == len(a.vertices) * len(b.vertices)
    assert len(prod.edges) == \
        len(a.vertices) * len(b.edges) + len(b.vertices) * len(a.edges)
