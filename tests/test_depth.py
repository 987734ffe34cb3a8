import gc
import json
import weakref
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdepth import perm
from subdepth.chartab import character_table, table_to_obj
from subdepth.constructions import family, klein_labels, sym4_labels
from subdepth.depth import (DepthReport, InclusionMatrix, core_depth_bound,
                            depth_one_check, inclusion_matrix, m_chi, matrix_depth,
                            ordinary_depth, relation_graph)
from subdepth.graphs import bfs_distance, distances_from
from subdepth.perm import PermGroup, class_fusion, parse_generators

from reference import alternating_power, centralizer

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def v4_in_s4(bg, s4_table, v4_table):
    emb = class_fusion(bg.s4, bg.v4)
    return inclusion_matrix(s4_table, v4_table, emb)


def symmetric(k, degree):
    """S_k on the first k of ``degree`` points."""
    cycle = ",".join(str(p) for p in range(1, k + 1))
    return PermGroup.generated(parse_generators(f"(1,2);({cycle})", degree))


def reorder(matrix, s4_table, v4_table):
    """The inclusion matrix rewritten with classic row/column numbering."""
    chi = sym4_labels(s4_table)
    nu = klein_labels(v4_table)
    rows = [nu[f"nu{i}"] for i in range(1, 5)]
    cols = [chi[f"chi{j}"] for j in range(1, 6)]
    return [[matrix.entries[r][c] for c in cols] for r in rows]


def test_inclusion_matrix_v4(v4_in_s4, s4_table, v4_table):
    classic = reorder(v4_in_s4, s4_table, v4_table)
    assert classic == [
        [1, 1, 2, 0, 0],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1],
    ]


def test_inclusion_matrix_self_is_identity(bg, s4_table):
    emb = class_fusion(bg.s4, bg.s4)
    m = inclusion_matrix(s4_table, s4_table, emb)
    assert [list(r) for r in m.entries] == \
        [[1 if i == j else 0 for j in range(5)] for i in range(5)]


def test_inclusion_matrix_d8(bg, s4_table, d8_table):
    emb = class_fusion(bg.s4, bg.d8)
    m = inclusion_matrix(s4_table, d8_table, emb)
    assert m.shape == (5, 5)
    assert all(v in (0, 1) for row in m.entries for v in row)
    cols = list(zip(*m.entries))
    assert all(sum(col) >= 1 for col in cols)


def test_alternating_powers(v4_in_s4, s4_table, v4_table):
    chi = sym4_labels(s4_table)
    nu = klein_labels(v4_table)
    rows = [nu[f"nu{i}"] for i in range(1, 5)]
    cols = [chi[f"chi{j}"] for j in range(1, 6)]
    m1 = alternating_power(v4_in_s4, 1)
    assert [[m1[r][c] for c in cols] for r in rows] == reorder(v4_in_s4, s4_table, v4_table)
    m2 = alternating_power(v4_in_s4, 2)
    assert [[m2[r][rr] for rr in rows] for r in rows] == [
        [6, 0, 0, 0],
        [0, 2, 2, 2],
        [0, 2, 2, 2],
        [0, 2, 2, 2],
    ]
    m3 = alternating_power(v4_in_s4, 3)
    assert m3 == [[6 * v for v in row] for row in m1]
    m0 = alternating_power(v4_in_s4, 0)
    assert m0 == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_matrix_depth_examples(v4_in_s4, bg, s4_table, d8_table):
    assert matrix_depth(v4_in_s4) == (2, 6)
    emb = class_fusion(bg.s4, bg.s4)
    m_self = inclusion_matrix(s4_table, s4_table, emb)
    n, a = matrix_depth(m_self)
    assert n == 1 and a == 1
    emb = class_fusion(bg.s4, bg.d8)
    m_d8 = inclusion_matrix(s4_table, d8_table, emb)
    assert matrix_depth(m_d8)[0] == 4


# -- the sparse powers against a dense oracle ---------------------------------------

def dense_alternating_power(entries, k):
    """M^k by literal triple loops: M^(2l+1) = M^(2l) M, M^(2l) = M^(2l-1) M^T."""
    r, s = len(entries), len(entries[0])
    transpose = [[entries[i][j] for i in range(r)] for j in range(s)]
    power = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for step in range(1, k + 1):
        factor = entries if step % 2 else transpose
        power = [[sum(power[i][t] * factor[t][c] for t in range(len(factor)))
                  for c in range(len(factor[0]))] for i in range(len(power))]
    return power


def literal_matrix_depth(entries):
    """The first n with M^(n+1) <= a M^(n-1) entrywise, and the least such a."""
    n = 1
    while True:
        low = dense_alternating_power(entries, n - 1)
        high = dense_alternating_power(entries, n + 1)
        pairs = [(x, y) for hr, lr in zip(high, low) for x, y in zip(hr, lr) if x]
        if all(y for _, y in pairs):
            return n, max([-(-x // y) for x, y in pairs] + [1])
        n += 1


@st.composite
def sparse_matrices(draw):
    r, s = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = [draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 7]), min_size=s, max_size=s))
               for _ in range(r)]
    if draw(st.booleans()):
        entries[draw(st.integers(0, r - 1))] = [0] * s
    if draw(st.booleans()):
        zero = draw(st.integers(0, s - 1))
        for row in entries:
            row[zero] = 0
    return entries


@settings(max_examples=200, deadline=None)
@given(entries=sparse_matrices())
def test_sparse_powers_match_the_dense_product(entries):
    matrix = InclusionMatrix(None, None, None, tuple(map(tuple, entries)))
    for k in range(7):
        assert alternating_power(matrix, k) == dense_alternating_power(entries, k)


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("depth_*.json")))
def test_matrix_depth_matches_the_dense_loop_on_golden_pairs(name):
    report = json.loads((GOLDEN / f"{name}.json").read_text())
    entries = report["inclusion_matrix"]["entries"]
    matrix = InclusionMatrix(None, None, None, tuple(map(tuple, entries)))
    expected = report["criteria"]["matrix"]
    assert matrix_depth(matrix) == literal_matrix_depth(entries) == (
        expected["depth"], expected["witness_multiplier"])


def test_relation_graph_components(v4_in_s4, s4_table, v4_table, bg, d8_table):
    g = relation_graph(v4_in_s4)
    nu = klein_labels(v4_table)
    triangle = {nu["nu2"], nu["nu3"], nu["nu4"]}
    for a in triangle:
        for b in triangle:
            if a != b:
                assert frozenset((a, b)) in g.edges
    assert not any(nu["nu1"] in e for e in g.edges)
    # self-inclusion gives an edgeless graph
    emb = class_fusion(bg.s4, bg.s4)
    m_self = inclusion_matrix(s4_table, s4_table, emb)
    assert relation_graph(m_self).edges == frozenset()


def test_char_distances(v4_in_s4, v4_table):
    g = relation_graph(v4_in_s4)
    nu = klein_labels(v4_table)
    assert bfs_distance(g, nu["nu2"], nu["nu3"]) == 1
    assert bfs_distance(g, nu["nu1"], nu["nu2"]) is None
    assert bfs_distance(g, nu["nu2"], nu["nu2"]) == 0
    # an unrelated character has no distance, so no maximum over distances sees it
    assert nu["nu1"] not in distances_from(g, [nu["nu2"]])


def test_s3_relation_graph(bg, s4_table):
    s3_table = character_table(bg.s3)
    emb = class_fusion(bg.s4, bg.s3)
    m = inclusion_matrix(s4_table, s3_table, emb)
    g = relation_graph(m)
    # connected, and the two linear characters sit at distance 2
    linear = [i for i, chi in enumerate(s3_table.irreducibles) if chi.degree() == 1]
    assert len(linear) == 2
    assert bfs_distance(g, linear[0], linear[1]) == 2
    dists = [bfs_distance(g, i, j) for i in range(3) for j in range(3)]
    assert all(d >= 0 for d in dists)


def test_m_chi(v4_in_s4, s4_table):
    g = relation_graph(v4_in_s4)
    chi = sym4_labels(s4_table)
    assert m_chi(v4_in_s4, g, chi["chi1"]) == 0
    assert m_chi(v4_in_s4, g, chi["chi4"]) == 0
    with pytest.raises(ValueError):
        # a zero column cannot come from a real table; fabricate one
        fake = InclusionMatrix(v4_in_s4.ambient_table, v4_in_s4.sub_table, v4_in_s4.embedding,
                               tuple(tuple(0 for _ in r) for r in v4_in_s4.entries))
        m_chi(fake, g, 0)


def test_depth_one(bg):
    triv = PermGroup.trivial(4)
    assert depth_one_check(class_fusion(bg.s4, bg.s4))
    assert depth_one_check(class_fusion(bg.s4, triv))
    assert not depth_one_check(class_fusion(bg.s4, bg.v4))
    # oracle: literally compare |H * C_G(x)| with |G| over all x in H
    for sub in (bg.v4, bg.d8, bg.s3, triv):
        expected = all(
            len({(h * c).images for h in map(perm.Permutation, sub.raw_elements)
                 for c in map(perm.Permutation, centralizer(bg.s4, x).raw_elements)})
            == bg.s4.order
            for x in sub.raw_elements)
        assert depth_one_check(class_fusion(bg.s4, sub)) == expected


def test_core_depth_bound(bg):
    bound = core_depth_bound(bg.s4, bg.d8)
    assert (bound.bound, bound.conjugate_count, bound.central) == (4, 2, False)
    bound = core_depth_bound(bg.s4, bg.v4)
    assert (bound.bound, bound.conjugate_count) == (2, 1)
    # the point stabiliser has trivial (hence central) core: bound 2*3-1
    bound = core_depth_bound(bg.s4, bg.s3)
    assert (bound.bound, bound.conjugate_count, bound.central) == (5, 3, True)
    # S_n < S_(n+1): n point stabilisers meet in the trivial core, bound 2n-1
    for n in range(2, 6):
        bound = core_depth_bound(symmetric(n + 1, n + 1), symmetric(n, n + 1))
        assert (bound.bound, bound.conjugate_count, bound.central) == (2 * n - 1, n, True)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_core_is_central_exactly_when_it_commutes_with_the_group(data):
    degree = data.draw(st.integers(1, 6))
    gens = data.draw(st.lists(st.permutations(range(degree)).map(perm.Permutation),
                              min_size=1, max_size=3))
    group = PermGroup.generated(gens)
    elements = [perm.Permutation(x) for x in group.raw_elements]
    x = elements[data.draw(st.integers(0, group.order - 1))]
    sub = PermGroup.generated([x])
    core = perm.subgroup_core(group, sub)
    central = all(z * g == g * z for z in map(perm.Permutation, core.raw_elements)
                  for g in elements)
    assert core_depth_bound(group, sub).central == central



@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_depth_theorems_on_random_pairs(data):
    # G on at most 5 points, H generated by one or two of its elements; every
    # expectation is computed literally from the elements
    degree = data.draw(st.integers(1, 5))
    gens = data.draw(st.lists(st.permutations(range(degree)).map(perm.Permutation),
                              min_size=1, max_size=3))
    group = PermGroup.generated(gens)
    elements = [perm.Permutation(x) for x in group.raw_elements]
    sub = PermGroup.generated(data.draw(st.lists(st.sampled_from(elements),
                                                 min_size=1, max_size=2)))
    sub_elements = [perm.Permutation(x) for x in sub.raw_elements]
    depth = ordinary_depth(group, sub).depth
    normal = all(h.conjugated_by(g) in sub for g in elements for h in sub_elements)
    assert (depth <= 2) == normal

    def centralizer_order(elements, h):
        return sum(g * h == h * g for g in elements)
    depth_one = all(sub.order * centralizer_order(elements, h)
                    == group.order * centralizer_order(sub_elements, h) for h in sub_elements)
    assert (depth == 1) == depth_one
    g = data.draw(st.sampled_from(elements))
    conjugate = PermGroup.generated([h.conjugated_by(g) for h in sub.generators])
    assert ordinary_depth(group, conjugate).depth == depth
    assert ordinary_depth(group, group).depth == 1


def test_core_depth_bound_enumerates_conjugates_once(bg, core_enumerations):
    for sub in (bg.v4, bg.d8, bg.s3, bg.s4):
        core_enumerations.clear()
        core_depth_bound(bg.s4, sub)
        assert len(core_enumerations) == 1


def test_conjugation_action_built_once_per_group(monkeypatch, core_enumerations):
    built = []
    build = perm._conjugation_action

    def counting(group):
        built.append(group)
        return build(group)

    monkeypatch.setattr(perm, "_conjugation_action", counting)
    s6, s5 = symmetric(6, 6), symmetric(5, 6)
    assert ordinary_depth(s6, s5).depth == 9
    # classes of both groups and the core search in S6 all ran; the core
    # reused the action S6's classes built
    assert len(core_enumerations) == 1
    assert sorted(map(id, built)) == sorted([id(s6), id(s5)])


def test_dead_groups_are_freed_without_the_collector():
    gc.collect()
    gc.disable()
    try:
        s4, d8 = symmetric(4, 4), PermGroup.generated(parse_generators("(1,3);(1,2,3,4)"))
        report = ordinary_depth(s4, d8)
        assert report.depth == 4
        groups = [weakref.ref(s4), weakref.ref(d8)]
        tables = [weakref.ref(report.inclusion.ambient_table),
                  weakref.ref(report.inclusion.sub_table)]
        del s4, d8, report
        # no reference cycle keeps a group, its elements or its table alive
        assert [ref() for ref in groups + tables] == [None] * 4
    finally:
        gc.enable()


def test_ordinary_depth_small_pairs(bg):
    assert ordinary_depth(bg.s4, bg.v4).depth == 2
    assert ordinary_depth(bg.s4, bg.d8).depth == 4
    assert ordinary_depth(bg.s4, bg.s3).depth == 5


def test_report_consistency(bg):
    rep = ordinary_depth(bg.s4, bg.d8)
    assert rep.matrix_n == rep.depth
    assert rep.depth <= rep.core.bound
    obj = rep.to_obj()
    assert obj["schema"] == 1 and obj["depth"] == 4
    assert obj["criteria"]["matrix"]["depth"] == 4


# -- outputs do not depend on the element order ------------------------------------
# The element order is the breadth-first closure order of the generator list;
# classes are labelled in the order that walk discovers them and only then
# sorted canonically, so every output must be the same for another order.

def report_json(ambient, sub):
    return json.dumps(ordinary_depth(ambient, sub).to_obj(), sort_keys=True, indent=2)


def assert_same_classes_and_table(group, other):
    assert set(group.raw_elements) == set(other.raw_elements)
    cs, other_cs = group.classes(), other.classes()
    assert [(c.rep, c.size) for c in cs.classes] == [(c.rep, c.size) for c in other_cs.classes]
    assert all(cs.class_of(x) == other_cs.class_of(x) for x in group.raw_elements)
    assert (json.dumps(table_to_obj(character_table(group)), sort_keys=True)
            == json.dumps(table_to_obj(character_table(other)), sort_keys=True))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_outputs_do_not_depend_on_the_generator_order(data):
    degree = data.draw(st.integers(1, 7))
    gens = data.draw(st.lists(st.permutations(range(degree)).map(perm.Permutation),
                              min_size=1, max_size=3))
    group = PermGroup.generated(gens)
    other = PermGroup.generated(data.draw(st.permutations(gens)))
    assert_same_classes_and_table(group, other)
    # the core witnesses are products of the generators, found by a walk over
    # them in the order of their images, so they do not differ either
    sub = PermGroup.generated(gens[:1])
    assert report_json(group, sub) == report_json(other, sub)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_outputs_agree_on_the_top_points_of_degree_256_and_257(data):
    # a pair on at most 5 points moved onto the last points of degree 256,
    # where elements are bytes keys, and of degree 257, where they are tuples
    degree = data.draw(st.integers(1, 5))
    gens = data.draw(st.lists(st.permutations(range(degree)).map(perm.Permutation),
                              min_size=1, max_size=3))
    small = PermGroup.generated(gens)
    sub_gens = data.draw(st.lists(st.sampled_from(small.raw_elements).map(perm.Permutation),
                                  min_size=1, max_size=2))
    moved = []
    for big, key in ((256, bytes), (257, tuple)):
        offset = big - degree
        group, sub = (PermGroup.generated([p.shifted(offset, big) for p in perms])
                      for perms in (gens, sub_gens))
        assert all(type(x) is key for x in group.raw_elements)
        classes = group.classes().classes
        assert [c.size for c in classes] == small.classes().sizes()
        assert [c.rep.window(offset, degree) for c in classes] \
            == [c.rep for c in small.classes().classes]
        report = ordinary_depth(group, sub)
        witnesses = [w.window(offset, degree) for w in report.core.witnesses]
        moved.append((group, report, witnesses))
    (group_b, report_b, witnesses_b), (group_t, report_t, witnesses_t) = moved
    assert ([chi.values for chi in character_table(group_b).irreducibles]
            == [chi.values for chi in character_table(group_t).irreducibles])
    for name in DepthReport.__slots__:
        if name not in ("core", "inclusion"):
            assert getattr(report_b, name) == getattr(report_t, name), name
    assert report_b.inclusion.entries == report_t.inclusion.entries
    core_b, core_t = report_b.core, report_t.core
    assert (core_b.bound, core_b.conjugate_count, core_b.central, witnesses_b) \
        == (core_t.bound, core_t.conjugate_count, core_t.central, witnesses_t)


def test_wreath_outputs_do_not_depend_on_the_generator_order():
    fam = family("A", 2)
    ambient, sub = fam.ambient, fam.subgroup
    expected = report_json(ambient, sub)
    orders = set()
    for gens in permutations(ambient.generators):
        other = PermGroup.generated(gens)
        orders.add(tuple(other.raw_elements))
        assert_same_classes_and_table(ambient, other)
        assert report_json(other, sub) == expected
    assert len(orders) == 6
