import sys
import time
import tracemalloc
from itertools import accumulate, combinations, permutations, product
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subdepth import perm
from subdepth.constructions import direct_product
from subdepth.errors import (CycleParseError, EnumerationCapExceeded,
                             NotASubgroupError)
from subdepth.perm import (PermGroup, Permutation, class_fusion,
                           is_normal, min_core_conjugates, parse_cycle_notation,
                           parse_generators, subgroup_core)

from reference import centralizer


def S4():
    return PermGroup.generated(parse_generators("(1,2);(1,2,3,4)"))


def V4():
    return PermGroup.generated(parse_generators("(1,3)(2,4);(1,2)(3,4)", degree=4))


def D8():
    return PermGroup.generated(parse_generators("(1,3);(1,2,3,4)"))


# -- parsing -----------------------------------------------------------------

def test_parse_examples():
    p = parse_cycle_notation("(1,3)(2,4)", 4)
    assert p.images == (2, 3, 0, 1)
    assert parse_cycle_notation("()", 4).is_identity
    # expanding the product of transpositions (j, j+4) by hand
    sigma2 = parse_cycle_notation("(1,5)(2,6)(3,7)(4,8)", 8)
    expected = Permutation([(i + 4) % 8 for i in range(8)])
    assert sigma2 == expected


def test_parse_errors():
    with pytest.raises(CycleParseError):
        parse_cycle_notation("(1,2", 4)
    with pytest.raises(CycleParseError):
        parse_cycle_notation("(1,2)(2,3)", 4)  # repeated point
    with pytest.raises(CycleParseError):
        parse_cycle_notation("(1,5)", 4)  # point exceeds degree
    with pytest.raises(CycleParseError):
        parse_cycle_notation("(1,x)", 4)
    with pytest.raises(CycleParseError):
        parse_cycle_notation("1,2", 4)
    with pytest.raises(CycleParseError):
        parse_cycle_notation("(1)", 4)


def test_parse_time_is_linear_in_the_text():
    # 100,000 transpositions (1.39 MB of text) on degree 200,000; a scan that
    # copies the rest of the text once per cycle took 3.6 s here
    n = 100_000
    text = "".join(f"({2 * k + 1},{2 * k + 2})" for k in range(n))
    start = time.perf_counter()
    p = parse_cycle_notation(text, 2 * n)
    assert time.perf_counter() - start < 1.5
    assert p.images == tuple(i ^ 1 for i in range(2 * n))


def test_cycle_string_roundtrip():
    for text in ["()", "(1,2)", "(1,3)(2,4)", "(1,2,3,4)", "(2,3,4)"]:
        assert parse_cycle_notation(text, 4).cycle_string() == text


perms = st.permutations(range(6)).map(Permutation)


@settings(max_examples=100, deadline=None)
@given(perms, perms, perms)
def test_composition_algebra(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * a.inverse() == Permutation.identity(6)
    assert a.inverse() * a == Permutation.identity(6)
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert parse_cycle_notation(a.cycle_string(), 6) == a


@settings(max_examples=50, deadline=None)
@given(perms, perms)
def test_conjugation_relabels(a, s):
    conj = a.conjugated_by(s)
    assert conj.order() == a.order()
    assert sorted(len(c) for c in conj.cycles()) == sorted(len(c) for c in a.cycles())


# -- enumeration --------------------------------------------------------------

def test_enumerate_s4():
    assert S4().order == 24


def test_enumerate_deterministic():
    gens = parse_generators("(1,2);(1,2,3,4)")
    a = PermGroup.generated(gens)
    b = PermGroup.generated(parse_generators("(1,2);(1,2,3,4)"))
    assert a.raw_elements == b.raw_elements


def test_enumerate_cap():
    with pytest.raises(EnumerationCapExceeded) as exc:
        PermGroup.generated(parse_generators("(1,2);(1,2,3,4)"), cap=10)
    assert exc.value.partial_count == 10
    # a cap equal to the order is fine
    assert PermGroup.generated(parse_generators("(1,2);(1,2,3,4)"), cap=24).order == 24


def test_order_divides_factorial():
    import math
    for g in (S4(), V4(), D8()):
        assert math.factorial(g.degree) % g.order == 0


# -- conjugacy classes ----------------------------------------------------------

def test_s4_classes():
    cs = S4().classes()
    assert cs.sizes() == [1, 3, 6, 6, 8]
    assert sum(cs.sizes()) == 24
    assert all(24 % s == 0 for s in cs.sizes())
    # representatives hit each cycle type: identity, 2+2, transposition, 4-cycle, 3-cycle
    shapes = [sorted(len(c) for c in cls.rep.cycles()) for cls in cs.classes]
    assert shapes == [[], [2, 2], [2], [4], [3]]


def test_v4_classes_singletons():
    cs = V4().classes()
    assert cs.sizes() == [1, 1, 1, 1]


def test_class_lookup_reads_the_groups_own_index():
    # class_of maps an image tuple through the group's index dict and one
    # class label per element index; no second element-keyed dict is built
    group = PermGroup.generated(parse_generators("(1,2);(1,2,3,4,5,6,7)"))
    group._conjugation()
    tracemalloc.start()
    try:
        cs = group.classes()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < sys.getsizeof(group._index)
    assert len(cs.labels) == group.order
    assert all(cs.class_of(x) == cs.labels[i] for i, x in enumerate(group.raw_elements))
    assert cs.class_of(tuple(range(7))) == 0
    with pytest.raises(KeyError):
        cs.class_of(tuple(range(8)))


def test_class_partition():
    g = D8()
    cs = g.classes()
    seen = set()
    for c in cs.classes:
        for idx in c.members:
            assert idx not in seen
            seen.add(idx)
    assert len(seen) == g.order


def test_centralizer():
    s4 = S4()
    assert centralizer(s4, Permutation.identity(4)).order == 24
    x = parse_cycle_notation("(1,3)(2,4)", 4)
    c = centralizer(s4, x)
    assert c.order == 8
    # |centralizer| * |class| = |G|
    cs = s4.classes()
    for cls in cs.classes:
        assert centralizer(s4, cls.rep).order * cls.size == s4.order
    v4 = V4()
    for el in v4.raw_elements:
        assert centralizer(v4, el) == v4
    with pytest.raises(NotASubgroupError):
        centralizer(v4, parse_cycle_notation("(1,2)", 4))


def test_is_normal():
    s4 = S4()
    assert is_normal(s4, V4())
    assert not is_normal(s4, D8())
    assert is_normal(s4, s4)
    with pytest.raises(NotASubgroupError):
        is_normal(V4(), s4)


def test_core_examples():
    s4, v4, d8 = S4(), V4(), D8()
    assert subgroup_core(s4, v4) == v4
    core = subgroup_core(s4, d8)
    assert core == v4
    # independent oracle: literally intersect all element-wise conjugates
    conjugates = set()
    for g in s4.raw_elements:
        conjugates.add(frozenset(literal_conjugate(g, h) for h in d8.raw_elements))
    inter = set.intersection(*map(set, conjugates))
    assert inter == set(map(tuple, core.raw_elements))
    # core is normal, contained in the subgroup, and stable under more intersection
    assert is_normal(s4, core)
    assert d8.contains_group(core)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2000), min_size=1, max_size=60), st.booleans())
def test_bitset_sets_exactly_the_given_bits(indices, with_duplicates):
    indices = indices + [0] + (indices[:3] if with_duplicates else [])
    assert perm._bitset(indices) == sum(1 << i for i in set(indices))


def test_min_core_conjugates():
    s4, v4, d8 = S4(), V4(), D8()
    m, wit, core = min_core_conjugates(s4, v4)
    assert m == 1 and wit[0].is_identity and core == v4
    m, wit, core = min_core_conjugates(s4, d8)
    assert m == 2 and core == subgroup_core(s4, d8)
    # witnesses verifiably intersect to the core
    sets = [frozenset(literal_conjugate(w.images, h) for h in d8.raw_elements) for w in wit]
    assert set.intersection(*map(set, sets)) == set(map(tuple, core.raw_elements))


def test_class_fusion():
    s4, v4 = S4(), V4()
    emb = class_fusion(s4, v4)
    # identity fuses to identity; the three nontrivial classes all fuse to the
    # double-transposition class of the ambient group
    assert emb.fusion[0] == 0
    assert set(emb.fusion[1:]) == {1}


def test_from_elements_generators():
    s4 = S4()
    rebuilt = PermGroup.from_elements(4, s4.raw_elements)
    assert rebuilt == s4
    regenerated = PermGroup.generated(rebuilt.generators)
    assert regenerated == s4


def test_from_elements_rejects_unclosed_sets():
    identity = Permutation.identity(4)
    three_cycle = parse_cycle_notation("(1,2,3)", 4)
    with pytest.raises(ValueError):
        PermGroup.from_elements(4, [identity, three_cycle])
    # the first generator closes up to the set's size, but misses (1,2)
    with pytest.raises(ValueError):
        PermGroup.from_elements(4, [identity, parse_cycle_notation("(2,3,4)", 4),
                                    parse_cycle_notation("(1,2)", 4)])


def test_from_elements_stops_once_a_closure_outgrows_the_set():
    # (1,2) and a 9-cycle generate S9, but the closure stops at the set's size
    elements = [Permutation.identity(9), parse_cycle_notation("(1,2)", 9),
                parse_cycle_notation("(1,2,3,4,5,6,7,8,9)", 9)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            PermGroup.from_elements(9, elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- brute-force oracle for the index-based classes and cores ----------------------

def literal_conjugate(g, x):
    """g·x·g⁻¹ on image tuples: (g·x·g⁻¹)(g(t)) = g(x(t))."""
    out = [0] * len(x)
    for t, v in enumerate(x):
        out[g[t]] = g[v]
    return tuple(out)


def literal_conjugates(group, sub):
    """The distinct sets g·H·g⁻¹, one g per left coset gH (they share the set)."""
    out = set()
    covered = set()
    for g in map(tuple, group.raw_elements):
        if g not in covered:
            out.add(frozenset(literal_conjugate(g, h) for h in sub.raw_elements))
            covered.update(tuple(map(g.__getitem__, h)) for h in sub.raw_elements)
    return out


@st.composite
def generated_groups(draw, max_degree):
    degree = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(degree)).map(Permutation),
                         min_size=1, max_size=3))
    return PermGroup.generated(gens)


@st.composite
def groups_built_by(draw, kind, max_degree):
    """A random group on at most ``max_degree`` points, built by ``kind``."""
    if kind == "trivial":
        return PermGroup.trivial(draw(st.integers(1, max_degree)))
    if kind == "direct_product":
        half = max_degree // 2
        return direct_product([draw(generated_groups(half)), draw(generated_groups(half))])
    group = draw(generated_groups(max_degree))
    if kind == "from_elements":
        group = PermGroup.from_elements(group.degree, group.raw_elements)
    return group


@st.composite
def groups_with_subgroups(draw, kind):
    """A random group on at most 6 points, built by ``kind``, and a subgroup
    generated by one or two of its elements."""
    group = draw(groups_built_by(kind, 6))
    sub = PermGroup.generated(draw(st.lists(st.sampled_from(group.raw_elements).map(Permutation),
                                            min_size=1, max_size=2)))
    return group, sub


@pytest.mark.parametrize("kind", ["generated", "from_elements", "direct_product"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_groups_are_equal_exactly_when_their_elements_are(kind, data):
    group, sub = data.draw(groups_with_subgroups(kind))
    gens = list(group.generators)
    reordered = PermGroup.generated(data.draw(st.permutations(gens)))
    rebuilt = PermGroup.from_elements(group.degree, group.raw_elements[::-1])
    for other in (group, reordered, rebuilt):
        assert other == group and group == other and hash(other) == hash(group)
    if sub.order < group.order:
        assert sub != group and group != sub
    wider = PermGroup.generated([Permutation(g.images + (group.degree,)) for g in gens])
    assert wider.order == group.order and wider != group and group != wider
    assert group != set(group.raw_elements)


@pytest.mark.parametrize("kind", ["generated", "from_elements", "direct_product"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_containment_from_generators_matches_the_element_sets(kind, data):
    # contains_group reads only the generators; compare it and == with the
    # literal element sets, for groups inside, outside and of another degree
    group = data.draw(groups_built_by(kind, 6))
    degree, elements = group.degree, set(group.raw_elements)
    inside = data.draw(st.lists(st.sampled_from(group.raw_elements).map(Permutation),
                                min_size=1, max_size=3))
    anywhere = data.draw(st.lists(st.permutations(range(degree)).map(Permutation),
                                  min_size=1, max_size=3))
    other_degree = data.draw(st.integers(1, 6).filter(lambda d: d != degree))
    foreign = data.draw(st.lists(st.permutations(range(other_degree)).map(Permutation),
                                 min_size=1, max_size=2))
    for gens in (inside, anywhere, inside + anywhere, foreign):
        other = PermGroup.generated(gens)
        other_elements = set(other.raw_elements)
        assert group.contains_group(other) == (other_elements <= elements)
        assert other.contains_group(group) == (elements <= other_elements)
        assert (group == other) == (other == group) == (elements == other_elements)


@pytest.mark.parametrize("kind", ["generated", "from_elements", "direct_product"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_generator_outside_the_ambient_group_is_refused(kind, data):
    group = data.draw(groups_built_by(kind, 6))
    degree = group.degree
    assume(group.order < prod(range(1, degree + 1)))
    outside = data.draw(st.permutations(range(degree)).map(Permutation)
                        .filter(lambda p: p not in group))
    gens = data.draw(st.lists(st.sampled_from(group.raw_elements).map(Permutation),
                              min_size=1, max_size=3))
    gens.insert(data.draw(st.integers(0, len(gens))), outside)
    sub = PermGroup.generated(gens)
    for check in (class_fusion, is_normal, subgroup_core):
        with pytest.raises(NotASubgroupError):
            check(group, sub)


def test_recorded_multiplications_are_the_index_dicts_own_ints():
    # S6 has 720 elements, so most indices lie above the interpreter's cached
    # small ints: an entry read back from a typed array would be a new int
    group = PermGroup.generated(parse_generators("(1,2);(1,2,3,4,5,6)"))
    raw, index = group.raw_elements, group._index
    assert group.order == 720 and all(type(x) is bytes for x in raw)
    # left[i] is the index of g∘x_i, whose images are (g[x[0]], g[x[1]], ...)
    for g, left in zip(group.generators, group._left):
        assert all(left[i] is index[bytes(map(g.images.__getitem__, x))]
                   for i, x in enumerate(raw))
    for act in group._conjugation():
        assert all(j is index[raw[j]] for j in act)


@settings(max_examples=60, deadline=None)
@given(factors=st.lists(generated_groups(4), min_size=1, max_size=3))
def test_direct_product_is_the_cartesian_product(factors):
    # the literal concatenation of factor elements, block by block
    offsets = list(accumulate((f.degree for f in factors[:-1]), initial=0))
    literal = {sum((tuple(off + v for v in x) for off, x in zip(offsets, combo)), ())
               for combo in product(*(f.raw_elements for f in factors))}
    group = direct_product(factors)
    assert set(map(tuple, group.raw_elements)) == literal
    assert group.order == prod(f.order for f in factors)


# every kind is a breadth-first closure, each of its own generator list:
# greedy picks from the sorted set for from_elements, the factor generators
# shifted onto their blocks for direct_product
@pytest.mark.parametrize("kind", ["generated", "from_elements", "direct_product"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_classes_and_cores_match_brute_force(kind, data):
    group, sub = data.draw(groups_with_subgroups(kind))
    raw = list(map(tuple, group.raw_elements))

    orbits = set()
    for x in raw:
        if not any(x in orbit for orbit in orbits):
            orbits.add(frozenset(literal_conjugate(g, x) for g in raw))
    classes = group.classes()
    assert {frozenset(raw[i] for i in c.members) for c in classes.classes} == orbits
    for k, c in enumerate(classes.classes):
        assert c.rep.images == min(raw[i] for i in c.members) and c.size == len(c.members)
        assert all(classes.class_of(raw[i]) == k for i in c.members)
    # canonical order: ascending size, then smallest member
    canonical = sorted(orbits, key=lambda orbit: (len(orbit), min(orbit)))
    for i, x in enumerate(raw):
        k = next(k for k, orbit in enumerate(canonical) if x in orbit)
        assert classes.class_of(x) == classes.labels[i] == k
    assert classes.class_of(raw[0]) == 0
    outside = next((p for p in permutations(range(group.degree)) if p not in group), None)
    for x in (outside, tuple(range(group.degree + 1))):
        if x is not None:
            with pytest.raises(KeyError):
                classes.class_of(x)

    conjugates = literal_conjugates(group, sub)
    core = frozenset.intersection(*conjugates)
    assert set(map(tuple, subgroup_core(group, sub).raw_elements)) == core

    m, witnesses, found_core = min_core_conjugates(group, sub)
    assert set(map(tuple, found_core.raw_elements)) == core and len(witnesses) == m
    assert witnesses[0].is_identity
    chosen = [frozenset(literal_conjugate(w.images, h) for h in sub.raw_elements)
              for w in witnesses]
    assert frozenset.intersection(*chosen) == core
    if m > 1:
        assert all(frozenset.intersection(*combo) != core
                   for combo in combinations(conjugates, m - 1))


def checked_conjugates(group, sub):
    """Run the conjugate search and check it against the literal conjugates:
    each found once, each witness conjugating ``sub`` onto its conjugate, the
    core their intersection.  Returns the number of bitsets the search built
    and the number of conjugates."""
    built = []
    bitset = perm._bitset

    def counting(indices):
        built.append(len(indices))
        return bitset(indices)

    perm._bitset = counting
    try:
        conjugates, witnesses, core_bits, core = perm._conjugates_and_core(group, sub)
    finally:
        perm._bitset = bitset
    raw = list(map(tuple, group.raw_elements))
    found = [frozenset(x for i, x in enumerate(raw) if bits >> i & 1) for bits in conjugates]
    assert len(found) == len(set(found)) and set(found) == literal_conjugates(group, sub)
    assert witnesses[0] == raw[0]
    for w, conjugate in zip(witnesses, found, strict=True):
        assert frozenset(literal_conjugate(w, h) for h in sub.raw_elements) == conjugate
    meet = frozenset.intersection(*found)
    assert core_bits == sum(1 << i for i, x in enumerate(raw) if x in meet)
    assert set(map(tuple, core.raw_elements)) == meet
    return len(built), len(conjugates)


@pytest.mark.parametrize("kind", ["generated", "from_elements", "direct_product"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_conjugate_is_found_once_with_its_witness(kind, data):
    # the subgroup's generator list may repeat an element or hold the identity,
    # so a step's mapped generators repeat too
    group, sub = data.draw(groups_with_subgroups(kind))
    gens = list(sub.generators)
    if data.draw(st.booleans()):
        gens.append(data.draw(st.sampled_from(gens)))
    if data.draw(st.booleans()):
        gens.insert(data.draw(st.integers(0, len(gens))), Permutation.identity(group.degree))
    built, count = checked_conjugates(group, PermGroup.generated(gens))
    # a repeat is recognised from its generators alone, so only the
    # conjugates themselves are built as bitsets
    assert built == count


@pytest.mark.parametrize("sub_gens, count", [
    ("(1,2);(1,2,3,4,5)", 6),                       # point stabilisers
    ("(1,2)(3,4)", 45),                             # more than any workload op has
    ("(1,2,3)(4,5,6);(1,4)(2,6)(3,5)", 20),         # a transitive S3
])
def test_conjugates_of_subgroups_of_s6(sub_gens, count):
    group = PermGroup.generated(parse_generators("(1,2);(1,2,3,4,5,6)"))
    built, found = checked_conjugates(group, PermGroup.generated(parse_generators(sub_gens, 6)))
    assert found == count and built == count


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 3 * 10**5), min_size=1, max_size=40),
       st.lists(st.integers(0, 3 * 10**5), max_size=80), st.randoms(use_true_random=False))
def test_set_bits_reads_what_a_shift_per_index_reads(positions, others, rnd):
    # sparse ints whose bits reach past 10^5, probed at set bits, at clear
    # bits below and above the highest one, in a shuffled order
    bits = sum(1 << i for i in positions)
    indices = sorted(positions) + others + [max(positions) + 1, 0]
    rnd.shuffle(indices)
    assert perm._set_bits(bits, indices) == [i for i in indices if bits >> i & 1]
    assert perm._set_bits(bits, sorted(positions)) == sorted(positions)


@pytest.mark.parametrize("kind",
                         ["generated", "from_elements", "direct_product", "trivial"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_conjugation_action_from_left_multiplications(kind, data):
    # every group derives the action from the left multiplications its
    # search recorded; each entry must be the literal g·x·g⁻¹
    group = data.draw(groups_built_by(kind, 7))
    raw = list(map(tuple, group.raw_elements))
    action = group._conjugation()
    assert group._left is None           # the recorded lists are dropped once used
    for g, act in zip(group.generators, action):
        assert [raw[j] for j in act] == [literal_conjugate(g.images, x) for x in raw]


@pytest.mark.parametrize("kind",
                         ["generated", "from_elements", "direct_product", "trivial"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_power_maps_match_permutation_arithmetic(kind, data):
    group = data.draw(groups_built_by(kind, 7))
    classes = group.classes()
    for c, row in zip(classes.classes, classes.powers):
        assert len(row) == c.rep.order()
        assert row == tuple(classes.class_of((c.rep ** t).images) for t in range(len(row)))
        assert row[-1] == classes.class_of(c.rep.inverse().images)
    assert group.exponent() == lcm(*(Permutation(x).order() for x in group.raw_elements))
