import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdepth.errors import (CycleParseError, EnumerationCapExceeded,
                             NotASubgroupError)
from subdepth.perm import (PermGroup, Permutation, centralizer, class_fusion,
                           is_normal, min_core_conjugates, parse_cycle_notation,
                           parse_generators, subgroup_core)


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
    for el in v4.elements:
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
    for g in s4.elements:
        conjugates.add(frozenset((g * h * g.inverse()).images for h in d8.elements))
    inter = set.intersection(*map(set, conjugates))
    assert inter == set(core.frozen())
    # core is normal, contained in the subgroup, and stable under more intersection
    assert is_normal(s4, core)
    assert d8.contains_group(core)


def test_min_core_conjugates():
    s4, v4, d8 = S4(), V4(), D8()
    m, wit, core = min_core_conjugates(s4, v4)
    assert m == 1 and wit[0].is_identity and core == v4
    m, wit, core = min_core_conjugates(s4, d8)
    assert m == 2 and core == subgroup_core(s4, d8)
    # witnesses verifiably intersect to the core
    sets = [frozenset((w * h * w.inverse()).images for h in d8.elements) for w in wit]
    assert set.intersection(*map(set, sets)) == set(core.frozen())


def test_class_fusion():
    s4, v4 = S4(), V4()
    emb = class_fusion(s4, v4)
    # identity fuses to identity; the three nontrivial classes all fuse to the
    # double-transposition class of the ambient group
    assert emb.fusion[0] == 0
    assert set(emb.fusion[1:]) == {1}
    assert emb.index == 6


def test_from_elements_generators():
    s4 = S4()
    rebuilt = PermGroup.from_elements(4, s4.elements)
    assert rebuilt == s4
    regenerated = PermGroup.generated(rebuilt.generators)
    assert regenerated == s4
