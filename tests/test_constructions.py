import gc
import weakref

import pytest

from subdepth import constructions
from subdepth.chartab import character_table
from subdepth.constructions import (MARKERS, base_groups, block_shift,
                                    direct_product, distance_witness_pair,
                                    family, klein_labels, seed_characters,
                                    sym4_labels, wreath_cyclic)
from subdepth.errors import EnumerationCapExceeded, InternalConsistencyError
from subdepth.perm import PermGroup, Permutation, parse_cycle_notation, subgroup_core


def test_base_groups(bg):
    assert bg.s4.order == 24 and bg.v4.order == 4 and bg.d8.order == 8 and bg.s3.order == 6
    from subdepth.perm import is_normal
    assert is_normal(bg.s4, bg.v4)
    assert MARKERS["g2"].cycle_string() == "(1,3)(2,4)"


def test_block_shift():
    assert block_shift(4, 2) == parse_cycle_notation("(1,5)(2,6)(3,7)(4,8)", 8)
    sigma3 = block_shift(4, 3)
    assert sigma3.order() == 3
    with pytest.raises(ValueError):
        block_shift(4, 1)


def test_shift_conjugation_moves_blocks(bg):
    sigma = block_shift(4, 3)
    g = parse_cycle_notation("(1,2)", 4).shifted(0, 12)
    assert g.conjugated_by(sigma) == parse_cycle_notation("(5,6)", 12)
    assert g.conjugated_by(sigma ** 2) == parse_cycle_notation("(9,10)", 12)


def test_wreath_group(bg):
    wr = wreath_cyclic(bg.s4, 2)
    assert wr.group.order == 24 ** 2 * 2
    assert len(wr.group.classes()) == 20
    with pytest.raises(ValueError):
        wreath_cyclic(bg.s4, 1)


@pytest.mark.parametrize("series,n", [("A", 2), ("B", 3)])
def test_family_members_share_the_base_groups(series, n):
    bg = base_groups()
    assert base_groups() is bg
    fam = family(series, n)
    factors = [g for _, g in fam.subgroup.product_structure]
    want = [bg.v4 if series == "A" else bg.d8] + [bg.s4] * (n - 1)
    assert len(factors) == n and all(f is g for f, g in zip(factors, want))
    assert all(g is bg.s4 for _, g in fam.base_block.product_structure)


def test_family_closes_its_subgroup_once(monkeypatch):
    closures = []
    generated = PermGroup.generated.__func__

    def recording(cls, *args, **kwargs):
        closures.append(generated(cls, *args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(PermGroup, "generated", classmethod(recording))
    fam = family("B", 3)
    assert sum(g == fam.subgroup for g in closures) == 1


def test_family_a1(bg):
    fam = family("A", 1)
    assert fam.ambient == bg.s4 and fam.subgroup == bg.v4
    assert fam.core == bg.v4
    assert fam.expected_depth == 2


def test_family_a2():
    fam = family("A", 2)
    assert fam.ambient.order == 1152 and fam.subgroup.order == 96
    assert fam.base_block.order == 576 and fam.core.order == 16
    assert fam.expected_depth == 4
    assert fam.ambient.contains_group(fam.subgroup)
    assert fam.base_block.contains_group(fam.subgroup)
    # the core is the intersection of the shift-conjugates of the subgroup
    h = set(map(tuple, fam.subgroup.raw_elements))
    conj = {(fam.sigma * Permutation(x) * fam.sigma.inverse()).images
            for x in fam.subgroup.raw_elements}
    assert h & conj == set(map(tuple, fam.core.raw_elements))


def test_family_b2():
    fam = family("B", 2)
    assert fam.subgroup.order == 192 and fam.expected_depth == 8
    assert fam.core.order == 16  # the Klein blocks survive in the core


def test_family_c():
    fam1 = family("C", 1)
    assert fam1.ambient.order == 24 and fam1.subgroup.order == 8
    assert fam1.expected_depth == 4
    fam2 = family("C", 2)
    assert fam2.ambient.order == 1152 and fam2.subgroup.order == 192
    assert fam2.expected_depth == 8
    # the next step exceeds the default cap and must say so
    with pytest.raises(EnumerationCapExceeded):
        family("C", 3, cap=10**5)


@pytest.mark.parametrize("series", "ABC")
def test_family_at_one_applies_the_cap_to_the_shared_base_group(series):
    # the member at n = 1 is the base pair, built once at the default cap
    with pytest.raises(EnumerationCapExceeded) as exc:
        family(series, 1, cap=23)
    assert (exc.value.cap, exc.value.partial_count) == (23, 24)
    assert family(series, 1, cap=24).ambient.order == 24


def test_order_refusals_name_the_order_and_enumeration_names_the_count(bg):
    with pytest.raises(EnumerationCapExceeded) as exc:
        direct_product([bg.s4, bg.s4, bg.s4], cap=1000)
    assert exc.value.partial_count == 13824
    assert str(exc.value) == "enumeration cap 1000 exceeded (the group order is at least 13824)"
    with pytest.raises(EnumerationCapExceeded) as exc:
        PermGroup.generated(bg.s4.generators, cap=10)
    assert str(exc.value) == "enumeration cap 10 exceeded (10 elements found, closure incomplete)"


@pytest.mark.parametrize("series,n", [("A", 10**9), ("B", 3), ("C", 10**9)])
def test_wreath_order_above_the_cap_is_refused_before_enumerating(series, n, monkeypatch):
    base_groups()

    def no_enumeration(cls, *args, **kwargs):
        raise AssertionError("a group above the cap was enumerated")

    monkeypatch.setattr(PermGroup, "generated", classmethod(no_enumeration))
    with pytest.raises(EnumerationCapExceeded) as exc:
        family(series, n, cap=1151 if series == "C" else 2000)
    assert exc.value.partial_count > exc.value.cap


def test_family_errors(bg):
    with pytest.raises(ValueError):
        family("X", 2)
    with pytest.raises(ValueError):
        family("A", 0)


def test_family_checks_that_its_products_lie_in_the_ambient_group(bg, monkeypatch):
    # a wreath product of the right degree on the wrong base fails the
    # containment check
    monkeypatch.setattr(constructions, "wreath_cyclic",
                        lambda base, copies, cap: wreath_cyclic(bg.d8, copies, cap))
    with pytest.raises(InternalConsistencyError, match="not inside"):
        family("A", 2)


def test_members_share_the_wreath_product_while_one_is_kept(bg):
    # drop what earlier tests left in reference cycles; below, only reference
    # counts free the group
    gc.collect()
    a2 = family("A", 2)
    held = weakref.ref(a2.ambient)
    assert family("B", 2).ambient is held() is wreath_cyclic(bg.s4, 2).group
    assert family("C", 2).ambient is held()
    b2 = family("B", 2)
    del a2
    assert held() is b2.ambient
    del b2
    assert held() is None
    fresh = family("A", 2).ambient
    assert fresh.order == 1152 and wreath_cyclic(bg.s4, 2).group is fresh


def test_a_kept_wreath_product_is_still_refused_above_the_cap(bg):
    wr = wreath_cyclic(bg.s4, 3)
    with pytest.raises(EnumerationCapExceeded) as exc:
        wreath_cyclic(bg.s4, 3, cap=1000)
    assert exc.value.cap == 1000 and exc.value.partial_count > 1000
    assert wreath_cyclic(bg.s4, 3).group is wr.group
    assert wreath_cyclic(bg.s4, 3) is not wr


def test_enumeration_identity_of_subgroup():
    # the subgroup built as a product equals the one generated from the core
    # seed and the shifted block copies (checked inside family()); a3 exercises
    # the three-block case including the order formula 4 * 24 * 24
    fam = family("A", 3)
    assert fam.subgroup.order == 4 * 24 * 24
    assert fam.ambient.order == 24 ** 3 * 3
    assert len(fam.ambient.classes()) == 55
    # independent counting: cyclic-orbit triples plus twisted classes
    assert (5 ** 3 - 5) // 3 + 5 + 2 * 5 == 55
    assert fam.core.order == 64
    assert subgroup_core(fam.ambient, fam.subgroup) == fam.core


@pytest.mark.parametrize("series,n", [("A", 2), ("C", 2)])
def test_family_checks_the_generated_subgroup(series, n, monkeypatch):
    # a direct product with its factors reversed puts the seed on the last
    # block, so it no longer equals the closure of the seed on block 0 and the
    # shifted base copies; every wreath step must notice
    product = constructions.direct_product

    def reversed_product(factors, cap=constructions.DEFAULT_CAP):
        return product(factors[::-1], cap=cap)

    monkeypatch.setattr(constructions, "direct_product", reversed_product)
    with pytest.raises(InternalConsistencyError, match="generated form"):
        family(series, n)


@pytest.mark.parametrize("series,n", [("A", 1), ("A", 2), ("C", 1)])
def test_family_enumerates_conjugates_once(series, n, core_enumerations):
    family(series, n)
    assert len(core_enumerations) == 1


def test_seed_characters(bg, s4_table):
    k2 = direct_product([bg.s4, bg.s4])
    table = character_table(k2)
    seeds = seed_characters(2, table)
    assert len(seeds) == 6
    assert sorted(sc.labels for sc in seeds) == [
        (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3)]
    # the labels are those of the S4 table: a seed is the outer product of
    # the labelled S4 rows, at the row product_labels gives it
    chi = {int(k[3:]): i for k, i in sym4_labels(s4_table).items()}
    for sc in seeds:
        assert sc.row == table.product_labels[tuple(chi[l] for l in sc.labels)]
        assert sc.values is table.irreducibles[sc.row]
    k3 = direct_product([bg.s4] * 3)
    seeds3 = seed_characters(3, character_table(k3))
    assert len(seeds3) == 18
    # exactly one faithful slot, in first position: the first factor has
    # degree 3, the others are non-faithful (degree 1 or 2)
    for sc in seeds3:
        assert sc.labels[0] in (4, 5)
        assert all(l in (1, 2, 3) for l in sc.labels[1:])


def test_distance_witness_pair(bg, s4_table, v4_table):
    fam = family("A", 2)
    sub_table = character_table(fam.subgroup)
    a, b = distance_witness_pair(2, sub_table)
    assert a != b
    assert sub_table.irreducibles[a].degree() == 1
    assert sub_table.irreducibles[b].degree() == 1
    nu, chi = klein_labels(v4_table), sym4_labels(s4_table)
    assert (a, b) == (sub_table.product_labels[(nu["nu2"], chi["chi1"])],
                      sub_table.product_labels[(nu["nu2"], chi["chi2"])])
    # n = 1 collapses both endpoints onto the same character
    x, y = distance_witness_pair(1, v4_table)
    assert x == y == nu["nu2"]


def test_witness_pair_induces_to_faithful_sum(bg, s4_table, v4_table):
    # inducing the first witness character one level up (to the full block
    # product) yields the sum of the two faithful characters in slot one
    from subdepth.chartab import decompose, induce_character
    from subdepth.perm import class_fusion

    fam = family("A", 2)
    sub_table = character_table(fam.subgroup)
    block_table = character_table(fam.base_block)
    first, _ = distance_witness_pair(2, sub_table)
    emb = class_fusion(fam.base_block, fam.subgroup)
    mults = decompose(induce_character(sub_table.irreducibles[first], emb), block_table)
    chi = sym4_labels(s4_table)
    by_row = {row: idx for idx, row in block_table.product_labels.items()}
    nonzero = {by_row[i]: m for i, m in enumerate(mults) if m}
    assert nonzero == {(chi["chi4"], chi["chi1"]): 1, (chi["chi5"], chi["chi1"]): 1}


def test_block_product_normalises_subgroup():
    # the Klein block is normal in its S4 copy, so the series-A subgroup is
    # normal in the full block product; the block product always has index n
    from subdepth.perm import is_normal
    for series, n, normal in (("A", 2, True), ("B", 2, False)):
        fam = family(series, n)
        assert is_normal(fam.base_block, fam.subgroup) == normal
        assert fam.ambient.order // fam.base_block.order == n


def test_fusion_of_one_transposition_class():
    # a subgroup element with a transposition in one block and nothing else
    # fuses to the ambient class of untwisted pairs with exactly one
    # transposition component
    fam = family("A", 2)
    x = parse_cycle_notation("(5,6)", 8)
    h_cls = fam.subgroup.classes()
    g_cls = fam.ambient.classes()
    fused = fam.embedding_subgroup().fusion[h_cls.class_of(x.images)]
    rep = g_cls.classes[fused].rep
    # decode: no block swap, component cycle shapes are {transposition, identity}
    assert all((rep.images[i] < 4) == (i < 4) for i in range(8))
    shapes = sorted(
        tuple(sorted(len(c) for c in rep.window(off, 4).cycles())) for off in (0, 4))
    assert shapes == [(), (2,)]


def test_labels(s4_table, v4_table):
    chi = sym4_labels(s4_table)
    nu = klein_labels(v4_table)
    assert sorted(chi) == [f"chi{i}" for i in range(1, 6)]
    assert sorted(nu) == [f"nu{i}" for i in range(1, 5)]
    assert s4_table.irreducibles[chi["chi1"]].values == \
        tuple([s4_table.irreducibles[chi["chi1"]].values[0]] * 5)


def test_klein_labels_enumerates_no_group(v4_table, monkeypatch):
    calls = []
    generated = PermGroup.generated.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return generated(cls, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "generated", classmethod(counting))
    assert sorted(klein_labels(v4_table)) == [f"nu{i}" for i in range(1, 5)]
    assert calls == []


def test_family_member_has_one_report():
    fam = family("A", 2)
    rep = fam.report()
    assert rep is fam.report()
    assert rep.depth == fam.expected_depth
    assert rep.ambient_table.group is fam.ambient
    assert rep.sub_table.group is fam.subgroup
