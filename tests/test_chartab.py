import json
import random
from collections import Counter
from copy import deepcopy
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from subdepth import chartab, modlin
from subdepth.chartab import (CharacterTable, character_table, decompose,
                              direct_product_table,
                              dixon_character_table, induce_character,
                              inner_product,
                              restrict_character, symmetric_character_table,
                              table_from_obj, table_to_obj, wreath_cyclic_table,
                              ClassFunction)
from subdepth.constructions import (direct_product, family, klein_labels, sym4_labels,
                                    wreath_cyclic)
from subdepth.cyclo import Cyclotomic, zeta
from subdepth.errors import (GroupMismatchError, InternalConsistencyError,
                             NotACharacterError, TableConsistencyError)
from subdepth.depth import inclusion_matrix
from subdepth.modlin import is_prime, smallest_dixon_prime
from subdepth.perm import (PermGroup, Permutation, SubgroupEmbedding, class_fusion,
                           parse_generators)

from reference import conjugate, induce_character_bruteforce

# The classic tables of the Klein four-group and S4, frozen with their
# conventional class order (identity, the marker double transpositions /
# the marker elements (1,3)(2,4), 3-cycle, transposition, 4-cycle).
V4_CLASSIC_CLASSES = ["()", "(1,3)(2,4)", "(1,2)(3,4)", "(1,4)(2,3)"]
V4_CLASSIC_ROWS = {
    "nu1": [1, 1, 1, 1],
    "nu2": [1, 1, -1, -1],
    "nu3": [1, -1, 1, -1],
    "nu4": [1, -1, -1, 1],
}
S4_CLASSIC_CLASSES = ["()", "(1,3)(2,4)", "(1,2,3)", "(1,3)", "(1,2,3,4)"]
S4_CLASSIC_ROWS = {
    "chi1": [1, 1, 1, 1, 1],
    "chi2": [1, 1, 1, -1, -1],
    "chi3": [2, 2, -1, 0, 0],
    "chi4": [3, -1, 0, 1, -1],
    "chi5": [3, -1, 0, -1, 1],
}
# restrictions to the Klein subgroup, as multiplicity vectors over nu1..nu4
S4_RESTRICTIONS = {
    "chi1": (1, 0, 0, 0),
    "chi2": (1, 0, 0, 0),
    "chi3": (2, 0, 0, 0),
    "chi4": (0, 1, 1, 1),
    "chi5": (0, 1, 1, 1),
}


def classic_value(table, labels, name, class_rep_text):
    from subdepth.perm import parse_cycle_notation
    k = table.classes.class_of(parse_cycle_notation(class_rep_text, table.group.degree).images)
    return table.irreducibles[labels[name]].values[k].as_integer()


def test_dixon_v4_matches_classic(v4_table):
    labels = klein_labels(v4_table)
    for name, row in V4_CLASSIC_ROWS.items():
        got = [classic_value(v4_table, labels, name, rep) for rep in V4_CLASSIC_CLASSES]
        assert got == row, name


def test_dixon_s4_matches_classic(s4_table):
    labels = sym4_labels(s4_table)
    for name, row in S4_CLASSIC_ROWS.items():
        got = [classic_value(s4_table, labels, name, rep) for rep in S4_CLASSIC_CLASSES]
        assert got == row, name


def test_dixon_c2():
    c2 = PermGroup.generated(parse_generators("(1,2)", degree=2))
    t = dixon_character_table(c2)
    assert [[v.as_integer() for v in chi.values] for chi in t.irreducibles] == [[1, -1], [1, 1]]


def test_dixon_prime_override(s4_table, bg):
    t = dixon_character_table(bg.s4, prime=37)  # 37 = 3*12+1 > 2*sqrt(24)
    assert t == s4_table
    with pytest.raises(ValueError, match="not prime"):
        dixon_character_table(bg.s4, prime=5 * 5)  # 1 mod 12 and large enough, not prime
    with pytest.raises(ValueError, match="not congruent"):
        dixon_character_table(bg.s4, prime=13 * 2)  # not prime, and the wrong residue
    with pytest.raises(ValueError, match="not congruent"):
        dixon_character_table(bg.s4, prime=11)  # wrong residue
    with pytest.raises(ValueError, match="not larger"):
        dixon_character_table(bg.v4, prime=3)  # 1 mod 2 but 3^2 <= 4 * 4


def test_divisors_up_to_the_root_have_distinct_squares_mod_a_dixon_size_prime():
    # the Dixon lift reads chi(1) as the divisor d <= sqrt|G| of |G| whose
    # square matches mod p, which p^2 > 4|G| makes unique
    for order in range(1, 3001):
        divisors = [d for d in range(1, isqrt(order) + 1) if order % d == 0]
        primes, p = [], 2 * isqrt(order)
        while len(primes) < 3:
            p += 1
            if p * p > 4 * order and is_prime(p):
                primes.append(p)
        for p in primes:
            assert len({d * d % p for d in divisors}) == len(divisors), (order, p)


def test_dixon_refuses_a_degree_outside_the_divisors(monkeypatch, bg):
    # with d = 1 the only candidate, the degree-2 and degree-3 characters of
    # S4 match none
    monkeypatch.setattr(chartab, "isqrt", lambda n: 1)
    with pytest.raises(InternalConsistencyError, match="degree recovery"):
        dixon_character_table(bg.s4)


def test_inner_products(s4_table, v4_table, bg):
    labels = sym4_labels(s4_table)
    chi4 = s4_table.irreducibles[labels["chi4"]]
    chi5 = s4_table.irreducibles[labels["chi5"]]
    assert inner_product(chi4, chi4) == 1
    assert inner_product(chi4, chi5) == 0
    emb = class_fusion(bg.s4, bg.v4)
    chi3 = s4_table.irreducibles[labels["chi3"]]
    nu1 = v4_table.irreducibles[klein_labels(v4_table)["nu1"]]
    assert inner_product(restrict_character(chi3, emb), nu1) == 2
    with pytest.raises(GroupMismatchError):
        inner_product(chi4, nu1)


def test_restrictions_match_classic(s4_table, v4_table, bg):
    chi_labels = sym4_labels(s4_table)
    nu_labels = klein_labels(v4_table)
    emb = class_fusion(bg.s4, bg.v4)
    order = ["nu1", "nu2", "nu3", "nu4"]
    for name, expected in S4_RESTRICTIONS.items():
        chi = s4_table.irreducibles[chi_labels[name]]
        mults = decompose(restrict_character(chi, emb), v4_table)
        got = tuple(mults[nu_labels[nu]] for nu in order)
        assert got == expected, name


def test_induction(s4_table, v4_table, bg):
    emb = class_fusion(bg.s4, bg.v4)
    chi_labels = sym4_labels(s4_table)
    nu_labels = klein_labels(v4_table)
    # Frobenius reciprocity applied to the frozen restriction list gives the
    # expected multiplicities of each induced character.
    for nu_name in ("nu1", "nu2", "nu3", "nu4"):
        psi = v4_table.irreducibles[nu_labels[nu_name]]
        ind = induce_character(psi, emb)
        assert ind.degree() == emb.ambient.order // emb.sub.order * psi.degree()
        mults = decompose(ind, s4_table)
        k = ["nu1", "nu2", "nu3", "nu4"].index(nu_name)
        expected = tuple(S4_RESTRICTIONS[chi][k] for chi in
                         ("chi1", "chi2", "chi3", "chi4", "chi5"))
        got = tuple(mults[chi_labels[f"chi{j}"]] for j in range(1, 6))
        assert got == expected
        # the closed-form induction agrees with the literal sum over the group
        assert induce_character_bruteforce(psi, emb).values == ind.values


def test_induce_identity_embedding(s4_table, bg):
    emb = class_fusion(bg.s4, bg.s4)
    triv = s4_table.irreducibles[sym4_labels(s4_table)["chi1"]]
    assert induce_character(triv, emb).values == triv.values


def test_frobenius_reciprocity_random(s4_table, d8_table, bg):
    emb = class_fusion(bg.s4, bg.d8)
    rng = random.Random(11)
    for _ in range(50):
        psi = d8_table.irreducibles[rng.randrange(5)]
        chi = s4_table.irreducibles[rng.randrange(5)]
        assert inner_product(induce_character(psi, emb), chi) == \
            inner_product(psi, restrict_character(chi, emb))


def test_decompose_zero_and_rejection(s4_table, bg):
    zero = ClassFunction(bg.s4, [Cyclotomic.from_rational(0)] * 5)
    assert decompose(zero, s4_table) == (0, 0, 0, 0, 0)
    from fractions import Fraction
    bad = ClassFunction(bg.s4, [Cyclotomic.from_rational(Fraction(1, 2))] * 5)
    with pytest.raises(NotACharacterError):
        decompose(bad, s4_table)
    minus = ClassFunction(bg.s4, [Cyclotomic.from_rational(-1)] * 5)
    with pytest.raises(NotACharacterError):
        decompose(minus, s4_table)


def test_direct_product_table(bg, v4_table, s4_table):
    h2 = direct_product([bg.v4, bg.s4])
    table = direct_product_table([v4_table, s4_table], h2)
    assert len(table.irreducibles) == 20
    assert sum(d * d for d in table.degrees()) == 96
    # the product table is exactly what the general engine produces
    assert table == dixon_character_table(h2)
    # outer product values multiply: row (i, j) is nu_i(a) * chi_j(b) at the
    # class whose representative has components a and b
    labels = table.product_labels
    assert sorted(labels) == [(i, j) for i in range(4) for j in range(5)]
    pairing = [(v4_table.classes.class_of(c.rep.window(0, 4).images),
                s4_table.classes.class_of(c.rep.window(4, 4).images))
               for c in table.classes.classes]
    for (i, j), pos in labels.items():
        nu, chi = v4_table.irreducibles[i].values, s4_table.irreducibles[j].values
        assert table.irreducibles[pos].values == tuple(nu[a] * chi[b] for a, b in pairing)


def test_product_with_trivial(bg, s4_table):
    triv = PermGroup.trivial(1)
    prod = direct_product([bg.s4, triv])
    table = direct_product_table([s4_table, character_table(triv)], prod)
    assert [chi.degree() for chi in table.irreducibles] == [chi.degree() for chi in s4_table.irreducibles]
    assert [[v for v in chi.values] for chi in table.irreducibles] == \
        [[v for v in chi.values] for chi in s4_table.irreducibles]


def test_wreath_oracle_matches_dixon_c2(bg, s4_table):
    wr = wreath_cyclic(bg.s4, 2)
    oracle = wreath_cyclic_table(s4_table, wr.group, wr.shift, 2)
    assert len(oracle.irreducibles) == len(wr.group.classes()) == 20
    assert sum(d * d for d in oracle.degrees()) == wr.group.order
    assert oracle == dixon_character_table(wr.group)


@pytest.mark.parametrize("base, copies", [
    ("(1,2)", 4), ("(1,2,3);(1,2)", 4), ("(1,3);(1,2,3,4)", 4), ("(1,3)", 6), ("(1,2,3)", 6)],
    ids=["C2wrC4", "S3wrC4", "D8wrC4", "C2wrC6", "C3wrC6"])
def test_wreath_table_matches_dixon_at_composite_copies(base, copies):
    # rotation orbits of every period t | n, twists zeta_n^(ks) with 2ks = n
    # and cycle products over 1 < gcd(n, s) < n blocks; the C2 of C2 wr C6
    # fixes the middle point of its block of three.  Table equality compares
    # the rows in order
    base = PermGroup.generated(parse_generators(base))
    wr = wreath_cyclic(base, copies)
    table = wreath_cyclic_table(character_table(base), wr.group, wr.shift, copies)
    assert table == dixon_character_table(wr.group)


@pytest.mark.parametrize("base, copies", [
    ("(1,2,3)", 2), ("(1,2,3)", 3), ("(1,2,3,4)", 3), ("(1,2,3);(1,2)", 3)],
    ids=["C3wrC2", "C3wrC3", "C4wrC3", "S3wrC3"])
def test_wreath_oracle_matches_dixon_beyond_s4(base, copies):
    # the twisted extensions zeta_n^(cs) * chi at e = lcm(exp(base), n) > 1
    base = PermGroup.generated(parse_generators(base))
    wr = wreath_cyclic(base, copies)
    oracle = wreath_cyclic_table(character_table(base), wr.group, wr.shift, copies)
    assert oracle == dixon_character_table(wr.group)


def assert_outer_product_is_dixon(factors, tables=None):
    """The outer-product table of the factors equals Dixon's on their product."""
    group = direct_product(factors)
    tables = tables or [character_table(f) for f in factors]
    assert direct_product_table(tables, group) == dixon_character_table(group)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_outer_product_tables_equal_dixon(data):
    def factor():
        degree = data.draw(st.integers(1, 4))
        return PermGroup.generated(data.draw(st.lists(
            st.permutations(range(degree)).map(Permutation), min_size=1, max_size=3)))

    factors = [factor() for _ in range(data.draw(st.integers(1, 3)))]
    assume(prod(f.order for f in factors) <= 2000)
    tables = [character_table(f) for f in factors]
    conductors = {v.conductor for t in tables for chi in t.irreducibles for v in chi.values}
    event(f"conductor {lcm(*conductors)}")
    assert_outer_product_is_dixon(factors, tables)


# A4 x A4 and A4 x S3 have products of two values whose coefficients exceed
# the largest 1-norm of either table, so they need B from the product of norms
@pytest.mark.parametrize("gens", [
    ["(1,2,3);(2,3,4)", "(1,2,3);(2,3,4)"], ["(1,2,3);(2,3,4)", "(1,2,3);(1,2)"],
    ["(1,2,3)", "(1,2,3,4)"], ["(1,2,3,4)", "(1,2,3,4)", "(1,2,3)"]],
    ids=["A4xA4", "A4xS3", "C3xC4", "C4xC4xC3"])
def test_outer_product_tables_equal_dixon_on_fixed_factors(gens):
    assert_outer_product_is_dixon([PermGroup.generated(parse_generators(g)) for g in gens])


def test_outer_product_of_the_golden_f21_table_equals_dixon():
    f21 = PermGroup.generated(parse_generators(F21_GENS))
    golden = json.loads((Path(__file__).parent / "golden" / "table_f21.json").read_text())
    c3 = PermGroup.generated(parse_generators("(1,2,3)"))
    assert_outer_product_is_dixon([f21, c3], [table_from_obj(golden, f21), character_table(c3)])


def test_decompose_reassembles_exactly(bg, s4_table, d8_table):
    # multiplicities against the full irreducible basis determine the function
    emb = class_fusion(bg.s4, bg.d8)
    for chi in s4_table.irreducibles:
        restricted = restrict_character(chi, emb)
        mults = decompose(restricted, d8_table)
        acc = None
        for m, psi in zip(mults, d8_table.irreducibles):
            if not m:
                continue
            term = ClassFunction(bg.d8, [m * v for v in psi.values])
            acc = term if acc is None else acc + term
        assert acc.values == restricted.values


def test_dixon_irrational_values():
    # cyclic groups exercise the root-of-unity lift directly
    c5 = PermGroup.generated(parse_generators("(1,2,3,4,5)"))
    t5 = dixon_character_table(c5)
    assert t5.degrees() == [1] * 5
    from subdepth.cyclo import zeta
    values = {v for chi in t5.irreducibles for v in chi.values}
    assert zeta(5) in values and zeta(5, 2) in values
    # the Frobenius group of order 21 has two degree-3 characters whose values
    # at the 7-cycles are the roots of x^2 + x + 2 (conductor 7), alongside
    # conductor-3 values; exact orthogonality over the composite field is the
    # hard part and is asserted by validation
    f21 = PermGroup.generated(parse_generators("(1,2,3,4,5,6,7);(2,3,5)(4,7,6)"))
    t21 = dixon_character_table(f21)
    assert t21.degrees() == [1, 1, 1, 3, 3]
    deg3 = [chi for chi in t21.irreducibles if chi.degree() == 3]
    seven = sorted({v for chi in deg3 for v in chi.values if v.conductor == 7},
                   key=lambda v: v.sort_key())
    assert len(seven) == 2
    assert seven[0] + seven[1] == -1 and seven[0] * seven[1] == 2
    # the quaternion group on 8 points: degrees 1,1,1,1,2
    q8 = PermGroup.generated(parse_generators("(1,2,3,4)(5,6,7,8);(1,5,3,7)(2,8,4,6)"))
    assert dixon_character_table(q8).degrees() == [1, 1, 1, 1, 2]


@pytest.mark.parametrize("gens", ["(1,2);(1,2,3,4)", "(1,2,3,4,5,6,7);(2,3,5)(4,7,6)",
                                  "(1,2,3,4)(5,6,7,8);(1,5,3,7)(2,8,4,6)", "(1,2,3,4,5)"],
                         ids=["S4", "F21", "Q8", "C5"])
def test_dixon_table_does_not_depend_on_the_root_of_unity(monkeypatch, gens):
    # any primitive e-th root z^k, gcd(k, e) = 1, applies a Galois automorphism
    # to every row; Irr(G) is closed under it and the rows are sorted canonically
    reference = dixon_character_table(PermGroup.generated(parse_generators(gens)))
    text = json.dumps(table_to_obj(reference), sort_keys=True)
    e = reference.group.exponent()
    root = modlin.root_of_unity
    for k in (k for k in range(2, e) if gcd(k, e) == 1):
        monkeypatch.setattr(modlin, "root_of_unity", lambda e, p, k=k: pow(root(e, p), k, p))
        table = dixon_character_table(PermGroup.generated(parse_generators(gens)))
        assert table == reference
        assert json.dumps(table_to_obj(table), sort_keys=True) == text


@pytest.mark.parametrize("name", ["S4", "D8", "S4 wr C2"])
def test_dixon_lift_rejects_a_root_of_unity_of_too_small_an_order(monkeypatch, bg, name):
    # z_e^2 has order e/2 for even e, so the inverse Fourier transform reads
    # multiplicities that cannot be a character's
    root = modlin.root_of_unity
    monkeypatch.setattr(modlin, "root_of_unity", lambda e, p: pow(root(e, p), 2, p))
    group = {"S4": bg.s4, "D8": bg.d8}.get(name) or wreath_cyclic(bg.s4, 2).group
    assert group.exponent() % 2 == 0
    with pytest.raises(InternalConsistencyError,
                       match="do not sum to the character degree"):
        dixon_character_table(group)


def test_value_conductors_divide_element_orders(s4_table, d8_table):
    f21 = PermGroup.generated(parse_generators("(1,2,3,4,5,6,7);(2,3,5)(4,7,6)"))
    for table in (s4_table, d8_table, dixon_character_table(f21)):
        for chi in table.irreducibles:
            for cls, v in zip(table.classes.classes, chi.values):
                assert cls.rep.order() % v.conductor == 0


# -- Dixon: class-matrix rows on demand, and a second prime --------------------------

@st.composite
def random_groups(draw, kind):
    """A group on at most 7 points from 1-3 random generators, built by ``kind``.

    Every kind is a breadth-first closure, each of its own generator list:
    greedy picks from the sorted set for from_elements, the factor generators
    shifted onto their blocks for direct_product.
    """
    def generated(max_degree):
        degree = draw(st.integers(1, max_degree))
        return PermGroup.generated(draw(st.lists(
            st.permutations(range(degree)).map(Permutation), min_size=1, max_size=3)))

    if kind == "direct_product":
        return direct_product([generated(3), generated(4)])
    group = generated(7)
    if kind == "from_elements":
        group = PermGroup.from_elements(group.degree, group.raw_elements)
    return group


def literal_class_matrix(group, i):
    """a[j][k] = #{x in C_i : x^-1 z_k in C_j}, counted element by element."""
    classes = group.classes()
    reps = [c.rep for c in classes.classes]
    a = [[0] * len(reps) for _ in reps]
    for idx in classes.classes[i].members:
        x_inv = Permutation(group.raw_elements[idx]).inverse()
        for k, z in enumerate(reps):
            a[classes.class_of((x_inv * z).images)][k] += 1
    return a


def next_dixon_prime(group):
    """The next prime q == 1 mod the exponent after the default, so q^2 > 4|G| too."""
    e = group.exponent()
    q = smallest_dixon_prime(e, group.order) + e
    while not is_prime(q):
        q += e
    return q


@pytest.mark.parametrize("kind", ["generated", "from_elements", "direct_product"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_class_matrix_rows_match_the_literal_count(kind, data):
    group = data.draw(random_groups(kind))
    s = len(group.classes())
    for i in range(s):
        assert ([chartab._class_matrix_row(group, i, j) for j in range(s)]
                == literal_class_matrix(group, i))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_class_matrix_rows_match_the_count_of_right_products(data):
    # the rows count the classes of the left products z_j∘x; counted here on
    # image tuples from the other side, x∘z_j = (x[z_j[0]], x[z_j[1]], ...),
    # which is conjugate to z_j∘x by z_j
    degree = data.draw(st.integers(1, 6))
    group = PermGroup.generated(data.draw(st.lists(
        st.permutations(range(degree)).map(Permutation), min_size=1, max_size=3)))
    classes = group.classes().classes
    class_of = group.classes().class_of
    for i, ci in enumerate(classes):
        xs = [tuple(group.raw_elements[m]) for m in ci.members]
        for j, cj in enumerate(classes):
            counts = Counter(class_of(tuple(x[v] for v in cj.rep.images)) for x in xs)
            row = chartab._class_matrix_row(group, i, j)
            assert [a * ck.size for a, ck in zip(row, classes)] \
                == [cj.size * counts[k] for k in range(len(classes))]


def test_class_matrix_row_rejects_a_count_that_is_no_structure_constant(monkeypatch):
    group = PermGroup.generated(parse_generators("(1,2);(1,2,3)"))
    cs = group.classes()
    assert [c.size for c in cs.classes] == [1, 2, 3]
    # label one transposition as a 3-cycle
    labels = list(cs.labels)
    labels[labels.index(2)] = 1
    monkeypatch.setattr(cs, "labels", labels)
    with pytest.raises(InternalConsistencyError,
                       match="class matrix 2 row 1: 4 not divisible by 3"):
        chartab._class_matrix_row(group, 2, 1)


def test_dixon_reads_only_the_pivot_rows(monkeypatch, bg):
    requests = Counter()
    build_row = chartab._class_matrix_row

    def counting(group, i, j):
        requests[i, j] += 1
        return build_row(group, i, j)

    monkeypatch.setattr(chartab, "_class_matrix_row", counting)
    group = wreath_cyclic(bg.s4, 2).group
    dixon_character_table(group)
    s = len(group.classes())
    assert max(requests.values()) == 1
    per_class = Counter(i for i, _ in requests)
    assert per_class[1] == s
    later = [n for i, n in per_class.items() if i > 1]
    assert later and sum(later) < s * len(later)


def forbid_scalar_charpolys(monkeypatch):
    """Make ``modlin.charpoly_mod`` fail on a scalar matrix; returns its calls."""
    calls = []
    charpoly = modlin.charpoly_mod

    def checked(a, p):
        assert any(v != (a[0][0] if r == t else 0)
                   for r, row in enumerate(a) for t, v in enumerate(row)), \
            "Dixon split a subspace its class acts on as a scalar"
        calls.append(a)
        return charpoly(a, p)

    monkeypatch.setattr(modlin, "charpoly_mod", checked)
    return calls


@pytest.mark.parametrize("kind", ["generated", "from_elements", "direct_product"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_dixon_tables_agree_at_two_primes(kind, data):
    group = data.draw(random_groups(kind))
    with pytest.MonkeyPatch.context() as monkeypatch:
        forbid_scalar_charpolys(monkeypatch)
        assert dixon_character_table(group) == dixon_character_table(
            group, prime=next_dixon_prime(group))


def test_dixon_keeps_scalar_subspaces_whole(monkeypatch, bg):
    calls = forbid_scalar_charpolys(monkeypatch)
    table = dixon_character_table(wreath_cyclic(bg.s4, 2).group)
    assert calls
    # the table of S4 wr C2, byte for byte as `table --group A:n=2` pins it
    golden = (Path(__file__).parent / "golden" / "table_a2.json").read_text()
    assert json.dumps(table_to_obj(table), sort_keys=True, indent=2) + "\n" == golden


@st.composite
def symmetric_groups(draw, degree):
    """Sym(M) for a random set M of at most 7 of the ``degree`` points, from a
    transposition and a |M|-cycle or from |M| - 1 adjacent transpositions,
    on M in a random order."""
    points = draw(st.lists(st.integers(0, degree - 1), unique=True,
                           max_size=min(7, degree)))

    def cycle_perm(*cycle):
        images = list(range(degree))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        return Permutation(images)

    if len(points) < 2:
        return PermGroup.trivial(degree)
    if draw(st.booleans()):
        gens = [cycle_perm(*points[:2]), cycle_perm(*points)]
    else:
        gens = [cycle_perm(a, b) for a, b in zip(points, points[1:])]
    return PermGroup.generated(gens)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_symmetric_tables_equal_dixon(data):
    group = data.draw(symmetric_groups(data.draw(st.integers(1, 9))))
    assert symmetric_character_table(group) == dixon_character_table(group)


def test_symmetric_table_equals_dixon_on_tuple_keys():
    # S4 on four of 257 points: elements are keyed by image tuples there
    group = PermGroup.generated(parse_generators("(1,101);(1,101,201,257)", 257))
    assert type(group.raw_elements[0]) is tuple
    assert symmetric_character_table(group) == dixon_character_table(group)


def test_symmetric_table_refuses_other_groups():
    for gens in ("(1,2,3)(4,5)", "(1,2)(3,4,5)", "(1,2,3,4,5);(1,2,3)"):
        with pytest.raises(ValueError, match="not the full symmetric group"):
            symmetric_character_table(PermGroup.generated(parse_generators(gens)))


@pytest.mark.parametrize("gens, degree, classes", [
    ("(1,2);(1,2,3,4,5)", None, 7), ("(3,5);(3,5,6)", 6, 3), ("(1,2)", None, 2),
    ("()", 3, 1)])
def test_full_symmetric_groups_take_no_dixon_table(monkeypatch, gens, degree, classes):
    # S5, S3 on the points {3, 5, 6} of 6 (1-based), S2 and the trivial group
    group = PermGroup.generated(parse_generators(gens, degree))

    def refused(*args, **kwargs):
        raise AssertionError("a full symmetric group went to Dixon")

    with monkeypatch.context() as m:
        m.setattr(chartab, "dixon_character_table", refused)
        table = character_table(group)
    assert len(table.irreducibles) == classes
    assert table == dixon_character_table(group)


@pytest.mark.parametrize("gens", ["(1,2,3,4,5);(1,2,3)", "(1,2)(3,4,5)", "(1,2,3,4);(1,3)"])
def test_other_groups_still_go_to_dixon(monkeypatch, gens):
    # A5; a cyclic group of order 6 = 3! on five points; D8
    group = PermGroup.generated(parse_generators(gens))
    calls = []
    dixon = chartab.dixon_character_table

    def counted(g, *args, **kwargs):
        calls.append(g)
        return dixon(g, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a group that is no full symmetric group went to partitions")

    monkeypatch.setattr(chartab, "dixon_character_table", counted)
    monkeypatch.setattr(chartab, "symmetric_character_table", refused)
    character_table(group)
    assert calls == [group]


def iterated_wreath(base, *copies):
    """base wr C_(copies[0]) wr C_(copies[1]) ..., each step by wreath_cyclic."""
    group = PermGroup.generated(parse_generators(base))
    for n in copies:
        group = wreath_cyclic(group, n).group
    return group


@pytest.mark.parametrize("base, copies", [
    ("(1,2);(1,2,3,4)", (2,)), ("(1,2);(1,2,3,4)", (3,)), ("(1,2);(1,2,3)", (4,)),
    ("(1,2);(1,2,3)", (2, 2))],
    ids=["S4wrC2", "S4wrC3", "S3wrC4", "S3wrC2wrC2"])
def test_cyclic_wreath_products_take_no_dixon_table(monkeypatch, base, copies):
    # fresh base groups, so no table is cached on them; the last is the shape
    # of a series C step, whose base is itself a wreath product
    group = iterated_wreath(base, *copies)

    def refused(*args, **kwargs):
        raise AssertionError("a cyclic wreath product went to Dixon")

    with monkeypatch.context() as m:
        m.setattr(chartab, "dixon_character_table", refused)
        table = character_table(group)
    assert table._factors[0] is character_table(group.wreath_structure[0])
    assert table == dixon_character_table(group)


def test_a_wreath_product_from_cycle_notation_goes_to_dixon(monkeypatch):
    # the same S4 wr C2, parsed from its generators' cycles, carries no
    # wreath structure
    built = iterated_wreath("(1,2);(1,2,3,4)", 2)
    text = ";".join(g.cycle_string() for g in built.generators)
    group = PermGroup.generated(parse_generators(text, built.degree))
    assert group.wreath_structure is None and group.order == built.order
    calls = []
    dixon = chartab.dixon_character_table

    def counted(g, *args, **kwargs):
        calls.append(g)
        return dixon(g, *args, **kwargs)

    monkeypatch.setattr(chartab, "dixon_character_table", counted)
    table = character_table(group)
    assert calls == [group]
    assert table.irreducibles == character_table(built).irreducibles


@pytest.mark.parametrize("name, entries, inputs", [("S8", 484, 281), ("S4 wr C2", 400, 124)])
def test_dixon_lifts_each_distinct_input_once(monkeypatch, bg, name, entries, inputs):
    lifts = []
    integer = chartab._integer

    def counted(vec, e):
        lifts.append(e)
        return integer(vec, e)

    monkeypatch.setattr(chartab, "_integer", counted)
    group = (PermGroup.generated(parse_generators("(1,2);(1,2,3,4,5,6,7,8)"))
             if name == "S8" else wreath_cyclic(bg.s4, 2).group)
    table = dixon_character_table(group)
    # a lift's input is chi(1) and the residues mod p of chi at the powers
    # z^0, ..., z^(m-1) of a class representative z of order m, reduced
    # through zeta_e -> z_e as Dixon reduces them
    e = group.exponent()
    p = smallest_dixon_prime(e, group.order)
    z_e = modlin.root_of_unity(e, p)

    def residue(v):
        w = pow(z_e, e // v.conductor, p)
        return sum(c.numerator * pow(c.denominator, -1, p) * pow(w, k, p)
                   for k, c in v.coeffs.items()) % p

    powers = group.classes().powers
    distinct = {(chi.degree(), tuple(residue(chi.values[c]) for c in row))
                for chi in table.irreducibles for row in powers}
    assert len(table.irreducibles) * len(powers) == entries
    assert len(lifts) == len(distinct) == inputs
    if name == "S8":
        # the package's Murnaghan-Nakayama table, built from partitions alone
        assert table == symmetric_character_table(group)
    else:
        golden = (Path(__file__).parent / "golden" / "table_a2.json").read_text()
        assert json.dumps(table_to_obj(table), sort_keys=True, indent=2) + "\n" == golden


@pytest.mark.parametrize("name, repeated", [("S8", 3), ("S4 wr C2", 9)])
def test_dixon_takes_a_nullspace_only_for_a_repeated_eigenvalue(monkeypatch, bg,
                                                               name, repeated):
    calls = Counter()
    roots_mod, nullspace_mod, rref_mod = modlin.roots_mod, modlin.nullspace_mod, modlin.rref_mod

    def counted_roots(poly, p):
        roots = roots_mod(poly, p)
        calls["repeated"] += sum(1 for n in Counter(roots).values() if n > 1)
        return roots

    def counted_nullspace(m, p):
        calls["nullspace"] += 1
        return nullspace_mod(m, p)

    def counted_rref(rows, p):
        calls["rref"] += 1
        return rref_mod(rows, p)

    monkeypatch.setattr(modlin, "roots_mod", counted_roots)
    monkeypatch.setattr(modlin, "nullspace_mod", counted_nullspace)
    monkeypatch.setattr(modlin, "rref_mod", counted_rref)
    group = (PermGroup.generated(parse_generators("(1,2);(1,2,3,4,5,6,7,8)"))
             if name == "S8" else wreath_cyclic(bg.s4, 2).group)
    dixon_character_table(group)
    assert calls["nullspace"] == calls["repeated"] == repeated
    # the only elimination is nullspace_mod's own: a repeated eigenvalue's
    # eigenspace is kept as its nullspace basis, with no second rref
    assert calls["rref"] == calls["nullspace"]


IDENTITY_PLANE = ([[1, 0], [0, 1]], [0, 1])


def test_split_space_gives_lines_and_repeated_eigenspaces():
    p = 13
    act = [[2, 0, 0], [0, 5, 0], [0, 0, 2]]
    spaces = chartab._split_space(([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2],
                                   [1, 1, 1]), act, p)
    # 2 repeats: its plane in rref, carrying the start's part in it times 2 - 5
    assert spaces[0] == ([[1, 0, 0], [0, 0, 1]], [0, 2], [10, 0, 10])
    # 5 is simple: its line, times 5 - 2
    assert spaces[1] == ([[0, 3, 0]], None, None)


def test_split_space_maps_a_repeated_eigenspace_through_a_parent_basis():
    p = 13
    # a parent basis that is the identity at its pivots 0, 1, 3 but not at 2
    basis = [[1, 0, 2, 0], [0, 1, 5, 0], [0, 0, 7, 1]]
    # in that basis, (1, 4, 0) and (0, 0, 1) span the 2-eigenspace and
    # (0, 1, 0) the 5-eigenline; the start is their sum, (1, 5, 1)
    act = [[2, 0, 0], [1, 5, 0], [0, 0, 2]]
    start = [sum(c * b[k] for c, b in zip([1, 5, 1], basis)) % p for k in range(4)]
    spaces = chartab._split_space((basis, [0, 1, 3], start), act, p)
    plane, pivots, part = spaces[0]
    # b_0 + 4 b_1 and b_2: the identity at their own pivots 0 and 3
    assert (plane, pivots) == ([[1, 4, 9, 0], [0, 0, 7, 1]], [0, 3])
    assert [[v[k] for k in pivots] for v in plane] == [[1, 0], [0, 1]]
    # the start's part in the plane, b_0 + 4 b_1 + b_2, times 2 - 5
    assert part == [10, 1, 4, 10]
    # the line: b_1 times 5 - 2
    assert spaces[1] == ([[0, 3, 2, 0]], None, None)


@pytest.mark.parametrize("start, message", [
    # (x - 3)(act) kills e_1, but 3's eigenspace is only a line
    ([1, 0], "lost dimensions"),
    # and e_2 is no sum of eigenvectors at all
    ([0, 1], "leaves the eigenspaces"),
])
def test_split_space_rejects_a_jordan_block(start, message):
    with pytest.raises(InternalConsistencyError, match=message):
        chartab._split_space((*IDENTITY_PLANE, start), [[3, 1], [0, 3]], 13)


def test_split_space_rejects_a_start_with_no_part_in_an_eigenline():
    act = [[2, 0], [0, 5]]
    assert len(chartab._split_space((*IDENTITY_PLANE, [1, 1]), act, 13)) == 2
    with pytest.raises(InternalConsistencyError, match="no component"):
        chartab._split_space((*IDENTITY_PLANE, [1, 0]), act, 13)


def test_dixon_tables_agree_at_two_primes_on_the_wreath_product(bg):
    group = wreath_cyclic(bg.s4, 2).group
    q = next_dixon_prime(group)
    assert q == 97
    assert dixon_character_table(group) == dixon_character_table(group, prime=q)


def test_table_validation_catches_corruption(bg, s4_table):
    rows = [list(chi.values) for chi in s4_table.irreducibles]
    rows[0], rows[1] = rows[0], [Cyclotomic.from_rational(2)] + list(rows[1][1:])
    from subdepth.chartab import CharacterTable
    with pytest.raises(TableConsistencyError):
        CharacterTable(bg.s4, [ClassFunction(bg.s4, r) for r in rows])


def test_table_serialization_roundtrip(bg, s4_table):
    obj = json.loads(json.dumps(table_to_obj(s4_table)))
    rebuilt = table_from_obj(obj, bg.s4)
    assert rebuilt == s4_table
    # tampering is rejected by the exact orthogonality validation
    obj["irreducibles"][0][1] = "2"
    with pytest.raises(TableConsistencyError):
        table_from_obj(obj, bg.s4)
    # a mismatched group is rejected up front
    with pytest.raises(GroupMismatchError):
        table_from_obj(json.loads(json.dumps(table_to_obj(s4_table))), bg.d8)


F21_GENS = "(1,2,3,4,5,6,7);(2,3,5)(4,7,6)"
F21_C7 = "(1,2,3,4,5,6,7)"
F21_C3 = "(2,3,5)(4,7,6)"


@pytest.fixture(scope="module")
def f21_table():
    return character_table(PermGroup.generated(parse_generators(F21_GENS)))


def literal_inner_product(f, h):
    """(1/|G|) * sum over classes of |C| * f * conj(h), in Cyclotomic arithmetic."""
    total = Cyclotomic.from_rational(0)
    for c, a, b in zip(f.group.classes().classes, f.values, h.values):
        total = total + c.size * a * conjugate(b)
    return total * Fraction(1, f.group.order)


def random_class_function(data, group, conductors=st.integers(1, 12)):
    """Values in Q(zeta_d) for one drawn d (1..12 by default), with Fraction coefficients."""
    d = data.draw(conductors)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    values = []
    for _ in range(len(group.classes())):
        v = Cyclotomic.from_rational(0)
        for k in data.draw(st.lists(st.integers(0, d - 1), max_size=3)):
            v = v + data.draw(coeffs) * zeta(d, k)
        values.append(v)
    return ClassFunction(group, values)


@pytest.mark.parametrize("name", ["S4", "F21"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inner_product_matches_definition(name, data, bg, s4_table, f21_table):
    # conductors 5, 7, 8, ... do not divide exp(S4) = 12; 2, 4, 5, ... do not
    # divide exp(F21) = 21
    table = s4_table if name == "S4" else f21_table
    group = table.group
    f = random_class_function(data, group)
    h = random_class_function(data, group)
    assert inner_product(f, h) == literal_inner_product(f, h)
    assert inner_product(f, f) == literal_inner_product(f, f)

    # decompose returns the coefficients of a nonnegative integer combination
    s = len(table.irreducibles)
    coefficients = data.draw(st.lists(st.integers(0, 3), min_size=s, max_size=s))
    combo = ClassFunction(group, [sum((m * chi.values[k] for m, chi in
                                       zip(coefficients, table.irreducibles)),
                                      Cyclotomic.from_rational(0))
                                  for k in range(s)])
    assert decompose(combo, table) == tuple(coefficients)

    # ... and raises exactly when some scalar product is not a nonnegative integer
    literal = (literal_inner_product(f, chi).as_integer() for chi in table.irreducibles)
    try:
        mults = decompose(f, table)
    except NotACharacterError:
        assert any(q is None or q < 0 for q in literal)
    else:
        assert mults == tuple(literal)

    other = f21_table.group if name == "S4" else bg.s4
    with pytest.raises(GroupMismatchError):
        decompose(random_class_function(data, other), table)


def row_capacity(table):
    """The largest 1-norm of a class function whose scalar products with the
    rows fit the bits the table packed them at."""
    _, bits, norm, _ = table._kernel
    return ((1 << (bits - 1)) - 1) // (table.group.order * norm)


def near_capacity(data, table, conductors):
    """A random class function with one rational value whose scaled 1-norm
    sits just under (or, when drawn, just over) the table's row capacity."""
    group = table.group
    values = list(random_class_function(data, group, conductors).values)
    k = data.draw(st.integers(0, len(values) - 1))
    values[k] = Cyclotomic.from_rational(0)
    _, d, _ = chartab._measure(ClassFunction(group, values))
    big = row_capacity(table) // d + data.draw(st.integers(0, 1))
    values[k] = Cyclotomic.from_rational(big * data.draw(st.sampled_from([1, -1])))
    return ClassFunction(group, values)


@pytest.mark.parametrize("name", ["S4", "F21"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_kernel_near_the_row_capacity(name, data, s4_table, f21_table):
    table = s4_table if name == "S4" else f21_table
    kernel = table._kernel
    before = deepcopy(kernel)
    # rational rows (S4) are their ints at every e and B; irrational rows
    # (F21) are read from the kernel for conductors dividing its e, and any
    # other conductor repacks them
    fitting = st.just(1) if name == "S4" else st.sampled_from([1, 3, 7])
    f = near_capacity(data, table, data.draw(st.sampled_from([fitting, st.integers(1, 12)])))
    e, _, n = chartab._measure(f)
    reused = kernel[0] == 1 or (kernel[0] % e == 0 and n <= row_capacity(table))
    event("rows reused" if reused else "rows repacked")

    packs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chartab, "_pack", counting(packs, chartab._pack))
        try:
            mults = decompose(f, table)
        except NotACharacterError:
            mults = None
    # f is packed once; the rows again only when f is beyond their capacity,
    # and then for this call only: the table's kernel is left as it was
    assert packs[0][0] == f.values
    assert (len(packs) == 1) == reused
    assert table._kernel is kernel and kernel == before
    literal = [literal_inner_product(f, chi) for chi in table.irreducibles]
    if all(q.as_integer() is not None and q.as_integer() >= 0 for q in literal):
        assert mults == tuple(q.as_integer() for q in literal)
    else:
        assert mults is None
    for chi, q in zip(table.irreducibles, literal):
        assert inner_product(f, chi) == q
        assert inner_product(chi, f) == conjugate(q)


@pytest.mark.parametrize("name, sub_gens", [("S4", "(1,3);(1,2,3,4)"), ("S4", "(1,2);(1,2,3)"),
                                            ("F21", F21_C7), ("F21", F21_C3)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_induction_matches_the_literal_sum(name, sub_gens, data, s4_table, f21_table):
    group = (s4_table if name == "S4" else f21_table).group
    sub = PermGroup.generated(parse_generators(sub_gens, degree=group.degree))
    emb = class_fusion(group, sub)
    psi = random_class_function(data, sub)
    # a large multiple of one root of unity on every class makes the induced
    # value at the heaviest class reach the packing bound
    d = data.draw(st.integers(1, 12))
    big = data.draw(st.integers(-10**6, 10**6)) * zeta(d, data.draw(st.integers(0, d - 1)))
    psi = ClassFunction(sub, [v + big for v in psi.values])
    assert induce_character(psi, emb) == induce_character_bruteforce(psi, emb)


def test_inner_product_outside_the_exponent(bg):
    zero = Cyclotomic.from_rational(0)
    f = ClassFunction(bg.s4, [zero, zero, zeta(5), zero, zero])
    # conductor 5 does not divide exp(S4) = 12; |zeta_5|^2 = 1 on a single class
    size = bg.s4.classes().classes[2].size
    assert inner_product(f, f) == Fraction(size, 24)
    assert inner_product(f, f) == literal_inner_product(f, f)


def tampered_v4(v4_table, tamper):
    obj = json.loads(json.dumps(table_to_obj(v4_table)))
    rows = [[Fraction(v) for v in row] for row in obj["irreducibles"]]
    tamper(rows)
    obj["irreducibles"] = [[str(v) for v in row] for row in rows]
    return obj


def test_validation_rejects_non_characters(bg, v4_table):
    def rotate(rows):
        # an orthogonal change of basis on two non-identity columns keeps
        # every orthogonality relation but gives values such as 7/5 and -1/5
        for row in rows:
            a, b = row[2], row[3]
            row[2], row[3] = Fraction(3, 5) * a + Fraction(4, 5) * b, \
                Fraction(-4, 5) * a + Fraction(3, 5) * b

    def negate(rows):
        # keeps orthogonality and the degree squares, but a degree becomes -1
        rows[0] = [-v for v in rows[0]]

    def double(rows):
        # keeps every relation between distinct rows; only the diagonal fails
        rows[1] = [2 * v for v in rows[1]]

    for tamper in (rotate, negate, double):
        with pytest.raises(TableConsistencyError):
            table_from_obj(tampered_v4(v4_table, tamper), bg.v4)


def conductor_seven_position(table):
    for i, chi in enumerate(table.irreducibles):
        for k, v in enumerate(chi.values):
            if v.conductor == 7:
                return i, k
    raise AssertionError("no conductor-7 value")


def test_validation_catches_irrational_corruption(f21_table):
    group = f21_table.group
    i, k = conductor_seven_position(f21_table)
    rows = [list(chi.values) for chi in f21_table.irreducibles]
    rows[i][k] = rows[i][k] + zeta(7)
    with pytest.raises(TableConsistencyError):
        CharacterTable(group, [ClassFunction(group, r) for r in rows])

    obj = json.loads(json.dumps(table_to_obj(f21_table)))
    assert table_from_obj(obj, group) == f21_table
    value = obj["irreducibles"][i][k]
    assert value["conductor"] == 7
    exponent, coeff = value["coeffs"][0]
    value["coeffs"][0] = [exponent, str(Fraction(coeff) + 1)]
    with pytest.raises(TableConsistencyError):
        table_from_obj(obj, group)


def reference_verdicts(group, rows):
    """``(accepted, row_ok, col_ok)`` for a table given as rows of Cyclotomic
    values, from literal Cyclotomic sums without the packed kernel: squareness,
    values in Z[zeta], positive integer degrees, the degree squares and both
    orthogonality relations.  Each relation is a Hermitian matrix, so its
    pairs i <= j are all of it."""
    sizes = group.classes().sizes()
    s, order = len(sizes), group.order
    if len(rows) != s or any(len(row) != s for row in rows):
        return False, False, False
    conj = [[conjugate(v) for v in row] for row in rows]
    weighted = [[sz * b for sz, b in zip(sizes, row)] for row in conj]
    zero = Cyclotomic.from_rational(0)
    row_ok = all(sum(map(mul, rows[i], weighted[j]), zero) == (order if i == j else 0)
                 for i in range(s) for j in range(i, s))
    col_ok = all(sum((rows[i][k] * conj[i][l] for i in range(s)), zero)
                 == (Fraction(order, sizes[k]) if k == l else 0)
                 for k in range(s) for l in range(k, s))
    integral = all(c.denominator == 1 for row in rows for v in row for c in v.coeffs.values())
    degrees = [row[0].as_integer() for row in rows]
    positive = all(d is not None and d >= 1 for d in degrees)
    squares = positive and sum(d * d for d in degrees) == order
    return integral and positive and squares and row_ok and col_ok, row_ok, col_ok


def tamper_table(data, table):
    """The table's rows with one drawn tampering applied, and its name."""
    rows = [list(chi.values) for chi in table.irreducibles]
    s = len(rows)
    index = st.integers(0, s - 1)
    kind = data.draw(st.sampled_from(["add", "swap entries", "negate", "combine",
                                      "swap rows", "permute columns"]))
    i, j, k = data.draw(index), data.draw(index), data.draw(index)
    if kind == "add":  # zeta_1 is 1
        rows[i][j] = rows[i][j] + zeta(data.draw(st.integers(1, 12)))
    elif kind == "swap entries":
        rows[i][j], rows[i][k] = rows[i][k], rows[i][j]
    elif kind == "negate":
        rows[i] = [-v for v in rows[i]]
    elif kind == "combine":
        # with j == k == i the row doubles, which only the diagonal of the row
        # relation sees, or vanishes
        j, k = (data.draw(st.sampled_from([i, x])) for x in (j, k))
        sign = data.draw(st.sampled_from([1, -1]))
        rows[i] = [a + sign * b for a, b in zip(rows[j], rows[k])]
    elif kind == "swap rows":
        rows[i], rows[j] = rows[j], rows[i]
    else:
        sizes = table.classes.sizes()
        shared = [[c for c in range(s) if sizes[c] == size] for size in sorted(set(sizes))]
        block = data.draw(st.sampled_from([b for b in shared if len(b) > 1]))
        moved = dict(zip(block, data.draw(st.permutations(block))))
        rows = [[row[moved.get(c, c)] for c in range(s)] for row in rows]
    return rows, kind


@pytest.mark.parametrize("name", ["V4", "S4", "F21", "S4 wr C2"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_row_relation_alone_decides_validation(name, data, v4_table, s4_table, f21_table,
                                               s4_wr_c2_table):
    # for a square table the row relation implies the column relation and the
    # degree-square sum, so validation accepts exactly what the full literal
    # check accepts
    table = {"V4": v4_table, "S4": s4_table, "F21": f21_table,
             "S4 wr C2": s4_wr_c2_table}[name]
    group = table.group
    rows, kind = tamper_table(data, table)
    accepted, row_ok, col_ok = reference_verdicts(group, rows)
    event(f"{kind}: {'accepted' if accepted else 'rejected'}")
    assert col_ok == row_ok
    try:
        CharacterTable(group, [ClassFunction(group, r) for r in rows])
    except TableConsistencyError:
        assert not accepted
    else:
        assert accepted


@pytest.mark.parametrize("gens", [F21_C7, F21_C3])
def test_induction_of_irrational_characters(gens, f21_table):
    group = f21_table.group
    sub = PermGroup.generated(parse_generators(gens, degree=7))
    emb = class_fusion(group, sub)
    sub_table = character_table(sub)
    assert any(v.conductor > 1 for psi in sub_table.irreducibles for v in psi.values)
    for psi in sub_table.irreducibles:
        ind = induce_character(psi, emb)
        assert ind == induce_character_bruteforce(psi, emb)
        for chi in f21_table.irreducibles:
            assert inner_product(ind, chi) == inner_product(psi, restrict_character(chi, emb))


def counting(calls, fn):
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


def test_decompose_packs_each_function_once(monkeypatch, f21_table):
    packs = []
    monkeypatch.setattr(chartab, "_pack", counting(packs, chartab._pack))
    f = f21_table.irreducibles[3] + f21_table.irreducibles[4]
    assert decompose(f, f21_table) == (0, 0, 0, 1, 1)
    # f is packed once; the rows come from the table's own packing
    assert [args[0] for args in packs] == [f.values]


def test_induction_normalises_each_distinct_value_once(monkeypatch, f21_table):
    group = f21_table.group
    sub = PermGroup.generated(parse_generators(F21_C7, degree=7))
    emb = class_fusion(group, sub)
    psi = next(psi for psi in character_table(sub).irreducibles
               if any(v.conductor == 7 for v in psi.values))
    expected = induce_character_bruteforce(psi, emb)
    makes = []
    monkeypatch.setattr(Cyclotomic, "_make", staticmethod(counting(makes, Cyclotomic._make)))

    def no_arithmetic(*args):
        raise AssertionError("induction used Cyclotomic arithmetic")

    for op in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Cyclotomic, op, no_arithmetic)
    induced = induce_character(psi, emb)
    assert induced.values == expected.values
    # 5 classes, 4 distinct values: one sum per class, one _make per value
    assert len(set(induced.values)) == 4
    assert len(makes) == len(set(induced.values))


@pytest.fixture(scope="module")
def s4_wr_c2_table(bg):
    return dixon_character_table(wreath_cyclic(bg.s4, 2).group)


def entries(table):
    return [v for chi in table.irreducibles for v in chi.values]


def assert_one_object_per_value(values):
    assert len({id(v) for v in values}) == len(set(values))


def test_tables_and_inductions_make_each_value_once(bg, v4_table, s4_table, f21_table,
                                                    s4_wr_c2_table):
    dixon = entries(s4_wr_c2_table)
    assert (len(dixon), len(set(dixon))) == (400, 14)
    assert_one_object_per_value(dixon)
    obj = json.loads(json.dumps(table_to_obj(s4_wr_c2_table)))
    assert_one_object_per_value(entries(table_from_obj(obj, s4_wr_c2_table.group)))
    product = direct_product_table([v4_table, s4_table], direct_product([bg.v4, bg.s4]))
    assert (len(entries(product)), len(set(entries(product)))) == (400, 7)
    assert_one_object_per_value(entries(product))
    sub = PermGroup.generated(parse_generators(F21_C7, degree=7))
    emb = class_fusion(f21_table.group, sub)
    for psi in character_table(sub).irreducibles:
        assert_one_object_per_value(induce_character(psi, emb).values)


def test_irrational_tables_make_each_value_once(f21_table, monkeypatch):
    # zeta_3 is lifted at the classes of order 3 and of order 6 of C6, and
    # the packed values of products and of the oracle are not reduced mod
    # the cyclotomic polynomial, so equal values arrive in different forms
    c6 = dixon_character_table(PermGroup.generated(parse_generators("(1,2,3,4,5,6)")))
    c3 = PermGroup.generated(parse_generators("(1,2,3)"))
    product = direct_product_table([f21_table, character_table(c3)],
                                   direct_product([f21_table.group, c3]))
    wr = wreath_cyclic(c3, 3)
    c3_table = character_table(c3)
    made = []
    make = Cyclotomic._make

    def counting(e, raw):
        made.append(e)
        return make(e, raw)

    with monkeypatch.context() as mp:
        mp.setattr(Cyclotomic, "_make", staticmethod(counting))
        oracle = wreath_cyclic_table(c3_table, wr.group, wr.shift, 3)
    # each of the 13 values is normalised once, not once per packed form
    assert len(made) == 13
    for table, distinct in ((c6, 6), (product, 13), (oracle, 13)):
        assert len(set(entries(table))) == distinct
        assert_one_object_per_value(entries(table))


def literal_packing(v, e, bits, scale):
    step = e // v.conductor
    terms = [(int(c * scale), k * step) for k, c in v.coeffs.items()]
    return (sum(c << (bits * k) for c, k in terms),
            sum(c << (bits * (-k % e)) for c, k in terms))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pack_of_shared_objects_is_the_entrywise_packing(data):
    e = data.draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    conductors = st.sampled_from([d for d in range(1, e + 1) if e % d == 0])
    coeffs = st.dictionaries(st.integers(0, 11),
                             st.fractions(min_value=-3, max_value=3, max_denominator=4),
                             max_size=3)
    raws = data.draw(st.lists(st.tuples(conductors, coeffs), min_size=1, max_size=4))
    # each value made twice: equal values held by distinct objects
    pool = [Cyclotomic._make(d, raw) for d, raw in raws for _ in range(2)]
    values = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    scale = lcm(1, *(c.denominator for v in pool for c in v.coeffs.values()))
    scale *= data.draw(st.integers(1, 3))
    bits = data.draw(st.integers(1, 12))
    want = [literal_packing(v, e, bits, scale) for v in values]
    assert chartab._pack(values, e, bits, scale) == ([p for p, _ in want], [q for _, q in want])


def test_warm_depth_pack_budget(monkeypatch):
    from subdepth.constructions import family
    from subdepth.depth import ordinary_depth
    fam = family("B", 2)
    # held here, as a group holds its table weakly
    tables = character_table(fam.ambient), character_table(fam.subgroup)
    assert all(table._kernel[0] == 1 for table in tables)
    packs, measures = [], []
    monkeypatch.setattr(chartab, "_pack", counting(packs, chartab._pack))
    monkeypatch.setattr(chartab, "_measure_values",
                        counting(measures, chartab._measure_values))
    assert ordinary_depth(fam.ambient, fam.subgroup).depth == fam.expected_depth
    # both tables are rational: every restriction and induction carries its
    # rows' ints, so nothing is measured or packed again
    assert (len(packs), len(measures)) == (0, 0)


def test_warm_value_budget(monkeypatch):
    from subdepth.constructions import family
    b2, a2 = family("B", 2), family("A", 2)
    # held here, as a group holds its table weakly
    b_amb, b_sub, a_amb, a_sub = tables = [
        character_table(g) for fam in (b2, a2) for g in (fam.ambient, fam.subgroup)]
    assert all(table._kernel[0] == 1 for table in tables)
    b_emb, a_emb = b2.embedding_subgroup(), a2.embedding_subgroup()
    expected = inclusion_matrix(b_amb, b_sub, b_emb)
    rng = random.Random(2027)
    samples = [(rng.choice(a_sub.irreducibles), rng.choice(a_amb.irreducibles))
               for _ in range(100)]
    made = []
    monkeypatch.setattr(Cyclotomic, "from_rational",
                        staticmethod(counting(made, Cyclotomic.from_rational)))
    monkeypatch.setattr(Cyclotomic, "_make", staticmethod(counting(made, Cyclotomic._make)))
    # every restriction and induction of a rational table carries ints and
    # makes no value: not in the inclusion matrix, whose degrees read the
    # ints too, nor on the two sides of Frobenius reciprocity
    assert inclusion_matrix(b_amb, b_sub, b_emb) == expected
    sides = [(induce_character(psi, a_emb), chi, psi, restrict_character(chi, a_emb))
             for psi, chi in samples]
    assert made == []
    assert all(inner_product(ind, chi) == inner_product(psi, res)
               for ind, chi, psi, res in sides)
    # a scalar product is one value, made from its packed sum
    assert len(made) == 2 * len(samples)


def test_warm_depth_pack_budget_on_an_irrational_pair(monkeypatch, f21_table):
    from subdepth.depth import ordinary_depth
    group = f21_table.group
    sub = PermGroup.generated(parse_generators(F21_C3, degree=7))
    sub_table = character_table(sub)
    assert f21_table._kernel[0] == 21
    packs = []
    monkeypatch.setattr(chartab, "_pack", counting(packs, chartab._pack))
    ordinary_depth(group, sub)
    # the trivial characters of both groups carry their ints and pack
    # nothing; each other restriction is packed to be decomposed, and each
    # other irreducible of H to be induced and its induction to be
    # decomposed: (s - 1) + 2 (r - 1), which is r + s at r = 3, s = 5
    r, s = len(sub_table.irreducibles), len(f21_table.irreducibles)
    assert len(packs) <= r + s


@pytest.fixture(scope="module")
def carried_pairs(bg, s4_table, f21_table):
    """Ambient and subgroup tables with their embedding: S4, S4 wr C2
    (``A:n=2``) and V4 x S4 have rational tables, F21 an irrational one; the
    subgroups mix both kinds."""
    from subdepth.constructions import family
    fam = family("A", 2)
    pairs = {}

    def add(name, table, sub):
        pairs[name] = (table, character_table(sub), class_fusion(table.group, sub))

    for gens in ("(1,3)(2,4);(1,2)(3,4)", "(1,3);(1,2,3,4)", "(1,2,3,4)"):
        add(f"S4 > {gens}", s4_table, PermGroup.generated(parse_generators(gens, degree=4)))
    wreath_table = character_table(fam.ambient)
    add("A:n=2", wreath_table, fam.subgroup)
    add("S4 wr C2 > S4 x S4", wreath_table, fam.base_block)
    product_table = character_table(fam.subgroup)
    for gens in ("(1,3)(2,4);(1,2)(3,4);(5,7);(5,6,7,8)", "(1,2)(3,4)(5,6,7,8)"):
        add(f"V4 x S4 > {gens}", product_table,
            PermGroup.generated(parse_generators(gens, degree=8)))
    for gens in (F21_C7, F21_C3):
        add(f"F21 > {gens}", f21_table, PermGroup.generated(parse_generators(gens, degree=7)))
    return pairs


@pytest.fixture(scope="module")
def literal_inductions():
    """induce_character_bruteforce kept per embedding and values for the
    module, as the literal sum takes about 0.1 s on S4 wr C2."""
    made = {}

    def induce(f, emb):
        key = id(emb), f.values
        if key not in made:
            made[key] = induce_character_bruteforce(f, emb).values
        return made[key]
    return induce


def assert_carried_ints_are_the_values(f, expected):
    """A function made from carried ints has made no values before they are
    read.  Once read, they are ``expected()``, the same tuple on a second
    read, and one object for the entries with one int.  The ints measure
    like the values with their exact largest |value|, and equal their
    packing at every e and B."""
    ints, norm = f._ints
    assert f._values is None
    values = f.values
    assert values == tuple(expected())
    assert f.values is values
    shared = {}
    assert all(shared.setdefault(c, v) is v for c, v in zip(ints, values))
    assert ints == [v.as_integer() for v in values]
    assert chartab._measure(f) == chartab._measure_values(values) == (1, 1, norm)
    for e in (1, 3, 7):
        for bits in (chartab._bits(norm), 2 * chartab._bits(norm) + 1):
            assert (ints, ints) == chartab._pack(values, e, bits)
            assert chartab._packing(f, e, bits) == chartab._pack(values, e, bits)


def rational(f):
    return all(v.conductor == 1 for v in f.values)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_restriction_and_induction_carry_rational_ints(data, carried_pairs, literal_inductions):
    name = data.draw(st.sampled_from(sorted(carried_pairs)))
    table, sub_table, emb = carried_pairs[name]
    chi = data.draw(st.sampled_from(table.irreducibles))
    psi = data.draw(st.sampled_from(sub_table.irreducibles))
    res, ind = restrict_character(chi, emb), induce_character(psi, emb)
    res_ind, ind_res = induce_character(res, emb), restrict_character(ind, emb)
    # checked in this order, so that no expectation reads a function's
    # values before that function is checked: a restriction's values are
    # the row's gathered through the fusion, an induction's the literal sum
    checks = [(res, lambda: [chi.values[a] for a in emb.fusion]),
              (ind, lambda: literal_inductions(psi, emb)),
              (res_ind, lambda: literal_inductions(res, emb)),
              (ind_res, lambda: [ind.values[a] for a in emb.fusion])]
    for f, expected in checks:
        if f._ints is not None:
            assert_carried_ints_are_the_values(f, expected)
    # a multiple of a restriction, with or without denominators, is measured
    # from its values, and its induction carries ints when it is integral:
    # q times the induction of the restriction
    q = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    scaled = ClassFunction(emb.sub, [q * v for v in res.values])
    e, d, _ = chartab._measure_values(scaled.values)
    ind_scaled = induce_character(scaled, emb)
    assert (ind_scaled._ints is not None) == (e == d == 1)
    if ind_scaled._ints is not None:
        assert_carried_ints_are_the_values(ind_scaled, lambda: [q * v for v in res_ind.values])
    functions = [res, ind, res_ind, ind_res, ind_scaled]
    event(f"{sum(f._ints is not None for f in functions)} of 5 carry ints")
    # a row carries ints, bounded by its table's N, exactly when its values
    # are rational, in a rational table or not, and hands them on to its
    # restrictions and inductions
    for t in (table, sub_table):
        for row in t.irreducibles:
            assert (row._ints is not None) == rational(row)
            assert row._ints is None or row._ints[1] == t._kernel[2]
    # an induction carries ints whenever its input's values are integral
    assert [f._ints is not None for f in functions[:4]] == [
        rational(chi), rational(psi), rational(res), rational(psi)]
    # every later sum reads the carried ints: Frobenius reciprocity, and the
    # decompositions on both sides
    lhs, rhs = inner_product(ind, chi), inner_product(psi, res)
    assert lhs == rhs == literal_inner_product(ind, chi) == literal_inner_product(psi, res)
    assert decompose(res, sub_table) == tuple(
        literal_inner_product(res, phi).as_integer() for phi in sub_table.irreducibles)
    assert decompose(ind, table) == tuple(
        literal_inner_product(ind, phi).as_integer() for phi in table.irreducibles)


def test_lookup_equality_and_degree_read_carried_ints(bg, s4_table, f21_table):
    emb = class_fusion(bg.s4, bg.s4)
    for i, chi in enumerate(s4_table.irreducibles):
        res = restrict_character(chi, emb)
        assert s4_table.irreducibles.index(res) == i
        assert res == chi == restrict_character(chi, emb)
        assert res.degree() == chi.degree()
        assert res._values is None
        # without ints, the values are compared
        assert s4_table.irreducibles.index(ClassFunction(bg.s4, chi.values)) == i
        assert ClassFunction(bg.s4, chi.values) == res
    for i, chi in enumerate(f21_table.irreducibles):
        assert f21_table.irreducibles.index(ClassFunction(f21_table.group, chi.values)) == i
    with pytest.raises(ValueError):
        s4_table.irreducibles.index(
            restrict_character(s4_table.irreducibles[3], emb) + s4_table.irreducibles[4])


def test_lookup_past_rows_without_ints_makes_no_values():
    # C3 x S3: four irrational rows come before row 6 (degree 2, rational), so
    # the lookup compares the restriction's ints with those rows' values
    group = PermGroup.generated(parse_generators("(1,2,3);(4,5,6);(4,5)"))
    table = character_table(group)
    assert [chi._ints is None for chi in table.irreducibles[:6]] == [False] * 2 + [True] * 4
    res = restrict_character(table.irreducibles[6], class_fusion(group, group))
    assert table.irreducibles.index(res) == 6
    assert res._values is None


def test_rows_and_tables_on_a_rebuilt_group_equal_the_originals(s4_table, f21_table):
    for table in (s4_table, f21_table):
        group = PermGroup.generated(table.group.generators)
        assert group is not table.group
        rebuilt = dixon_character_table(group)
        assert rebuilt == table and table == rebuilt
        for chi, row in zip(table.irreducibles, rebuilt.irreducibles):
            copy = ClassFunction(group, chi.values)  # carries no ints
            assert row == chi == copy and copy == row
            assert hash(row) == hash(chi) == hash(copy)


def test_equal_values_on_different_groups_of_one_degree_are_unequal(bg):
    c4 = PermGroup.generated(parse_generators("(1,2,3,4)"))
    assert (c4.degree, c4.order, len(c4.classes())) == (bg.v4.degree, bg.v4.order, 4)
    trivial_c4, trivial_v4 = (next(chi for chi in character_table(g).irreducibles
                                   if chi._ints and chi._ints[0] == [1, 1, 1, 1])
                              for g in (c4, bg.v4))
    assert trivial_c4 != trivial_v4 and trivial_v4 != trivial_c4
    assert ClassFunction(c4, trivial_v4.values) != ClassFunction(bg.v4, trivial_v4.values)


@pytest.mark.parametrize("c", [0, 5, -7])
def test_kernel_helpers_reduce_mod_the_cyclotomic_polynomial(c):
    # sum over four classes of a * conj(b) is c + z3 + z3^2 + z3^3 = c, but its
    # polynomial c + x + x^2 + x^3 folds to [c + 1, 1, 1], not [c, 0, 0]
    one, z3 = Cyclotomic.from_rational(1), zeta(3)
    a = [Cyclotomic.from_rational(c), z3, one, z3]
    b = [one, one, z3, z3]
    bits = chartab._bits(4 * 7 * 1)
    packed, _ = chartab._pack(a, 3, bits)
    _, conj = chartab._pack(b, 3, bits)
    assert packed[1] == 1 << bits and conj[2] == 1 << (2 * bits)  # conj(z3) = z3^2
    total = sum(x * y for x, y in zip(packed, conj))
    assert total != c
    assert chartab._unfold(total, 3, bits) == [c + 1, 1, 1]
    assert chartab._integer([c + 1, 1, 1], 3) == c
    assert chartab._integer([c + 1, 1, 0], 3) is None
    assert chartab._rational(total, 3, bits) == c
    assert chartab._rational(total + (1 << bits), 3, bits) is None
    assert chartab._from_packed(total, 3, bits, 2) == Fraction(c, 2)


@pytest.mark.parametrize("bound", [1, 2, 7, 8, 1000])
def test_bits_read_back_every_coefficient_up_to_the_bound(bound):
    bits = chartab._bits(bound)
    for vec in ([bound, -bound, 0, bound], [-bound, bound, -bound, -bound], [0, 0, 0, -bound]):
        total = sum(c << (bits * k) for k, c in enumerate(vec))
        assert chartab._unfold(total, 4, bits) == vec
    # the fold adds the digits at k and k + e
    assert chartab._unfold(bound + (-bound << (bits * 4)), 4, bits) == [0, 0, 0, 0]


MALFORMED_VALUES = [
    1, 1.5, True, None, [1], "1.5", " 1", "1/0", "2/-3", "9" * 5000,
    {"conductor": 3},
    {"conductor": 3, "coeffs": [[1, "1"]], "extra": 0},
    {"conductor": 3, "coeffs": "1"},
    {"conductor": 3, "coeffs": [[1]]},
    {"conductor": 3, "coeffs": [[1.5, "1"]]},
    {"conductor": 3, "coeffs": [[True, "1"]]},
    {"conductor": 3, "coeffs": [[3, "1"]]},
    {"conductor": 3, "coeffs": [[-1, "1"]]},
    {"conductor": 3, "coeffs": [[1, True]]},
    {"conductor": 3, "coeffs": [[1, 1]]},
    {"conductor": 3, "coeffs": [[1, "1"], [1, "1"]]},
    {"conductor": 3.0, "coeffs": [[1, "1"]]},
    {"conductor": True, "coeffs": []},
    {"conductor": 0, "coeffs": []},
    {"conductor": -3, "coeffs": [[1, "1"]]},
    {"conductor": 5, "coeffs": [[1, "1"]]},
]


@pytest.mark.parametrize("value", MALFORMED_VALUES, ids=lambda v: repr(v)[:40])
def test_table_from_obj_rejects_malformed_values(value, bg, s4_table):
    obj = json.loads(json.dumps(table_to_obj(s4_table)))
    obj["irreducibles"][3][2] = value
    with pytest.raises(TableConsistencyError):
        table_from_obj(obj, bg.s4)


@pytest.mark.parametrize("name", ["S4", "S4 wr C2"])
def test_table_from_obj_rejects_every_entry_plus_one(name, s4_table, s4_wr_c2_table):
    table = s4_table if name == "S4" else s4_wr_c2_table
    text = json.dumps(table_to_obj(table))
    s = len(table.classes)
    for i in range(s):
        for k in range(s):
            obj = json.loads(text)
            obj["irreducibles"][i][k] = (Cyclotomic.from_obj(obj["irreducibles"][i][k])
                                         + 1).to_obj()
            with pytest.raises(TableConsistencyError):
                table_from_obj(obj, table.group)


@pytest.mark.parametrize("value", MALFORMED_VALUES, ids=lambda v: repr(v)[:40])
def test_table_from_obj_rejects_malformed_values_between_valid_copies(value, s4_wr_c2_table):
    # the import parses each distinct string once; a malformed entry put in
    # place of a "1" with other "1" entries before and after it is still read,
    # and the table would pass validation if it were read as 1
    obj = json.loads(json.dumps(table_to_obj(s4_wr_c2_table)))
    rows = obj["irreducibles"]
    s = len(rows)
    flat = [v for row in rows for v in row]
    n = next(n for n in range(s * s // 2, s * s) if flat[n] == "1" and "1" in flat[n + 1:])
    rows[n // s][n % s] = value
    with pytest.raises(TableConsistencyError):
        table_from_obj(obj, s4_wr_c2_table.group)


def test_table_from_obj_rejects_large_conductors_before_normalising(monkeypatch, bg, s4_table):
    obj = json.loads(json.dumps(table_to_obj(s4_table)))
    obj["irreducibles"][3][2] = {"conductor": 2520, "coeffs": [[1, "1"]]}
    make = Cyclotomic._make

    def guarded(e, raw):
        assert e != 2520, "a value was normalised at conductor 2520"
        return make(e, raw)

    monkeypatch.setattr(Cyclotomic, "_make", staticmethod(guarded))
    with pytest.raises(TableConsistencyError):
        table_from_obj(obj, bg.s4)


def _drop(key):
    return lambda obj: obj.pop(key)


def _set(key, value):
    return lambda obj: obj.__setitem__(key, value)


def _class_entry(change):
    return lambda obj: change(obj["classes"][2])


def _row(change):
    return lambda obj: change(obj["irreducibles"][3])


MALFORMED_STRUCTURES = {
    "missing order": _drop("order"),
    "missing degree": _drop("degree"),
    "missing classes": _drop("classes"),
    "missing irreducibles": _drop("irreducibles"),
    "order not an int": _set("order", "24"),
    "classes not a list": _set("classes", 5),
    "irreducibles not a list": _set("irreducibles", 5),
    "class entry not a dict": lambda obj: obj["classes"].__setitem__(2, "(1,2)"),
    "class without rep": _class_entry(lambda c: c.pop("rep")),
    "class without size": _class_entry(lambda c: c.pop("size")),
    "rep not a string": _class_entry(lambda c: c.__setitem__("rep", 12)),
    "rep not cycle notation": _class_entry(lambda c: c.__setitem__("rep", "(1,2")),
    "size not an int": _class_entry(lambda c: c.__setitem__("size", "6")),
    "row too short": _row(lambda r: r.pop()),
    "row too long": _row(lambda r: r.append("0")),
    "row not a list": lambda obj: obj["irreducibles"].__setitem__(3, "1"),
    "row of values as a dict": lambda obj: obj["irreducibles"].__setitem__(3, {"0": "1"}),
    "no irreducibles": _set("irreducibles", []),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_STRUCTURES))
def test_table_from_obj_rejects_malformed_structure(shape, bg, s4_table):
    obj = json.loads(json.dumps(table_to_obj(s4_table)))
    MALFORMED_STRUCTURES[shape](obj)
    with pytest.raises(TableConsistencyError):
        table_from_obj(obj, bg.s4)


@pytest.mark.parametrize("obj", [None, 5, "table", [{"kind": "character_table"}]],
                         ids=repr)
def test_table_from_obj_rejects_non_objects(obj, bg):
    with pytest.raises(TableConsistencyError):
        table_from_obj(obj, bg.s4)


@pytest.mark.parametrize("name", ["S4", "F21", "S4 wr C2"])
def test_table_from_obj_rejects_rows_out_of_canonical_order(name, export_tables):
    table = export_tables[name]
    text = json.dumps(table_to_obj(table))
    assert table_from_obj(json.loads(text), table.group) == table
    rows = list(range(len(table.irreducibles)))
    adjacent_swaps = [rows[:i] + [i + 1, i] + rows[i + 2:] for i in range(len(rows) - 1)]
    for order in [rows[::-1]] + adjacent_swaps:
        obj = json.loads(text)
        obj["irreducibles"] = [obj["irreducibles"][i] for i in order]
        with pytest.raises(TableConsistencyError, match="canonical order"):
            table_from_obj(obj, table.group)


def test_table_from_obj_rejects_headers_of_another_group(bg, s4_table):
    for key, value in (("order", 12), ("degree", 5)):
        obj = json.loads(json.dumps(table_to_obj(s4_table)))
        obj[key] = value
        with pytest.raises(GroupMismatchError):
            table_from_obj(obj, bg.s4)
    obj = json.loads(json.dumps(table_to_obj(s4_table)))
    obj["classes"][2]["rep"] = "(1,2,3)"
    with pytest.raises(GroupMismatchError):
        table_from_obj(obj, bg.s4)


# -- Fixed work done once: induction weights, rational values, export, equality ----

@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_induction_through_one_reused_embedding_matches_the_literal_sum(data):
    group = data.draw(random_groups("generated"))
    x = data.draw(st.sampled_from(group.raw_elements))
    sub = PermGroup.generated([Permutation(x)])
    event(f"|G| = {group.order}, |H| = {sub.order}")
    emb = class_fusion(group, sub)
    irr = character_table(sub).irreducibles
    induced = [induce_character(psi, emb) for psi in irr]
    for psi, ind in zip(irr, induced):
        assert ind == induce_character_bruteforce(psi, emb)
    fresh = class_fusion(group, sub)
    assert fresh.induction_weights == emb.induction_weights
    assert [induce_character(psi, fresh) for psi in irr] == induced


def test_induction_weights_are_built_once_per_embedding(monkeypatch):
    fam = family("A", 2)
    calls = []
    weights = SubgroupEmbedding.__dict__["induction_weights"].func

    def counting(emb):
        calls.append(emb)
        return weights(emb)

    counted = cached_property(counting)
    counted.__set_name__(SubgroupEmbedding, "induction_weights")
    monkeypatch.setattr(SubgroupEmbedding, "induction_weights", counted)
    emb = fam.embedding_subgroup()
    sub_table = character_table(fam.subgroup)
    matrix = inclusion_matrix(character_table(fam.ambient), sub_table, emb)
    r = len(sub_table.irreducibles)
    assert (fam.ambient.order, fam.subgroup.order, r) == (1152, 96, 20)
    assert len(matrix) == r and calls == [emb]
    for psi in sub_table.irreducibles:
        induce_character(psi, emb)
    assert calls == [emb]


@pytest.fixture(scope="module")
def export_tables(bg, s4_table, f21_table, s4_wr_c2_table):
    v4_x_s4 = direct_product([bg.v4, bg.s4])
    return {"S4": s4_table, "F21": f21_table, "S4 wr C2": s4_wr_c2_table,
            "V4 x S4": character_table(v4_x_s4)}


@pytest.mark.parametrize("name", ["S4", "F21", "S4 wr C2", "V4 x S4"])
def test_table_to_obj_converts_each_distinct_value_once(name, export_tables, monkeypatch):
    table = export_tables[name]
    # every entry converted on its own
    want = dict(table_to_obj(table),
                irreducibles=[[v.to_obj() for v in chi.values] for chi in table.irreducibles])
    conversions = []
    to_obj = Cyclotomic.to_obj

    def counting(v):
        conversions.append(v)
        return to_obj(v)

    monkeypatch.setattr(Cyclotomic, "to_obj", counting)
    got = table_to_obj(table)
    assert len(conversions) == len({id(v) for v in entries(table)})
    assert json.dumps(got) == json.dumps(want)
    assert json.dumps(got, sort_keys=True, indent=2) == json.dumps(want, sort_keys=True, indent=2)


@pytest.mark.parametrize("name", ["S4", "F21", "S4 wr C2", "V4 x S4"])
def test_table_equality_pairs_the_values_position_by_position(name, export_tables, monkeypatch):
    table = export_tables[name]
    group = table.group

    def table_of(rows):
        return CharacterTable(group, [ClassFunction(group, row) for row in rows])

    # every entry a new object of the same value
    rows = [[Cyclotomic.from_obj(v.to_obj()) for v in chi.values] for chi in table.irreducibles]
    assert len({id(v) for row in rows for v in row}) == len(entries(table))
    assert table_of(rows) == table
    swapped = [list(chi.values) for chi in table.irreducibles]
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert table_of(swapped) != table
    # the copies below are not tables, so they are built without validation
    monkeypatch.setattr(CharacterTable, "validate", lambda self: None)
    shorter = table_of([chi.values for chi in table.irreducibles][:-1])
    assert shorter != table and table != shorter
    # one entry whose object is shared with other positions changed to another
    # value object of the table, which stays correct at its own positions: at
    # some such position a comparison keyed on one side's objects alone misses
    # the change
    flat = entries(table)
    s = len(table.classes)
    shared = Counter(map(id, flat))
    distinct = list({id(v): v for v in flat}.values())
    for pos, v in enumerate(flat):
        if shared[id(v)] == 1:
            continue
        for w in (next(w for w in distinct if w != v),
                  next(w for w in reversed(distinct) if w != v)):
            changed = [list(chi.values) for chi in table.irreducibles]
            changed[pos // s][pos % s] = w
            assert table_of(changed) != table and table != table_of(changed)


@pytest.mark.parametrize("total, scale", [(0, 1), (0, 6), (5, 1), (-5, 1), (-12, 8),
                                          (12, 8), (-7, 3), (10**30, 4 * 10**15), (-9, 9)])
def test_rational_packed_sum_is_one_fraction(total, scale):
    got = chartab._from_packed(total, 1, 3, scale)
    want = Cyclotomic.from_rational(Fraction(total, scale))
    assert got == want and got.conductor == 1
    assert got.coeffs == ({} if total == 0 else {0: Fraction(total, scale)})
    q = Fraction(total, scale)
    assert Cyclotomic.from_rational(q).coeffs.get(0, q) is q


def test_dixon_reads_power_maps_off_the_classes_without_permutation_products(
        monkeypatch, bg):
    # a fresh copy, so its classes and power maps are walked under the count
    group = PermGroup.generated(wreath_cyclic(bg.s4, 2).group.generators)
    products = []
    multiply = Permutation.__mul__

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(Permutation, "__mul__", counted)
    table = dixon_character_table(group)
    assert products == []
    assert len(table.irreducibles) == len(group.classes())


def test_table_from_obj_rejects_the_c4_table_with_two_columns_swapped():
    # swapping the values at (1,2,3,4) and (1,3)(2,4) keeps orthogonality but
    # puts zeta_4 at an element of order 2
    group = PermGroup.generated(parse_generators("(1,2,3,4)"))
    obj = json.loads(json.dumps(table_to_obj(character_table(group))))
    assert [c["rep"] for c in obj["classes"]] == ["()", "(1,2,3,4)", "(1,3)(2,4)", "(1,4,3,2)"]
    for row in obj["irreducibles"]:
        row[1], row[2] = row[2], row[1]
    with pytest.raises(TableConsistencyError,
                       match="conductor 4 does not divide the element order 2"):
        table_from_obj(obj, group)


@pytest.mark.parametrize("n", [5, 7])
def test_table_from_obj_rejects_a_cyclic_table_with_two_generator_columns_swapped(n):
    # the two classes hold generators g and g^k, so the swap keeps every
    # conductor and orthogonality, and the rows are re-sorted into canonical
    # order; the table differs, and only chi(g^k) = sigma_k(chi(g)) sees it
    group = PermGroup.generated(parse_generators(f"({','.join(map(str, range(1, n + 1)))})"))
    table = character_table(group)
    obj = json.loads(json.dumps(table_to_obj(table)))
    for row in obj["irreducibles"]:
        row[1], row[2] = row[2], row[1]
    obj["irreducibles"].sort(key=lambda row: [Cyclotomic.from_obj(v).sort_key() for v in row])
    swapped = CharacterTable(group, [ClassFunction(group, list(map(Cyclotomic.from_obj, row)))
                                     for row in obj["irreducibles"]])
    assert swapped != table
    with pytest.raises(TableConsistencyError, match="not the Galois image"):
        table_from_obj(obj, group)


def test_exported_tables_import_with_conductors_dividing_their_element_orders(bg):
    # the groups of the table goldens, and of the family members' round trips
    members = [family("A", 2), family("B", 2)]
    groups = [bg.s4, bg.d8, PermGroup.generated(parse_generators(F21_GENS))]
    for group in groups + [g for fam in members for g in (fam.ambient, fam.subgroup)]:
        table = character_table(group)
        assert table_from_obj(json.loads(json.dumps(table_to_obj(table))), group) == table
