import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdepth.cyclo import Cyclotomic, cyclotomic_polynomial, reduce_vector, zeta

from reference import conjugate


def test_zeta_basics():
    assert zeta(1, 0) == 1
    assert zeta(4, 2) == -1
    assert zeta(4, 2).conductor == 1
    assert zeta(3, 1) + zeta(3, 2) == -1
    with pytest.raises(ValueError):
        zeta(0)


def test_arithmetic_identities():
    assert zeta(3) * zeta(3, 2) == 1
    assert (1 + zeta(3)) + (1 + zeta(3, 2)) == 1
    z8 = zeta(8)
    assert z8 * z8 == zeta(4)
    assert (z8 * z8).conductor == 4
    # the standard relation: sum over all e-th roots vanishes
    for e in (3, 4, 5, 6, 12):
        total = Cyclotomic.from_rational(0)
        for k in range(e):
            total = total + zeta(e, k)
        assert total == 0


def test_conjugation():
    assert conjugate(Cyclotomic.from_rational(5)) == 5
    assert conjugate(zeta(3)) == zeta(3, 2)
    assert conjugate(zeta(4)) == -zeta(4)
    v = 2 * zeta(12, 7) - Fraction(1, 3)
    assert conjugate(conjugate(v)) == v


def test_as_rational():
    assert Cyclotomic.from_rational(Fraction(7, 2)).as_rational() == Fraction(7, 2)
    assert zeta(3).as_rational() is None
    assert (zeta(3) + zeta(3, 2)).as_rational() == -1
    assert (zeta(5) + zeta(5, 2)).as_integer() is None
    assert Cyclotomic.from_rational(4).as_integer() == 4


def test_normal_form_uniqueness():
    # same value through different routes lands on identical storage
    a = zeta(6)
    b = 1 + zeta(3)  # zeta_6 = 1 + zeta_3
    assert a == b and hash(a) == hash(b) and a.conductor == b.conductor == 3
    assert zeta(8, 2) == zeta(4)
    assert zeta(12, 3) == zeta(4)
    assert zeta(2) == -1


def test_conductor_is_minimal():
    assert (zeta(12) * zeta(12, 11)).conductor == 1
    assert (zeta(12, 4)).conductor == 3
    assert (zeta(12, 3)).conductor == 4
    assert (zeta(9, 3)).conductor == 3
    v = zeta(8) + zeta(8, 7)  # sqrt(2), genuinely conductor 8
    assert v.conductor == 8
    # a prime q that divides e/q: sqrt(-3) written over zeta_9, and zeta_5
    # over zeta_20 (20 -> 10 here, then 10 -> 5 by the other branch)
    v = Cyclotomic._make(9, {3: 1, 6: -1})
    assert v == zeta(3) - zeta(3, 2) and v.conductor == 3
    assert Cyclotomic._make(20, {4: 1}) == zeta(5)
    # a prime q that does not divide e/q: zeta_3 plus zeta_15 times the
    # vanishing sum of the fifth roots of unity, and sqrt(2) over zeta_24
    v = Cyclotomic._make(15, {5: 1, 1: 1, 4: 1, 7: 1, 10: 1, 13: 1})
    assert v == zeta(3) and v.conductor == 3
    v = Cyclotomic._make(24, {3: 1, 21: 1})
    assert v == zeta(8) + zeta(8, 7) and v.conductor == 8


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def cyclotomics(draw):
    e = draw(st.sampled_from([1, 3, 4, 8, 9, 12, 15, 20, 21, 24]))
    n_terms = draw(st.integers(0, 3))
    coeffs = {}
    for _ in range(n_terms):
        k = draw(st.integers(0, e - 1))
        coeffs[k] = draw(small_rationals)
    return Cyclotomic._make(e, coeffs)


@settings(max_examples=150, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a
    assert a - a == 0


@settings(max_examples=100, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_conjugation_is_ring_hom(a, b):
    assert conjugate(a + b) == conjugate(a) + conjugate(b)
    assert conjugate(a * b) == conjugate(a) * conjugate(b)
    assert conjugate(conjugate(a)) == a


@settings(max_examples=100, deadline=None)
@given(cyclotomics())
def test_serialization_roundtrip(a):
    assert Cyclotomic.from_obj(json.loads(json.dumps(a.to_obj()))) == a


def test_serialization_shapes():
    assert Cyclotomic.from_rational(Fraction(-7, 2)).to_obj() == "-7/2"
    assert Cyclotomic.from_rational(3).to_obj() == "3"
    obj = zeta(3).to_obj()
    assert obj == {"conductor": 3, "coeffs": [[1, "1"]]}


def _galois(vec, k, e):
    """sigma_k, the field map zeta_e -> zeta_e^k, on a dense vector."""
    out = [0] * e
    for j, c in enumerate(vec):
        out[j * k % e] += c
    return out


@st.composite
def subfield_vectors(draw):
    """A dense vector over the exponents of zeta_e, e <= 60: an element of a
    random subfield Q(zeta_d), plus multiples of the vanishing sums
    zeta_e^a (1 + zeta_q + ... + zeta_q^(q-1)) for primes q | e, plus, now
    and then, a term of the whole field."""
    e = draw(st.integers(1, 60))
    d = draw(st.sampled_from([d for d in range(1, e + 1) if e % d == 0]))
    vec = [Fraction(0)] * e
    for _ in range(draw(st.integers(0, 4))):
        vec[draw(st.integers(0, d - 1)) * (e // d)] += draw(small_rationals)
    primes = [q for q in range(2, e + 1) if e % q == 0 and all(q % r for r in range(2, q))]
    for _ in range(draw(st.integers(0, 3)) if primes else 0):
        q, a, c = draw(st.sampled_from(primes)), draw(st.integers(0, e - 1)), draw(small_rationals)
        for j in range(q):
            vec[(a + j * (e // q)) % e] += c
    if draw(st.booleans()) and draw(st.booleans()):
        vec[draw(st.integers(0, e - 1))] += draw(small_rationals)
    return e, vec


@settings(max_examples=300, deadline=None)
@given(subfield_vectors())
def test_least_conductor_against_the_galois_group(case):
    e, vec = case
    v = Cyclotomic._make(e, dict(enumerate(vec)))
    d = v.conductor
    assert e % d == 0
    # the value lifted back to zeta_e is the input
    lifted = [Fraction(0)] * e
    for k, c in v.coeffs.items():
        lifted[k * (e // d)] = c
    assert reduce_vector(lifted, e) == reduce_vector(vec, e)
    # over the power basis of Q(zeta_d), with no zero coefficient
    assert all(0 <= k < len(cyclotomic_polynomial(d)) - 1 and c for k, c in v.coeffs.items())
    # Q(zeta_n) is the field that the sigma_k with k = 1 (mod n) fix, so d
    # is the least divisor n of e for which each of them fixes the value
    target = reduce_vector(vec, e)

    def fixed(n):
        return all(reduce_vector(_galois(vec, k, e), e) == target
                   for k in range(1, e + 1, n) if gcd(k, e) == 1)

    assert d == next(n for n in range(1, e + 1) if e % n == 0 and fixed(n))
