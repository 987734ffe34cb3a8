import random
import time
from math import isqrt
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdepth import modlin
from subdepth.modlin import (PRIMALITY_BOUND, ROOT_SCAN_LIMIT, charpoly_mod, is_prime,
                             nullspace_mod, root_of_unity, roots_mod, rref_mod,
                             smallest_dixon_prime)


def test_smallest_dixon_prime():
    # exponent 12, order 24: need p == 1 mod 12 and p^2 > 96
    assert smallest_dixon_prime(12, 24) == 13
    # exponent 24, order 1152: 2*sqrt(1152) ~ 67.9
    assert smallest_dixon_prime(24, 1152) == 73
    p = smallest_dixon_prime(36, 41472)
    assert p % 36 == 1 and p * p > 4 * 41472 and is_prime(p)
    assert p == 433


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def test_is_prime_against_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division_is_prime(n)]


def test_is_prime_on_pseudoprimes_and_large_primes():
    # Carmichael numbers, strong pseudoprimes to the first few bases, and
    # 318665857834031151167461, a strong pseudoprime to every base up to 37
    # that only base 41 exposes
    for n in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(10**18 + 9)


def test_is_prime_refuses_at_the_bound():
    assert PRIMALITY_BOUND == 3317044064679887385961981
    for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 2):
        with pytest.raises(ValueError, match=str(PRIMALITY_BOUND)):
            is_prime(n)


def _order(z, p):
    k, acc = 1, z
    while acc != 1:
        acc = acc * z % p
        k += 1
    return k


def test_root_of_unity_has_order_exactly_e():
    for e in (d for d in range(1, 841) if 840 % d == 0):
        p = smallest_dixon_prime(e, e)
        assert _order(root_of_unity(e, p), p) == e


def _brute_charpoly(a, p):
    """det(xI - A) by Lagrange interpolation of determinants; independent oracle."""
    n = len(a)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        m = [[(x * (i == j) - a[i][j]) % p for j in range(n)] for i in range(n)]
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col]), None)
            if piv is None:
                det = 0
                break
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            det = det * m[col][col] % p
            inv = pow(m[col][col], -1, p)
            for r in range(col + 1, n):
                f = m[r][col] * inv % p
                if f:
                    m[r] = [(v - f * w) % p for v, w in zip(m[r], m[col])]
        ys.append(det % p)
    # Lagrange interpolation through (xs, ys)
    coeffs = [0] * (n + 1)
    for i, xi in enumerate(xs):
        num = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            new = [0] * (len(num) + 1)
            for k, c in enumerate(num):
                new[k] = (new[k] - c * xj) % p
                new[k + 1] = (new[k + 1] + c) % p
            num = new
            denom = denom * (xi - xj) % p
        scale = ys[i] * pow(denom, -1, p) % p
        for k, c in enumerate(num):
            coeffs[k] = (coeffs[k] + scale * c) % p
    return coeffs


def test_charpoly_against_interpolation():
    rng = random.Random(7)
    p = 73
    for n in (1, 2, 3, 5, 8):
        for _ in range(5):
            a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            assert charpoly_mod(a, p) == _brute_charpoly(a, p)


def test_nullspace():
    p = 13
    a = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    basis = nullspace_mod(a, p)
    assert len(basis) == 1
    for v in basis:
        got = [sum(r * x for r, x in zip(row, v)) % p for row in a]
        assert got == [0, 0, 0]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_nullspace_vectors_are_one_at_their_last_nonzero_entry(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                           min_size=1, max_size=6))
    basis = nullspace_mod(m, p)
    assert len(basis) == n - len(rref_mod(m, p)[1])
    lasts = [max(t for t, x in enumerate(v) if x) for v in basis]
    assert lasts == sorted(set(lasts))
    for v, last in zip(basis, lasts):
        assert all(sum(map(mul, row, v)) % p == 0 for row in m)
        # 1 at its own last nonzero entry, 0 at every other vector's
        assert [v[t] for t in lasts] == [int(t == last) for t in lasts]

def test_rref_shapes():
    p = 13
    rows, pivots = rref_mod([[2, 4], [1, 2]], p)
    assert len(rows) == 1 and pivots == [0]
    assert rows[0] == [1, 2]


def test_roots_mod():
    p = 13
    # x^2 - 1 has roots 1 and 12
    assert roots_mod([12, 0, 1], p) == [1, 12]
    # (x - 3)^2 (x + 1) = x^3 - 5x^2 + 3x + 9: 3 twice, and -1 once
    assert roots_mod([9, 3, -5, 1], p) == [3, 3, 12]
    # x^2 + 1 has no root mod 7; coefficients need not be reduced
    assert roots_mod([8, 0, 15], 7) == []


def test_roots_mod_of_constants_and_zero():
    assert roots_mod([5], 13) == [] and roots_mod([5, 0, 13], 13) == []
    for zero in ([], [0], [13, 26, 0]):
        with pytest.raises(ValueError):
            roots_mod(zero, 13)


def _multiply(a, b, p):
    """The product of two polynomials, ascending coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _brute_roots(poly, p):
    """Each x in F_p as often as (X - x) divides the polynomial, found by trial
    division by every x in turn; independent oracle."""
    out = []
    for x in range(p):
        while len(poly) > 1:
            quotient, acc = [0] * (len(poly) - 1), 0
            for k in range(len(poly) - 1, 0, -1):
                acc = (acc * x + poly[k]) % p
                quotient[k - 1] = acc
            if (acc * x + poly[0]) % p:
                break
            out.append(x)
            poly = quotient
    return out


PRIMES_BELOW_100 = [q for q in range(2, 100) if is_prime(q)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_roots_mod_against_trial_division(data):
    p = data.draw(st.sampled_from(PRIMES_BELOW_100))
    if data.draw(st.booleans()):
        poly = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=8))
        poly.append(data.draw(st.integers(1, p - 1)))
    else:
        # a product of linear factors, some repeated, and of quadratics
        # x^2 - n for a non-residue n, which have no root
        poly = [data.draw(st.integers(1, p - 1))]
        for root in data.draw(st.lists(st.integers(0, p - 1), max_size=6)):
            for _ in range(data.draw(st.integers(1, 2))):
                poly = _multiply(poly, [-root % p, 1], p)
        squares = {x * x % p for x in range(p)}
        for n in data.draw(st.lists(st.integers(1, p - 1), max_size=2)):
            if n not in squares:
                poly = _multiply(poly, [-n % p, 0, 1], p)
    roots = roots_mod(poly, p)
    assert roots == sorted(roots)
    assert roots == _brute_roots(poly, p)


def test_roots_mod_of_integer_roots_at_a_large_prime():
    p = 10000141
    poly = [1]
    for root in (-24, -3, 0, 0, 2, 8, 8, 8, 12):
        poly = _multiply(poly, [-root % p, 1], p)
    start = time.perf_counter()
    assert roots_mod(poly, p) == [0, 0, 2, 8, 8, 8, 12, p - 24, p - 3]
    assert time.perf_counter() - start < 0.1


PRIMES_ABOVE_THE_SCAN = [q for q in range(ROOT_SCAN_LIMIT + 1, ROOT_SCAN_LIMIT + 400)
                         if is_prime(q)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_roots_above_the_scan_limit_equal_the_scan(data):
    # products of linear factors, some repeated, anywhere in F_p, and of
    # quadratics x^2 - n with no root; the roots found without a scan, with
    # their multiplicities, are those the scan finds
    p = data.draw(st.sampled_from(PRIMES_ABOVE_THE_SCAN))
    poly = [data.draw(st.integers(1, p - 1))]
    for root in data.draw(st.lists(st.integers(0, p - 1), max_size=8)):
        for _ in range(data.draw(st.integers(1, 3))):
            poly = _multiply(poly, [-root % p, 1], p)
    for n in data.draw(st.lists(st.integers(1, p - 1), max_size=2)):
        if pow(n, (p - 1) // 2, p) == p - 1:
            poly = _multiply(poly, [-n % p, 0, 1], p)
    roots = roots_mod(poly, p)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(modlin, "ROOT_SCAN_LIMIT", p)
        assert roots == roots_mod(poly, p)


def test_roots_far_from_zero_at_a_large_prime():
    # zeta_3 reduces to 499501 and 500501 mod 1000003, next to p/2, where a
    # scan outward from 0 would try about p candidates
    p = 1000003
    poly = _multiply([1, 1, 1], [1, 1, 1], p)
    poly = _multiply(poly, [-7 % p, 1], p)
    start = time.perf_counter()
    assert roots_mod(poly, p) == [7, 499501, 499501, 500501, 500501]
    assert time.perf_counter() - start < 0.1
