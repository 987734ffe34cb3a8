"""Small dense linear algebra over a prime field F_p.

Everything here works on plain lists of Python ints reduced mod p.  Sizes are
small (matrices indexed by conjugacy classes), so the algorithms are the plain
dense ones, written to compute only what the caller reads: a product row is
one int dot product, and elimination touches a row only from its pivot column
on.  Roots are found by trying candidates outward from 0, since the
eigenvalues of a rational class are small integers, and each is divided out
as it is found.  Row order, eigenvalue order and nullspace bases are all fixed
functions of the input.  Primality is a deterministic Miller-Rabin test, and
no integer is factorised.
"""

from __future__ import annotations

from itertools import chain
from operator import mul

from .errors import InternalConsistencyError

__all__ = [
    "PRIMALITY_BOUND", "is_prime", "smallest_dixon_prime", "root_of_unity",
    "matvec_mod", "rref_mod", "nullspace_mod", "charpoly_mod", "roots_mod",
    "divide_root",
]

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the smallest strong pseudoprime to every base (Sorenson and Webster, 2017)
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n):
    """Miller-Rabin to the bases 2 ... 41, exact below PRIMALITY_BOUND; at or
    above it ValueError is raised rather than a guess made."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {PRIMALITY_BOUND}")
    if n < 2 or n in _BASES:
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _BASES:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def smallest_dixon_prime(exponent, order):
    """The smallest prime p == 1 (mod exponent) with p^2 > 4*order.

    Such a prime makes F_p a splitting field for the group and large enough to
    lift character degrees and multiplicities uniquely.
    """
    p = exponent + 1
    while True:
        if p * p > 4 * order and is_prime(p):
            return p
        p += exponent


def validate_dixon_prime(p, exponent, order):
    """Raise ValueError unless p is a prime == 1 (mod exponent) with p^2 > 4*order.

    The residue and the size are checked first, then primality by Miller-Rabin,
    which is exact below PRIMALITY_BOUND and refuses a p at or above it."""
    if (p - 1) % exponent:
        raise ValueError(f"{p} is not congruent to 1 mod the group exponent {exponent}")
    if p * p <= 4 * order:
        raise ValueError(f"{p} is not larger than twice the square root of the group order")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def root_of_unity(e, p):
    """A primitive e-th root of unity mod the prime p, for e dividing p - 1: the
    ((p-1)/e)-th power z of the smallest x >= 2 for which z has order exactly e.
    As z^e = 1, each order is found by walking at most e powers."""
    for x in range(2, p):
        z = acc = pow(x, (p - 1) // e, p)
        k = 1
        while acc != 1:
            acc, k = acc * z % p, k + 1
        if k == e:
            return z
    # unreachable for prime p
    raise InternalConsistencyError(f"no element of order {e} found modulo {p}")


def matvec_mod(m, v, p):
    """m v mod p, for m given as the list of the rows wanted."""
    return [sum(map(mul, row, v)) % p for row in m]


def rref_mod(rows, p):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [[v % p for v in r] for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        # the pivot row is zero before column c, so no row changes there
        head = rows[r]
        inv = pow(head[c], -1, p)
        tail = [v * inv % p for v in head[c:]]
        head[c:] = tail
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace_mod(m, p):
    """Basis of the right nullspace of m over F_p, one vector per free
    variable, free variables ascending.  Each vector is 1 at its free
    variable, which is its last nonzero entry, and 0 at the other free
    variables."""
    n = len(m[0]) if m else 0
    red, pivots = rref_mod(m, p)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * n
        vec[fc] = 1
        for ri, pc in enumerate(pivots):
            vec[pc] = (-red[ri][fc]) % p
        basis.append(vec)
    return basis


def charpoly_mod(a, p):
    """Characteristic polynomial det(xI - A) mod p, ascending coefficients, monic.

    Computed by similarity reduction to upper Hessenberg form followed by the
    standard leading-minor recurrence.
    """
    n = len(a)
    if n == 0:
        return [1]
    h = [[v % p for v in row] for row in a]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            if h[i][j]:
                f = h[i][j] * inv % p
                hi, hj1 = h[i], h[j + 1]
                for t in range(j, n):
                    hi[t] = (hi[t] - f * hj1[t]) % p
                for t in range(n):
                    h[t][j + 1] = (h[t][j + 1] + f * h[t][i]) % p
    # p_m = (x - h[m-1][m-1]) p_{m-1} - sum_i h[i-1][m-1] * (prod of subdiagonals) p_{i-1}
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        diag = h[m - 1][m - 1]
        poly = [0] + prev
        for i, c in enumerate(prev):
            poly[i] = (poly[i] - diag * c) % p
        poly = [v % p for v in poly]
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = prod * h[i][i - 1] % p
            coef = h[i - 1][m - 1] * prod % p
            if coef:
                q = polys[i - 1]
                for t, c in enumerate(q):
                    poly[t] = (poly[t] - coef * c) % p
        polys.append(poly)
    return polys[n]


def roots_mod(poly, p):
    """Every root of the polynomial in F_p, as often as it divides, ascending.

    Candidates are tried outward from 0 (0, 1, -1, 2, -2, ...) at one Horner
    evaluation each.  A root is divided out by synthetic division, which also
    evaluates the quotient at it, and the scan stops once the quotient is
    constant.  So roots that are integers of absolute value at most c are all
    found within 2c + 1 candidates; only a factor with no root in F_p makes
    the scan run through all of it.
    """
    high = [c % p for c in reversed(poly)]  # descending coefficients
    while high and not high[0]:
        del high[0]
    if not high:
        raise ValueError("the zero polynomial vanishes everywhere")
    out = []
    if len(high) == 1:
        return out
    half = p // 2
    candidates = chain((0,), chain.from_iterable(
        zip(range(1, half + 1), range(-1, -half - 1, -1))))
    for x in candidates:
        acc = 0
        for c in high:
            acc = (acc * x + c) % p
        if acc:
            continue
        while not acc:  # divide x out, evaluating the quotient at x as it forms
            out.append(x % p)
            quotient, b = [], 0
            for c in high[:-1]:
                b = (b * x + c) % p
                quotient.append(b)
                acc = (acc * x + b) % p
            high = quotient
        if len(high) == 1:
            break
    return sorted(out)


def divide_root(poly, x, p):
    """The quotient of the polynomial by (X - x), ascending coefficients; the
    remainder, the value at x, is dropped."""
    quotient = [0] * (len(poly) - 1)
    acc = 0
    for k in range(len(poly) - 1, 0, -1):
        acc = (acc * x + poly[k]) % p
        quotient[k - 1] = acc
    return quotient
