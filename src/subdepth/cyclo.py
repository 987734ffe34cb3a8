"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A value is stored as a coefficient map over the power basis
``{zeta_e^k : 0 <= k < phi(e)}`` of the *smallest* cyclotomic field that
contains it: coefficients are reduced modulo the e-th cyclotomic polynomial
and the conductor e is minimised afterwards (rationals end up at conductor 1).
The representation is therefore canonical and equality is literal coefficient
equality.  Coefficients are `fractions.Fraction`; there is no floating point
anywhere.

Conductors stay tiny in this package (they divide element orders of the
groups we handle), so the linear algebra behind conductor minimisation is
done naively over Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import SubdepthError

__all__ = ["Cyclotomic", "zeta", "cyclotomic_polynomial"]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _exact_polydiv(num, den):
    """Quotient of integer polynomials (ascending coefficients), exact division."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dn]
        out[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    if any(num):
        raise SubdepthError("polynomial division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Integer coefficients of the e-th cyclotomic polynomial, ascending, monic."""
    if e < 1:
        raise ValueError("conductor must be a positive integer")
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in _divisors(e)[:-1]:
        poly = _exact_polydiv(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi(e):
    return len(cyclotomic_polynomial(e)) - 1


def _reduce_mod_cyclotomic(coeffs, e):
    """Reduce {exponent: Fraction} with exponents in [0, e) modulo Phi_e.

    Returns a dict with exponents < phi(e) and no zero coefficients.
    """
    deg = _phi(e)
    if all(k < deg for k in coeffs):
        return {k: c for k, c in coeffs.items() if c}
    phi_poly = cyclotomic_polynomial(e)
    dense = [Fraction(0)] * e
    for k, c in coeffs.items():
        dense[k] += c
    for k in range(e - 1, deg - 1, -1):
        c = dense[k]
        if not c:
            continue
        dense[k] = Fraction(0)
        base = k - deg
        # x^k = x^(k-deg) * (x^deg - Phi_e(x))
        for i in range(deg):
            pc = phi_poly[i]
            if pc:
                dense[base + i] -= c * pc
    return {k: c for k, c in enumerate(dense[:deg]) if c}


@lru_cache(maxsize=None)
def _subfield_basis(e, d):
    """Reduced basis vectors of Q(zeta_d) inside the power basis of Q(zeta_e)."""
    step = e // d
    vecs = []
    for j in range(_phi(d)):
        red = _reduce_mod_cyclotomic({(j * step) % e: Fraction(1)}, e)
        vecs.append(tuple(red.get(k, Fraction(0)) for k in range(_phi(e))))
    return tuple(vecs)


def _express_in_subfield(coeffs, e, d):
    """Solve for coefficients over the zeta_d power basis, or None if outside."""
    cols = _subfield_basis(e, d)
    n_rows = _phi(e)
    n_cols = len(cols)
    # Gaussian elimination on the augmented system [cols | target].
    rows = [[cols[j][i] for j in range(n_cols)] + [coeffs.get(i, Fraction(0))]
            for i in range(n_rows)]
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    # Inconsistent iff a zeroed row has nonzero rhs.
    for i in range(r, n_rows):
        if rows[i][n_cols]:
            return None
    sol = {}
    for idx, c in enumerate(pivots):
        v = rows[idx][n_cols]
        if v:
            sol[c] = v
    return sol


def _minimise_conductor(coeffs, e):
    """Push a reduced coefficient map down to its minimal conductor."""
    if not coeffs:
        return 1, {}
    if set(coeffs) == {0}:
        return 1, dict(coeffs)
    for d in _divisors(e)[:-1]:
        if _phi(d) < 2:
            continue  # subfield is Q, already ruled out above
        sol = _express_in_subfield(coeffs, e, d)
        if sol is not None:
            return d, sol
    return e, dict(coeffs)


class Cyclotomic:
    """An exact element of some Q(zeta_e), stored in canonical normal form."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor, coeffs, _normalized=False):
        if not _normalized:
            raise TypeError("use Cyclotomic.from_rational / zeta / arithmetic to build values")
        self.conductor = conductor
        self.coeffs = coeffs
        self._hash = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(e, raw):
        """Normalise {exponent: Fraction-like} over zeta_e into canonical form."""
        if e < 1:
            raise ValueError("conductor must be a positive integer")
        folded = {}
        for k, c in raw.items():
            c = Fraction(c)
            if c:
                k %= e
                folded[k] = folded.get(k, Fraction(0)) + c
        folded = {k: c for k, c in folded.items() if c}
        reduced = _reduce_mod_cyclotomic(folded, e)
        cond, coeffs = _minimise_conductor(reduced, e)
        return Cyclotomic(cond, coeffs, _normalized=True)

    @staticmethod
    def from_rational(q):
        q = Fraction(q)
        return Cyclotomic(1, {0: q} if q else {}, _normalized=True)

    # -- predicates and views ----------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def as_rational(self):
        """The value as a Fraction, or None when it is not rational."""
        if self.conductor != 1:
            return None
        return self.coeffs.get(0, Fraction(0))

    def as_integer(self):
        """The value as an int, or None when it is not a rational integer."""
        q = self.as_rational()
        if q is None or q.denominator != 1:
            return None
        return q.numerator

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x)
        return None

    def _lifted(self, e):
        """Coefficient map of self over exponents of zeta_e (e multiple of conductor)."""
        step = e // self.conductor
        return {k * step: c for k, c in self.coeffs.items()}

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is None:
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return Cyclotomic.from_rational(
                self.coeffs.get(0, Fraction(0)) + other.coeffs.get(0, Fraction(0)))
        e = lcm(self.conductor, other.conductor)
        acc = self._lifted(e)
        for k, c in other._lifted(e).items():
            acc[k] = acc.get(k, Fraction(0)) + c
        return Cyclotomic._make(e, acc)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, {k: -c for k, c in self.coeffs.items()},
                          _normalized=True)

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = Cyclotomic._coerce(other)
        if other is None:
            return NotImplemented
        if self.conductor == 1 and other.conductor == 1:
            return Cyclotomic.from_rational(
                self.coeffs.get(0, Fraction(0)) * other.coeffs.get(0, Fraction(0)))
        if not self.coeffs or not other.coeffs:
            return Cyclotomic.from_rational(0)
        e = lcm(self.conductor, other.conductor)
        a = self._lifted(e)
        b = other._lifted(e)
        acc = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = (ka + kb) % e
                acc[k] = acc.get(k, Fraction(0)) + ca * cb
        return Cyclotomic._make(e, acc)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = Cyclotomic.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        """Complex conjugation, the field map zeta_e -> zeta_e^(-1)."""
        if self.conductor == 1:
            return self
        e = self.conductor
        return Cyclotomic._make(e, {(-k) % e: c for k, c in self.coeffs.items()})

    # -- ordering, hashing, formatting ----------------------------------------

    def _key(self):
        return (self.conductor, tuple(sorted(
            (k, c.numerator, c.denominator) for k, c in self.coeffs.items())))

    def sort_key(self):
        """A fixed total order on values, used for canonical character ordering."""
        return self._key()

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is None:
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return "0"
        if self.conductor == 1:
            return str(self.coeffs[0])
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            else:
                mono = f"z{self.conductor}" if k == 1 else f"z{self.conductor}^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    # -- serialization ------------------------------------------------------

    def to_obj(self):
        """JSON-ready form: plain "num/den" string for rationals, dict otherwise."""
        if self.conductor == 1:
            return str(self.coeffs.get(0, Fraction(0)))
        return {"conductor": self.conductor,
                "coeffs": [[k, str(self.coeffs[k])] for k in sorted(self.coeffs)]}

    @staticmethod
    def from_obj(obj):
        if isinstance(obj, str):
            return Cyclotomic.from_rational(Fraction(obj))
        if isinstance(obj, int):
            return Cyclotomic.from_rational(obj)
        return Cyclotomic._make(obj["conductor"],
                                {int(k): Fraction(v) for k, v in obj["coeffs"]})


def zeta(e, k=1):
    """The root of unity zeta_e^k in canonical form (e.g. zeta(4, 2) == -1)."""
    if e < 1:
        raise ValueError("order of the root of unity must be a positive integer")
    return Cyclotomic._make(e, {k % e: Fraction(1)})
