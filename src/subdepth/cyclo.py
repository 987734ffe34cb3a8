"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A value is stored as a coefficient map over the power basis
``{zeta_e^k : 0 <= k < phi(e)}`` of the *smallest* cyclotomic field that
contains it: the conductor e is minimised (rationals end up at conductor 1)
and the coefficients are reduced modulo the e-th cyclotomic polynomial.
The representation is therefore canonical and equality is literal coefficient
equality.  Coefficients are `fractions.Fraction`; there is no floating point
anywhere.

The least conductor is found by dropping one prime of e at a time, each
drop tested on an explicit basis of Q(zeta_e) over Q(zeta_(e/q)) (see
:func:`_descend`); no linear system is solved.  Reduction mod the
cyclotomic polynomial is still a dense division over the e exponents.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import InternalConsistencyError

__all__ = ["Cyclotomic", "zeta", "cyclotomic_polynomial", "reduce_vector"]

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


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
        raise InternalConsistencyError("polynomial division was not exact")
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


def reduce_vector(vec, e):
    """The coefficients below degree phi(e) of ``sum vec[k] zeta_e^k``, for
    ``vec`` dense over the exponents [0, e): the vector reduced mod the e-th
    cyclotomic polynomial, as a tuple."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    vec = list(vec)
    for k in range(e - 1, deg - 1, -1):
        c = vec[k]
        if c:
            for i in range(deg):
                vec[k - deg + i] -= c * phi[i]
    return tuple(vec[:deg])


def _descend(vec, e):
    """The least conductor d of ``sum vec[k] zeta_e^k`` (``vec`` dense over
    [0, e)) and the value's coefficients over ``zeta_d^j``, j < phi(d).

    Drop one prime q of e at a time.  Let d = e/q and zeta_d = zeta_e^q, the
    embedding that :meth:`Cyclotomic._lifted` uses.

    * q | d: zeta_e^(qj+i) = zeta_d^j zeta_e^i, and 1, ..., zeta_e^(q-1) is
      a basis of Q(zeta_e) over Q(zeta_d) (the degree is phi(e)/phi(d) = q).
      With B_i the part of ``vec`` at exponents k = i (mod q), read over
      zeta_d, the value is sum_i B_i zeta_e^i, so it lies in Q(zeta_d) iff
      B_1, ..., B_(q-1) vanish mod Phi_d, and it is then B_0.
    * q does not divide d: take qu + dv = 1, so that zeta_e^k =
      zeta_d^(ku) zeta_q^(kv) with zeta_q = zeta_e^d.  Q(zeta_e) has degree
      q - 1 over Q(zeta_d), spanned by 1, zeta_q, ..., zeta_q^(q-1) whose
      only relation is that they sum to 0.  With A_i the part at kv = i
      (mod q), the value is sum_i A_i zeta_q^i = sum_(i>0) (A_i - A_0)
      zeta_q^i over the basis zeta_q, ..., zeta_q^(q-1), so it lies in
      Q(zeta_d) iff A_1 = ... = A_(q-1) mod Phi_d, and it is then
      A_0 - A_(q-1).  At q = 2 the test is empty: a conductor 2 (mod 4) is
      never the least.

    The conductors n | e with the value in Q(zeta_n) are closed under gcd,
    since Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b)), and under
    multiples; so the least one divides every other, each drop that the
    test allows keeps it, and a prime refused once is refused at every
    smaller conductor.  One pass over the primes thus ends at the least
    conductor.
    """
    for q in _divisors(e)[1:]:
        if len(_divisors(q)) != 2:
            continue  # not a prime
        while e % q == 0:
            d = e // q
            if d % q == 0:
                parts = [vec[i::q] for i in range(q)]
                if any(any(reduce_vector(part, d)) for part in parts[1:]):
                    break
                vec = parts[0]
            else:
                v = pow(d, -1, q)
                u = (1 - d * v) // q
                parts = [[0] * d for _ in range(q)]
                for k, c in enumerate(vec):
                    if c:
                        parts[k * v % q][k * u % d] += c
                last = reduce_vector(parts[-1], d)
                if any(reduce_vector(part, d) != last for part in parts[1:-1]):
                    break
                vec = [a - b for a, b in zip(parts[0], parts[-1])]
            e = d
    return e, {k: c for k, c in enumerate(reduce_vector(vec, e)) if c}


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
        """Normalise {exponent: Fraction-like} over zeta_e into canonical form:
        the value at its least conductor, reduced mod that conductor's
        cyclotomic polynomial (see :func:`_descend`)."""
        if e < 1:
            raise ValueError("conductor must be a positive integer")
        vec = [0] * e
        for k, c in raw.items():
            vec[k % e] += Fraction(c)
        return Cyclotomic(*_descend(vec, e), _normalized=True)

    @staticmethod
    def from_rational(q):
        """The rational q (an int or a Fraction); a Fraction is kept as it is."""
        if type(q) is not Fraction:
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

    # -- ordering, hashing, formatting ----------------------------------------

    def sort_key(self):
        """A fixed total order on values, used for canonical character ordering
        and for the hash."""
        return (self.conductor, tuple(sorted(
            (k, c.numerator, c.denominator) for k, c in self.coeffs.items())))

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is None:
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.sort_key())
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
        """The inverse of :meth:`to_obj`; any other shape raises ValueError."""
        if isinstance(obj, str):
            return Cyclotomic.from_rational(_rational_from_str(obj))
        if not (isinstance(obj, dict) and set(obj) == {"conductor", "coeffs"}
                and isinstance(obj["coeffs"], list)):
            raise ValueError(f"not a serialized cyclotomic: {obj!r}")
        e = obj["conductor"]
        if type(e) is not int or e < 1:
            raise ValueError(f"conductor {e!r} is not a positive integer")
        coeffs = {}
        for term in obj["coeffs"]:
            if not (isinstance(term, list) and len(term) == 2 and type(term[0]) is int
                    and 0 <= term[0] < e and term[0] not in coeffs):
                raise ValueError(f"bad or repeated term {term!r} at conductor {e}")
            coeffs[term[0]] = _rational_from_str(term[1])
        return Cyclotomic._make(e, coeffs)


def _rational_from_str(text):
    """A Fraction from the "num" or "num/den" text that str(Fraction) writes."""
    if not (isinstance(text, str) and _RATIONAL.fullmatch(text)):
        raise ValueError(f"not a rational in num/den form: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def zeta(e, k=1):
    """The root of unity zeta_e^k in canonical form (e.g. zeta(4, 2) == -1)."""
    if e < 1:
        raise ValueError("order of the root of unity must be a positive integer")
    return Cyclotomic._make(e, {k % e: Fraction(1)})
