"""Literal reference computations that only the tests read.

Each one is the plain definition that a faster path in the package is
tested against: the centralizer by scanning every element, the induction
sum over every ambient element, the n-th alternating matrix power and
complex conjugation of a cyclotomic value.
"""

from fractions import Fraction
from itertools import islice

from subdepth.chartab import ClassFunction
from subdepth.cyclo import Cyclotomic
from subdepth.depth import _alternating_powers
from subdepth.errors import NotASubgroupError
from subdepth.perm import Permutation, PermGroup

__all__ = ["centralizer", "induce_character_bruteforce", "alternating_power", "conjugate"]


def centralizer(group, x):
    """The subgroup of all elements commuting with ``x`` (which must lie in the group)."""
    if x not in group:
        raise NotASubgroupError(f"{x!r} is not an element of the group")
    xi = x.images if isinstance(x, Permutation) else tuple(x)
    hits = []
    for z in group.raw_elements:
        if tuple(map(z.__getitem__, xi)) == tuple(map(xi.__getitem__, z)):
            hits.append(z)
    return PermGroup.from_elements(group.degree, hits)


def induce_character_bruteforce(psi, emb):
    """Literal induction sum over all ambient elements."""
    ambient, sub = emb.ambient, emb.sub
    h_class_of = sub.classes().class_of
    values = []
    for gc in ambient.classes().classes:
        g = gc.rep.images
        acc = Cyclotomic.from_rational(0)
        for x in ambient.raw_elements:
            xinv = [0] * len(x)
            for i, v in enumerate(x):
                xinv[v] = i
            conj = tuple(map(x.__getitem__, map(g.__getitem__, xinv)))
            if conj in sub:
                acc = acc + psi.values[h_class_of(conj)]
        values.append(acc * Fraction(1, sub.order))
    return ClassFunction(ambient, values)


def alternating_power(matrix, n):
    """The n-th alternating power: M^1 = M, M^(2l) = M^(2l-1) M^T,
    M^(2l+1) = M^(2l) M; M^0 is the identity on the row index set."""
    return next(islice(_alternating_powers(matrix), n, None))


def conjugate(value):
    """Complex conjugation of a cyclotomic, the field map zeta_e -> zeta_e^(-1)."""
    if value.conductor == 1:
        return value
    e = value.conductor
    return Cyclotomic._make(e, {(-k) % e: c for k, c in value.coeffs.items()})
