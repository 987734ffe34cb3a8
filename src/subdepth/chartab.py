"""Exact irreducible character tables and class-function operations.

Tables are computed by the modular (Dixon) method: simultaneous eigenvectors
of class-multiplication matrices over a prime field F_p with p == 1 mod the
group exponent and p^2 > 4|G|, lifted to exact cyclotomic values by Fourier
inversion over the roots of unity of F_p.  A class matrix is never built
whole: only its rows at the pivots of a subspace still to be split, each from
the class-sum structure constants.  A simple eigenvalue's line is read off
one Krylov sequence of the identity class vector's component in the subspace
(:func:`_split_space`), so only a repeated eigenvalue costs a nullspace.
Everything is verified against exact row orthogonality before a table is
returned; for a square table the column relation and the degree-square sum
follow from it (see :meth:`CharacterTable.validate`).

Every exact sum of values (the orthogonality check, scalar products,
decomposition, induction) runs on one integer kernel: values at zeta_e are
packed into single ints by Kronecker substitution (:func:`_pack`), a sum over
classes is one int dot product, and a result is read back as an int, or
unpacked and reduced mod the e-th cyclotomic polynomial on ints only when it
is not one.  A table packs its rows once, when it is validated.  A rational
packing is its values at every e and B, so restriction and induction of
rational characters carry theirs on to every later sum.  Products of
values run on the same packings: a product of packed ints is the packed
product, so the outer-product tables and the wreath oracle multiply ints and
normalise each distinct result to a Cyclotomic once.

Each distinct value is made once where values are made: the Dixon lift,
induction, the product tables and the JSON import each keep a dict local to
the call, so the entries of a table or class function share value objects,
and the kernel measures and packs each shared object once per call.  Packed
sums are keyed on their vector reduced mod the e-th cyclotomic polynomial,
since a sum is not reduced when it is formed.  The boundaries read each
shared object once in the same way: the JSON export converts each distinct
value object once, and table equality compares each distinct pair of
objects at the same position once.

Canonical orders make every downstream matrix reproducible: classes ascend by
size (ties by lexicographically smallest member), irreducibles ascend by
degree (ties by the value sequence under a fixed total order on cyclotomics).

For product groups the table of the direct product is the outer product of
the factor tables, and for wreath products by a cyclic group of prime order a
Clifford-theoretic construction provides an independent oracle against the
Dixon engine; both are built on the packed kernel and validated like any
other table.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import product as iter_product
from math import isqrt, lcm, prod
from operator import getitem, mul

from . import modlin
from .cyclo import Cyclotomic, reduce_vector
from .errors import (CycleParseError, GroupMismatchError, InternalConsistencyError,
                     NotACharacterError, TableConsistencyError)
from .perm import parse_cycle_notation

__all__ = [
    "ClassFunction", "CharacterTable", "inner_product", "restrict_character",
    "induce_character", "induce_character_bruteforce", "decompose",
    "dixon_character_table", "direct_product_table", "wreath_cyclic_table",
    "character_table", "table_to_obj", "table_from_obj",
]


class ClassFunction:
    """A function on a group constant on its conjugacy classes.

    ``values`` holds one exact cyclotomic per class, in the group's canonical
    class order.  An irreducible of a table also carries the table's packing
    of its values (see :func:`_pack`).  A rational packing is its values at
    every e and B, so a restriction or induction of a rational character
    carries its own, with the exact largest |value| as its norm.
    """

    __slots__ = ("group", "values", "_packed")

    def __init__(self, group, values):
        self.group = group
        self.values = tuple(values)
        self._packed = None
        if len(self.values) != len(group.classes()):
            raise ValueError("need exactly one value per conjugacy class")

    def degree(self):
        d = self.values[0].as_integer()
        if d is None:
            raise ValueError("class function has a non-integral value at the identity")
        return d

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group is other.group
                and self.values == other.values)

    def __hash__(self):
        return hash(self.values)

    def __add__(self, other):
        if self.group is not other.group:
            raise GroupMismatchError("cannot add class functions on different groups")
        return ClassFunction(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __repr__(self):
        vals = ", ".join(repr(v) for v in self.values[:8])
        if len(self.values) > 8:
            vals += ", ..."
        return f"ClassFunction[{vals}]"


class _Packing:
    """Packed values and conjugates at (e, B), with a bound on the values'
    1-norms: a table row's at its table's e, B and norm, or a rational
    restriction's or induction's at e = 1 and its own largest |value|."""

    __slots__ = ("e", "bits", "norm", "values", "conj")

    def __init__(self, e, bits, norm, values, conj):
        self.e, self.bits, self.norm, self.values, self.conj = e, bits, norm, values, conj


def _measure(f):
    """``(e, d, n)`` for a class function (:func:`_measure_values`).  A table
    row answers with its table's e and norm, and a carried rational packing
    with its exact n."""
    if f._packed is not None:
        return f._packed.e, 1, f._packed.norm
    return _measure_values(f.values)


def _measure_values(values):
    """``(e, d, n)`` for some values: the lcm of their conductors, the lcm of
    their coefficient denominators, and the largest coefficient 1-norm of
    ``d * value``.  A value object that several entries share is read once."""
    values = {id(v): v for v in values}.values()
    e = lcm(*{v.conductor for v in values})
    d = lcm(*{c.denominator for v in values for c in v.coeffs.values()})
    return e, d, max(sum(abs(c.numerator) * (d // c.denominator) for c in v.coeffs.values())
                     for v in values)


def _bits(bound):
    """The smallest B with every coefficient of absolute value at most
    ``bound`` below 2^(B-1), so balanced base-2^B digits read it back."""
    return bound.bit_length() + 1


def _fit(e, bits, *functions):
    """B for packing at e: a table row's own B when it is at least ``bits``."""
    for f in functions:
        own = f._packed
        if own is not None and own.e == e and own.bits >= bits:
            return own.bits
    return bits


def _pack(values, e, bits, scale=1):
    """Kronecker packing at zeta_e: ``scale * value = sum c_k zeta_e^k`` becomes
    the int ``sum c_k 2^(B*k)``, and its conjugate the same coefficients at the
    exponents (e - k) mod e.  ``scale`` must clear every denominator.

    A sum of ``w * a * conj(b)`` over classes is then one int dot product whose
    polynomial coefficients, before and after folding mod x^e - 1, are at most
    ``sum w * |a|_1 * |b|_1 <= W * N_a * N_b`` in absolute value (W the sum of
    the weights, N the largest coefficient 1-norm of a value); B is taken
    from that bound (:func:`_bits`), so the digits unpack uniquely.

    A value object that several entries share is packed once per call, looked
    up by its id: ``values`` is a sequence, so it holds every object alive and
    no id is reused while the call runs.
    """
    memo = {}
    packed, conj = [], []
    for v in values:
        pair = memo.get(id(v))
        if pair is None:
            step = e // v.conductor
            p = q = 0
            for k, c in v.coeffs.items():
                c = c.numerator * (scale // c.denominator)
                k *= step
                p += c << (bits * k)
                q += c << (bits * (-k % e))
            pair = memo[id(v)] = p, q
        packed.append(pair[0])
        conj.append(pair[1])
    return packed, conj


def _packing(f, e, bits, scale=1):
    """f packed at (e, B): its own packing when that is rational or matches,
    else new.  A rational value c packs to c at every e and B, and is its own
    conjugate."""
    own = f._packed
    if own is not None and (own.e == 1 or (own.e == e and own.bits == bits)):
        return own.values, own.conj
    return _pack(f.values, e, bits, scale)


def _unfold(total, e, bits):
    """The coefficient vector over zeta_e of a packed sum: its balanced
    base-2^B digits folded mod x^e - 1."""
    vec = [0] * e
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    k = 0
    while total:
        digit = total & mask
        if digit >= half:
            digit -= mask + 1
        vec[k % e] += digit
        total = (total - digit) >> bits
        k += 1
    return vec


def _integer(vec, e):
    """The int c when ``sum vec[k] zeta_e^k`` equals c, else None."""
    vec = reduce_vector(vec, e)
    return None if any(vec[1:]) else vec[0]


def _rational(total, e, bits):
    """The int a packed sum equals, or None when it is not a rational integer.
    A constant packs as itself, so only a sum outside (-2^(B-1), 2^(B-1)) is
    unpacked."""
    if e == 1 or -(1 << (bits - 1)) < total < 1 << (bits - 1):
        return total
    return _integer(_unfold(total, e, bits), e)


def _from_packed(total, e, bits, scale):
    """The packed sum divided by ``scale`` as a Cyclotomic."""
    if e == 1:
        return Cyclotomic.from_rational(Fraction(total, scale))
    return Cyclotomic._make(e, {k: Fraction(c, scale)
                                for k, c in enumerate(_unfold(total, e, bits)) if c})


def inner_product(f, h):
    """The exact scalar product (1/|G|) * sum over classes of size*f*conj(h)."""
    group = f.group
    if h.group is not group:
        raise GroupMismatchError("class functions live on different groups")
    e_f, d_f, n_f = _measure(f)
    e_h, d_h, n_h = _measure(h)
    e = lcm(e_f, e_h)
    bits = _fit(e, _bits(group.order * n_f * n_h), f, h)
    a = map(mul, group.classes().sizes(), _packing(f, e, bits, d_f)[0])
    total = sum(map(mul, a, _packing(h, e, bits, d_h)[1]))
    return _from_packed(total, e, bits, group.order * d_f * d_h)


class CharacterTable:
    """The square table of all irreducible characters of a group.

    Validation packs the rows at e = lcm of the table's conductors, with B
    wide enough for a partner of 1-norm up to |G| * N (N the table's largest
    value 1-norm), and leaves each row its packing.
    """

    __slots__ = ("group", "classes", "irreducibles", "product_labels", "_factors",
                 "__weakref__")

    def __init__(self, group, irreducibles, product_labels=None):
        self.group = group
        self.classes = group.classes()
        self.irreducibles = tuple(irreducibles)
        self.product_labels = product_labels
        self._factors = ()
        self.validate()

    def degrees(self):
        return [chi.degree() for chi in self.irreducibles]

    def index_of(self, values):
        """Locate an irreducible by its exact value tuple."""
        values = tuple(values)
        for i, chi in enumerate(self.irreducibles):
            if chi.values == values:
                return i
        raise KeyError("no irreducible character with those values")

    def validate(self):
        """Exact checks (values in Z[zeta_d], degrees, row orthogonality); raises on failure.

        The row relation is the whole orthogonality check (Isaacs, Character
        Theory of Finite Groups, 2.18).  With X the table and
        D = diag(|C_k|) it says X D conj(X)^T = |G| I.  Square matrices
        with AB = cI, c != 0, also satisfy BA = cI, so conj(X)^T X = |G| D^-1:
        the column relation, whose entry at the identity class is
        sum chi(1)^2 = |G|.  Entry (i, j) of the row relation is the conjugate
        of entry (j, i), so only the pairs i <= j are summed.

        The rows are packed from their Cyclotomic values in one call, so a
        value object that entries share is packed once (:func:`_pack`); the
        diagonal of the row relation still reads every entry."""
        s = len(self.classes)
        rows = self.irreducibles
        if len(rows) != s:
            raise TableConsistencyError(
                f"table is not square: {len(rows)} characters, {s} classes")
        for chi in rows:
            chi._packed = None
        values = [v for chi in rows for v in chi.values]
        e, d, norm = _measure_values(values)
        if d != 1:
            raise TableConsistencyError("a character value is not an algebraic integer")
        degrees = [chi.values[0].as_integer() for chi in rows]
        if any(d is None or d < 1 for d in degrees):
            raise TableConsistencyError("a character degree is not a positive integer")
        order = self.group.order
        bits = _bits(order * norm * order * norm)
        a_all, b_all = _pack(values, e, bits)
        packs = [(a_all[i:i + s], b_all[i:i + s]) for i in range(0, s * s, s)]
        sizes = self.classes.sizes()
        for i, (a, _) in enumerate(packs):
            wa = list(map(mul, sizes, a))
            for j in range(i, s):
                total = sum(map(mul, wa, packs[j][1]))
                if _rational(total, e, bits) != (order if i == j else 0):
                    raise TableConsistencyError(
                        f"row orthogonality failed at characters {i}, {j}: "
                        f"{_from_packed(total, e, bits, 1)!r}/{order}")
        for chi, (a, b) in zip(rows, packs):
            chi._packed = _Packing(e, bits, norm, a, b)

    def __eq__(self, other):
        """Same group, class representatives and values, entry for entry.

        Each distinct pair of value objects at the same position is compared
        once, looked up by their ids: both tables hold every object alive, so
        no id is reused while the call runs.  The shapes are compared first,
        as the pairing zips the rows."""
        if not (isinstance(other, CharacterTable)
                and self.group == other.group
                and [c.rep for c in self.classes.classes] == [c.rep for c in other.classes.classes]
                and [len(chi.values) for chi in self.irreducibles]
                == [len(chi.values) for chi in other.irreducibles]):
            return False
        pairs = {(id(a), id(b)): (a, b)
                 for chi, psi in zip(self.irreducibles, other.irreducibles)
                 for a, b in zip(chi.values, psi.values)}
        return all(a == b for a, b in pairs.values())

    def __repr__(self):
        return (f"CharacterTable(order={self.group.order}, "
                f"classes={len(self.classes)}, degrees={self.degrees()})")


def _canonical_character_sort(values_list):
    """Sort value tuples by (degree, value sequence under the fixed total order).
    A value object that several entries share has its sort key computed once."""
    distinct = {id(v): v for values in values_list for v in values}
    keys = {i: v.sort_key() for i, v in distinct.items()}

    def key(values):
        return (values[0].as_integer(), tuple([keys[id(v)] for v in values]))
    return sorted(range(len(values_list)), key=lambda i: key(values_list[i]))


# ---------------------------------------------------------------------------
# Dixon's modular method
# ---------------------------------------------------------------------------

def dixon_character_table(group, prime=None):
    """The exact character table via class-matrix eigenvectors over F_p.

    The prime defaults to the smallest p == 1 (mod exponent) with
    p > 2*sqrt(|G|); an explicit override must satisfy the same bounds.

    Each eigenvector gives chi(1)^2 mod p, and chi(1) is read as the divisor
    d of |G| with d^2 <= |G| whose square matches.  That divisor is unique:
    d1^2 == d2^2 (mod p) with d1 > d2 would need p to divide
    (d1 - d2)(d1 + d2), whose factors lie in (0, 2*sqrt(|G|)], below p.  No
    match raises :class:`InternalConsistencyError`.

    Values lift through z_e = modlin.root_of_unity(e, p), of order e = exp(G),
    as zeta_e.  Any other choice is z_e^k with gcd(k, e) = 1, which applies the
    Galois map zeta_e -> zeta_e^k to every row; Irr(G) is closed under it and
    the rows are sorted canonically, so the table does not change.
    """
    cs = group.classes()
    s = len(cs)
    e = group.exponent()
    order = group.order
    if prime is None:
        p = modlin.smallest_dixon_prime(e, order)
    else:
        modlin.validate_dixon_prime(prime, e, order)
        p = prime

    sizes = cs.sizes()

    # Split F_p^s into the common eigenspaces of the class matrices, taking the
    # matrices in canonical class order until every subspace is a line.  Of
    # each matrix only the rows at the pivots of an unsplit subspace are read.
    # A subspace is (basis, pivots, start): its basis in rref, the pivot
    # columns, and the component in it of e_0, the identity class vector, from
    # which _split_space reads off the eigenlines.
    identity = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    spaces = [(identity, list(range(s)), [1] + [0] * (s - 1))]
    for i in range(1, s):
        if all(len(space[0]) == 1 for space in spaces):
            break
        rows = {}
        next_spaces = []
        for space in spaces:
            basis, pivots, _ = space
            dim = len(basis)
            if dim == 1:
                next_spaces.append(space)
                continue
            for j in pivots:
                if j not in rows:
                    rows[j] = _class_matrix_row(group, i, j)
            pivot_rows = [rows[j] for j in pivots]
            # the subspace is invariant and b_l is 1 at pivots[l] and 0 at the
            # other pivots, so m b_l = sum_r act[r][l] b_r with
            # act[r][l] = m[pivots[r]] . b_l
            act = [list(col) for col in
                   zip(*(modlin.matvec_mod(pivot_rows, b, p) for b in basis))]
            lam = act[0][0]
            if act == [[lam if r == t else 0 for t in range(dim)] for r in range(dim)]:
                # the class acts as the scalar lam: the subspace stays whole,
                # and its basis is already in rref
                next_spaces.append(space)
                continue
            next_spaces.extend(_split_space(space, act, p))
        spaces = next_spaces
    if not all(len(space[0]) == 1 for space in spaces):
        raise InternalConsistencyError("class matrices failed to separate all characters")

    size_inv = [pow(sz, -1, p) for sz in sizes]
    z_e = modlin.root_of_unity(e, p)
    inv_class = [row[-1] for row in cs.powers]
    # the candidate degrees by their squares mod p, which are distinct as
    # p > 2*sqrt(|G|) (see the docstring)
    degree_of_square = {d * d % p: d for d in range(1, isqrt(order) + 1) if order % d == 0}
    # per element order m, row l of the inverse DFT: m^-1 zeta_m^(-l t), t < m
    inverse_dft = {}
    for m in set(map(len, cs.powers)):
        w = pow(z_e, -(e // m), p)
        m_inv = pow(m, -1, p)
        inverse_dft[m] = [[m_inv * pow(w, l * t, p) % p for t in range(m)]
                          for l in range(m)]

    # each lifted form (an int, or m and the multiplicities) is made into a
    # Cyclotomic once, and every entry of one value shares one object
    lifted, shared = {}, {}
    characters = []
    for basis, _, _ in spaces:
        v = basis[0]
        if v[0] == 0:
            raise InternalConsistencyError("eigenvector vanishes at the identity class")
        norm = pow(v[0], -1, p)
        v = [x * norm % p for x in v]
        # |G| / chi(1)^2 = sum_k v_k * v_{k*} / |C_k|
        ssum = 0
        for k in range(s):
            ssum = (ssum + v[k] * v[inv_class[k]] * size_inv[k]) % p
        if ssum == 0:
            raise InternalConsistencyError("degenerate eigenvector in degree recovery")
        deg = degree_of_square.get(order * pow(ssum, -1, p) % p)
        if deg is None:
            raise InternalConsistencyError("character degree recovery failed")
        u = [deg * v[k] * size_inv[k] % p for k in range(s)]
        values = []
        for row in cs.powers:
            m = len(row)
            vals_t = [u[c] for c in row]
            coeffs = {}
            for l, dft_row in enumerate(inverse_dft[m]):
                c_l = sum(map(mul, dft_row, vals_t)) % p
                if c_l:
                    if c_l > deg:
                        raise InternalConsistencyError(
                            "eigenvalue multiplicity exceeded the character degree")
                    coeffs[l] = c_l
            if sum(coeffs.values()) != deg:
                raise InternalConsistencyError(
                    "eigenvalue multiplicities do not sum to the character degree")
            c = _integer([coeffs.get(l, 0) for l in range(m)], m)
            key = (m, tuple(coeffs.items())) if c is None else c
            value = lifted.get(key)
            if value is None:
                value = Cyclotomic._make(m, coeffs) if c is None else Cyclotomic.from_rational(c)
                value = lifted[key] = shared.setdefault(value, value)
            values.append(value)
        characters.append(tuple(values))

    order_idx = _canonical_character_sort(characters)
    irr = [ClassFunction(group, characters[i]) for i in order_idx]
    return CharacterTable(group, irr)


def _split_space(space, act, p):
    """Split one subspace into the eigenspaces of a class matrix acting on it.

    ``space`` is (basis, pivots, start) as in :func:`dixon_character_table`
    and ``act`` the matrix in that basis.  Returns one such triple per
    eigenvalue, ascending: a simple eigenvalue's line (with pivots and start
    None, as a line is never split again), or a repeated eigenvalue's
    eigenspace in rref carrying its own component of e_0.

    Why e_0: write w_chi for the common eigenvector with entry
    |C_k| chi(z_k)/chi(1) at class k.  Column orthogonality gives
    e_0 = sum_chi (chi(1)^2/|G|) w_chi, and no coefficient vanishes mod p, as
    p == 1 mod the exponent does not divide |G|.  Every subspace is spanned by
    some of the w_chi, so e_0's component u in it has a nonzero part in each
    eigenline, and its coordinates are its entries at the pivots.  With g the
    product of (x - mu) over the distinct eigenvalues, g(act) u = 0, and for
    each eigenvalue lam, q(act) u with q = g/(x - lam) is u's part in the
    lam-eigenspace times the nonzero product of (lam - mu), mu != lam.  So one
    Krylov sequence u, act u, ..., act^r u gives every simple eigenvalue's
    line, and only a repeated eigenvalue costs a nullspace.
    """
    basis, pivots, start = space
    roots = modlin.roots_mod(modlin.charpoly_mod(act, p), p)
    distinct = sorted(set(roots))
    g = [1]
    for mu in distinct:
        g = [(a - mu * b) % p for a, b in zip([0] + g, g + [0])]
    krylov = [[start[j] for j in pivots]]
    for _ in distinct:
        krylov.append(modlin.matvec_mod(act, krylov[-1], p))
    krylov_cols = list(zip(*krylov))
    if any(sum(map(mul, g, col)) % p for col in krylov_cols):
        raise InternalConsistencyError(
            "the identity class vector leaves the eigenspaces of a class matrix")
    basis_cols = list(zip(*basis))
    out = []
    split_total = 0
    for lam in distinct:
        q = modlin.divide_root(g, lam, p)
        v = [sum(map(mul, q, col)) % p for col in krylov_cols]
        if not any(v):
            raise InternalConsistencyError(
                "the identity class vector has no component in an eigenspace")
        image = [sum(map(mul, v, col)) % p for col in basis_cols]
        if roots.count(lam) == 1:
            out.append(([image], None, None))
            split_total += 1
            continue
        shifted = [row[:] for row in act]
        for t in range(len(act)):
            shifted[t][t] = (shifted[t][t] - lam) % p
        ambient = [[sum(map(mul, coords, col)) % p for col in basis_cols]
                   for coords in modlin.nullspace_mod(shifted, p)]
        red, piv = modlin.rref_mod(ambient, p)
        out.append((red, piv, image))
        split_total += len(red)
    if split_total != len(basis):
        raise InternalConsistencyError("class-matrix eigenspace splitting lost dimensions")
    return out


def _class_matrix_row(group, i, j):
    """Row j of the matrix of class sum i: entry k is #{x in C_i : x^-1 z_k in C_j}.

    Both this and |C_j| #{x in C_i : x z_j in C_k} / |C_k| count the x in C_i
    and y in C_j with x y in C_k, so one pass over C_i gives the whole row.
    """
    cs = group.classes()
    raw = group.raw_elements
    index, labels = group._index, cs.labels
    zj = cs.classes[j].rep.images
    counts = [0] * len(cs)
    for idx in cs.classes[i].members:
        counts[labels[index[tuple(map(raw[idx].__getitem__, zj))]]] += 1
    size_j = cs.classes[j].size
    row = []
    for count, c in zip(counts, cs.classes):
        a, rem = divmod(size_j * count, c.size)
        if rem:
            raise InternalConsistencyError(
                f"class matrix {i} row {j}: {size_j * count} not divisible by {c.size}")
        row.append(a)
    return row


# ---------------------------------------------------------------------------
# Restriction, induction, decomposition
# ---------------------------------------------------------------------------

def restrict_character(chi, emb):
    """Restrict a class function on the ambient group along a subgroup embedding.

    A rational packing of ``chi`` is carried on, gathered through the fusion.
    """
    if chi.group is not emb.ambient:
        raise GroupMismatchError("class function does not live on the embedding's ambient group")
    f = ClassFunction(emb.sub, [chi.values[a] for a in emb.fusion])
    own = chi._packed
    if own is not None and own.e == 1:
        ints = [own.values[a] for a in emb.fusion]
        f._packed = _Packing(1, own.bits, max(map(abs, ints)), ints, ints)
    return f


def induce_character(psi, emb):
    """Induce a class function from the subgroup to the ambient group.

    Computed classwise through the fusion map:
    ``psi^G(g) = sum over fused H-classes c of psi(c) * |C_G(g)|/|C_H(c)|``,
    which is the zero-extension average ``(1/|H|) sum_x psi0(x g x^-1)``
    collapsed over classes.  The weights and their largest sum, which sets B,
    are the embedding's own, built once per embedding
    (:attr:`subdepth.perm.SubgroupEmbedding.induction_weights`), so every
    induction along it only reads them.  Each value is one weighted sum of
    psi's packed values (its own packing when that is rational or wide
    enough), and each distinct sum is normalised to a Cyclotomic once
    (:func:`_unpack_rows`).  When psi packs at e = 1 with no denominator, the
    sums are the values, and the induced function carries them as its packing.
    """
    if psi.group is not emb.sub:
        raise GroupMismatchError("class function does not live on the embedding's subgroup")
    buckets, weight_sum = emb.induction_weights
    e, d, n = _measure(psi)
    bits = _fit(e, _bits(weight_sum * n), psi)
    packed = _packing(psi, e, bits, d)[0]
    totals = [sum(map(mul, w, map(packed.__getitem__, classes))) for w, classes in buckets]
    f = ClassFunction(emb.ambient, _unpack_rows([totals], e, bits, d)[0])
    if e == 1 and d == 1:
        f._packed = _Packing(1, bits, max(map(abs, totals)), totals, totals)
    return f


def induce_character_bruteforce(psi, emb):
    """Literal induction sum over all ambient elements; test oracle only."""
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
            idx = h_class_of.get(conj)
            if idx is not None:
                acc = acc + psi.values[idx]
        values.append(acc * Fraction(1, sub.order))
    return ClassFunction(ambient, values)


def decompose(f, table):
    """Multiplicities of each irreducible in a character.

    f is packed once; the table's rows are read from its own packing unless f
    needs a larger e or B, which repacks them for this call only.  Raises
    :class:`NotACharacterError` when any inner product fails to be a
    nonnegative integer - exactness is the point, nothing is rounded.
    """
    group = f.group
    rows = table.irreducibles
    if rows[0].group is not group:
        raise GroupMismatchError("class functions live on different groups")
    e_f, d, n_f = _measure(f)
    own = rows[0]._packed
    e = lcm(e_f, own.e)
    bits = _fit(e, _bits(group.order * n_f * own.norm), rows[0])
    a = list(map(mul, group.classes().sizes(), _packing(f, e, bits, d)[0]))
    scale = group.order * d
    mults = []
    for chi in rows:
        q = _rational(sum(map(mul, a, _packing(chi, e, bits)[1])), e, bits)
        if q is None or q < 0 or q % scale:
            q = None if q is None else Fraction(q, scale)
            raise NotACharacterError(
                f"multiplicity {q!r} of a supposed character is not a nonnegative integer")
        mults.append(q // scale)
    return tuple(mults)


# ---------------------------------------------------------------------------
# Direct products and cyclic wreath products
# ---------------------------------------------------------------------------

def _unpack_rows(rows, e, bits, scale=1):
    """Rows of packed ints at (e, B), divided by ``scale``, as tuples of
    values.  Each distinct int is keyed on its vector reduced mod the
    cyclotomic polynomial (:func:`subdepth.cyclo.reduce_vector`), so the ints
    of one value share one object and each value is normalised to a
    Cyclotomic once (:func:`_from_packed`)."""
    made, values = {}, {}
    for total in set().union(*rows):
        key = total if e == 1 else reduce_vector(_unfold(total, e, bits), e)
        if key not in made:
            made[key] = _from_packed(total, e, bits, scale)
        values[total] = made[key]
    return [tuple(map(values.__getitem__, row)) for row in rows]


def direct_product_table(factor_tables, group):
    """Outer-product table of a direct product group.

    ``group`` must carry the block structure recorded by
    :func:`subdepth.constructions.direct_product`; its classes are matched to
    tuples of factor classes by windowed decomposition of the representatives.
    The resulting table records ``product_labels``: a map from factor
    irreducible index tuples to the row index in canonical order.

    Each factor row is packed once at e = lcm of the factors' e, with B from
    the product of the factors' norms (:func:`_pack`).  A value of the product
    is then the int product of the factor packings at the paired classes: the
    polynomial product, whose coefficients are at most that product of norms.
    """
    structure = group.product_structure
    if structure is None or len(structure) != len(factor_tables):
        raise ValueError("group does not carry a matching direct-product structure")
    factors = []
    for table, (offset, fgroup) in zip(factor_tables, structure):
        if table.group != fgroup:
            raise GroupMismatchError("factor table does not match the product structure")
        factors.append((offset, fgroup.degree, table))

    pairing = []
    for c in group.classes().classes:
        key = []
        size_check = 1
        for offset, fdeg, table in factors:
            comp = c.rep.window(offset, fdeg)
            fidx = table.classes.class_of[comp.images]
            key.append(fidx)
            size_check *= table.classes.classes[fidx].size
        if size_check != c.size:
            raise InternalConsistencyError("product class sizes do not multiply up")
        pairing.append(tuple(key))

    e = lcm(*(t.irreducibles[0]._packed.e for t in factor_tables))
    bits = _bits(prod(t.irreducibles[0]._packed.norm for t in factor_tables))
    # the packed rows of the product, in the order of iter_product over the factors
    rows = [[1] * len(pairing)]
    for table, column in zip(factor_tables, zip(*pairing)):
        picked = [list(map(_packing(chi, e, bits)[0].__getitem__, column))
                  for chi in table.irreducibles]
        rows = [list(map(mul, row, factor_row)) for row in rows for factor_row in picked]
    all_values = _unpack_rows(rows, e, bits)
    index_tuples = list(iter_product(*[range(len(t.irreducibles)) for t in factor_tables]))
    order_idx = _canonical_character_sort(all_values)
    labels = {index_tuples[i]: pos for pos, i in enumerate(order_idx)}
    irr = [ClassFunction(group, all_values[i]) for i in order_idx]
    table = CharacterTable(group, irr, product_labels=labels)
    table._factors = tuple(factor_tables)  # the factor groups hold theirs weakly
    return table


def wreath_cyclic_table(base_table, wreath_group, shift, copies):
    """Clifford-theoretic table of (base) wr C_n for prime n.

    Independent of the Dixon engine: irreducibles are built as inductions of
    shift-orbit representatives of outer products plus the twisted extensions
    of the diagonal outer products, so this serves as a structural oracle.

    The values are computed on the base rows packed at e = lcm(base e, n) with
    B from n * N^n (N the base table's norm), as in
    :func:`direct_product_table`: a block product is an int product, the twist
    by zeta_n^(cs) a shift by B * (c s e / n mod e), and a free-orbit value an
    int sum over the n rotations.

    Raises ``ValueError`` for composite ``copies``.  ``shift`` is not read:
    the block structure is decoded from the class representatives.
    """
    n = copies
    if not modlin.is_prime(n):
        raise ValueError("cyclic wreath oracle only supports a prime number of copies")
    base = base_table.group
    d = base.degree
    if wreath_group.degree != d * n or wreath_group.order != base.order ** n * n:
        raise GroupMismatchError("group does not look like the expected wreath product")
    base_class_of = base.classes().class_of

    decoded = []
    for c in wreath_group.classes().classes:
        w = c.rep.images
        s = w[0] // d
        for j in range(n):
            target = ((j + s) % n) * d
            if any(not (target <= w[j * d + t] < target + d) for t in range(d)):
                raise InternalConsistencyError("wreath element does not shift blocks uniformly")
        if s == 0:
            comps = tuple(base_class_of[tuple(v - j * d for v in w[j * d:(j + 1) * d])]
                          for j in range(n))
            decoded.append((0, comps))
        else:
            # the block-0 window of w^n is the cycle product of the components
            cycle_prod = (c.rep ** n).images[:d]
            decoded.append((s, base_class_of[tuple(cycle_prod)]))

    own = base_table.irreducibles[0]._packed
    e = lcm(own.e, n)
    bits = _bits(n * own.norm ** n)
    packed = [_packing(chi, e, bits)[0] for chi in base_table.irreducibles]
    rows = []
    for tup in iter_product(range(len(packed)), repeat=n):
        rotations = {tuple(tup[(j + r) % n] for j in range(n)) for r in range(n)}
        if tup != min(rotations):
            continue
        if len(rotations) == 1:
            # diagonal tuple: n extensions twisted by the cyclic quotient characters
            a = packed[tup[0]]
            for c_twist in range(n):
                rows.append([prod(map(a.__getitem__, data)) if s == 0
                             else a[data] << bits * (c_twist * s * e // n % e)
                             for s, data in decoded])
        else:
            # free orbit: the induced character, supported on the base; n is
            # prime, so the orbit holds n distinct rotations
            rotated = [[packed[i] for i in rotation] for rotation in rotations]
            rows.append([sum(prod(map(getitem, a, data)) for a in rotated) if s == 0 else 0
                         for s, data in decoded])
    all_values = _unpack_rows(rows, e, bits)
    order_idx = _canonical_character_sort(all_values)
    irr = [ClassFunction(wreath_group, all_values[i]) for i in order_idx]
    return CharacterTable(wreath_group, irr)


def character_table(group):
    """The canonical table of a group, cached on the instance while it lives.

    The group holds its table weakly (the table holds the group), so whoever
    needs a table keeps it.  Product groups get the outer-product construction
    (recursively); anything else goes through the Dixon engine.  Either route
    produces the same canonical table.
    """
    table = group._char_table and group._char_table()
    if table is not None:
        return table
    if group.product_structure is not None:
        factor_tables = [character_table(fg) for _, fg in group.product_structure]
        table = direct_product_table(factor_tables, group)
    else:
        table = dixon_character_table(group)
    group._char_table = weakref.ref(table)
    return table


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def table_to_obj(table):
    """The JSON-ready form of a table.  Each distinct value object is
    converted once (:meth:`Cyclotomic.to_obj`), looked up by its id, so the
    entries that share a value share its JSON form."""
    classes = table.classes
    order = table.group.order
    distinct = {id(v): v for chi in table.irreducibles for v in chi.values}
    objs = {i: v.to_obj() for i, v in distinct.items()}
    return {
        "schema": 1,
        "kind": "character_table",
        "degree": table.group.degree,
        "order": order,
        "classes": [
            {"rep": c.rep.cycle_string(), "size": c.size,
             "centralizer_order": order // c.size}
            for c in classes.classes
        ],
        "irreducibles": [[objs[id(v)] for v in chi.values] for chi in table.irreducibles],
    }


def table_from_obj(obj, group):
    """Rebuild a table from its JSON form, revalidating it against ``group``.

    A structure other than what :func:`table_to_obj` writes raises
    :class:`TableConsistencyError`, and a header or class list that differs
    from ``group``'s raises :class:`GroupMismatchError`.  Every value must have
    the shape :meth:`Cyclotomic.to_obj` writes with a conductor dividing the
    order of its class's elements (checked before any value is normalised), and
    the values must pass :meth:`CharacterTable.validate`, so a tampered file is
    rejected.

    Each distinct string entry is parsed once, and a dict entry every time;
    every entry that parses to the same value shares one Cyclotomic.
    """
    if not isinstance(obj, dict) or obj.get("kind") != "character_table" \
            or obj.get("schema") != 1:
        raise TableConsistencyError("not a schema-1 character table object")
    for key, kind in (("order", int), ("degree", int), ("classes", list),
                      ("irreducibles", list)):
        if type(obj.get(key)) is not kind:
            raise TableConsistencyError(f"table field {key!r} is missing or not a {kind.__name__}")
    if obj["order"] != group.order or obj["degree"] != group.degree:
        raise GroupMismatchError("table header does not match the group")
    classes = group.classes().classes
    if len(obj["classes"]) != len(classes):
        raise GroupMismatchError("class count does not match the group")
    for got, want in zip(obj["classes"], classes):
        if not isinstance(got, dict) or type(got.get("rep")) is not str \
                or type(got.get("size")) is not int:
            raise TableConsistencyError("a class entry lacks a string 'rep' or an int 'size'")
        try:
            rep = parse_cycle_notation(got["rep"], group.degree)
        except CycleParseError as exc:
            raise TableConsistencyError(f"bad class representative: {exc}") from None
        if rep.images != want.rep.images or got["size"] != want.size:
            raise GroupMismatchError("class list does not match the canonical classes")
    if any(type(row) is not list or len(row) != len(classes) for row in obj["irreducibles"]):
        raise TableConsistencyError("each irreducible needs a list of one value per class")
    orders = list(map(len, group.classes().powers))
    texts, shared = {}, {}

    def value(v, m):
        if type(v) is str and v in texts:
            return texts[v]
        e = v.get("conductor") if isinstance(v, dict) else 1
        try:
            if type(e) is not int or e < 1 or m % e:
                raise ValueError(f"conductor {e!r} does not divide the element order {m}")
            x = Cyclotomic.from_obj(v)
        except ValueError as exc:
            raise TableConsistencyError(f"bad table value: {exc}") from None
        x = shared.setdefault(x, x)
        if type(v) is str:
            texts[v] = x
        return x

    irils = [ClassFunction(group, list(map(value, row, orders))) for row in obj["irreducibles"]]
    return CharacterTable(group, irils)
