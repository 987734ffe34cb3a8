"""Exact irreducible character tables and class-function operations.

Tables come by one of three routes, chosen from the group alone
(:func:`character_table`): the outer product of the factor tables for a
direct product; the Murnaghan-Nakayama rule on the partitions of k for the
full symmetric group on the k points its generators move
(:func:`symmetric_character_table`); and for every other group the modular
(Dixon) method, which ``table --prime`` also calls directly.

Dixon's method takes simultaneous eigenvectors of class-multiplication
matrices over a prime field F_p with p == 1 mod the group exponent and
p^2 > 4|G|, lifted to exact cyclotomic values by Fourier inversion over the
roots of unity of F_p.  A class matrix is never built whole: only its rows
at the pivots of a subspace still to be split, each from the class-sum
structure constants counted in one chain of maps over a class.
A simple eigenvalue's line is read off one Krylov sequence of the identity
class vector's component in the subspace (:func:`_split_space`), so only a
repeated eigenvalue costs a nullspace, whose basis is kept as the
eigenspace's: it is the identity at its pivots, all that the action of a
class matrix on the subspace needs, so no second elimination is made.  The
lift is a function of a character's degree and its residues at the powers
of a class, and runs once per distinct such input.

Every table, whatever its route, is verified against exact row
orthogonality before it is returned; for a square table the column relation
and the degree-square sum follow from it (see :meth:`CharacterTable.validate`).

Every exact sum of values (the orthogonality check, scalar products,
decomposition, induction) runs on one integer kernel: values at zeta_e are
packed into single ints by Kronecker substitution (:func:`_pack`), a sum over
classes is one int dot product, and a result is read back as an int, or
unpacked and reduced mod the e-th cyclotomic polynomial on ints only when it
is not one.  The packing lives on the table: validation keeps the rows'
packed conjugates with e, B and the largest value 1-norm N as its kernel,
which decomposition reads and whose e and N set the packings of the product
tables and the wreath oracle.  A class function carries nothing packed but
its values as ints when all are rational integers (c packs to c at every e
and B, and is its own conjugate): rational rows hand them on to their
restrictions and integral inductions, and so to every later sum.  A class
function made from ints makes its values when they are first read, so a
restriction or induction that is only summed, decomposed or compared makes
none.  A product of packed ints is the packed product, so the outer-product
tables and the wreath oracle multiply ints and normalise each distinct
result once.

Each distinct value is made once where values are made: the Dixon lift,
the Murnaghan-Nakayama rows, induction with irrational or non-integral
values, the first read of a function made from ints, the product tables and
the JSON import each keep a dict local to the call, so the entries of a
table or class function share value objects, and the kernel measures and
packs each shared object once per call.  Packed sums are keyed on their
vector reduced mod the e-th cyclotomic polynomial, since a sum is not
reduced when it is formed.  The JSON export converts each distinct value
object once in the same way, and rows compare by one rule
(:meth:`ClassFunction.__eq__`), which table equality and a lookup in a
table's irreducibles use.

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
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product, repeat
from math import isqrt, lcm, prod
from operator import eq, getitem, mul

from . import modlin
from .cyclo import Cyclotomic, reduce_vector
from .errors import (CycleParseError, GroupMismatchError, InternalConsistencyError,
                     NotACharacterError, TableConsistencyError)
from .perm import _left_product, parse_cycle_notation

__all__ = [
    "ClassFunction", "CharacterTable", "inner_product", "restrict_character",
    "induce_character", "decompose",
    "dixon_character_table", "symmetric_character_table", "direct_product_table",
    "wreath_cyclic_table",
    "character_table", "table_to_obj", "table_from_obj",
]


class ClassFunction:
    """A function on a group constant on its conjugacy classes.

    ``values`` holds one exact cyclotomic per class, in the group's canonical
    class order.  When every value is a rational integer, a table row, its
    restrictions and its inductions also carry ``_ints``: the values as ints
    and a bound on their |values|, the table's N for a row and the exact
    largest |value| otherwise.  A rational c packs to c at every e and B
    (:func:`_pack`), so every sum reads those ints as they are.  Nothing else
    packed is kept on a class function.

    A class function made from ints (:meth:`_of_ints`: a restriction or
    integral induction of one that carries them) makes its values when they
    are first read: one Cyclotomic per distinct int, shared by the entries
    with that int, kept for every later read.  Its degree reads the ints, and
    so does :meth:`__eq__`, the one rule for row equality (equal groups, then
    ints when both sides carry them, the other side's values read as ints
    when one does, else values); so a function that is only summed,
    decomposed or compared makes no values.
    """

    __slots__ = ("group", "_values", "_ints")

    def __init__(self, group, values):
        self.group = group
        self._values = tuple(values)
        self._ints = None
        if len(self._values) != len(group.classes()):
            raise ValueError("need exactly one value per conjugacy class")

    @classmethod
    def _of_ints(cls, group, ints, bound):
        """The function with these values, one int per class, carried with
        ``bound`` on their |values|; its values are made when first read."""
        f = cls.__new__(cls)
        f.group = group
        f._values = None
        f._ints = ints, bound
        return f

    @property
    def values(self):
        if self._values is None:
            ints = self._ints[0]
            made = {c: Cyclotomic.from_rational(c) for c in set(ints)}
            self._values = tuple(map(made.__getitem__, ints))
        return self._values

    def degree(self):
        if self._ints is not None:
            return self._ints[0][0]
        d = self.values[0].as_integer()
        if d is None:
            raise ValueError("class function has a non-integral value at the identity")
        return d

    def __eq__(self, other):
        if not (isinstance(other, ClassFunction) and self.group == other.group):
            return False
        mine, theirs = self._ints, other._ints
        if mine is None and theirs is None:
            return self.values == other.values
        if mine is not None and theirs is not None:
            return mine[0] == theirs[0]
        # one side carries ints: the other's values are read as ints, so the
        # side that carries them makes no values
        ints, values = (mine[0], other.values) if theirs is None else (theirs[0], self.values)
        return all(map(eq, ints, map(Cyclotomic.as_integer, values)))

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


def _measure(f):
    """``(e, d, n)`` for a class function (:func:`_measure_values`).  Carried
    ints answer with e = d = 1 and their bound."""
    if f._ints is not None:
        return 1, 1, f._ints[1]
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
    """f packed at (e, B), with its conjugate: its carried ints, which are
    both at every e and B, else :func:`_pack`."""
    if f._ints is not None:
        return f._ints[0], f._ints[0]
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
    bits = _bits(group.order * n_f * n_h)
    a = map(mul, group.classes().sizes(), _packing(f, e, bits, d_f)[0])
    total = sum(map(mul, a, _packing(h, e, bits, d_h)[1]))
    return _from_packed(total, e, bits, group.order * d_f * d_h)


class CharacterTable:
    """The square table of all irreducible characters of a group.

    Validation packs the rows at e = lcm of the table's conductors, with B
    wide enough for a partner of 1-norm up to |G| * N (N the table's largest
    value 1-norm), and keeps ``_kernel = (e, B, N, conjugates)``: the packed
    conjugate of every row.  It is the only packing of the rows; a row whose
    values are all rational integers also carries them as its ints.
    """

    __slots__ = ("group", "classes", "irreducibles", "product_labels", "_factors",
                 "_kernel", "__weakref__")

    def __init__(self, group, irreducibles, product_labels=None):
        self.group = group
        self.classes = group.classes()
        self.irreducibles = tuple(irreducibles)
        self.product_labels = product_labels
        self._factors = ()
        self.validate()

    def degrees(self):
        return [chi.degree() for chi in self.irreducibles]

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
        conj = [b_all[i:i + s] for i in range(0, s * s, s)]
        sizes = self.classes.sizes()
        for i, chi in enumerate(rows):
            wa = list(map(mul, sizes, a_all[i * s:(i + 1) * s]))
            for j in range(i, s):
                total = sum(map(mul, wa, conj[j]))
                if _rational(total, e, bits) != (order if i == j else 0):
                    raise TableConsistencyError(
                        f"row orthogonality failed at characters {i}, {j}: "
                        f"{_from_packed(total, e, bits, 1)!r}/{order}")
            if e == 1 or all(v.conductor == 1 for v in chi.values):  # its own conjugate
                chi._ints = conj[i], norm
        self._kernel = e, bits, norm, conj

    def __eq__(self, other):
        """Same group and the same rows in order, each compared by
        :meth:`ClassFunction.__eq__`; equal groups have the same canonical
        classes."""
        return (isinstance(other, CharacterTable) and self.group == other.group
                and self.irreducibles == other.irreducibles)

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
    # A subspace is (basis, pivots, start): a basis that is the identity at the
    # pivot columns, those columns, and the component in it of e_0, the
    # identity class vector, from which _split_space reads off the eigenlines.
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
            # the subspace is invariant and b_l is 1 at pivots[l] and 0 at the
            # other pivots, so m b_l = sum_r act[r][l] b_r with
            # act[r][l] = m[pivots[r]] . b_l: the entry of m at
            # (pivots[r], pivots[l]) plus a dot product over the other columns,
            # of which the first, identity space has none
            pivot_set = set(pivots)
            others = [k for k in range(s) if k not in pivot_set]
            tails = [[b[k] for k in others] for b in basis]
            act = []
            for j in pivots:
                row = rows.get(j)
                if row is None:
                    row = rows[j] = _class_matrix_row(group, i, j)
                head = [row[k] for k in others]
                act.append([(row[col] + sum(map(mul, head, tail))) % p
                            for col, tail in zip(pivots, tails)])
            lam = act[0][0]
            if act == [[lam if r == t else 0 for t in range(dim)] for r in range(dim)]:
                # the class acts as the scalar lam: the subspace stays whole
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

    # the lift, its checks included, is a function of the degree and the
    # residues at the m power classes, so each distinct input is lifted once;
    # every entry of one value shares one object, looked up by the int itself
    # for a rational integer, so that a repeated int makes no new value
    lift, shared = {}, {}
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
            vals_t = tuple([u[c] for c in row])
            value = lift.get((deg, vals_t))
            if value is None:
                m = len(row)
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
                key = Cyclotomic._make(m, coeffs) if c is None else c
                value = shared.get(key)
                if value is None:
                    value = shared[key] = key if c is None else Cyclotomic.from_rational(c)
                lift[deg, vals_t] = value
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
    eigenspace carrying its own component of e_0.  That eigenspace's basis is
    its nullspace basis in ``act``'s coordinates, taken over the columns in
    reverse so that it is in rref there, mapped into the ambient space: it is
    the identity at its pivots, the parent's pivots at the vectors' first
    nonzero coordinates, which is all the action formula needs, so no second
    elimination is made.  As the first subspace is the identity, every basis
    is then in rref, so the pivots, and the class-matrix rows read at them,
    are the leftmost ones.

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
        # nullspace_mod's vectors are 1 at their free variables, their last
        # nonzero entries, and 0 at each other's: taken of act - lam I with
        # its columns reversed and read forwards, they are the rref
        n = len(act)
        flipped = [row[::-1] for row in act]
        for t, row in enumerate(flipped):
            row[n - 1 - t] = (row[n - 1 - t] - lam) % p
        null = [coords[::-1] for coords in reversed(modlin.nullspace_mod(flipped, p))]
        out.append(([[sum(map(mul, coords, col)) % p for col in basis_cols]
                     for coords in null],
                    [pivots[next(t for t, x in enumerate(coords) if x)] for coords in null],
                    image))
        split_total += len(null)
    if split_total != len(basis):
        raise InternalConsistencyError("class-matrix eigenspace splitting lost dimensions")
    return out


def _class_matrix_row(group, i, j):
    """Row j of the matrix of class sum i: entry k is #{x in C_i : x^-1 z_k in C_j}.

    Both this and |C_j| #{x in C_i : x z_j in C_k} / |C_k| count the x in C_i
    and y in C_j with x y in C_k, so one pass over C_i gives the whole row.
    z_j x is conjugate to x z_j (by z_j), so its class is the same: the row is
    the class labels of the left products z_j x, made on the element keys
    (:func:`subdepth.perm._left_product`) and counted by one chain of maps.
    """
    cs = group.classes()
    times, t = _left_product(cs.classes[j].rep.images)
    counts = Counter(map(cs.labels.__getitem__, map(group._index.__getitem__, map(
        times, map(group.raw_elements.__getitem__, cs.classes[i].members), repeat(t)))))
    size_j = cs.classes[j].size
    row = []
    for k, c in enumerate(cs.classes):
        a, rem = divmod(size_j * counts[k], c.size)
        if rem:
            raise InternalConsistencyError(
                f"class matrix {i} row {j}: {size_j * counts[k]} not divisible by {c.size}")
        row.append(a)
    return row


# ---------------------------------------------------------------------------
# Full symmetric groups (Murnaghan-Nakayama)
# ---------------------------------------------------------------------------

def _symmetric_points(group):
    """k when ``group`` is the full symmetric group on the k points its
    generators move, else None.  The group moves no other point, so it embeds
    in the symmetric group on those k points, and is all of it exactly when
    its order is k!; the factorial is built only while it stays within the
    order."""
    k = len({p for g in group.generators for p, q in enumerate(g.images) if p != q})
    size = 1
    for i in range(2, k + 1):
        size *= i
        if size > group.order:
            return None
    return k if size == group.order else None


def _partitions(n, largest):
    """The partitions of n into parts at most ``largest``, as descending tuples."""
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _rim_hook_value(beta, lengths, memo):
    """chi at the cycle type ``lengths`` for the beta-numbers ``beta`` (an
    int's set bits), by removing rim hooks of the first length; ``memo``
    holds the values found so far."""
    if not lengths:
        return 1
    total = memo.get((beta, lengths))
    if total is None:
        r, rest = lengths[0], lengths[1:]
        between = (1 << (r - 1)) - 1
        total = 0
        for b in range(r, beta.bit_length()):
            if beta >> b & 1 and not beta >> (b - r) & 1:
                sign = -1 if (beta >> (b - r + 1) & between).bit_count() & 1 else 1
                total += sign * _rim_hook_value(beta ^ (1 << b) ^ (1 << (b - r)), rest, memo)
        memo[beta, lengths] = total
    return total


def symmetric_character_table(group):
    """The canonical table of the full symmetric group on the k points its
    generators move, one row per partition of k by the Murnaghan-Nakayama
    rule (James and Kerber, The Representation Theory of the Symmetric Group,
    1981, ch. 2).

    A class's cycle type is its representative's cycle lengths, descending
    and padded with 1s up to k.  A partition lambda with l parts has the
    beta-numbers lambda_i + l - 1 - i, kept as the set bits of one int.  A
    rim hook of length r is a beta-number b >= r with b - r free, moved
    there, signed by the parity of the beta-numbers strictly between; chi at
    the type (r_1, r_2, ...) sums the signed values at (r_2, ...) over the
    hooks of length r_1 (:func:`_rim_hook_value`).  Those values are kept
    in a memo local to the call, which no closure holds, so it is freed
    with the call; each distinct int is one shared Cyclotomic, and the rows
    are sorted canonically and validated like any other table.

    Raises ``ValueError`` for any other group (see :func:`_symmetric_points`).
    """
    k = _symmetric_points(group)
    if k is None:
        raise ValueError("group is not the full symmetric group on the points it moves")
    types = []
    for c in group.classes().classes:
        lengths = sorted(map(len, c.rep.cycles()), reverse=True)
        types.append(tuple(lengths) + (1,) * (k - sum(lengths)))
    memo = {}
    rows = []
    for lam in _partitions(k, k):
        beta = sum(1 << (part + len(lam) - 1 - i) for i, part in enumerate(lam))
        rows.append([_rim_hook_value(beta, t, memo) for t in types])
    shared = {c: Cyclotomic.from_rational(c) for c in set().union(*rows)}
    characters = [tuple(map(shared.__getitem__, row)) for row in rows]
    order_idx = _canonical_character_sort(characters)
    return CharacterTable(group, [ClassFunction(group, characters[i]) for i in order_idx])


# ---------------------------------------------------------------------------
# Restriction, induction, decomposition
# ---------------------------------------------------------------------------

def restrict_character(chi, emb):
    """Restrict a class function on the ambient group along a subgroup embedding.

    Carried ints of ``chi`` are gathered through the fusion and carried on,
    and the restriction makes its values from them when they are first read
    (:meth:`ClassFunction._of_ints`); otherwise its values are gathered.
    """
    if chi.group is not emb.ambient:
        raise GroupMismatchError("class function does not live on the embedding's ambient group")
    if chi._ints is not None:
        ints = list(map(chi._ints[0].__getitem__, emb.fusion))
        return ClassFunction._of_ints(emb.sub, ints, max(map(abs, ints)))
    return ClassFunction(emb.sub, map(chi.values.__getitem__, emb.fusion))


def induce_character(psi, emb):
    """Induce a class function from the subgroup to the ambient group.

    Computed classwise through the fusion map:
    ``psi^G(g) = sum over fused H-classes c of psi(c) * |C_G(g)|/|C_H(c)|``,
    which is the zero-extension average ``(1/|H|) sum_x psi0(x g x^-1)``
    collapsed over classes.  The weights and their largest sum, which sets B,
    are the embedding's own, built once per embedding
    (:attr:`subdepth.perm.SubgroupEmbedding.induction_weights`), so every
    induction along it only reads them.  Each value is one weighted sum of
    psi's packed values (its carried ints, if any), with B from the weight sum
    and psi's norm.  When psi's values are rational with no denominator, the
    sums are the values: the induced function carries them as its ints and
    makes its values from them when they are first read
    (:meth:`ClassFunction._of_ints`).  Otherwise each distinct sum is
    normalised to a Cyclotomic once (:func:`_unpack_rows`).
    """
    if psi.group is not emb.sub:
        raise GroupMismatchError("class function does not live on the embedding's subgroup")
    buckets, weight_sum = emb.induction_weights
    e, d, n = _measure(psi)
    bits = _bits(weight_sum * n)
    packed = _packing(psi, e, bits, d)[0]
    totals = [sum(map(mul, w, map(packed.__getitem__, classes))) for w, classes in buckets]
    if e == d == 1:
        return ClassFunction._of_ints(emb.ambient, totals, max(map(abs, totals)))
    return ClassFunction(emb.ambient, _unpack_rows([totals], e, bits, d)[0])


def decompose(f, table):
    """Multiplicities of each irreducible in a character.

    f is packed once and the rows' conjugates read from the table's kernel,
    or repacked for this call only when f's conductor does not divide its e
    or f needs a larger B.  Raises :class:`NotACharacterError` when any inner
    product fails to be a nonnegative integer - exactness is the point,
    nothing is rounded.
    """
    group = f.group
    rows = table.irreducibles
    if rows[0].group is not group:
        raise GroupMismatchError("class functions live on different groups")
    e_f, d, n_f = _measure(f)
    e_t, bits_t, norm, conj = table._kernel
    e, bits = lcm(e_f, e_t), max(bits_t, _bits(group.order * n_f * norm))
    a = list(map(mul, group.classes().sizes(), _packing(f, e, bits, d)[0]))
    if (e, bits) != (e_t, bits_t):
        conj = [_packing(chi, e, bits)[1] for chi in rows]
    scale = group.order * d
    mults = []
    for b in conj:
        q = _rational(sum(map(mul, a, b)), e, bits)
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

    Each factor row is packed once at e = lcm of the factors' kernel e, with B
    from the product of their norms (:func:`_packing`).  A value of the product
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
            fidx = table.classes.class_of(comp.images)
            key.append(fidx)
            size_check *= table.classes.classes[fidx].size
        if size_check != c.size:
            raise InternalConsistencyError("product class sizes do not multiply up")
        pairing.append(tuple(key))

    e = lcm(*(t._kernel[0] for t in factor_tables))
    bits = _bits(prod(t._kernel[2] for t in factor_tables))
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
            comps = tuple(base_class_of(tuple(v - j * d for v in w[j * d:(j + 1) * d]))
                          for j in range(n))
            decoded.append((0, comps))
        else:
            # the block-0 window of w^n is the cycle product of the components
            cycle_prod = (c.rep ** n).images[:d]
            decoded.append((s, base_class_of(tuple(cycle_prod))))

    base_e, _, norm, _ = base_table._kernel
    e = lcm(base_e, n)
    bits = _bits(n * norm ** n)
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
    needs a table keeps it.  The route is chosen from the group alone:
    product groups get the outer-product construction (recursively), the full
    symmetric group on the points its generators move gets its table from
    partitions (:func:`symmetric_character_table`), and anything else goes
    through the Dixon engine.  Every route produces the same canonical table.
    """
    table = group._char_table and group._char_table()
    if table is not None:
        return table
    if group.product_structure is not None:
        factor_tables = [character_table(fg) for _, fg in group.product_structure]
        table = direct_product_table(factor_tables, group)
    elif _symmetric_points(group) is not None:
        table = symmetric_character_table(group)
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
    the values must pass :meth:`CharacterTable.validate` with the rows in
    canonical order, so a tampered file is rejected.

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
    table = CharacterTable(group, irils)
    # canonical rows ascend by their values' sort keys, the first of which
    # orders the degrees as ints; validated rows are distinct and equal values
    # share one object, so each adjacent pair is decided where they first differ
    for a, b in zip(irils, irils[1:]):
        x, y = next((x, y) for x, y in zip(a.values, b.values) if x is not y)
        if x.sort_key() > y.sort_key():
            raise TableConsistencyError("irreducibles are not in canonical order")
    return table
