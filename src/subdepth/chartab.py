"""Exact irreducible character tables and class-function operations.

Tables are computed by the modular (Dixon) method: simultaneous eigenvectors
of class-multiplication matrices over a prime field F_p with p == 1 mod the
group exponent and p^2 > 4|G|, lifted to exact cyclotomic values by Fourier
inversion over the roots of unity of F_p.  Everything is verified against
exact row/column orthogonality before a table is returned.

Canonical orders make every downstream matrix reproducible: classes ascend by
size (ties by lexicographically smallest member), irreducibles ascend by
degree (ties by the value sequence under a fixed total order on cyclotomics).

For product groups the table of the direct product is the outer product of
the factor tables, and for wreath products by a cyclic group of prime order a
Clifford-theoretic construction provides an independent oracle against the
Dixon engine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import lcm

from . import modlin
from .cyclo import Cyclotomic, zeta
from .errors import (CycleParseError, GroupMismatchError, InternalConsistencyError,
                     NotACharacterError, SubdepthError, TableConsistencyError)
from .perm import Permutation

__all__ = [
    "ClassFunction", "CharacterTable", "inner_product", "restrict_character",
    "induce_character", "induce_character_bruteforce", "decompose",
    "dixon_character_table", "direct_product_table", "wreath_cyclic_table",
    "character_table", "table_to_obj", "table_from_obj",
]


class ClassFunction:
    """A function on a group constant on its conjugacy classes.

    ``values`` holds one exact cyclotomic per class, in the group's canonical
    class order.
    """

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        self.group = group
        self.values = tuple(values)
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


def _lift(values, e):
    """Each value as ``(k, c)`` terms of ``c * zeta_e^k`` (``e`` a multiple of
    every conductor); integral coefficients become ints, so a Fraction marks a
    value that is not an algebraic integer."""
    return [[(k * (e // v.conductor), c.numerator if c.denominator == 1 else c)
             for k, c in v.coeffs.items()] for v in values]


def _hermitian_sum(weights, a, b, e):
    """The exact sum of ``w * a * conj(b)`` over lifted values at zeta_e."""
    acc = {}
    for w, ta, tb in zip(weights, a, b):
        if ta and tb:
            for ka, ca in ta:
                wca = w * ca
                for kb, cb in tb:
                    k = (ka - kb) % e
                    acc[k] = acc.get(k, 0) + wca * cb
    return Cyclotomic._make(e, acc)


def _scalar_products(f, functions):
    """The exact scalar products <f, h> for each h in ``functions``, lifting
    every function once at e = lcm of all the conductors in play."""
    group = f.group
    if any(h.group is not group for h in functions):
        raise GroupMismatchError("class functions live on different groups")
    e = lcm(*(v.conductor for h in (f, *functions) for v in h.values))
    sizes = group.classes().sizes()
    a = _lift(f.values, e)
    scale = Fraction(1, group.order)
    return [_hermitian_sum(sizes, a, _lift(h.values, e), e) * scale for h in functions]


def inner_product(f, h):
    """The exact scalar product (1/|G|) * sum over classes of size*f*conj(h)."""
    return _scalar_products(f, [h])[0]


class CharacterTable:
    """The square table of all irreducible characters of a group."""

    __slots__ = ("group", "classes", "irreducibles", "product_labels")

    def __init__(self, group, irreducibles, product_labels=None):
        self.group = group
        self.classes = group.classes()
        self.irreducibles = tuple(irreducibles)
        self.product_labels = product_labels
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
        """Exact checks (values in Z[zeta_d], degrees, orthogonality); raises on failure."""
        s = len(self.classes)
        if len(self.irreducibles) != s:
            raise TableConsistencyError(
                f"table is not square: {len(self.irreducibles)} characters, {s} classes")
        e = lcm(*(v.conductor for chi in self.irreducibles for v in chi.values))
        rows = [_lift(chi.values, e) for chi in self.irreducibles]
        if any(isinstance(c, Fraction) for row in rows for terms in row for _, c in terms):
            raise TableConsistencyError("a character value is not an algebraic integer")
        degrees = [chi.values[0].as_integer() for chi in self.irreducibles]
        if any(d is None or d < 1 for d in degrees):
            raise TableConsistencyError("a character degree is not a positive integer")
        order = self.group.order
        if sum(d * d for d in degrees) != order:
            raise TableConsistencyError("degree squares do not sum to the group order")
        sizes = self.classes.sizes()
        for i in range(s):
            for j in range(i, s):
                got = _hermitian_sum(sizes, rows[i], rows[j], e)
                if got.as_integer() != (order if i == j else 0):
                    raise TableConsistencyError(
                        f"row orthogonality failed at characters {i}, {j}: {got!r}/{order}")
        cols = list(zip(*rows))
        ones = [1] * s
        for k in range(s):
            for l in range(k, s):
                got = _hermitian_sum(ones, cols[k], cols[l], e)
                if got.as_integer() != (order // sizes[k] if k == l else 0):
                    raise TableConsistencyError(
                        f"column orthogonality failed at classes {k}, {l}: {got!r}")

    def __eq__(self, other):
        return (isinstance(other, CharacterTable)
                and self.group == other.group
                and [c.rep for c in self.classes.classes] == [c.rep for c in other.classes.classes]
                and [chi.values for chi in self.irreducibles]
                == [chi.values for chi in other.irreducibles])

    def __repr__(self):
        return (f"CharacterTable(order={self.group.order}, "
                f"classes={len(self.classes)}, degrees={self.degrees()})")


def _canonical_character_sort(values_list):
    """Sort value tuples by (degree, value sequence under the fixed total order)."""
    def key(values):
        return (values[0].as_integer(), tuple(v.sort_key() for v in values))
    return sorted(range(len(values_list)), key=lambda i: key(values_list[i]))


# ---------------------------------------------------------------------------
# Dixon's modular method
# ---------------------------------------------------------------------------

def dixon_character_table(group, prime=None):
    """The exact character table via class-matrix eigenvectors over F_p.

    The prime defaults to the smallest p == 1 (mod exponent) with
    p > 2*sqrt(|G|); an explicit override must satisfy the same bounds.
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

    reps_raw = [c.rep.images for c in cs.classes]
    sizes = cs.sizes()
    class_of = cs.class_of
    degree = group.degree
    raw = group.raw_elements

    def class_matrix(i):
        # a[j][k] = #{x in C_i : x^-1 * rep_k in C_j}
        m = [[0] * s for _ in range(s)]
        for idx in cs.classes[i].members:
            x = raw[idx]
            xinv = [0] * degree
            for t in range(degree):
                xinv[x[t]] = t
            get = xinv.__getitem__
            for k, zk in enumerate(reps_raw):
                m[class_of[tuple(map(get, zk))]][k] += 1
        return m

    # Split F_p^s into the common eigenspaces of the class matrices, taking the
    # matrices in canonical class order until every subspace is a line.
    spaces = [(_identity_rref(s), list(range(s)))]
    for i in range(1, s):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        m = class_matrix(i)
        next_spaces = []
        for basis, pivots in spaces:
            dim = len(basis)
            if dim == 1:
                next_spaces.append((basis, pivots))
                continue
            imgs = [modlin.matvec_mod(m, b, p) for b in basis]
            # invariance of the subspace lets coordinates be read at pivot columns
            act = [[imgs[l][pivots[r]] % p for l in range(dim)] for r in range(dim)]
            cp = modlin.charpoly_mod(act, p)
            split_total = 0
            for lam in modlin.roots_mod(cp, p):
                shifted = [row[:] for row in act]
                for t in range(dim):
                    shifted[t][t] = (shifted[t][t] - lam) % p
                coord_basis = modlin.nullspace_mod(shifted, p)
                if not coord_basis:
                    continue
                ambient = []
                for coords in coord_basis:
                    vec = [0] * s
                    for l, cl in enumerate(coords):
                        if cl:
                            bl = basis[l]
                            for t in range(s):
                                vec[t] = (vec[t] + cl * bl[t]) % p
                    ambient.append(vec)
                red, piv = modlin.rref_mod(ambient, p)
                split_total += len(red)
                next_spaces.append((red, piv))
            if split_total != dim:
                raise InternalConsistencyError(
                    "class-matrix eigenspace splitting lost dimensions")
        spaces = next_spaces
    if not all(len(basis) == 1 for basis, _ in spaces):
        raise InternalConsistencyError("class matrices failed to separate all characters")

    inv_class = [class_of[cs.classes[k].rep.inverse().images] for k in range(s)]
    size_inv = [pow(sz, -1, p) for sz in sizes]
    g0 = modlin.primitive_root(p)
    z_e = pow(g0, (p - 1) // e, p)
    rep_orders = [cs.classes[k].rep.order() for k in range(s)]
    power_class = []
    for k in range(s):
        zk = cs.classes[k].rep
        acc = Permutation.identity(degree)
        row = []
        for _ in range(rep_orders[k]):
            row.append(class_of[acc.images])
            acc = acc * zk
        power_class.append(row)

    characters = []
    for basis, _ in spaces:
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
        deg = modlin.sqrt_mod(order * pow(ssum, -1, p) % p, p)
        if not deg or order % deg:
            raise InternalConsistencyError("character degree recovery failed")
        u = [deg * v[k] * size_inv[k] % p for k in range(s)]
        values = []
        for k in range(s):
            m = rep_orders[k]
            if m == 1:
                values.append(Cyclotomic.from_rational(deg))
                continue
            z_m = pow(z_e, e // m, p)
            zm_inv = pow(z_m, -1, p)
            m_inv = pow(m, -1, p)
            vals_t = [u[power_class[k][t]] for t in range(m)]
            coeffs = {}
            for l in range(m):
                w = pow(zm_inv, l, p)
                acc = 0
                wt = 1
                for t in range(m):
                    acc = (acc + vals_t[t] * wt) % p
                    wt = wt * w % p
                c_l = acc * m_inv % p
                if c_l:
                    if c_l > deg:
                        raise InternalConsistencyError(
                            "eigenvalue multiplicity exceeded the character degree")
                    coeffs[l] = c_l
            if sum(coeffs.values()) != deg:
                raise InternalConsistencyError(
                    "eigenvalue multiplicities do not sum to the character degree")
            values.append(Cyclotomic._make(m, coeffs))
        characters.append(tuple(values))

    order_idx = _canonical_character_sort(characters)
    irr = [ClassFunction(group, characters[i]) for i in order_idx]
    return CharacterTable(group, irr)


def _identity_rref(s):
    return [[1 if i == j else 0 for j in range(s)] for i in range(s)]


# ---------------------------------------------------------------------------
# Restriction, induction, decomposition
# ---------------------------------------------------------------------------

def restrict_character(chi, emb):
    """Restrict a class function on the ambient group along a subgroup embedding."""
    if chi.group is not emb.ambient:
        raise GroupMismatchError("class function does not live on the embedding's ambient group")
    return ClassFunction(emb.sub, [chi.values[a] for a in emb.fusion])


def induce_character(psi, emb):
    """Induce a class function from the subgroup to the ambient group.

    Computed classwise through the fusion map:
    ``psi^G(g) = sum over fused H-classes c of psi(c) * |C_G(g)|/|C_H(c)|``,
    which is the zero-extension average ``(1/|H|) sum_x psi0(x g x^-1)``
    collapsed over classes.  The weights are integers because C_H(c) is a
    subgroup of C_G(c), and psi is lifted once for all the sums.
    """
    if psi.group is not emb.sub:
        raise GroupMismatchError("class function does not live on the embedding's subgroup")
    g_cent = [emb.ambient.order // n for n in emb.ambient.classes().sizes()]
    h_cent = [emb.sub.order // n for n in emb.sub.classes().sizes()]
    e = lcm(*(v.conductor for v in psi.values))
    lifted = _lift(psi.values, e)
    buckets = [([], []) for _ in g_cent]
    for c, target in enumerate(emb.fusion):
        weights, terms = buckets[target]
        weights.append(g_cent[target] // h_cent[c])
        terms.append(lifted[c])
    one = [(0, 1)]  # the lifted 1, so each Hermitian sum is a plain weighted sum
    return ClassFunction(emb.ambient, [_hermitian_sum(w, t, [one] * len(t), e)
                                       for w, t in buckets])


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

    Raises :class:`NotACharacterError` when any inner product fails to be a
    nonnegative integer - exactness is the point, nothing is rounded.
    """
    mults = []
    for q in _scalar_products(f, table.irreducibles):
        q = q.as_rational()
        if q is None or q.denominator != 1 or q < 0:
            raise NotACharacterError(
                f"multiplicity {q!r} of a supposed character is not a nonnegative integer")
        mults.append(q.numerator)
    return tuple(mults)


# ---------------------------------------------------------------------------
# Direct products and cyclic wreath products
# ---------------------------------------------------------------------------

def direct_product_table(factor_tables, group):
    """Outer-product table of a direct product group.

    ``group`` must carry the block structure recorded by
    :func:`subdepth.constructions.direct_product`; its classes are matched to
    tuples of factor classes by windowed decomposition of the representatives.
    The resulting table records ``product_labels``: a map from factor
    irreducible index tuples to the row index in canonical order.
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

    index_tuples = list(iter_product(*[range(len(t.irreducibles)) for _, _, t in factors]))
    all_values = []
    for idx in index_tuples:
        vals = []
        for key in pairing:
            v = factors[0][2].irreducibles[idx[0]].values[key[0]]
            for f in range(1, len(factors)):
                v = v * factors[f][2].irreducibles[idx[f]].values[key[f]]
            vals.append(v)
        all_values.append(tuple(vals))
    order_idx = _canonical_character_sort(all_values)
    labels = {index_tuples[i]: pos for pos, i in enumerate(order_idx)}
    irr = [ClassFunction(group, all_values[i]) for i in order_idx]
    return CharacterTable(group, irr, product_labels=labels)


def wreath_cyclic_table(base_table, wreath_group, shift, copies):
    """Clifford-theoretic table of (base) wr C_n for prime n.

    Independent of the Dixon engine: irreducibles are built as inductions of
    shift-orbit representatives of outer products plus the twisted extensions
    of the diagonal outer products, so this serves as a structural oracle.

    Raises ``ValueError`` for composite ``copies`` (callers fall back to the
    Dixon engine there).
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

    t_count = len(base_table.irreducibles)
    vals = [irr.values for irr in base_table.irreducibles]
    all_values = []
    for tup in iter_product(range(t_count), repeat=n):
        rotations = {tuple(tup[(j + r) % n] for j in range(n)) for r in range(n)}
        if tup != min(rotations):
            continue
        if len(rotations) == 1:
            # diagonal tuple: n extensions twisted by the cyclic quotient characters
            i = tup[0]
            for c_twist in range(n):
                values = []
                for s, data in decoded:
                    if s == 0:
                        v = vals[i][data[0]]
                        for comp in data[1:]:
                            v = v * vals[i][comp]
                    else:
                        v = zeta(n, c_twist * s) * vals[i][data]
                    values.append(v)
                all_values.append(tuple(values))
        else:
            # free orbit: the induced character, supported on the base
            values = []
            for s, data in decoded:
                if s != 0:
                    values.append(Cyclotomic.from_rational(0))
                    continue
                acc = Cyclotomic.from_rational(0)
                for r in range(n):
                    v = vals[tup[r % n]][data[0]]
                    for j in range(1, n):
                        v = v * vals[tup[(j + r) % n]][data[j]]
                    acc = acc + v
                values.append(acc)
            all_values.append(tuple(values))

    order_idx = _canonical_character_sort(all_values)
    irr = [ClassFunction(wreath_group, all_values[i]) for i in order_idx]
    return CharacterTable(wreath_group, irr)


def character_table(group):
    """The canonical table of a group, cached on the instance.

    Product groups get the outer-product construction (recursively); anything
    else goes through the Dixon engine.  Either route produces the same
    canonical table.
    """
    if group._char_table is not None:
        return group._char_table
    if group.product_structure is not None:
        factor_tables = [character_table(fg) for _, fg in group.product_structure]
        table = direct_product_table(factor_tables, group)
    else:
        table = dixon_character_table(group)
    group._char_table = table
    return table


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def table_to_obj(table):
    classes = table.classes
    order = table.group.order
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
        "irreducibles": [[v.to_obj() for v in chi.values] for chi in table.irreducibles],
    }


def table_from_obj(obj, group):
    """Rebuild a table from its JSON form, revalidating it against ``group``.

    A structure other than what :func:`table_to_obj` writes raises
    :class:`TableConsistencyError`, and a header or class list that differs
    from ``group``'s raises :class:`GroupMismatchError`.  Every value must have
    the shape :meth:`Cyclotomic.to_obj` writes with a conductor dividing the
    group exponent (checked before any value is normalised), and the values
    must pass :meth:`CharacterTable.validate`, so a tampered file is rejected.
    """
    from .perm import parse_cycle_notation

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
    exponent = group.exponent()

    def value(v):
        e = v.get("conductor") if isinstance(v, dict) else 1
        try:
            if type(e) is not int or e < 1 or exponent % e:
                raise ValueError(f"conductor {e!r} does not divide the exponent {exponent}")
            return Cyclotomic.from_obj(v)
        except ValueError as exc:
            raise TableConsistencyError(f"bad table value: {exc}") from None

    irils = [ClassFunction(group, [value(v) for v in row]) for row in obj["irreducibles"]]
    return CharacterTable(group, irils)
