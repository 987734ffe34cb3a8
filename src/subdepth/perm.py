"""Permutations and fully enumerated finite permutation groups.

Composition convention: ``(a * b)(x) = a(b(x))`` (apply b first).  Under this
convention ``a.conjugated_by(s) == s * a * s.inverse()`` relabels the moved
points of ``a`` along ``s``; conjugating a group acting on one block of points
by a block shift therefore yields the copy acting on the shifted block.

Every group is enumerated by one breadth-first closure over left
multiplication by its generator list (:meth:`PermGroup.generated`), which makes
the element order a deterministic function of the generator list; explicit
element sets and direct products are closures of generators picked from them.
Everything downstream - conjugacy classes, cores, character tables - relies on
that determinism for bit-for-bit reproducible output.

A group stores each element as a key (:func:`_key`): the ``bytes`` of its image
tuple on at most 256 points, the image tuple itself above.  A bytes key caches
its hash, is a third of a tuple's size and is not tracked by the cyclic garbage
collector; the left product s∘x of a bytes key is ``x.translate`` through one
256-byte table of s, and of a tuple key ``itemgetter(*x)(s)``
(:func:`_left_product`).  Every lookup that takes an image tuple turns it into
a key first, so :class:`Permutation` keeps its image tuple.

Conjugacy classes and cores work on element indices (positions in that list):
each group derives, once, the conjugation action of its generators as one index
list per generator from the left multiplications its search recorded, without
hashing keys.  Those records are plain lists whose entries are the index dict's
own int objects, so no read or write of an entry makes a new int.
Classes are orbits under the action, stored as one class label per element
index, and :meth:`ClassSet.class_of` finds the class of an image tuple through
the group's own index dict, building no second one; the conjugates of a
subgroup are Python-int bitsets over the ambient indices, so their
intersections are ``&`` operations.  Every group is the closure of its
generators, so one group contains another when it holds the other's generators.
The conjugate search uses that too: each conjugate keeps the indices of its
generators, and a step's image is recognised as a conjugate already found when
that conjugate holds the mapped generators, so only a new conjugate has all its
elements mapped.  Every found conjugate is tested at once: the search keeps
their bitsets as bytes and reads, per mapped generator, one byte of each as a
single int.  Only the subgroup's own index list is kept past its step, to read
the core off in one pass over its binary digits.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from math import lcm
from operator import and_, itemgetter

from .errors import (CycleParseError, EnumerationCapExceeded, InternalConsistencyError,
                     NotASubgroupError)

DEFAULT_CAP = 10**6

__all__ = [
    "DEFAULT_CAP", "Permutation", "PermGroup", "ClassSet", "ConjugacyClass",
    "SubgroupEmbedding", "parse_cycle_notation", "parse_generators", "largest_point",
    "is_normal", "subgroup_core", "min_core_conjugates", "class_fusion",
]


class Permutation:
    """A permutation of {0, ..., degree-1}, stored as its image tuple.

    The text interface (cycle notation) is 1-based; internally points are
    0-based.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images do not form a bijection on {0..degree-1}")
        self.images = images

    @staticmethod
    def identity(degree):
        return Permutation(range(degree))

    @property
    def degree(self):
        return len(self.images)

    @property
    def is_identity(self):
        return all(i == v for i, v in enumerate(self.images))

    def __mul__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot compose permutations of different degree")
        img = self.images
        return Permutation(map(img.__getitem__, other.images))

    def inverse(self):
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(inv)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugated_by(self, s):
        """``s * self * s^-1``: the same cycles with points relabelled along s."""
        return s * self * s.inverse()

    def order(self):
        n = 1
        for c in self.cycles():
            n = lcm(n, len(c))
        return n

    def cycles(self):
        """Disjoint cycles (0-based points), nontrivial ones only."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            p = start
            while not seen[p]:
                seen[p] = True
                cyc.append(p)
                p = self.images[p]
            out.append(tuple(cyc))
        return out

    def cycle_string(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycs)

    def shifted(self, offset, new_degree):
        """Embed into degree ``new_degree`` acting on the window starting at offset."""
        if offset + self.degree > new_degree:
            raise ValueError("window does not fit inside the new degree")
        img = list(range(new_degree))
        for i, v in enumerate(self.images):
            img[offset + i] = offset + v
        return Permutation(img)

    def window(self, offset, size):
        """The restriction to {offset, ..., offset+size-1} as a degree-``size`` permutation."""
        img = [self.images[offset + i] - offset for i in range(size)]
        if any(v < 0 or v >= size for v in img):
            raise ValueError("permutation does not preserve the requested window")
        return Permutation(img)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation[{self.cycle_string()} deg {self.degree}]"


def parse_cycle_notation(text, degree):
    """Parse a single permutation in 1-based disjoint-cycle notation.

    ``"()"`` (or only whitespace) denotes the identity.  Raises
    :class:`CycleParseError` for malformed text, repeated points, or points
    outside 1..degree.
    """
    s = text.replace(" ", "")
    images = list(range(degree))
    seen = set()
    i = 0
    any_cycle = False
    while i < len(s):
        if s[i] != "(":
            raise CycleParseError(f"expected '(' at position {i} in {text!r}")
        j = s.find(")", i + 1)
        if j < 0:
            raise CycleParseError(f"unbalanced parenthesis in {text!r}")
        body = s[i + 1:j]
        i = j + 1
        any_cycle = True
        if body == "":
            continue  # "()" is the identity cycle
        points = []
        for tok in body.split(","):
            if not (tok.isascii() and tok.isdigit()):
                raise CycleParseError(f"bad point {tok!r} in {text!r}")
            p = int(tok)
            if p < 1 or p > degree:
                raise CycleParseError(f"point {p} outside 1..{degree} in {text!r}")
            if p - 1 in seen:
                raise CycleParseError(f"repeated point {p} in {text!r}")
            seen.add(p - 1)
            points.append(p - 1)
        if len(points) < 2:
            raise CycleParseError(f"cycle {body!r} has fewer than two points")
        for a, b in zip(points, points[1:]):
            images[a] = b
        images[points[-1]] = points[0]
    if not any_cycle:
        raise CycleParseError(f"no cycles found in {text!r}")
    return Permutation(images)


def largest_point(text):
    """The largest point a generator list names, 0 when it names none."""
    for sep in "(),;":
        text = text.replace(sep, " ")
    return max((int(tok) for tok in text.split() if tok.isascii() and tok.isdigit()),
               default=0)


def parse_generators(text, degree=None):
    """Parse a ';'-separated generator list; infers the degree when not given."""
    chunks = [c for c in (p.strip() for p in text.split(";")) if c]
    if not chunks:
        raise CycleParseError("empty generator list")
    if degree is None:
        degree = largest_point(text)
        if degree == 0:
            raise CycleParseError("cannot infer degree from identity-only generators; "
                                  "pass the degree explicitly")
    return [parse_cycle_notation(chunk, degree) for chunk in chunks]


def _key(images):
    """An element's key in its group's index dict: the ``bytes`` of its image
    tuple on at most 256 points, the tuple itself above."""
    return bytes(images) if len(images) <= 256 else tuple(images)


def _left_product(images):
    """``(times, t)`` with ``times(x, t)`` the key of s∘x for the key x of any
    element x, where s has these images: ``x.translate(t)`` with t the 256-byte
    table of s on bytes keys, ``itemgetter(*x)(s)`` on tuple keys."""
    if len(images) <= 256:
        return bytes.translate, bytes(images) + bytes(range(len(images), 256))
    return _tuple_left_product, tuple(images)


def _tuple_left_product(x, s):
    return itemgetter(*x)(s)


class ConjugacyClass:
    __slots__ = ("rep", "size", "members")

    def __init__(self, rep, size, members):
        self.rep = rep            # lexicographically smallest member
        self.size = size
        self.members = members    # indices into the group's raw element list


class ClassSet:
    """Conjugacy classes in canonical order: ascending size, ties broken by
    the lexicographically smallest member.  The identity class is always first.

    :meth:`class_of` is the one lookup from an image tuple to its class: the
    group's own index dict gives the element index, and ``labels`` its class.
    """

    def __init__(self, classes, labels, index):
        self.classes = classes
        self.labels = labels      # element index -> class index
        self._index = index       # the group's own dict: element key -> element index

    def class_of(self, images):
        """The class index of an image tuple; KeyError for one outside the group."""
        return self.labels[self._index[_key(images)]]

    def __len__(self):
        return len(self.classes)

    def sizes(self):
        return [c.size for c in self.classes]

    @cached_property
    def powers(self):
        """Per class with representative z of order m, the classes of z^0, ...,
        z^(m-1), walked on element keys by left multiplication, z^(k+1) = z∘z^k
        (:func:`_left_product`); ``row[-1]`` is the class of z^-1."""
        labels, index = self.labels, self._index
        identity, out = _key(self.classes[0].rep.images), []
        for c in self.classes:
            times, t = _left_product(c.rep.images)
            acc = _key(c.rep.images)
            row = [0]
            while acc != identity:
                row.append(labels[index[acc]])
                acc = times(acc, t)
            out.append(tuple(row))
        return tuple(out)


class PermGroup:
    """A finite permutation group with its full element list.

    Every instance is built by :meth:`generated` (breadth-first closure of a
    generator list, capped); :meth:`from_elements` and :meth:`trivial` call it.
    Instances are immutable; conjugacy data and character tables are cached on
    the instance.
    """

    def __init__(self, degree, raw_elements, generators, _trusted=False):
        if not _trusted:
            raise TypeError("use PermGroup.generated / PermGroup.from_elements")
        self.degree = degree
        self._raw = raw_elements                  # list of element keys (see _key)
        self._index = {x: i for i, x in enumerate(raw_elements)}
        self.generators = tuple(generators)
        self._classes = None
        self._action = None
        self._left = None                         # set by generated(); see _conjugation_action
        self._char_table = None
        self._wreaths = {}                        # copies -> weakref of self wr C_copies
        self.product_structure = None             # set by direct products

    # -- construction ---------------------------------------------------------

    @classmethod
    def generated(cls, generators, cap=DEFAULT_CAP):
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator (use trivial() instead)")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share a degree")
        # the search fills the group's own element list and index dict, so no
        # second dict is built over the finished list
        group = cls(degree, [_key(range(degree))], gens, _trusted=True)
        raw, index = group._raw, group._index
        # left[j][i] is the index of gens[j]∘x_i, recorded as the search runs
        # in a list of the index dict's own ints, so no entry is boxed anew
        left = [[] for _ in gens]
        tables = [_left_product(g.images) for g in gens]
        times = tables[0][0]
        steps = [(t, r.append) for (_, t), r in zip(tables, left)]
        lookup = index.get
        size = 1
        for x in raw:                    # raw grows while it is walked
            for t, record in steps:
                y = times(x, t)
                i = lookup(y)
                if i is None:
                    if size >= cap:
                        raise EnumerationCapExceeded(cap, size)
                    i = index[y] = size
                    size += 1
                    raw.append(y)
                record(i)
        group._left = left
        return group

    @classmethod
    def from_elements(cls, degree, elements):
        """Build a group from an explicit element collection, checked to be closed.

        Generators are picked greedily from the lexicographically sorted set,
        so they do not depend on the caller's iteration order: each element
        outside the closure so far joins them, and the group is the closure of
        the last list.  A closure that outgrows the set proves it is not
        closed (ValueError), so no closure larger than the set is enumerated.
        """
        raw = sorted({_key(e.images if isinstance(e, Permutation) else e)
                      for e in elements})
        if not raw or raw[0] != _key(range(degree)):
            raise ValueError("element set must contain the identity")
        group = cls.trivial(degree)
        gens = []
        for x in raw:
            if x not in group:
                gens.append(Permutation(x))
                try:
                    group = cls.generated(gens, cap=len(raw))
                except EnumerationCapExceeded:
                    raise ValueError("element set is not closed under composition") from None
        # every element is in the closure, which is no larger than the set
        return group

    @classmethod
    def trivial(cls, degree):
        return cls.generated([Permutation.identity(degree)])

    # -- basic protocol ---------------------------------------------------------

    @property
    def order(self):
        return len(self._raw)

    def __contains__(self, perm):
        return _key(perm.images if isinstance(perm, Permutation) else perm) in self._index

    @property
    def raw_elements(self):
        """The elements in enumeration order, as keys (:func:`_key`): ``bytes``
        on at most 256 points, image tuples above."""
        return self._raw

    def __eq__(self, other):
        """Same degree and elements: groups of one order are equal when one
        contains the other, which its index dict answers on the other's
        generators (degrees included)."""
        return other is self or (isinstance(other, PermGroup) and self.order == other.order
                                 and self.contains_group(other))

    def __hash__(self):
        return hash((self.degree, self.order))

    def __repr__(self):
        gens = ", ".join(g.cycle_string() for g in self.generators[:4])
        if len(self.generators) > 4:
            gens += ", ..."
        return f"PermGroup(degree={self.degree}, order={self.order}, gens=[{gens}])"

    def contains_group(self, sub):
        """Whether ``sub`` is a subgroup of this group, decided on its generators.

        Every group is the closure of its own generators (each constructor
        goes through :meth:`generated`), and a group holding those generators
        holds their closure, so generators inside prove the whole group inside.
        """
        return (sub.degree == self.degree
                and all(_key(g.images) in self._index for g in sub.generators))

    # -- conjugacy ---------------------------------------------------------------

    def classes(self):
        if self._classes is None:
            self._classes = _conjugacy_classes(self)
        return self._classes

    def _conjugation(self):
        """Per generator g, the list whose entry i is the index of g·x_i·g⁻¹."""
        if self._action is None:
            self._action = _conjugation_action(self)
        return self._action

    def exponent(self):
        return lcm(*map(len, self.classes().powers))


def _conjugation_action(group):
    """g·x·g⁻¹ for each generator g, on element indices, without hashing.

    With L_s (x ↦ s∘x) recorded by the breadth-first search of
    :meth:`PermGroup.generated` and P_g the right multiplication x ↦ x∘g⁻¹,
    the action is g·x·g⁻¹ = L_g[P_g[x]].  P_g follows the search tree: the
    root maps to g⁻¹, and a child s∘x of x to s∘(x∘g⁻¹), so
    P_g[child] = L_s[P_g[x]]; the search found a child exactly where L_s[x] is
    the next unused index.  The recorded lists are dropped once used.  Every
    entry of L, P and the action is the index dict's own int object, so walking
    them makes no new int and lists built from them share those objects.
    """
    left = group._left
    group._left = None
    index = group._index
    n = len(group._raw)
    rights = []
    for g in group.generators:
        right = [0] * n
        right[0] = index[_key(g.inverse().images)]
        rights.append(right)
    new = 1
    for x in range(n):
        for ls in left:
            child = ls[x]
            if child == new:
                for right in rights:
                    right[child] = ls[right[x]]
                new += 1
    action = []
    for k, right in enumerate(rights):
        action.append(list(map(left[k].__getitem__, right)))
        left[k] = rights[k] = None    # each generator's lists go once used
    return action


def _conjugacy_classes(group):
    """Classes as orbits of element indices under the conjugation action.

    The walk writes each element's discovery label (its orbit's position in
    discovery order) into one list, each orbit's growing member list serving
    as its queue; after the canonical sort one ``map`` over the small list
    ``remap`` turns those labels into canonical class indices.
    """
    raw = group._raw
    action = group._conjugation()
    labels = [None] * len(raw)
    found = []
    for i0 in range(len(raw)):
        if labels[i0] is not None:
            continue
        label = len(found)
        labels[i0] = label
        members = [i0]
        for i in members:                # members grows while it is walked
            for act in action:
                j = act[i]
                if labels[j] is None:
                    labels[j] = label
                    members.append(j)
        found.append((len(members), min(map(raw.__getitem__, members)), tuple(members)))
    order = sorted(range(len(found)), key=lambda k: found[k][:2])
    remap = [0] * len(found)
    classes = []
    for idx, k in enumerate(order):
        remap[k] = idx
        size, min_member, members = found[k]
        classes.append(ConjugacyClass(Permutation(min_member), size, members))
    if not classes[0].rep.is_identity:
        raise InternalConsistencyError("canonical class order lost the identity class")
    return ClassSet(tuple(classes), list(map(remap.__getitem__, labels)), group._index)


def _require_subgroup(ambient, sub):
    if sub.degree != ambient.degree:
        raise NotASubgroupError("the second group is not a subgroup of the first: it acts "
                                f"on {sub.degree} points, the first on {ambient.degree}")
    if not ambient.contains_group(sub):
        raise NotASubgroupError("the second group is not a subgroup of the first")


def is_normal(ambient, sub):
    """Whether ``sub`` is normal in ``ambient`` (checked on generators only)."""
    _require_subgroup(ambient, sub)
    sub_index = sub._index
    for g in ambient.generators:
        gi = g.images
        ginv = g.inverse().images
        for s in sub.generators:
            si = s.images
            # g s g^-1
            conj = tuple(map(gi.__getitem__, map(si.__getitem__, ginv)))
            if _key(conj) not in sub_index:
                return False
    return True


def _bitset(indices):
    """The Python int with exactly the given bits set: an ASCII 1 per index in
    a string of binary digits, read most significant first."""
    digits = bytearray(b"0") * (max(indices) + 1)
    for i in indices:
        digits[i] = 49  # ord("1")
    return int(digits[::-1], 2)


def _set_bits(bits, indices):
    """The indices whose bit is set in ``bits``, in the order given, read from
    one string of its binary digits, least significant first, instead of one
    shift of ``bits`` per index."""
    digits = bin(bits)[:1:-1]
    size = len(digits)
    return [i for i in indices if i < size and digits[i] == "1"]


def _conjugates_and_core(ambient, sub):
    """All distinct ambient-conjugates of ``sub`` and the core they intersect in.

    Returns ``(conjugates, witnesses, core_bits, core)``.  ``conjugates`` are
    bitsets over the ambient element indices (bit i set when the i-th ambient
    element lies in the conjugate), in breadth-first discovery order under the
    ambient conjugation action starting from ``sub`` itself, which is
    deterministic; ``witnesses[k]`` is the image tuple of an element
    conjugating ``sub`` onto ``conjugates[k]`` (the identity first);
    ``core_bits`` is the intersection of all of them and ``core`` the same set
    as a group, checked to be normal.

    Each conjugate K keeps the indices of its generators (the conjugates of
    ``sub``'s own).  A step g maps those few indices first: gKg⁻¹ is a found
    conjugate K′ exactly when K′ holds every mapped generator, as the two have
    one order and a group holding a group's generators holds the group.  Only
    a new conjugate has its full index list mapped and its bitset built.
    While the search runs, each bitset is kept as its little-endian bytes, so
    bit i is bit ``i & 7`` of byte ``i >> 3``; byte ``i >> 3`` of every
    conjugate, gathered into one ``bytes``, read as an int and shifted right by
    ``i & 7``, has bit 8j set exactly when conjugate j holds index i.  ANDing
    that over the mapped generators tests all found conjugates at once, with
    no Python step per conjugate and no shift of a conjugate's bitset.  A
    conjugate's index list is dropped once every generator has acted on it;
    ``sub``'s own list stays, and the core is read off it in one pass over
    one string of the core's binary digits (:func:`_set_bits`).
    """
    _require_subgroup(ambient, sub)
    index = ambient._index
    size = (ambient.order + 7) // 8
    # per conjugate, the indices of its generators and of all its elements
    gens = [[index[_key(g.images)] for g in sub.generators]]
    members = [list(map(index.__getitem__, sub._raw))]
    rows = [_bitset(members[0]).to_bytes(size, "little")]
    ones = 1                                      # bit 8j set for each row j
    witnesses = [tuple(range(ambient.degree))]
    # sorted, so that the witnesses do not depend on the generators' order
    steps = sorted(zip((g.images for g in ambient.generators), ambient._conjugation()),
                   key=itemgetter(0))
    for k, w in enumerate(witnesses):             # witnesses grows while it is walked
        current = members[k]
        for g, act in steps:
            mapped = list(map(act.__getitem__, gens[k]))
            held = ones
            for i in mapped:
                held &= int.from_bytes(bytes(map(itemgetter(i >> 3), rows)), "little") >> (i & 7)
            if held:
                continue
            if len(rows) * sub.order >= ambient.order:
                # at most [G:H] conjugates: a repeat went unrecognised
                raise InternalConsistencyError("conjugate search outgrew the subgroup's index")
            image = list(map(act.__getitem__, current))
            gens.append(mapped)
            members.append(image)
            rows.append(_bitset(image).to_bytes(size, "little"))
            ones = ones << 8 | 1
            # conjugating by g after w conjugates by g∘w
            witnesses.append(tuple(map(g.__getitem__, w)))
        if k:
            members[k] = None                     # only sub's own list is read again
    conjugates = rows                             # each row becomes its int in place,
    for k, row in enumerate(rows):                # so the two are never all held at once
        rows[k] = int.from_bytes(row, "little")
    core_bits = reduce(and_, conjugates)
    raw = ambient._raw
    core = PermGroup.from_elements(ambient.degree,
                                   map(raw.__getitem__, _set_bits(core_bits, members[0])))
    if not is_normal(ambient, core):
        raise InternalConsistencyError("core computation produced a non-normal subgroup")
    return conjugates, witnesses, core_bits, core


def subgroup_core(ambient, sub):
    """The intersection of all ambient-conjugates of ``sub``.

    Equals the largest normal subgroup of the ambient group inside ``sub``.
    """
    return _conjugates_and_core(ambient, sub)[3]


def min_core_conjugates(ambient, sub):
    """Smallest m with some m conjugates of ``sub`` intersecting exactly in the core.

    Returns ``(m, witnesses, core)``: the witnesses are conjugating elements
    (the first is always the identity: the subgroup itself participates) and
    ``core`` is the group :func:`subgroup_core` returns, found by the same
    single enumeration of the conjugates.  Search is breadth-first over subset
    sizes, subsets in lexicographic order of the deterministic conjugate list,
    each tested by intersecting bitsets, so the result is reproducible.
    """
    conjugates, witnesses, core_bits, core = _conjugates_and_core(ambient, sub)
    for m in range(1, len(conjugates) + 1):
        for combo in combinations(range(len(conjugates)), m):
            if reduce(and_, map(conjugates.__getitem__, combo)) == core_bits:
                return m, [Permutation(witnesses[i]) for i in combo], core
    raise InternalConsistencyError("conjugate search failed to reach the core")  # unreachable


class SubgroupEmbedding:
    """A subgroup together with the fusion map of its classes into the ambient ones.

    Induction along the embedding sums with integer weights that depend only
    on the embedding, so they are computed here, once, on first use
    (:attr:`induction_weights`, kept in the instance ``__dict__``).
    """
    __slots__ = ("ambient", "sub", "fusion", "__dict__")

    def __init__(self, ambient, sub, fusion):
        self.ambient = ambient
        self.sub = sub
        self.fusion = fusion  # sub class index -> ambient class index

    @cached_property
    def induction_weights(self):
        """``(buckets, bound)``: for each ambient class g, the pair
        ``(weights, classes)`` of the subgroup classes c that fuse into it and
        their weights |C_G(g)|/|C_H(c)|, and the largest weight sum over the
        ambient classes.  The weights are integers because C_H(c) is a
        subgroup of C_G(c).  Tuples, as every induction shares them."""
        g_cent = [self.ambient.order // n for n in self.ambient.classes().sizes()]
        h_cent = [self.sub.order // n for n in self.sub.classes().sizes()]
        buckets = [([], []) for _ in g_cent]
        for c, target in enumerate(self.fusion):
            weights, classes = buckets[target]
            weights.append(g_cent[target] // h_cent[c])
            classes.append(c)
        return (tuple((tuple(w), tuple(c)) for w, c in buckets),
                max(sum(weights) for weights, _ in buckets))


def class_fusion(ambient, sub):
    """Compute the :class:`SubgroupEmbedding` of ``sub`` in ``ambient``."""
    _require_subgroup(ambient, sub)
    acs = ambient.classes()
    fusion = tuple(acs.class_of(c.rep.images) for c in sub.classes().classes)
    return SubgroupEmbedding(ambient, sub, fusion)
