"""Permutations and fully enumerated finite permutation groups.

Composition convention: ``(a * b)(x) = a(b(x))`` (apply b first).  Under this
convention ``a.conjugated_by(s) == s * a * s.inverse()`` relabels the moved
points of ``a`` along ``s``; conjugating a group acting on one block of points
by a block shift therefore yields the copy acting on the shifted block.

Groups are stored with all elements enumerated (breadth-first closure over
right multiplication by the listed generators, which makes the element order
a deterministic function of the generator list).  Everything downstream -
conjugacy classes, cores, character tables - relies on that determinism for
bit-for-bit reproducible output.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import (CycleParseError, EnumerationCapExceeded, NotASubgroupError,
                     SubdepthError)

DEFAULT_CAP = 10**6

__all__ = [
    "DEFAULT_CAP", "Permutation", "PermGroup", "ClassSet", "ConjugacyClass",
    "SubgroupEmbedding", "parse_cycle_notation", "parse_generators",
    "centralizer", "is_normal", "subgroup_core", "min_core_conjugates",
    "class_fusion",
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

    def __lt__(self, other):
        return self.images < other.images

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
        j = s.index(")", i + 1) if ")" in s[i + 1:] else -1
        if j < 0:
            raise CycleParseError(f"unbalanced parenthesis in {text!r}")
        body = s[i + 1:j]
        i = j + 1
        any_cycle = True
        if body == "":
            continue  # "()" is the identity cycle
        points = []
        for tok in body.split(","):
            if not tok.isdigit():
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


def parse_generators(text, degree=None):
    """Parse a ';'-separated generator list; infers the degree when not given."""
    chunks = [c for c in (p.strip() for p in text.split(";")) if c]
    if not chunks:
        raise CycleParseError("empty generator list")
    if degree is None:
        largest = 0
        for chunk in chunks:
            for tok in chunk.replace("(", " ").replace(")", " ").replace(",", " ").split():
                if tok.isdigit():
                    largest = max(largest, int(tok))
        if largest == 0:
            raise CycleParseError("cannot infer degree from identity-only generators; "
                                  "pass the degree explicitly")
        degree = largest
    return [parse_cycle_notation(chunk, degree) for chunk in chunks]


@dataclass(frozen=True)
class ConjugacyClass:
    rep: Permutation          # lexicographically smallest member
    size: int
    members: tuple            # indices into the group's raw element list


class ClassSet:
    """Conjugacy classes in canonical order: ascending size, ties broken by
    the lexicographically smallest member.  The identity class is always first."""

    def __init__(self, group, classes, class_of):
        self.group = group
        self.classes = classes
        self.class_of = class_of  # raw image tuple -> class index

    def __len__(self):
        return len(self.classes)

    def sizes(self):
        return [c.size for c in self.classes]


class PermGroup:
    """A finite permutation group with its full element list.

    Use :meth:`generated` (breadth-first closure of a generator list, capped)
    or :meth:`from_elements`.  Instances are immutable; conjugacy data and
    character tables are cached on the instance.
    """

    def __init__(self, degree, raw_elements, generators, _trusted=False):
        if not _trusted:
            raise TypeError("use PermGroup.generated / PermGroup.from_elements")
        self.degree = degree
        self._raw = raw_elements                  # list of image tuples
        self._index = {x: i for i, x in enumerate(raw_elements)}
        self.generators = tuple(generators)
        self._elements = None
        self._classes = None
        self._exponent = None
        self._char_table = None
        self._frozen = None
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
        identity = tuple(range(degree))
        raw = [identity]
        index = {identity: 0}
        gen_raw = [g.images for g in gens]
        head = 0
        while head < len(raw):
            x = raw[head]
            head += 1
            for g in gen_raw:
                y = tuple(map(x.__getitem__, g))
                if y not in index:
                    if len(raw) >= cap:
                        raise EnumerationCapExceeded(cap, len(raw))
                    index[y] = len(raw)
                    raw.append(y)
        return cls(degree, raw, gens, _trusted=True)

    @classmethod
    def from_elements(cls, degree, elements, generators=None):
        """Build a group from an explicit element collection (must be closed).

        Elements are sorted lexicographically so the stored order does not
        depend on the caller's iteration order.  When no generators are given
        a small generating subset is found greedily.
        """
        raw = sorted({e.images if isinstance(e, Permutation) else tuple(e)
                      for e in elements})
        if not raw or raw[0] != tuple(range(degree)):
            raise ValueError("element set must contain the identity")
        if generators is None:
            gens = _greedy_generators(degree, raw)
        else:
            gens = list(generators)
        group = cls(degree, raw, gens, _trusted=True)
        return group

    @classmethod
    def trivial(cls, degree):
        ident = Permutation.identity(degree)
        return cls(degree, [ident.images], [ident], _trusted=True)

    # -- basic protocol ---------------------------------------------------------

    @property
    def order(self):
        return len(self._raw)

    def __len__(self):
        return len(self._raw)

    def __contains__(self, perm):
        key = perm.images if isinstance(perm, Permutation) else tuple(perm)
        return key in self._index

    @property
    def elements(self):
        if self._elements is None:
            self._elements = tuple(Permutation(x) for x in self._raw)
        return self._elements

    @property
    def raw_elements(self):
        return self._raw

    def frozen(self):
        if self._frozen is None:
            self._frozen = frozenset(self._raw)
        return self._frozen

    def __eq__(self, other):
        return (isinstance(other, PermGroup) and self.degree == other.degree
                and self.frozen() == other.frozen())

    def __hash__(self):
        return hash((self.degree, self.frozen()))

    def __repr__(self):
        gens = ", ".join(g.cycle_string() for g in self.generators[:4])
        if len(self.generators) > 4:
            gens += ", ..."
        return f"PermGroup(degree={self.degree}, order={self.order}, gens=[{gens}])"

    def contains_group(self, sub):
        return (sub.degree == self.degree
                and all(x in self._index for x in sub._raw))

    # -- conjugacy ---------------------------------------------------------------

    def classes(self):
        if self._classes is None:
            self._classes = _conjugacy_classes(self)
        return self._classes

    def exponent(self):
        if self._exponent is None:
            e = 1
            for c in self.classes().classes:
                e = lcm(e, c.rep.order())
            self._exponent = e
        return self._exponent

    def center_contains(self, perm):
        """Whether ``perm`` commutes with every generator (hence with the group)."""
        x = perm.images if isinstance(perm, Permutation) else tuple(perm)
        for g in self.generators:
            gi = g.images
            if tuple(map(gi.__getitem__, x)) != tuple(map(x.__getitem__, gi)):
                return False
        return True


def _greedy_generators(degree, raw):
    """A small generating list for a closed element set, deterministic."""
    target = len(raw)
    identity = tuple(range(degree))
    if target == 1:
        return [Permutation(identity)]
    have = {identity}
    gens = []
    for x in raw:
        if x in have:
            continue
        gens.append(x)
        # closure of current generators
        closure = [identity]
        seen = {identity}
        head = 0
        while head < len(closure):
            y = closure[head]
            head += 1
            for g in gens:
                z = tuple(map(y.__getitem__, g))
                if z not in seen:
                    seen.add(z)
                    closure.append(z)
        have = seen
        if len(have) == target:
            break
    return [Permutation(g) for g in gens]


def _conjugacy_classes(group):
    raw = group._raw
    index = group._index
    degree = group.degree
    gen_raw = [g.images for g in group.generators]
    seen = bytearray(len(raw))
    found = []
    for i0 in range(len(raw)):
        if seen[i0]:
            continue
        seen[i0] = 1
        members = [i0]
        stack = [i0]
        while stack:
            x = raw[stack.pop()]
            for g in gen_raw:
                y = [0] * degree
                for t in range(degree):
                    y[g[t]] = g[x[t]]
                j = index[tuple(y)]
                if not seen[j]:
                    seen[j] = 1
                    members.append(j)
                    stack.append(j)
        min_member = min(raw[j] for j in members)
        found.append((len(members), min_member, members))
    found.sort(key=lambda item: (item[0], item[1]))
    classes = []
    class_of = {}
    for idx, (size, min_member, members) in enumerate(found):
        classes.append(ConjugacyClass(Permutation(min_member), size, tuple(members)))
        for j in members:
            class_of[raw[j]] = idx
    if not classes[0].rep.is_identity:
        raise SubdepthError("canonical class order lost the identity class")
    return ClassSet(group, tuple(classes), class_of)


def centralizer(group, x):
    """The subgroup of all elements commuting with ``x`` (which must lie in the group)."""
    if x not in group:
        raise NotASubgroupError(f"{x!r} is not an element of the group")
    xi = x.images if isinstance(x, Permutation) else tuple(x)
    hits = []
    for z in group._raw:
        if tuple(map(z.__getitem__, xi)) == tuple(map(xi.__getitem__, z)):
            hits.append(z)
    return PermGroup.from_elements(group.degree, hits)


def _require_subgroup(ambient, sub):
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
            if conj not in sub_index:
                return False
    return True


def _conjugate_set(raw_set, g_raw, degree):
    ginv = [0] * degree
    for i, v in enumerate(g_raw):
        ginv[v] = i
    out = set()
    for x in raw_set:
        out.add(tuple(map(g_raw.__getitem__, map(x.__getitem__, ginv))))
    return frozenset(out)


def _conjugates_and_core(ambient, sub):
    """All distinct ambient-conjugates of ``sub`` and the core they intersect in.

    Returns ``(conjugates, witness, core)``: the conjugates as frozensets of
    image tuples in breadth-first discovery order starting from ``sub`` itself
    (witness: identity), which is deterministic; ``witness`` maps each to a
    conjugating element; ``core`` is their intersection as a group, checked
    to be normal.
    """
    _require_subgroup(ambient, sub)
    degree = ambient.degree
    start = frozenset(sub._raw)
    identity = tuple(range(degree))
    order = [start]
    witness = {start: identity}
    gen_raw = [g.images for g in ambient.generators]
    head = 0
    while head < len(order):
        current = order[head]
        head += 1
        w = witness[current]
        for g in gen_raw:
            conj = _conjugate_set(current, g, degree)
            if conj not in witness:
                # conjugating by g after w conjugates by g∘w
                witness[conj] = tuple(map(g.__getitem__, w))
                order.append(conj)
    core = PermGroup.from_elements(degree, start.intersection(*order[1:]))
    if not is_normal(ambient, core):
        raise SubdepthError("core computation produced a non-normal subgroup")
    return order, witness, core


def subgroup_core(ambient, sub):
    """The intersection of all ambient-conjugates of ``sub``.

    Equals the largest normal subgroup of the ambient group inside ``sub``.
    """
    return _conjugates_and_core(ambient, sub)[2]


def min_core_conjugates(ambient, sub):
    """Smallest m with some m conjugates of ``sub`` intersecting exactly in the core.

    Returns ``(m, witnesses, core)``: the witnesses are conjugating elements
    (the first is always the identity: the subgroup itself participates) and
    ``core`` is the group :func:`subgroup_core` returns, found by the same
    single enumeration of the conjugates.  Search is breadth-first over subset
    sizes, subsets in lexicographic order of the deterministic conjugate list,
    so the result is reproducible.
    """
    from itertools import combinations

    conjugates, witness, core = _conjugates_and_core(ambient, sub)
    # every intersection of conjugates contains the core, so equal size
    # means equal to the core (m = 1 exactly when sub is normal)
    for m in range(1, len(conjugates) + 1):
        for combo in combinations(range(len(conjugates)), m):
            inter = set(conjugates[combo[0]])
            for idx in combo[1:]:
                inter &= conjugates[idx]
                if len(inter) == core.order:
                    break
            if len(inter) == core.order:
                return m, [Permutation(witness[conjugates[i]]) for i in combo], core
    raise SubdepthError("conjugate search failed to reach the core")  # unreachable


@dataclass(frozen=True)
class SubgroupEmbedding:
    """A subgroup together with the fusion map of its classes into the ambient ones."""
    ambient: PermGroup
    sub: PermGroup
    fusion: tuple  # sub class index -> ambient class index

    @property
    def index(self):
        return self.ambient.order // self.sub.order


def class_fusion(ambient, sub):
    """Compute the :class:`SubgroupEmbedding` of ``sub`` in ``ambient``."""
    _require_subgroup(ambient, sub)
    acs = ambient.classes()
    fusion = tuple(acs.class_of[c.rep.images] for c in sub.classes().classes)
    return SubgroupEmbedding(ambient, sub, fusion)
