"""Named groups and the three subgroup families built from them.

The base groups act on four points: the symmetric group S4, its normal Klein
four-subgroup V4, the dihedral D8 and the point stabiliser S3, each generated
by its entry of ``BASE_GENERATORS``.

Larger groups live on ``4n`` points split into n consecutive blocks of four;
the shift permutation sends each point to the matching point of the next
block, so conjugating the block-0 copy of S4 by the k-th power of the shift
yields the copy acting on block k.  The three families:

* series A: ambient S4 wr C_n, subgroup V4 x S4^(n-1)   (target depth 2n)
* series B: ambient S4 wr C_n, subgroup D8 x S4^(n-1)   (target depth 4n)
* series C: iterated wreath doubling starting from (S4, D8), subgroup
  doubled alongside                                     (target depth 2^(step+1))

Every member above the base pair comes from the same wreath step: the new
ambient group is the old one wreathed by C_k, the new subgroup is the old
subgroup times k - 1 copies of the old ambient group.  The base groups are
built once per process and shared, with their classes and tables, by every
member, base pair and lemma; the seed helpers read them from product groups.
"""

from __future__ import annotations

import weakref
from functools import cache
from itertools import product as iter_product

from . import depth
from .chartab import character_table
from .errors import EnumerationCapExceeded, InternalConsistencyError
from .perm import (DEFAULT_CAP, PermGroup, Permutation, class_fusion,
                   parse_cycle_notation, parse_generators, subgroup_core)

__all__ = [
    "BASE_GENERATORS", "base_groups", "BaseGroups", "block_shift",
    "direct_product", "wreath_cyclic", "CyclicWreath", "family", "FamilyInstance",
    "klein_labels", "sym4_labels", "seed_characters", "SeedCharacter",
    "distance_witness_pair",
]


# The conventional marker elements of the degree-4 base groups, by name.
MARKERS = {
    "g2": parse_cycle_notation("(1,3)(2,4)", 4),
    "g3": parse_cycle_notation("(1,2)(3,4)", 4),
    "g4": parse_cycle_notation("(1,4)(2,3)", 4),
}


# Generators of the degree-4 base groups (1-based cycle notation), by name.
BASE_GENERATORS = {
    "S4": "(1,2);(1,2,3,4)",
    "V4": "(1,3)(2,4);(1,2)(3,4)",
    "D8": "(1,3);(1,2,3,4)",
    "S3": "(1,2);(1,2,3)",
}


class BaseGroups:
    __slots__ = ("s4", "v4", "d8", "s3")

    def __init__(self, s4, v4, d8, s3):
        self.s4 = s4
        self.v4 = v4
        self.d8 = d8
        self.s3 = s3


@cache
def base_groups():
    """The degree-4 base groups, generated from ``BASE_GENERATORS`` once per process."""
    return BaseGroups(**{name.lower(): PermGroup.generated(parse_generators(gens, 4))
                         for name, gens in BASE_GENERATORS.items()})


def klein_labels(v4_table):
    """Conventional numbering of the V4 irreducibles.

    nu1 is trivial; for k in {2, 3, 4}, nu_k is the linear character taking
    value 1 at the marker double transposition g_k (g2 = (1,3)(2,4),
    g3 = (1,2)(3,4), g4 = (1,4)(2,3)).
    """
    cs = v4_table.classes
    out = {}
    for i, chi in enumerate(v4_table.irreducibles):
        if all(v.as_integer() == 1 for v in chi.values):
            out["nu1"] = i
            continue
        for name in ("g2", "g3", "g4"):
            k = cs.class_of(MARKERS[name].images)
            if chi.values[k].as_integer() == 1:
                out["nu" + name[1]] = i
    if sorted(out) != ["nu1", "nu2", "nu3", "nu4"]:
        raise InternalConsistencyError("failed to label the Klein-group characters")
    return out


def sym4_labels(s4_table):
    """Conventional numbering of the S4 irreducibles.

    chi1 trivial, chi2 sign, chi3 the degree-2 character, chi4/chi5 the
    degree-3 characters with value +1/-1 at the transposition class.
    """
    cs = s4_table.classes
    transposition = cs.class_of(parse_cycle_notation("(1,3)", 4).images)
    out = {}
    for i, chi in enumerate(s4_table.irreducibles):
        d = chi.degree()
        if d == 2:
            out["chi3"] = i
        elif d == 1:
            out["chi1" if chi.values[transposition].as_integer() == 1 else "chi2"] = i
        else:
            out["chi4" if chi.values[transposition].as_integer() == 1 else "chi5"] = i
    if sorted(out) != [f"chi{k}" for k in range(1, 6)]:
        raise InternalConsistencyError("failed to label the S4 characters")
    return out


# ---------------------------------------------------------------------------
# Block constructions
# ---------------------------------------------------------------------------

def block_shift(block_size, blocks):
    """The permutation of ``block_size * blocks`` points sending each point to
    the matching point one block onward (cyclically)."""
    if blocks < 2:
        raise ValueError("need at least two blocks to shift")
    n = block_size * blocks
    return Permutation([(i + block_size) % n for i in range(n)])


def direct_product(factors, cap=DEFAULT_CAP):
    """The direct product acting on consecutive point blocks.

    The closure of the factor generators, each shifted onto its block.  They
    are block-diagonal, so the closure lies inside the Cartesian product of
    the factors, and its order proves it is all of it.  The factor layout is
    recorded on ``product_structure`` so the outer-product character table can
    be built later.
    """
    degree = sum(f.degree for f in factors)
    total = 1
    for f in factors:
        total *= f.order
    if total > cap:
        raise EnumerationCapExceeded(cap, total, counted=False)
    offsets = []
    at = 0
    for f in factors:
        offsets.append(at)
        at += f.degree
    gens = []
    for off, f in zip(offsets, factors):
        gens.extend(g.shifted(off, degree) for g in f.generators)
    group = PermGroup.generated(gens, cap=cap)
    if group.order != total:
        raise InternalConsistencyError("direct product closure has the wrong order")
    group.product_structure = tuple(zip(offsets, factors))
    return group


class CyclicWreath:
    __slots__ = ("group", "shift")

    def __init__(self, group, shift):
        self.group = group    # base wr C_n on base.degree * n points
        self.shift = shift


def wreath_cyclic(base, copies, cap=DEFAULT_CAP):
    """base wr C_n, generated by the block-0 copy of the base and the shift.
    The layout is recorded on ``wreath_structure`` as ``(base, copies)`` so
    the Clifford character table can be built later.  The base holds each
    product weakly, as a group holds its table, so calls share one group (and
    its classes and table) while anyone keeps it."""
    if copies < 2:
        raise ValueError("a wreath product needs at least two copies")
    # the order is base.order^copies * copies: refuse it above the cap before
    # building a permutation on base.degree * copies points or sharing one
    order = copies
    for _ in range(copies):
        order *= base.order
        if order > cap:
            raise EnumerationCapExceeded(cap, order, counted=False)
    shift = block_shift(base.degree, copies)
    held = base._wreaths.get(copies)
    group = held and held()
    if group is None:
        degree = base.degree * copies
        gens = [g.shifted(0, degree) for g in base.generators] + [shift]
        group = PermGroup.generated(gens, cap=cap)
        if group.order != order:
            raise InternalConsistencyError("wreath product closure has the wrong order")
        group.wreath_structure = (base, copies)
        base._wreaths[copies] = weakref.ref(group)
    return CyclicWreath(group, shift)


# ---------------------------------------------------------------------------
# The three families
# ---------------------------------------------------------------------------

class FamilyInstance:
    """One member of a family: ambient group (shared, see ``wreath_cyclic``),
    subgroup, and the helpers (full base-block product, core, shift) used by
    the verification code.  The pair's depth report is computed on first use
    and kept, so every consumer reads the same matrix, tables and graph."""

    __slots__ = ("series", "n", "ambient", "subgroup", "base_block", "core", "sigma",
                 "expected_depth", "_report")

    def __init__(self, series, n, ambient, subgroup, base_block, core, sigma, expected_depth):
        self.series = series
        self.n = n
        self.ambient = ambient
        self.subgroup = subgroup
        self.base_block = base_block    # the product of all block copies (K)
        self.core = core                # Core_ambient(subgroup)
        self.sigma = sigma              # a Permutation, or None
        self.expected_depth = expected_depth
        self._report = None

    def embedding_subgroup(self):
        return class_fusion(self.ambient, self.subgroup)

    def report(self):
        # through the module, so a wrapper on depth.ordinary_depth sees the call
        if self._report is None:
            self._report = depth.ordinary_depth(self.ambient, self.subgroup)
        return self._report


def _wreath_step(base, seed, copies, cap):
    """``(base wr C_copies, seed x base^(copies-1), base^copies)``.

    The generator list that ``direct_product`` closed must be the seed on
    block 0 and the base generators moved to block i by the i-th shift power,
    and the ambient group must contain both products; otherwise this raises.
    """
    wr = wreath_cyclic(base, copies, cap=cap)
    subgroup = direct_product([seed] + [base] * (copies - 1), cap=cap)
    block = direct_product([base] * copies, cap=cap)
    degree = wr.group.degree
    gens = [g.shifted(0, degree) for g in seed.generators]
    for i in range(1, copies):
        conj = wr.shift ** i
        gens.extend(g.shifted(0, degree).conjugated_by(conj) for g in base.generators)
    if subgroup.generators != tuple(gens):
        raise InternalConsistencyError("product subgroup differs from its generated form")
    if not (wr.group.contains_group(subgroup) and wr.group.contains_group(block)):
        raise InternalConsistencyError(
            "family subgroup or block product is not inside the ambient group")
    return wr, subgroup, block


def family(series, n, cap=DEFAULT_CAP):
    """Build a family member: series "A" (V4 base), "B" (D8 base) or "C"
    (wreath doubling; ``n`` counts doubling steps starting at (S4, D8)).
    Members on one wreath product (A and B at one n) share it while any caller
    keeps it, and with it its classes and table (see ``wreath_cyclic``)."""
    series = series.upper()
    if series not in ("A", "B", "C"):
        raise ValueError(f"unknown series {series!r} (expected A, B or C)")
    if n < 1:
        raise ValueError("the family index must be a positive integer")
    bg = base_groups()
    seed = bg.v4 if series == "A" else bg.d8
    ambient, subgroup, block, sigma = bg.s4, seed, bg.s4, None
    # series A/B: one step with n copies (none at n = 1); C: n - 1 steps with two
    steps, copies = (n - 1, 2) if series == "C" else (1 if n > 1 else 0, n)
    for _ in range(steps):
        wr, subgroup, block = _wreath_step(ambient, subgroup, copies, cap)
        ambient, sigma = wr.group, wr.shift
    if ambient.order > cap:
        # the base groups were built at their own cap
        raise EnumerationCapExceeded(cap, ambient.order, counted=False)
    core = subgroup_core(ambient, subgroup)
    # for A and B the core is V4^n, built here independently of the conjugates
    if series != "C" and n > 1 and core != direct_product([bg.v4] * n, cap=cap):
        raise InternalConsistencyError("family core does not match the computed core")
    expected = {"A": 2 * n, "B": 4 * n, "C": 2 ** (n + 1)}[series]
    return FamilyInstance(series, n, ambient, subgroup, block, core, sigma, expected)


# ---------------------------------------------------------------------------
# Distinguished characters of the family subgroups and base blocks
# ---------------------------------------------------------------------------

class SeedCharacter:
    """An outer-product character of the base block with its faithful factor
    in the first slot and non-faithful factors elsewhere, tagged by the
    conventional label tuple."""

    __slots__ = ("labels", "row", "values")

    def __init__(self, labels, row, values):
        self.labels = labels    # e.g. (4, 1, 3): chi4 x chi1 x chi3
        self.row = row          # index in the base-block table
        self.values = values    # the ClassFunction


def _faithful_split(s4_table):
    """Indices of faithful vs non-faithful S4 irreducibles with their labels."""
    labels = sym4_labels(s4_table)
    by_index = {v: int(k[3:]) for k, v in labels.items()}
    faithful, plain = [], []
    for i, chi in enumerate(s4_table.irreducibles):
        deg = chi.degree()
        kernel_bigger = any(not c.rep.is_identity and v == deg * 1
                            for c, v in zip(s4_table.classes.classes,
                                            [x.as_integer() for x in chi.values]))
        (plain if kernel_bigger else faithful).append(i)
    return faithful, plain, by_index


def seed_characters(n, block_table):
    """All outer products over n block slots with exactly one faithful factor,
    sitting in slot one; there are 2 * 3^(n-1) of them.  The S4 table is that
    of the block product's first factor."""
    s4 = block_table.group.product_structure[0][1]
    faithful, plain, by_index = _faithful_split(character_table(s4))
    out = []
    for first in faithful:
        for rest in iter_product(plain, repeat=n - 1):
            idx = (first,) + rest
            row = block_table.product_labels[idx]
            labels = tuple(by_index[i] for i in idx)
            out.append(SeedCharacter(labels, row, block_table.irreducibles[row]))
    out.sort(key=lambda sc: sc.labels)
    return out


def distance_witness_pair(n, sub_table):
    """The two subgroup characters realising the extremal relation distance.

    First factor: the Klein-group linear character with the marker element
    (1,3)(2,4) in its kernel.  Remaining factors: all trivial for the first
    character, all sign for the second.  For n = 1 the subgroup is V4 and both
    collapse to the same character.  The V4 and S4 tables are those of the
    subgroup's first two factors.
    """
    if n == 1:
        row = klein_labels(sub_table)["nu2"]
        return row, row
    (_, v4), (_, s4) = sub_table.group.product_structure[:2]
    nu = klein_labels(character_table(v4))
    chi = sym4_labels(character_table(s4))
    first = sub_table.product_labels[(nu["nu2"],) + (chi["chi1"],) * (n - 1)]
    second = sub_table.product_labels[(nu["nu2"],) + (chi["chi2"],) * (n - 1)]
    return first, second
