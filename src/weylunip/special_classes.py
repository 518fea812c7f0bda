"""Special conjugacy classes and their bijection onto special representations.

For types B/C the special classes are cut out by pair sequences whose two
slots share a parity (odd slots forced equal); for type D the even pairs
additionally carry a 0/1 flag, with equal-flag-0 pairs forced equal and
adjacent touching even pairs forced to flag 0.  The representation side is
a set of interlacing bipartitions; the maps ``h``/``k`` and their inverses
translate between the two descriptions.  Exceptional types are static
tables keyed by class label.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from itertools import zip_longest
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from ._value import Value
from .errors import (
    BadInput,
    NotSpecial,
    TableIntegrityError,
    WrongFamily,
)
from .exceptional_tables import read_rows, table_label
from .partitions import Partition, check_partition, format_partition, partition
from .weyl_classes import (
    DEFAULT_RANK_BOUND,
    EXCEPTIONAL_RANK,
    CarterLabel,
    ClassSymbol,
    GroupContext,
    check_rank_bound,
    enumerate_classes,
    validate_class,
)

# --- value types -----------------------------------------------------------


def _check_pair_shape(pairs, width: int) -> tuple:
    """The pairs as a tuple of ``width``-tuples (the caller's own, if it is one);
    the first two slots, read left to right, pass ``check_partition`` but for a
    final integer 0, and a third slot is a flag, the int 0 or 1."""
    rows = tuple(map(tuple, pairs))
    if any(len(row) != width for row in rows):
        raise BadInput(f"each pair must have {width} entries: {rows}")
    if any(type(e) is not int or e not in (0, 1) for row in rows for e in row[2:]):
        raise BadInput(f"flags must be 0 or 1: {rows}")
    slots = [x for row in rows for x in row[:2]]
    check_partition(slots[:-1] if slots[-1:] == [0] and type(slots[-1]) is int else slots)
    return pairs if rows == pairs else rows


class PairSequenceBC(Value):
    """Decreasing pairs (a >= b) covering a class of types B/C; the second
    slot of the last pair may be zero."""

    __slots__ = ("pairs",)
    pairs: tuple[tuple[int, int], ...]

    def __new__(cls, pairs: tuple[tuple[int, int], ...]):
        return cls._trusted(_check_pair_shape(pairs, 2))

    def total(self) -> int:
        return sum(a + b for a, b in self.pairs)

    def __str__(self) -> str:
        return "|".join(f"{a},{b}" for a, b in self.pairs)


class PairSequenceD(Value):
    """Decreasing flagged pairs (a >= b, e) covering a class of type D."""

    __slots__ = ("pairs",)
    pairs: tuple[tuple[int, int, int], ...]

    def __new__(cls, pairs: tuple[tuple[int, int, int], ...]):
        return cls._trusted(_check_pair_shape(pairs, 3))

    def total(self) -> int:
        return sum(a + b for a, b, _ in self.pairs)

    def __str__(self) -> str:
        return "|".join(f"{a},{b}:{e}" for a, b, e in self.pairs)


class Bipartition(Value):
    """Two partitions, checked canonical by the constructor, labelling an irreducible representation."""

    __slots__ = ("y", "z")
    y: Partition
    z: Partition

    def __new__(cls, y: Partition, z: Partition):
        return cls._trusted(check_partition(y), check_partition(z))

    def total(self) -> int:
        return sum(self.y) + sum(self.z)

    def __str__(self) -> str:
        return f"y={format_partition(self.y)};z={format_partition(self.z)}"


# --- membership predicates -------------------------------------------------


def in_A(x: PairSequenceBC) -> bool:
    """Slots of each pair share a parity, and odd pairs are equal."""
    for a, b in x.pairs:
        if (a - b) % 2:
            return False
        if a % 2 == 1 and a != b:
            return False
    return True


def in_C(x: PairSequenceD) -> bool:
    """Type-D conditions: shared slot parity; odd pairs equal with flag 0;
    even flag-0 pairs equal; no half-empty pairs; touching even pairs both
    carry flag 0."""
    for a, b, e in x.pairs:
        if (a - b) % 2:
            return False
        if a % 2 == 1 and (a != b or e != 0):
            return False
        if a % 2 == 0 and e == 0 and a != b:
            return False
        if b == 0:
            return False  # b=0 forces a=0, and all-zero pairs are not stored
    for i in range(len(x.pairs) - 1):
        b_i = x.pairs[i][1]
        a_next = x.pairs[i + 1][0]
        if b_i == a_next and b_i % 2 == 0:
            if x.pairs[i][2] != 0 or x.pairs[i + 1][2] != 0:
                return False
    return True


def in_C0(x: PairSequenceD) -> bool:
    """All pairs even, equal, and flagged 0."""
    return all(a == b and a % 2 == 0 and e == 0 for a, b, e in x.pairs)


def _columns(bp: Bipartition) -> Iterator[tuple[int, int, int]]:
    """The zero-padded columns (y_i, z_i, y_{i+1}) of a bipartition, one for
    each index at which y or z has a part."""
    return zip_longest(bp.y, bp.z, bp.y[1:], fillvalue=0)


def in_A_prime(bp: Bipartition, n: int) -> bool:
    """|y|+|z| = n with the interlacing y_{i+1} <= z_i <= y_i + 1."""
    if bp.total() != n:
        return False
    for y, z, y1 in _columns(bp):
        if not y1 <= z <= y + 1:
            return False
    return True


def in_C_prime(bp: Bipartition, n: int) -> bool:
    """|y|+|z| = n with the interlacing y_{i+1} - 1 <= z_i <= y_i."""
    if bp.total() != n:
        return False
    for y, z, y1 in _columns(bp):
        if not y1 - 1 <= z <= y:
            return False
    return True


def in_C0_prime(bp: Bipartition, n: int) -> bool:
    return bp.total() == n and bp.y == bp.z


# --- the bijections --------------------------------------------------------


def h(x: PairSequenceBC) -> Bipartition:
    """Even pair (a, b) -> (a/2, b/2); odd pair (2c+1, 2c+1) -> (c, c+1).

    The larger slot feeds ``y`` in the even case; this is the unique slot
    assignment under which ``h`` and ``h_inv`` are mutually inverse with
    image inside the interlacing set.
    """
    ys, zs = [], []
    for a, b in x.pairs:
        if (a - b) % 2 or (a % 2 == 1 and a != b):  # the condition of in_A
            raise NotSpecial(f"pair sequence outside the B/C special set: {x}")
        # a // 2 and (b + 1) // 2 cover both cases; zero entries are dropped,
        # and the columns of a decreasing sequence are already decreasing
        if a > 1:
            ys.append(a // 2)
        if b > 0:
            zs.append((b + 1) // 2)
    return Bipartition._trusted(tuple(ys), tuple(zs))


def h_inv(bp: Bipartition) -> PairSequenceBC:
    """Inverse of ``h``: z_i <= y_i gives the even pair (2y_i, 2z_i),
    z_i = y_i + 1 the odd pair (2y_i+1, 2y_i+1); a column that breaks the
    interlacing of ``in_A_prime`` is refused."""
    pairs = []
    for y, z, y1 in _columns(bp):
        if not y1 <= z <= y + 1:
            raise NotSpecial(f"bipartition fails the B/C interlacing: {bp}")
        if z <= y:
            pairs.append((2 * y, 2 * z))
        else:  # z == y + 1
            pairs.append((2 * y + 1, 2 * y + 1))
    # bp is canonical and interlaced, so its image needs no check: pair i ends in
    # 2z_i or 2y_i + 1, pair i + 1 starts with 2y_{i+1} or 2z_{i+1} - 1, y_{i+1} <= y_i, z_i
    # and z_{i+1} <= z_i order them; a zero z_i ends bp, a zero y_i makes the pair (1, 1)
    return PairSequenceBC._trusted(tuple(pairs))


def k(x: PairSequenceD) -> Bipartition:
    """Odd pair (2c+1, 2c+1) -> (c+1, c); even equal flag-0 pair -> (a/2, a/2);
    even flag-1 pair (a, b) -> ((a+2)/2, (b-2)/2)."""
    if not in_C(x):
        raise NotSpecial(f"pair sequence outside the D special set: {x}")
    return _k_image(x)


def _k_image(x: PairSequenceD) -> Bipartition:
    """The bipartition ``k`` assigns to a sequence already known to lie in
    the D special set; on that set both columns are already decreasing, and
    only ``z`` can reach zero (for the pairs (1, 1) and (a, 2) flagged 1)."""
    ys, zs = [], []
    for a, b, e in x.pairs:
        if a % 2 == 1:
            ys.append((a + 1) // 2)
            z = (a - 1) // 2
        elif e == 0:
            ys.append(a // 2)
            z = a // 2
        else:
            ys.append((a + 2) // 2)
            z = (b - 2) // 2
        if z:
            zs.append(z)
    return Bipartition._trusted(tuple(ys), tuple(zs))


def k_inv(bp: Bipartition) -> PairSequenceD:
    """Inverse of ``k``: y=z gives the even flag-0 pair, y=z+1 the odd pair,
    y>=z+2 the even flag-1 pair (2y-2, 2z+2); a column that breaks the
    interlacing of ``in_C_prime`` is refused."""
    pairs = []
    for y, z, y1 in _columns(bp):
        if not y1 - 1 <= z <= y:
            raise NotSpecial(f"bipartition fails the D interlacing: {bp}")
        if y == z:
            pairs.append((2 * y, 2 * y, 0))
        elif y == z + 1:
            pairs.append((2 * y - 1, 2 * y - 1, 0))
        else:
            pairs.append((2 * y - 2, 2 * z + 2, 1))
    # bp is canonical and interlaced, so its image needs no check: pair i ends in
    # 2z_i + min(y_i - z_i, 2), pair i + 1 starts with 2y_{i+1} - min(y_{i+1} - z_{i+1}, 2),
    # which z_{i+1} <= z_i, y_{i+1} - 1 <= z_i and y_{i+1} <= y_i order; y_i >= z_i keeps all > 0
    return PairSequenceD._trusted(tuple(pairs))


# --- enumeration -----------------------------------------------------------
#
# Each walk lists the tails of a subproblem, keyed by the walk's state, once
# per call and joins every prefix that reaches it to that one list, in the
# depth-first order of a plain walk.  Only the tails of a subproblem covering
# at most half of the total are kept: a larger one is reached by few
# prefixes, and keeping its long list would cost more memory than it saves
# time.  Each walk unbinds its recursive closure before it returns, which
# frees the closure's cycle and the kept tails at once.


def enumerate_A(n: int) -> list[PairSequenceBC]:
    """All pair sequences of total 2n in the B/C special set; deterministic."""
    kept = {}

    def tails(remaining: int, max_a: int) -> list[tuple]:
        if remaining == 0:
            return [()]
        amax = max_a if max_a < remaining else remaining
        key = (remaining, amax)
        out = kept.get(key)
        if out is not None:
            return out
        out = []
        for a in range(amax, 0, -1):
            if a % 2 == 1:
                if 2 * a <= remaining:
                    out += map(((a, a),).__add__, tails(remaining - 2 * a, a))
            else:
                top = min(a, remaining - a)
                for b in range(top - (top % 2), -1, -2):
                    if b == 0:
                        if remaining == a:
                            out.append(((a, 0),))
                    else:
                        out += map(((a, b),).__add__, tails(remaining - a - b, b))
        if remaining <= n:
            kept[key] = out
        return out

    out = [PairSequenceBC._trusted(pairs) for pairs in tails(2 * n, 2 * n)]
    del tails
    return out


def enumerate_C(n: int) -> list[PairSequenceD]:
    """All flagged pair sequences of total 2n in the D special set."""
    kept = {}

    def tails(remaining: int, max_a: int, prev_b: Optional[int], prev_e: int) -> list[tuple]:
        if remaining == 0:
            return [()]
        key = (remaining, max_a, prev_b, prev_e)
        out = kept.get(key)
        if out is not None:
            return out
        out = []
        for a in range(min(max_a, remaining), 0, -1):
            # an even pair whose first slot touches the previous second slot
            # forces flag 0 on both sides
            touching = prev_b is not None and a == prev_b and a % 2 == 0
            if a % 2 == 1:
                if 2 * a <= remaining:
                    out += map(((a, a, 0),).__add__, tails(remaining - 2 * a, a, a, 0))
                continue
            if 2 * a <= remaining and not (touching and prev_e != 0):
                out += map(((a, a, 0),).__add__, tails(remaining - 2 * a, a, a, 0))
            if not touching:
                top = min(a, remaining - a)
                for b in range(top - (top % 2), 1, -2):
                    out += map(((a, b, 1),).__add__, tails(remaining - a - b, b, b, 1))
        if remaining <= n:
            kept[key] = out
        return out

    out = [PairSequenceD._trusted(pairs) for pairs in tails(2 * n, 2 * n, None, 0)]
    del tails
    return out


def _interlaced(n: int, s: int) -> list[Bipartition]:
    """All bipartitions of n with y_{i+1} - (1 - s) <= z_i <= y_i + s, in
    depth-first order: column by column, y_i descending, then z_i.

    ``s`` is 1 for the B/C set and 0 for the D set.  Both rules make y and z
    weakly decreasing, so once a side reaches zero it stays there; only the
    positive entries are kept, and a tail is a pair of parallel lists of
    the y and z tails, which are finished partitions at the top.
    """
    kept = {}

    def tails(rem: int, ymax: int, zmax: int) -> tuple[list, list]:
        key = (rem, ymax, zmax)
        got = kept.get(key)
        if got is not None:
            return got
        ys, zs = [], []
        # the bounds min(ymax, rem), min(zmax, y + s, rem - y) and
        # min(y, z + 1 - s) are written as comparisons, which cost less
        for y in range(ymax if ymax < rem else rem, -1, -1):
            ztop = y + s if y + s < zmax else zmax
            if rem - y < ztop:
                ztop = rem - y
            for z in range(ztop, -1, -1):
                left = rem - y - z
                if left == 0:  # a leaf: the next column could only be (0, 0)
                    ys.append((y,) if y else ())
                    zs.append((z,) if z else ())
                elif y or z:
                    c = z + 1 - s
                    y_tails, z_tails = tails(left, y if y < c else c, z)
                    # a zero side has only empty tails below it
                    ys += map((y,).__add__, y_tails) if y else y_tails
                    zs += map((z,).__add__, z_tails) if z else z_tails
        got = (ys, zs)
        if 2 * rem <= n:
            kept[key] = got
        return got

    out = list(map(Bipartition._trusted, *tails(n, n, n + 2)))
    del tails
    return out


def enumerate_A_prime(n: int) -> list[Bipartition]:
    """All bipartitions of n with y_{i+1} <= z_i <= y_i + 1."""
    return _interlaced(n, 1)


def enumerate_C_prime(n: int) -> list[Bipartition]:
    """All bipartitions of n with y_{i+1} - 1 <= z_i <= y_i."""
    return _interlaced(n, 0)


# --- classes and the representation bijection --------------------------------


def _class_of(x) -> ClassSymbol:
    """The class of a pair sequence of its special set, built trusted: an odd pair
    or an even pair flagged 0 feeds the swap record ``p``, every other even pair
    the stable record ``r``, so both are subsequences of the checked slots."""
    r, p = [], []
    for pair in x.pairs:
        a, b = pair[0], pair[1]
        if a % 2 or pair[2:] == (0,):
            p += (a, b)
        else:
            r += (a, b) if b else (a,)
    return ClassSymbol._trusted(None, tuple(r), tuple(p), None)


def special_class_of(ctx: GroupContext, x) -> ClassSymbol:
    """The conjugacy class carried by a pair sequence of the context's
    special set."""
    if ctx.family in ("B", "C"):
        if not isinstance(x, PairSequenceBC) or not in_A(x):
            raise NotSpecial(f"not in the B/C special set: {x}")
    elif ctx.family == "D":
        if not isinstance(x, PairSequenceD) or not in_C(x):
            raise NotSpecial(f"not in the D special set: {x}")
    else:
        raise WrongFamily(f"pair sequences only describe B/C/D classes, not {ctx.family}")
    if x.total() != 2 * ctx.rank:
        raise BadInput(f"total {x.total()} does not match {ctx}")
    return _class_of(x)


def bc_pair_sequence_of(C: ClassSymbol) -> Optional[PairSequenceBC]:
    """Recover the pair sequence of a special B/C class, or None."""
    if C.kind != "classical":
        return None
    merged = partition(C.r + C.p)
    padded = merged + ((0,) if len(merged) % 2 else ())
    x = PairSequenceBC._trusted(tuple(zip(padded[::2], padded[1::2])))
    return x if in_A(x) and _class_of(x) == C else None


def d_pair_sequence_of(C: ClassSymbol) -> Optional[PairSequenceD]:
    """Recover the unique flagged pair sequence of a special D class, or None.

    Pairs are consecutive entries of the merged record, and their flags are
    forced: an odd pair carries 0, an unequal even pair 1, and an equal even
    pair (v, v) carries 1 exactly when two copies of v are still unclaimed in
    ``r``, which it then claims.  The result counts only if it lies in the D
    special set and claims all of ``r``.
    """
    if C.kind != "classical":
        return None
    merged = partition(C.r + C.p)
    if len(merged) % 2:
        return None
    left = Counter(C.r)
    pairs = []
    for a, b in zip(merged[::2], merged[1::2]):
        e = int(a % 2 == 0 and (a != b or left[a] >= 2))
        if e:
            left[a] -= 1
            left[b] -= 1
        pairs.append((a, b, e))
    x = PairSequenceD._trusted(tuple(pairs))
    return x if in_C(x) and not any(left.values()) else None


def special_classes(ctx: GroupContext, bound: int = DEFAULT_RANK_BOUND) -> list[ClassSymbol]:
    """The special classes of the context, deterministically ordered; a
    classical rank above ``bound`` is refused before any enumeration."""
    check_rank_bound(ctx, bound)
    if ctx.family == "A":
        return enumerate_classes(ctx, bound=bound)
    if ctx.is_exceptional:
        return [ClassSymbol._trusted(None, None, None, lab) for lab in load_tau_table(ctx.family)]
    if ctx.family in ("B", "C"):
        return [_class_of(x) for x in enumerate_A(ctx.rank)]
    return [_class_of(x) for x in enumerate_C(ctx.rank)]


def tau(ctx: GroupContext, C: ClassSymbol) -> str:
    """Label of the special representation attached to a special class.

    For split type-D classes this is the common label of the two halves;
    which half corresponds to which of the two twin representations is not
    fixed.
    """
    validate_class(ctx, C)
    if ctx.family == "A":
        return format_partition(C.cycle_type)
    if ctx.is_exceptional:
        rep = load_tau_table(ctx.family).get(C.label)
    elif ctx.family in ("B", "C"):
        x = bc_pair_sequence_of(C)
        rep = None if x is None else str(h(x))
    else:
        x = d_pair_sequence_of(C)
        rep = None if x is None else str(_k_image(x))  # d_pair_sequence_of has checked in_C
    if rep is None:
        raise NotSpecial(f"{C} is not special in {ctx}")
    return rep


def is_special_class(ctx: GroupContext, C: ClassSymbol) -> bool:
    """Whether ``tau`` attaches a special representation to the class
    (every class in type A).

    Total: anything that is not a special class of the context, including
    symbols of the wrong shape, yields False rather than an error; a
    corrupt table still raises ``TableIntegrityError``.
    """
    try:
        tau(ctx, C)
    except BadInput:
        return False
    return True


# --- exceptional tau tables --------------------------------------------------

#: The data file of each exceptional family's special-class table.
TAU_FILES = {family: f"tau_{family.lower()}.tbl" for family in EXCEPTIONAL_RANK}

_TAU_ROW_RE = re.compile(r"class\s*=\s*(?P<cls>\S+)\s*;\s*tau\s*=\s*(?P<rep>\S+)\s*$")


def is_bijective_table(rows) -> bool:
    """Whether no class label and no representation label repeats among the
    (class label, representation label) rows of a special-class table."""
    return len({lab for lab, _ in rows}) == len(rows) == len({rep for _, rep in rows})


@lru_cache(maxsize=None)
def load_tau_table(family: str) -> Mapping[CarterLabel, str]:
    """The special-class table of an exceptional family, read-only, as
    {class label: representation label} in file order."""
    if family not in TAU_FILES:
        raise WrongFamily(f"no special-class table for family {family!r}")
    filename = TAU_FILES[family]
    rows = [(table_label(filename, m["cls"]), m["rep"]) for m in read_rows(filename, _TAU_ROW_RE)]
    if not is_bijective_table(rows):
        raise TableIntegrityError(f"{filename}: duplicate rows")
    return MappingProxyType(dict(rows))
