"""The class-to-unipotent surjection, its canonical section, and the
cross-characteristic comparison maps.

For the classical types everything is partition combinatorics:

* type C, good characteristic: merge the two cycle records;
* types C/B in characteristic 2: merge and mark the even values that came
  from the stable record;
* types B/D, good characteristic: first trade the all-even stable record
  for a mixed-parity one (``xi``), then merge;
* type D in characteristic 2: the marked merge, restricted to even-length
  records.

The section ``psi`` picks, in every fiber, the unique pair whose swap-cycle
record is shortest: in type C, even values go to the stable record and odd
ones to the swap record; in characteristic 2, an even value marked 0 goes to
the swap record too; in types B/D, the mixed-parity minimizer
(``orthogonal_fiber_minimizer``) is pulled back through ``xi``.  Exceptional
types are table lookups.

Each map checks its input once, ``phi`` by ``validate_class`` and ``psi`` by
``validate_unipotent``, then runs a private core per case (``_iota2``,
``_xi``, ``_psi_marked``, ...) that assumes what the validation proved.  The
three record helpers ``xi``, ``xi_inv`` and ``orthogonal_fiber_minimizer``
check their own input before they run their cores.  In an exceptional
context the validation is the table lookup, and the map reads its answer
instead of looking again.
"""

from __future__ import annotations

from itertools import groupby, product
from math import prod
from typing import Callable, Optional

from ._value import Value
from .errors import BadInput, BoundExceeded, NotInR, UnknownUnipotent
from .partitions import (
    MarkedPartition,
    Partition,
    check_kappa,
    check_partition,
    epsilon_domain,
    format_marked,
    format_partition,
    in_Q,
    in_R,
    in_S_kappa,
    in_T,
    multiplicity,
    parse_marked,
    parse_partition,
    partition,
    partitions_of,
)
from .weyl_classes import (
    DEFAULT_RANK_BOUND,
    CarterLabel,
    ClassSymbol,
    GroupContext,
    _package,
    check_rank_bound,
    validate_class,
)


class UnipotentSymbol(Value):
    """A unipotent class: a Jordan type, a marked Jordan type, or a name.

    The constructor checks that a Jordan type is a canonical partition, and
    stores it as a tuple, that a marked one is a ``MarkedPartition`` and that
    a name is a ``str``."""

    __slots__ = ("partition", "marked", "name")
    partition: Optional[Partition]
    marked: Optional[MarkedPartition]
    name: Optional[str]

    def __new__(
        cls,
        partition: Optional[Partition] = None,
        marked: Optional[MarkedPartition] = None,
        name: Optional[str] = None,
    ):
        if (partition is not None) + (marked is not None) + (name is not None) != 1:
            raise BadInput("unipotent symbol must have exactly one shape")
        if partition is not None:
            partition = check_partition(partition)
        elif marked is not None and not isinstance(marked, MarkedPartition):
            raise BadInput(f"marked Jordan type must be a MarkedPartition, got {marked!r}")
        elif name is not None and not isinstance(name, str):
            raise BadInput(f"unipotent name must be a str, got {name!r}")
        return cls._trusted(partition, marked, name)

    @property
    def kind(self) -> str:
        if self.partition is not None:
            return "plain"
        if self.marked is not None:
            return "marked"
        return "named"

    def __str__(self) -> str:
        if self.kind == "plain":
            return format_partition(self.partition)
        if self.kind == "marked":
            return format_marked(self.marked)
        return self.name


def _jordan_size(ctx: GroupContext) -> int:
    """The size of the Jordan types of an A/B/C/D context: rank+1 for A,
    2n+1 for B in good characteristic, 2n otherwise."""
    if ctx.family == "A":
        return ctx.rank + 1
    return 2 * ctx.rank + (ctx.family == "B" and ctx.char == "good")


def _is_jordan_type(ctx: GroupContext) -> Callable[[Partition], bool]:
    """The test, picked once per context, of whether a partition is the Jordan
    type of a unipotent class: of size ``_jordan_size(ctx)``, orthogonal (even
    values paired) for B/D in good characteristic, symplectic (odd values
    paired) otherwise, of even length for D in characteristic 2."""
    n = _jordan_size(ctx)
    if ctx.family == "A":
        return lambda c: sum(c) == n
    if ctx.family in ("B", "D") and ctx.char == "good":
        return lambda c: in_Q(c, n)
    even_length = ctx.family == "D"
    return lambda c: in_T(c, n) and not (even_length and len(c) % 2)


def parse_unipotent(ctx: GroupContext, text: str) -> UnipotentSymbol:
    """Parse the text form of a unipotent class for the given context;
    ``validate_unipotent`` decides whether it is one."""
    text = text.strip()
    if ctx.is_exceptional:
        return UnipotentSymbol(name=text)
    if ctx.char == "p2":
        return UnipotentSymbol(marked=parse_marked(text))
    return UnipotentSymbol(partition=parse_partition(text))


def validate_unipotent(ctx: GroupContext, u: UnipotentSymbol) -> tuple[CarterLabel, ...] | None:
    """Raise BadInput unless ``u`` is a unipotent class of the context's group.

    In an exceptional context the check is the table lookup itself, so its
    result, the fiber over ``u`` (minimizer first), is returned for the map
    to use; otherwise return None."""
    if ctx.is_exceptional:
        if u.kind != "named":
            raise BadInput(f"{u} is not a unipotent class of {ctx}")
        try:
            return _package.exceptional_tables.fiber(ctx, u.name)
        except UnknownUnipotent:
            raise BadInput(f"unknown unipotent name {u.name!r} for {ctx}") from None
    if ctx.char == "p2":
        ok = u.kind == "marked" and _is_jordan_type(ctx)(u.marked.c)
    else:
        ok = u.kind == "plain" and _is_jordan_type(ctx)(u.partition)
    if not ok:
        raise BadInput(f"{u} is not a unipotent class of {ctx}")


# --- the elementary maps ---------------------------------------------------
#
# A public map checks its input, each record first by ``check_partition``,
# then runs its private core, if it has one.  A core assumes that check;
# ``phi`` and ``psi`` prove it on the same value before they call the core.
# Symbols follow one rule: a value type's constructor checks its fields, then
# builds the value with ``cls._trusted``.  A caller's values go through the
# constructors; values the library builds canonically (an enumerator's output,
# a ``partition()`` result, a subsequence of a checked partition) go straight
# to ``_trusted``, which skips the re-check.


def _iota2(r: Partition, c: Partition) -> MarkedPartition:
    """The characteristic-2 marking of ``phi``, given ``c``, the canonical
    merge of the stable record ``r`` with a swap record: an even value of
    even multiplicity gets bit 1 exactly when it occurs in ``r``.  The
    domain is ``epsilon_domain(c)`` and every bit is 0 or 1 by construction,
    so the result is built trusted."""
    r_values = set(r)
    return MarkedPartition._trusted(c, tuple((j, int(j in r_values)) for j in epsilon_domain(c)))


def xi(r: Partition, kappa: int) -> Partition:
    """Trade an all-even cycle record for its mixed-parity Jordan string.

    Entry t gains 1 when t is odd and the entry strictly drops from its
    predecessor (vacuously at t=1), loses 1 when t is even and the entry
    strictly dominates its successor (vacuously at the end), else is kept;
    a final 1 is appended when length+kappa is odd.
    """
    r = check_partition(r)
    if not in_S_kappa(r, kappa):
        raise BadInput(f"not a valid stable cycle record for kappa={kappa}: {r}")
    return _xi(r, kappa)


def _xi(r: Partition, kappa: int) -> Partition:
    sigma = len(r)
    out = []
    for t in range(1, sigma + 1):
        v = r[t - 1]
        if t % 2 == 1:
            v += 1 if (t == 1 or r[t - 2] > v) else 0
        else:
            v -= 1 if (t == sigma or v > r[t]) else 0
        out.append(v)
    if (sigma + kappa) % 2 == 1:
        out.append(1)
    return tuple(out)


def xi_inv(c: Partition, kappa: int) -> Partition:
    """Inverse of ``xi``: odd entries move by (-1)^position, even entries are
    kept, and a final entry equal to ``kappa`` is dropped."""
    return _xi_inv(check_partition(c), kappa)


def _xi_inv(c: Partition, kappa: int) -> Partition:
    # ``xi_inv`` on a canonical ``c``; ``psi`` keeps these checks as its guard
    check_kappa(kappa)
    if not in_R(c):
        raise NotInR(f"not in the image of the adjustment map: {c}")
    if sum(c) % 2 != kappa:
        raise BadInput(f"|c|={sum(c)} has wrong parity for kappa={kappa}")
    tau = len(c)
    keep = tau - 1 if (tau and c[-1] == kappa) else tau
    out = []
    for k in range(1, keep + 1):
        v = c[k - 1]
        if v % 2 == 1:
            v += 1 if k % 2 == 0 else -1
        out.append(v)
    return tuple(out)


# --- fiber minimizers ------------------------------------------------------
#
# ``psi``'s cores for type C and for characteristic 2, each run on a Jordan
# type that ``validate_unipotent`` accepted, and the orthogonal minimizer.


def _psi_even_r(c: Partition) -> tuple[Partition, Partition]:
    r = tuple(x for x in c if x % 2 == 0)
    p = tuple(x for x in c if x % 2 == 1)
    return r, p


def _psi_marked(cm: MarkedPartition) -> tuple[Partition, Partition]:
    eps = cm.eps_map()
    r, p = [], []
    for x in cm.c:
        if x % 2 == 1 or eps.get(x) == 0:
            p.append(x)
        else:
            r.append(x)
    return tuple(r), tuple(p)


def orthogonal_fiber_minimizer(c: Partition) -> tuple[Partition, Partition]:
    """The unique shortest-p splitting of an orthogonal Jordan type into a
    mixed-parity stable string and a paired swap record, in one pass over
    the value blocks of ``c``.

    An odd block of odd multiplicity keeps one copy in the stable string,
    one of even multiplicity two copies when an odd number of odd entries of
    ``c`` lie above it and none otherwise.  An even block stays there when an
    odd number of the kept odd entries lie above it, else it goes to the
    swap record: the paper's gap condition, which puts the string in R.
    """
    c = check_partition(c)
    if not in_Q(c, sum(c)):
        raise BadInput(f"even value with odd multiplicity: {c}")
    return _orthogonal_fiber_minimizer(c)


def _orthogonal_fiber_minimizer(c: Partition) -> tuple[Partition, Partition]:
    r, p = [], []
    odd_above = kept_above = 0
    for x, block in groupby(c):
        block = tuple(block)
        if x % 2:
            q = len(block)
            keep = 1 if q % 2 else 2 * (odd_above % 2)
            r += block[:keep]
            p += block[keep:]
            odd_above += q
            kept_above += keep
        elif kept_above % 2:
            r += block
        else:
            p += block
    return tuple(r), tuple(p)


# --- the main maps ---------------------------------------------------------


def phi(ctx: GroupContext, C: ClassSymbol) -> UnipotentSymbol:
    """The surjection from classes of the Weyl group to unipotent classes."""
    name = validate_class(ctx, C)
    if ctx.family == "A":
        return UnipotentSymbol._trusted(C.cycle_type, None, None)
    if ctx.is_exceptional:
        return UnipotentSymbol._trusted(None, None, name)
    # validate_class proved r in S_kappa and p paired, so the merge is
    # partition(r + p), and r passes xi's check
    if ctx.char == "p2":
        return UnipotentSymbol._trusted(None, _iota2(C.r, partition(C.r + C.p)), None)
    if ctx.family == "C":
        return UnipotentSymbol._trusted(partition(C.r + C.p), None, None)
    return UnipotentSymbol._trusted(partition(_xi(C.r, ctx.kappa) + C.p), None, None)


def psi(ctx: GroupContext, u: UnipotentSymbol) -> ClassSymbol:
    """The section of ``phi`` picking the fiber element with the smallest
    fixed space."""
    fiber = validate_unipotent(ctx, u)
    if ctx.family == "A":
        return ClassSymbol._trusted(u.partition, None, None, None)
    if ctx.is_exceptional:
        return ClassSymbol._trusted(None, None, None, fiber[0])
    # validate_unipotent proved in_T(c, 2n) for the symplectic Jordan types,
    # which the C and p2 cores assume, and in_Q(c, 2n + kappa) for the
    # orthogonal ones, which is the minimizer's check and fixes the parity
    # that _xi_inv checks again.  The C and
    # p2 records are subsequences of the checked Jordan type, so they are
    # canonical by construction; xi_inv's output is canonical by a theorem,
    # and the checked constructor is its only runtime guard
    if ctx.char == "p2":
        return ClassSymbol._trusted(None, *_psi_marked(u.marked), None)
    if ctx.family == "C":
        return ClassSymbol._trusted(None, *_psi_even_r(u.partition), None)
    r_mixed, p = _orthogonal_fiber_minimizer(u.partition)
    return ClassSymbol(r=_xi_inv(r_mixed, ctx.kappa), p=p)


def rho(ctx_p: GroupContext, u: UnipotentSymbol) -> UnipotentSymbol:
    """Characteristic-p unipotent class to its good-characteristic image:
    apply the good-characteristic surjection to the section's value."""
    return phi(ctx_p.good(), psi(ctx_p, u))


def pi(ctx_p: GroupContext, u0: UnipotentSymbol) -> UnipotentSymbol:
    """Good-characteristic unipotent class to its characteristic-p image:
    apply the characteristic-p surjection to the good section's value."""
    return phi(ctx_p, psi(ctx_p.good(), u0))


# --- fibers ----------------------------------------------------------------

#: The most splittings ``fiber_of`` builds for one Jordan type; no Jordan type
#: of rank 20 or below has more than 128.
FIBER_SPLITTING_LIMIT = 2**16


def splittings(c: Partition) -> list[tuple[Partition, Partition]]:
    """Every way to move an even number of copies of each value of ``c``
    into a paired record ``p``, leaving the rest as ``r``.  The values are
    walked in decreasing order, so both records come out canonical."""
    choices = []
    for v, run in groupby(sorted(c, reverse=True)):
        q = len(list(run))
        choices.append([((v,) * (q - 2 * t), (v,) * (2 * t)) for t in range(q // 2 + 1)])
    out = []
    for picks in product(*choices):
        r = p = ()
        for kept, moved in picks:
            r += kept
            p += moved
        out.append((r, p))
    return out


def fiber_of(ctx: GroupContext, u: UnipotentSymbol) -> list[ClassSymbol]:
    """The fiber of ``phi`` over ``u``: the section value first, then the
    other classes in ``enumerate_classes`` order.

    Every class over a classical ``u`` splits its Jordan type into a stable
    and a paired record, so the fiber is found among ``splittings`` of it,
    without enumerating the group.  Their number is counted first, and a
    Jordan type with more than ``FIBER_SPLITTING_LIMIT`` is refused with
    ``BoundExceeded``.
    """
    if ctx.is_exceptional:
        return [ClassSymbol._trusted(None, None, None, lab) for lab in validate_unipotent(ctx, u)]
    first = psi(ctx, u)
    if ctx.family == "A":
        return [first]
    c = u.marked.c if u.kind == "marked" else u.partition
    count = prod(multiplicity(c, v) // 2 + 1 for v in set(c))
    if count > FIBER_SPLITTING_LIMIT:
        raise BoundExceeded(f"{count} splittings exceed the fiber limit {FIBER_SPLITTING_LIMIT}")
    orthogonal = ctx.family in ("B", "D") and ctx.char == "good"
    rest = []
    for r, p in splittings(c):
        if orthogonal:
            if not in_R(r):
                continue
            r = _xi_inv(r, ctx.kappa)
        if not in_S_kappa(r, ctx.kappa):
            continue
        C = ClassSymbol(r=r, p=p)
        if C != first and phi(ctx, C) == u:
            rest.append(C)
    # enumerate_classes order: |r| descending, then r, then p, each
    # lexicographically descending
    rest.sort(key=lambda C: (sum(C.r), C.r, C.p), reverse=True)
    return [first] + rest


# --- enumeration -----------------------------------------------------------


def enumerate_unipotents(
    ctx: GroupContext, bound: int = DEFAULT_RANK_BOUND
) -> list[UnipotentSymbol]:
    """All unipotent classes of the context, in a fixed deterministic order.

    Each call builds a fresh list and refuses a classical rank above
    ``bound``.  The names come from the checked table, the Jordan types
    canonical from ``partitions_of``, and each marking covers
    ``epsilon_domain`` with 0/1 bits, so every symbol is built by
    ``_trusted``, without the constructors' checks.
    """
    check_rank_bound(ctx, bound)
    if ctx.is_exceptional:
        table = _package.exceptional_tables.load_table(ctx)
        return [UnipotentSymbol._trusted(None, None, n) for n in table.unipotent_names()]
    cs = list(filter(_is_jordan_type(ctx), partitions_of(_jordan_size(ctx))))
    if ctx.char != "p2":
        return [UnipotentSymbol._trusted(c, None, None) for c in cs]
    out = []
    for c in cs:
        dom = epsilon_domain(c)
        for bits in product((0, 1), repeat=len(dom)):
            out.append(UnipotentSymbol._trusted(None, MarkedPartition._trusted(c, tuple(zip(dom, bits))), None))
    return out
