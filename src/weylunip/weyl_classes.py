"""Conjugacy-class symbols for the Weyl groups of every simple type.

Classical classes are pairs (r, p): ``r`` holds the sizes of the cycles that
are stable under the flip i -> N-i+1 of the underlying permutation model
(all even), ``p`` the sizes of the remaining cycles (pairing up).  Type A
classes are cycle types, exceptional classes are admissible-diagram labels.
"""

from __future__ import annotations

import re
from typing import Optional

from ._value import Value
from .errors import (
    BadInput,
    BoundExceeded,
    InvalidClass,
    ParseError,
    UnknownClass,
    WrongFamily,
)
from .partitions import (
    Partition,
    check_partition,
    even_partitions_of,
    format_partition,
    in_P_tilde,
    in_S_kappa,
    paired_partitions_of,
    parse_partition,
    partitions_of,
)

# The catalogue of simple types: the least rank of each classical family, the
# fixed rank of each exceptional one, and the characteristic variants of
# each.  The command line, the oracle and the table file names read it.
MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
FAMILIES = (*MIN_RANK, *EXCEPTIONAL_RANK)
CHAR_VARIANTS = {
    "A": ("good",),
    "B": ("good", "p2"),
    "C": ("good", "p2"),
    "D": ("good", "p2"),
    "G2": ("good", "p3"),
    "F4": ("good", "p2"),
    "E6": ("good",),
    "E7": ("good", "p2"),
    "E8": ("good", "p2", "p3"),
}

#: Safety bound for classical class/unipotent enumerations (rank).
DEFAULT_RANK_BOUND = 20
#: Default rank bound for the oracle's exhaustive fiber scans.
DEFAULT_FIBER_BOUND = 12
#: The suites ``oracle.run_suites`` plans and ``verify --suite`` offers,
#: ``all`` running every other one.
SUITES = ("theorem02", "phipsi", "xi", "fiber-min", "rhopi", "tables", "special", "all")


class GroupContext(Value):
    """Simple type, rank and characteristic variant.

    ``char`` is one of ``good``, ``p2``, ``p3``; ``good`` stands for any
    characteristic that is not singled out for the family.
    """

    __slots__ = ("family", "rank", "char")
    family: str
    rank: int
    char: str

    def __new__(cls, family: str, rank: int, char: str = "good"):
        if family not in FAMILIES:
            raise BadInput(f"unknown family {family!r}")
        # type(rank) is int, not isinstance, so a bool is refused
        if type(rank) is not int:
            raise BadInput(f"rank must be an integer, got {rank!r}")
        if family in EXCEPTIONAL_RANK:
            if rank != EXCEPTIONAL_RANK[family]:
                raise BadInput(f"rank of {family} is fixed at {EXCEPTIONAL_RANK[family]}")
        elif rank < MIN_RANK[family]:
            raise BadInput(f"rank of {family} must be >= {MIN_RANK[family]}")
        if char not in CHAR_VARIANTS[family]:
            raise BadInput(
                f"characteristic variant {char!r} not valid for {family} "
                f"(allowed: {', '.join(CHAR_VARIANTS[family])})"
            )
        return cls._trusted(family, rank, char)

    @property
    def is_exceptional(self) -> bool:
        return self.family in EXCEPTIONAL_RANK

    @property
    def is_classical_bcd(self) -> bool:
        return self.family in ("B", "C", "D")

    @property
    def kappa(self) -> int:
        """Cycle-record parity: 0 for type D, 1 for types B and C."""
        if not self.is_classical_bcd:
            raise WrongFamily(f"kappa undefined for family {self.family}")
        return 0 if self.family == "D" else 1

    def good(self) -> "GroupContext":
        """The good-characteristic variant of the same group."""
        return GroupContext._trusted(self.family, self.rank, "good")

    def __str__(self) -> str:
        return f"{self.family}{'' if self.is_exceptional else '_' + str(self.rank)}/{self.char}"


def context(family: str, rank: Optional[int] = None, char: str = "good") -> GroupContext:
    """Convenience constructor; the rank of an exceptional family is implied."""
    if rank is None:
        if family not in EXCEPTIONAL_RANK:
            raise BadInput(f"rank required for family {family!r}")
        rank = EXCEPTIONAL_RANK[family]
    return GroupContext(family, rank, char)


# --- Carter labels ---------------------------------------------------------

_SERIES = frozenset(tilde + letter for tilde in ("", "~") for letter in "ABCDEFG")
_QUALIFIER_RE = re.compile(r"\(a_[0-9]+\)")
_COMPONENT_RE = re.compile(
    r"(?P<mult>[0-9]+)?(?P<tilde>~)?(?P<letter>[A-G])(?P<primes>'{0,2})_(?P<sub>[0-9]+)"
    rf"(?P<qual>{_QUALIFIER_RE.pattern})?"
)


class CarterComponent(Value):
    """One simple-diagram component of a class label: ``multiplier`` copies
    (at least 1) of ``series`` (a letter A..G, perhaps after a tilde) with
    ``subscript`` (at least 0, for A_0), and an optional qualifier ``(a_k)``."""

    __slots__ = ("multiplier", "series", "subscript", "qualifier")
    multiplier: int
    series: str  # "A", "~A", "B", ..., "G"
    subscript: int
    qualifier: Optional[str]  # e.g. "(a_1)"

    def __new__(cls, multiplier: int, series: str, subscript: int, qualifier: Optional[str] = None):
        # type(x) is int, not isinstance, so a bool is refused
        if type(multiplier) is not int or multiplier < 1:
            raise BadInput(f"multiplier must be an integer >= 1, got {multiplier!r}")
        if type(series) is not str or series not in _SERIES:
            raise BadInput(f"series must be one of A..G or ~A..~G, got {series!r}")
        if type(subscript) is not int or subscript < 0:
            raise BadInput(f"subscript must be an integer >= 0, got {subscript!r}")
        if qualifier is not None and not (type(qualifier) is str and _QUALIFIER_RE.fullmatch(qualifier)):
            raise BadInput(f"qualifier must be None or of the form (a_k), got {qualifier!r}")
        return cls._trusted(multiplier, series, subscript, qualifier)

    def __str__(self) -> str:
        return self._render(0)

    def _render(self, primes: int) -> str:
        mult = str(self.multiplier) if self.multiplier > 1 else ""
        return f"{mult}{self.series}{primes * chr(39)}_{self.subscript}{self.qualifier or ''}"


class CarterLabel(Value):
    """A class name built from simple-diagram components, e.g. D_4(a_1)+2A_1.

    ``components`` is a non-empty tuple of ``CarterComponent``; ``primes``
    counts trailing primes, the int 0, 1 or 2; ``parenthesized``, a bool,
    records whether they attach to the whole bracketed name, as in (3A_1)',
    rather than to the single component letter, as in A'_5.  Printing
    round-trips exactly.
    """

    __slots__ = ("components", "primes", "parenthesized")
    components: tuple[CarterComponent, ...]
    primes: int
    parenthesized: bool

    def __new__(cls, components: tuple[CarterComponent, ...], primes: int = 0, parenthesized: bool = False):
        if type(components) is not tuple or {type(c) for c in components} != {CarterComponent}:
            raise BadInput(f"components must be a non-empty tuple of CarterComponent, got {components!r}")
        if type(primes) is not int:
            raise BadInput(f"primes must be an integer, got {primes!r}")
        if primes not in (0, 1, 2):
            raise BadInput("at most two primes supported")
        if type(parenthesized) is not bool:
            raise BadInput(f"parenthesized must be a bool, got {parenthesized!r}")
        if primes and not parenthesized and len(components) != 1:
            raise BadInput("attached primes require a single component")
        return cls._trusted(components, primes, parenthesized)

    @property
    def rank(self) -> int:
        """Sum of multiplier * subscript over the components."""
        return sum(c.multiplier * c.subscript for c in self.components)

    def __str__(self) -> str:
        if self.primes and not self.parenthesized:
            return self.components[0]._render(self.primes)
        body = "+".join(str(c) for c in self.components)
        if self.parenthesized:
            return f"({body})" + self.primes * "'"
        return body


def _parse_components(text: str, offset: int) -> tuple[tuple[CarterComponent, ...], int]:
    comps = []
    attached = 0
    pos = 0
    while True:
        m = _COMPONENT_RE.match(text, pos)
        if not m or (m.group("tilde") and m.group("primes")):
            raise ParseError(f"bad class label component in {text!r}", offset + pos)
        primes = len(m.group("primes"))
        if primes:
            attached = primes
        # the pattern proves every field of the component but this bound, so
        # the component is built without the constructor's other checks
        multiplier = int(m.group("mult") or 1)
        if multiplier < 1:
            raise BadInput(f"multiplier must be an integer >= 1, got {multiplier}")
        series = ("~" if m.group("tilde") else "") + m.group("letter")
        comps.append(CarterComponent._trusted(multiplier, series, int(m.group("sub")), m.group("qual")))
        pos = m.end()
        if pos == len(text):
            break
        if text[pos] != "+":
            raise ParseError(f"expected '+' in {text!r}", offset + pos)
        pos += 1
    if attached and len(comps) != 1:
        raise ParseError(f"attached primes only allowed on a single component: {text!r}", offset)
    return tuple(comps), attached


def parse_carter_label(text: str) -> CarterLabel:
    """Parse a printed class label; tildes are written '~', primes \"'\"."""
    s = text.strip()
    if not s:
        raise ParseError("empty class label", 0)
    if s.startswith("("):
        # only primes may follow the outer ")", and a body that parses has
        # balanced (a_k) qualifiers, so the outer ")" is the last one
        close = s.rfind(")")
        if close < 0:
            raise ParseError(f"unbalanced parenthesis in {s!r}", 0)
        tail = s[close + 1 :]
        if tail and set(tail) != {"'"}:
            raise ParseError(f"unexpected trailing text {tail!r} in {s!r}", close + 1)
        comps, attached = _parse_components(s[1:close], 1)
        if attached:
            raise ParseError(f"primes inside parentheses not supported: {s!r}", 1)
        return CarterLabel(comps, primes=len(tail), parenthesized=True)
    comps, attached = _parse_components(s, 0)
    return CarterLabel(comps, primes=attached, parenthesized=False)


# --- class symbols ---------------------------------------------------------


class ClassSymbol(Value):
    """A conjugacy class of a Weyl group, in one of three shapes.

    Exactly one of ``cycle_type`` (type A), the pair ``r``/``p`` (types
    B/C/D) or ``label`` (exceptional types) is set; the constructor checks
    that each record set is a canonical partition, and stores it as a tuple,
    and that a label is a ``CarterLabel``.
    """

    __slots__ = ("cycle_type", "r", "p", "label")
    cycle_type: Optional[Partition]
    r: Optional[Partition]
    p: Optional[Partition]
    label: Optional[CarterLabel]

    def __new__(
        cls,
        cycle_type: Optional[Partition] = None,
        r: Optional[Partition] = None,
        p: Optional[Partition] = None,
        label: Optional[CarterLabel] = None,
    ):
        classical = r is not None or p is not None
        if (cycle_type is not None) + classical + (label is not None) != 1:
            raise BadInput("class symbol must have exactly one shape")
        if cycle_type is not None:
            cycle_type = check_partition(cycle_type)
        elif classical:
            if r is None or p is None:
                raise BadInput("classical class symbol needs both r and p")
            r = check_partition(r)
            p = check_partition(p)
        elif not isinstance(label, CarterLabel):
            raise BadInput(f"class label must be a CarterLabel, got {label!r}")
        return cls._trusted(cycle_type, r, p, label)

    @property
    def kind(self) -> str:
        if self.cycle_type is not None:
            return "A"
        if self.label is not None:
            return "exceptional"
        return "classical"

    def __str__(self) -> str:
        if self.kind == "A":
            return format_partition(self.cycle_type)
        if self.kind == "classical":
            return f"r={format_partition(self.r)};p={format_partition(self.p)}"
        return str(self.label)


def parse_class(ctx: GroupContext, text: str) -> ClassSymbol:
    """Parse the text form of a class, dispatching on the context family."""
    text = text.strip()
    if ctx.family == "A":
        return ClassSymbol(cycle_type=parse_partition(text))
    if ctx.is_classical_bcd:
        m = re.fullmatch(r"r=(?P<r>[0-9,]*);p=(?P<p>[0-9,]*)", text)
        if not m:
            raise ParseError(f"classical class must look like 'r=...;p=...': {text!r}")
        return ClassSymbol(r=parse_partition(m.group("r")), p=parse_partition(m.group("p")))
    return ClassSymbol(label=parse_carter_label(text))


def validate_class(ctx: GroupContext, C: ClassSymbol) -> str | None:
    """Raise InvalidClass unless ``C`` is a class of the context's group.

    In an exceptional context the check is the table lookup itself, so its
    result, the name of the unipotent class of the fiber of ``C``, is
    returned for the map to use; otherwise return None."""
    if ctx.family == "A":
        if C.kind != "A" or sum(C.cycle_type) != ctx.rank + 1:
            raise InvalidClass(f"{C} is not a class of {ctx}")
        return
    if ctx.is_classical_bcd:
        if C.kind != "classical":
            raise InvalidClass(f"{C} is not a class of {ctx}")
        if not in_S_kappa(C.r, ctx.kappa):
            raise InvalidClass(f"invalid stable cycle record {C.r} for {ctx}")
        if not in_P_tilde(C.p):
            raise InvalidClass(f"unpaired swap-cycle record {C.p} for {ctx}")
        if sum(C.r) + sum(C.p) != 2 * ctx.rank:
            raise InvalidClass(f"|r|+|p| must be {2 * ctx.rank} in {ctx}: {C}")
        return
    if C.kind != "exceptional":
        raise InvalidClass(f"{C} is not a class of {ctx}")
    try:
        return exceptional_tables.phi_lookup(ctx, C.label)
    except UnknownClass:
        raise InvalidClass(f"label {C.label} unknown in {ctx}") from None


def m_of_class(ctx: GroupContext, C: ClassSymbol) -> int:
    """Dimension of the fixed space of the class on the reflection representation."""
    validate_class(ctx, C)
    if C.kind == "A":
        return len(C.cycle_type) - 1
    if C.kind == "classical":
        return len(C.p) // 2
    return ctx.rank - C.label.rank


def is_split_weyl_class(ctx: GroupContext, C: ClassSymbol) -> bool:
    """Type D only: whether the class meets the full (index-2-larger) group
    in two classes, i.e. has no flip-stable cycles and only even cycle sizes."""
    if ctx.family != "D":
        raise WrongFamily(f"split classes only exist in type D, not {ctx.family}")
    validate_class(ctx, C)
    return C.r == () and all(x % 2 == 0 for x in C.p)


def split_tag(ctx: GroupContext, C: ClassSymbol, tag: str = " [split]") -> str:
    """``tag`` if C is a type-D class that splits in the index-2 subgroup,
    else the empty string; the atlas writes the tag as ``" split=1"``."""
    return tag if ctx.family == "D" and is_split_weyl_class(ctx, C) else ""


def check_rank_bound(ctx: GroupContext, bound: int) -> None:
    """Refuse a classical context whose rank is above ``bound``, before any
    enumeration; an exceptional context has a fixed size and passes.  A
    ``bound`` that is not an integer is refused in every context."""
    if type(bound) is not int:
        raise BadInput(f"rank bound must be an integer, got {bound!r}")
    if not ctx.is_exceptional and ctx.rank > bound:
        raise BoundExceeded(f"rank {ctx.rank} exceeds enumeration bound {bound}")


def enumerate_classes(ctx: GroupContext, bound: int = DEFAULT_RANK_BOUND) -> list[ClassSymbol]:
    """All classes of the context, duplicate-free, in a fixed deterministic order.

    For type D the list is at the level of the ambient permutation group
    (split classes appear once; see ``is_split_weyl_class``).

    Each call builds a fresh list and refuses a classical rank above
    ``bound``.  The labels come from the checked table and the records
    canonical from the enumerators, so every class is built by
    ``ClassSymbol._trusted``, without the constructor's checks.
    """
    check_rank_bound(ctx, bound)
    if ctx.is_exceptional:
        table = exceptional_tables.load_table(ctx)
        return [ClassSymbol._trusted(None, None, None, lab) for row in table.rows for lab in row.classes]
    if ctx.family == "A":
        return [ClassSymbol._trusted(p, None, None, None) for p in partitions_of(ctx.rank + 1)]
    two_n = 2 * ctx.rank
    return [
        ClassSymbol._trusted(None, r, p, None)
        for rsum in range(two_n, -1, -2)
        for r in even_partitions_of(rsum)
        if ctx.family != "D" or len(r) % 2 == 0
        for p in paired_partitions_of(two_n - rsum)
    ]


# imported last: the table reader itself reads the symbols defined above
from . import exceptional_tables  # noqa: E402
