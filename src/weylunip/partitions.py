"""Integer partitions and the membership predicates the class maps run on.

A partition is stored canonically as a weakly decreasing tuple of positive
integers with no trailing zeros.  Formulas that are stated for zero-padded
sequences are implemented by treating missing entries as zeros on read.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import lt, mod
from typing import Iterable

from ._value import Value
from .errors import BadInput, NotInQ, ParseError

Partition = tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Canonicalize ``parts`` into a partition (sort decreasingly, drop zeros)."""
    out = tuple(sorted(parts, reverse=True))
    if out and out[-1] < 0:
        raise BadInput(f"negative entry in partition: {out}")
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def check_partition(p) -> Partition:
    """Validate that ``p`` already is a canonical partition and return it."""
    try:
        p = tuple(p)
    except TypeError:
        raise BadInput(f"partition must be a sequence of integers, got {p!r}") from None
    # type(x) is int, not isinstance, so a bool is refused
    if p and (not all(type(x) is int for x in p) or min(p) <= 0):
        raise BadInput(f"partition entries must be positive integers: {p}")
    if any(map(lt, p, p[1:])):
        raise BadInput(f"partition entries must be weakly decreasing: {p}")
    return p


def multiplicity(p: Partition, j: int) -> int:
    """Number of entries of ``p`` equal to ``j``."""
    return p.count(j)


def in_P_tilde(p: Partition) -> bool:
    """Entries pair up in place: p1=p2, p3=p4, ...

    Equivalent to every value occurring an even number of times.
    """
    return p[::2] == p[1::2]


def check_kappa(kappa) -> None:
    """Refuse a record parity ``kappa`` that is not the int 0 or 1."""
    # type(kappa) is int, not isinstance, so a bool is refused
    if type(kappa) is not int or kappa not in (0, 1):
        raise BadInput(f"kappa must be 0 or 1, got {kappa!r}")


def in_S_kappa(r: Partition, kappa: int) -> bool:
    """All entries even; for kappa=0 additionally an even number of entries."""
    check_kappa(kappa)
    if any(map(mod, r, repeat(2))):
        return False
    return kappa == 1 or len(r) % 2 == 0


def in_T(c: Partition, two_n: int) -> bool:
    """|c| = two_n and every odd value occurs an even number of times: in a
    weakly decreasing ``c``, its odd entries pair up in place (``in_P_tilde``'s rule)."""
    if two_n % 2:
        raise BadInput(f"two_n must be even, got {two_n}")
    if sum(c) != two_n:
        return False
    odds = [x for x in c if x % 2]
    return odds[::2] == odds[1::2]


def in_Q(c: Partition, N: int) -> bool:
    """|c| = N and every even value occurs an even number of times: in a
    weakly decreasing ``c``, its even entries pair up in place (``in_P_tilde``'s rule)."""
    if sum(c) != N:
        return False
    evens = [x for x in c if x % 2 == 0]
    return evens[::2] == evens[1::2]


def in_R(r: Partition) -> bool:
    """Whether ``r`` lies in R, the image of the adjustment map ``xi`` inside
    the orthogonal partitions: every even entry has an odd number of odd
    entries above it, and the 2nd, 4th, ... odd entry lies strictly below
    the odd entry before it.  This is the paper's gap condition: with
    r^1 >= ... >= r^s the odd entries, r^u > r^{u+1} for odd u, and every
    even entry lies in a gap (r^1, r^2), (r^3, r^4), ..., or below r^s when
    s is odd.
    """
    if not in_Q(r, sum(r)):
        raise NotInQ(f"even value with odd multiplicity: {r}")
    odds = 0
    for x in r:
        if x % 2:
            if odds % 2 and x >= above:
                return False
            odds += 1
            above = x
        elif odds % 2 == 0:
            return False
    return True


# --- marked partitions -----------------------------------------------------


def epsilon_domain(c: Partition) -> tuple[int, ...]:
    """Even values of ``c`` with even positive multiplicity, decreasing."""
    return tuple(
        sorted(
            (j for j in set(c) if j % 2 == 0 and c.count(j) % 2 == 0),
            reverse=True,
        )
    )


class MarkedPartition(Value):
    """A partition together with a 0/1 marking of the qualifying even values.

    The marking domain is forced by the ambient partition: exactly the even
    values whose multiplicity is even and positive.  The constructor checks
    that ``c`` is a canonical partition, stores it as a tuple, and checks the
    marking.
    """

    __slots__ = ("c", "eps")
    c: Partition
    eps: tuple[tuple[int, int], ...]  # (value, bit) pairs, decreasing values

    def __new__(cls, c: Partition, eps: tuple[tuple[int, int], ...]):
        c = check_partition(c)
        dom = epsilon_domain(c)
        try:
            values = tuple(j for j, _ in eps)
        except (TypeError, ValueError):
            raise BadInput(f"marking must be a sequence of (value, bit) pairs, got {eps!r}") from None
        if values != dom or not all(type(j) is int for j in values):
            raise BadInput(
                f"marking domain {values} does not match required domain {dom} of {c}"
            )
        if any(type(b) is not int or b not in (0, 1) for _, b in eps):
            raise BadInput(f"marking bits must be 0 or 1: {eps}")
        return cls._trusted(c, eps)

    def eps_map(self) -> dict[int, int]:
        return dict(self.eps)


# --- enumeration -----------------------------------------------------------


def _check_size(n: int) -> None:
    """Refuse a size to enumerate that is not an integer >= 0."""
    # type(n) is int, not isinstance, so a bool is refused
    if type(n) is not int or n < 0:
        raise BadInput(f"cannot partition {n!r}")


@lru_cache(maxsize=256)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n``, lexicographically decreasing.

    The list is built by the iterative ZS1 loop (Zoghbi and Stojmenovic 1998,
    "Fast algorithms for generating integer partitions"). ``x[:m + 1]`` is
    the current partition and ``x[h]`` its last entry above 1; every slot
    after ``h`` holds 1. Each step lowers ``x[h]`` by one and packs the
    freed units after it into parts of at most that size.
    """
    _check_size(n)
    if n == 0:
        return ((),)
    x = [1] * n
    x[0] = n
    m = h = 0
    out = [(n,)]
    while x[0] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h + 1
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    h += 1
                    x[h] = t
        out.append(tuple(x[: m + 1]))
    return tuple(out)


def even_partitions_of(n: int) -> list[Partition]:
    """Partitions of ``n`` with all parts even, lexicographically decreasing."""
    _check_size(n)
    if n % 2:
        return []
    return [tuple(2 * x for x in q) for q in partitions_of(n // 2)]


def paired_partitions_of(n: int) -> list[Partition]:
    """Partitions of ``n`` whose entries pair up in place (p1=p2, p3=p4, ...)."""
    _check_size(n)
    if n % 2:
        return []
    out = []
    for q in partitions_of(n // 2):
        doubled = []
        for x in q:
            doubled += [x, x]
        out.append(tuple(doubled))
    return out


# --- text forms ------------------------------------------------------------


def format_partition(p: Partition) -> str:
    """Comma-separated decreasing entries; the empty partition prints as ''."""
    return ",".join(map(str, p))


def _digits(tok: str) -> int:
    """``int(tok)`` for a run of ASCII digits only: no sign, ``_`` or other script's digits."""
    run = tok.strip()
    if not (run.isascii() and run.isdigit()):
        raise ValueError(f"not a run of digits: {tok!r}")
    return int(run)


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = [_digits(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad partition text {text!r}: {exc}") from None
    if any(x <= 0 for x in parts):
        raise ParseError(f"partition entries must be positive: {text!r}")
    return partition(parts)


def format_epsilon(eps: tuple[tuple[int, int], ...]) -> str:
    """Semicolon-separated ``value:bit`` pairs, decreasing values."""
    return ";".join(f"{j}:{b}" for j, b in eps)


def parse_epsilon(text: str) -> tuple[tuple[int, int], ...]:
    text = text.strip()
    if not text:
        return ()
    pairs = []
    for tok in text.split(";"):
        try:
            j, b = tok.split(":")
            pairs.append((_digits(j), _digits(b)))
        except ValueError:
            raise ParseError(f"bad marking pair {tok!r}") from None
    if len({j for j, _ in pairs}) != len(pairs):
        raise ParseError(f"marking repeats a value: {text!r}")
    return tuple(sorted(pairs, reverse=True))


def format_marked(m: MarkedPartition) -> str:
    return f"c={format_partition(m.c)};eps={format_epsilon(m.eps)}"


def parse_marked(text: str) -> MarkedPartition:
    text = text.strip()
    if not text.startswith("c=") or ";eps=" not in text:
        raise ParseError(f"marked partition must look like 'c=...;eps=...': {text!r}")
    c_part, eps_part = text[2:].split(";eps=", 1)
    c = parse_partition(c_part)
    eps = parse_epsilon(eps_part)
    marked = {j for j, _ in eps}
    unmarked = [j for j in epsilon_domain(c) if j not in marked]
    if unmarked:
        raise ParseError(f"marking leaves {format_partition(unmarked)} unmarked: {text!r}")
    return MarkedPartition(c, eps)
