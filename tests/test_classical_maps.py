import gc
import hashlib
import sys
import tracemalloc
from itertools import groupby, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylunip import oracle
from weylunip.classical_maps import (
    UnipotentSymbol,
    enumerate_unipotents,
    fiber_of,
    orthogonal_fiber_minimizer,
    parse_unipotent,
    phi,
    pi,
    psi,
    rho,
    splittings,
    validate_unipotent,
    xi,
    xi_inv,
)
from weylunip.errors import BadInput, BoundExceeded, InvalidClass, NotInR
from weylunip.exceptional_tables import TABLE_FILES, FiberRow, FiberTable, _load, _round_trip_label, load_table
from weylunip.partitions import (
    MarkedPartition,
    check_partition,
    epsilon_domain,
    in_P_tilde,
    in_Q,
    in_R,
    multiplicity,
    partition,
    partitions_of,
)
from weylunip.special_classes import (
    TAU_FILES,
    Bipartition,
    PairSequenceBC,
    load_tau_table,
    special_classes,
)
from weylunip.weyl_classes import (
    CHAR_VARIANTS,
    EXCEPTIONAL_RANK,
    MIN_RANK,
    CarterComponent,
    ClassSymbol,
    GroupContext,
    context,
    enumerate_classes,
    m_of_class,
)

#: Every B/C/D context up to rank 8, at every characteristic variant.
BCD_UP_TO_8 = [
    GroupContext(family, n, char)
    for family in ("B", "C", "D")
    for n in range(MIN_RANK[family], 9)
    for char in CHAR_VARIANTS[family]
]


def brute_min_fiber(c):
    """Independent minimizer oracle: split every even sub-multiset into the
    paired side, keep the splittings whose other side passes the gap
    predicate, return the shortest-paired-side ones."""
    values = sorted(set(c), reverse=True)
    counts = [multiplicity(c, v) for v in values]
    fiber = []
    for picks in product(*[range(q // 2 + 1) for q in counts]):
        p, r = [], []
        for v, q, take in zip(values, counts, picks):
            p += [v] * (2 * take)
            r += [v] * (q - 2 * take)
        r, p = partition(r), partition(p)
        if in_P_tilde(p) and in_Q(r, sum(r)) and in_R(r):
            fiber.append((r, p))
    best = min(len(p) for _, p in fiber)
    return fiber, [(r, p) for r, p in fiber if len(p) == best]


def test_iota_examples():
    # the merge iota is phi in type C, good characteristic
    assert str(phi(context("C", 3), ClassSymbol(r=(4,), p=(1, 1)))) == "4,1,1"
    assert str(phi(context("C", 6), ClassSymbol(r=(2, 2), p=(3, 3, 1, 1)))) == "3,3,2,2,1,1"
    # a record may be a list
    assert phi(context("C", 3), ClassSymbol(r=[4], p=[1, 1])) == UnipotentSymbol(partition=(4, 1, 1))
    with pytest.raises(InvalidClass):
        phi(context("C", 2), ClassSymbol(r=(3,), p=()))
    with pytest.raises(InvalidClass):
        phi(context("C", 2), ClassSymbol(r=(2,), p=(2, 1)))


def test_iota2_examples():
    # the marked merge iota2 is phi in characteristic 2
    assert str(phi(context("C", 6, "p2"), ClassSymbol(r=(2, 2), p=(4, 4)))) == "c=4,4,2,2;eps=4:0;2:1"
    assert str(phi(context("C", 3, "p2"), ClassSymbol(r=(2,), p=(2, 2)))) == "c=2,2,2;eps="
    assert str(phi(context("C", 3, "p2"), ClassSymbol(r=(4, 2), p=()))) == "c=4,2;eps="
    ctx = context("C", 6, "p2")
    assert phi(ctx, ClassSymbol(r=[2, 2], p=[4, 4])) == phi(ctx, ClassSymbol(r=(2, 2), p=(4, 4)))


def test_xi_examples():
    assert xi((4, 4), 0) == (5, 3)
    assert xi((2, 2), 1) == (3, 1, 1)
    assert xi((2, 2, 2, 2), 0) == (3, 2, 2, 1)
    assert xi((), 1) == (1,)
    assert xi((), 0) == ()
    assert xi([4, 4], 0) == (5, 3)
    with pytest.raises(BadInput):
        xi((4,), 0)  # odd length not allowed at kappa=0


def test_xi_inv_examples():
    assert xi_inv((5, 3), 0) == (4, 4)
    assert xi_inv((3, 1, 1), 1) == (2, 2)
    assert xi_inv((), 0) == ()
    assert xi_inv([5, 3], 0) == (4, 4)
    with pytest.raises(NotInR):
        xi_inv((4, 4), 0)
    with pytest.raises(BadInput):
        xi_inv((5, 3), 1)  # parity mismatch


even_records = st.lists(st.integers(1, 6), max_size=6).map(
    lambda xs: tuple(sorted((2 * x for x in xs), reverse=True))
)


@given(even_records, st.integers(0, 1))
def test_xi_round_trip_and_landing(r, kappa):
    if kappa == 0 and len(r) % 2:
        r = r[1:]
    img = xi(r, kappa)
    assert list(img) == sorted(img, reverse=True)
    assert sum(img) == sum(r) + kappa
    assert in_Q(img, sum(r) + kappa) and in_R(img)
    assert xi_inv(img, kappa) == r


def _psi_text(ctx, text):
    return str(psi(ctx, parse_unipotent(ctx, text)))


def test_psi_even_r_examples():
    # type C, good characteristic: even values to r, odd values to p
    assert _psi_text(context("C", 2), "2,1,1") == "r=2;p=1,1"
    assert _psi_text(context("C", 4), "4,4") == "r=4,4;p="
    assert _psi_text(context("C", 2), "1,1,1,1") == "r=;p=1,1,1,1"
    assert psi(context("C", 2), UnipotentSymbol(partition=[2, 1, 1])) == ClassSymbol(r=(2,), p=(1, 1))
    with pytest.raises(BadInput):
        psi(context("C", 2), UnipotentSymbol(partition=(3, 1)))


def test_psi_marked_examples():
    # characteristic 2: an even value marked 0 goes to p with the odd values
    assert _psi_text(context("C", 6, "p2"), "c=4,4,2,2;eps=4:1;2:0") == "r=4,4;p=2,2"
    assert _psi_text(context("C", 3, "p2"), "c=2,2,2;eps=") == "r=2,2,2;p="
    assert _psi_text(context("C", 3, "p2"), "c=3,3;eps=") == "r=;p=3,3"


def test_psi_orthogonal_examples_with_brute_force():
    # (5,3): the only fiber element
    fiber, minimizers = brute_min_fiber((5, 3))
    assert fiber == [((5, 3), ())]
    assert _psi_text(context("D", 4), "5,3") == "r=4,4;p="
    # (4,4): singleton fiber with everything on the paired side
    fiber, minimizers = brute_min_fiber((4, 4))
    assert fiber == [((), (4, 4))]
    assert _psi_text(context("D", 4), "4,4") == "r=;p=4,4"
    # (3,3,1,1,1): the 1-block keeps a copy that the inverse then drops
    fiber, minimizers = brute_min_fiber((3, 3, 1, 1, 1))
    assert minimizers == [((1,), (3, 3, 1, 1))]
    assert _psi_text(context("B", 4), "3,3,1,1,1") == "r=;p=3,3,1,1"


@pytest.mark.parametrize("n_amb", range(3, 16))
def test_minimizer_matches_brute_force(n_amb):
    for c in partitions_of(n_amb):
        if not in_Q(c, n_amb):
            continue
        _, minimizers = brute_min_fiber(c)
        assert len(minimizers) == 1, c
        assert orthogonal_fiber_minimizer(c) == minimizers[0]


def reference_orthogonal_minimizer(c):
    """The orthogonal fiber minimizer in its position-indexed form, kept as
    the reference for the one-pass parity count: an odd block of even
    multiplicity keeps two copies when it starts at an even position of the
    odd entries; an even value goes to the swap record when it lies above
    the kept odd entries, strictly inside an even-indexed gap of them, or
    below all of them when they are even in number."""

    def star_holds(e, r_odd):
        s = len(r_odd)
        if s == 0 or e > r_odd[0]:
            return True
        if s % 2 == 0 and r_odd[s - 1] > e:
            return True
        return any(r_odd[2 * v - 1] > e > r_odd[2 * v] for v in range(1, (s - 1) // 2 + 1))

    r_odd, p = [], []
    start = 1
    for e, block in groupby(x for x in c if x % 2 == 1):
        q = len(tuple(block))
        keep = 1 if q % 2 == 1 else (2 if start % 2 == 0 else 0)
        r_odd += [e] * keep
        p += [e] * (q - keep)
        start += q
    r = r_odd[:]
    for x in c:
        if x % 2 == 0:
            (p if star_holds(x, r_odd) else r).append(x)
    return partition(r), partition(p)


@pytest.mark.parametrize("n", range(0, 31))
def test_minimizer_matches_the_position_indexed_reference(n):
    for c in partitions_of(n):
        if in_Q(c, n):
            assert orthogonal_fiber_minimizer(c) == reference_orthogonal_minimizer(c), c
        else:
            with pytest.raises(BadInput, match="even value with odd multiplicity"):
                orthogonal_fiber_minimizer(c)


def test_phi_examples():
    assert phi(context("B", 4), ClassSymbol(r=(), p=(3, 3, 1, 1))) == UnipotentSymbol(
        partition=(3, 3, 1, 1, 1)
    )
    assert phi(context("C", 2), ClassSymbol(r=(2,), p=(1, 1))) == UnipotentSymbol(
        partition=(2, 1, 1)
    )
    assert phi(context("D", 4), ClassSymbol(r=(4, 4), p=())) == UnipotentSymbol(partition=(5, 3))
    assert phi(context("A", 3), ClassSymbol(cycle_type=(3, 1))) == UnipotentSymbol(partition=(3, 1))
    got = phi(context("C", 2, "p2"), ClassSymbol(r=(2, 2), p=()))
    assert got.marked == MarkedPartition((2, 2), ((2, 1),))


def test_psi_examples():
    assert psi(context("C", 2), UnipotentSymbol(partition=(2, 1, 1))) == ClassSymbol(
        r=(2,), p=(1, 1)
    )
    assert psi(context("D", 4), UnipotentSymbol(partition=(4, 4))) == ClassSymbol(
        r=(), p=(4, 4)
    )
    assert str(psi(context("F4"), UnipotentSymbol(name="C_3(a_1)"))) == "A_3+~A_1"


def test_rho_examples():
    c2p2 = context("C", 2, "p2")
    for bit in (0, 1):
        u = UnipotentSymbol(marked=MarkedPartition((2, 2), ((2, bit),)))
        assert rho(c2p2, u) == UnipotentSymbol(partition=(2, 2))
    assert rho(context("F4", char="p2"), UnipotentSymbol(name="(B_2)_2")) == UnipotentSymbol(
        name="B_2"
    )


def test_pi_examples():
    c2p2 = context("C", 2, "p2")
    got = pi(c2p2, UnipotentSymbol(partition=(2, 2)))
    assert got.marked == MarkedPartition((2, 2), ((2, 1),))
    got = pi(c2p2, UnipotentSymbol(partition=(2, 1, 1)))
    assert got.marked == MarkedPartition((2, 1, 1), ())
    assert pi(context("G2", char="p3"), UnipotentSymbol(name="~A_1")) == UnipotentSymbol(
        name="~A_1"
    )


@pytest.mark.parametrize(
    "ctx",
    [
        context("A", 4),
        context("B", 3),
        context("B", 3, "p2"),
        context("C", 3),
        context("C", 3, "p2"),
        context("D", 4),
        context("D", 4, "p2"),
        context("G2", char="p3"),
        context("E6"),
    ],
)
def test_phi_psi_identity_small(ctx):
    for u in enumerate_unipotents(ctx):
        assert phi(ctx, psi(ctx, u)) == u


@pytest.mark.parametrize(
    "ctx",
    [context("B", 3), context("C", 3), context("C", 3, "p2"), context("D", 4), context("D", 4, "p2")],
)
def test_unique_minimum_by_full_scan(ctx):
    fibers = {}
    for C in enumerate_classes(ctx):
        fibers.setdefault(phi(ctx, C), []).append(C)
    assert sorted(map(str, fibers)) == sorted(map(str, enumerate_unipotents(ctx)))
    for u, fib in fibers.items():
        ms = sorted(m_of_class(ctx, C) for C in fib)
        assert ms.count(ms[0]) == 1
        best = min(fib, key=lambda C: m_of_class(ctx, C))
        assert psi(ctx, u) == best


def test_validation_rejects_foreign_symbols():
    with pytest.raises(BadInput):
        psi(context("C", 2), UnipotentSymbol(partition=(3, 1)))
    with pytest.raises(BadInput):
        psi(context("B", 2), UnipotentSymbol(partition=(4, 1)))
    with pytest.raises(BadInput):
        psi(context("D", 3, "p2"), UnipotentSymbol(marked=MarkedPartition((4, 1, 1), ())))
    with pytest.raises(BadInput):
        psi(context("E6"), UnipotentSymbol(name="nonsense"))
    with pytest.raises(BadInput, match="3,1 is not a unipotent class of E6/good"):
        psi(context("E6"), UnipotentSymbol(partition=(3, 1)))
    with pytest.raises(BadInput, match="unipotent symbol must have exactly one shape"):
        UnipotentSymbol(partition=(2,), name="A_1")


def test_enumerate_unipotents_counts():
    # marked symbols: one per marking of each admissible base partition
    assert [str(u) for u in enumerate_unipotents(context("C", 2, "p2"))] == [
        "c=4;eps=",
        "c=2,2;eps=2:0",
        "c=2,2;eps=2:1",
        "c=2,1,1;eps=",
        "c=1,1,1,1;eps=",
    ]
    assert len(enumerate_unipotents(context("D", 3, "p2"))) == 5
    assert [u.partition for u in enumerate_unipotents(context("B", 2))] == [
        (5,),
        (3, 1, 1),
        (2, 2, 1),
        (1, 1, 1, 1, 1),
    ]


def reference_is_jordan_type(ctx, c):
    """The Jordan types of the unipotent classes, written out with value
    counts in place of the paired-parity predicates: any partition of rank+1
    for A; of 2n+1 with every even value paired for B in good
    characteristic; of 2n with every even value paired for D in good
    characteristic; otherwise of 2n with every odd value paired, and of even
    length for D in characteristic 2."""
    n = ctx.rank
    if ctx.family == "A":
        return sum(c) == n + 1
    if ctx.char == "good" and ctx.family in ("B", "D"):
        size, paired = 2 * n + (ctx.family == "B"), 0
    else:
        size, paired = 2 * n, 1
    if sum(c) != size:
        return False
    if any(c.count(j) % 2 for j in set(c) if j % 2 == paired):
        return False
    return not (ctx.family == "D" and ctx.char == "p2" and len(c) % 2)


def rebuild_unipotents(ctx):
    """The B/C/D unipotent classes from scratch: the Jordan types, in
    ``partitions_of`` order; in characteristic 2 each carries every marking
    of its even values of even multiplicity, the bits counted up from all
    zeros."""
    size = 2 * ctx.rank + (ctx.family == "B" and ctx.char == "good")
    out = []
    for c in partitions_of(size):
        if not reference_is_jordan_type(ctx, c):
            continue
        if ctx.char != "p2":
            out.append(UnipotentSymbol(partition=c))
            continue
        marked = sorted({v for v in c if v % 2 == 0 and c.count(v) % 2 == 0}, reverse=True)
        for bits in product((0, 1), repeat=len(marked)):
            out.append(UnipotentSymbol(marked=MarkedPartition(c, tuple(zip(marked, bits)))))
    return out


@pytest.mark.parametrize("ctx", BCD_UP_TO_8, ids=str)
def test_enumerate_unipotents_matches_a_rebuild(ctx):
    assert enumerate_unipotents(ctx) == rebuild_unipotents(ctx)


#: Every B/C/D context up to rank 12, at every characteristic variant.
BCD_UP_TO_12 = [
    GroupContext(family, n, char)
    for family in ("B", "C", "D")
    for n in range(MIN_RANK[family], 13)
    for char in CHAR_VARIANTS[family]
]


@pytest.mark.parametrize("ctx", BCD_UP_TO_12, ids=str)
def test_enumerate_unipotents_matches_the_per_partition_filter(ctx):
    # enumerate_unipotents picks its test once per call; the reference runs
    # the rule on each partition
    size = 2 * ctx.rank + (ctx.family == "B" and ctx.char == "good")
    listed = [u.marked.c if u.kind == "marked" else u.partition for u in enumerate_unipotents(ctx)]
    expected = [c for c in partitions_of(size) if reference_is_jordan_type(ctx, c)]
    assert [c for c, _ in groupby(listed)] == expected


def test_classical_enumerations_keep_their_text():
    """SHA-256 of the text of both enumerations of every B/C/D context up
    to rank 12, as first recorded: their order and text form are fixed."""
    digest = hashlib.sha256()
    for family in ("B", "C", "D"):
        for n in range(MIN_RANK[family], 13):
            for char in CHAR_VARIANTS[family]:
                ctx = GroupContext(family, n, char)
                for x in [*enumerate_classes(ctx), *enumerate_unipotents(ctx)]:
                    digest.update(str(x).encode() + b"\n")
    assert digest.hexdigest() == "4cfcb7d6614d54d7911430f2ff9f3645b8386ec2d7083e8fd2c01e26f3bed7a6"


def test_enumerate_unipotents_returns_a_fresh_list():
    ctx = context("B", 5, "p2")
    first = enumerate_unipotents(ctx)
    assert enumerate_unipotents(ctx) is not first
    first.reverse()
    first.pop()
    assert enumerate_unipotents(ctx) == rebuild_unipotents(ctx)


def test_enumerate_unipotents_checks_the_bound_on_every_call():
    ctx = context("C", 12, "p2")
    enumerate_unipotents(ctx)
    with pytest.raises(BoundExceeded):
        enumerate_unipotents(ctx, bound=4)


def test_splittings_move_even_copies():
    assert splittings((2, 2, 1)) == [((2, 2, 1), ()), ((1,), (2, 2))]
    assert splittings(()) == [((), ())]


def reference_splittings(c):
    """``splittings`` in its re-sorting form, kept as the reference for the
    walk in decreasing value order: each record goes through ``partition()``."""
    values = sorted(set(c), reverse=True)
    counts = [multiplicity(c, v) for v in values]
    out = []
    for picks in product(*[range(0, q // 2 + 1) for q in counts]):
        p = []
        r = []
        for v, q, take in zip(values, counts, picks):
            p += [v] * (2 * take)
            r += [v] * (q - 2 * take)
        out.append((partition(r), partition(p)))
    return out


@pytest.mark.parametrize("n", range(0, 26))
def test_splittings_match_the_re_sorting_reference(n):
    # same records, same order, up to the fiber-min suite's bound n <= 25
    for c in partitions_of(n):
        assert splittings(c) == reference_splittings(c), c


def test_splittings_of_an_orthogonal_type_stay_orthogonal():
    # each value loses an even number of copies, so r keeps every even value
    # paired: the fiber-min suite filters splittings by in_R alone, which
    # would refuse an r outside Q with NotInQ
    count = 0
    for n in range(1, 26):
        for c in partitions_of(n):
            if in_Q(c, n):
                for r, _ in splittings(c):
                    assert in_Q(r, sum(r)), (c, r)
                    count += 1
    assert count == 16984


def test_fiber_of_puts_section_first():
    ctx = context("C", 2)
    fib = fiber_of(ctx, UnipotentSymbol(partition=(2, 2)))
    assert [str(C) for C in fib] == ["r=2,2;p=", "r=;p=2,2"]


FIBER_CROSS_CHECK = (
    [GroupContext("A", n) for n in range(1, 7)]
    + [
        GroupContext(family, n, char)
        for family, lo in (("B", 2), ("C", 2), ("D", 3))
        for n in range(lo, 9)
        for char in CHAR_VARIANTS[family]
    ]
    + [
        GroupContext(family, EXCEPTIONAL_RANK[family], char)
        for family in EXCEPTIONAL_RANK
        for char in CHAR_VARIANTS[family]
    ]
)


@pytest.mark.parametrize("ctx", FIBER_CROSS_CHECK, ids=str)
def test_fiber_of_matches_whole_group_scan(ctx):
    # the oracle's scan of every class gives the same fibers, in the same order
    fibers = oracle.fiber_map(ctx)
    unipotents = enumerate_unipotents(ctx)
    assert set(fibers) == set(unipotents)
    for u in unipotents:
        first = psi(ctx, u)
        assert fiber_of(ctx, u) == [first] + [C for C in fibers[u] if C != first], u


def _candidates(ctx, size):
    """Every partition of ``size`` in the context's text shape: plain, or
    with every marking of its marking domain in characteristic 2."""
    for c in partitions_of(size):
        if ctx.char == "good":
            yield c, UnipotentSymbol(partition=c)
            continue
        dom = epsilon_domain(c)
        for bits in product((0, 1), repeat=len(dom)):
            yield c, UnipotentSymbol(marked=MarkedPartition(c, tuple(zip(dom, bits))))


@pytest.mark.parametrize(
    "ctx",
    [
        GroupContext(family, n, char)
        for family, lo in MIN_RANK.items()
        for n in range(lo, 7)
        for char in CHAR_VARIANTS[family]
    ],
    ids=str,
)
def test_validate_accepts_exactly_the_enumerated_symbols(ctx):
    # every partition of the sizes around the ambient one, with every
    # marking in characteristic 2: validation accepts exactly the
    # enumerated symbols, and exactly those the rule written out above allows
    enumerated = enumerate_unipotents(ctx)
    assert len(set(enumerated)) == len(enumerated)
    top = ctx.rank + 1 if ctx.family == "A" else 2 * ctx.rank + 1
    accepted = set()
    for size in range(top - 2, top + 2):
        for c, u in _candidates(ctx, size):
            try:
                validate_unipotent(ctx, u)
            except BadInput:
                assert not reference_is_jordan_type(ctx, c), u
            else:
                assert reference_is_jordan_type(ctx, c), u
                accepted.add(u)
    assert accepted == set(enumerated)


@pytest.mark.parametrize("family", list(EXCEPTIONAL_RANK))
def test_unknown_exceptional_name_is_refused_by_every_map(family):
    ctx = context(family, char=CHAR_VARIANTS[family][-1])
    u = parse_unipotent(ctx, " NOPE ")  # parsing only parses
    assert u == UnipotentSymbol(name="NOPE")
    for fn, checked_in in ((psi, ctx), (rho, ctx), (fiber_of, ctx), (pi, ctx.good())):
        with pytest.raises(BadInput) as exc:
            fn(ctx, u)
        assert str(exc.value) == f"unknown unipotent name 'NOPE' for {checked_in}", fn.__name__


# Each public helper checks its own input, whatever phi and psi prove first.
HELPER_ERRORS = [
    (xi, ((4,), 0), BadInput, "not a valid stable cycle record for kappa=0: (4,)"),
    (xi, ((3,), 1), BadInput, "not a valid stable cycle record for kappa=1: (3,)"),
    (xi, ((2,), 2), BadInput, "kappa must be 0 or 1, got 2"),
    # a bool is no int: xi((4, 2), True) once answered (5, 1, 1)
    (xi, ((4, 2), True), BadInput, "kappa must be 0 or 1, got True"),
    (xi, ((4, 2), 1.0), BadInput, "kappa must be 0 or 1, got 1.0"),
    (xi_inv, ((4, 4), 0), NotInR, "not in the image of the adjustment map: (4, 4)"),
    (xi_inv, ((5, 3), 1), BadInput, "|c|=8 has wrong parity for kappa=1"),
    # xi_inv((3, 1, 1), True) once answered (2, 2)
    (xi_inv, ((3, 1, 1), True), BadInput, "kappa must be 0 or 1, got True"),
    (xi_inv, ((3, 1, 1), 1.0), BadInput, "kappa must be 0 or 1, got 1.0"),
    (orthogonal_fiber_minimizer, ((2, 1),), BadInput, "even value with odd multiplicity: (2, 1)"),
    (orthogonal_fiber_minimizer, ((1, 3),), BadInput, "partition entries must be weakly decreasing: (1, 3)"),
    # every record argument must pass check_partition first: these once
    # answered (3, 3, 1), (3.0,) and (2.0,)
    (xi, ((2, 4), 1), BadInput, "partition entries must be weakly decreasing: (2, 4)"),
    (xi, ((2.0,), 1), BadInput, "partition entries must be positive integers: (2.0,)"),
    (xi_inv, ((3.0,), 1), BadInput, "partition entries must be positive integers: (3.0,)"),
]


def _map_error(call, thunk, error, message):
    """A refusal of ``phi`` or ``psi``, named by the call of the per-case
    helper that once refused the same records with its own check."""
    return pytest.param(thunk, (), error, message, id=call)


# The per-case helpers of phi and psi are gone.  The maps check a record
# once, by validate_class or validate_unipotent, or the symbol's constructor
# refuses it first; each row pins that refusal of records a helper once
# refused, under the id of the helper's call.
MAP_ERRORS = [
    _map_error("iota((3,), ())", lambda: phi(context("C", 2), ClassSymbol(r=(3,), p=())),
               InvalidClass, "invalid stable cycle record (3,) for C_2/good"),
    _map_error("iota((2,), (2,))", lambda: phi(context("C", 2), ClassSymbol(r=(2,), p=(2,))),
               InvalidClass, "unpaired swap-cycle record (2,) for C_2/good"),
    _map_error("iota((2,), (2, 1))", lambda: phi(context("C", 2), ClassSymbol(r=(2,), p=(2, 1))),
               InvalidClass, "unpaired swap-cycle record (2, 1) for C_2/good"),
    _map_error("iota((), (True, True))", lambda: phi(context("C", 2), ClassSymbol(r=(), p=(True, True))),
               BadInput, "partition entries must be positive integers: (True, True)"),
    _map_error("iota2((4, 1), ())", lambda: phi(context("C", 3, "p2"), ClassSymbol(r=(4, 1), p=())),
               InvalidClass, "invalid stable cycle record (4, 1) for C_3/p2"),
    _map_error("iota2((2,), (3, 1))", lambda: phi(context("C", 3, "p2"), ClassSymbol(r=(2,), p=(3, 1))),
               InvalidClass, "unpaired swap-cycle record (3, 1) for C_3/p2"),
    _map_error("iota2((), (True, True))", lambda: phi(context("C", 2, "p2"), ClassSymbol(r=(), p=(True, True))),
               BadInput, "partition entries must be positive integers: (True, True)"),
    _map_error("psi_even_r((3, 1),)", lambda: psi(context("C", 2), UnipotentSymbol(partition=(3, 1))),
               BadInput, "3,1 is not a unipotent class of C_2/good"),
    _map_error("psi_even_r((2, 1),)", lambda: psi(context("C", 2), UnipotentSymbol(partition=(2, 1))),
               BadInput, "2,1 is not a unipotent class of C_2/good"),
    _map_error("psi_even_r((1, 3, 3, 1),)", lambda: psi(context("C", 4), UnipotentSymbol(partition=(1, 3, 3, 1))),
               BadInput, "partition entries must be weakly decreasing: (1, 3, 3, 1)"),
    _map_error("psi_marked(MarkedPartition(c=(3, 1), eps=()),)",
               lambda: psi(context("C", 2, "p2"), UnipotentSymbol(marked=MarkedPartition((3, 1), ()))),
               BadInput, "c=3,1;eps= is not a unipotent class of C_2/p2"),
    _map_error("psi_marked(MarkedPartition(c=(2, 1), eps=()),)",
               lambda: psi(context("C", 2, "p2"), UnipotentSymbol(marked=MarkedPartition((2, 1), ()))),
               BadInput, "c=2,1;eps= is not a unipotent class of C_2/p2"),
    _map_error("psi_orthogonal((4,), 1)", lambda: psi(context("B", 2), UnipotentSymbol(partition=(4,))),
               BadInput, "4 is not a unipotent class of B_2/good"),
    _map_error("psi_orthogonal((2,), 0)", lambda: psi(context("D", 3), UnipotentSymbol(partition=(2,))),
               BadInput, "2 is not a unipotent class of D_3/good"),
    _map_error("psi_orthogonal((2, 1, 1), 0)", lambda: psi(context("D", 3), UnipotentSymbol(partition=(2, 1, 1))),
               BadInput, "2,1,1 is not a unipotent class of D_3/good"),
    _map_error("psi_orthogonal((1, 3), 0)", lambda: psi(context("D", 3), UnipotentSymbol(partition=(1, 3))),
               BadInput, "partition entries must be weakly decreasing: (1, 3)"),
]


@pytest.mark.parametrize(
    "fn, args, error, message",
    [*HELPER_ERRORS, *MAP_ERRORS],
    ids=[f"{fn.__name__}{args}" for fn, args, *_ in HELPER_ERRORS] + [None] * len(MAP_ERRORS),
)
def test_public_helpers_keep_their_checks(fn, args, error, message):
    with pytest.raises(BadInput) as exc:
        fn(*args)
    assert type(exc.value) is error
    assert str(exc.value) == message


def reference_marking(r, c):
    """Bit 1 exactly on the doubled even values of ``c`` (each an even value
    of even multiplicity) that occur in the stable record ``r``."""
    doubled = sorted({x for x in c if x % 2 == 0 and c.count(x) % 2 == 0}, reverse=True)
    return MarkedPartition(c, tuple((x, int(x in r)) for x in doubled))


@pytest.mark.parametrize("ctx", BCD_UP_TO_8, ids=str)
def test_phi_and_psi_are_the_checked_helpers_composed(ctx):
    # the maps skip the checks their validation already made; each case
    # gives what its definition, written out here, gives
    orthogonal = ctx.family in ("B", "D") and ctx.char == "good"
    for C in enumerate_classes(ctx):
        r = xi(C.r, ctx.kappa) if orthogonal else C.r
        c = tuple(sorted(r + C.p, reverse=True))
        if ctx.char == "p2":
            want = UnipotentSymbol(marked=reference_marking(C.r, c))
        else:
            want = UnipotentSymbol(partition=c)
        assert phi(ctx, C) == want, C
    for u in enumerate_unipotents(ctx):
        if ctx.char == "p2":
            c, eps = u.marked.c, u.marked.eps_map()
            p = tuple(x for x in c if x % 2 or eps.get(x) == 0)
            r = tuple(x for x in c if x % 2 == 0 and eps.get(x) != 0)
        elif ctx.family == "C":
            p = tuple(x for x in u.partition if x % 2)
            r = tuple(x for x in u.partition if x % 2 == 0)
        else:
            r_mixed, p = reference_orthogonal_minimizer(u.partition)
            r = xi_inv(r_mixed, ctx.kappa)
        assert psi(ctx, u) == ClassSymbol(r=r, p=p), u


def _int_tuple(t) -> bool:
    return type(t) is tuple and all(type(x) is int for x in t)


def _rebuilt(x):
    """``x`` built again from its fields through the checked public
    factories, once every field is known to be a tuple of ints."""
    if type(x) is ClassSymbol:
        assert _int_tuple(x.r) and _int_tuple(x.p), x
        return ClassSymbol(r=x.r, p=x.p)
    if x.kind == "plain":
        assert _int_tuple(x.partition), x
        return UnipotentSymbol(partition=x.partition)
    m = x.marked
    assert _int_tuple(m.c) and type(m.eps) is tuple, x
    assert all(_int_tuple(pair) and len(pair) == 2 for pair in m.eps), x
    return UnipotentSymbol(marked=MarkedPartition(m.c, m.eps))


@pytest.mark.parametrize("ctx", BCD_UP_TO_8, ids=str)
def test_trusted_builds_equal_checked_builds(ctx):
    # the symbols the library builds without the constructor checks are
    # exactly the ones those checks accept
    classes = enumerate_classes(ctx)
    unipotents = enumerate_unipotents(ctx)
    values = [
        *classes,
        *unipotents,
        *(phi(ctx, C) for C in classes),
        *(psi(ctx, u) for u in unipotents),
        *special_classes(ctx),
    ]
    for x in values:
        y = _rebuilt(x)
        assert x == y and hash(x) == hash(y), x


def _traced_bytes_per_object(build, count=5000):
    """The bytes ``tracemalloc`` traces per object still held after
    ``count`` calls of ``build``, whose arguments exist beforehand."""
    build()  # a one-time allocation of the class is not counted
    held = [None] * count
    tracemalloc.start()
    try:
        gc.collect()  # uncollected garbage is not an object's memory
        before = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            held[i] = build()
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return traced / count


_R, _P = (4, 2), (1, 1)
_MARKED = MarkedPartition((2, 2), ((2, 1),))
_PAIRS = ((4, 2), (1, 1))


@pytest.mark.parametrize(
    "trusted, checked",
    [
        (lambda: ClassSymbol._trusted(None, _R, _P, None), lambda: ClassSymbol(r=_R, p=_P)),
        (lambda: UnipotentSymbol._trusted(_R, None, None), lambda: UnipotentSymbol(partition=_R)),
        (lambda: UnipotentSymbol._trusted(None, _MARKED, None), lambda: UnipotentSymbol(marked=_MARKED)),
        (lambda: MarkedPartition._trusted(_MARKED.c, _MARKED.eps), lambda: MarkedPartition(_MARKED.c, _MARKED.eps)),
        (lambda: Bipartition._trusted(_R, _P), lambda: Bipartition(_R, _P)),
        (lambda: PairSequenceBC._trusted(_PAIRS), lambda: PairSequenceBC(_PAIRS)),
    ],
    ids=["classical", "plain", "marked-symbol", "marked-partition", "bipartition", "pair-sequence"],
)
def test_trusted_builds_take_the_memory_of_checked_builds(trusted, checked):
    # a checked constructor ends in its type's _trusted, so a trusted build
    # is no larger; a checked build keeps its caller's tuples, and copies
    # none of them
    assert _traced_bytes_per_object(trusted) == pytest.approx(_traced_bytes_per_object(checked), rel=0.1)


def test_library_built_symbols_skip_the_constructor_checks(monkeypatch):
    # enumerator output, phi's images and psi's C and p2 sections are
    # canonical by construction, as are a class label or a unipotent name
    # read from a checked table, a type-A record of a checked symbol and the
    # good variant of a context, so none of them is checked again
    contexts = [context("A", 4), context("G2", char="p3"), context("F4", char="p2"), context("E8", char="p2")]
    comparisons = [context("C", 5, "p2"), context("E8", char="p2")]
    for ctx in contexts + comparisons:
        # a table load checks what it reads, so the tables are loaded first
        if ctx.is_exceptional:
            load_table(ctx)
            load_table(ctx.good())
            load_tau_table(ctx.family)
    calls, built = [], []
    for name in ("partitions", "weyl_classes", "classical_maps"):
        module = sys.modules[f"weylunip.{name}"]
        monkeypatch.setattr(module, "check_partition", lambda p: calls.append(p) or check_partition(p))
    new = MarkedPartition.__new__
    monkeypatch.setattr(MarkedPartition, "__new__", lambda cls, *args: calls.append(args) or new(cls, *args))
    for value_type in (ClassSymbol, UnipotentSymbol, GroupContext):
        monkeypatch.setattr(
            value_type,
            "__new__",
            lambda cls, *a, new=value_type.__new__, **kw: built.append(cls.__name__) or new(cls, *a, **kw),
        )
    for ctx in [ctx for ctx in BCD_UP_TO_8 if ctx.rank == 5]:
        for C in enumerate_classes(ctx):
            phi(ctx, C)
        unipotents = enumerate_unipotents(ctx)
        if ctx.family == "C" or ctx.char == "p2":
            for u in unipotents:
                psi(ctx, u)
        special_classes(ctx)
    for ctx in contexts:
        for C in enumerate_classes(ctx):
            phi(ctx, C)
        for u in enumerate_unipotents(ctx):
            psi(ctx, u)
            fiber_of(ctx, u)
        special_classes(ctx)
    for ctx in comparisons:
        for u in enumerate_unipotents(ctx):
            rho(ctx, u)
        for u0 in enumerate_unipotents(ctx.good()):
            pi(ctx, u0)
    assert calls == built == []
    # the B/D good section is canonical by a theorem, not by construction, so
    # it keeps the checked constructor: two record checks per value
    ctx = context("B", 5)
    unipotents = enumerate_unipotents(ctx)
    for u in unipotents:
        psi(ctx, u)
    assert len(calls) == 2 * len(unipotents)
    assert built == ["GroupContext"] + ["ClassSymbol"] * len(unipotents)
    MarkedPartition((2, 2), ((2, 0),))
    assert len(calls) == 2 * len(unipotents) + 2
    UnipotentSymbol(name="E_8")
    assert built[-1] == "UnipotentSymbol"
    # a table load builds each label component from the pattern that proved
    # its fields, and each row and table from the checked labels
    for value_type in (CarterComponent, FiberRow, FiberTable):
        monkeypatch.setattr(
            value_type,
            "__new__",
            lambda cls, *a, new=value_type.__new__, **kw: built.append(cls.__name__) or new(cls, *a, **kw),
        )
    built.clear()
    for cache in (_load, load_tau_table, _round_trip_label):
        cache.cache_clear()
    for family, char in TABLE_FILES:
        _load(family, char)
    for family in TAU_FILES:
        load_tau_table(family)
    assert set(built) <= {"GroupContext"}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: UnipotentSymbol(marked=(2, 2)), "marked Jordan type must be a MarkedPartition, got (2, 2)"),
        (
            lambda: UnipotentSymbol(marked=[(2, 2), ()]),
            "marked Jordan type must be a MarkedPartition, got [(2, 2), ()]",
        ),
        (
            lambda: psi(context("C", 2, "p2"), UnipotentSymbol(marked=(2, 2))),
            "marked Jordan type must be a MarkedPartition, got (2, 2)",
        ),
        (lambda: UnipotentSymbol(name=["x"]), "unipotent name must be a str, got ['x']"),
        (lambda: UnipotentSymbol(name=8), "unipotent name must be a str, got 8"),
        (lambda: psi(context("E8"), UnipotentSymbol(name=("E_8",))), "unipotent name must be a str, got ('E_8',)"),
    ],
    ids=["tuple-marked", "list-marked", "psi-tuple-marked", "list-name", "int-name", "psi-tuple-name"],
)
def test_unipotent_symbols_refuse_a_wrong_field(build, message):
    # each of these once built, and psi then raised AttributeError or hash
    # raised TypeError
    with pytest.raises(BadInput) as err:
        build()
    assert str(err.value) == message



def test_bare_symbols_store_their_records_as_tuples():
    C = ClassSymbol(r=[4, 2], p=[])
    u = UnipotentSymbol(partition=[4, 2])
    m = MarkedPartition([2, 2], ((2, 1),))
    assert (C.r, C.p, u.partition, m.c) == ((4, 2), (), (4, 2), (2, 2))
    assert hash(C) == hash(ClassSymbol(r=(4, 2), p=()))
    ctx = context("C", 3)
    assert psi(ctx, u) == psi(ctx, UnipotentSymbol(partition=(4, 2)))
    assert type(psi(ctx, u).r) is tuple
