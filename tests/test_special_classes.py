from collections import Counter
from itertools import product

import pytest

from conftest import parse_bipartition, parse_pair_sequence_bc, parse_pair_sequence_d
from weylunip.classical_maps import phi, psi
from weylunip.errors import BoundExceeded, NotSpecial, ParseError
from weylunip.partitions import partitions_of
from weylunip.special_classes import (
    Bipartition,
    PairSequenceBC,
    PairSequenceD,
    bc_pair_sequence_of,
    d_pair_sequence_of,
    enumerate_A,
    enumerate_A_prime,
    enumerate_C,
    enumerate_C_prime,
    h,
    h_inv,
    in_A_prime,
    in_C,
    in_C0,
    in_C0_prime,
    in_C_prime,
    is_special_class,
    k,
    k_inv,
    load_tau_table,
    special_class_of,
    special_classes,
    tau,
)
from weylunip.weyl_classes import ClassSymbol, context, enumerate_classes, is_split_weyl_class


def brute_A(n):
    """Independent recount of the B/C special set: pair up every partition of
    2n in place (padding odd length with one zero) and keep the pairings with
    equal pair parity and equal odd pairs."""
    kept = set()
    for lam in partitions_of(2 * n):
        padded = lam if len(lam) % 2 == 0 else lam + (0,)
        pairs = tuple((padded[i], padded[i + 1]) for i in range(0, len(padded), 2))
        if all((a - b) % 2 == 0 and (a % 2 == 0 or a == b) for a, b in pairs):
            kept.add(pairs)
    return kept


def test_in_A_enumeration_n2():
    got = {x.pairs for x in enumerate_A(2)}
    assert got == {((4, 0),), ((2, 2),), ((1, 1), (1, 1))}
    assert got == brute_A(2)


@pytest.mark.parametrize("n", range(2, 9))
def test_enumerate_A_against_independent_recount(n):
    assert {x.pairs for x in enumerate_A(n)} == brute_A(n)


def brute_C(n):
    """Independent recount of the D special set: pair up every even-length
    partition of 2n in place, try every flag assignment, and keep the flagged
    sequences that pass ``in_C``."""
    kept = set()
    for lam in partitions_of(2 * n):
        if len(lam) % 2:
            continue
        pairs = tuple(zip(lam[::2], lam[1::2]))
        for flags in product((0, 1), repeat=len(pairs)):
            x = PairSequenceD(tuple((a, b, e) for (a, b), e in zip(pairs, flags)))
            if in_C(x):
                kept.add(x.pairs)
    return kept


@pytest.mark.parametrize("n", range(3, 9))
def test_enumerate_C_against_independent_recount(n):
    side = enumerate_C(n)
    assert len({x.pairs for x in side}) == len(side)
    assert {x.pairs for x in side} == brute_C(n)


def test_in_C_examples():
    assert in_C(PairSequenceD(((4, 4, 1),)))
    assert in_C(PairSequenceD(((4, 4, 0),)))
    assert in_C0(PairSequenceD(((4, 4, 0),)))
    assert not in_C0(PairSequenceD(((4, 4, 1),)))
    # unequal even pair requires flag 1
    assert not in_C(PairSequenceD(((6, 4, 0),)))
    assert in_C(PairSequenceD(((6, 4, 1),)))
    # touching even pairs force flag 0 on both
    assert not in_C(PairSequenceD(((4, 4, 1), (4, 4, 0))))
    assert in_C(PairSequenceD(((4, 4, 0), (4, 4, 0))))
    assert in_C(PairSequenceD(((4, 4, 1), (2, 2, 0))))


def test_h_examples():
    assert h(PairSequenceBC(((2, 2),))) == Bipartition((1,), (1,))
    assert h(PairSequenceBC(((1, 1), (1, 1)))) == Bipartition((), (1, 1))
    assert h(PairSequenceBC(((4, 0),))) == Bipartition((2,), ())
    assert h_inv(Bipartition((2,), ())) == PairSequenceBC(((4, 0),))
    with pytest.raises(NotSpecial):
        h(PairSequenceBC(((2, 1),)))


def test_k_examples():
    assert k(PairSequenceD(((3, 3, 0),))) == Bipartition((2,), (1,))
    assert k(PairSequenceD(((4, 4, 1),))) == Bipartition((3,), (1,))
    assert k(PairSequenceD(((4, 4, 0),))) == Bipartition((2,), (2,))
    # diagonal bipartitions pull back to all-even flag-0 sequences
    assert k_inv(Bipartition((2, 1), (2, 1))) == PairSequenceD(((4, 4, 0), (2, 2, 0)))
    with pytest.raises(NotSpecial):
        k_inv(Bipartition((1,), (2,)))


@pytest.mark.parametrize("n", range(2, 13))
def test_h_round_trips(n):
    side = enumerate_A(n)
    prime = enumerate_A_prime(n)
    assert len(side) == len(prime)
    assert {str(h(x)) for x in side} == {str(b) for b in prime}
    for x in side:
        assert in_A_prime(h(x), n)
        assert h_inv(h(x)) == x
    for bp in prime:
        assert h(h_inv(bp)) == bp


@pytest.mark.parametrize("n", range(2, 13))
def test_k_round_trips_and_diagonal(n):
    side = enumerate_C(n)
    prime = enumerate_C_prime(n)
    assert len(side) == len(prime)
    for x in side:
        assert in_C_prime(k(x), n)
        assert k_inv(k(x)) == x
    for bp in prime:
        assert k(k_inv(bp)) == bp
    diag = {str(bp) for bp in prime if in_C0_prime(bp, n)}
    assert {str(k(x)) for x in side if in_C0(x)} == diag


def test_special_class_of_examples():
    assert special_class_of(context("C", 2), PairSequenceBC(((4, 0),))) == ClassSymbol.classical(
        (4,), ()
    )
    d4 = context("D", 4)
    split = special_class_of(d4, PairSequenceD(((4, 4, 0),)))
    assert split == ClassSymbol.classical((), (4, 4))
    assert is_split_weyl_class(d4, split)
    assert special_class_of(d4, PairSequenceD(((4, 4, 1),))) == ClassSymbol.classical((4, 4), ())


def test_is_special_class_examples():
    assert is_special_class(context("E8"), ClassSymbol.exceptional("E_8(a_6)"))
    assert not is_special_class(context("G2"), ClassSymbol.exceptional("G_2(a_1)"))
    assert not is_special_class(context("C", 2), ClassSymbol.classical((2,), (1, 1)))
    assert is_special_class(context("C", 2), ClassSymbol.classical((2, 2), ()))
    assert is_special_class(context("A", 4), ClassSymbol.type_a((3, 2)))
    # repeated even stable entries interleave illegally
    assert not is_special_class(context("D", 8), ClassSymbol.classical((6, 4, 4, 2), ()))
    assert is_special_class(context("D", 8), ClassSymbol.classical((6, 4), (3, 3)))


@pytest.mark.parametrize("n", range(3, 11))
def test_pair_sequence_to_class_is_injective_for_d(n):
    # the touching-pairs flag constraint exists precisely to make the class
    # assignment injective
    ctx = context("D", n)
    seen = {}
    for x in enumerate_C(n):
        s = special_class_of(ctx, x)
        assert (s.r, s.p) not in seen, (x, seen[(s.r, s.p)])
        seen[(s.r, s.p)] = x


def test_pair_sequence_recovery_is_faithful():
    for n in range(2, 9):
        ctx = context("C", n)
        for x in enumerate_A(n):
            assert bc_pair_sequence_of(special_class_of(ctx, x)) == x
        ctxd = context("D", max(n, 3))
        for x in enumerate_C(max(n, 3)):
            assert d_pair_sequence_of(special_class_of(ctxd, x)) == x


def searched_d_pair_sequence(C):
    """Reference for ``d_pair_sequence_of``: a backtracking search over both
    sides (stable with flag 1, swap with flag 0) for every pair of the merged
    record, keeping the first assignment whose stable entries are exactly r
    and which lies in the D special set."""
    merged = tuple(sorted(C.r + C.p, reverse=True))
    if len(merged) % 2:
        return None
    pairs = tuple(zip(merged[::2], merged[1::2]))
    matches = []

    def rec(i, left, acc):
        if i == len(pairs):
            if not +left:
                x = PairSequenceD(acc)
                if in_C(x):
                    matches.append(x)
            return
        a, b = pairs[i]
        if a % 2 == 1:
            if a == b:
                rec(i + 1, left, acc + ((a, b, 0),))
            return
        if a == b:
            rec(i + 1, left, acc + ((a, b, 0),))
        if left[a] >= 1 and left[b] >= (2 if a == b else 1):
            nxt = left.copy()
            nxt[a] -= 1
            nxt[b] -= 1
            rec(i + 1, nxt, acc + ((a, b, 1),))

    rec(0, Counter(C.r), ())
    return matches[0] if matches else None


def test_forced_d_flags_agree_with_search():
    checked = 0
    for size in range(17):
        for rsum in range(size + 1):
            for r in partitions_of(rsum):
                for p in partitions_of(size - rsum):
                    C = ClassSymbol.classical(r, p)
                    assert d_pair_sequence_of(C) == searched_d_pair_sequence(C), C
                    checked += 1
    assert checked == 17345


@pytest.mark.parametrize("family", "BCD")
def test_special_classes_are_the_special_members_of_the_group(family):
    for n in range(3 if family == "D" else 2, 11):
        ctx = context(family, n)
        special = set(special_classes(ctx))
        assert {C for C in enumerate_classes(ctx) if is_special_class(ctx, C)} == special


def test_special_classes_honour_the_bound():
    with pytest.raises(BoundExceeded):
        special_classes(context("C", 21))
    assert len(special_classes(context("C", 21), bound=21)) == 4274


def test_tau_exceptional_spot_values():
    assert tau(context("G2"), ClassSymbol.exceptional("A_2")) == "θ'"
    assert tau(context("F4"), ClassSymbol.exceptional("B_4")) == "χ_{4,1}"
    assert tau(context("E8"), ClassSymbol.exceptional("D_4(a_1)")) == "1400_37"
    with pytest.raises(NotSpecial):
        tau(context("G2"), ClassSymbol.exceptional("A_1"))


def test_tau_classical():
    assert tau(context("C", 2), ClassSymbol.classical((2, 2), ())) == "y=1;z=1"
    assert tau(context("B", 2), ClassSymbol.classical((4,), ())) == "y=2;z="
    assert tau(context("D", 4), ClassSymbol.classical((), (4, 4))) == "y=2;z=2"
    assert tau(context("A", 3), ClassSymbol.type_a((2, 2))) == "2,2"
    with pytest.raises(NotSpecial):
        tau(context("C", 2), ClassSymbol.classical((2,), (1, 1)))


def test_tau_table_labels_round_trip():
    from weylunip.weyl_classes import parse_carter_label

    for family in ("G2", "F4", "E6", "E7", "E8"):
        for lab, _ in load_tau_table(family):
            assert parse_carter_label(str(lab)) == lab


def test_tau_table_sizes():
    # sizes of the shipped tables: one special class per Lusztig family of W
    # (Lusztig 1984, ch. 4; Carter 1985, sec. 13.9)
    assert {fam: len(load_tau_table(fam)) for fam in ("G2", "F4", "E6", "E7", "E8")} == {
        "G2": 3,
        "F4": 11,
        "E6": 17,
        "E7": 35,
        "E8": 46,
    }


def test_special_classes_are_section_fixed_points():
    for ctx in (context("B", 4), context("C", 4), context("D", 4)):
        for s in special_classes(ctx):
            assert psi(ctx, phi(ctx, s)) == s


def test_special_class_listing_split_marks():
    d4 = context("D", 4)
    split = [C for C in special_classes(d4) if is_split_weyl_class(d4, C)]
    assert ClassSymbol.classical((), (4, 4)) in split
    assert ClassSymbol.classical((), (2, 2, 2, 2)) in split


def test_text_forms():
    assert str(PairSequenceD(((4, 4, 1), (2, 2, 0)))) == "4,4:1|2,2:0"
    assert parse_pair_sequence_d("4,4:1|2,2:0") == PairSequenceD(((4, 4, 1), (2, 2, 0)))
    assert parse_pair_sequence_bc("4,0") == PairSequenceBC(((4, 0),))
    assert parse_bipartition("y=2,1;z=1") == Bipartition((2, 1), (1,))
    with pytest.raises(ParseError):
        parse_pair_sequence_d("4,4")
    with pytest.raises(ParseError):
        parse_bipartition("2,1;1")
