import gc
import hashlib
import sys
import types
from collections import Counter
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import weylunip
from conftest import parse_bipartition, parse_pair_sequence_bc, parse_pair_sequence_d
from weylunip.classical_maps import phi, psi
from weylunip.errors import BadInput, BoundExceeded, NotSpecial, ParseError, WrongFamily
from weylunip.partitions import check_partition, partition, partitions_of
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
    in_A,
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
from weylunip.weyl_classes import (
    CHAR_VARIANTS,
    EXCEPTIONAL_RANK,
    MIN_RANK,
    ClassSymbol,
    context,
    enumerate_classes,
    is_split_weyl_class,
    parse_carter_label,
)


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
    # a half-empty even pair, flagged 1 so that no earlier condition refuses it
    assert not in_C(PairSequenceD(((4, 0, 1),)))
    with pytest.raises(BadInput, match="flags must be 0 or 1"):
        PairSequenceD(((4, 4, 2),))


def test_interlacing_predicates_refuse_a_wrong_total_and_a_broken_column():
    assert not in_A_prime(Bipartition((2,), ()), 3)
    assert not in_A_prime(Bipartition((1,), (3,)), 4)  # z_1 > y_1 + 1
    assert not in_C_prime(Bipartition((2,), ()), 3)
    assert not in_C_prime(Bipartition((1,), (2,)), 3)  # z_1 > y_1


def reference_interlaces(bp: Bipartition, low: int, high: int) -> bool:
    """Whether y_{i+1} + low <= z_i <= y_i + high at each index i at which y or
    z has a part, both sides padded with zeros."""
    width = max(len(bp.y), len(bp.z))
    y = list(bp.y) + [0] * (width + 1 - len(bp.y))
    z = list(bp.z) + [0] * (width - len(bp.z))
    return all(y[i + 1] + low <= z[i] <= y[i] + high for i in range(width))


@pytest.mark.parametrize("n", range(0, 11))
def test_interlacing_predicates_match_their_definition(n):
    # every bipartition of n, not only the images of h and k, so both bounds
    # of each column are tried on both sides
    for a in range(n + 1):
        for y in partitions_of(a):
            for z in partitions_of(n - a):
                bp = Bipartition(y, z)
                assert in_A_prime(bp, n) == reference_interlaces(bp, 0, 1), bp
                assert in_C_prime(bp, n) == reference_interlaces(bp, -1, 0), bp
                assert not in_A_prime(bp, n + 1) and not in_C_prime(bp, n + 1)


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
    assert special_class_of(context("C", 2), PairSequenceBC(((4, 0),))) == ClassSymbol(
        r=(4,), p=()
    )
    d4 = context("D", 4)
    split = special_class_of(d4, PairSequenceD(((4, 4, 0),)))
    assert split == ClassSymbol(r=(), p=(4, 4))
    assert is_split_weyl_class(d4, split)
    assert special_class_of(d4, PairSequenceD(((4, 4, 1),))) == ClassSymbol(r=(4, 4), p=())


@pytest.mark.parametrize(
    "ctx, x, error, message",
    [
        (context("C", 2), PairSequenceD(((4, 0, 1),)), NotSpecial, "not in the B/C special set: 4,0:1"),
        (context("C", 2), PairSequenceBC(((3, 1),)), NotSpecial, "not in the B/C special set: 3,1"),
        (context("D", 4), PairSequenceD(((6, 2, 0),)), NotSpecial, "not in the D special set: 6,2:0"),
        (context("A", 3), PairSequenceBC(((4, 0),)), WrongFamily, "not A"),
        (context("E8"), PairSequenceBC(((4, 0),)), WrongFamily, "not E8"),
        (context("C", 3), PairSequenceBC(((4, 0),)), BadInput, "total 4 does not match C_3/good"),
    ],
)
def test_special_class_of_refusals(ctx, x, error, message):
    with pytest.raises(error) as exc:
        special_class_of(ctx, x)
    assert type(exc.value) is error and str(exc.value).endswith(message)


@pytest.mark.parametrize(
    "build, message",
    [
        # the slots of a pair sequence are a partition but for a final 0
        (lambda: PairSequenceBC(((2.0, 2.0),)), "partition entries must be positive integers: (2.0, 2.0)"),
        (lambda: PairSequenceD(((3.0, 3.0, 0),)), "partition entries must be positive integers: (3.0, 3.0)"),
        (lambda: PairSequenceBC(((2, 2), (0, 0))), "partition entries must be positive integers: (2, 2, 0)"),
        (lambda: PairSequenceBC(((4, 0.0),)), "partition entries must be positive integers: (4, 0.0)"),
        (lambda: PairSequenceBC(((2, 4),)), "partition entries must be weakly decreasing: (2, 4)"),
        # a pair has two slots, and a flagged pair three with an int 0/1 flag
        (lambda: PairSequenceBC(((4, 0, 1),)), "each pair must have 2 entries: ((4, 0, 1),)"),
        (lambda: PairSequenceD(((4, 4),)), "each pair must have 3 entries: ((4, 4),)"),
        (lambda: PairSequenceD(((2, 2, 1.0),)), "flags must be 0 or 1: ((2, 2, 1.0),)"),
        # a bool is no int, in a slot, in the final slot or in a flag
        (lambda: PairSequenceBC(((True, True),)), "partition entries must be positive integers: (True, True)"),
        (lambda: PairSequenceBC(((2, False),)), "partition entries must be positive integers: (2, False)"),
        (lambda: PairSequenceD(((2, 2, True),)), "flags must be 0 or 1: ((2, 2, True),)"),
        # each side of a bipartition is a canonical partition
        (lambda: Bipartition((2,), (0,)), "partition entries must be positive integers: (0,)"),
        (lambda: Bipartition((1,), (0,)), "partition entries must be positive integers: (0,)"),
        (lambda: Bipartition((1, 2), ()), "partition entries must be weakly decreasing: (1, 2)"),
        (lambda: Bipartition((True,), ()), "partition entries must be positive integers: (True,)"),
    ],
    ids=[
        "bc-float",
        "d-float",
        "bc-zero-pair",
        "bc-float-zero",
        "bc-increasing",
        "bc-wide",
        "d-narrow",
        "d-float-flag",
        "bc-bool",
        "bc-bool-zero",
        "d-bool-flag",
        "bp-zero-d",
        "bp-zero-bc",
        "bp-increasing",
        "bp-bool",
    ],
)
def test_constructors_refuse_malformed_values(build, message):
    with pytest.raises(BadInput) as exc:
        build()
    assert type(exc.value) is BadInput and str(exc.value) == message


def test_constructors_store_tuples():
    # a sequence of lists is stored as a tuple of tuples, so it hashes
    x = PairSequenceBC([[4, 0]])
    assert x.pairs == ((4, 0),) and type(x.pairs[0]) is tuple
    assert hash(x) == hash(PairSequenceBC(((4, 0),)))
    assert PairSequenceD([(4, 4, 1)]).pairs == ((4, 4, 1),)
    bp = Bipartition([2, 1], [1])
    assert (bp.y, bp.z) == ((2, 1), (1,)) and hash(bp) == hash(Bipartition((2, 1), (1,)))


@pytest.mark.parametrize("C", [ClassSymbol(cycle_type=(2, 1)), ClassSymbol(label=parse_carter_label("E_8"))], ids=str)
def test_no_pair_sequence_for_a_class_outside_b_c_d(C):
    assert bc_pair_sequence_of(C) is None
    assert d_pair_sequence_of(C) is None


def test_is_special_class_examples():
    assert is_special_class(context("E8"), ClassSymbol(label=parse_carter_label("E_8(a_6)")))
    assert not is_special_class(context("G2"), ClassSymbol(label=parse_carter_label("G_2(a_1)")))
    assert not is_special_class(context("C", 2), ClassSymbol(r=(2,), p=(1, 1)))
    assert is_special_class(context("C", 2), ClassSymbol(r=(2, 2), p=()))
    assert is_special_class(context("A", 4), ClassSymbol(cycle_type=(3, 2)))
    # repeated even stable entries interleave illegally
    assert not is_special_class(context("D", 8), ClassSymbol(r=(6, 4, 4, 2), p=()))
    assert is_special_class(context("D", 8), ClassSymbol(r=(6, 4), p=(3, 3)))


def _tau_succeeds(ctx, C):
    try:
        tau(ctx, C)
    except BadInput:
        return False
    return True


def test_is_special_class_is_whether_tau_succeeds():
    ctxs = [
        context(family, n, char)
        for family, lo in MIN_RANK.items()
        for n in range(lo, 7)
        for char in CHAR_VARIANTS[family]
    ] + [context(family, char=char) for family in EXCEPTIONAL_RANK for char in CHAR_VARIANTS[family]]
    wrong_shapes = [
        ClassSymbol(cycle_type=(2, 1)),
        ClassSymbol(r=(2,), p=()),
        ClassSymbol(r=(4, 2), p=(1, 1)),
        ClassSymbol(r=(3,), p=(2, 1)),
        ClassSymbol(label=parse_carter_label("E_8")),
        ClassSymbol(label=parse_carter_label("G_2")),
    ]
    for ctx in ctxs:
        classes = enumerate_classes(ctx)
        for C in classes + wrong_shapes:
            assert is_special_class(ctx, C) == _tau_succeeds(ctx, C), (ctx, C)
        assert sum(map(partial(is_special_class, ctx), classes)) == len(special_classes(ctx))


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
                    C = ClassSymbol(r=r, p=p)
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
    assert tau(context("G2"), ClassSymbol(label=parse_carter_label("A_2"))) == "θ'"
    assert tau(context("F4"), ClassSymbol(label=parse_carter_label("B_4"))) == "χ_{4,1}"
    assert tau(context("E8"), ClassSymbol(label=parse_carter_label("D_4(a_1)"))) == "1400_37"
    with pytest.raises(NotSpecial):
        tau(context("G2"), ClassSymbol(label=parse_carter_label("A_1")))


def test_tau_classical():
    assert tau(context("C", 2), ClassSymbol(r=(2, 2), p=())) == "y=1;z=1"
    assert tau(context("B", 2), ClassSymbol(r=(4,), p=())) == "y=2;z="
    assert tau(context("D", 4), ClassSymbol(r=(), p=(4, 4))) == "y=2;z=2"
    assert tau(context("A", 3), ClassSymbol(cycle_type=(2, 2))) == "2,2"
    with pytest.raises(NotSpecial):
        tau(context("C", 2), ClassSymbol(r=(2,), p=(1, 1)))


def test_tau_table_labels_round_trip():
    from weylunip.weyl_classes import parse_carter_label

    for family in ("G2", "F4", "E6", "E7", "E8"):
        for lab, _ in load_tau_table(family).items():
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
    with pytest.raises(WrongFamily, match="no special-class table for family 'C'"):
        load_tau_table("C")


def test_special_classes_are_section_fixed_points():
    for ctx in (context("B", 4), context("C", 4), context("D", 4)):
        for s in special_classes(ctx):
            assert psi(ctx, phi(ctx, s)) == s


def test_special_class_listing_split_marks():
    d4 = context("D", 4)
    split = [C for C in special_classes(d4) if is_split_weyl_class(d4, C)]
    assert ClassSymbol(r=(), p=(4, 4)) in split
    assert ClassSymbol(r=(), p=(2, 2, 2, 2)) in split


def test_text_forms():
    assert str(PairSequenceD(((4, 4, 1), (2, 2, 0)))) == "4,4:1|2,2:0"
    assert parse_pair_sequence_d("4,4:1|2,2:0") == PairSequenceD(((4, 4, 1), (2, 2, 0)))
    assert parse_pair_sequence_bc("4,0") == PairSequenceBC(((4, 0),))
    assert parse_bipartition("y=2,1;z=1") == Bipartition((2, 1), (1,))
    with pytest.raises(ParseError):
        parse_pair_sequence_d("4,4")
    with pytest.raises(ParseError):
        parse_bipartition("2,1;1")


# --- independent recounts of the interlacing sets ----------------------------


def _bipartitions(n):
    """Every pair of partitions (y, z) with |y| + |z| = n."""
    for size in range(n + 1):
        for y in partitions_of(size):
            for z in partitions_of(n - size):
                yield y, z


def _padded_columns(y, z):
    """(y_i, z_i, y_{i+1}) with zeros past the end, for each index at which y
    or z has a part."""
    width = max(len(y), len(z))
    yy = y + (0,) * (width + 1 - len(y))
    zz = z + (0,) * (width - len(z))
    return [(yy[i], zz[i], yy[i + 1]) for i in range(width)]


def brute_A_prime(n):
    """Bipartitions of n with y_{i+1} <= z_i <= y_i + 1 at every column."""
    return Counter(
        (y, z)
        for y, z in _bipartitions(n)
        if all(y1 <= zi <= yi + 1 for yi, zi, y1 in _padded_columns(y, z))
    )


def brute_C_prime(n):
    """Bipartitions of n with y_{i+1} - 1 <= z_i <= y_i at every column."""
    return Counter(
        (y, z)
        for y, z in _bipartitions(n)
        if all(y1 - 1 <= zi <= yi for yi, zi, y1 in _padded_columns(y, z))
    )


@pytest.mark.parametrize("n", range(0, 11))
def test_interlacing_enumerators_against_independent_recount(n):
    assert Counter((bp.y, bp.z) for bp in enumerate_A_prime(n)) == brute_A_prime(n)
    assert Counter((bp.y, bp.z) for bp in enumerate_C_prime(n)) == brute_C_prime(n)


def reference_interlaced(n, next_ymax, z_step):
    """The recursive column-by-column generator the enumerators replaced: it
    yields every interlacing bipartition as two zero-padded sequences."""

    def rec(rem, ymax, zmax):
        for y in range(min(ymax, rem), -1, -1):
            for z in range(min(zmax, z_step(y), rem - y), -1, -1):
                if y == 0 and z == 0:
                    if rem == 0:
                        yield ((), ())
                    continue
                for ys, zs in rec(rem - y - z, next_ymax(y, z), z):
                    yield ((y,) + ys, (z,) + zs)

    yield from rec(n, n, n + 2)


@pytest.mark.parametrize("n", range(0, 15))
def test_interlacing_enumerators_keep_the_reference_order(n):
    ref_a = reference_interlaced(n, lambda y, z: min(y, z), lambda y: y + 1)
    ref_c = reference_interlaced(n, lambda y, z: min(y, z + 1), lambda y: y)
    assert [(bp.y, bp.z) for bp in enumerate_A_prime(n)] == [
        (partition(ys), partition(zs)) for ys, zs in ref_a
    ]
    assert [(bp.y, bp.z) for bp in enumerate_C_prime(n)] == [
        (partition(ys), partition(zs)) for ys, zs in ref_c
    ]


def order_digest(enumerator):
    """SHA-256 of one line str(x) per element over n = 0..14, in enumerator
    order; the empty sequence or bipartition at n = 0 is an empty line."""
    digest = hashlib.sha256()
    for n in range(15):
        for x in enumerator(n):
            digest.update(f"{x}\n".encode())
    return digest.hexdigest()


INTERLACED_ORDER_DIGESTS = {
    enumerate_A_prime: "d169e8cac1ec60b52bc62f322864d8968562c368f139d8eb52d141696c8006ce",
    enumerate_C_prime: "deda813c80ccf940850681c52dbaa7e249fda6b55cf420d8b8c9e12c021741b4",
}


@pytest.mark.parametrize("enumerator", INTERLACED_ORDER_DIGESTS, ids=lambda f: f.__name__)
def test_interlacing_enumerators_keep_their_pinned_order(enumerator):
    assert order_digest(enumerator) == INTERLACED_ORDER_DIGESTS[enumerator]


PAIR_SEQUENCE_ORDER_DIGESTS = {
    enumerate_A: "749b57ef5262cb6afcfbd097a0639d58b4334f35286be58db100d60b8e0306e0",
    enumerate_C: "b4887f06b7cff2101dc254eae3b40e4f981084039d922baeea384e753f2ce4b0",
}


@pytest.mark.parametrize("enumerator", PAIR_SEQUENCE_ORDER_DIGESTS, ids=lambda f: f.__name__)
def test_pair_sequence_enumerators_keep_their_pinned_order(enumerator):
    assert order_digest(enumerator) == PAIR_SEQUENCE_ORDER_DIGESTS[enumerator]


#: Each enumerator with the one element it gives at n = 0.
EMPTY_ELEMENTS = {
    enumerate_A: PairSequenceBC(()),
    enumerate_C: PairSequenceD(()),
    enumerate_A_prime: Bipartition((), ()),
    enumerate_C_prime: Bipartition((), ()),
}


@pytest.mark.parametrize("enumerator", EMPTY_ELEMENTS, ids=lambda f: f.__name__)
def test_enumerators_give_one_empty_element_at_zero(enumerator):
    assert enumerator(0) == [EMPTY_ELEMENTS[enumerator]]


def test_no_enumerator_walk_outlives_its_call():
    # a walk whose recursive closure is left to the cyclic collector keeps
    # its tails alive until a collection, which raises the peak memory
    gc.collect()
    gc.disable()
    try:
        for enumerator in EMPTY_ELEMENTS:
            enumerator(12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _rebuilt(v):
    """A special-set value built again through its checked constructor."""
    if isinstance(v, Bipartition):
        return Bipartition(v.y, v.z)
    return type(v)(v.pairs)


@pytest.mark.parametrize("n", range(13))
def test_enumerated_pair_sequences_pass_the_public_constructors(n):
    # the enumerators and the maps build their values without the constructor
    # checks; rebuilding through them must accept every value unchanged
    side_a, side_c = enumerate_A(n), enumerate_C(n)
    prime_a, prime_c = enumerate_A_prime(n), enumerate_C_prime(n)
    values = [
        *side_a,
        *side_c,
        *prime_a,
        *prime_c,
        *map(h, side_a),
        *map(k, side_c),
        *map(h_inv, prime_a),
        *map(k_inv, prime_c),
    ]
    for v in values:
        rebuilt = _rebuilt(v)
        assert type(rebuilt) is type(v) and rebuilt == v and hash(rebuilt) == hash(v), v


def test_library_built_special_values_skip_the_constructor_checks(monkeypatch):
    # the enumerators, the maps on library values, special_class_of on
    # enumerated sequences and tau build canonical values, so none of them
    # runs a partition check
    calls = []
    for name in ("partitions", "weyl_classes", "special_classes"):
        module = sys.modules[f"weylunip.{name}"]
        monkeypatch.setattr(module, "check_partition", lambda p: calls.append(p) or check_partition(p))
    for family, side in (("B", enumerate_A), ("C", enumerate_A), ("D", enumerate_C)):
        ctx = context(family, 8)
        for x in side(8):
            special_class_of(ctx, x)
        for C in special_classes(ctx):
            tau(ctx, C)
    for n in range(9):
        for x in enumerate_A(n):
            h_inv(h(x))
        for x in enumerate_C(n):
            k_inv(k(x))
        for bp in enumerate_A_prime(n):
            h(h_inv(bp))
        for bp in enumerate_C_prime(n):
            k(k_inv(bp))
    assert calls == []
    # a caller's values are checked: two sides of a bipartition, one slot run
    Bipartition((2,), (1,))
    PairSequenceD(((4, 4, 1),))
    assert calls == [(2,), (1,), [4, 4]]


# --- the checked constructors and maps against independent references ------


def reference_partition(parts):
    """Canonical-partition check by sorting; returns the parts it accepts."""
    if any(not isinstance(x, int) or x <= 0 for x in parts):
        raise BadInput(f"partition entries must be positive integers: {tuple(parts)}")
    if list(parts) != sorted(parts, reverse=True):
        raise BadInput(f"partition entries must be weakly decreasing: {tuple(parts)}")
    return parts


def reference_pair_shape(pairs, width=2):
    """Shape check by flattening and sorting; returns the pairs it accepts."""
    if any(len(pair) != width for pair in pairs):
        raise BadInput(f"each pair must have {width} entries: {pairs}")
    if any(not isinstance(e, int) or e not in (0, 1) for pair in pairs for e in pair[2:]):
        raise BadInput(f"flags must be 0 or 1: {pairs}")
    flat = [x for pair in pairs for x in pair[:2]]
    if flat and flat[-1] == 0 and isinstance(flat[-1], int):  # B/C's final zero
        flat.pop()
    reference_partition(flat)
    return pairs


def reference_flagged_shape(pairs):
    return reference_pair_shape(pairs, 3)


def reference_bipartition(sides):
    return tuple(map(reference_partition, sides))


def reference_h(x):
    if not in_A(x):
        raise NotSpecial(f"pair sequence outside the B/C special set: {x}")
    ys, zs = [], []
    for a, b in x.pairs:
        if a % 2 == 0:
            ys.append(a // 2)
            zs.append(b // 2)
        else:
            c = (a - 1) // 2
            ys.append(c)
            zs.append(c + 1)
    return partition(ys), partition(zs)


def reference_h_inv(bp):
    columns = _padded_columns(bp.y, bp.z)
    if not all(y1 <= z <= y + 1 for y, z, y1 in columns):
        raise NotSpecial(f"bipartition fails the B/C interlacing: {bp}")
    pairs = []
    for y, z, _ in columns:
        if z <= y:
            pairs.append((2 * y, 2 * z))
        else:
            pairs.append((2 * y + 1, 2 * y + 1))
    return reference_pair_shape(tuple(pairs))


def reference_k(x):
    if not in_C(x):
        raise NotSpecial(f"pair sequence outside the D special set: {x}")
    ys, zs = [], []
    for a, b, e in x.pairs:
        if a % 2 == 1:
            ys.append((a + 1) // 2)
            zs.append((a - 1) // 2)
        elif e == 0:
            ys.append(a // 2)
            zs.append(a // 2)
        else:
            ys.append((a + 2) // 2)
            zs.append((b - 2) // 2)
    return partition(ys), partition(zs)


def reference_k_inv(bp):
    columns = _padded_columns(bp.y, bp.z)
    if not all(y1 - 1 <= z <= y for y, z, y1 in columns):
        raise NotSpecial(f"bipartition fails the D interlacing: {bp}")
    pairs = []
    for y, z, _ in columns:
        if y == z:
            pairs.append((2 * y, 2 * y, 0))
        elif y == z + 1:
            pairs.append((2 * y - 1, 2 * y - 1, 0))
        else:
            pairs.append((2 * y - 2, 2 * z + 2, 1))
    return reference_flagged_shape(tuple(pairs))


def outcome(fn, arg):
    """A value in comparable form (pair tuples, or (y, z)), or the type and
    message of the exception raised."""
    try:
        value = fn(arg)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    if isinstance(value, (PairSequenceBC, PairSequenceD)):
        return value.pairs
    if isinstance(value, Bipartition):
        return value.y, value.z
    return value


entries = st.integers(-1, 7)
pair = st.tuples(entries, entries)
flagged_pair = st.tuples(entries, entries, st.integers(-1, 2))
# a few pairs of the other width, so that the width refusal is compared too
bc_pairs = st.lists(st.one_of(pair, pair, flagged_pair), max_size=4).map(tuple)
d_pairs = st.lists(st.one_of(flagged_pair, flagged_pair, pair), max_size=4).map(tuple)
parts = st.lists(st.integers(-1, 5), max_size=4).map(tuple)
sorted_parts = st.lists(st.integers(1, 5), max_size=4).map(lambda p: tuple(sorted(p, reverse=True)))
sides = st.one_of(parts, sorted_parts)


@given(bc_pairs)
@example(((1, 2), (-1, 0)))
@example(((2, 4), (0, 0)))
@example(((2, 2), (0, 0)))
@example(((4, 2), (2, 2)))
@example(((3, 3), (1, 1)))
@example(((2.0, 2.0),))
@example(((4, 0, 1),))
@example(((4, 0.0),))
def test_bc_constructor_and_h_match_the_reference(pairs):
    got = outcome(PairSequenceBC, pairs)
    assert got == outcome(reference_pair_shape, pairs)
    if got == pairs:
        x = PairSequenceBC(pairs)
        assert outcome(h, x) == outcome(reference_h, x)


@given(d_pairs)
@example(((1, 2, 0), (-1, 0, 5)))
@example(((2, 4, 7),))
@example(((4, 4, 1), (0, 0, 2)))
@example(((4, 4, 1), (2, 2, 0)))
@example(((4, 4, 1), (4, 4, 0)))
@example(((6, 4, 1), (3, 3, 0)))
@example(((4, 4),))
@example(((2, 2, 1.0),))
@example(((3.0, 3.0, 0),))
def test_d_constructor_and_k_match_the_reference(pairs):
    got = outcome(PairSequenceD, pairs)
    assert got == outcome(reference_flagged_shape, pairs)
    if got == pairs:
        x = PairSequenceD(pairs)
        assert outcome(k, x) == outcome(reference_k, x)


@given(sides, sides)
@example((2,), (3,))
@example((1, 2), ())
@example((2, -1), (1,))
@example((2, 1), (2, 1))
@example((3, 0, 1), (0, 1))
@example((2,), (0,))
@example((1,), (0,))
@example((2.0,), ())
def test_inverse_maps_match_the_reference(y, z):
    # constructor, then map: the maps only see the bipartitions it accepts
    got = outcome(lambda sides: Bipartition(*sides), (y, z))
    assert got == outcome(reference_bipartition, (y, z))
    if got == (y, z):
        bp = Bipartition(y, z)
        assert outcome(h_inv, bp) == outcome(reference_h_inv, bp)
        assert outcome(k_inv, bp) == outcome(reference_k_inv, bp)


@pytest.mark.parametrize("n", range(0, 9))
def test_maps_match_the_reference_on_the_special_sets(n):
    for x in enumerate_A(n):
        assert outcome(h, x) == reference_h(x)
    for x in enumerate_C(n):
        assert outcome(k, x) == reference_k(x)
    for bp in enumerate_A_prime(n):
        assert outcome(h_inv, bp) == reference_h_inv(bp)
    for bp in enumerate_C_prime(n):
        assert outcome(k_inv, bp) == reference_k_inv(bp)


# --- tau on type D ------------------------------------------------------------


def test_tau_checks_the_d_special_set_once(monkeypatch):
    module = sys.modules["weylunip.special_classes"]
    ctx = context("D", 8)
    classes = enumerate_classes(ctx)
    special = set(special_classes(ctx))
    calls = []
    real_in_C = module.in_C
    monkeypatch.setattr(module, "in_C", lambda x: calls.append(x) or real_in_C(x))
    for C in classes:
        if C in special:
            x = d_pair_sequence_of(C)
            before = len(calls)
            assert tau(ctx, C) == str(Bipartition(*reference_k(x)))
            assert len(calls) - before == 1, C
        else:
            with pytest.raises(NotSpecial) as err:
                tau(ctx, C)
            assert str(err.value) == f"{C} is not special in {ctx}"
    assert (len(special), len(classes)) == (55, 95)


def test_special_classes_runs_no_membership_predicate(monkeypatch):
    # the enumerators only yield members of the special sets
    module = weylunip.special_classes
    calls = []
    for name in ("in_A", "in_C"):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda x, real=real: calls.append(x) or real(x))
    counts = [len(special_classes(context(family, 8))) for family in ("B", "C", "D")]
    assert calls == [] and counts[0] == counts[1] and counts[2] == 55


# --- the package-level name ---------------------------------------------------


def test_special_classes_name_binds_the_module_in_the_package():
    import weylunip.special_classes as bound

    assert isinstance(bound, types.ModuleType)
    assert bound is weylunip.special_classes is sys.modules["weylunip.special_classes"]
    assert bound.special_classes is special_classes
    assert bound.in_C is in_C
