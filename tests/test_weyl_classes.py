import pytest

from weylunip import oracle
from weylunip.classical_maps import UnipotentSymbol, phi, psi
from weylunip.errors import BadInput, BoundExceeded, InvalidClass, ParseError, WrongFamily
from weylunip.exceptional_tables import TABLE_FILES, load_table
from weylunip.partitions import MarkedPartition, even_partitions_of, paired_partitions_of, partitions_of
from weylunip.special_classes import TAU_FILES, special_classes
from weylunip.weyl_classes import (
    CHAR_VARIANTS,
    EXCEPTIONAL_RANK,
    FAMILIES,
    MIN_RANK,
    CarterComponent,
    CarterLabel,
    ClassSymbol,
    GroupContext,
    context,
    enumerate_classes,
    is_split_weyl_class,
    m_of_class,
    parse_carter_label,
    parse_class,
)


def test_context_validation():
    context("C", 2)
    context("F4", char="p2")
    with pytest.raises(BadInput):
        GroupContext("D", 2)
    with pytest.raises(BadInput):
        GroupContext("G2", 3)
    with pytest.raises(BadInput):
        GroupContext("E6", 6, "p2")
    with pytest.raises(BadInput):
        GroupContext("G2", 2, "p2")
    with pytest.raises(BadInput):
        context("B")
    with pytest.raises(BadInput, match="unknown family 'X'"):
        GroupContext("X", 1)
    with pytest.raises(WrongFamily, match="kappa undefined for family A"):
        context("A", 3).kappa


@pytest.mark.parametrize(
    "build, message",
    [
        # a bool is no int: no context prints as `A_True/good`
        (lambda: GroupContext("A", True), "rank must be an integer, got True"),
        (lambda: GroupContext("C", 2.0), "rank must be an integer, got 2.0"),
        (lambda: GroupContext("B", 3.5), "rank must be an integer, got 3.5"),
        (lambda: GroupContext("C", "3"), "rank must be an integer, got '3'"),
        (lambda: GroupContext("C", None), "rank must be an integer, got None"),
        (lambda: GroupContext("E8", 8.0), "rank must be an integer, got 8.0"),
        (lambda: enumerate_classes(context("C", 3), bound="5"), "rank bound must be an integer, got '5'"),
        (lambda: special_classes(context("C", 3), bound=2.5), "rank bound must be an integer, got 2.5"),
        (lambda: enumerate_classes(context("E8"), bound=True), "rank bound must be an integer, got True"),
    ],
    ids=[
        "rank-bool", "rank-float", "rank-fraction", "rank-text", "rank-none", "exceptional-rank-float",
        "bound-text", "special-bound-float", "exceptional-bound-bool",
    ],
)
def test_rank_and_bound_are_ints(build, message):
    with pytest.raises(BadInput) as err:
        build()
    assert str(err.value) == message


def test_one_catalogue():
    assert FAMILIES == ("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")
    assert FAMILIES == (*MIN_RANK, *EXCEPTIONAL_RANK)
    assert set(CHAR_VARIANTS) == set(FAMILIES)
    # the file names follow from the catalogue, in its order
    assert list(TABLE_FILES.items()) == [
        (("G2", "good"), "fiber_g2_good.tbl"),
        (("G2", "p3"), "fiber_g2_p3.tbl"),
        (("F4", "good"), "fiber_f4_good.tbl"),
        (("F4", "p2"), "fiber_f4_p2.tbl"),
        (("E6", "good"), "fiber_e6_good.tbl"),
        (("E7", "good"), "fiber_e7_good.tbl"),
        (("E7", "p2"), "fiber_e7_p2.tbl"),
        (("E8", "good"), "fiber_e8_good.tbl"),
        (("E8", "p2"), "fiber_e8_p2.tbl"),
        (("E8", "p3"), "fiber_e8_p3.tbl"),
    ]
    assert list(TAU_FILES.items()) == [
        ("G2", "tau_g2.tbl"),
        ("F4", "tau_f4.tbl"),
        ("E6", "tau_e6.tbl"),
        ("E7", "tau_e7.tbl"),
        ("E8", "tau_e8.tbl"),
    ]


def test_acceptance_contexts_in_catalogue_order():
    assert [str(ctx) for ctx in oracle.acceptance_contexts(3)] == [
        "B_2/good", "B_2/p2", "B_3/good", "B_3/p2",
        "C_2/good", "C_2/p2", "C_3/good", "C_3/p2",
        "D_3/good", "D_3/p2",
        "G2/good", "G2/p3", "F4/good", "F4/p2", "E6/good",
        "E7/good", "E7/p2", "E8/good", "E8/p2", "E8/p3",
    ]


def test_parse_carter_label_examples():
    lab = parse_carter_label("D_4(a_1)+2A_1")
    assert [(c.multiplier, c.series, c.subscript, c.qualifier) for c in lab.components] == [
        (1, "D", 4, "(a_1)"),
        (2, "A", 1, None),
    ]
    lab = parse_carter_label("(A_3+A_1)''")
    assert lab.parenthesized and lab.primes == 2
    assert [(c.series, c.subscript) for c in lab.components] == [("A", 3), ("A", 1)]
    lab = parse_carter_label("A_0")
    assert lab.components[0].subscript == 0 and lab.rank == 0
    # the outer closing parenthesis is the last one, even after a qualifier
    lab = parse_carter_label("(D_4(a_1)+A_1)'")
    assert lab.parenthesized and lab.primes == 1
    assert [(c.series, c.subscript, c.qualifier) for c in lab.components] == [
        ("D", 4, "(a_1)"),
        ("A", 1, None),
    ]
    # parentheses need no primes, and attached primes may follow a multiplier
    lab = parse_carter_label("(A_1)")
    assert (lab.parenthesized, lab.primes, str(lab)) == (True, 0, "(A_1)")
    lab = parse_carter_label("2A'_1")
    assert (lab.parenthesized, lab.primes, lab.components[0].multiplier, str(lab)) == (False, 1, 2, "2A'_1")


def test_carter_label_rank():
    assert parse_carter_label("D_4(a_1)+2A_1").rank == 6
    assert parse_carter_label("~A_2+A_1").rank == 3
    assert parse_carter_label("4A_1").rank == 4
    assert parse_carter_label("A''_7").rank == 7


def test_parse_carter_label_errors():
    for bad in (
        "",
        "A_",
        "(A_1",
        "A_1)",
        "A_1+",
        "X_2",
        "A_1''+A_2",
        "A_1 +A_2",
        "(A_1)+(A_2)",
        "(A_1)(a_1)",
        "(D_4(a_1)",
        "A'_1+A_2",
        "(A_1)x",
        "(A'_1)",
        "~A'_1",
        "((A_1))",
        # a structural fault is reported before a zero multiplier
        "0A_1+X_2",
    ):
        with pytest.raises(ParseError):
            parse_carter_label(bad)
    # a label that parses may still be refused by its constructor
    with pytest.raises(BadInput, match="^at most two primes supported$"):
        parse_carter_label("(A_1)'''")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CarterLabel(parse_carter_label("A_1").components, primes=3), "at most two primes supported"),
        (
            lambda: CarterLabel(parse_carter_label("A_2+A_1").components, primes=1),
            "attached primes require a single component",
        ),
        (lambda: ClassSymbol(), "class symbol must have exactly one shape"),
        (lambda: ClassSymbol(cycle_type=(1,), r=(), p=()), "class symbol must have exactly one shape"),
        (lambda: ClassSymbol(r=(2,)), "classical class symbol needs both r and p"),
        (lambda: ClassSymbol(r=(2, 4), p=()), "partition entries must be weakly decreasing: (2, 4)"),
        (lambda: ClassSymbol(r=(2,), p=(1, 1, 0)), "partition entries must be positive integers: (1, 1, 0)"),
        (lambda: ClassSymbol(cycle_type=(1, 2)), "partition entries must be weakly decreasing: (1, 2)"),
        # a caller's symbol built through the bare dataclass is checked where
        # it is built, so no map can answer with a non-canonical record
        (
            lambda: phi(context("C", 3), ClassSymbol(r=(2, 4), p=())),
            "partition entries must be weakly decreasing: (2, 4)",
        ),
        (
            lambda: phi(context("C", 2), ClassSymbol(r=(2.0,), p=(1, 1))),
            "partition entries must be positive integers: (2.0,)",
        ),
        (
            lambda: psi(context("C", 3), UnipotentSymbol(partition=(2, 4))),
            "partition entries must be weakly decreasing: (2, 4)",
        ),
        (
            lambda: psi(context("C", 2), UnipotentSymbol(partition=(2.0, 2.0))),
            "partition entries must be positive integers: (2.0, 2.0)",
        ),
        (
            lambda: psi(context("C", 3, "p2"), UnipotentSymbol(marked=MarkedPartition((2, 4), ()))),
            "partition entries must be weakly decreasing: (2, 4)",
        ),
        (lambda: UnipotentSymbol(partition=(0,)), "partition entries must be positive integers: (0,)"),
        (lambda: MarkedPartition((2, 2), ((2, 2),)), "marking bits must be 0 or 1: ((2, 2),)"),
        # a bool is no int: no map can answer with `3,True,True`
        (
            lambda: phi(context("B", 2), ClassSymbol(r=(2,), p=(True, True))),
            "partition entries must be positive integers: (True, True)",
        ),
        (lambda: MarkedPartition((2, 2), ((2, True),)), "marking bits must be 0 or 1: ((2, True),)"),
        (lambda: MarkedPartition((2, 2), ((2, 1.0),)), "marking bits must be 0 or 1: ((2, 1.0),)"),
        (
            lambda: MarkedPartition((2, 2), ((2.0, 1),)),
            "marking domain (2.0,) does not match required domain (2,) of (2, 2)",
        ),
        # A_1.0 once equalled and hashed like A_1, and phi answered for it
        (
            lambda: CarterLabel((CarterComponent(1.0, "A", 1.0),)),
            "multiplier must be an integer >= 1, got 1.0",
        ),
        (lambda: CarterComponent(True, "A", 1), "multiplier must be an integer >= 1, got True"),
        (lambda: CarterComponent(0, "A", 1), "multiplier must be an integer >= 1, got 0"),
        (lambda: parse_carter_label("0A_1"), "multiplier must be an integer >= 1, got 0"),
        (lambda: CarterComponent(1, "A", 1.0), "subscript must be an integer >= 0, got 1.0"),
        (lambda: CarterComponent(1, "A", -1), "subscript must be an integer >= 0, got -1"),
        (
            lambda: CarterLabel(parse_carter_label("A_1").components, primes=True),
            "primes must be an integer, got True",
        ),
        (
            lambda: CarterLabel(parse_carter_label("A_1").components, primes=1.0),
            "primes must be an integer, got 1.0",
        ),
        (
            lambda: CarterLabel(parse_carter_label("A_1").components, parenthesized=1),
            "parenthesized must be a bool, got 1",
        ),
        # a text label once built a class that phi answered for and m_of_class
        # failed on with an AttributeError; a list of components built a label
        # that could not be hashed
        (lambda: ClassSymbol(label="A_1"), "class label must be a CarterLabel, got 'A_1'"),
        (
            lambda: CarterLabel([1, 2]),
            "components must be a non-empty tuple of CarterComponent, got [1, 2]",
        ),
        (lambda: CarterLabel(()), "components must be a non-empty tuple of CarterComponent, got ()"),
        (
            lambda: CarterLabel(("A_1",)),
            "components must be a non-empty tuple of CarterComponent, got ('A_1',)",
        ),
        # a list series or qualifier once built a component that could not be
        # hashed, and an int qualifier one that printed A_13
        (lambda: CarterComponent(1, ["A"], 1), "series must be one of A..G or ~A..~G, got ['A']"),
        (lambda: CarterComponent(1, "H", 1), "series must be one of A..G or ~A..~G, got 'H'"),
        (lambda: CarterComponent(1, "A~", 1), "series must be one of A..G or ~A..~G, got 'A~'"),
        (lambda: CarterComponent(1, "A", 1, qualifier=3), "qualifier must be None or of the form (a_k), got 3"),
        (
            lambda: CarterComponent(1, "A", 1, qualifier=["x"]),
            "qualifier must be None or of the form (a_k), got ['x']",
        ),
        (
            lambda: CarterComponent(1, "D", 4, qualifier="a_1"),
            "qualifier must be None or of the form (a_k), got 'a_1'",
        ),
        # a tuple marking once built a symbol psi failed on with an
        # AttributeError, and a list name one that could not be hashed
        (lambda: UnipotentSymbol(marked=(2, 2)), "marked Jordan type must be a MarkedPartition, got (2, 2)"),
        (
            lambda: psi(context("C", 2, "p2"), UnipotentSymbol(marked=(2, 2))),
            "marked Jordan type must be a MarkedPartition, got (2, 2)",
        ),
        (lambda: UnipotentSymbol(name=["x"]), "unipotent name must be a str, got ['x']"),
    ],
    ids=[
        "label-primes",
        "label-attached-primes",
        "class-no-shape",
        "class-two-shapes",
        "class-half-classical",
        "class-increasing-record",
        "class-non-positive-record",
        "class-bare-increasing-cycle-type",
        "phi-bare-increasing-record",
        "phi-bare-float-record",
        "psi-bare-increasing-jordan-type",
        "psi-bare-float-jordan-type",
        "psi-bare-increasing-marked",
        "unipotent-non-positive",
        "marking-bit",
        "phi-bool-record",
        "marking-bool-bit",
        "marking-float-bit",
        "marking-float-value",
        "label-float-component",
        "component-bool-multiplier",
        "component-zero-multiplier",
        "label-text-zero-multiplier",
        "component-float-subscript",
        "component-negative-subscript",
        "label-bool-primes",
        "label-float-primes",
        "label-int-parenthesized",
        "class-text-label",
        "label-list-components",
        "label-no-components",
        "label-text-component",
        "component-list-series",
        "component-unknown-series",
        "component-trailing-tilde-series",
        "component-int-qualifier",
        "component-list-qualifier",
        "component-bare-qualifier",
        "unipotent-tuple-marked",
        "psi-tuple-marked",
        "unipotent-list-name",
    ],
)
def test_symbols_refuse_a_wrong_shape(build, message):
    with pytest.raises(BadInput) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("family", ["G2", "F4", "E6", "E7", "E8"])
def test_labels_round_trip_through_text(family):
    for char in CHAR_VARIANTS[family]:
        table = load_table(GroupContext(family, EXCEPTIONAL_RANK[family], char))
        for row in table.rows:
            for lab in row.classes:
                assert parse_carter_label(str(lab)) == lab


def test_m_of_class_examples():
    assert m_of_class(context("C", 3), ClassSymbol(r=(4,), p=(1, 1))) == 1
    assert m_of_class(context("D", 4), ClassSymbol(r=(4, 4), p=())) == 0
    assert m_of_class(context("F4"), ClassSymbol(label=parse_carter_label("~A_1"))) == 3
    assert m_of_class(context("A", 3), ClassSymbol(cycle_type=(2, 1, 1))) == 2


def test_m_of_class_validates():
    with pytest.raises(InvalidClass):
        m_of_class(context("C", 3), ClassSymbol(r=(3,), p=(1, 1, 1)))
    with pytest.raises(InvalidClass):
        m_of_class(context("D", 4), ClassSymbol(r=(4,), p=(2, 2)))
    with pytest.raises(InvalidClass):
        m_of_class(context("G2"), ClassSymbol(label=parse_carter_label("B_2")))


def test_split_class_examples():
    d4 = context("D", 4)
    assert is_split_weyl_class(d4, ClassSymbol(r=(), p=(4, 4)))
    assert not is_split_weyl_class(d4, ClassSymbol(r=(4, 4), p=()))
    assert not is_split_weyl_class(d4, ClassSymbol(r=(), p=(3, 3, 1, 1)))
    with pytest.raises(WrongFamily):
        is_split_weyl_class(context("C", 4), ClassSymbol(r=(), p=(4, 4)))


def test_enumerate_classes_c2():
    got = [str(C) for C in enumerate_classes(context("C", 2))]
    assert got == ["r=4;p=", "r=2,2;p=", "r=2;p=1,1", "r=;p=2,2", "r=;p=1,1,1,1"]


@pytest.mark.parametrize(
    "family,count", [("G2", 6), ("F4", 25), ("E6", 25), ("E7", 60), ("E8", 112)]
)
def test_enumerate_classes_exceptional_counts(family, count):
    for char in CHAR_VARIANTS[family]:
        classes = enumerate_classes(context(family, char=char))
        assert len(classes) == count
        assert len(set(classes)) == count


def test_class_sets_agree_across_variants():
    for family in ("G2", "F4", "E7", "E8"):
        good = set(enumerate_classes(context(family)))
        for char in CHAR_VARIANTS[family][1:]:
            assert set(enumerate_classes(context(family, char=char))) == good


CLASSICAL_CONTEXTS = [
    GroupContext(family, n, char)
    for family in ("B", "C", "D")
    for n in range(MIN_RANK[family], 9)
    for char in CHAR_VARIANTS[family]
]


def rebuild_classes(ctx):
    """The B/C/D classes from scratch: every pair of an all-even record
    (of even length in type D) and a record that pairs up in place, with
    sizes adding up to 2n, ordered by |r|, then r, then p, each descending."""
    out = []
    for rsum in range(2 * ctx.rank, -1, -1):
        for r in partitions_of(rsum):
            if any(x % 2 for x in r) or (ctx.family == "D" and len(r) % 2):
                continue
            for p in partitions_of(2 * ctx.rank - rsum):
                if p[::2] == p[1::2]:
                    out.append(ClassSymbol(r=r, p=p))
    return out


@pytest.mark.parametrize("ctx", CLASSICAL_CONTEXTS, ids=str)
def test_enumerate_classes_matches_a_rebuild(ctx):
    assert enumerate_classes(ctx) == rebuild_classes(ctx)


#: Every classical context up to rank 12, at every characteristic variant.
CLASSICAL_UP_TO_12 = [
    GroupContext(family, n, char)
    for family in MIN_RANK
    for n in range(MIN_RANK[family], 13)
    for char in CHAR_VARIANTS[family]
]


def reference_enumerate_classes(ctx):
    """``enumerate_classes`` with the paired list rebuilt for every stable
    record, kept as the reference for the list fetched once per ``|r|``."""
    if ctx.family == "A":
        return [ClassSymbol(cycle_type=p) for p in partitions_of(ctx.rank + 1)]
    two_n = 2 * ctx.rank
    return [
        ClassSymbol(r=r, p=p)
        for rsum in range(two_n, -1, -2)
        for r in even_partitions_of(rsum)
        if ctx.family != "D" or len(r) % 2 == 0
        for p in paired_partitions_of(two_n - rsum)
    ]


@pytest.mark.parametrize("ctx", CLASSICAL_UP_TO_12, ids=str)
def test_enumerate_classes_matches_the_per_record_reference(ctx):
    assert enumerate_classes(ctx) == reference_enumerate_classes(ctx)


def test_enumerate_classes_returns_a_fresh_list():
    ctx = context("D", 5, "p2")
    first = enumerate_classes(ctx)
    assert enumerate_classes(ctx) is not first
    first.reverse()
    first.append(ClassSymbol(r=(), p=()))
    # a changed list reaches no later call, at either characteristic
    assert enumerate_classes(context("D", 5)) == rebuild_classes(ctx)


def test_enumerate_classes_checks_the_bound_on_every_call():
    ctx = context("C", 12)
    enumerate_classes(ctx)
    with pytest.raises(BoundExceeded):
        enumerate_classes(ctx, bound=4)
    with pytest.raises(BoundExceeded):
        enumerate_classes(context("C", 12, "p2"), bound=11)


@pytest.mark.parametrize(
    "ctx",
    [context("A", 4), context("B", 3), context("C", 3), context("D", 4), context("G2"), context("E7")],
)
def test_m_bounded_by_rank_with_equality_only_at_identity(ctx):
    for C in enumerate_classes(ctx):
        m = m_of_class(ctx, C)
        assert 0 <= m <= ctx.rank
        if m == ctx.rank:
            if ctx.family == "A":
                assert C.cycle_type == (1,) * (ctx.rank + 1)
            elif ctx.is_exceptional:
                assert C.label.rank == 0
            else:
                assert C.r == () and C.p == (1, 1) * ctx.rank


@pytest.mark.parametrize(
    "ctx, text",
    [
        (context("A", 3), "2_2"),
        (context("C", 5), "r=٦,٤;p="),
        (context("C", 5), "r=;p=+1,+1"),
        (context("G2"), "A_٢"),
        (context("E8"), "٢A_1"),
        (context("F4"), "C_3(a_١)"),
    ],
)
def test_class_text_reads_only_ascii_digits(ctx, text):
    with pytest.raises(ParseError):
        parse_class(ctx, text)


def test_parse_class_dispatch():
    assert parse_class(context("A", 3), "2,1,1") == ClassSymbol(cycle_type=(2, 1, 1))
    assert parse_class(context("D", 4), "r=4,4;p=") == ClassSymbol(r=(4, 4), p=())
    assert parse_class(context("F4"), "A_3+~A_1") == ClassSymbol(label=parse_carter_label("A_3+~A_1"))
    with pytest.raises(ParseError):
        parse_class(context("D", 4), "4,4")
