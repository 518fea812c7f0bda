import re
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylunip.errors import BadInput, NotInQ, ParseError
from weylunip.partitions import (
    MarkedPartition,
    check_partition,
    epsilon_domain,
    even_partitions_of,
    format_marked,
    format_partition,
    in_P_tilde,
    in_Q,
    in_R,
    in_S_kappa,
    in_T,
    multiplicity,
    paired_partitions_of,
    parse_marked,
    parse_partition,
    partition,
    partitions_of,
)


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """Number of partitions of ``n`` via the pentagonal-number recurrence,
    independent of ``partitions_of``: the cross-check of its exhaustiveness."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 == 1 else -1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def reference_partitions(n: int, max_part: int):
    """The partitions of ``n`` with parts at most ``max_part``, lexicographically
    decreasing, by recursion on the largest part: the order reference for
    ``partitions_of``."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in reference_partitions(n - k, k):
            yield (k,) + rest


partitions_st = st.lists(st.integers(1, 9), max_size=7).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_multiplicity_examples():
    assert multiplicity((4, 2, 2, 1), 2) == 2
    assert multiplicity((), 5) == 0
    assert multiplicity((3, 3, 3), 3) == 3


def test_in_p_tilde_examples():
    assert in_P_tilde((3, 3, 1, 1))
    assert not in_P_tilde((3, 1, 1))
    assert in_P_tilde(())


def test_in_s_kappa_examples():
    assert in_S_kappa((4, 2), 0)
    assert not in_S_kappa((4, 2, 2), 0)
    assert not in_S_kappa((4, 3), 1)
    with pytest.raises(BadInput):
        in_S_kappa((4, 2), 2)


def test_in_t_examples():
    assert in_T((2, 1, 1), 4)
    assert not in_T((3, 1), 4)
    assert in_T((4, 4), 8)
    with pytest.raises(BadInput):
        in_T((2, 1), 3)


def test_in_q_examples():
    assert in_Q((5, 3), 8)
    assert not in_Q((4, 3, 1), 8)
    assert in_Q((3, 3, 1, 1, 1), 9)


def reference_in_T(c, two_n):
    """``in_T`` in its count form, kept as the reference for the paired-parity
    rule: every odd value occurs an even number of times."""
    if two_n % 2:
        raise BadInput(f"two_n must be even, got {two_n}")
    if sum(c) != two_n:
        return False
    return not any(c.count(j) % 2 for j in set(c) if j % 2)


def reference_in_Q(c, N):
    """``in_Q`` in its count form, kept as the reference for the paired-parity
    rule: every even value occurs an even number of times."""
    if sum(c) != N:
        return False
    return not any(c.count(j) % 2 for j in set(c) if j % 2 == 0)


@pytest.mark.parametrize("n", range(0, 31))
def test_paired_parity_predicates_match_the_count_forms(n):
    # N = |c| decides by the pairing; N != |c| must refuse, and an odd two_n
    # is refused by in_T before the size is read
    for c in partitions_of(n):
        for N in (n, n + 1, n + 2):
            assert in_Q(c, N) == reference_in_Q(c, N), (c, N)
            if N % 2 == 0:
                assert in_T(c, N) == reference_in_T(c, N), (c, N)
            else:
                with pytest.raises(BadInput, match="two_n must be even"):
                    in_T(c, N)


def test_in_r_examples():
    # the four conditions checked by hand on a mixed-parity value
    assert in_R((3, 2, 2, 1))
    # starts with an even entry although nonempty
    assert not in_R((4, 4))
    assert in_R(())
    with pytest.raises(NotInQ):
        in_R((4, 3))


def test_in_r_gap_conditions():
    # equal odd neighbours at an odd index of the odd list
    assert not in_R((3, 3))
    # an entry strictly between an even-index odd entry and its successor
    assert not in_R((5, 3, 2, 2, 1, 1))
    assert not in_R((5, 4, 4, 3, 2, 2, 1))
    assert in_R((5, 1, 1))
    assert in_R((5, 4, 4, 3, 1))


def reference_in_R(r):
    """``in_R`` in its position-indexed form, kept as the reference for the
    one-pass parity count: with r^1 >= ... >= r^s the odd entries, a nonempty
    ``r`` starts odd, an even-length one also ends odd, r^u > r^{u+1} for
    odd u, and for even u no entry lies strictly between r^u and r^{u+1}."""
    if not in_Q(r, sum(r)):
        raise NotInQ(f"even value with odd multiplicity: {r}")
    tau = len(r)
    if tau == 0:
        return True
    if r[0] % 2 == 0:
        return False
    if tau % 2 == 0 and r[tau - 1] % 2 == 0:
        return False
    odd = tuple(x for x in r if x % 2 == 1)
    for u in range(1, len(odd)):
        if u % 2 == 1:
            if odd[u - 1] <= odd[u]:
                return False
        elif any(odd[u - 1] > x > odd[u] for x in r):
            return False
    return True


@pytest.mark.parametrize("n", range(0, 31))
def test_in_r_matches_the_position_indexed_reference(n):
    for r in partitions_of(n):
        if in_Q(r, n):
            assert in_R(r) == reference_in_R(r), r
        else:
            with pytest.raises(NotInQ):
                in_R(r)


def test_enumerate_partitions_examples():
    assert [c for c in partitions_of(4) if in_T(c, 4)] == [
        (4,),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert partitions_of(0) == ((),)
    with pytest.raises(BadInput, match="cannot partition -1"):
        partitions_of(-1)
    assert [c for c in partitions_of(5) if in_Q(c, 5)] == [
        (5,),
        (3, 1, 1),
        (2, 2, 1),
        (1, 1, 1, 1, 1),
    ]


@pytest.mark.parametrize("enumerator", [partitions_of, even_partitions_of, paired_partitions_of])
@pytest.mark.parametrize("n", [-1, -2, True, False, 2.0, "4", None])
def test_enumerators_refuse_a_size_that_is_not_an_int_at_least_0(enumerator, n):
    with pytest.raises(BadInput, match=re.escape(f"cannot partition {n!r}")):
        enumerator(n)


@pytest.mark.parametrize("n", range(0, 26))
def test_enumeration_exhaustive_against_recurrence(n):
    # independent oracle: pentagonal-number recurrence
    assert len(partitions_of(n)) == partition_count(n)


@pytest.mark.parametrize("n", range(0, 31))
def test_enumeration_matches_the_recursive_reference(n):
    # same partitions, same order
    assert partitions_of(n) == tuple(reference_partitions(n, n))


def test_partitions_of_order_is_lex_decreasing():
    ps = partitions_of(6)
    assert ps[0] == (6,)
    assert ps[-1] == (1,) * 6
    assert all(ps[i] > ps[i + 1] for i in range(len(ps) - 1))


@given(partitions_st)
def test_weight_and_length_from_multiplicities(p):
    values = set(p)
    assert sum(j * multiplicity(p, j) for j in values) == sum(p)
    assert sum(multiplicity(p, j) for j in values) == len(p)


@given(partitions_st)
def test_paired_partitions_have_even_weight_and_length(p):
    if in_P_tilde(p):
        assert len(p) % 2 == 0 and sum(p) % 2 == 0


@given(st.integers(0, 12))
def test_even_and_paired_enumerations(n):
    for r in even_partitions_of(2 * n):
        assert in_S_kappa(r, 1)
    for p in paired_partitions_of(2 * n):
        assert in_P_tilde(p)
    assert len(paired_partitions_of(2 * n)) == partition_count(n)


def test_epsilon_domain():
    assert epsilon_domain((4, 4, 2, 2)) == (4, 2)
    assert epsilon_domain((2, 2, 2)) == ()
    assert epsilon_domain((4, 2)) == ()
    assert epsilon_domain((6, 6, 3, 3, 2)) == (6,)


def test_marked_partition_validation():
    MarkedPartition.build((4, 4, 2, 2), {4: 1})
    with pytest.raises(BadInput):
        MarkedPartition.build((2, 2, 2), {2: 1})
    with pytest.raises(BadInput):
        MarkedPartition((4, 4), ((4, 2),))
    with pytest.raises(BadInput, match=r"marking domain \(4,\) does not match required domain \(4, 2\)"):
        MarkedPartition((4, 4, 2, 2), ((4, 1),))


def test_text_forms_round_trip():
    assert format_partition(()) == ""
    assert parse_partition("") == ()
    assert parse_partition("4,2,2,1") == (4, 2, 2, 1)
    m = MarkedPartition.build((4, 4, 2, 2), {4: 0, 2: 1})
    assert format_marked(m) == "c=4,4,2,2;eps=4:0;2:1"
    assert parse_marked(format_marked(m)) == m
    with pytest.raises(ParseError):
        parse_partition("4,x")
    with pytest.raises(ParseError, match="partition entries must be positive: '4,0'"):
        parse_partition("4,0")
    with pytest.raises(ParseError):
        parse_marked("4,4")


@pytest.mark.parametrize("text", ["1_0", "+6,+4", "٦,٤", "6,-4", "6,,4", "0x6", "²"])
def test_partition_text_is_ascii_digit_runs(text):
    # int() alone would read the first four as 10, 6,4, 6,4 and 6,4
    with pytest.raises(ParseError, match="bad partition text"):
        parse_partition(text)


def test_partition_text_allows_whitespace_around_entries():
    assert parse_partition(" 6 , 4\t") == (6, 4)
    assert parse_marked(" c= 2,2 ;eps= 2 : 1 ") == MarkedPartition.build((2, 2), {2: 1})


@pytest.mark.parametrize("eps", ["2:0_1", "2:+1", "2:١", "+2:1", "2_0:1", "2:1:0", "21"])
def test_marking_pairs_are_ascii_digit_runs(eps):
    # int() alone would read the bit of the first one as 1
    with pytest.raises(ParseError, match="bad marking pair"):
        parse_marked(f"c=2,2;eps={eps}")


@pytest.mark.parametrize("eps", ["2:1;2:0", "2:0;2:0", "4:0;2:1;4:1"])
def test_marking_refuses_a_repeated_value(eps):
    with pytest.raises(ParseError, match="repeats a value"):
        parse_marked(f"c=4,4,2,2;eps={eps}")


@pytest.mark.parametrize("eps, unmarked", [("", "4,2"), ("4:1", "2"), ("2:0", "4")])
def test_marking_refuses_an_unmarked_value(eps, unmarked):
    with pytest.raises(ParseError, match=f"marking leaves {unmarked} unmarked"):
        parse_marked(f"c=4,4,2,2;eps={eps}")


@given(partitions_st)
def test_partition_text_round_trip(p):
    assert parse_partition(format_partition(p)) == p


def test_partition_canonicalizer():
    assert partition([0, 3, 1, 3]) == (3, 3, 1)
    with pytest.raises(BadInput):
        partition([-1, 2])


POSITIVE = "partition entries must be positive integers: {}"
DECREASING = "partition entries must be weakly decreasing: {}"


@pytest.mark.parametrize(
    "p, message",
    [
        ((3, "a"), POSITIVE),
        ((2, 2.0), POSITIVE),
        ((2, 0), POSITIVE),
        ((2, -1), POSITIVE),
        ((1, 2), DECREASING),
        ((3, 1, 1, 2), DECREASING),
        ((1, 2, 0), POSITIVE),  # both faults: the entry error comes first
        (("a", 1, 2), POSITIVE),
        ((True, True), POSITIVE),  # a bool is no int
        ((2, True), POSITIVE),
    ],
)
def test_check_partition_error_precedence_and_messages(p, message):
    with pytest.raises(BadInput) as exc:
        check_partition(list(p))
    assert str(exc.value) == message.format(p)


def test_check_partition_returns_the_tuple():
    assert check_partition([3, 3, 1]) == (3, 3, 1)
    assert check_partition(()) == ()
