import inspect
import re
from collections import Counter

import pytest

from weylunip import classical_maps, cli, oracle
from weylunip.classical_maps import UnipotentSymbol
from weylunip.errors import BadInput, BoundExceeded, InvalidClass, NotSpecial, UnknownClass, WrongFamily
from weylunip.partitions import MarkedPartition
from weylunip.special_classes import Bipartition, PairSequenceBC, PairSequenceD
from weylunip.weyl_classes import ClassSymbol, context


@pytest.mark.parametrize(
    "ctx",
    [
        context("C", 4),
        context("C", 4, "p2"),
        context("B", 3),
        context("B", 3, "p2"),
        context("D", 4),
        context("D", 4, "p2"),
        context("A", 5),
        context("G2", char="p3"),
        context("F4", char="p2"),
        context("E8", char="p2"),
    ],
)
def test_theorem_and_identity_suites_pass(ctx):
    r = oracle.verify_theorem_0_2(ctx)
    assert r.passed, r.failures[:3]
    r = oracle.verify_phi_psi_identity(ctx)
    assert r.passed, r.failures[:3]


def test_theorem_suite_reports_a_missed_unipotent_class(monkeypatch):
    # a phi that never reaches one unipotent class leaves its fiber empty
    ctx = context("C", 3)
    real_phi = oracle.phi
    missed, other = oracle.enumerate_unipotents(ctx)[:2]

    def phi(ctx_, C):
        u = real_phi(ctx_, C)
        return other if u == missed else u

    monkeypatch.setattr(oracle, "phi", phi)
    r = oracle.verify_theorem_0_2(ctx)
    assert not r.passed
    assert ("surjective-onto-enumeration", str(ctx), "8 unipotent classes", "7 fiber images") in r.failures


def test_xi_suite_reports_an_image_outside_the_target(monkeypatch):
    # (2, 1) has an unpaired even value, so in_R would raise on it
    counters = oracle.verify_xi_bijection(4).counters
    real_xi, real_xi_inv, inverted = oracle.xi, oracle.xi_inv, []

    def xi_inv(c, kappa):
        inverted.append(c)
        return real_xi_inv(c, kappa)

    monkeypatch.setattr(oracle, "xi", lambda r, kappa: (2, 1) if r == (2, 2) else real_xi(r, kappa))
    monkeypatch.setattr(oracle, "xi_inv", xi_inv)
    r = oracle.verify_xi_bijection(4)
    assert inverted and (2, 1) not in inverted
    assert {a for a, *_ in r.failures} == {"image-in-target", "inverse-roundtrip", "image-equals-target"}
    assert r.counters == counters


def test_xi_suite_small():
    r = oracle.verify_xi_bijection(8)
    assert r.passed and r.counters["image-equals-target"] == 10


def test_fiber_minimum_suite_small():
    r = oracle.verify_fiber_minimum(10)
    assert r.passed
    assert r.counters["unique-minimum"] == r.counters["rules-match-minimum"]


def test_fiber_minimum_suite_skips_the_rules_on_a_tied_fiber(monkeypatch):
    # a predicate that also admits (3, 1, 1, 1) gives (3, 2, 2, 1, 1, 1) two
    # shortest splittings, ((3, 1, 1, 1), (2, 2)) and ((3, 2, 2, 1), (1, 1))
    real_in_R = oracle.in_R
    monkeypatch.setattr(oracle, "in_R", lambda r: r == (3, 1, 1, 1) or real_in_R(r))
    r = oracle.verify_fiber_minimum(10)
    tied = "(3, 2, 2, 1, 1, 1)"
    assert [f for f in r.failures if f[0] == "unique-minimum"] == [("unique-minimum", tied, "1", "2")]
    # no rule check is counted for the tied Jordan type
    assert r.counters["rules-match-minimum"] == r.counters["merge-roundtrip"] == r.counters["unique-minimum"] - 1
    assert all(f[1] != tied for f in r.failures if f[0] != "unique-minimum")


@pytest.mark.parametrize(
    "ctx",
    [
        context("C", 3, "p2"),
        context("B", 3, "p2"),
        context("D", 4, "p2"),
        context("G2", char="p3"),
        context("E7", char="p2"),
    ],
)
def test_rho_pi_suite(ctx):
    r = oracle.verify_rho_pi(ctx)
    assert r.passed, r.failures[:3]


def test_rho_validates_the_section_value(monkeypatch):
    # rho applies the checked good-characteristic phi to what psi returns,
    # so a section value with an odd stable record is refused, not mapped
    ctx = context("C", 4, "p2")
    real_psi = classical_maps.psi
    wrong = UnipotentSymbol(marked=MarkedPartition((4, 4), ((4, 1),)))

    def psi(ctx_, u):
        return ClassSymbol(r=(3, 1), p=(2, 2)) if u == wrong else real_psi(ctx_, u)

    monkeypatch.setattr(classical_maps, "psi", psi)
    message = "invalid stable cycle record (3, 1) for C_4/good"
    with pytest.raises(InvalidClass, match=re.escape(message)):
        classical_maps.rho(ctx, wrong)
    # the oracle's memo is keyed on rho itself, which cannot see the patch
    # inside it; the suite reports the refusal as one counted failure
    oracle._values.cache_clear()
    r = oracle.verify_rho_pi(ctx)
    assert [a for a, *_ in r.failures] == ["maps-accept-inputs"]
    assert r.counters["maps-accept-inputs"] == 1
    assert message in r.failures[0][3]


def test_rho_pi_suite_reports_a_wrong_rho_on_one_marked_class(monkeypatch):
    # rho sends c=4,4;eps=4:1 to 4,2,2 instead of 4,4: the marks check reads
    # the same images as the surjectivity check and still sees it
    ctx = context("C", 4, "p2")
    counters = oracle.verify_rho_pi(ctx).counters
    real_rho = oracle.rho
    wrong = UnipotentSymbol(marked=MarkedPartition((4, 4), ((4, 1),)))
    other = UnipotentSymbol(partition=(4, 2, 2))

    def rho(ctx_, u):
        return other if u == wrong else real_rho(ctx_, u)

    monkeypatch.setattr(oracle, "rho", rho)
    r = oracle.verify_rho_pi(ctx)
    assert _failed(r) == {"rho-factors-phi", "rho-pi-identity", "rho-forgets-marks"}
    assert ("rho-forgets-marks", str(wrong), "(4, 4)", "4,2,2") in r.failures
    assert r.counters == counters


def test_rho_pi_suite_evaluates_rho_once_per_bad_class(monkeypatch):
    # rho is pure: every check reads the one image of each bad class
    ctx = context("C", 6, "p2")
    counters = oracle.verify_rho_pi(ctx).counters
    real_rho, calls = oracle.rho, []

    def rho(ctx_, u):
        calls.append(u)
        return real_rho(ctx_, u)

    monkeypatch.setattr(oracle, "rho", rho)
    r = oracle.verify_rho_pi(ctx)
    assert r.passed and r.counters == counters
    assert len(calls) == len(set(calls))
    assert set(calls) == set(oracle.enumerate_unipotents(ctx))


def test_suites_evaluate_each_map_once_per_context_and_argument(monkeypatch):
    # a pass in the order verify runs the suites evaluates no argument twice,
    # and the same arguments as when each suite evaluated its own
    calls = {}
    for name in ("phi", "psi", "m_of_class"):
        real, seen = getattr(oracle, name), calls.setdefault(name, [])

        def counted(ctx_, x, real=real, seen=seen):
            seen.append((ctx_, x))
            return real(ctx_, x)

        monkeypatch.setattr(oracle, name, counted)
    for ctx in oracle.acceptance_contexts(6):
        assert oracle.verify_theorem_0_2(ctx).passed and oracle.verify_phi_psi_identity(ctx).passed
        assert ctx.char == "good" or oracle.verify_rho_pi(ctx).passed
        assert oracle.verify_special(ctx).passed
    counts = {name: (len(seen), len(set(seen))) for name, seen in calls.items()}
    assert counts == {"phi": (1223, 1223), "psi": (897, 897), "m_of_class": (1223, 1223)}


def test_suites_enumerate_each_context_once(monkeypatch):
    # the memo keeps each context's unipotent list for every suite that reads
    # it, and rhopi finds its good sibling's list there
    real, asked = oracle.enumerate_unipotents, []

    def enumerate_unipotents(ctx_, bound):
        asked.append((ctx_, bound))
        return real(ctx_, bound)

    monkeypatch.setattr(oracle, "enumerate_unipotents", enumerate_unipotents)
    contexts = oracle.acceptance_contexts(6)
    for ctx in contexts:
        assert oracle.verify_theorem_0_2(ctx).passed and oracle.verify_phi_psi_identity(ctx).passed
        assert ctx.char == "good" or oracle.verify_rho_pi(ctx).passed
    assert asked == [(ctx, oracle.DEFAULT_FIBER_BOUND) for ctx in contexts]


def test_suites_enumerate_each_weyl_group_once(monkeypatch):
    # a Weyl group's classes do not depend on the characteristic: the memo
    # keeps one class list per group, read at its good context, for every
    # suite of every context of the group
    real, asked = oracle.enumerate_classes, []

    def enumerate_classes(ctx_, bound):
        asked.append((ctx_, bound))
        return real(ctx_, bound)

    monkeypatch.setattr(oracle, "enumerate_classes", enumerate_classes)
    contexts = oracle.acceptance_contexts(6)
    for ctx in contexts:
        assert oracle.verify_theorem_0_2(ctx).passed and oracle.verify_phi_psi_identity(ctx).passed
        assert ctx.char == "good" or oracle.verify_rho_pi(ctx).passed
    goods = [ctx for ctx in contexts if ctx.char == "good"]
    assert asked == [(ctx, oracle.DEFAULT_FIBER_BOUND) for ctx in goods]
    assert len(goods) == 19  # B, C and D of ranks 2..6 (D from 3), and the five exceptional types


def test_a_patched_phi_is_not_answered_from_the_memo(monkeypatch):
    # the memo is keyed on the map object: once the real phi has filled it,
    # a phi that is wrong on one elliptic class of C_6/p2 is still evaluated
    # on every argument, and fails exactly as when no suite shared a value
    ctx = context("C", 6, "p2")
    suites = (oracle.verify_theorem_0_2, oracle.verify_phi_psi_identity, oracle.verify_rho_pi)
    assert all(suite(ctx).passed for suite in (*suites, oracle.verify_special))
    real_phi = oracle.phi
    wrong, other = ClassSymbol(r=(6, 6), p=()), ClassSymbol(r=(8, 4), p=())

    def wrong_at(at):
        return lambda ctx_, C: real_phi(ctx_, other if (ctx_, C) == (at, wrong) else C)

    monkeypatch.setattr(oracle, "phi", wrong_at(ctx))
    theorem, identity, rhopi = (suite(ctx) for suite in suites)
    assert theorem.counters == {"surjective-onto-enumeration": 1, "unique-minimum": 53, "section-is-minimizer": 52}
    assert theorem.failures == [
        ("surjective-onto-enumeration", "C_6/p2", "54 unipotent classes", "53 fiber images"),
        ("unique-minimum", "c=8,4;eps=", "one minimizer", "2 of 2"),
    ]
    assert identity.counters == {"phi-psi-identity": 54, "elliptic-fixed-point": 11}
    assert identity.failures == [
        ("phi-psi-identity", "c=6,6;eps=6:1", "c=6,6;eps=6:1", "c=8,4;eps="),
        ("elliptic-fixed-point", "r=6,6;p=", "r=6,6;p=", "r=8,4;p="),
    ]
    assert rhopi.counters == {
        "rho-factors-phi": 65, "psi-factors-pi": 40, "rho-pi-identity": 40,
        "pi-injective": 1, "rho-surjective": 1, "rho-forgets-marks": 54,
    }
    assert rhopi.failures == [("rho-factors-phi", "r=6,6;p=", "6,6", "8,4")]
    # the section-fixes-special loop reads phi at the good context, through
    # a memo it binds when it starts: a phi wrong on the special class r=6,6
    # there is evaluated too
    monkeypatch.setattr(oracle, "phi", wrong_at(ctx.good()))
    special = oracle.verify_special(ctx)
    assert special.counters["section-fixes-special"] == 26
    assert special.failures == [("section-fixes-special", "6,6", "r=6,6;p=", "r=8,4;p=")]


def test_the_memo_stores_values_never_refusals(monkeypatch):
    # a map that refuses an argument is asked again on every read of it, and
    # the suite still ends with the one counted failure
    ctx = context("C", 3)
    bad = ClassSymbol(r=(4, 2), p=())
    real_phi, calls = oracle.phi, []

    def phi(ctx_, C):
        calls.append(C)
        if C == bad:
            raise BadInput("boom")
        return real_phi(ctx_, C)

    monkeypatch.setattr(oracle, "phi", phi)
    phis = oracle._values(oracle.phi, ctx)
    for _ in range(2):
        with pytest.raises(BadInput, match="boom"):
            phis[bad]
    assert calls == [bad, bad] and bad not in phis
    r = oracle.verify_theorem_0_2(ctx)
    assert r.failures == [("maps-accept-inputs", "C_3/good", "a map that accepts its input", "boom")]
    assert r.counters["maps-accept-inputs"] == 1
    assert calls.count(bad) == 3 and bad not in phis


def test_the_plan_builds_each_memo_once(monkeypatch):
    # no memo is evicted before its last read: a pass of verify --suite all
    # builds each (map, context) memo it asks for exactly once
    real, keys = oracle._values, set()

    def values(fn, ctx_):
        keys.add((fn, ctx_))
        return real(fn, ctx_)

    monkeypatch.setattr(oracle, "_values", values)
    real.cache_clear()
    assert all(r.passed for r in oracle.run_suites("all", None, 4))
    assert real.cache_info().misses == len(keys) == 130


def test_rho_composition_spot_values():
    g2p3 = context("G2", char="p3")
    assert oracle.rho(g2p3, UnipotentSymbol(name="(~A_1)_3")).name == "~A_1"
    e7p2 = context("E7", char="p2")
    assert oracle.rho(e7p2, UnipotentSymbol(name="(A_3+A_2)_2")).name == "A_3+A_2"


@pytest.mark.parametrize("family", ["G2", "F4", "E6", "E7", "E8"])
def test_tables_suite(family):
    r = oracle.verify_tables(family)
    assert r.passed, r.failures[:3]


@pytest.mark.parametrize(
    "ctx", [context("C", 2), context("D", 4), context("B", 5), context("E8")]
)
def test_special_suite(ctx):
    r = oracle.verify_special(ctx)
    assert r.passed, r.failures[:3]


def _failed(report):
    return {a for a, *_ in report.failures}


def _refusing(real, *bad, error=BadInput):
    """``real``, except that it refuses the arguments whose text forms are ``bad``."""

    def fn(*args):
        if tuple(map(str, args)) == bad:
            raise error("boom")
        return real(*args)

    return fn


@pytest.mark.parametrize(
    "verify, arg, name, bad, error",
    [
        (oracle.verify_theorem_0_2, context("C", 3), "psi", ("C_3/good", "4,2"), BadInput),
        (oracle.verify_phi_psi_identity, context("C", 3), "psi", ("C_3/good", "4,2"), BadInput),
        (oracle.verify_rho_pi, context("C", 3, "p2"), "psi", ("C_3/good", "4,2"), BadInput),
        (oracle.verify_special, context("C", 3), "psi", ("C_3/good", "4,2"), BadInput),
        (oracle.verify_special, context("C", 3, "p2"), "psi", ("C_3/good", "4,2"), BadInput),
        (oracle.verify_theorem_0_2, context("G2"), "m_of_class", ("G2/good", "G_2"), BadInput),
        (oracle.verify_theorem_0_2, context("G2"), "m_of_class", ("G2/good", "G_2"), UnknownClass),
        (oracle.verify_xi_bijection, 4, "xi", ("(2, 2)", "0"), BadInput),
        (oracle.verify_fiber_minimum, 5, "orthogonal_fiber_minimizer", ("(3, 1)",), BadInput),
    ],
    ids=[
        "theorem02", "phipsi", "rhopi", "special", "special-p2", "theorem02-G2", "theorem02-G2-lookup", "xi",
        "fiber-min",
    ],
)
def test_a_map_that_refuses_an_input_is_one_counted_failure(monkeypatch, verify, arg, name, bad, error):
    # the refusal ends the suite with one failure at its context, and the
    # report is returned, not the error raised; a table lookup's refusal is
    # a refusal like any other
    monkeypatch.setattr(oracle, name, _refusing(getattr(oracle, name), *bad, error=error))
    r = verify(arg)
    assert r.failures == [("maps-accept-inputs", r.context, "a map that accepts its input", "boom")]
    assert r.counters["maps-accept-inputs"] == 1
    assert r.elapsed > 0


def test_the_callers_rank_bound_is_not_a_failure():
    with pytest.raises(BoundExceeded):
        oracle.verify_theorem_0_2(context("C", 13))


@pytest.mark.parametrize("verify", [oracle.verify_xi_bijection, oracle.verify_fiber_minimum])
@pytest.mark.parametrize("n_max", [True, -3, 2.0, "4"])
def test_size_suites_refuse_a_size_that_is_not_a_natural_number(verify, n_max):
    # True would run as 1 and -3 as an empty sweep that passes; neither
    # builds a report
    with pytest.raises(BadInput) as err:
        verify(n_max)
    assert str(err.value) == f"size bound must be an integer >= 0, got {n_max!r}"


def test_size_suites_accept_size_zero():
    assert oracle.verify_xi_bijection(0).context == "N<=0"
    assert oracle.verify_fiber_minimum(0).context == "n<=0"


def test_tables_suite_refuses_a_family_without_tables():
    for family in ("C", "X"):
        with pytest.raises(WrongFamily, match=re.escape(f"no fiber table for family {family!r}")):
            oracle.verify_tables(family)


@pytest.mark.parametrize(
    "verify, arg",
    [
        (oracle.verify_theorem_0_2, context("C", 3)),
        (oracle.verify_phi_psi_identity, context("C", 3)),
        (oracle.verify_xi_bijection, 4),
        (oracle.verify_fiber_minimum, 5),
        (oracle.verify_rho_pi, context("C", 3, "p2")),
        (oracle.verify_tables, "G2"),
        (oracle.verify_special, context("C", 3)),
    ],
    ids=["theorem02", "phipsi", "xi", "fiber-min", "rhopi", "tables", "special"],
)
def test_every_suite_times_itself(verify, arg):
    r = verify(arg)
    assert r.passed and r.elapsed > 0


def test_special_suite_reports_a_wrong_inverse(monkeypatch):
    # h_inv sends y=2,1;z=1 to the preimage of y=4;z= instead of its own
    ctx = context("C", 4)
    counters = oracle.verify_special(ctx).counters
    real_h_inv = oracle.h_inv
    wrong, other = Bipartition((2, 1), (1,)), Bipartition((4,), ())

    def h_inv(bp):
        return real_h_inv(other if bp == wrong else bp)

    monkeypatch.setattr(oracle, "h_inv", h_inv)
    r = oracle.verify_special(ctx)
    assert _failed(r) == {"roundtrip-from-pairs", "roundtrip-from-bipartitions"}
    assert ("roundtrip-from-bipartitions", str(wrong), str(wrong), str(other)) in r.failures
    assert r.counters == counters


def _special_exit_status(ctx, capsys) -> int:
    status = cli.main(["verify", "--suite", "special", "--family", ctx.family, "--rank", str(ctx.rank)])
    assert capsys.readouterr().out.startswith("[FAIL] suite=special ")
    return status


def test_special_suite_reports_an_image_its_inverse_refuses(monkeypatch, capsys):
    # h sends 4,4 to y=1;z=3, off the interlacing, where h_inv raises
    # NotSpecial: the refusal fails the round trip instead of ending the run
    ctx = context("C", 4)
    counters = oracle.verify_special(ctx).counters
    real_h, wrong = oracle.h, PairSequenceBC(((4, 4),))

    def h(x):
        return Bipartition((1,), (3,)) if x == wrong else real_h(x)

    monkeypatch.setattr(oracle, "h", h)
    r = oracle.verify_special(ctx)
    assert r.failures == [
        ("image-in-interlacing-set", "4,4", "interlacing", "y=1;z=3"),
        ("roundtrip-from-pairs", "4,4", "4,4", "bipartition fails the B/C interlacing: y=1;z=3"),
        ("image-equals-interlacing-set", "C_4/good", "10", "10"),
        ("roundtrip-from-bipartitions", "y=2;z=2", "y=2;z=2", "y=1;z=3"),
    ]
    assert r.counters == counters
    assert _special_exit_status(ctx, capsys) == 1


def test_special_suite_reports_an_inverse_outside_the_special_set(monkeypatch, capsys):
    # k_inv sends y=2;z=2 to 4,2:0, an unequal even pair flagged 0, which k
    # refuses when the failure-only loop maps it back
    ctx = context("D", 4)
    counters = oracle.verify_special(ctx).counters
    real_k_inv, wrong = oracle.k_inv, Bipartition((2,), (2,))

    def k_inv(bp):
        return PairSequenceD(((4, 2, 0),)) if bp == wrong else real_k_inv(bp)

    monkeypatch.setattr(oracle, "k_inv", k_inv)
    r = oracle.verify_special(ctx)
    assert r.failures == [
        ("roundtrip-from-pairs", "4,4:0", "4,4:0", "4,2:0"),
        ("roundtrip-from-bipartitions", "y=2;z=2", "y=2;z=2", "pair sequence outside the D special set: 4,2:0"),
    ]
    assert r.counters == counters
    assert _special_exit_status(ctx, capsys) == 1


def test_special_suite_reports_a_forward_map_that_refuses_its_domain(monkeypatch, capsys):
    # k refuses the diagonal sequence 4,4:0: it has no image, so the image
    # set and the diagonal both miss one, and neither round trip holds
    ctx = context("D", 4)
    counters = oracle.verify_special(ctx).counters
    real_k, wrong = oracle.k, PairSequenceD(((4, 4, 0),))

    def k(x):
        if x == wrong:
            raise NotSpecial(f"pair sequence outside the D special set: {x}")
        return real_k(x)

    monkeypatch.setattr(oracle, "k", k)
    r = oracle.verify_special(ctx)
    refusal = "pair sequence outside the D special set: 4,4:0"
    assert r.failures == [
        ("roundtrip-from-pairs", "4,4:0", "4,4:0", refusal),
        ("image-equals-interlacing-set", "D_4/good", "9", "9"),
        ("roundtrip-from-bipartitions", "y=2;z=2", "y=2;z=2", refusal),
        ("flag0-onto-diagonal", "D_4/good", "2", "2"),
    ]
    assert r.counters == counters
    assert _special_exit_status(ctx, capsys) == 1


def test_special_suite_reports_a_wrong_forward_map_on_the_diagonal(monkeypatch):
    # k sends the flag-0 sequence 2,2:0|2,2:0|2,2:0 to the image of a
    # sequence off the diagonal
    ctx = context("D", 6)
    counters = oracle.verify_special(ctx).counters
    real_k = oracle.k
    wrong = PairSequenceD(((2, 2, 0),) * 3)
    other = PairSequenceD(((6, 4, 1), (1, 1, 0)))

    def k(x):
        return real_k(other if x == wrong else x)

    monkeypatch.setattr(oracle, "k", k)
    r = oracle.verify_special(ctx)
    assert _failed(r) == {
        "flag0-onto-diagonal",
        "image-equals-interlacing-set",
        "roundtrip-from-pairs",
        "roundtrip-from-bipartitions",
    }
    assert ("image-equals-interlacing-set", str(ctx), "24", "23") in r.failures
    assert r.counters == counters


def test_special_suite_reports_a_bipartition_that_is_no_image(monkeypatch):
    # y=7;z= has total 7, so it is no image at D_6, but k_inv and k still
    # round-trip it; its round trip must be evaluated, not taken as proved
    ctx = context("D", 6)
    counters = oracle.verify_special(ctx).counters
    real_enumerate, real_k_inv = oracle.enumerate_C_prime, oracle.k_inv
    stray, inverted = Bipartition((7,), ()), []

    def enumerate_C_prime(n):
        side = real_enumerate(n)
        assert side[0] == Bipartition((n,), ())  # off the diagonal
        return [stray] + side[1:]

    def k_inv(bp):
        inverted.append(bp)
        return real_k_inv(bp)

    monkeypatch.setattr(oracle, "enumerate_C_prime", enumerate_C_prime)
    monkeypatch.setattr(oracle, "k_inv", k_inv)
    r = oracle.verify_special(ctx)
    assert _failed(r) == {"image-equals-interlacing-set"}
    assert stray in inverted
    assert r.counters == counters


@pytest.mark.parametrize(
    "name, wrong, failed",
    [
        ("is_split_weyl_class", lambda real: lambda ctx, C: not real(ctx, C), {"split-coherence": 9}),
        ("psi", lambda real: lambda ctx, u: ClassSymbol(r=(), p=(1,) * 8), {"section-fixes-special": 8}),
    ],
    ids=["split-negated", "section-to-identity"],
)
def test_special_suite_reports_maps_that_disagree_on_the_special_classes(monkeypatch, name, wrong, failed):
    # the 9 special classes of D_4: a negated split predicate breaks the
    # split coherence of every one, and a section that always answers the
    # identity class fixes only the identity class
    ctx = context("D", 4)
    counters = oracle.verify_special(ctx).counters
    monkeypatch.setattr(oracle, name, wrong(getattr(oracle, name)))
    r = oracle.verify_special(ctx)
    assert Counter(a for a, *_ in r.failures) == failed
    assert r.counters == counters


@pytest.mark.parametrize("suite", cli.SUITES)
@pytest.mark.parametrize(
    "argv, ctx",
    [
        ([], None),
        (["--family", "C", "--rank", "3", "--char", "p2"], context("C", 3, "p2")),
        (["--family", "G2", "--char", "p3"], context("G2", char="p3")),
    ],
    ids=["catalogue", "C_3/p2", "G2/p3"],
)
def test_run_suites_yields_what_verify_prints(capsys, suite, argv, ctx):
    # the plan is the oracle's: verify prints its reports in its order, and
    # each report is of the suite asked for, so the names cannot drift apart
    if ctx and (suite in ("xi", "fiber-min") or (suite, ctx.family) == ("tables", "C")):
        # a suite that would not read the context refuses it, before any report
        with pytest.raises(BadInput) as err:
            next(oracle.run_suites(suite, ctx, 3))
        assert str(err.value) == f"--suite {suite} does not read the context {ctx}"
        assert cli.main(["verify", "--suite", suite, "--bound", "3", *argv]) == 2
        assert capsys.readouterr().out == ""
        return
    pairs = [(r.suite, r.context) for r in oracle.run_suites(suite, ctx, 3)]
    assert cli.main(["verify", "--suite", suite, "--bound", "3", "--format", "records", *argv]) == 0
    assert pairs == re.findall(r"^\[pass\] suite=(\S+) context=(\S+) ", capsys.readouterr().out, re.M)
    assert {s for s, _ in pairs} == ({suite} if suite != "all" else set(cli.SUITES) - {"all"})


def test_run_suites_refuses_an_unknown_suite():
    # a name that plans nothing would pass with no report at all
    with pytest.raises(BadInput) as err:
        next(oracle.run_suites("theorem2", None, 3))
    assert str(err.value) == "unknown suite 'theorem2'"
    for suite in cli.SUITES:
        assert next(oracle.run_suites(suite, None, 2)).suite == ("xi" if suite == "all" else suite)


def test_reports_are_deterministic():
    a = oracle.verify_theorem_0_2(context("D", 5))
    b = oracle.verify_theorem_0_2(context("D", 5))
    assert a.record_lines() == b.record_lines()
    assert a.counters == b.counters
    assert "elapsed" not in " ".join(a.record_lines())


def test_report_records_shape():
    r = oracle.verify_xi_bijection(4)
    lines = r.record_lines()
    assert lines
    for line in lines:
        fields = dict(tok.split("=", 1) for tok in line.split(" "))
        assert fields["suite"] == "xi"
        assert fields["status"] == "pass"
        assert int(fields["checked"]) >= 0


def test_failures_carry_minimal_counterexamples():
    # force a failure by checking a doctored report manually
    r = oracle.VerificationReport("demo", "ctx")
    r.count("law")
    r.fail("law", (1, 2), "x", "y")
    assert not r.passed
    assert r.record_lines() == [
        "suite=demo context=ctx assertion=law checked=1 failures=1 status=fail"
    ]
    # check counts one instance, records the same failure tuple and says
    # whether the claim holds
    c = oracle.VerificationReport("demo", "ctx")
    assert c.check("law", True, (1, 2), "x", "y") is True
    assert c.check("law", False, (1, 2), "x", "y") is False
    assert c.counters == {"law": 2}
    assert c.failures == r.failures == [("law", "(1, 2)", "x", "y")]


def test_verifiers_keep_their_signatures():
    sig = inspect.signature(oracle.verify_special)
    assert list(sig.parameters) == ["ctx", "check_maps"]
    assert oracle.verify_special.__qualname__ == "verify_special"


def test_acceptance_contexts_cover_both_variants():
    ctxs = oracle.acceptance_contexts(4)
    names = {str(c) for c in ctxs}
    assert "C_4/p2" in names and "D_4/good" in names and "E8/p3" in names
    assert "B_2/good" in names and "D_3/good" in names
