"""Brute-force verifiers for the theorem-level claims, exhaustive at bounded rank.

Every verifier recomputes the objects it checks by enumeration rather than
through the formula under test: fibers come from scanning the full class
list, membership in the adjusted-image set comes from its own predicate and
never from the image of the adjustment map, and counts are recomputed from
scratch.  Reports are deterministic (timing is kept out of the
machine-readable records).

The pure maps the suites check (``phi``, ``psi``, ``m_of_class``, ``rho``,
and ``enumerate_unipotents`` on a bound) are evaluated once per context and
argument: every check reads the value the map gave the first time.  Each
(map, context) pair has its own memo, a dict that evaluates the map on an
argument it does not hold yet, and the twelve most recently asked for are
kept.  A suite binds each memo it reads when it starts and then reads
values by subscript, so a read that finds its value is one dict lookup.
The class lists are kept once per Weyl group, read at its good context: a
bad-characteristic table has its good table's classes.  A memo is keyed on
the map object, read from this module's globals when the suite starts, so
patching ``oracle.phi`` starts a fresh memo; a patch inside a map (say
``classical_maps.psi`` under ``rho``) or a rewritten table is not seen
until ``_values.cache_clear()`` empties the memos.

Each suite does its work inside one ``_checking`` block, which times it and
makes a failed table load or a map's refusal one counted failure, so a
suite returns its report for every fault of the maps and tables.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from .classical_maps import (
    UnipotentSymbol,
    enumerate_unipotents,
    orthogonal_fiber_minimizer,
    phi,
    pi,
    psi,
    rho,
    splittings,
    xi,
    xi_inv,
)
from .errors import BadInput, NotSpecial, TableIntegrityError, WrongFamily
from .exceptional_tables import (
    REPLACEMENTS,
    SUBSCRIPTED_NAME_RE,
    load_table,
    table_checks,
)
from .partitions import (
    even_partitions_of,
    in_Q,
    in_R,
    partition,
    partitions_of,
)
from .special_classes import (
    enumerate_A,
    enumerate_A_prime,
    enumerate_C,
    enumerate_C_prime,
    h,
    h_inv,
    in_A_prime,
    in_C0,
    in_C0_prime,
    in_C_prime,
    is_bijective_table,
    k,
    k_inv,
    load_tau_table,
    special_class_of,
)
from .weyl_classes import (
    CHAR_VARIANTS,
    DEFAULT_FIBER_BOUND,
    EXCEPTIONAL_RANK,
    MIN_RANK,
    SUITES,
    GroupContext,
    check_rank_bound,
    enumerate_classes,
    is_split_weyl_class,
    m_of_class,
)


class VerificationReport:
    """Outcome of one verifier on one context: instance counts per assertion
    class and the failures, each an (assertion, input, expected, got) tuple of
    strings.  Each check instance is one ``check``; a hot loop may ``count``
    itself once and ``fail`` each element that breaks its assertion."""

    def __init__(self, suite: str, context: str):
        self.suite = suite
        self.context = context
        self.counters: dict[str, int] = {}
        self.failures: list[tuple[str, str, str, str]] = []
        self.elapsed = 0.0

    @property
    def checked(self) -> int:
        return sum(self.counters.values())

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self, assertion: str, n: int = 1) -> None:
        self.counters[assertion] = self.counters.get(assertion, 0) + n

    def fail(self, assertion: str, inp, expected, got) -> None:
        self.failures.append((assertion, str(inp), str(expected), str(got)))

    def check(self, assertion: str, holds: bool, inp, expected, got) -> bool:
        """Count one instance of ``assertion``, record it as failed at
        ``inp`` unless it ``holds``, and return ``holds``.  It counts inline,
        not through ``count``: it runs once per check in every sweep."""
        self.counters[assertion] = self.counters.get(assertion, 0) + 1
        if not holds:
            self.fail(assertion, inp, expected, got)
        return holds

    def record_lines(self) -> list[str]:
        """One machine-readable line per assertion class; timing excluded so
        records are reproducible bit for bit."""
        fails = Counter(a for a, *_ in self.failures)
        lines = []
        for assertion in sorted(set(self.counters) | set(fails)):
            n = self.counters.get(assertion, 0)
            f = fails.get(assertion, 0)
            status = "pass" if f == 0 else "fail"
            lines.append(
                f"suite={self.suite} context={self.context} assertion={assertion} "
                f"checked={n} failures={f} status={status}"
            )
        return lines

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] suite={self.suite} context={self.context} "
            f"checked={self.checked} failures={len(self.failures)} "
            f"elapsed={self.elapsed:.2f}s"
        )


@contextmanager
def _checking(report: VerificationReport, inp):
    """The boundary of a suite's checks: adds the block's wall time to
    ``report.elapsed``, and ends the block with one counted failure at
    ``inp`` when a table it reads fails its load checks (``table-loads``)
    or a map refuses an input the suite passes it (``maps-accept-inputs``,
    any ``BadInput``, a table lookup's ``UnknownClass`` or
    ``UnknownUnipotent`` included).  Every other error propagates: a
    ``BoundExceeded`` is the caller's own rank bound, not a fault of the
    maps."""
    t0 = time.perf_counter()
    try:
        yield
    except TableIntegrityError as exc:
        report.check("table-loads", False, inp, "a table that passes its load checks", exc)
    except BadInput as exc:
        report.check("maps-accept-inputs", False, inp, "a map that accepts its input", exc)
    finally:
        report.elapsed += time.perf_counter() - t0


class _Memo(dict):
    """The values of one map at one context so far: reading an argument not
    yet in it evaluates the map there and stores the value, so a read is
    one dict lookup and a refusal propagates with nothing stored."""

    __slots__ = ("fn", "ctx")

    def __init__(self, fn, ctx: GroupContext):
        self.fn, self.ctx = fn, ctx

    def __missing__(self, x):
        value = self[x] = self.fn(self.ctx, x)
        return value


@functools.lru_cache(maxsize=12)
def _values(fn, ctx: GroupContext) -> _Memo:
    """The memo of ``fn`` at ``ctx`` (class and unipotent lists by bound).
    The sweep runs context by context, each bad context after its good
    sibling, so twelve entries hold what a group's suites read, E8's three
    contexts' too: no entry is evicted before its last read."""
    return _Memo(fn, ctx)


def fiber_map(ctx: GroupContext, bound: int = DEFAULT_FIBER_BOUND):
    """Full fibers of the surjection, computed by scanning every class."""
    phis = _values(phi, ctx)
    fibers = defaultdict(list)
    for C in _values(enumerate_classes, ctx.good())[bound]:
        fibers[phis[C]].append(C)
    return fibers


def _is_distinguished_good_char(ctx: GroupContext, u: UnipotentSymbol) -> bool:
    """Good characteristic only: distinguished Jordan types have all parts
    even and distinct (type C) or all parts odd and distinct (types B/D)."""
    c = u.partition
    if len(set(c)) != len(c):
        return False
    want = 0 if ctx.family == "C" else 1
    return all(x % 2 == want for x in c)


def verify_theorem_0_2(ctx: GroupContext, bound: int = DEFAULT_FIBER_BOUND) -> VerificationReport:
    """Every fiber has a unique fixed-space minimizer and the section picks it.

    Also checks that the enumerated fibers cover exactly the enumerated
    unipotent classes, that split type-D classes sit alone in their fibers,
    and (good characteristic) that distinguished Jordan types have
    singleton fibers.
    """
    report = VerificationReport("theorem02", str(ctx))
    with _checking(report, ctx):
        ms, psis = _values(m_of_class, ctx), _values(psi, ctx)
        fibers = fiber_map(ctx, bound)
        unipotents = _values(enumerate_unipotents, ctx)[bound]
        onto = set(fibers) == set(unipotents) and len(unipotents) == len(set(unipotents))
        report.check(
            "surjective-onto-enumeration", onto, ctx,
            f"{len(unipotents)} unipotent classes", f"{len(fibers)} fiber images",
        )
        for u in unipotents:
            fib = fibers[u]
            if not fib:  # a gap, reported by surjective-onto-enumeration
                continue
            fib_ms = [ms[C] for C in fib]
            mmin = min(fib_ms)
            n = fib_ms.count(mmin)
            if not report.check("unique-minimum", n == 1, u, "one minimizer", f"{n} of {len(fib)}"):
                continue
            argmin = fib[fib_ms.index(mmin)]
            section = psis[u]
            report.check("section-is-minimizer", section == argmin, u, argmin, section)
            if ctx.family == "D":
                split = [C for C in fib if is_split_weyl_class(ctx, C)]
                report.check(
                    "split-fibers-singleton", not split or len(fib) == 1, u, "singleton fiber", f"{len(fib)} classes"
                )
            if ctx.is_classical_bcd and ctx.char == "good" and _is_distinguished_good_char(ctx, u):
                report.check("distinguished-fiber-singleton", len(fib) == 1, u, 1, len(fib))
    return report


def verify_phi_psi_identity(ctx: GroupContext, bound: int = DEFAULT_FIBER_BOUND) -> VerificationReport:
    """The surjection composed with its section is the identity."""
    report = VerificationReport("phipsi", str(ctx))
    with _checking(report, ctx):
        phis, psis, ms = _values(phi, ctx), _values(psi, ctx), _values(m_of_class, ctx)
        for u in _values(enumerate_unipotents, ctx)[bound]:
            back = phis[psis[u]]
            report.check("phi-psi-identity", back == u, u, u, back)
        # elliptic classes are fixed points of the section composed the other way
        for C in _values(enumerate_classes, ctx.good())[bound]:
            if ms[C] == 0:
                back = psis[phis[C]]
                report.check("elliptic-fixed-point", back == C, C, C, back)
    return report


def _check_size(n_max: int) -> None:
    """Refuse a size bound that is not an integer >= 0."""
    # type(n_max) is int, not isinstance, so a bool is refused
    if type(n_max) is not int or n_max < 0:
        raise BadInput(f"size bound must be an integer >= 0, got {n_max!r}")


def verify_xi_bijection(n_max: int) -> VerificationReport:
    """The adjustment map is a bijection from all-even records onto the
    gap-condition set, with the stated inverse; image membership is decided
    by the predicate, never by the map.  A size ``n_max`` that is not an
    integer >= 0 is refused."""
    _check_size(n_max)
    report = VerificationReport("xi", f"N<={n_max}")
    with _checking(report, report.context):
        for kappa in (0, 1):
            for n in range(0, n_max + 1, 2):
                source = even_partitions_of(n)
                if kappa == 0:
                    source = [r for r in source if len(r) % 2 == 0]
                target = {c for c in partitions_of(n + kappa) if in_Q(c, n + kappa) and in_R(c)}
                images = []
                for r in source:
                    img = xi(r, kappa)
                    images.append(img)
                    inp = (r, kappa)
                    if report.check("image-in-target", img in target, inp, "member of target set", img):
                        back = xi_inv(img, kappa)
                        report.check("inverse-roundtrip", back == r, inp, r, back)
                    else:
                        report.check("inverse-roundtrip", False, inp, r, "no inverse outside the target set")
                distinct = len(set(images))
                report.check("injective", distinct == len(images), (n, kappa), len(images), distinct)
                report.check("image-equals-target", sorted(images) == sorted(target), (n, kappa), len(target), distinct)
    return report


def verify_fiber_minimum(n_max: int) -> VerificationReport:
    """Uniqueness of the shortest-p splitting of every orthogonal Jordan
    type, against full fiber enumeration, and agreement with the rule-based
    minimizer; also checks that merging the minimizer back gives the input.
    A size ``n_max`` that is not an integer >= 0 is refused."""
    _check_size(n_max)
    report = VerificationReport("fiber-min", f"n<={n_max}")
    with _checking(report, report.context):
        for n_amb in range(1, n_max + 1):
            for c in partitions_of(n_amb):
                if not in_Q(c, n_amb):
                    continue
                # a splitting moves an even number of copies of each value, so
                # r stays in Q with c, and in_R is the whole membership test
                fib = [(r, p) for r, p in splittings(c) if in_R(r)]
                best = min(len(p) for _, p in fib)
                minimizers = [(r, p) for r, p in fib if len(p) == best]
                if not report.check("unique-minimum", len(minimizers) == 1, c, 1, len(minimizers)):
                    continue
                computed = orthogonal_fiber_minimizer(c)
                report.check("rules-match-minimum", computed == minimizers[0], c, minimizers[0], computed)
                merged = partition(computed[0] + computed[1])
                report.check("merge-roundtrip", merged == c, c, c, merged)
    return report


def verify_rho_pi(ctx: GroupContext, bound: int = DEFAULT_FIBER_BOUND) -> VerificationReport:
    """The comparison maps factor the two surjections/sections as claimed:
    rho o phi_p = phi_0 on classes, psi_p o pi = psi_0 on good-characteristic
    unipotents, rho surjective, pi injective, rho o pi = identity; in type C
    characteristic 2, rho forgets the marking."""
    report = VerificationReport("rhopi", str(ctx))
    with _checking(report, ctx):
        good = ctx.good()
        rhos, phis, good_phis = _values(rho, ctx), _values(phi, ctx), _values(phi, good)
        psis, good_psis = _values(psi, ctx), _values(psi, good)
        image = {u: rhos[u] for u in _values(enumerate_unipotents, ctx)[bound]}
        for C in _values(enumerate_classes, good)[bound]:
            left = rhos[phis[C]]
            right = good_phis[C]
            report.check("rho-factors-phi", left == right, C, right, left)
        goods = _values(enumerate_unipotents, good)[bound]
        pis = []
        for u0 in goods:
            img = pi(ctx, u0)
            pis.append(img)
            got, want = psis[img], good_psis[u0]
            report.check("psi-factors-pi", got == want, u0, want, got)
            back = rhos[img]
            report.check("rho-pi-identity", back == u0, u0, u0, back)
        distinct = len(set(pis))
        report.check("pi-injective", distinct == len(pis), ctx, len(pis), distinct)
        reached = set(image.values())
        report.check("rho-surjective", reached == set(goods), ctx, len(goods), len(reached))
        if ctx.family == "C" and ctx.char == "p2":
            for u, img in image.items():
                report.check("rho-forgets-marks", img.partition == u.marked.c, u, u.marked.c, img)
        if ctx.is_exceptional:
            for u, img in image.items():
                m = SUBSCRIPTED_NAME_RE.match(u.name)
                expected = m.group("base") if m else u.name
                report.check("rho-strips-subscript", img.name == expected, u, expected, img.name)
    return report


def verify_tables(family: str) -> VerificationReport:
    """Structural integrity of the exceptional tables: every instance of the
    invariants the loader enforces (``table_checks``), and the
    bad-characteristic tables differing from the good one exactly by the
    declared replacement rows, compared row by row as a check independent of
    the line-level derivation of their text.  A table the loader refuses is
    a failure; the good table comes first, and a variant only loads once its
    good table has.  A family without tables is refused."""
    if family not in EXCEPTIONAL_RANK:
        raise WrongFamily(f"no fiber table for family {family!r}")
    report = VerificationReport("tables", family)
    for char in CHAR_VARIANTS[family]:
        ctx = GroupContext(family, EXCEPTIONAL_RANK[family], char)
        with _checking(report, ctx):
            table = load_table(ctx)
            if char == "good":
                good = table
            for c in table_checks(table, good):
                report.check(*c)
            if char == "good":
                continue
            reps = dict(REPLACEMENTS[(family, char)])
            expected_rows = []
            for row in good.rows:
                if row.unipotent in reps:
                    expected_rows += reps[row.unipotent]
                else:
                    expected_rows.append((tuple(str(l) for l in row.classes), row.unipotent))
            actual_rows = [(tuple(str(l) for l in row.classes), row.unipotent) for row in table.rows]
            same = actual_rows == expected_rows
            report.check(
                "variant-is-good-plus-replacements", same, ctx, f"{len(expected_rows)} rows", f"{len(actual_rows)} rows"
            )
    return report


def verify_special(ctx: GroupContext, check_maps: bool = True) -> VerificationReport:
    """Round trips and coherence of the special-class machinery.

    Classical contexts: the two translation maps are mutually inverse
    bijections between independently enumerated sides, the all-even-flag-0
    part maps onto the diagonal bipartitions, special classes are fixed by
    section-after-surjection (good characteristic; skipped when
    ``check_maps`` is false), and type-D specialness of the split kind
    coincides with the split predicate.  Exceptional contexts: the table is
    a bijection whose classes are section images, and a tau or fiber table
    that fails its load is a ``table-loads`` failure.

    The per-element assertions of the classical sweep are counted once per
    loop, with a failure recorded for each element that breaks them.  If
    nothing has failed once every ``x`` is mapped and the image multiset
    is compared, every ``bp`` is some ``fwd(x)`` with ``back(bp) == x``, so
    ``fwd(back(bp)) == bp`` is proved; otherwise it is evaluated for every
    ``bp``.  The type-D diagonal check reads the same images.  A map that
    refuses (``NotSpecial``) what a round trip passes it fails that round trip.
    """
    report = VerificationReport("special", str(ctx))
    with _checking(report, ctx):
        if ctx.is_exceptional:
            rows, good = load_tau_table(ctx.family), load_table(ctx.good())
            section_images = {row.classes[0] for row in good.rows}
            bijective = is_bijective_table(rows.items())
            report.check("bijective-table", bijective, ctx.family, "distinct rows", "duplicates")
            for lab in rows:
                report.check("classes-are-section-images", lab in section_images, lab, "section image", "not an image")
            return report
        if ctx.family == "A":
            report.count("type-a-trivial")
            return report
        n = ctx.rank
        if ctx.family in ("B", "C"):
            side = enumerate_A(n)
            side_prime = enumerate_A_prime(n)
            fwd, back, member = h, h_inv, in_A_prime
        else:
            side = enumerate_C(n)
            side_prime = enumerate_C_prime(n)
            fwd, back, member = k, k_inv, in_C_prime
        report.check("cardinalities-match", len(side) == len(side_prime), ctx, len(side), len(side_prime))
        # a bipartition is compared by its (y, z) key
        images = []
        for x in side:
            try:
                bp = fwd(x)
            except NotSpecial as exc:  # no image: None keeps images in step with side
                images.append(None)
                report.fail("roundtrip-from-pairs", x, x, exc)
                continue
            images.append((bp.y, bp.z))
            if not member(bp, n):
                report.fail("image-in-interlacing-set", x, "interlacing", bp)
            try:
                x_back = back(bp)
            except NotSpecial as exc:
                x_back = exc
            if x_back != x:
                report.fail("roundtrip-from-pairs", x, x, x_back)
        report.count("image-in-interlacing-set", len(side))
        report.count("roundtrip-from-pairs", len(side))
        image_counts = Counter(images)
        onto = image_counts == Counter((bp.y, bp.z) for bp in side_prime)
        report.check("image-equals-interlacing-set", onto, ctx, len(side_prime), len(image_counts))
        if report.failures:
            for bp in side_prime:
                try:
                    bp_back = fwd(back(bp))
                except NotSpecial as exc:
                    bp_back = exc
                if bp_back != bp:
                    report.fail("roundtrip-from-bipartitions", bp, bp, bp_back)
        report.count("roundtrip-from-bipartitions", len(side_prime))
        if ctx.family == "D":
            diag = [(bp.y, bp.z) for bp in side_prime if in_C0_prime(bp, n)]
            diag_images = [key for x, key in zip(side, images) if in_C0(x)]
            report.check("flag0-onto-diagonal", Counter(diag_images) == Counter(diag), ctx, len(diag), len(diag_images))
        if check_maps:
            good = ctx.good()
            phis, psis = _values(phi, good), _values(psi, good)
            for x in side:
                s = special_class_of(good, x)
                back_s = psis[phis[s]]
                if back_s != s:
                    report.fail("section-fixes-special", x, s, back_s)
                if ctx.family == "D":
                    split, flag0 = is_split_weyl_class(good, s), in_C0(x)
                    if split != flag0:
                        report.fail("split-coherence", x, flag0, split)
            report.count("section-fixes-special", len(side))
            if ctx.family == "D":
                report.count("split-coherence", len(side))
    return report


def acceptance_contexts(bound: int = DEFAULT_FIBER_BOUND) -> list[GroupContext]:
    """All B/C/D contexts up to the bound plus every exceptional variant, in
    catalogue order."""
    return [
        GroupContext(family, n, char)
        for family, lo in MIN_RANK.items()
        if family != "A"
        for n in range(lo, bound + 1)
        for char in CHAR_VARIANTS[family]
    ] + [
        GroupContext(family, rank, char)
        for family, rank in EXCEPTIONAL_RANK.items()
        for char in CHAR_VARIANTS[family]
    ]


def run_suites(suite: str, ctx: GroupContext | None, bound: int):
    """The plan of ``verify``: yields each report of ``suite`` (a suite name
    or ``all``) as soon as it is made, so an error that escapes a suite
    loses none of the reports before it.  For the rank bound R, ``xi`` runs
    at size 2R and ``fiber-min`` at 2R+1, the largest sizes the B/D
    contexts of rank R reach; ``tables`` narrows to an exceptional ``ctx``;
    the suites of a context run on ``ctx``, or on each of
    ``acceptance_contexts(R)`` in turn, ``all`` skipping ``rhopi`` at good
    characteristic.  Before any report, a name not in ``SUITES`` is
    refused, as it would run nothing and pass; so is a ``ctx`` the suite
    would not read (any for ``xi`` and ``fiber-min``, a non-exceptional one
    for ``tables``), ``rhopi`` on a good ``ctx``, as it checks nothing
    there, and a classical ``ctx`` above R."""
    if suite not in SUITES:
        raise BadInput(f"unknown suite {suite!r}")
    if ctx and (suite in ("xi", "fiber-min") or suite == "tables" and not ctx.is_exceptional):
        raise BadInput(f"--suite {suite} does not read the context {ctx}")
    if suite == "rhopi" and ctx and ctx.char == "good":
        raise BadInput(f"--suite rhopi needs a bad-characteristic context, not {ctx}")
    per_context = suite in ("theorem02", "phipsi", "rhopi", "special", "all")
    if per_context and ctx:  # verify_special itself takes no bound
        check_rank_bound(ctx, bound)
    if suite in ("xi", "all"):
        yield verify_xi_bijection(2 * bound)
    if suite in ("fiber-min", "all"):
        yield verify_fiber_minimum(2 * bound + 1)
    if suite in ("tables", "all"):
        for family in [ctx.family] if ctx and ctx.is_exceptional else EXCEPTIONAL_RANK:
            yield verify_tables(family)
    if per_context:
        for ctx in [ctx] if ctx else acceptance_contexts(bound):
            if suite in ("theorem02", "all"):
                yield verify_theorem_0_2(ctx, bound)
            if suite in ("phipsi", "all"):
                yield verify_phi_psi_identity(ctx, bound)
            if suite in ("rhopi", "all") and ctx.char != "good":
                yield verify_rho_pi(ctx, bound)
            if suite in ("special", "all"):
                yield verify_special(ctx)
