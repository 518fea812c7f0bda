"""Brute-force verifiers for the theorem-level claims, exhaustive at bounded rank.

Every verifier recomputes the objects it checks by enumeration rather than
through the formula under test: fibers come from scanning the full class
list, membership in the adjusted-image set comes from its own predicate and
never from the image of the adjustment map, and counts are recomputed from
scratch.  Reports are deterministic (timing is kept out of the
machine-readable records).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

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
from .errors import TableIntegrityError
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
    EXCEPTIONAL_RANK,
    MIN_RANK,
    GroupContext,
    enumerate_classes,
    is_split_weyl_class,
    m_of_class,
)

#: Default rank bound for exhaustive fiber scans.
DEFAULT_FIBER_BOUND = 12


@dataclass
class VerificationReport:
    """Outcome of one verifier on one context: instance counts per assertion
    class and the failures, each a (input, expected, got) triple."""

    suite: str
    context: str
    counters: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

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


def _timed(fn):
    def wrap(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.elapsed = time.perf_counter() - t0
        return report

    wrap.__name__ = fn.__name__
    wrap.__doc__ = fn.__doc__
    return wrap


def fiber_map(ctx: GroupContext, bound: int = DEFAULT_FIBER_BOUND):
    """Full fibers of the surjection, computed by scanning every class."""
    fibers = defaultdict(list)
    for C in enumerate_classes(ctx, bound=bound):
        fibers[phi(ctx, C)].append(C)
    return fibers


def _is_distinguished_good_char(ctx: GroupContext, u: UnipotentSymbol) -> bool:
    """Good characteristic only: distinguished Jordan types have all parts
    even and distinct (type C) or all parts odd and distinct (types B/D)."""
    c = u.partition
    if len(set(c)) != len(c):
        return False
    want = 0 if ctx.family == "C" else 1
    return all(x % 2 == want for x in c)


@_timed
def verify_theorem_0_2(ctx: GroupContext, bound: int = DEFAULT_FIBER_BOUND) -> VerificationReport:
    """Every fiber has a unique fixed-space minimizer and the section picks it.

    Also checks that the enumerated fibers cover exactly the enumerated
    unipotent classes, that split type-D classes sit alone in their fibers,
    and (good characteristic) that distinguished Jordan types have
    singleton fibers.
    """
    report = VerificationReport("theorem02", str(ctx))
    fibers = fiber_map(ctx, bound)
    unipotents = enumerate_unipotents(ctx, bound=bound)
    report.count("surjective-onto-enumeration")
    if set(fibers) != set(unipotents) or len(unipotents) != len(set(unipotents)):
        report.fail(
            "surjective-onto-enumeration",
            ctx,
            f"{len(unipotents)} unipotent classes",
            f"{len(fibers)} fiber images",
        )
    for u in unipotents:
        fib = fibers[u]
        if not fib:  # a gap, reported by surjective-onto-enumeration
            continue
        ms = [m_of_class(ctx, C) for C in fib]
        mmin = min(ms)
        report.count("unique-minimum")
        if ms.count(mmin) != 1:
            report.fail("unique-minimum", u, "one minimizer", f"{ms.count(mmin)} of {len(fib)}")
            continue
        report.count("section-is-minimizer")
        argmin = fib[ms.index(mmin)]
        if psi(ctx, u) != argmin:
            report.fail("section-is-minimizer", u, argmin, psi(ctx, u))
        if ctx.family == "D":
            split = [C for C in fib if is_split_weyl_class(ctx, C)]
            report.count("split-fibers-singleton")
            if split and len(fib) != 1:
                report.fail("split-fibers-singleton", u, "singleton fiber", f"{len(fib)} classes")
        if (
            not ctx.is_exceptional
            and ctx.family != "A"
            and ctx.char == "good"
            and _is_distinguished_good_char(ctx, u)
        ):
            report.count("distinguished-fiber-singleton")
            if len(fib) != 1:
                report.fail("distinguished-fiber-singleton", u, 1, len(fib))
    return report


@_timed
def verify_phi_psi_identity(ctx: GroupContext, bound: int = DEFAULT_FIBER_BOUND) -> VerificationReport:
    """The surjection composed with its section is the identity."""
    report = VerificationReport("phipsi", str(ctx))
    for u in enumerate_unipotents(ctx, bound=bound):
        report.count("phi-psi-identity")
        back = phi(ctx, psi(ctx, u))
        if back != u:
            report.fail("phi-psi-identity", u, u, back)
    # elliptic classes are fixed points of the section composed the other way
    for C in enumerate_classes(ctx, bound=bound):
        if m_of_class(ctx, C) == 0:
            report.count("elliptic-fixed-point")
            back = psi(ctx, phi(ctx, C))
            if back != C:
                report.fail("elliptic-fixed-point", C, C, back)
    return report


@_timed
def verify_xi_bijection(n_max: int = 2 * DEFAULT_FIBER_BOUND) -> VerificationReport:
    """The adjustment map is a bijection from all-even records onto the
    gap-condition set, with the stated inverse; image membership is decided
    by the predicate, never by the map.  The records of the B/D contexts of
    rank n have size at most 2n, hence the default."""
    report = VerificationReport("xi", f"N<={n_max}")
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
                report.count("image-in-target")
                report.count("inverse-roundtrip")
                if img not in target:
                    report.fail("image-in-target", (r, kappa), "member of target set", img)
                    report.fail("inverse-roundtrip", (r, kappa), r, "no inverse outside the target set")
                elif xi_inv(img, kappa) != r:
                    report.fail("inverse-roundtrip", (r, kappa), r, xi_inv(img, kappa))
            report.count("injective")
            if len(set(images)) != len(images):
                report.fail("injective", (n, kappa), len(images), len(set(images)))
            report.count("image-equals-target")
            if sorted(images) != sorted(target):
                report.fail("image-equals-target", (n, kappa), len(target), len(set(images)))
    return report


@_timed
def verify_fiber_minimum(n_max: int = 2 * DEFAULT_FIBER_BOUND + 1) -> VerificationReport:
    """Uniqueness of the shortest-p splitting of every orthogonal Jordan
    type, against full fiber enumeration, and agreement with the rule-based
    minimizer; also checks that merging the minimizer back gives the input.
    The Jordan types of the B/D contexts of rank n have size at most 2n+1,
    hence the default."""
    report = VerificationReport("fiber-min", f"n<={n_max}")
    for n_amb in range(1, n_max + 1):
        for c in partitions_of(n_amb):
            if not in_Q(c, n_amb):
                continue
            fib = [(r, p) for r, p in splittings(c) if in_Q(r, sum(r)) and in_R(r)]
            best = min(len(p) for _, p in fib)
            minimizers = [(r, p) for r, p in fib if len(p) == best]
            report.count("unique-minimum")
            if len(minimizers) != 1:
                report.fail("unique-minimum", c, 1, len(minimizers))
                continue
            report.count("rules-match-minimum")
            computed = orthogonal_fiber_minimizer(c)
            if computed != minimizers[0]:
                report.fail("rules-match-minimum", c, minimizers[0], computed)
            report.count("merge-roundtrip")
            if partition(computed[0] + computed[1]) != c:
                report.fail("merge-roundtrip", c, c, partition(computed[0] + computed[1]))
    return report


@_timed
def verify_rho_pi(ctx: GroupContext, bound: int = DEFAULT_FIBER_BOUND) -> VerificationReport:
    """The comparison maps factor the two surjections/sections as claimed:
    rho o phi_p = phi_0 on classes, psi_p o pi = psi_0 on good-characteristic
    unipotents, rho surjective, pi injective, rho o pi = identity; in type C
    characteristic 2, rho forgets the marking."""
    report = VerificationReport("rhopi", str(ctx))
    good = ctx.good()
    bads = enumerate_unipotents(ctx, bound=bound)
    # rho is pure, so each bad class's image is evaluated once and read by
    # every check below; a class outside the enumeration is evaluated anew
    image = {u: rho(ctx, u) for u in bads}

    def rho_of(u: UnipotentSymbol) -> UnipotentSymbol:
        return image[u] if u in image else rho(ctx, u)

    for C in enumerate_classes(ctx, bound=bound):
        report.count("rho-factors-phi")
        left = rho_of(phi(ctx, C))
        right = phi(good, C)
        if left != right:
            report.fail("rho-factors-phi", C, right, left)
    goods = enumerate_unipotents(good, bound=bound)
    pis = []
    for u0 in goods:
        img = pi(ctx, u0)
        pis.append(img)
        report.count("psi-factors-pi")
        if psi(ctx, img) != psi(good, u0):
            report.fail("psi-factors-pi", u0, psi(good, u0), psi(ctx, img))
        report.count("rho-pi-identity")
        if rho_of(img) != u0:
            report.fail("rho-pi-identity", u0, u0, rho_of(img))
    report.count("pi-injective")
    if len(set(pis)) != len(pis):
        report.fail("pi-injective", ctx, len(pis), len(set(pis)))
    report.count("rho-surjective")
    if set(image.values()) != set(goods):
        report.fail("rho-surjective", ctx, len(goods), len(set(image.values())))
    if ctx.family == "C" and ctx.char == "p2":
        for u, img in image.items():
            report.count("rho-forgets-marks")
            if img.partition != u.marked.c:
                report.fail("rho-forgets-marks", u, u.marked.c, img)
    if ctx.is_exceptional:
        for u, img in image.items():
            m = SUBSCRIPTED_NAME_RE.match(u.name)
            expected = m.group("base") if m else u.name
            report.count("rho-strips-subscript")
            if img.name != expected:
                report.fail("rho-strips-subscript", u, expected, img.name)
    return report


@_timed
def verify_tables(family: str) -> VerificationReport:
    """Structural integrity of the exceptional tables: every instance of the
    invariants the loader enforces (``table_checks``), and the
    bad-characteristic tables differing from the good one exactly by the
    declared replacement rows, compared row by row as a check independent of
    the line-level derivation of their text.  A table the loader refuses is
    a failure; the good table comes first, and a variant only loads once its
    good table has."""
    report = VerificationReport("tables", family)
    rank = EXCEPTIONAL_RANK[family]
    for char in CHAR_VARIANTS[family]:
        ctx = GroupContext(family, rank, char)
        try:
            table = load_table(ctx)
        except TableIntegrityError as exc:
            report.fail("table-loads", ctx, "a table that passes its load checks", exc)
            continue
        if char == "good":
            good = table
        for assertion, holds, subject, expected, got in table_checks(table, good):
            report.count(assertion)
            if not holds:
                report.fail(assertion, subject, expected, got)
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
        report.count("variant-is-good-plus-replacements")
        if actual_rows != expected_rows:
            report.fail(
                "variant-is-good-plus-replacements", ctx, f"{len(expected_rows)} rows", f"{len(actual_rows)} rows"
            )
    return report


@_timed
def verify_special(ctx: GroupContext, check_maps: bool = True) -> VerificationReport:
    """Round trips and coherence of the special-class machinery.

    Classical contexts: the two translation maps are mutually inverse
    bijections between independently enumerated sides, the all-even-flag-0
    part maps onto the diagonal bipartitions, special classes are fixed by
    section-after-surjection (good characteristic), and type-D specialness
    of the split kind coincides with the split predicate.  Exceptional
    contexts: the table is a bijection whose classes are section images,
    and a tau or fiber table that fails its load is a ``table-loads`` failure.

    If nothing has failed once every ``x`` is mapped and the image multiset
    is compared, every ``bp`` is some ``fwd(x)`` with ``back(bp) == x``, so
    ``fwd(back(bp)) == bp`` is proved; otherwise it is evaluated for every
    ``bp``.  The type-D diagonal check reads the same images.
    """
    report = VerificationReport("special", str(ctx))
    if ctx.is_exceptional:
        try:
            rows = load_tau_table(ctx.family)
            good = load_table(ctx.good())
        except TableIntegrityError as exc:
            report.fail("table-loads", ctx, "a table that passes its load checks", exc)
            return report
        section_images = {row.classes[0] for row in good.rows}
        report.count("bijective-table")
        if not is_bijective_table(rows):
            report.fail("bijective-table", ctx.family, "distinct rows", "duplicates")
        for lab, _ in rows:
            report.count("classes-are-section-images")
            if lab not in section_images:
                report.fail("classes-are-section-images", lab, "section image", "not an image")
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
    report.count("cardinalities-match")
    if len(side) != len(side_prime):
        report.fail("cardinalities-match", ctx, len(side), len(side_prime))
    # each per-element assertion runs on every element and is counted once
    # per loop; a bipartition is compared by its (y, z) key
    images = []
    for x in side:
        bp = fwd(x)
        images.append((bp.y, bp.z))
        if not member(bp, n):
            report.fail("image-in-interlacing-set", x, "interlacing", bp)
        if back(bp) != x:
            report.fail("roundtrip-from-pairs", x, x, back(bp))
    report.count("image-in-interlacing-set", len(side))
    report.count("roundtrip-from-pairs", len(side))
    report.count("image-equals-interlacing-set")
    image_counts = Counter(images)
    if image_counts != Counter((bp.y, bp.z) for bp in side_prime):
        report.fail("image-equals-interlacing-set", ctx, len(side_prime), len(image_counts))
    if report.failures:
        for bp in side_prime:
            if fwd(back(bp)) != bp:
                report.fail("roundtrip-from-bipartitions", bp, bp, fwd(back(bp)))
    report.count("roundtrip-from-bipartitions", len(side_prime))
    if ctx.family == "D":
        diag = [(bp.y, bp.z) for bp in side_prime if in_C0_prime(bp, n)]
        diag_images = [key for x, key in zip(side, images) if in_C0(x)]
        report.count("flag0-onto-diagonal")
        if Counter(diag_images) != Counter(diag):
            report.fail("flag0-onto-diagonal", ctx, len(diag), len(diag_images))
    if check_maps:
        good = ctx.good()
        for x in side:
            s = special_class_of(good, x)
            back_s = psi(good, phi(good, s))
            if back_s != s:
                report.fail("section-fixes-special", x, s, back_s)
            if ctx.family == "D" and is_split_weyl_class(good, s) != in_C0(x):
                report.fail("split-coherence", x, in_C0(x), is_split_weyl_class(good, s))
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
