"""Acceptance suite: every criterion at its stated bound, one line per criterion.

Criterion 7 pins the row count of each exceptional special-class table at
the number of special unipotent classes (one per Lusztig family of the Weyl
group): G2 3, F4 11, E6 17, E7 35, E8 46.
"""

import time

from conftest import parse_atlas
from weylunip import oracle
from weylunip.atlas import atlas_lines
from weylunip.classical_maps import phi, psi
from weylunip.exceptional_tables import EXPECTED_CLASS_COUNTS, load_table
from weylunip.special_classes import load_tau_table, special_classes
from weylunip.weyl_classes import CHAR_VARIANTS, ClassSymbol, context, parse_carter_label

FIBER_BOUND = 12
XI_BOUND = 24
MIN_BOUND = 25
SPECIAL_BOUND = 30


def _finish(num, name, failures, started=None):
    status = "PASS" if not failures else "FAIL"
    extra = f" [{time.perf_counter() - started:.1f}s]" if started is not None else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{extra}")
    assert not failures, failures[:10]


def test_criterion_1_unique_minimizer_exhaustive():
    t0 = time.perf_counter()
    failures = []
    for ctx in oracle.acceptance_contexts(FIBER_BOUND):
        report = oracle.verify_theorem_0_2(ctx, bound=FIBER_BOUND)
        failures += report.failures
    elapsed = time.perf_counter() - t0
    if elapsed > 300:
        failures.append(("time-budget", "<=300s", f"{elapsed:.0f}s", ""))
    _finish(1, "unique fixed-space minimizer over all contexts", failures, t0)


def test_criterion_2_section_is_right_inverse():
    t0 = time.perf_counter()
    failures = []
    for ctx in oracle.acceptance_contexts(FIBER_BOUND):
        failures += oracle.verify_phi_psi_identity(ctx, bound=FIBER_BOUND).failures
    _finish(2, "surjection after section is the identity", failures, t0)


def test_criterion_3_adjustment_bijection():
    t0 = time.perf_counter()
    failures = oracle.verify_xi_bijection(XI_BOUND).failures
    _finish(3, "all-even records biject onto the gap-condition set", failures, t0)


def test_criterion_4_fiber_minimum_uniqueness():
    t0 = time.perf_counter()
    failures = oracle.verify_fiber_minimum(MIN_BOUND).failures
    _finish(4, "orthogonal fibers have a unique shortest splitting", failures, t0)


def test_criterion_5_cross_characteristic_maps():
    t0 = time.perf_counter()
    failures = []
    for ctx in oracle.acceptance_contexts(FIBER_BOUND):
        if ctx.char == "good":
            continue
        failures += oracle.verify_rho_pi(ctx, bound=FIBER_BOUND).failures
    _finish(5, "comparison maps factor the surjections and sections", failures, t0)


def test_criterion_6_exceptional_table_integrity():
    t0 = time.perf_counter()
    failures = []
    for family, count in EXPECTED_CLASS_COUNTS.items():
        report = oracle.verify_tables(family)
        failures += report.failures
        for char in CHAR_VARIANTS[family]:
            table = load_table(context(family, char=char))
            if sum(len(r.classes) for r in table.rows) != count:
                failures.append((family, char, count, "wrong class count"))
    # distinguished Jordan types (good characteristic) have singleton fibers;
    # checked inside the theorem02 oracle for every good classical context
    for fam, lo in (("B", 2), ("C", 2), ("D", 3)):
        for n in range(lo, FIBER_BOUND + 1):
            report = oracle.verify_theorem_0_2(context(fam, n), bound=FIBER_BOUND)
            failures += [f for f in report.failures if f[0] == "distinguished-fiber-singleton"]
            if "distinguished-fiber-singleton" not in report.counters:
                failures.append((fam, n, "distinguished check ran", "missing"))
    _finish(6, "table integrity and distinguished fibers", failures, t0)


def test_criterion_7_special_bijections():
    t0 = time.perf_counter()
    failures = []
    # h/h' sweep once (B and C share the special set), k/k' for D
    for fam, lo in (("C", 2), ("D", 3)):
        for n in range(lo, SPECIAL_BOUND + 1):
            report = oracle.verify_special(context(fam, n), check_maps=(n <= FIBER_BOUND))
            failures += report.failures
    # the section fixes special classes for all three families at rank <= 12
    for n in range(2, FIBER_BOUND + 1):
        ctx = context("B", n)
        for s in special_classes(ctx):
            if psi(ctx, phi(ctx, s)) != s:
                failures.append((str(ctx), str(s), "fixed by section", "moved"))
    _finish(7, "special-set bijections and section-fixedness", failures, t0)


def test_criterion_7_exceptional_special_tables():
    t0 = time.perf_counter()
    failures = []
    # one special class per Lusztig family of W: Lusztig, Characters of
    # Reductive Groups over a Finite Field (1984), ch. 4; Carter, Finite
    # Groups of Lie Type (1985), sec. 13.9
    pinned_rows = {"G2": 3, "F4": 11, "E6": 17, "E7": 35, "E8": 46}
    for family, want in pinned_rows.items():
        rows = load_tau_table(family)
        if len(rows) != want:
            failures.append((family, f"{want} rows", f"{len(rows)} rows", "Lusztig 1984 ch. 4"))
        section_images = {row.classes[0] for row in load_table(context(family)).rows}
        for lab, _ in rows.items():
            if lab not in section_images:
                failures.append((family, str(lab), "section image", "not an image"))
    spot = {
        ("G2", "A_2"): "θ'",
        ("F4", "B_4"): "χ_{4,1}",
        ("E8", "D_4(a_1)"): "1400_37",
        ("E7", "A_0"): "1_63",
        ("E7", "E_7"): "1_0",
    }
    from weylunip.special_classes import tau

    for (family, label), want in spot.items():
        got = tau(context(family), ClassSymbol(label=parse_carter_label(label)))
        if got != want:
            failures.append((family, label, want, got))
    _finish(7, "exceptional special tables (pinned row counts)", failures, t0)


def test_criterion_8_atlas_determinism():
    t0 = time.perf_counter()
    failures = []
    for ctx in (context("C", 3, "p2"), context("D", 4), context("E7", char="p2"), context("A", 4)):
        first = atlas_lines(ctx, bound=FIBER_BOUND)
        second = atlas_lines(ctx, bound=FIBER_BOUND)
        if first != second:
            failures.append((str(ctx), "identical dumps", "differ", ""))
        text = "\n".join(first)
        redump = "\n".join(
            " ".join(f"{k}={v}" for k, v in rec.items()) for rec in parse_atlas(text)
        )
        if redump != text:
            failures.append((str(ctx), "round-trip through parser", "differs", ""))
    _finish(8, "dumps byte-identical and parser round-trips", failures, t0)
