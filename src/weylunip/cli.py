"""Command-line front end: one subcommand per map, plus fibers, special-class
listings, full per-context dumps, and the verification suites.

All output is deterministic; exit status is 2 on usage or parse errors and
1 on verification failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from .classical_maps import (
    enumerate_unipotents,
    fiber_of,
    parse_unipotent,
    phi,
    pi,
    psi,
    rho,
)
from .errors import WeylUnipError
from .weyl_classes import (
    DEFAULT_RANK_BOUND,
    EXCEPTIONAL_RANK,
    GroupContext,
    enumerate_classes,
    is_split_weyl_class,
    m_of_class,
    parse_class,
)
from .special_classes import special_classes, tau


def _context(args) -> GroupContext:
    family = args.family
    if family in EXCEPTIONAL_RANK:
        rank = EXCEPTIONAL_RANK[family]
    else:
        if args.rank is None:
            raise WeylUnipError(f"--rank is required for family {family}")
        rank = args.rank
    return GroupContext(family, rank, args.char)


def _print(args, command: str, payload: str, value: str) -> None:
    if args.format == "records":
        print(f"command={command} input={payload} output={value}")
    else:
        print(value)


def _split_suffix(ctx, C) -> str:
    if ctx.family == "D" and is_split_weyl_class(ctx, C):
        return " [split]"
    return ""


def cmd_phi(args) -> int:
    ctx = _context(args)
    C = parse_class(ctx, args.payload)
    _print(args, "phi", args.payload, str(phi(ctx, C)))
    return 0


def cmd_psi(args) -> int:
    ctx = _context(args)
    u = parse_unipotent(ctx, args.payload)
    C = psi(ctx, u)
    _print(args, "psi", args.payload, str(C) + _split_suffix(ctx, C))
    return 0


def cmd_m(args) -> int:
    ctx = _context(args)
    C = parse_class(ctx, args.payload)
    _print(args, "m", args.payload, str(m_of_class(ctx, C)))
    return 0


def cmd_rho(args) -> int:
    ctx = _context(args)
    u = parse_unipotent(ctx, args.payload)
    _print(args, "rho", args.payload, str(rho(ctx, u)))
    return 0


def cmd_pi(args) -> int:
    ctx = _context(args)
    u0 = parse_unipotent(ctx.good(), args.payload)
    _print(args, "pi", args.payload, str(pi(ctx, u0)))
    return 0


def cmd_fiber(args) -> int:
    ctx = _context(args)
    u = parse_unipotent(ctx, args.payload)
    for C in fiber_of(ctx, u):
        print(str(C) + _split_suffix(ctx, C))
    return 0


def cmd_tau(args) -> int:
    ctx = _context(args)
    C = parse_class(ctx, args.payload)
    _print(args, "tau", args.payload, tau(ctx, C) + _split_suffix(ctx, C))
    return 0


def cmd_special(args) -> int:
    ctx = _context(args)
    for C in special_classes(ctx, DEFAULT_RANK_BOUND if args.bound is None else args.bound):
        print(str(C) + _split_suffix(ctx, C))
    return 0


def atlas_lines(ctx: GroupContext, bound: int = DEFAULT_RANK_BOUND) -> list[str]:
    """Full dump of the context: every class with its image and fixed-space
    dimension, every fiber in section-first order, the comparison maps for
    bad characteristic, and the special classes with their labels."""
    lines = [f"record=context family={ctx.family} rank={ctx.rank} char={ctx.char}"]
    fibers = defaultdict(list)
    for C in enumerate_classes(ctx, bound=bound):
        u = phi(ctx, C)
        fibers[u].append(C)
        split = " split=1" if ctx.family == "D" and is_split_weyl_class(ctx, C) else ""
        lines.append(f"record=map class={C} m={m_of_class(ctx, C)} phi={u}{split}")
    for u in enumerate_unipotents(ctx, bound=bound):
        first = psi(ctx, u)
        ordered = [first] + [C for C in fibers[u] if C != first]
        lines.append(
            f"record=fiber unipotent={u} psi={first} "
            f"classes={'|'.join(str(C) for C in ordered)}"
        )
    if ctx.char != "good":
        good = ctx.good()
        for u in enumerate_unipotents(ctx, bound=bound):
            lines.append(f"record=rho unipotent={u} rho={rho(ctx, u)}")
        for u0 in enumerate_unipotents(good, bound=bound):
            lines.append(f"record=pi unipotent0={u0} pi={pi(ctx, u0)}")
    for C in special_classes(ctx, bound=bound):
        split = " split=1" if ctx.family == "D" and is_split_weyl_class(ctx, C) else ""
        lines.append(f"record=special class={C} tau={tau(ctx, C)}{split}")
    return lines


def cmd_atlas(args) -> int:
    ctx = _context(args)
    for line in atlas_lines(ctx, DEFAULT_RANK_BOUND if args.bound is None else args.bound):
        print(line)
    return 0


SUITES = ("theorem02", "phipsi", "xi", "fiber-min", "rhopi", "tables", "special", "all")


def _run_suite(args) -> list:
    from . import oracle  # imported here: no other subcommand needs it

    reports = []
    suite = args.suite
    if suite in ("xi", "all"):
        reports.append(oracle.verify_xi_bijection(args.bound or oracle.DEFAULT_XI_BOUND))
    if suite in ("fiber-min", "all"):
        reports.append(oracle.verify_fiber_minimum(args.bound or oracle.DEFAULT_MIN_BOUND))
    if suite in ("tables", "all"):
        families = [args.family] if args.family in EXCEPTIONAL_RANK else ["G2", "F4", "E6", "E7", "E8"]
        for fam in families:
            reports.append(oracle.verify_tables(fam))
    if suite in ("theorem02", "phipsi", "rhopi", "special", "all"):
        bound = oracle.DEFAULT_FIBER_BOUND if args.bound is None else args.bound
        ctxs = [_context(args)] if args.family else oracle.acceptance_contexts(bound)
        for ctx in ctxs:
            if suite in ("theorem02", "all"):
                reports.append(oracle.verify_theorem_0_2(ctx, bound=bound))
            if suite in ("phipsi", "all"):
                reports.append(oracle.verify_phi_psi_identity(ctx, bound=bound))
            if suite in ("rhopi", "all") and ctx.char != "good":
                reports.append(oracle.verify_rho_pi(ctx, bound=bound))
            if suite in ("special", "all"):
                reports.append(oracle.verify_special(ctx))
    return reports


def cmd_verify(args) -> int:
    reports = _run_suite(args)
    failed = False
    for report in reports:
        if args.format == "records":
            for line in report.record_lines():
                print(line)
        print(report.summary())
        failed = failed or not report.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylunip",
        description=(
            "Conjugacy classes of Weyl groups, unipotent classes, the maps "
            "between them, and exhaustive verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, payload_help=None, needs_payload=True):
        p = sub.add_parser(name)
        p.add_argument("--family", choices=("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8"))
        p.add_argument("--rank", type=int)
        p.add_argument("--char", default="good", choices=("good", "p2", "p3"))
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--format", default="plain", choices=("plain", "records"))
        if needs_payload:
            p.add_argument("payload", help=payload_help or "class or unipotent text form")
        p.set_defaults(fn=fn)
        return p

    add("phi", cmd_phi, "class text form, e.g. 'r=4,4;p=' or 'C_3(a_1)'")
    add("psi", cmd_psi, "unipotent text form, e.g. '5,3' or 'c=2,2;eps=2:1'")
    add("m", cmd_m, "class text form")
    add("rho", cmd_rho, "bad-characteristic unipotent text form")
    add("pi", cmd_pi, "good-characteristic unipotent text form")
    add("fiber", cmd_fiber, "unipotent text form")
    add("tau", cmd_tau, "special class text form")
    add("special", cmd_special, needs_payload=False)
    add("atlas", cmd_atlas, needs_payload=False)
    pv = add("verify", cmd_verify, needs_payload=False)
    pv.add_argument("--suite", required=True, choices=SUITES)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command != "verify" and args.family is None:
            raise WeylUnipError("--family is required")
        return args.fn(args)
    except WeylUnipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
