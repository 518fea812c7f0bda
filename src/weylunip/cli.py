"""Command-line front end: one subcommand per map, plus fibers, special-class
listings, full per-context dumps, and the verification suites.

The front end only parses, dispatches and prints.  Each command imports
only the modules it reads: ``special_classes``, ``atlas`` and ``oracle``
in its handler, ``exceptional_tables`` on its first exceptional read.
All output is deterministic; exit status is 2 with a one-line ``error:``
message on usage or parse errors, 1 on verification failure, and 141
with nothing on stderr when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import os
import sys

from .classical_maps import fiber_of, parse_unipotent, phi, pi, psi, rho
from .errors import WeylUnipError
from .partitions import _digits
from .weyl_classes import (
    CHAR_VARIANTS,
    DEFAULT_FIBER_BOUND,
    DEFAULT_RANK_BOUND,
    FAMILIES,
    SUITES,
    ClassSymbol,
    GroupContext,
    context,
    m_of_class,
    parse_class,
    split_tag,
)


def _tau(ctx: GroupContext, C: ClassSymbol) -> str:
    """``special_classes.tau``, imported by the one query that reads it."""
    from .special_classes import tau

    return tau(ctx, C)


#: The point queries: name -> (payload parser, map, whether the class the
#: query reads or returns carries the split tag, payload help).
QUERIES = {
    "phi": (parse_class, phi, False, "class text form, e.g. 'r=4,4;p=' or 'C_3(a_1)'"),
    "psi": (parse_unipotent, psi, True, "unipotent text form, e.g. '5,3' or 'c=2,2;eps=2:1'"),
    "m": (parse_class, m_of_class, False, "class text form"),
    "rho": (parse_unipotent, rho, False, "bad-characteristic unipotent text form"),
    "pi": (lambda ctx, text: parse_unipotent(ctx.good(), text), pi, False,
           "good-characteristic unipotent text form"),
    "tau": (parse_class, _tau, True, "special class text form"),
}


def _context(args) -> GroupContext:
    return context(args.family, args.rank, args.char)


def cmd_query(args) -> int:
    ctx = _context(args)
    parse, fn, tagged, _ = QUERIES[args.command]
    x = parse(ctx, args.payload)
    y = fn(ctx, x)
    value = str(y) + (split_tag(ctx, x if isinstance(x, ClassSymbol) else y) if tagged else "")
    if args.format == "records":
        print(f"command={args.command} input={args.payload} output={value}")
    else:
        print(value)
    return 0


def _print_classes(ctx: GroupContext, classes) -> int:
    for C in classes:
        print(str(C) + split_tag(ctx, C))
    return 0


def cmd_fiber(args) -> int:
    ctx = _context(args)
    return _print_classes(ctx, fiber_of(ctx, parse_unipotent(ctx, args.payload)))


def cmd_special(args) -> int:
    from .special_classes import special_classes

    ctx = _context(args)
    return _print_classes(ctx, special_classes(ctx, args.bound))


def cmd_atlas(args) -> int:
    from .atlas import atlas_lines

    for line in atlas_lines(_context(args), args.bound):
        print(line)
    return 0


def cmd_verify(args) -> int:
    """Prints each report of ``oracle.run_suites`` as it is made.  ``--rank``
    or ``--char`` without ``--family`` is refused: no suite would read them."""
    from . import oracle

    if not args.family and (args.rank is not None or args.char is not None):
        raise WeylUnipError("--rank and --char need --family")
    ctx = context(args.family, args.rank, args.char or "good") if args.family else None
    failed = False
    for report in oracle.run_suites(args.suite, ctx, args.bound):
        if args.format == "records":
            for line in report.record_lines():
                print(line)
        print(report.summary())
        failed = failed or not report.passed
    return 1 if failed else 0


def _natural(text: str) -> int:
    """A rank or rank bound: a run of ASCII digits, read by the rule of the
    text forms.  A negative bound would verify nothing and still pass."""
    try:
        return _digits(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Turns every usage error into a ``WeylUnipError``, so that it ends in
    the same one-line message and exit status as any other bad input."""

    def error(self, message):
        raise WeylUnipError(message)

    def parse_args(self, args=None, namespace=None):
        """As argparse's, but leftover arguments are reported by their
        options alone: a misplaced ``--bound 3`` leaves its value behind as
        the payload, and the word left over is not what was wrong."""
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            named = [a for a in extras if a.startswith("-")] or extras
            self.error("unrecognized arguments: " + " ".join(named))
        return args


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weylunip",
        description=(
            "Conjugacy classes of Weyl groups, unipotent classes, the maps "
            "between them, and exhaustive verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chars = sorted({char for variants in CHAR_VARIANTS.values() for char in variants})

    def add(name, fn, payload_help=None, bound=False, formats=False):
        """A subcommand with the context options and only the others its
        handler reads."""
        p = sub.add_parser(name)
        p.add_argument("--family", required=name != "verify", choices=FAMILIES)
        p.add_argument("--rank", type=_natural)
        # verify without --family refuses --char, so it must see whether one was given
        p.add_argument("--char", default=None if name == "verify" else "good", choices=chars)
        if bound:
            default = DEFAULT_FIBER_BOUND if name == "verify" else DEFAULT_RANK_BOUND
            p.add_argument("--bound", type=_natural, default=default)
        if formats:
            p.add_argument("--format", default="plain", choices=("plain", "records"))
        if payload_help:
            p.add_argument("payload", help=payload_help)
        p.set_defaults(fn=fn)
        return p

    for name, (_, _, _, payload_help) in QUERIES.items():
        if name == "tau":  # the help lists fiber between pi and tau
            add("fiber", cmd_fiber, "unipotent text form")
        add(name, cmd_query, payload_help, formats=True)
    add("special", cmd_special, bound=True)
    add("atlas", cmd_atlas, bound=True)
    add("verify", cmd_verify, bound=True, formats=True).add_argument("--suite", required=True, choices=SUITES)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.fn(args)
        sys.stdout.flush()  # a reader gone before the last write is seen here
        return status
    except WeylUnipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early: stop quietly with 128 + SIGPIPE, as
        # a shell reports it, and point stdout at the null device so the flush
        # at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
