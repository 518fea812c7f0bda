"""Fiber tables for the exceptional types, and the one checked reader of the
shipped data files.

Each table row lists the classes of one fiber (minimizer first) and the
unipotent-class name it maps to.  The good-characteristic tables ship as
data files.  A bad-characteristic table differs from its good sibling only
where one fiber splits in two (``REPLACEMENTS``), so it ships no file: its
text is derived from the good file.  Transcription is the dominant error
source, so every table text, shipped or derived, has a pinned SHA-256, and
every load re-runs the structural sanity checks.
"""

from __future__ import annotations

import re
from functools import lru_cache

from ._value import Value
from .errors import (
    BadInput,
    ParseError,
    TableIntegrityError,
    UnknownClass,
    UnknownContext,
    UnknownUnipotent,
)
from .weyl_classes import (
    CHAR_VARIANTS,
    EXCEPTIONAL_RANK,
    CarterLabel,
    GroupContext,
    parse_carter_label,
)

#: The name each context's table text is pinned under in ``CHECKSUMS``, in
#: catalogue order.  The bad-characteristic names have no file; their text is
#: derived.
TABLE_FILES = {
    (family, char): f"fiber_{family.lower()}_{char}.tbl"
    for family in EXCEPTIONAL_RANK
    for char in CHAR_VARIANTS[family]
}

#: SHA-256 of every table text: the shipped fiber and special-class files and
#: the derived bad-characteristic fiber tables.
CHECKSUMS = {
    "fiber_e6_good.tbl": "02545ed53cc5bc10172fb725ddb5d96a28ce95eca996b6af61cbd5c5711c88b7",
    "fiber_e7_good.tbl": "9128b587ae2b0c84177c3f2d0b578094616cc56d0f44050de5c1b6b1e51a3d15",
    "fiber_e7_p2.tbl": "a043c674a4848e00534f73ab0538209ac26236c4bba53afe6229a873a59243a4",
    "fiber_e8_good.tbl": "b0e1c36e15c4c4c3f797293677c6af11f0045167a91d5c31d1a487f4ba91fad3",
    "fiber_e8_p2.tbl": "23bf920c8a932702ed9471219fa598808e509eb758d24abc9428836e699c1551",
    "fiber_e8_p3.tbl": "e3680f706f78ebab3a6b87c45968d6d49ec7996c3a46f81cdd405df75e159097",
    "fiber_f4_good.tbl": "0ff9c84a2c6e87b3ad0992c250f30ded2311ba1580751fa7ed326f539d173952",
    "fiber_f4_p2.tbl": "45b76cb00fadb1cfc412d5ae161b0747ca2dd183eab479887f3cdfaf0ae51961",
    "fiber_g2_good.tbl": "274e6adb7f8e1598f7bc8ddbe9f4e198ebc947c19d39ec9f72352755ecd07453",
    "fiber_g2_p3.tbl": "54d726208a48e297d8c964c45312fe332a42ae7f4a82fc1f91fdaf57c340e884",
    "tau_e6.tbl": "1d9f27d60223f17971e898bdbe626d20cf41832ae72aa15ebb501c432a75f74b",
    "tau_e7.tbl": "a48c9c2fef44427bea3e5621dff7f79dea870d518e1388b1575352d2132198e4",
    "tau_e8.tbl": "5c80a8c6d3d925fda5de45d9a8af97722e3581c968cf1d68fcb53ff9ca553589",
    "tau_f4.tbl": "e992c52f2d9e75963ae5c5b6650515dd86f42509972b07ab678a97b7bec84384",
    "tau_g2.tbl": "49b5cb14942db255c2a055ae451127ac1f059717914193491759d506d6af6aa2",
}

EXPECTED_CLASS_COUNTS = {"G2": 6, "F4": 25, "E6": 25, "E7": 60, "E8": 112}

#: How each bad-characteristic table differs from its good-characteristic
#: sibling: {(family, char): [(replaced unipotent name, [(classes, name), ...])]}.
#: A variant's text is the good file's text with ``variant good`` in the header
#: renamed and each replaced row swapped, in place, for its replacement rows;
#: that derived text is pinned in ``CHECKSUMS`` like a shipped file's.
REPLACEMENTS = {
    ("G2", "p3"): [
        ("~A_1", [(("A_1+~A_1",), "~A_1"), (("~A_1",), "(~A_1)_3")]),
    ],
    ("F4", "p2"): [
        ("~A_1", [(("2A_1",), "~A_1"), (("~A_1",), "(~A_1)_2")]),
        ("~A_2+A_1", [(("A_2+~A_2",), "~A_2+A_1"), (("~A_2+A_1",), "(~A_2+A_1)_2")]),
        ("B_2", [(("A_3",), "B_2"), (("B_2",), "(B_2)_2")]),
        ("C_3(a_1)", [(("A_3+~A_1",), "C_3(a_1)"), (("B_2+A_1",), "(C_3(a_1))_2")]),
    ],
    ("E7", "p2"): [
        ("A_3+A_2", [(("D_4(a_1)+2A_1",), "A_3+A_2"), (("A_3+A_2",), "(A_3+A_2)_2")]),
    ],
    ("E8", "p2"): [
        ("A_3+A_2", [(("(2A_3)'",), "A_3+A_2"), (("A_3+A_2",), "(A_3+A_2)_2")]),
        ("D_4+A_2", [(("D_4+A_3",), "D_4+A_2"), (("D_4+A_2",), "(D_4+A_2)_2")]),
        ("D_5+A_2", [(("A_7+A_1",), "D_5+A_2"), (("D_5+A_2",), "(D_5+A_2)_2")]),
        ("D_7(a_1)", [(("D_8(a_2)",), "D_7(a_1)"), (("D_7(a_1)",), "(D_7(a_1))_2")]),
    ],
    ("E8", "p3"): [
        ("A_7", [(("D_8(a_3)",), "A_7"), (("A''_7",), "(A_7)_3")]),
    ],
}

_ROW_RE = re.compile(r"classes\s*=\s*(?P<classes>[^;]+?)\s*;\s*unipotent\s*=\s*(?P<unip>\S+)\s*$")

# a unipotent name carrying a bad-characteristic subscript, e.g. (B_2)_2
SUBSCRIPTED_NAME_RE = re.compile(r"^\((?P<base>.+)\)_(?P<p>[23])$")


class FiberRow(Value):
    """The classes of one fiber, minimizer first, and the name of its
    unipotent class."""

    __slots__ = ("classes", "unipotent")
    classes: tuple[CarterLabel, ...]
    unipotent: str

    def __new__(cls, classes: tuple[CarterLabel, ...], unipotent: str):
        if type(classes) is not tuple or {type(lab) for lab in classes} != {CarterLabel}:
            raise BadInput(f"classes must be a non-empty tuple of CarterLabel, got {classes!r}")
        if type(unipotent) is not str:
            raise BadInput(f"unipotent name must be a str, got {unipotent!r}")
        return cls._trusted(classes, unipotent)


class FiberTable(Value):
    """The fiber table of an exceptional context, one row per unipotent class."""

    __slots__ = ("context", "rows")
    context: GroupContext
    rows: tuple[FiberRow, ...]

    def __new__(cls, context: GroupContext, rows: tuple[FiberRow, ...]):
        if not (isinstance(context, GroupContext) and context.is_exceptional):
            raise BadInput(f"table context must be an exceptional GroupContext, got {context!r}")
        if type(rows) is not tuple or {type(row) for row in rows} != {FiberRow}:
            raise BadInput(f"rows must be a non-empty tuple of FiberRow, got {rows!r}")
        return cls._trusted(context, rows)

    def __hash__(self) -> int:
        # Sound because ``__eq__`` compares the context too, so equal tables
        # have equal hashes; tables that differ only in their rows merely
        # share a bucket, and ``_load`` builds one per context.  It keeps the
        # cached index methods below from hashing every row on each read.
        return hash(self.context)

    @lru_cache(maxsize=None)
    def _class_index(self):
        return {lab: row for row in self.rows for lab in row.classes}

    @lru_cache(maxsize=None)
    def _unipotent_index(self):
        return {row.unipotent: row for row in self.rows}

    def unipotent_names(self) -> list[str]:
        return [row.unipotent for row in self.rows]


#: The context each derived table text comes from, keyed by its pinned name.
_DERIVED = {TABLE_FILES[key]: key for key in REPLACEMENTS}


def _derive_variant(family: str, char: str) -> bytes:
    """The text of a bad-characteristic fiber table: the checked good text with
    the header's variant renamed and each replaced row swapped, in place, for
    its replacement rows; every other line is kept as it is."""
    good = _pinned_text(TABLE_FILES[(family, "good")])
    pending = dict(REPLACEMENTS[(family, char)])
    lines = []
    for line in good.replace("variant good", f"variant {char}", 1).splitlines(keepends=True):
        m = _ROW_RE.match(line.strip())
        if m and m["unip"] in pending:
            lines += [
                f"classes = {'|'.join(classes)} ; unipotent = {unip}\n"
                for classes, unip in pending.pop(m["unip"])
            ]
        else:
            lines.append(line)
    if pending:
        raise TableIntegrityError(
            f"{TABLE_FILES[(family, char)]}: replaced rows {sorted(pending)} "
            "are not in the good table"
        )
    return "".join(lines).encode("utf-8")


def _pinned_text(name: str) -> str:
    """The table text pinned under ``name`` once its SHA-256 matches: a data
    file, or a bad-characteristic fiber table derived from its good sibling."""
    # here, so a process that reads no table loads neither (on Python 3.12
    # and later, importlib.resources also loads inspect)
    import hashlib
    from importlib import resources

    if name in _DERIVED:
        data = _derive_variant(*_DERIVED[name])
    else:
        try:
            data = resources.files("weylunip.data").joinpath(name).read_bytes()
        except (ModuleNotFoundError, OSError) as exc:
            raise TableIntegrityError(f"{name}: cannot read the shipped file: {exc}") from None
    digest = hashlib.sha256(data).hexdigest()
    if digest != CHECKSUMS[name]:
        raise TableIntegrityError(
            f"{name}: checksum {digest} differs from pinned {CHECKSUMS[name]}"
        )
    return data.decode("utf-8")


def read_rows(name: str, row_re: re.Pattern) -> list[re.Match]:
    """The rows of the checked table text pinned under ``name``, each matched
    by ``row_re``.  Blank and ``#`` lines are skipped; any other line that
    does not match raises."""
    rows = []
    for line in _pinned_text(name).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = row_re.match(line)
        if not m:
            raise TableIntegrityError(f"{name}: unparsable row {line!r}")
        rows.append(m)
    return rows


def table_label(name: str, text: str) -> CarterLabel:
    """The class label written as ``text`` in the table pinned under
    ``name``.  A label that does not parse, or that does not print back as
    ``text`` (as ``01A_1`` prints ``A_1``), is a fault of the table."""
    text = text.strip()
    try:
        lab = _round_trip_label(text)
    except (BadInput, ParseError) as exc:
        raise TableIntegrityError(f"{name}: {exc}") from None
    if lab is None:
        raise TableIntegrityError(f"{name}: label {text} does not round-trip")
    return lab


@lru_cache(maxsize=None)
def _round_trip_label(text: str) -> CarterLabel | None:
    # Keyed on the text alone, so all tables share one label object per text
    # and a lookup across a family's tables matches by identity; the caller
    # adds the table's name, and a raised error is not cached.
    lab = parse_carter_label(text)
    return lab if str(lab) == text else None


def table_checks(table: FiberTable, good: FiberTable):
    """Every instance of the structural invariants of a fiber table, as
    (assertion, holds, subject, expected, got): the class count with no label
    twice, the class set of the good-characteristic table ``good``, strict
    minimality of the fixed-space dimension at each row's leading class, and
    at most one elliptic class per row."""
    ctx = table.context
    rank, count = ctx.rank, EXPECTED_CLASS_COUNTS[ctx.family]
    labels = [lab for row in table.rows for lab in row.classes]
    distinct = set(labels)
    yield "class-count", len(labels) == count == len(distinct), ctx, count, len(labels)
    same = distinct == {lab for row in good.rows for lab in row.classes}
    yield "same-class-set", same, ctx, "class set of good table", "differs"
    for row in table.rows:
        first_m = rank - row.classes[0].rank
        for other in row.classes[1:]:
            m = rank - other.rank
            yield "first-strictly-minimal", m > first_m, row.unipotent, f"> {first_m}", m
    for row in table.rows:
        elliptic = sum(lab.rank == rank for lab in row.classes)
        yield "at-most-one-elliptic", elliptic <= 1, row.unipotent, "<=1", elliptic


@lru_cache(maxsize=None)
def _load(family: str, char: str) -> FiberTable:
    name = TABLE_FILES[(family, char)]
    rows = tuple(
        FiberRow._trusted(tuple(table_label(name, c) for c in m["classes"].split("|")), m["unip"])
        for m in read_rows(name, _ROW_RE)
    )
    table = FiberTable._trusted(GroupContext(family, EXCEPTIONAL_RANK[family], char), rows)
    names = table.unipotent_names()
    if len(set(names)) != len(names):
        raise TableIntegrityError(f"{name}: duplicate unipotent names")
    good = table if char == "good" else _load(family, "good")
    for assertion, holds, subject, expected, got in table_checks(table, good):
        if not holds:
            raise TableIntegrityError(
                f"{name}: {assertion} fails at {subject}: expected {expected}, got {got}"
            )
    return table


def load_table(ctx: GroupContext) -> FiberTable:
    """The fiber table of an exceptional context, fully sanity-checked."""
    if (ctx.family, ctx.char) not in TABLE_FILES:
        raise UnknownContext(f"no table for context {ctx}")
    return _load(ctx.family, ctx.char)


def phi_lookup(ctx: GroupContext, label: CarterLabel) -> str:
    """Unipotent name of the fiber containing ``label``."""
    table = load_table(ctx)
    row = table._class_index().get(label)
    if row is None:
        raise UnknownClass(f"label {label} not in the table for {ctx}")
    return row.unipotent


def fiber(ctx: GroupContext, unipotent: str) -> tuple[CarterLabel, ...]:
    """The ordered class list mapped to ``unipotent`` (minimizer first)."""
    table = load_table(ctx)
    row = table._unipotent_index().get(unipotent)
    if row is None:
        raise UnknownUnipotent(f"unipotent name {unipotent!r} not in the table for {ctx}")
    return row.classes
