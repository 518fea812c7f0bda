import hashlib
import re
from importlib import resources
from types import MappingProxyType

import pytest

from weylunip import exceptional_tables, oracle
from weylunip.classical_maps import UnipotentSymbol, fiber_of, phi, psi
from weylunip.cli import main
from weylunip.errors import (
    BadInput,
    InvalidClass,
    NotSpecial,
    TableIntegrityError,
    UnknownClass,
    UnknownContext,
    UnknownUnipotent,
)
from weylunip.exceptional_tables import (
    CHECKSUMS,
    EXPECTED_CLASS_COUNTS,
    REPLACEMENTS,
    TABLE_FILES,
    FiberRow,
    FiberTable,
    _load,
    fiber,
    load_table,
    phi_lookup,
    read_rows,
)
from weylunip.special_classes import _TAU_ROW_RE, TAU_FILES, is_special_class, load_tau_table, special_classes, tau
from weylunip.weyl_classes import (
    CHAR_VARIANTS,
    EXCEPTIONAL_RANK,
    ClassSymbol,
    GroupContext,
    context,
    m_of_class,
    validate_class,
    parse_carter_label,
)


def test_load_table_variants():
    g2 = load_table(context("G2"))
    assert len(g2.rows) == 5
    assert sum(len(r.classes) for r in g2.rows) == 6
    g2p3 = load_table(context("G2", char="p3"))
    assert len(g2p3.rows) == 6
    assert [str(c) for c in fiber(context("G2", char="p3"), "(~A_1)_3")] == ["~A_1"]
    e7p2 = load_table(context("E7", char="p2"))
    names = e7p2.unipotent_names()
    assert "(A_3+A_2)_2" in names
    assert [str(c) for c in fiber(context("E7", char="p2"), "A_3+A_2")] == ["D_4(a_1)+2A_1"]
    with pytest.raises(UnknownContext):
        load_table(context("C", 4))


def test_phi_lookup_examples():
    assert phi_lookup(context("G2"), parse_carter_label("A_2")) == "G_2(a_1)"
    assert phi_lookup(context("E6"), parse_carter_label("E_6(a_2)")) == "A_5+A_1"
    assert phi_lookup(context("E8"), parse_carter_label("E_8(a_8)")) == "2A_4"
    with pytest.raises(UnknownClass):
        phi_lookup(context("G2"), parse_carter_label("B_2"))


def test_fiber_examples():
    assert [str(c) for c in fiber(context("E7"), "4A_1")] == [
        "7A_1",
        "6A_1",
        "5A_1",
        "(4A_1)'",
    ]
    assert [str(c) for c in fiber(context("F4"), "F_4")] == ["F_4"]
    assert [str(c) for c in fiber(context("E8"), "A_3+A_2+A_1")] == [
        "2A_3+2A_1",
        "A_3+A_2+2A_1",
        "2A_3+A_1",
        "A_3+A_2+A_1",
    ]
    with pytest.raises(UnknownUnipotent):
        fiber(context("F4"), "G_2")


def test_psi_lookup_examples():
    # psi's exceptional section is the first class of the fiber
    assert str(fiber(context("E7"), "D_6")[0]) == "D_6+A_1"
    assert str(fiber(context("E8"), "2A_3")[0]) == "2D_4(a_1)"
    assert str(fiber(context("F4", char="p2"), "(C_3(a_1))_2")[0]) == "B_2+A_1"


@pytest.mark.parametrize("family", list(EXPECTED_CLASS_COUNTS))
def test_partition_property(family):
    for char in CHAR_VARIANTS[family]:
        table = load_table(context(family, char=char))
        labels = [lab for row in table.rows for lab in row.classes]
        assert len(labels) == EXPECTED_CLASS_COUNTS[family]
        assert len(set(labels)) == len(labels)
        names = table.unipotent_names()
        assert len(set(names)) == len(names)


@pytest.mark.parametrize("family", list(EXPECTED_CLASS_COUNTS))
def test_first_of_row_strictly_minimal(family):
    rank = EXCEPTIONAL_RANK[family]
    for char in CHAR_VARIANTS[family]:
        table = load_table(context(family, char=char))
        for row in table.rows:
            m_first = rank - row.classes[0].rank
            assert all(rank - lab.rank > m_first for lab in row.classes[1:]), row


@pytest.mark.parametrize("family,char", [k for k in TABLE_FILES if k[1] != "good"])
def test_variant_differs_exactly_by_replacements(family, char):
    good = load_table(context(family))
    variant = load_table(context(family, char=char))
    reps = REPLACEMENTS[(family, char)]
    expected = []
    for row in good.rows:
        hit = [r for r in reps if r[0] == row.unipotent]
        if hit:
            expected.extend(hit[0][1])
        else:
            expected.append((tuple(str(c) for c in row.classes), row.unipotent))
    got = [(tuple(str(c) for c in row.classes), row.unipotent) for row in variant.rows]
    assert got == expected
    replaced = {r[0] for r in reps}
    assert all(name in {row.unipotent for row in good.rows} for name in replaced)


def test_rows_unchanged_by_reload():
    a = load_table(context("E8", char="p2"))
    b = load_table(context("E8", char="p2"))
    assert a is b  # cached
    assert [row.unipotent for row in a.rows] == [row.unipotent for row in b.rows]


def test_data_files_are_exactly_the_pinned_ones():
    shipped = {f.name for f in resources.files("weylunip.data").iterdir() if f.is_file()}
    derived = {TABLE_FILES[key] for key in REPLACEMENTS}
    assert set(REPLACEMENTS) == {key for key in TABLE_FILES if key[1] != "good"}
    assert set(CHECKSUMS) == set(TABLE_FILES.values()) | set(TAU_FILES.values())
    assert shipped == set(CHECKSUMS) - derived
    assert len(shipped) == 10


# --- indexed lookups against a plain scan of the rows ----------------------

def _scan_class(table, label):
    """The row holding ``label``, found by walking every row; None if absent."""
    for row in table.rows:
        for lab in row.classes:
            if lab == label:
                return row
    return None


def _scan_unipotent(table, name):
    for row in table.rows:
        if row.unipotent == name:
            return row
    return None


def _message(exc_type, fn, *args) -> str:
    with pytest.raises(exc_type) as err:
        fn(*args)
    return err.value.args[0]


def _scan_tau(family, label):
    for lab, rep in load_tau_table(family).items():
        if lab == label:
            return rep
    return None


@pytest.mark.parametrize("family,char", list(TABLE_FILES))
def test_lookups_agree_with_a_row_scan(family, char):
    ctx = context(family, char=char)
    table = load_table(ctx)
    all_rows = [row for f, c in TABLE_FILES for row in load_table(context(f, char=c)).rows]
    for label in sorted({lab for row in all_rows for lab in row.classes}, key=str):
        C = ClassSymbol(label=label)
        row = _scan_class(table, label)
        if row is None:
            message = _message(UnknownClass, phi_lookup, ctx, label)
            assert message == f"label {label} not in the table for {ctx}"
            for fn in (validate_class, phi, m_of_class, tau):
                assert _message(InvalidClass, fn, ctx, C) == f"label {label} unknown in {ctx}"
            assert not is_special_class(ctx, C)
            continue
        validate_class(ctx, C)
        assert phi_lookup(ctx, label) == row.unipotent
        assert phi(ctx, C) == UnipotentSymbol(name=row.unipotent)
        assert m_of_class(ctx, C) == ctx.rank - label.rank
        rep = _scan_tau(family, label)
        assert is_special_class(ctx, C) == (rep is not None)
        if rep is None:
            assert _message(NotSpecial, tau, ctx, C) == f"{C} is not special in {ctx}"
        else:
            assert tau(ctx, C) == rep
    for name in sorted({row.unipotent for row in all_rows}):
        row = _scan_unipotent(table, name)
        if row is None:
            message = _message(UnknownUnipotent, fiber, ctx, name)
            assert message == f"unipotent name {name!r} not in the table for {ctx}"
            continue
        u = UnipotentSymbol(name=name)
        assert fiber(ctx, name) == row.classes
        assert fiber(ctx, name)[0] == row.classes[0]
        assert psi(ctx, u) == ClassSymbol(label=row.classes[0])
        assert fiber_of(ctx, u) == [ClassSymbol(label=lab) for lab in row.classes]


@pytest.mark.parametrize("family,char", list(TABLE_FILES))
def test_each_map_reads_the_table_once(monkeypatch, family, char):
    # validation is the table lookup, and the map reads its answer
    ctx = context(family, char=char)
    reads, real_load = [], exceptional_tables.load_table

    def load_table_counted(ctx_):
        reads.append(ctx_)
        return real_load(ctx_)

    monkeypatch.setattr(exceptional_tables, "load_table", load_table_counted)
    for row in real_load(ctx).rows:
        C, u = ClassSymbol(label=row.classes[-1]), UnipotentSymbol(name=row.unipotent)
        for fn, arg in ((phi, C), (m_of_class, C), (psi, u), (fiber_of, u)):
            reads.clear()
            fn(ctx, arg)
            assert reads == [ctx], (fn.__name__, row.unipotent)


@pytest.mark.parametrize("family", list(TAU_FILES))
def test_every_tau_row_is_found(family):
    ctx = context(family)
    rows = load_tau_table(family)
    assert type(rows) is MappingProxyType
    for label, rep in rows.items():
        assert tau(ctx, ClassSymbol(label=label)) == rep
        assert is_special_class(ctx, ClassSymbol(label=label))


def test_the_tau_table_is_one_read_only_mapping_in_file_order():
    # tau, special_classes and the special suite all read this one cache
    rows = load_tau_table("E7")
    text = resources.files("weylunip.data").joinpath(TAU_FILES["E7"]).read_text(encoding="utf-8")
    assert [(str(lab), rep) for lab, rep in rows.items()] == re.findall(r"^class = (\S+) ; tau = (\S+)$", text, re.M)
    assert load_tau_table("E7") is rows
    with pytest.raises(TypeError):
        rows[parse_carter_label("E_7")] = "1_63"
    assert special_classes(context("E7")) == [ClassSymbol(label=lab) for lab in rows]


def test_equal_tables_hash_equal():
    a = load_table(context("E8", char="p2"))
    b = FiberTable(
        GroupContext("E8", 8, "p2"),
        tuple(FiberRow(tuple(row.classes), row.unipotent) for row in a.rows),
    )
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert b._class_index() == a._class_index()
    assert b._unipotent_index() == a._unipotent_index()


@pytest.mark.parametrize(
    "build, message",
    [
        # a list of labels once built a row that could not be hashed, and a
        # text context a table that read as a table of no group
        (lambda rows: FiberRow(["A_1"], 3), "classes must be a non-empty tuple of CarterLabel, got ['A_1']"),
        (lambda rows: FiberRow((), "A_1"), "classes must be a non-empty tuple of CarterLabel, got ()"),
        (
            lambda rows: FiberRow(("A_1",), "A_1"),
            "classes must be a non-empty tuple of CarterLabel, got ('A_1',)",
        ),
        (lambda rows: FiberRow(rows[0].classes, 3), "unipotent name must be a str, got 3"),
        (lambda rows: FiberTable("E8", rows), "table context must be an exceptional GroupContext, got 'E8'"),
        (
            lambda rows: FiberTable(context("C", 3), rows),
            "table context must be an exceptional GroupContext, got "
            "GroupContext(family='C', rank=3, char='good')",
        ),
        (lambda rows: FiberTable(context("G2"), ()), "rows must be a non-empty tuple of FiberRow, got ()"),
        (lambda rows: FiberTable(context("G2"), []), "rows must be a non-empty tuple of FiberRow, got []"),
        (
            lambda rows: FiberTable(context("G2"), ("A_1",)),
            "rows must be a non-empty tuple of FiberRow, got ('A_1',)",
        ),
    ],
    ids=[
        "row-list-classes",
        "row-no-classes",
        "row-text-classes",
        "row-int-unipotent",
        "table-text-context",
        "table-classical-context",
        "table-no-rows",
        "table-list-rows",
        "table-text-rows",
    ],
)
def test_table_values_refuse_a_wrong_field(build, message):
    with pytest.raises(BadInput) as err:
        build(load_table(context("G2")).rows)
    assert str(err.value) == message


# --- tampered data: every load must refuse it -----------------------------


@pytest.fixture
def fresh_caches():
    # the oracle's memo too: a map value kept from the shipped tables would
    # answer for a table rewritten under data_dir
    caches = (_load, load_tau_table, exceptional_tables._round_trip_label, oracle._values)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def data_dir(tmp_path, monkeypatch, fresh_caches):
    """A writable copy of the shipped data files, read in their place."""
    for f in resources.files("weylunip.data").iterdir():
        if f.is_file():
            (tmp_path / f.name).write_bytes(f.read_bytes())
    monkeypatch.setattr(resources, "files", lambda package: tmp_path)
    return tmp_path


def _flip_byte(path, anchor: str, offset: int = 0) -> None:
    data = bytearray(path.read_bytes())
    data[data.index(anchor.encode()) + offset] ^= 1
    path.write_bytes(bytes(data))


def _rewrite_pinned(path, monkeypatch, old: str, new: str) -> None:
    """Edit a data file and re-pin its checksum, so only the edit is wrong."""
    text = path.read_text(encoding="utf-8")
    assert old in text
    data = text.replace(old, new, 1).encode("utf-8")
    path.write_bytes(data)
    monkeypatch.setitem(CHECKSUMS, path.name, hashlib.sha256(data).hexdigest())


@pytest.mark.parametrize("family", list(EXPECTED_CLASS_COUNTS))
def test_flipped_byte_in_good_file_fails_table_and_variants(data_dir, family):
    reps = [r for (fam, _), rs in REPLACEMENTS.items() if fam == family for r in rs]
    if reps:
        # the "|" of a row the variants replace: their derived text is
        # unchanged, so only the good file's own checksum can catch it
        classes = "|".join(c for row_classes, _ in reps[0][1] for c in row_classes)
        _flip_byte(data_dir / TABLE_FILES[(family, "good")], classes, classes.index("|"))
    else:
        _flip_byte(data_dir / TABLE_FILES[(family, "good")], "unipotent = A_1")
    for fam, char in TABLE_FILES:
        if fam == family:
            with pytest.raises(TableIntegrityError, match="checksum"):
                load_table(context(fam, char=char))
        else:
            load_table(context(fam, char=char))


def test_flipped_byte_in_tau_file_fails(data_dir):
    _flip_byte(data_dir / TAU_FILES["E7"], "class = E_7 ;")
    with pytest.raises(TableIntegrityError, match="checksum"):
        load_tau_table("E7")
    assert len(load_tau_table("E8")) == 46


def test_flipped_byte_in_tau_file_fails_tau(data_dir):
    # tau reads the cached tau table: the fixture must drop that cache, or
    # tau would answer from the table loaded before the flip
    E7 = ClassSymbol(label=parse_carter_label("E_7"))
    _flip_byte(data_dir / TAU_FILES["E7"], "class = E_7 ;")
    with pytest.raises(TableIntegrityError, match="checksum"):
        tau(context("E7"), E7)
    with pytest.raises(TableIntegrityError, match="checksum"):
        is_special_class(context("E7"), E7)


@pytest.mark.parametrize(
    "filename,old,new,message",
    [
        ("fiber_g2_good.tbl", "G_2 ; unipotent", "G_2 unipotent", "unparsable row"),
        ("tau_g2.tbl", "A_0 ; tau", "A_0 , tau", "unparsable row"),
        ("fiber_g2_good.tbl", "A_1+~A_1|~A_1", "~A_1|A_1+~A_1", "first-strictly-minimal"),
        ("tau_g2.tbl", "class = A_2 ;", "class = A_0 ;", "duplicate rows"),
        ("fiber_g2_good.tbl", "classes = A_1 ;", "classes = 01A_1 ;", "label 01A_1 does not round-trip"),
        ("fiber_g2_good.tbl", "unipotent = G_2(a_1)", "unipotent = G_2", "duplicate unipotent names"),
        # a label its constructor refuses, or that does not parse, is a fault
        # of the table, not of the caller
        (
            "fiber_g2_good.tbl",
            "classes = A_1 ;",
            "classes = 0A_1 ;",
            "fiber_g2_good.tbl: multiplier must be an integer >= 1, got 0",
        ),
        ("fiber_g2_good.tbl", "classes = A_1 ;", "classes = Q_1 ;", "bad class label component in 'Q_1'"),
        ("tau_g2.tbl", "class = A_2 ;", "class = 01A_2 ;", "label 01A_2 does not round-trip"),
        ("tau_g2.tbl", "class = A_2 ;", "class = 0A_2 ;", "multiplier must be an integer >= 1, got 0"),
    ],
    ids=[
        "fiber-unparsable", "tau-unparsable", "fiber-not-minimal", "tau-duplicate", "fiber-label-round-trip",
        "fiber-duplicate-name", "fiber-label-zero-multiplier", "fiber-label-unparsable", "tau-label-round-trip",
        "tau-label-zero-multiplier",
    ],
)
def test_pinned_bad_row_fails(data_dir, monkeypatch, filename, old, new, message):
    _rewrite_pinned(data_dir / filename, monkeypatch, old, new)
    with pytest.raises(TableIntegrityError, match=message):
        if filename.startswith("tau"):
            load_tau_table("G2")
        else:
            load_table(context("G2"))


@pytest.mark.parametrize(
    "text, message",
    [("01A_1", "label 01A_1 does not round-trip"), ("Q_1", "bad class label component in 'Q_1' (at position 0)")],
    ids=["round-trip", "unparsable"],
)
def test_a_bad_label_text_fails_each_table_under_its_own_name(data_dir, monkeypatch, text, message):
    # the labels are parsed once per text for all tables, but each failing
    # load still names the table that holds the text
    _rewrite_pinned(data_dir / "fiber_g2_good.tbl", monkeypatch, "classes = A_1 ;", f"classes = {text} ;")
    _rewrite_pinned(data_dir / "tau_g2.tbl", monkeypatch, "class = A_2 ;", f"class = {text} ;")
    assert _message(TableIntegrityError, load_table, context("G2")) == f"fiber_g2_good.tbl: {message}"
    assert _message(TableIntegrityError, load_tau_table, "G2") == f"tau_g2.tbl: {message}"
    assert _message(TableIntegrityError, load_table, context("G2")) == f"fiber_g2_good.tbl: {message}"


def test_each_label_text_is_parsed_once_and_shared_by_the_tables(fresh_caches, monkeypatch):
    # the 655 label cells of the fiber and tau files hold 140 texts: each is
    # parsed once, and every table of a family holds its good table's object
    cells = [m["classes"] for name in TABLE_FILES.values() for m in read_rows(name, exceptional_tables._ROW_RE)]
    cells += [m["cls"] for name in TAU_FILES.values() for m in read_rows(name, _TAU_ROW_RE)]
    texts = {text.strip() for cell in cells for text in cell.split("|")}
    parsed = []
    monkeypatch.setattr(
        exceptional_tables, "parse_carter_label", lambda text: parsed.append(text) or parse_carter_label(text)
    )
    for family, char in TABLE_FILES:
        load_table(context(family, char=char))
    for family in TAU_FILES:
        load_tau_table(family)
    assert sorted(parsed) == sorted(texts)
    assert len(texts) == 140
    for family, char in TABLE_FILES:
        good = {str(lab): lab for row in load_table(context(family)).rows for lab in row.classes}
        labels = [lab for row in load_table(context(family, char=char)).rows for lab in row.classes]
        if char == "good":
            labels += list(load_tau_table(family))
        assert all(lab is good[str(lab)] for lab in labels)


@pytest.mark.parametrize(
    "replacements,message",
    [
        ([("~A_2", [(("A_1+~A_1",), "~A_1"), (("~A_1",), "(~A_1)_3")])], "not in the good table"),
        ([("~A_1", [(("~A_1",), "(~A_1)_3"), (("A_1+~A_1",), "~A_1")])], "checksum"),
        ([("~A_1", [(("A_1+~A_1",), "~A_1"), (("~A_1",), "(~A_1)_2")])], "checksum"),
    ],
    ids=["unknown-row", "rows-reordered", "row-renamed"],
)
def test_tampered_replacements_fail(fresh_caches, monkeypatch, replacements, message):
    monkeypatch.setitem(REPLACEMENTS, ("G2", "p3"), replacements)
    with pytest.raises(TableIntegrityError, match=message):
        load_table(context("G2", char="p3"))
    load_table(context("G2"))


def test_tables_suite_reports_a_table_that_does_not_load(data_dir, capsys):
    _flip_byte(data_dir / TABLE_FILES[("G2", "good")], "unipotent = G_2")
    report = oracle.verify_tables("G2")
    assert not report.passed
    assert {a for a, *_ in report.failures} == {"table-loads"}
    assert main(["verify", "--suite", "tables", "--family", "G2"]) == 1
    assert "[FAIL] suite=tables context=G2" in capsys.readouterr().out


def test_a_table_that_does_not_load_is_a_checked_instance(data_dir, capsys):
    # the good table fails its load, and its variant, which loads only
    # once the good table has, fails too: two checked, two failed
    _flip_byte(data_dir / TABLE_FILES[("G2", "good")], "unipotent = G_2")
    assert main(["verify", "--suite", "tables", "--family", "G2", "--format", "records"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "suite=tables context=G2 assertion=table-loads checked=2 failures=2 status=fail" in lines


@pytest.mark.parametrize(
    "name, anchor", [(TAU_FILES["G2"], "class = A_2 ;"), (TABLE_FILES[("G2", "good")], "unipotent = G_2")]
)
def test_special_suite_reports_a_table_that_does_not_load(data_dir, capsys, name, anchor):
    _flip_byte(data_dir / name, anchor)
    report = oracle.verify_special(context("G2"))
    assert {a for a, *_ in report.failures} == {"table-loads"}
    assert main(["verify", "--suite", "special"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] suite=special context=G2/good" in out
    assert "[FAIL] suite=special context=G2/p3" in out
    assert "[pass] suite=special context=F4/good" in out


@pytest.mark.parametrize(
    "verify, ctx",
    [
        (oracle.verify_theorem_0_2, context("G2")),
        (oracle.verify_phi_psi_identity, context("G2")),
        (oracle.verify_rho_pi, context("G2", char="p3")),
    ],
    ids=["theorem02", "phipsi", "rhopi"],
)
def test_every_suite_reports_a_table_that_does_not_load(data_dir, verify, ctx):
    _flip_byte(data_dir / TABLE_FILES[("G2", "good")], "unipotent = G_2")
    report = verify(ctx)
    assert {a for a, *_ in report.failures} == {"table-loads"}
    assert report.checked == len(report.failures)


def test_verify_all_reports_a_table_that_does_not_load(data_dir, capsys):
    # rank bound 4 keeps every exceptional context
    _flip_byte(data_dir / TABLE_FILES[("G2", "good")], "unipotent = G_2")
    assert main(["verify", "--suite", "all", "--bound", "4"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] suite=theorem02 context=G2/good" in out
    assert "[pass] suite=theorem02 context=F4/good" in out


def _no_data_package(package):
    raise ModuleNotFoundError(f"No module named {package!r}")


def test_a_package_without_its_data_files_reports_it(fresh_caches, monkeypatch, capsys):
    # an install that ships no data directory: every table load is a counted
    # failure of verify, and a point query ends in one error line
    monkeypatch.setattr(resources, "files", _no_data_package)
    message = "fiber_g2_good.tbl: cannot read the shipped file: No module named 'weylunip.data'"
    assert _message(TableIntegrityError, load_table, context("G2")) == message
    assert main(["verify", "--suite", "tables", "--format", "records"]) == 1
    lines = capsys.readouterr().out.splitlines()
    for family in EXPECTED_CLASS_COUNTS:
        loads = len(CHAR_VARIANTS[family])
        want = f"suite=tables context={family} assertion=table-loads checked={loads} failures={loads} status=fail"
        assert want in lines
    for argv, table in (
        (["tau", "--family", "E8", "E_8"], "fiber_e8_good.tbl"),
        (["phi", "--family", "G2", "G_2"], "fiber_g2_good.tbl"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {table}: cannot read the shipped file: No module named 'weylunip.data'\n"


def test_a_missing_data_file_is_a_failed_load(data_dir, capsys):
    (data_dir / TAU_FILES["E8"]).unlink()
    with pytest.raises(TableIntegrityError, match=r"^tau_e8\.tbl: cannot read the shipped file: .*tau_e8\.tbl"):
        load_tau_table("E8")
    assert main(["tau", "--family", "E8", "E_8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tau_e8.tbl: cannot read the shipped file: ") and err.count("\n") == 1
    assert main(["tau", "--family", "E7", "E_7"]) == 0
    assert capsys.readouterr().out == "1_0\n"
    (data_dir / TABLE_FILES[("G2", "good")]).unlink()
    assert main(["verify", "--suite", "tables", "--format", "records"]) == 1
    out = capsys.readouterr().out
    assert "suite=tables context=G2 assertion=table-loads checked=2 failures=2 status=fail\n" in out
    assert "[pass] suite=tables context=F4 " in out
