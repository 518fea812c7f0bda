import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import weylunip
from conftest import parse_atlas
from weylunip.atlas import atlas_lines
from weylunip.cli import main
from weylunip.weyl_classes import context


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_phi_example(capsys):
    code, out, _ = run(capsys, "phi", "--family", "D", "--rank", "4", "--char", "good", "r=4,4;p=")
    assert code == 0 and out == "5,3\n"


def test_psi_example(capsys):
    code, out, _ = run(capsys, "psi", "--family", "F4", "--char", "good", "C_3(a_1)")
    assert code == 0 and out == "A_3+~A_1\n"


def test_verify_example(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "theorem02", "--family", "C", "--rank", "6", "--char", "p2"
    )
    assert code == 0
    assert out.startswith("[pass] suite=theorem02 context=C_6/p2")


def test_psi_split_marker(capsys):
    code, out, _ = run(capsys, "psi", "--family", "D", "--rank", "4", "4,4")
    assert code == 0 and out == "r=;p=4,4 [split]\n"


def test_m_and_tau(capsys):
    code, out, _ = run(capsys, "m", "--family", "C", "--rank", "3", "r=4;p=1,1")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "tau", "--family", "G2", "A_2")
    assert code == 0 and out == "θ'\n"


def test_rho_pi_round(capsys):
    code, out, _ = run(capsys, "rho", "--family", "C", "--rank", "2", "--char", "p2", "c=2,2;eps=2:0")
    assert code == 0 and out == "2,2\n"
    code, out, _ = run(capsys, "pi", "--family", "C", "--rank", "2", "--char", "p2", "2,2")
    assert code == 0 and out == "c=2,2;eps=2:1\n"


def test_fiber_lists_in_order(capsys):
    code, out, _ = run(capsys, "fiber", "--family", "E7", "4A_1")
    assert code == 0
    assert out.splitlines() == ["7A_1", "6A_1", "5A_1", "(4A_1)'"]


def test_special_listing(capsys):
    code, out, _ = run(capsys, "special", "--family", "C", "--rank", "2")
    assert code == 0
    assert out.splitlines() == ["r=4;p=", "r=2,2;p=", "r=;p=1,1,1,1"]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "phi", "--family", "D", "--rank", "4", "not-a-class")[0] == 2
    assert run(capsys, "phi", "--rank", "4", "r=4,4;p=")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "phi", "--family", "D", "--rank", "2", "r=4,4;p=")[0] == 2
    assert run(capsys, "psi", "--family", "C", "--rank", "2", "3,1")[0] == 2


def test_records_format(capsys):
    code, out, _ = run(
        capsys, "phi", "--family", "C", "--rank", "2", "--format", "records", "r=2;p=1,1"
    )
    assert code == 0 and out == "command=phi input=r=2;p=1,1 output=2,1,1\n"


def test_atlas_deterministic_and_round_trips(capsys):
    for args in (("D", "4", "good"), ("C", "3", "p2"), ("G2", None, "p3")):
        argv = ["atlas", "--family", args[0], "--char", args[2]]
        if args[1]:
            argv += ["--rank", args[1]]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical
        records = parse_atlas(out1)
        assert records[0]["record"] == "context"
        # re-dumping the parsed structure reproduces the text exactly
        redump = []
        for rec in records:
            redump.append(" ".join(f"{k}={v}" for k, v in rec.items()))
        assert "\n".join(redump) + "\n" == out1


def test_atlas_fiber_records_reproduce_the_table(capsys):
    # re-parsing a dump of an exceptional context reproduces the rows of the
    # in-memory table exactly, in order
    from weylunip.exceptional_tables import load_table

    code, out, _ = run(capsys, "atlas", "--family", "G2", "--char", "p3")
    assert code == 0
    fibers = [rec for rec in parse_atlas(out) if rec["record"] == "fiber"]
    table = load_table(context("G2", char="p3"))
    assert [(rec["unipotent"], rec["classes"]) for rec in fibers] == [
        (row.unipotent, "|".join(str(c) for c in row.classes)) for row in table.rows
    ]


def test_atlas_contains_all_record_kinds():
    lines = atlas_lines(context("C", 2, "p2"), bound=12)
    kinds = {line.split(" ", 1)[0] for line in lines}
    assert kinds == {
        "record=context",
        "record=map",
        "record=fiber",
        "record=rho",
        "record=pi",
        "record=special",
    }


def test_atlas_enumerates_each_unipotent_list_once(monkeypatch):
    # the fiber and rho records read one list, the pi records the good one
    from weylunip import atlas

    ctx = context("C", 4, "p2")
    lines = atlas_lines(ctx)
    real, asked = atlas.enumerate_unipotents, []

    def enumerate_unipotents(ctx_, bound):
        asked.append(ctx_)
        return real(ctx_, bound)

    monkeypatch.setattr(atlas, "enumerate_unipotents", enumerate_unipotents)
    assert atlas_lines(ctx) == lines
    assert asked == [ctx, ctx.good()]


@pytest.mark.parametrize(
    "args", [("C", 4, "p2"), ("D", 5, "good"), ("E8", 8, "p2")], ids=["C_4/p2", "D_5", "E8/p2"]
)
def test_atlas_formats_each_class_once(monkeypatch, args):
    # a class's text is built for its map record; after that only psi's
    # section of each fiber and the special classes are formatted
    from weylunip.classical_maps import enumerate_unipotents
    from weylunip.special_classes import special_classes
    from weylunip.weyl_classes import ClassSymbol, enumerate_classes

    ctx = context(*args)
    lines = atlas_lines(ctx)
    real, calls = ClassSymbol.__str__, []

    def __str__(C):
        calls.append(C)
        return real(C)

    monkeypatch.setattr(ClassSymbol, "__str__", __str__)
    assert atlas_lines(ctx) == lines
    sizes = [len(enumerate_classes(ctx)), len(enumerate_unipotents(ctx)), len(special_classes(ctx))]
    assert len(calls) == sum(sizes)


def test_verify_failure_exit_code(capsys):
    # a passing suite exits 0; the records format emits one line per assertion
    code, out, _ = run(
        capsys, "verify", "--suite", "xi", "--bound", "8", "--format", "records"
    )
    assert code == 0
    assert any(line.startswith("suite=xi") for line in out.splitlines())


def test_verify_prints_each_report_before_a_later_error(capsys, monkeypatch):
    from weylunip import oracle
    from weylunip.errors import WeylUnipError

    def boom(family):
        raise WeylUnipError("boom")

    monkeypatch.setattr(oracle, "verify_tables", boom)
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert code == 2 and err == "error: boom\n"
    assert "[pass] suite=xi context=N<=24 " in out
    assert "[pass] suite=fiber-min context=n<=25 " in out


def test_verify_reports_a_map_that_refuses_an_input_and_goes_on(capsys, monkeypatch):
    # psi refusing one Jordan type fails the reports that pass it to psi,
    # and every report of a clean run still prints, with nothing on stderr
    from weylunip import oracle
    from weylunip.errors import BadInput

    argv = ("verify", "--suite", "all", "--bound", "3")

    def reports(out):
        return [line.split(" checked=")[0] for line in out.splitlines()]

    code, clean, _ = run(capsys, *argv)
    assert code == 0 and len(clean.splitlines()) == 77
    real_psi = oracle.psi

    def psi(ctx, u):
        if (str(ctx), str(u)) == ("C_3/good", "4,2"):
            raise BadInput("boom")
        return real_psi(ctx, u)

    monkeypatch.setattr(oracle, "psi", psi)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert [r.split(" ", 1)[1] for r in reports(out)] == [r.split(" ", 1)[1] for r in reports(clean)]
    assert [r for r in reports(out) if r.startswith("[FAIL]")] == [
        "[FAIL] suite=theorem02 context=C_3/good",
        "[FAIL] suite=phipsi context=C_3/good",
        "[FAIL] suite=special context=C_3/good",
        "[FAIL] suite=rhopi context=C_3/p2",
        "[FAIL] suite=special context=C_3/p2",
    ]


def test_verify_reports_a_lookup_that_refuses_an_input_and_goes_on(capsys, monkeypatch):
    # a table lookup's refusal is a BadInput like any map's: the suites that
    # ask for m(G_2) at G2/good fail, and every report still prints
    from weylunip import oracle
    from weylunip.errors import UnknownClass

    real_m = oracle.m_of_class

    def m_of_class(ctx, C):
        if (str(ctx), str(C)) == ("G2/good", "G_2"):
            raise UnknownClass("no class G_2 in G2/good")
        return real_m(ctx, C)

    monkeypatch.setattr(oracle, "m_of_class", m_of_class)
    code, out, err = run(capsys, "verify", "--suite", "all", "--bound", "3")
    assert (code, err, len(out.splitlines())) == (1, "", 77)
    assert [line.split(" checked=")[0] for line in out.splitlines() if line.startswith("[FAIL]")] == [
        "[FAIL] suite=theorem02 context=G2/good",
        "[FAIL] suite=phipsi context=G2/good",
    ]


def test_fiber_needs_no_enumeration_bound(capsys):
    code, out, _ = run(capsys, "fiber", "--family", "C", "--rank", "40", ",".join(["2"] * 40))
    assert code == 0
    assert len(out.splitlines()) == 21


def test_fiber_refuses_a_jordan_type_with_too_many_splittings(capsys):
    # 30,30,29,29,...,1,1 has 2^30 splittings; the count is refused before
    # any is built
    jordan_type = ",".join(str(v) for v in range(30, 0, -1) for _ in range(2))
    code, out, err = run(capsys, "fiber", "--family", "C", "--rank", "465", jordan_type)
    assert (code, out) == (2, "")
    assert err == "error: 1073741824 splittings exceed the fiber limit 65536\n"


def test_atlas_honours_the_default_bound(capsys):
    code, out, err = run(capsys, "atlas", "--family", "C", "--rank", "40")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_bound_is_never_raised_to_the_rank(capsys):
    code, out, err = run(capsys, "atlas", "--family", "C", "--rank", "14", "--bound", "12")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds enumeration bound 12" in err


def test_special_honours_the_default_bound(capsys):
    code, out, err = run(capsys, "special", "--family", "C", "--rank", "30")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_special_bound_can_be_raised(capsys):
    code, out, err = run(capsys, "special", "--family", "C", "--rank", "21", "--bound", "21")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 4274


def test_special_records_are_byte_identical(capsys):
    # SHA-256 of the record lines of `verify --suite special --format records`
    # at the default bound, one newline after each line; summary lines carry
    # timings and are left out
    code, out, _ = run(capsys, "verify", "--suite", "special", "--format", "records")
    lines = [line for line in out.splitlines() if line.startswith("suite=")]
    assert code == 0 and len(lines) == 444
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    assert digest == "04290fc85280a8d7508b6e720ad948cfd5d5e5581ffe4e6c6c3032e87e82196f"


#: The modules every command loads; a point query or a fiber reads no other.
CLI_MODULES = {"_value", "errors", "partitions", "weyl_classes", "exceptional_tables", "classical_maps", "cli"}

#: Each command, classical and exceptional, with the modules it adds to those.
COMMAND_MODULES = [
    (["phi", "--family", "D", "--rank", "4", "r=4,4;p="], set()),
    (["phi", "--family", "E8", "E_8"], set()),
    (["m", "--family", "D", "--rank", "4", "r=4,4;p="], set()),
    (["m", "--family", "E8", "E_8"], set()),
    (["psi", "--family", "D", "--rank", "4", "5,3"], set()),
    (["psi", "--family", "F4", "C_3(a_1)"], set()),
    (["rho", "--family", "C", "--rank", "3", "--char", "p2", "c=4,2;eps="], set()),
    (["rho", "--family", "E8", "--char", "p2", "A_3+A_2"], set()),
    (["pi", "--family", "C", "--rank", "3", "--char", "p2", "4,2"], set()),
    (["pi", "--family", "E8", "--char", "p2", "A_3+A_2"], set()),
    (["fiber", "--family", "D", "--rank", "4", "5,3"], set()),
    (["fiber", "--family", "E8", "E_8"], set()),
    (["tau", "--family", "D", "--rank", "4", "r=4,4;p="], {"special_classes"}),
    (["tau", "--family", "E8", "E_8"], {"special_classes"}),
    (["special", "--family", "D", "--rank", "4"], {"special_classes"}),
    (["special", "--family", "G2"], {"special_classes"}),
    (["atlas", "--family", "D", "--rank", "4"], {"special_classes", "atlas"}),
    (["verify", "--suite", "tables", "--family", "G2"], {"special_classes", "oracle"}),
]


def _loaded_submodules(code: str) -> set[str]:
    """The ``weylunip`` submodules a fresh interpreter has loaded after
    ``code``, bar the namespace package a shipped-table read opens."""
    code += "\nprint(*sorted(m for m in sys.modules if m.startswith('weylunip.')), file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=str(Path(weylunip.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("weylunip.") for m in proc.stderr.split()} - {"data"}


def test_only_verify_imports_the_oracle():
    # every command starts a fresh interpreter, which imports each module it
    # loads, so a command loads only the modules it reads
    assert _loaded_submodules("import sys, weylunip") == set()
    for argv, extra in COMMAND_MODULES:
        code = f"import sys\nfrom weylunip.cli import main\nassert main({argv!r}) == 0"
        assert _loaded_submodules(code) == CLI_MODULES | extra, argv


def test_only_a_table_read_imports_hashlib():
    # the table checksums are the library's one use of hashlib
    code = (
        "import sys\n"
        "from weylunip.cli import main\n"
        "assert main(['atlas', '--family', 'D', '--rank', '4']) == 0\n"
        "assert 'hashlib' not in sys.modules\n"
        "assert main(['phi', '--family', 'E8', 'E_8']) == 0\n"
        "assert 'hashlib' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(weylunip.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "E_8"


def test_the_cli_and_the_oracle_load_neither_dataclasses_nor_inspect():
    # every command starts a fresh interpreter: the value types are plain
    # slotted classes, so no import pays for these two modules
    code = (
        "import sys\n"
        "import weylunip.cli\n"
        "import weylunip.oracle\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(weylunip.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _cli(*argv, stdout) -> subprocess.Popen:
    """``weylunip`` from this checkout in its own process, stderr piped."""
    env = dict(os.environ, PYTHONPATH=str(Path(weylunip.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-m", "weylunip.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def test_a_reader_that_closes_stdout_after_one_line_ends_the_dump_quietly():
    # the B_16 dump is far more than a pipe holds, so a later write meets the
    # closed pipe; this is `atlas ... | head -1`
    with _cli("atlas", "--family", "B", "--rank", "16", stdout=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"record=context family=B rank=16 char=good\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
    assert proc.returncode == 141


def test_a_reader_gone_before_the_first_write_ends_verify_quietly():
    # the output is small enough to sit in stdout's buffer until the flush at
    # the end; this is `verify --suite xi | head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with _cli("verify", "--suite", "xi", "--bound", "2", stdout=write_end) as proc:
            assert proc.stderr.read() == b""
    finally:
        os.close(write_end)
    assert proc.returncode == 141


# --- the command line's contract ------------------------------------------------

#: SHA-256 of stdout, with the timings of verify summary lines masked, and the
#: exit status of fixed invocations: the README examples, dumps, class
#: listings and the ``--format records`` forms.  Any change to what the
#: command line prints shows here.
DIGESTS = [
    ("phi --family D --rank 4 --char good r=4,4;p=", 0, "8aeee7f8482bfd072be69e23b8655dbc3f6499cf58eedb0d1f051bb7453391c8"),
    ("psi --family F4 --char good C_3(a_1)", 0, "edc6713043189589333545ecc0385b9acaf3c142f4c5070a6e0d33288533054a"),
    ("psi --family D --rank 4 4,4", 0, "b4c30988d5e705a4f3ce53f97e9c757c3bdddc86cb5bc24bf0113c7cb39062d1"),
    ("m --family C --rank 3 r=4;p=1,1", 0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("rho --family C --rank 2 --char p2 c=2,2;eps=2:1", 0, "ce79c67f0ea4301ab72a59650165e42c93c03749cac697d6b416e6bf6a9c923b"),
    ("pi --family C --rank 2 --char p2 2,2", 0, "97fe0b145ea86d0f337a550b3a5cdab4d41bcba7f931a858e6c3652b5b1a08d3"),
    ("fiber --family E7 4A_1", 0, "c605cf07c91f18c57aa5cc047ab469ded5feb725901a96b2daaf4a86bc01fce4"),
    ("tau --family G2 A_2", 0, "1143dca40b64c247cdf26a81719aec7a9ff05fc1827bfe6f96cd7ffe516dce2f"),
    ("special --family C --rank 2", 0, "2a47e67d2a0a5ea5cbed0cf585415c8d6fadebadeba07f5ec912ccfcf6eead07"),
    ("atlas --family C --rank 3 --char p2", 0, "a592c98bfec68ba23473259150e52575e2606efd60ef5641df084bd51b733a08"),
    ("verify --suite theorem02 --family C --rank 6 --char p2", 0, "547a1319de4f5774c065cc0df315961804fdb0a27eab4a99cc3e633b1cdb27eb"),
    ("verify --suite all", 0, "4cc8838de3e70e20fd466314cfc1f01c4e836b4134cac29406e7dd0861f109e3"),
    ("atlas --family D --rank 7", 0, "7d1cf2dde7855da1187602a96356e14a20e9a480c89553aeaa2e018c48102ffb"),
    ("atlas --family C --rank 6 --char p2", 0, "39010cc45e8bd93024522c5129fa6de870eb54b9272f03df59a5663baeb97724"),
    ("atlas --family E8 --char p2", 0, "720b8ab9c4642534fe38f14947274a5b6521b11172740e8f4b1e2f92f445296b"),
    ("atlas --family G2 --char p3", 0, "fa030ca877ad46c6ec3df8f739d219d3e900c31c7574f730ce100fd7446b8cea"),
    ("atlas --family B --rank 5", 0, "420427998546596932ed46b50b91ee295be067a5d61d8ca1e666b864edfefbb8"),
    ("atlas --family B --rank 4 --char p2", 0, "bc8fec78a61d765ea87ae131fbc0a607b7fca790b39019c8d0e2476e2dcd487c"),
    ("atlas --family A --rank 5", 0, "5db914a8d94dd0cd1372b8b88c1e0a2e0e646e21eaaf2c1c37a8c2a769ea9979"),
    ("fiber --family D --rank 6 3,2,2,2,2,1", 0, "c730841329f3351d544106daed9ea260f1c00a2b4e05d64f318d412d41fe26e6"),
    ("fiber --family D --rank 6 4,4,2,2", 0, "3801fbd158791e693f227efd02ede819b4e43eaba5d84c4bc9c6f3707d539494"),
    ("special --family D --rank 6", 0, "2690f62c9ee63dddf58910dc09c25616ab7eaa8cf1858c6625a6fe39fc2a1ccb"),
    # the benchmark-size dumps of perfbench/golden.json
    ("atlas --family B --rank 16", 0, "89dd2b424acb6cadbb932fc98fbe8d10c03670d270a644399d441cb1df766d1a"),
    ("atlas --family C --rank 12 --char p2", 0, "2c687fb13553c7a553dc14119d292bb6e6b58f81180dbd937cde8bb7d101e615"),
    ("fiber --family D --rank 18 35,1", 0, "aa1dbb03824cba9a89784741b1b82eb7f9faf9b35b7b01287119c39a9cc296f3"),
    ("phi --family D --rank 4 --format records r=;p=4,4", 0, "9b7c2bc41e532480db2103ec48fa230f1d4abb7dc4e54dbef7ed7f7883707e54"),
    ("psi --family D --rank 4 --format records 4,4", 0, "27de971f13b9c0fccb0cae052c3b0bf4779578183dfff96fa8516c52a35ed3b2"),
    ("m --family E8 --char p2 --format records E_8", 0, "9927da96f6f91b2b98064b6771e658b4e5c08382a05192700cb5751663943836"),
    ("rho --family C --rank 2 --char p2 --format records c=2,2;eps=2:0", 0, "1b01bfbfac466e3f97f5a62a26ff486b1ad6621cf3c41102e3919e86fd99922a"),
    ("pi --family E8 --char p2 --format records E_8", 0, "e6fcd6a6eb653b1f487d3432e26d3093f2774f43804cdb27e4d2c597ffadb8c1"),
    ("tau --family D --rank 4 --format records r=;p=4,4", 0, "32ce8b91fc5d3a5bc83b0e114c60cd52fdc113213cdf828ed65ff0d24525fab1"),
    ("verify --suite theorem02 --family C --rank 6 --char p2 --format records", 0, "996b9f671e8bc53326f2c3f67e70b100e0d33ccb42cfdabda07a8f7743d2c811"),
    ("verify --suite xi --format records", 0, "5eac937574c96c1697b05d9bc199b24b76d7ffbe2acbf79c0488997b8fb1ea4e"),
    ("verify --suite special --family A --rank 3 --format records", 0, "83a47411658111b91af911b6c761e184a136d94a3892b18b0324a95c0b23063f"),
    ("verify --suite tables --format records", 0, "afa3b99875ce8a1d7370b31f51e93255c72a59be6ba7d5813ef412b8b02e7911"),
    ("atlas --family C --rank 40", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("psi --family C --rank 2 3,1", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("command, status, digest", DIGESTS, ids=[c for c, _, _ in DIGESTS])
def test_stdout_digest(capsys, command, status, digest):
    code, out, _ = run(capsys, *command.split(" "))
    out = re.sub(r"elapsed=[0-9.]+s", "elapsed=*", out)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (status, digest)


USAGE_ERRORS = [
    "",
    "nonsense",
    "phi --rank 4 r=4,4;p=",
    "phi --family X r=",
    "phi --family D --rank x r=4,4;p=",
    "phi --family D --rank 4",
    "phi --family D r=4,4;p=",
    "phi --family D --rank 4 --bound 3 r=4,4;p=",
    "phi --family D --rank 4 not-a-class",
    "psi --family C --rank 2 --char p2 c=2,2;eps=2:1;2:0",
    "fiber --family C --rank 2 --bound 3 2,2",
    "fiber --family C --rank 2 --format records 2,2",
    "tau --family C --rank 2 r=;p=2,1,1",
    "special --family C --rank 2 --format records",
    "special --family C --rank 30",
    "atlas --family C --rank 3 --format records",
    "atlas --family C --rank 14 --bound 12",
    "atlas --family G2 --char p2",
    "verify --family C --rank 2",
    "verify --suite nonsense",
    "verify --suite xi --bound x",
    "verify --suite xi --bound -1",
    "verify --suite fiber-min --bound -1",
    "atlas --family C --rank 3 --bound -1",
    "phi --family E8 --rank 3 E_8",
    "verify --suite theorem02 --family G2 --rank 5",
    "verify --suite tables --family G2 --rank 5",
    "verify --suite xi --family E8 --rank 1 --bound 4",
    "verify --suite xi --rank 5 --char p2 --bound 2",
    "verify --suite xi --rank 5",
    "verify --suite xi --char good",
    "verify --suite xi --family C --rank 40 --bound 2",
    "verify --suite fiber-min --family E8 --bound 2",
    "verify --suite tables --family B --rank 3",
    "verify --suite rhopi --family C --rank 3",
    "verify --suite rhopi --family E6",
    "verify --suite rhopi --family A --rank 3",
    "psi --family C --rank 5 1_0",
    "psi --family C --rank 2 4,0",
    "psi --family C --rank 2 3,1",
    "m --family B --rank 3 r=3;p=",
    "phi --family G2 A_٢",
    "verify --suite special --family C --rank 13",
    "verify --suite special --family D --rank 40",
    "phi --family C --rank 0_3 r=2;p=1,1,1,1",
    "phi --family C --rank +3 r=2;p=1,1,1,1",
    "phi --family C --rank ٣ r=2;p=1,1,1,1",
    "special --family C --rank 2 --bound ٣",
    "special --family C --rank 2 --bound 0_3",
]


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_error_is_one_line(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n")


def test_options_are_only_those_the_handler_reads(capsys):
    for command in ("phi", "psi", "m", "rho", "pi", "tau", "fiber", "special", "atlas"):
        _, _, err = run(capsys, command, "--rank", "2", "x")
        assert "required: --family" in err, command
    for command in ("phi", "psi", "m", "rho", "pi", "tau", "fiber"):
        _, _, err = run(capsys, command, "--family", "C", "--rank", "2", "--bound", "3", "2,2")
        assert "unrecognized arguments: --bound" in err, command
    for command in ("fiber", "special", "atlas"):
        _, _, err = run(capsys, command, "--family", "C", "--rank", "2", "--format", "records")
        assert "unrecognized arguments: --format" in err, command


def test_a_misplaced_option_names_only_itself(capsys):
    # --bound is no fiber option, so 3 is taken as the payload and 4,4 is left over
    code, out, err = run(capsys, "fiber", "--family", "D", "--rank", "4", "--bound", "3", "4,4")
    assert code == 2 and out == ""
    assert err == "error: unrecognized arguments: --bound\n"


def test_rhopi_is_refused_only_where_it_checks_nothing(capsys):
    code, out, err = run(capsys, "verify", "--suite", "rhopi", "--family", "E6")
    assert (code, out) == (2, "")
    assert err == "error: --suite rhopi needs a bad-characteristic context, not E6/good\n"
    code, out, _ = run(capsys, "verify", "--suite", "rhopi", "--family", "C", "--rank", "3", "--char", "p2")
    assert code == 0 and out.startswith("[pass] suite=rhopi context=C_3/p2 ")
    # all runs the suites that check something there, and skips rhopi as before
    code, out, _ = run(capsys, "verify", "--suite", "all", "--family", "C", "--rank", "3", "--bound", "3")
    suites = [line.split()[1] for line in out.splitlines()]
    assert code == 0
    assert suites == ["suite=xi", "suite=fiber-min", *["suite=tables"] * 5, "suite=theorem02", "suite=phipsi", "suite=special"]


def test_verify_special_honours_the_rank_bound(capsys):
    code, out, err = run(capsys, "verify", "--suite", "special", "--family", "C", "--rank", "13")
    assert (code, out, err) == (2, "", "error: rank 13 exceeds enumeration bound 12\n")
    code, out, _ = run(capsys, "verify", "--suite", "special", "--family", "C", "--rank", "13", "--bound", "13")
    assert code == 0 and out.startswith("[pass] suite=special context=C_13/good ")


def test_rank_and_bound_take_only_ascii_digit_runs(capsys):
    code, out, err = run(capsys, "phi", "--family", "C", "--rank", "0_3", "r=2;p=1,1,1,1")
    assert (code, out) == (2, "")
    assert err == "error: argument --rank: must be a non-negative integer, got '0_3'\n"
    code, out, _ = run(capsys, "phi", "--family", "C", "--rank", "03", "r=2;p=1,1,1,1")
    assert (code, out) == (0, "2,1,1,1,1\n")


def test_verify_with_a_family_takes_the_good_characteristic_by_default(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "special", "--family", "C", "--rank", "3")
    assert code == 0 and out.startswith("[pass] suite=special context=C_3/good ")


def test_help_exits_0(capsys):
    for argv in (["-h"], ["atlas", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: weylunip")


def test_verify_bound_0_is_honoured_by_every_suite(capsys):
    for suite, context_ in (("xi", "N<=0"), ("fiber-min", "n<=1")):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--bound", "0", "--format", "records")
        assert code == 0
        assert set(re.findall(r" context=(\S+)", out)) == {context_}


@pytest.mark.parametrize("suite, bound, context_", [("xi", "14", "N<=28"), ("fiber-min", "4", "n<=9")])
def test_verify_bound_is_a_rank_bound(capsys, suite, bound, context_):
    # xi and fiber-min run at the sizes the B/D contexts of rank R reach
    code, out, _ = run(capsys, "verify", "--suite", suite, "--bound", bound)
    assert code == 0 and f" context={context_} " in out


def test_incomplete_marking_is_refused(capsys):
    code, out, err = run(capsys, "psi", "--family", "C", "--rank", "2", "--char", "p2", "c=2,2;eps=")
    assert code == 2 and out == ""
    assert err == "error: marking leaves 2 unmarked: 'c=2,2;eps='\n"


def test_repeated_marking_value_is_refused(capsys):
    code, out, err = run(capsys, "psi", "--family", "C", "--rank", "2", "--char", "p2", "c=2,2;eps=2:1;2:0")
    assert code == 2 and out == ""
    assert err == "error: marking repeats a value: '2:1;2:0'\n"


def test_a_mark_outside_the_marking_domain_is_refused(capsys):
    code, out, err = run(capsys, "psi", "--family", "C", "--rank", "2", "--char", "p2", "c=2,2;eps=2:1;4:0")
    assert code == 2 and out == ""
    assert err == "error: marking domain (4, 2) does not match required domain (2,) of (2, 2)\n"


def test_a_label_component_of_multiplier_zero_is_refused(capsys):
    # 0A_1 once parsed, printed as A_1 and was then reported unknown
    assert run(capsys, "phi", "--family", "E7", "0A_1") == (
        2,
        "",
        "error: multiplier must be an integer >= 1, got 0\n",
    )


def test_a_rank_that_agrees_with_the_family_is_accepted(capsys):
    code, out, err = run(capsys, "phi", "--family", "E8", "--rank", "8", "E_8")
    assert (code, out, err) == (0, "E_8\n", "")


@pytest.mark.parametrize(
    "command, err",
    [
        ("psi --family E8 NOPE", "error: unknown unipotent name 'NOPE' for E8/good\n"),
        ("rho --family E8 --char p2 NOPE", "error: unknown unipotent name 'NOPE' for E8/p2\n"),
        ("pi --family E8 --char p2 NOPE", "error: unknown unipotent name 'NOPE' for E8/good\n"),
        ("fiber --family E8 NOPE", "error: unknown unipotent name 'NOPE' for E8/good\n"),
    ],
)
def test_unknown_unipotent_name_error_line(capsys, command, err):
    assert run(capsys, *command.split()) == (2, "", err)


def test_choices_come_from_the_catalogue(capsys):
    _, _, err = run(capsys, "phi", "--family", "E9", "x")
    assert err == "error: argument --family: invalid choice: 'E9' " \
        "(choose from 'A', 'B', 'C', 'D', 'G2', 'F4', 'E6', 'E7', 'E8')\n"
    _, _, err = run(capsys, "phi", "--family", "D", "--rank", "4", "--char", "p5", "x")
    assert err == "error: argument --char: invalid choice: 'p5' (choose from 'good', 'p2', 'p3')\n"
