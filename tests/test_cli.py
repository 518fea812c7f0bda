import hashlib
import os
import subprocess
import sys
from pathlib import Path

import weylunip
from conftest import parse_atlas
from weylunip.cli import atlas_lines, main
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


def test_verify_failure_exit_code(capsys):
    # a passing suite exits 0; the records format emits one line per assertion
    code, out, _ = run(
        capsys, "verify", "--suite", "xi", "--bound", "8", "--format", "records"
    )
    assert code == 0
    assert any(line.startswith("suite=xi") for line in out.splitlines())


def test_fiber_needs_no_enumeration_bound(capsys):
    code, out, _ = run(capsys, "fiber", "--family", "C", "--rank", "40", ",".join(["2"] * 40))
    assert code == 0
    assert len(out.splitlines()) == 21


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


def test_only_verify_imports_the_oracle():
    code = (
        "import sys\n"
        "from weylunip.cli import main\n"
        "assert main(['phi', '--family', 'E8', 'E_8']) == 0\n"
        "assert 'weylunip.oracle' not in sys.modules\n"
        "assert main(['verify', '--suite', 'tables', '--family', 'G2']) == 0\n"
        "assert 'weylunip.oracle' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(weylunip.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "E_8"
