"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from intres import QQ, serialize_module
from intres.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from intres.repmod import SourceSolves

from conftest import FIXTURES, grid_hard_module

CL3_FILE = str(FIXTURES / "cl3_m45.mod")
CL5_FILE = str(FIXTURES / "cl5_m.mod")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- intervals ------------------------------------------------------------------


def test_intervals_ladder(capsys):
    code, out, _ = run(capsys, "intervals", "--ladder", "2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert "top=[1,2] bot=[1,2]  (1 1 / 1 1)" in lines


def test_intervals_from_file(capsys):
    code, out, _ = run(capsys, "intervals", "--file", CL3_FILE)
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 27


def test_intervals_json(capsys):
    code, out, _ = run(capsys, "intervals", "--ladder", "2", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 11
    assert {"name": "top=[1,1]", "dims": "(1 0 / 0 0)"} in payload["intervals"]


# ---- betti ----------------------------------------------------------------------


def test_betti_resolve_route(capsys):
    code, out, _ = run(capsys, "betti", "--file", CL3_FILE)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "route resolve"
    assert "beta^0  top=[1,3] bot=[3,3]  x1" in out
    assert "beta^1  top=[2,3] bot=[3,3]  x1" in out


def test_betti_both_routes_agree(capsys):
    code, out, _ = run(capsys, "betti", "--file", CL3_FILE, "--route", "both")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "route both"


def test_betti_both_routes_share_one_family(capsys, family_builds):
    """Both routes read the family that the parsed module's quiver holds:
    one enumeration, one hom table and one table of irreducible maps per
    process."""
    code, _, _ = run(capsys, "betti", "--file", CL3_FILE, "--route", "both")
    assert code == EXIT_OK
    assert [kind for kind, _ in family_builds] == ["enumerate", "hom", "table"]


def test_betti_route_mismatch_names_first_entry(capsys, monkeypatch):
    import intres.cli
    from intres import BettiTable, betti, parse_interval_spec

    def skewed_koszul_table(module, max_len=None):
        table = BettiTable(dict(betti(module, max_len=max_len).entries))
        table.add(1, parse_interval_spec(module.quiver, "top=[2,3] bot=[3,3]"))
        table.add(2, parse_interval_spec(module.quiver, "top=[1,1]"))
        return table

    monkeypatch.setattr(intres.cli, "betti_table_via_koszul", skewed_koszul_table)
    code, out, err = run(capsys, "betti", "--file", CL3_FILE, "--route", "both")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert "beta^1 top=[2,3] bot=[3,3]: resolve x1, koszul x2" in err
    assert "beta^2" not in err


def test_betti_single_interval(capsys):
    code, out, _ = run(
        capsys, "betti", "--file", CL3_FILE,
        "--interval", "top=[2,3] bot=[3,3]",
    )
    assert code == EXIT_OK
    assert "beta 0 1" in out


def test_betti_json(capsys):
    code, out, _ = run(
        capsys, "betti", "--file", CL3_FILE, "--route", "koszul", "--json",
        "--interval", "top=[1,3] bot=[3,3]",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["beta"][0] == 1 and sum(payload["beta"][1:]) == 0


# ---- koszul ---------------------------------------------------------------------


def test_koszul_fixture_degrees(capsys):
    code, out, _ = run(
        capsys, "koszul", "--ladder", "3",
        "--interval", "top=[1,3] bot=[3,3]", "--check",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "interval top=[1,3] bot=[3,3]"
    assert lines[1] == "degree 0: top=[1,3] bot=[3,3]"
    assert lines[2] == "degree 1: bot=[3,3]; top=[1,2]; top=[1,3] bot=[2,3]"
    assert lines[3] == "degree 2: top=[1,2] bot=[2,3]"
    assert lines[4] == "validator pass"


def test_koszul_with_module_homology(capsys):
    code, out, _ = run(
        capsys, "koszul", "--file", CL3_FILE,
        "--interval", "top=[2,3] bot=[3,3]",
    )
    assert code == EXIT_OK
    assert "homology 0 1 0" in out.replace("  ", " ")


def test_koszul_json(capsys):
    code, out, _ = run(
        capsys, "koszul", "--ladder", "2", "--interval", "top=[1,2]",
        "--check", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["validator"] is True
    assert payload["degrees"][0] == ["top=[1,2]"]


def test_a_failed_koszul_check_is_an_internal_error(capsys, monkeypatch):
    """When the validator refuses the coresolution, `koszul --check` exits
    with EXIT_INTERNAL, says so on stderr and prints no report."""
    import intres.cli

    monkeypatch.setattr(intres.cli, "validate_koszul_coresolution",
                        lambda cochain, interval: False)
    code, out, err = run(
        capsys, "koszul", "--ladder", "3",
        "--interval", "top=[1,3] bot=[3,3]", "--check",
    )
    assert code == EXIT_INTERNAL and out == ""
    assert err == "internal error: koszul coresolution failed validation\n"


# ---- decomposable / replace -------------------------------------------------------


def test_decomposable_negative(capsys):
    code, out, _ = run(capsys, "decomposable", "--file", CL3_FILE)
    assert code == EXIT_OK
    assert out.strip() == "not interval-decomposable"


def test_decomposable_positive(tmp_path, capsys):
    text = "field Q\nquiver ladder 2\ndim b1 1\ndim b2 1\nmap a1\n1\n"
    f = tmp_path / "sum.mod"
    f.write_text(text)
    code, out, _ = run(capsys, "decomposable", "--file", str(f))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "interval-decomposable"
    assert lines[1] == "bot=[1,2] x1"


def test_replace_fixture(capsys):
    code, out, _ = run(capsys, "replace", "--file", CL3_FILE)
    assert code == EXIT_OK
    assert "delta top=[1,3] bot=[3,3] = 1" in out
    assert "delta top=[2,3] bot=[3,3] = -1" in out


def test_replace_json(capsys):
    code, out, _ = run(capsys, "replace", "--file", CL5_FILE, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert {"interval": "top=[4,5] bot=[5,5]", "value": -1} in payload["delta"]


@pytest.mark.parametrize("field", [[], ["--field", "GF(2)"]], ids=["Q", "GF2"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("name", ["cl3_m45", "cl5_m"])
def test_replace_golden(capsys, name, fmt, field):
    """The whole `replace` report, the compressed table of the JSON form
    included, is byte for byte the golden file, over Q and GF(2)."""
    suffix = ".json" if fmt else ".txt"
    golden = FIXTURES / "golden" / f"replace_{name}{suffix}"
    code, out, err = run(capsys, "replace", "--file",
                         str(FIXTURES / f"{name}.mod"), *fmt, *field)
    assert (code, err) == (EXIT_OK, "")
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("field", [[], ["--field", "GF(2)"]], ids=["Q", "GF2"])
@pytest.mark.parametrize("command, fmt, stem", [
    (["betti", "--route", "both"], [], "betti_{}.txt"),
    (["betti", "--route", "both"], ["--json"], "betti_{}.json"),
    (["decomposable"], ["--json"], "decomposable_{}.json"),
], ids=["betti-text", "betti-json", "decomposable-json"])
@pytest.mark.parametrize("name", ["cl3_m45", "cl5_m"])
def test_report_golden(capsys, name, command, fmt, stem, field):
    """The Betti table of both routes (text and JSON) and the JSON
    decomposability verdict are byte for byte the golden file, over Q and
    GF(2)."""
    golden = FIXTURES / "golden" / stem.format(name)
    code, out, err = run(capsys, *command, "--file",
                         str(FIXTURES / f"{name}.mod"), *fmt, *field)
    assert (code, err) == (EXIT_OK, "")
    assert out.encode() == golden.read_bytes()


# ---- exit codes -------------------------------------------------------------------


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "betti")[0] == EXIT_USAGE  # no --file
    assert run(capsys, "intervals", "--ladder", "0")[0] == EXIT_USAGE
    assert run(capsys, "betti", "--file", "/nonexistent.mod")[0] == EXIT_USAGE
    bad = tmp_path / "bad.mod"
    bad.write_text("wibble\n")
    assert run(capsys, "betti", "--file", str(bad))[0] == EXIT_USAGE
    undecodable = tmp_path / "undecodable.mod"
    undecodable.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "betti", "--file", str(undecodable))
    assert code == EXIT_USAGE
    assert err.startswith("error: line 1: not UTF-8")
    assert run(
        capsys, "betti", "--file", CL3_FILE, "--field", "GF4"
    )[0] == EXIT_USAGE
    assert run(
        capsys, "betti", "--file", CL3_FILE, "--interval", "gibberish[",
    )[0] == EXIT_USAGE
    code, _, err = run(capsys, "betti", "--file", CL3_FILE, "--max-len", "-1")
    assert code == EXIT_USAGE
    assert err == "error: --max-len must be at least 0, got -1\n"
    for spec, want in [
        ("top=[1,6] bot=[2,9]",
         "error: segment top=[1,6] is out of range for a ladder of length 3 "
         "(need 1 <= lo <= hi <= 3)\n"),
        ("bot=[1,3000000]",
         "error: segment bot=[1,3000000] is out of range for a ladder of "
         "length 3 (need 1 <= lo <= hi <= 3)\n"),
        ("t1,x9,y7,b2,z1,w4", "error: unknown vertex 'x9'\n"),
    ]:
        code, out, err = run(capsys, "koszul", "--ladder", "3", "--interval", spec)
        assert (code, out, err) == (EXIT_USAGE, "", want)


@pytest.mark.parametrize("path", [
    pytest.param(CL3_FILE + "/x", id="through-a-file"),  # NotADirectoryError
    pytest.param("m" * 300 + ".mod", id="name-too-long"),  # ENAMETOOLONG
])
def test_os_errors_on_the_module_file_are_usage_errors(capsys, path):
    code, out, err = run(capsys, "betti", "--file", path)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["koszul", "--interval", "top=[1,2]"], ["intervals"],
])
def test_ladder_and_file_exclude_each_other(capsys, command):
    """With both, the file was silently ignored: `koszul` printed a ladder-4
    coresolution and no complex, and exited 0."""
    code, out, err = run(capsys, *command, "--ladder", "4", "--file", CL3_FILE)
    assert (code, out, err) == (
        EXIT_USAGE, "", "error: give either --ladder or --file, not both\n")


def test_unknown_subcommand_is_usage(capsys):
    assert main(["nosuch-command"]) == EXIT_USAGE
    capsys.readouterr()


def test_replace_on_the_zero_module(tmp_path, capsys):
    """A module file whose dimensions are all 0 has the zero replacement,
    which the text report states in one line."""
    f = tmp_path / "zero.mod"
    f.write_text("quiver ladder 2\n")
    code, out, err = run(capsys, "replace", "--file", str(f))
    assert code == EXIT_OK and err == ""
    assert out == "delta identically zero\n"


def test_validation_error_exit_code(tmp_path, capsys):
    text = (
        "quiver ladder 2\ndim b1 1\ndim b2 1\ndim t1 1\ndim t2 1\n"
        "map a1\n1\nmap ta1\n2\nmap v1\n1\nmap v2\n1\n"
    )
    f = tmp_path / "noncomm.mod"
    f.write_text(text)
    code, _, err = run(capsys, "betti", "--file", str(f))
    assert code == EXIT_VALIDATION
    assert "validation error" in err


def test_max_len_validation_exit(capsys):
    code, _, err = run(
        capsys, "betti", "--file", CL3_FILE, "--max-len", "0",
    )
    assert code == EXIT_VALIDATION
    assert "validation error" in err


def test_replace_on_an_explicit_quiver(tmp_path, capsys):
    """`replace` works on any finite poset: the interval module over the
    two-vertex quiver a -> b is its own replacement."""
    text = (
        "quiver explicit\nvertex a\nvertex b\narrow f a b\n"
        "dim a 1\ndim b 1\nmap f\n1\n"
    )
    f = tmp_path / "two.mod"
    f.write_text(text)
    code, out, _ = run(capsys, "replace", "--file", str(f))
    assert code == EXIT_OK
    assert out == "delta {a,b} = 1\n"


def test_replace_on_a_grid(tmp_path, capsys):
    """`replace` answers on the 3x3 grid, whose hom spaces have cycles:
    the hard grid module has a negative entry."""
    f = tmp_path / "grid.mod"
    f.write_text(serialize_module(grid_hard_module(QQ)))
    code, out, err = run(capsys, "replace", "--file", str(f))
    assert code == EXIT_OK and err == ""
    assert any(line.split(" = ")[1].startswith("-") for line in out.splitlines())


def test_replace_reports_a_failed_gate_as_an_internal_error(monkeypatch, capsys):
    """A dim Hom(V_I, M) off by one at one interval breaks the gate H delta
    = h: `replace` exits with EXIT_INTERNAL, names the interval and prints
    no traceback and no vector."""
    h = SourceSolves.hom_dim

    def wrong(solves, interval):
        return h(solves, interval) + (set(interval.vertex_set) == {"t1"})

    monkeypatch.setattr(SourceSolves, "hom_dim", wrong)
    code, out, err = run(capsys, "replace", "--file", CL3_FILE)
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("internal error:") and "Interval{t1}" in err
    assert "Traceback" not in err


FUZZ_TOKENS = ["", "0", "1", "-1", "2", "1/2", "1/0", "x", "map", "dim", "t1",
               "b9", "ta1", "field", "GF(2)", "quiver", "ladder", "explicit",
               "99999999999999999999", "#"]


def fuzzed(text, rng):
    """`text` with one random edit: a line dropped, duplicated or moved, a
    word replaced by a token of the format or by junk, or one character
    replaced."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[rng.randrange(len(lines))])
    elif kind == 2:
        lines.insert(rng.randrange(len(lines)), lines.pop(i))
    elif kind == 3:
        words = lines[i].split() or [""]
        words[rng.randrange(len(words))] = rng.choice(FUZZ_TOKENS)
        lines[i] = " ".join(words)
    else:
        line = lines[i] or " "
        j = rng.randrange(len(line))
        lines[i] = line[:j] + rng.choice("0123456789 -/#xabt()\t") + line[j + 1:]
    return "\n".join(lines) + "\n"


def test_fuzzed_module_files_fail_with_an_exit_code(capsys, tmp_path):
    """A seeded sweep of 200 one-edit mutations of cl3_m45.mod, each run
    in-process through one of betti, decomposable, replace and intervals:
    every run ends with an exit code, 1, 2 or 3 on failure, and prints no
    traceback."""
    rng = random.Random(5)
    text = Path(CL3_FILE).read_text()
    commands = ("betti", "decomposable", "replace", "intervals")
    codes = set()
    for k in range(200):
        path = tmp_path / f"m{k}.mod"
        path.write_text(fuzzed(text, rng))
        code, _, err = run(capsys, commands[k % 4], "--file", str(path))
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_INTERNAL)
        assert "Traceback" not in err
        assert (code == EXIT_OK) == (err == ""), err
        codes.add(code)
    assert {EXIT_OK, EXIT_USAGE, EXIT_VALIDATION} <= codes


# ---- determinism and the installed script -----------------------------------------


def test_reports_are_deterministic(capsys):
    args = ("replace", "--file", CL3_FILE, "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def run_module(*argv, **env):
    """`python -m intres.cli` on this checkout's src/, with extra
    environment variables."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "intres.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def test_module_entry_point():
    proc = run_module("intervals", "--ladder", "2")
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 11


def test_a_closed_stdout_ends_the_command_quietly():
    """The reader of stdout is gone before the command writes: it exits 0
    and prints nothing on stderr, whether the write fails in a print
    (unbuffered) or at the flush of its buffer."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "intres.cli", "intervals", "--ladder", "3"],
                stdout=writer, stderr=subprocess.PIPE, text=True,
                env=dict(base, PYTHONPATH=path, **extra),
            )
        finally:
            os.close(writer)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), extra


def test_interval_errors_do_not_depend_on_the_hash_seed():
    """The error names the same segment or vertex under every hash seed
    (the unknown vertex first in the spec, not first in a set)."""
    for spec in ("top=[1,6] bot=[2,9]", "t1,x9,y7,b2,z1,w4"):
        errs = {
            run_module("koszul", "--ladder", "3", "--interval", spec,
                       PYTHONHASHSEED=seed).stderr
            for seed in ("1", "3", "4")
        }
        assert len(errs) == 1, errs
