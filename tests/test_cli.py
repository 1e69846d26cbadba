import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liewords
from liewords import automata as au
from liewords.cli import main
from liewords.words import parse_dfao


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_complexity_table_tsv(capsys):
    code, out, _ = run(capsys, "complexity", "--word", "thue-morse", "--n", "0..3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n\tp\tc\ta\tL\tcertified"
    assert lines[3] == "2\t4\t3\t3\t3\ttrue"
    assert lines[4] == "3\t6\t2\t2\t2\ttrue"


def test_complexity_single_n_json(capsys):
    code, out, _ = run(
        capsys, "complexity", "--word", "fibonacci", "--n", "5", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 1 and rows[0]["n"] == 5


def test_cantor_rows_stay_uncertified(capsys):
    code, out, _ = run(capsys, "complexity", "--word", "cantor", "--n", "0..5")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 6
    assert all(row.split("\t")[-1] == "false" for row in rows)


def test_complexity_deterministic_output(capsys):
    args = ("complexity", "--word", "vtm", "--n", "0..12")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_morphism_file_source(tmp_path, capsys):
    path = tmp_path / "fib.rules"
    path.write_text("alphabet: 0 1\n0 -> 01\n1 -> 0\n")
    code, out, _ = run(capsys, "complexity", "--morphism-file", str(path), "--n", "0..4")
    assert code == 0
    assert out.strip().split("\n")[1] == "0\t1\t1\t1\t1\ttrue"


def test_missing_input_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "nonexistent.rules"
    code, out, err = run(capsys, "complexity", "--morphism-file", str(missing), "--n", "3")
    assert code == 1 and out == ""
    assert err.startswith("FileNotFoundError: ") and str(missing) in err


def test_undecodable_input_file_exits_one(tmp_path, capsys):
    path = tmp_path / "binary.rules"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "complexity", "--morphism-file", str(path), "--n", "3")
    assert code == 1 and out == ""
    assert err.startswith("UnicodeDecodeError: ")


def test_bad_rule_line_exits_one_with_line_number(tmp_path, capsys):
    path = tmp_path / "bad.rules"
    path.write_text("alphabet: 0 1\n\n0 -> 01\n1 = 0\n")
    code, out, err = run(capsys, "complexity", "--morphism-file", str(path), "--n", "3")
    assert code == 1 and out == ""
    assert err == "FormatError: line 4: bad rule line '1 = 0'\n"


def test_morphism_file_with_relative_path(tmp_path, monkeypatch, capsys):
    # a relative path with a directory part names the generator
    # "file:t/fib.rules"
    (tmp_path / "t").mkdir()
    (tmp_path / "t" / "fib.rules").write_text("alphabet: 0 1\n0 -> 01\n1 -> 0\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "complexity", "--morphism-file", "t/fib.rules", "--n", "0..4")
    assert (code, err) == (0, "")
    assert run(capsys, "complexity", "--word", "fibonacci", "--n", "0..4")[1] == out


@pytest.mark.parametrize(
    "option", [("--window-start", "-4"), ("--window-start", "0"), ("--window-cap", "0")]
)
def test_window_options_below_one_exit_one(tmp_path, option):
    # the word has a non-growing letter, so it runs the window schedule,
    # and doubling a start below 1 never reaches n
    path = tmp_path / "runs.rules"
    path.write_text("alphabet: a b\na -> aab\nb -> b\n")
    argv = ["complexity", "--morphism-file", str(path), "--n", "3", *option]
    proc = subprocess.run(
        [sys.executable, "-m", "liewords.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(liewords.__file__).parents[1])},
    )
    assert proc.returncode == 1 and proc.stdout == ""
    error = "WindowExceeded" if option[0] == "--window-cap" else "WindowTooSmall"
    assert proc.stderr.startswith(error + ": ")


@pytest.mark.parametrize(
    "command",
    [("complexity", "--n", "3"), ("verify-inequalities", "--n", "3"), ("algebra-check",)],
)
def test_window_start_below_one_exits_one_on_a_growing_word(capsys, command):
    # thue-morse takes the exact path, which reads no window
    argv = [command[0], "--word", "thue-morse", *command[1:], "--window-start", "-4"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "WindowTooSmall: the window schedule must start at 1 or more, got -4\n"


@pytest.mark.parametrize(
    "options, start, cap",
    [(("--window-cap", "0"), 1024, 0), (("--window-start", "64", "--window-cap", "32"), 64, 32)],
)
def test_window_cap_below_start_names_both(tmp_path, capsys, options, start, cap):
    path = tmp_path / "runs.rules"
    path.write_text("alphabet: a b\na -> aab\nb -> b\n")
    code, out, err = run(capsys, "complexity", "--morphism-file", str(path), "--n", "3", *options)
    assert (code, out) == (1, "")
    assert err == "WindowExceeded: window cap %d is below the window start %d\n" % (cap, start)


def test_verify_inequalities_pass(capsys):
    code, out, _ = run(
        capsys, "verify-inequalities", "--word", "thue-morse", "--n", "1..12"
    )
    assert code == 0
    assert "violations" not in out


def test_verify_inequalities_skips_uncertified_margins(capsys):
    code, out, _ = run(capsys, "verify-inequalities", "--word", "cantor", "--n", "1..6")
    assert code == 0
    assert "skipped on uncertified data" in out
    code, out, _ = run(
        capsys,
        "verify-inequalities", "--word", "cantor", "--n", "1..6", "--allow-heuristic",
    )
    assert code == 0
    assert "skipped" not in out


def test_algebra_check(capsys):
    code, out, _ = run(capsys, "algebra-check", "--word", "fibonacci", "--max-n", "6")
    assert code == 0
    assert out.splitlines()[0] == "n\tdimV\tdimW\tL_algebra\tL_direct\tmatch"


def test_logic_compile_and_reload(tmp_path, capsys):
    target = tmp_path / "cmp.mtdfa"
    code, out, _ = run(
        capsys,
        "logic", "compile",
        "--formula", "Ez x+z=y & z>=1",
        "--base", "2",
        "--emit", str(target),
    )
    assert code == 0
    assert "tracks: x y" in out
    a = au.from_text(target.read_text())
    assert au.accepts(a, {"x": 3, "y": 9})
    assert not au.accepts(a, {"x": 9, "y": 9})


def test_logic_compile_with_sequence(capsys):
    code, out, _ = run(
        capsys, "logic", "compile", "--seq", "thue-morse", "--formula", "W[i]=@1"
    )
    assert code == 0
    assert "tracks: i" in out


def test_pipeline_emits_dfao(tmp_path, capsys):
    target = tmp_path / "lie.dfao"
    code, out, _ = run(
        capsys, "pipeline", "--seq", "thue-morse", "--emit-dfao", str(target)
    )
    assert code == 0
    assert "sup: 3" in out
    d = parse_dfao(target.read_text())
    assert d.base == 2


def test_pipeline_requires_digit_automaton(capsys):
    code, _, err = run(capsys, "pipeline", "--seq", "fibonacci")
    assert code == 1
    assert "ToolError" in err


def test_construct_trace(tmp_path, capsys):
    target = tmp_path / "trace.json"
    code, out, _ = run(
        capsys,
        "construct", "--mode", "toy", "--depth", "4", "--g", "2,2,2,2",
        "--emit", str(target),
    )
    assert code == 0
    assert "d: 2 5 13 34" in out
    assert "FAIL" not in out
    assert json.loads(target.read_text())["depth"] == 4


def test_construct_honest_overflows(capsys):
    code, _, err = run(capsys, "construct", "--mode", "honest", "--depth", "3")
    assert code == 1
    assert "ParameterOverflow" in err


def test_scan_powers(capsys):
    code, out, _ = run(
        capsys,
        "scan-powers", "--word", "cantor",
        "--max-root-len", "4", "--exponent", "4", "--window", "8192",
    )
    assert code == 0
    assert out.splitlines() == ["0", "# 1 class(es)"]


def test_golden_summary(capsys):
    code, out, _ = run(capsys, "golden")
    assert code == 0
    assert "FAIL" not in out
    assert any(line.startswith("thue-morse\tpipeline\t257/257") for line in out.splitlines())


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["complexity", "--word", "nope", "--n", "0..3"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["complexity", "--word", "thue-morse", "--n", "9..2"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
