import json
import os
import subprocess
import sys

import pytest

import liewords
from liewords import automata as au
from liewords import counting
from liewords import words
from liewords.cli import main
from liewords.words import parse_dfao
from oracles import accepts


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


def test_morphism_file_with_a_non_growing_letter(tmp_path, capsys):
    path = tmp_path / "runs.rules"
    path.write_text("alphabet: a b\na -> aaab\nb -> b\n")
    code, out, err = run(capsys, "complexity", "--morphism-file", str(path), "--n", "7..9")
    assert (code, err) == (0, "")
    assert [line.split("\t")[1] for line in out.strip().split("\n")[1:]] == ["25", "32", "40"]


def test_morphism_file_prolongable_on_no_letter_exits_one(tmp_path, capsys):
    path = tmp_path / "none.rules"
    path.write_text("alphabet: 0 1\n0 -> 10\n1 -> 0\n")
    code, out, err = run(capsys, "complexity", "--morphism-file", str(path), "--n", "3")
    assert (code, out) == (1, "")
    assert err == "NotProlongable: morphism is not prolongable on any letter\n"


def test_morphism_file_seed_defaults_to_the_first_prolongable_letter(tmp_path, capsys):
    # prolongable on b only, the second letter
    path = tmp_path / "second.rules"
    path.write_text("alphabet: a b\na -> b\nb -> ba\n")
    argv = ("complexity", "--morphism-file", str(path), "--n", "0..8")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--seed", "b") == (0, out, "")


@pytest.mark.parametrize(
    "command",
    [
        ("complexity", "--n", "0..2"),
        ("algebra-check", "--max-n", "3"),
        ("scan-powers",),
    ],
)
def test_dfao_file_with_a_multi_character_output_exits_one(tmp_path, capsys, command):
    # read as one letter by `pipeline`, so a word route must not count it as two
    path = tmp_path / "multi.dfao"
    path.write_text("base: 2\nstate 0 output ab\n0 -> 0\n1 -> 1\nstate 1 output c\n0 -> 1\n1 -> 0\n")
    code, out, err = run(capsys, command[0], "--dfao-file", str(path), *command[1:])
    assert (code, out) == (1, "")
    assert err == "UnknownLetter: letters of the coded word must be single characters, got 'ab'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("construct", "--depth", "4"), "toy mode needs one growth multiplier per stage"),
        (("construct", "--depth", "0", "--g", "2"), "depth must be at least 1"),
        (("construct", "--depth", "2", "--g", "2,1"), "growth multipliers must be at least 2"),
        (("construct", "--depth", "2", "--g", "2,x"), "--g needs comma-separated integers, got '2,x'"),
        (("complexity", "--word", "thue-morse", "--n", "-3"), "factor length must be nonnegative, got -3"),
        (("verify-inequalities", "--word", "thue-morse", "--n", "-3"), "factor length must be nonnegative, got -3"),
        (("scan-powers", "--word", "thue-morse", "--exponent", "1"), "exponent must be at least 2, got 1"),
        (("algebra-check", "--word", "thue-morse", "--max-n", "-1"), "largest factor length must be nonnegative, got -1"),
        (("logic", "compile", "--formula", "i<j", "--base", "0"), "base must be at least 2, got 0"),
        (("logic", "compile", "--formula", "i<j", "--base", "1"), "base must be at least 2, got 1"),
        (("logic", "compile", "--formula", "i<j", "--base", "-2"), "base must be at least 2, got -2"),
        (("logic", "compile", "--formula", "i<j"), "formula reads no sequence; pass a base"),
        (("scan-powers", "--word", "thue-morse", "--max-root-len", "-1"), "largest root length must be nonnegative, got -1"),
        (("complexity", "--word", "fibonacci", "--seed", "1", "--n", "0..2"), "--seed needs --morphism-file"),
        # refused before the file is opened
        (("complexity", "--dfao-file", "absent.dfao", "--seed", "zz", "--n", "0..2"), "--seed needs --morphism-file"),
    ],
)
def test_bad_numeric_input_exits_one(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "InvalidParameter: %s\n" % message


def test_logic_compile_past_the_state_cap_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(au, "STATE_CAP", 3)
    code, out, err = run(
        capsys, "logic", "compile", "--seq", "thue-morse", "--formula", "Au (u<n) => W[i+u]=W[j+u]"
    )
    assert (code, out) == (1, "")
    assert err.startswith("CompileBlowup: automaton grew past the state cap")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "base, formula",
    [
        # three tracks: 10^15 symbols, and 102^3 is just past 2^20
        ("100000", "x+y=z"),
        ("102", "x+y=z"),
        # two adders that share c meet on five tracks: 40^5 symbols
        ("40", "a+b=c & c+d=e & e+f=g"),
    ],
)
def test_logic_compile_past_the_symbol_cap_exits_one(base, formula):
    # a child process, so an alphabet built symbol by symbol fails the
    # timeout instead of hanging the suite
    env = dict(os.environ, PYTHONPATH=os.path.dirname(liewords.__path__[0]))
    done = subprocess.run(
        [sys.executable, "-m", "liewords.cli", "logic", "compile", "--base", base, "--formula", formula],
        env=env,
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("CompileBlowup: ")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


@pytest.mark.parametrize("base", ["33", "101"])
def test_logic_compile_of_an_equation_reads_three_tracks(capsys, base):
    # the adder writes into z: 101^3 symbols are within the cap, where a
    # temporary for x+y would make four tracks
    code, out, err = run(capsys, "logic", "compile", "--base", base, "--formula", "x+y=z")
    assert (code, out, err) == (0, "tracks: x y z\nstates: 3\n", "")


@pytest.mark.parametrize(
    "formula",
    ["(" * 1000 + "x=1" + ")" * 1000, "~" * 2000 + "x=1", "x=1 & " * 2000 + "x=1"],
    ids=["parentheses", "negations", "conjuncts"],
)
def test_logic_compile_of_a_deeply_nested_formula_exits_one(capsys, formula):
    code, out, err = run(capsys, "logic", "compile", "--base", "2", "--formula", formula)
    assert (code, out, err) == (1, "", "FormulaSyntaxError: formula nests too deeply\n")


def test_pipeline_past_the_dfao_state_cap_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(counting, "_DFAO_STATE_CAP", 2)
    code, out, err = run(capsys, "pipeline", "--seq", "thue-morse")
    assert (code, out) == (1, "")
    assert err == "StateCapExceeded: more than 2 distinct state vectors\n"


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
    assert accepts(a, {"x": 3, "y": 9})
    assert not accepts(a, {"x": 9, "y": 9})


def test_logic_compile_with_sequence(capsys):
    code, out, _ = run(
        capsys, "logic", "compile", "--seq", "thue-morse", "--formula", "W[i]=@1"
    )
    assert code == 0
    assert "tracks: i" in out


def test_logic_compile_of_a_call_emits_the_library_predicate(tmp_path, capsys, tm_library):
    target = tmp_path / "lie.mtdfa"
    code, _, _ = run(
        capsys, "logic", "compile", "--seq", "thue-morse", "--formula", "lie(i,n)",
        "--emit", str(target),
    )
    assert code == 0
    assert target.read_text() == au.to_text(tm_library["lie"])


# '²' is a digit to str.isdigit but no number to int; '٣' would read as 3
@pytest.mark.parametrize("digit", ["²", "٣"])
def test_logic_compile_refuses_digits_that_are_not_ascii(capsys, digit):
    code, out, err = run(capsys, "logic", "compile", "--base", "2", "--formula", "x=" + digit)
    assert (code, out) == (1, "")
    assert err == "FormulaSyntaxError: line 1, col 3: unexpected character %r\n" % digit


def test_logic_compile_of_a_large_constant(capsys):
    code, out, _ = run(capsys, "logic", "compile", "--formula", "x=1000000", "--base", "2")
    assert (code, out) == (0, "tracks: x\nstates: 22\n")


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


def test_construct_verbatim_variant(tmp_path, capsys):
    target = tmp_path / "trace.json"
    code, out, _ = run(
        capsys,
        "construct", "--variant", "verbatim", "--depth", "3", "--g", "2,2,2",
        "--emit", str(target),
    )
    assert code == 0
    checks = [line.split("\t") for line in out.splitlines() if "\t" in line]
    assert checks and all(status == "ok" for _, status in checks)
    assert json.loads(target.read_text())["variant"] == "verbatim"


def test_construct_honest_overflows(capsys):
    code, _, err = run(capsys, "construct", "--mode", "honest", "--depth", "3")
    assert code == 1
    assert "ParameterOverflow" in err


def test_scan_powers(capsys):
    code, out, _ = run(
        capsys,
        "scan-powers", "--word", "cantor",
        "--max-root-len", "4", "--exponent", "4",
    )
    assert code == 0
    assert out.splitlines() == ["0", "# 1 class(es)"]


def test_scan_powers_finds_cantors_run_of_30000_zeros(capsys):
    code, out, _ = run(
        capsys,
        "scan-powers", "--word", "cantor", "--max-root-len", "1", "--exponent", "30000",
    )
    assert code == 0
    assert out.splitlines() == ["0", "# 1 class(es)"]


# stdout at the defaults (--max-root-len 6 --exponent 4) and at --exponent 2
_SCAN_STDOUT = {
    "thue-morse": (
        "# 0 class(es)\n",
        "0\n1\n01\n001\n011\n0011\n001011\n001101\n# 8 class(es)\n",
    ),
    "vtm": ("# 0 class(es)\n", "# 0 class(es)\n"),
    "cantor": ("0\n# 1 class(es)\n", "0\n01\n000101\n# 3 class(es)\n"),
    "fibonacci": ("# 0 class(es)\n", "0\n01\n001\n00101\n# 4 class(es)\n"),
    "tribonacci": ("# 0 class(es)\n", "0\n01\n001\n0102\n010102\n# 5 class(es)\n"),
    "twelve": ("# 0 class(es)\n", "# 0 class(es)\n"),
}


@pytest.mark.parametrize("word", sorted(_SCAN_STDOUT))
def test_scan_powers_stdout_is_pinned(capsys, word):
    default, squares = _SCAN_STDOUT[word]
    assert run(capsys, "scan-powers", "--word", word) == (0, default, "")
    assert run(capsys, "scan-powers", "--word", word, "--exponent", "2") == (0, squares, "")


def test_scan_powers_past_the_letter_budget_exits_one(capsys):
    code, out, err = run(
        capsys, "scan-powers", "--word", "thue-morse", "--exponent", "4000000000"
    )
    assert (code, out) == (1, "")
    assert err.startswith(
        "WindowExceeded: exact factor set of length 4000000000 needs images of more than"
    )
    assert err.count("\n") == 1 and err.endswith("\n")


def test_scan_powers_past_the_letter_budget_of_a_factor_set_exits_one(monkeypatch, capsys):
    # the images of length 12 hold 62 letters, the 26 blocks of length 6
    # hold 156
    monkeypatch.setattr(words, "LETTER_BUDGET", 100)
    code, out, err = run(
        capsys, "scan-powers", "--word", "thue-morse", "--max-root-len", "6", "--exponent", "2"
    )
    assert (code, out) == (1, "")
    assert err == (
        "WindowExceeded: exact factor set of length 6 reads 26 blocks, "
        "past the letter budget of 100 letters\n"
    )


@pytest.mark.parametrize("command", ["complexity", "verify-inequalities"])
def test_direct_route_past_the_letter_budget_of_its_blocks_exits_one(command, monkeypatch, capsys):
    # cantor's images for length 200 hold 728 letters, its 685 blocks
    # 137,000
    monkeypatch.setattr(words, "LETTER_BUDGET", 100_000)
    code, out, err = run(capsys, command, "--word", "cantor", "--n", "190..200")
    assert (code, out) == (1, "")
    assert err == (
        "WindowExceeded: exact factor set of length 200 reads 685 blocks, "
        "past the letter budget of 100000 letters\n"
    )


def test_algebra_check_past_the_letter_budget_of_its_factor_sets_exits_one(monkeypatch, capsys):
    # thue-morse's factor sets of lengths 0..10 hold 1,036 letters between
    # them; the largest, of length 10, holds 200
    monkeypatch.setattr(words, "LETTER_BUDGET", 1000)
    code, out, err = run(capsys, "algebra-check", "--word", "thue-morse", "--max-n", "30")
    assert (code, out) == (1, "")
    assert err == (
        "WindowExceeded: factor sets of lengths 0..10 hold 1036 letters, "
        "past the letter budget of 1000 letters\n"
    )


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


def test_cli_import_leaves_construction_and_golden_unloaded():
    # a fresh interpreter, so the modules other tests loaded do not count
    script = (
        "import sys, liewords, liewords.cli\n"
        "print(sorted(m for m in ('liewords.construction', 'liewords.golden') if m in sys.modules))\n"
        "print(set(liewords.__all__) <= set(dir(liewords)))\n"
        "from liewords import build, golden_report\n"
        "print(build.__module__, golden_report.__module__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(liewords.__path__[0]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n")[:3] == ["[]", "True", "liewords.construction liewords.golden"]
