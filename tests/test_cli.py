import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spindle import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dynkin_text_golden(capsys):
    code, out, _ = run(
        ["compute", "dynkin", "--type", "G", "--rank", "2",
         "--weight", "1,0"], capsys)
    assert code == 0
    assert out == "1 + q + q^2 + q^3 + q^4 + q^5 + q^6\n"


def test_lusztig_json_golden(capsys):
    code, out, _ = run(
        ["compute", "lusztig", "--type", "A", "--rank", "1",
         "--weight", "0", "--mu", "0", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"coefficients": ["1"], "variable": "q"}


def test_f_lambda_text_and_csv(capsys):
    argv = ["compute", "f-lambda", "--type", "C", "--rank", "3",
            "--weight", "0,1,0"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == ("1 + q + 2*q^2 + 2*q^3 + 3*q^4 + 2*q^5 + 3*q^6 "
                   "+ q^7 + q^8\n")
    code, out, _ = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "exponent,coefficient"
    assert lines[1] == "0,1"
    assert lines[-1] == "8,1"


def test_root_system_table(capsys):
    code, out, _ = run(
        ["compute", "root-system", "--type", "G", "--rank", "2",
         "--format", "json"], capsys)
    assert code == 0
    rows = {r["property"]: r["value"] for r in json.loads(out)}
    assert rows["weyl_order"] == 12
    assert rows["degrees"] == "2 6"


def test_character_rows(capsys):
    code, out, _ = run(
        ["compute", "character", "--type", "A", "--rank", "2",
         "--weight", "1,1", "--format", "csv"], capsys)
    assert code == 0
    assert "(0,0),2" in out
    assert "(1,1),1" in out


def test_character_g2_csv_golden(capsys):
    code, out, _ = run(
        ["compute", "character", "--type", "G", "--rank", "2",
         "--weight", "1,1", "--format", "csv"], capsys)
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 31
    assert max(int(r.rsplit(",", 1)[1]) for r in rows) == 4
    assert hashlib.md5(out.encode()).hexdigest() == (
        "4a46554dbe3d3253e18e9f400d8e38b1")


@pytest.mark.parametrize("letter,rank,weight,want", [
    ("G", 2, "1,0", ["(2,0)", "(0,1)", "(1,0)", "(0,0)"]),
    ("E", 6, "1,0,0,0,0,0",
     ["(1,0,0,0,0,1)", "(0,1,0,0,0,0)", "(0,0,0,0,0,0)"]),
])
def test_tensor_square_golden(capsys, letter, rank, weight, want):
    code, out, _ = run(
        ["compute", "tensor-square", "--type", letter, "--rank", str(rank),
         "--weight", weight], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == ["highest_weight", "multiplicity"]
    assert [line.split() for line in lines[1:]] == [[w, "1"] for w in want]


def test_tensor_square_e8_adjoint_golden(capsys):
    code, out, _ = run(
        ["compute", "tensor-square", "--type", "E", "--rank", "8",
         "--weight", "0,0,0,0,0,0,0,1"], capsys)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == (
        "7b63a83e33059b0df3ebd77cfb5c56c5")


def test_tensor_square_e7_golden_and_budget(capsys):
    # --dim-budget bounds the character of V_lam, here of dimension 6480
    argv = ["compute", "tensor-square", "--type", "E", "--rank", "7",
            "--weight", "1,0,0,0,0,0,1"]
    start = time.perf_counter()
    code, out, _ = run(argv, capsys)
    assert time.perf_counter() - start < 10
    assert code == 0
    assert len(out.splitlines()) == 22
    assert hashlib.md5(out.encode()).hexdigest() == (
        "4cd58874abcb8fb894b0cad592455bac")
    code, out, err = run(argv + ["--dim-budget", "6479"], capsys)
    assert (code, out) == (3, "")
    assert err == (
        "error: character dimension: 6480 exceeds budget 6479\n")


@pytest.mark.parametrize("argv,lines,digest", [
    ("character --type F --rank 4 --weight 2,1,1,1 --dim-budget 200000000",
     30314, "7c86f2d3fa400487fd85be4f71e569a7"),
    ("character --type E --rank 7 --weight 1,0,0,0,0,1,0",
     14674, "60e85ee6d3da7860d1a6601621b28a1e"),
    ("f-lambda --type E --rank 7 --weight 1,0,0,0,0,0,0",
     1, "267873684a37f81c6368a71e8ce555ba"),
    ("f-lambda --type F --rank 4 --weight 1,0,0,1",
     1, "e5774c5a410a7be83c377afca3416f66"),
])
def test_heavy_character_and_f_lambda_golden(capsys, argv, lines, digest):
    # singular and regular weights of the exceptional types: Freudenthal
    # over stabilizer orbits of roots, and f-lambda squaring each
    # q-multiplicity, against outputs of the per-root recursion
    start = time.perf_counter()
    code, out, _ = run(["compute"] + argv.split(), capsys)
    assert time.perf_counter() - start < 10
    assert code == 0
    assert len(out.splitlines()) == lines
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_end_alg_a_table(capsys):
    code, out, _ = run(
        ["compute", "end-alg-a", "--n", "2", "--kind", "S2",
         "--format", "json"], capsys)
    assert code == 0
    rows = {r["property"]: r["value"] for r in json.loads(out)}
    assert rows["dimension"] == 6
    assert rows["commutant_dimension"] == 6
    assert rows["socle_dimension"] == 1
    assert rows["commutative"] is True


def test_poincare_series_text(capsys):
    code, out, _ = run(
        ["compute", "poincare-cg", "--type", "A", "--rank", "1",
         "--weight", "2"], capsys)
    assert code == 0
    assert out == "(1 + q + q^2) / (1 - q^2)\n"


def test_truncsym(capsys):
    code, out, _ = run(
        ["compute", "truncsym", "--n", "2", "--m", "2"], capsys)
    assert code == 0
    assert out == "(1 + q + q^2)(1 + q^2)\n"


def test_exit_code_usage_error(capsys):
    code, _, err = run(
        ["compute", "dynkin", "--type", "Z", "--rank", "2",
         "--weight", "1,0"], capsys)
    assert code == 2
    assert "error:" in err
    code, _, err = run(
        ["compute", "dynkin", "--type", "A", "--rank", "2",
         "--weight", "1"], capsys)
    assert code == 2
    code, _, err = run(
        ["compute", "truncsym", "--n", "2"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["dynkin", "--weight", "1"],
    ["lusztig", "--weight", ",".join(["0"] * 200), "--mu", "1"],
])
def test_weight_length_is_checked_before_the_root_system_is_built(
        capsys, monkeypatch, argv):
    def build(*args):
        raise AssertionError(f"root system {args} built")
    monkeypatch.setattr(cli, "build_root_system", build)
    code, out, err = run(["compute", argv[0], "--type", "A", "--rank", "200"]
                         + argv[1:], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: weight has 1 coordinates, rank is 200\n"


@pytest.mark.parametrize("sub", ["jump", "f-lambda", "poincare-cg"])
def test_closed_method_rejects_non_wmf_weight(sub, capsys):
    code, out, err = run(
        ["compute", sub, "--type", "C", "--rank", "3",
         "--weight", "0,1,0", "--method", "closed"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: the closed form needs a weight-multiplicity-free highest "
        "weight; (0, 1, 0) is not\n")


def test_verify_has_no_full_weyl_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "kostant-t0", "--full-weyl"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_exit_code_budget(capsys):
    code, _, err = run(
        ["compute", "character", "--type", "E", "--rank", "8",
         "--weight", "1,0,0,0,0,0,0,0", "--dim-budget", "100"], capsys)
    assert code == 3
    assert "budget" in err


def test_weyl_budget_error_names_layer_and_work(capsys):
    code, out, err = run(
        ["compute", "lusztig", "--type", "E", "--rank", "8",
         "--weight", "0,0,0,0,0,0,0,1", "--weyl-budget", "1000"], capsys)
    assert code == 3
    assert out == ""
    assert err == ("error: Weyl alternation walk: 1000 points + 0 cells "
                   "exceeds budget 1000\n")


E8_OMEGA1 = ["compute", "lusztig", "--type", "E", "--rank", "8",
             "--weight", "1,0,0,0,0,0,0,0"]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_lusztig_module_method_prints_what_the_weyl_sum_prints(capsys, fmt):
    argv = E8_OMEGA1 + ["--mu", "0,0,0,0,0,0,0,1", "--format", fmt]
    outs = [run(argv + ["--method", m], capsys) for m in ("weyl", "module")]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_lusztig_module_method_answers_at_e8_omega1_zero_weight(capsys):
    # The Weyl sum refuses this at the default --weyl-budget (exit 3).
    code, out, _ = run(E8_OMEGA1 + ["--method", "module", "--format", "json"],
                       capsys)
    assert code == 0
    coeffs = [int(c) for c in json.loads(out)["coefficients"]]
    # m(1) is the zero-weight multiplicity; the degree is (omega_1, rho^vee)
    assert sum(coeffs) == 35 and len(coeffs) - 1 == 46


@pytest.mark.parametrize("argv,message", [
    (["lusztig", "--method", "closed"], "lusztig does not take --method closed"),
    (["jump", "--method", "module"], "jump does not take --method module"),
    (["f-lambda", "--method", "module"],
     "f-lambda does not take --method module"),
    (["poincare-cg", "--method", "module"],
     "poincare-cg does not take --method module"),
    (["lusztig", "--method", "module", "--weyl-budget", "5"],
     "lusztig does not take --weyl-budget"),
    (["lusztig", "--method", "module", "--full-weyl"],
     "lusztig does not take --full-weyl"),
])
def test_method_a_subcommand_does_not_have_is_a_usage_error(
        capsys, argv, message):
    code, out, err = run(["compute", argv[0], "--type", "A", "--rank", "2",
                          "--weight", "1,1"] + argv[1:], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: compute {message}\n"


def test_each_subcommand_that_reads_method_lists_its_methods():
    assert set(cli.COMPUTE_METHODS) == {
        sub for sub, opts in cli.COMPUTE_OPTIONS.items() if "method" in opts}


def test_e6_adjoint_lusztig_golden(capsys):
    argv = ["compute", "lusztig", "--type", "E", "--rank", "6",
            "--weight", "0,1,0,0,0,0"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == "q + q^4 + q^5 + q^7 + q^8 + q^11\n"
    # 58 walk points + 432 table cells
    code, _, err = run(argv + ["--weyl-budget", "100"], capsys)
    assert code == 3
    assert "Kostant partition table: 58 points + 432 cells" in err
    code, lifted, _ = run(argv + ["--weyl-budget", "100", "--full-weyl"],
                          capsys)
    assert code == 0
    assert lifted == out


def test_f4_f_lambda_golden(capsys):
    code, out, _ = run(
        ["compute", "f-lambda", "--type", "F", "--rank", "4",
         "--weight", "1,0,0,1"], capsys)
    assert code == 0
    assert out == (
        "1 + 2*q + 5*q^2 + 10*q^3 + 19*q^4 + 32*q^5 + 52*q^6 + 79*q^7 "
        "+ 113*q^8 + 151*q^9 + 197*q^10 + 248*q^11 + 301*q^12 + 350*q^13 "
        "+ 397*q^14 + 439*q^15 + 474*q^16 + 495*q^17 + 505*q^18 "
        "+ 502*q^19 + 489*q^20 + 463*q^21 + 428*q^22 + 384*q^23 "
        "+ 337*q^24 + 287*q^25 + 239*q^26 + 193*q^27 + 152*q^28 "
        "+ 115*q^29 + 85*q^30 + 61*q^31 + 43*q^32 + 28*q^33 + 17*q^34 "
        "+ 10*q^35 + 6*q^36 + 3*q^37 + q^38\n"
    )


def test_output_is_deterministic(capsys):
    argv = ["compute", "jump", "--type", "C", "--rank", "3",
            "--weight", "0,1,0", "--format", "json"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_cache_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    argv = ["--cache-dir", str(tmp_path), "compute", "dynkin", "--type",
            "A", "--rank", "3", "--weight", "0,1,0", "--format", "json"]
    code, cold, _ = run(argv, capsys)
    assert code == 0
    entries = list(tmp_path.iterdir())
    assert len(entries) == 1
    code, warm, _ = run(argv, capsys)
    assert code == 0
    assert warm == cold


def test_cache_dir_flag_does_not_outlive_its_call(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setenv("SPINDLE_CACHE_DIR", "")
    code, _, _ = run(["--cache-dir", str(tmp_path), "compute", "dynkin",
                      "--type", "A", "--rank", "2", "--weight", "1,0"], capsys)
    assert code == 0
    before = sorted(tmp_path.iterdir())
    assert len(before) == 1
    code, _, _ = run(["compute", "character", "--type", "A", "--rank", "2",
                      "--weight", "1,0"], capsys)
    assert code == 0
    assert sorted(tmp_path.iterdir()) == before
    assert os.environ["SPINDLE_CACHE_DIR"] == ""


def test_cache_corruption_recovery(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    argv = ["--cache-dir", str(tmp_path), "compute", "dynkin", "--type",
            "A", "--rank", "3", "--weight", "0,1,0", "--format", "json"]
    _, cold, _ = run(argv, capsys)
    entry = next(tmp_path.iterdir())
    entry.write_text("garbage")
    code, again, err = run(argv, capsys)
    assert code == 0
    assert again == cold
    assert "corrupt cache entry" in err


def test_verify_suite_output(capsys):
    code, out, _ = run(["verify", "kostant-t0"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert all(l.startswith("PASS [kostant-t0]") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_respects_options(capsys):
    code, out, _ = run(["verify", "hermite", "--max-rank", "3"], capsys)
    assert code == 0
    assert "checks passed" in out


def test_verify_rejects_option_the_suite_does_not_read(capsys):
    code, out, err = run(["verify", "tensor-mf", "--max-rank", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: verify tensor-mf does not take --max-rank\n"


@pytest.mark.parametrize("argv,flags", [
    (["dynkin", "--type", "A", "--rank", "2", "--weight", "1,1",
      "--method", "weyl", "--dim-budget", "1"], "--dim-budget, --method"),
    (["character", "--type", "A", "--rank", "2", "--weight", "1,1",
      "--full-weyl", "--mu", "1,0"], "--mu, --full-weyl"),
    (["root-system", "--type", "A", "--rank", "2", "--weight", "1,1"],
     "--weight"),
    (["truncsym", "--n", "2", "--m", "2", "--type", "A"], "--type"),
])
def test_compute_rejects_option_the_subcommand_does_not_read(
        capsys, argv, flags):
    code, out, err = run(["compute"] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: compute {argv[0]} does not take {flags}\n"


@pytest.mark.parametrize("argv,command", [
    (["verify", "kostant-t0"], "verify"),
    (["compute", "t-poly", "--type", "A", "--rank", "2", "--weight", "1,1"],
     "compute t-poly"),
    (["compute", "end-alg-a", "--n", "2", "--kind", "S2"],
     "compute end-alg-a"),
])
def test_cache_dir_is_rejected_where_it_is_not_read(
        tmp_path, capsys, monkeypatch, argv, command):
    # caching is off unless the flag turns it on
    monkeypatch.setenv("SPINDLE_CACHE_DIR", "")
    code, out, err = run(["--cache-dir", str(tmp_path)] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {command} does not take --cache-dir\n"
    assert list(tmp_path.iterdir()) == []
    assert os.environ["SPINDLE_CACHE_DIR"] == ""


@pytest.mark.parametrize("sub", ["character", "dynkin", "f-lambda"])
def test_cache_dir_is_read_by_the_cached_subcommands(
        tmp_path, capsys, monkeypatch, sub):
    # caching is off unless the flag turns it on
    monkeypatch.setenv("SPINDLE_CACHE_DIR", "")
    argv = ["--cache-dir", str(tmp_path), "compute", sub, "--type", "A",
            "--rank", "2", "--weight", "1,0"]
    code, cold, _ = run(argv, capsys)
    assert code == 0
    assert len(list(tmp_path.iterdir())) == 1
    assert run(argv, capsys) == (0, cold, "")


@pytest.mark.parametrize("suite", ["dynkin-cross", "tensor-mf", "endalg",
                                   "lusztig-vs-jump"])
def test_verify_output_is_the_same_under_optimize(suite):
    # invariant checks raise exceptions, never assert, so -O changes nothing
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    outs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "spindle.cli", "verify", suite],
            env=env, capture_output=True, text=True, timeout=300,
        )
        for flags in ((), ("-O",))
    ]
    assert [p.returncode for p in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout
    assert outs[0].stdout.endswith(" checks passed\n")


def test_verify_all_output_is_pinned():
    # every check of every suite, line for line: a change that moves any
    # check's label or verdict changes this digest
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SPINDLE_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "spindle.cli", "verify", "all"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 1280
    assert lines[-1] == "1279/1279 checks passed"
    assert hashlib.md5(proc.stdout.encode()).hexdigest() == (
        "311ff35790ea5d3f3b7c948190a20657")


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "nonsense"])
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["compute", "foo"],
    ["compute", "dynkin", "--type", "A", "--rank", "x", "--weight", "1"],
    ["compute", "dynkin", "--type", "A", "--rank", "1", "--weight", "1",
     "--format", "xml"],
    ["verify", "nosuch"],
    [],
])
def test_parse_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("n,m,flag,value", [
    ("0", "2", "--n", "0"), ("2", "-1", "--m", "-1"), ("-3", "0", "--n", "-3"),
])
def test_truncsym_nonpositive_sides_are_a_usage_error(capsys, n, m, flag,
                                                      value):
    code, out, err = run(["compute", "truncsym", "--n", n, "--m", m], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be >= 1, got {value}\n"


@pytest.mark.parametrize("argv", [
    ["compute", "lusztig", "--type", "A", "--rank", "1", "--weight", "2",
     "--weyl-budget", "-5"],
    ["compute", "jump", "--type", "A", "--rank", "1", "--weight", "2",
     "--weyl-budget", "0"],
    ["compute", "character", "--type", "A", "--rank", "1", "--weight", "2",
     "--dim-budget", "0"],
    ["compute", "end-alg-a", "--n", "2", "--kind", "S2",
     "--matrix-budget", "-1"],
    ["verify", "table1", "--max-rank", "0"],
    ["verify", "lusztig-vs-jump", "--height-bound", "-1"],
])
def test_nonpositive_budgets_and_bounds_are_a_usage_error(capsys, argv):
    flag, value = argv[-2:]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be >= 1, got {value}\n"


def test_cache_dir_that_is_a_file_warns_and_still_answers(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setenv("SPINDLE_CACHE_DIR", "")
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    argv = ["compute", "dynkin", "--type", "E", "--rank", "6",
            "--weight", "1,0,0,0,0,0"]
    code, want, _ = run(argv, capsys)
    assert code == 0
    code, out, err = run(["--cache-dir", str(not_a_dir)] + argv, capsys)
    assert (code, out) == (0, want)
    assert err.startswith(f"warning: unusable cache directory {not_a_dir}")
    assert err.count("\n") == 1


# Start-up guard: stdlib modules that a compute or verify call does not use.
UNUSED_AT_START_UP = {"dataclasses", "inspect", "hashlib", "json",
                      "fractions", "decimal", "numbers"}


def _modules_after(code):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SPINDLE_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_start_up_imports_no_unused_stdlib_module():
    bare = _modules_after("pass")
    imported = _modules_after("import spindle.cli") - bare
    assert "spindle.cli" in imported
    assert not imported & UNUSED_AT_START_UP
    after_call = _modules_after(
        "from spindle import cli\n"
        "cli.main(['compute', 'root-system', '--type', 'A', '--rank', '1'])"
    ) - bare
    assert "spindle.rootsystem" in after_call
    assert not after_call & UNUSED_AT_START_UP
    module_route = _modules_after(
        "from spindle import cli\n"
        "cli.main(['compute', 'lusztig', '--type', 'A', '--rank', '2',"
        " '--weight', '1,1', '--method', 'module'])"
    ) - bare
    assert "spindle.modulerep" in module_route
    assert not module_route & UNUSED_AT_START_UP


def test_suite_parameters_match_the_signatures():
    import inspect

    from spindle import verify as vf

    for name in vf.SUITES:
        fn = vf._SUITE_FNS[name]
        params = inspect.signature(fn).parameters
        assert vf.suite_parameters(name) == tuple(params)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD
                   and p.default is not p.empty for p in params.values())
