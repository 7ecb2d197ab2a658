import argparse
import ast
import errno
import fcntl
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spindle import budget, cli

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


@pytest.mark.parametrize("argv,digest", [
    ("dynkin --type E --rank 8 --weight 0,0,0,0,0,0,0,20",
     "3e22cd0554296875034c3fe52a6a1b99"),
    ("t-poly --type E --rank 8 --weight 0,0,0,0,0,0,0,0",
     "965c369112909c53efc49911f3909520"),
])
def test_high_degree_text_display_golden(capsys, argv, digest):
    # D_lam of degree 1160 and t_0 of E8 printed factored into geometric
    # blocks: the display costs O(deg^2) at worst, so it must not dwarf
    # the computation
    start = time.perf_counter()
    code, out, _ = run(["compute"] + argv.split(), capsys)
    assert time.perf_counter() - start < 5
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_truncsym_deep_box_enumerates_without_recursion(capsys):
    # m = 5000 parts of size at most 1: the enumeration depth is m
    code, out, err = run(
        ["compute", "truncsym", "--n", "1", "--m", "5000",
         "--format", "json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"] == ["1"] * 5001


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
    # an empty --mu is parsed, not taken for a missing one
    for sub in ("lusztig", "jump"):
        code, out, err = run(
            ["compute", sub, "--type", "A", "--rank", "2", "--weight", "1,1",
             "--mu", ""], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: weight must be comma-separated integers, "
                       "got ''\n")


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


@pytest.mark.parametrize("option", ["--weight", "--mu"])
def test_a_negative_coordinate_is_refused_before_the_root_system_is_built(
        capsys, monkeypatch, option):
    def build(*args):
        raise AssertionError(f"root system {args} built")
    monkeypatch.setattr(cli, "build_root_system", build)
    weights = {"--weight": "1,1", "--mu": "0,0", option: "2,-1"}
    code, out, err = run(["compute", "lusztig", "--type", "A", "--rank", "2"]
                         + [f"{k}={v}" for k, v in weights.items()], capsys)
    assert (code, out) == (2, "")
    assert err == "error: (2, -1) is not dominant\n"


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
    assert capsys.readouterr() == (
        "", "error: unrecognized arguments: --full-weyl\n")


def test_compute_has_no_full_weyl_flag(capsys):
    # --weyl-budget is the one spelling of the Weyl limit
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "lusztig", "--type", "A", "--rank", "2",
                  "--weight", "1,1", "--full-weyl"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "error: unrecognized arguments: --full-weyl\n")


def test_exit_code_budget(capsys):
    code, _, err = run(
        ["compute", "character", "--type", "E", "--rank", "8",
         "--weight", "1,0,0,0,0,0,0,0", "--dim-budget", "100"], capsys)
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("cached", [False, True])
def test_dynkin_length_is_charged_to_the_dim_budget(capsys, tmp_path,
                                                    cached):
    # 2(lam, rho^vee) + 1 coefficients, refused before anything is built
    head = ["--cache-dir", str(tmp_path)] if cached else []
    argv = head + ["compute", "dynkin", "--type", "A", "--rank", "1",
                   "--weight", "99999999999999999999"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err == ("error: Dynkin polynomial length: 100000000000000000000"
                   " exceeds budget 1000000\n")
    argv = head + ["compute", "dynkin", "--type", "A", "--rank", "1",
                   "--weight", "5"]
    code, out, err = run(argv + ["--dim-budget", "5"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: Dynkin polynomial length: 6 exceeds budget 5\n"
    code, out, err = run(argv + ["--dim-budget", "6"], capsys)
    assert (code, err) == (0, "")
    assert out == "1 + q + q^2 + q^3 + q^4 + q^5\n"
    assert len(list(tmp_path.iterdir())) == int(cached)



NINES = "9" * 4300  # its successor has more digits than str() converts


@pytest.mark.parametrize("argv, err", [
    (["character", "--type", "E", "--rank", "8",
      "--weight", "9" * 100 + ",0,0,0,0,0,0,0"],
     "error: character dimension: about 10^7720 exceeds budget 1000000\n"),
    (["dynkin", "--type", "A", "--rank", "1", "--weight", NINES],
     "error: Dynkin polynomial length: about 10^4300 exceeds budget "
     "1000000\n"),
    (["lusztig", "--type", "A", "--rank", "2", "--weight", f"{NINES},{NINES}",
      "--mu", "0,0"],
     "error: Kostant partition table: 1 points + about 10^8600 cells "
     "exceeds budget 10000000\n"),
], ids=["character", "dynkin", "lusztig"])
def test_a_count_too_long_to_print_is_shown_by_its_size(capsys, argv, err):
    start = time.perf_counter()
    assert run(["compute", *argv], capsys) == (3, "", err)
    assert time.perf_counter() - start < 1


def test_truncsym_is_refused_before_the_binomial_is_finished(capsys):
    # C(2*10^6, 10^6) in full takes half a minute; its first partial
    # value over the limit is reached in 20 steps
    start = time.perf_counter()
    assert run(["compute", "truncsym", "--n", "1000000", "--m", "1000000"],
               capsys) == (3, "", "error: box partition enumeration: "
                                  "C(2000000, 1000000) exceeds budget 1000000\n")
    assert time.perf_counter() - start < 1
    assert run(["compute", "truncsym", "--n", "1", "--m", "1000000"],
               capsys) == (3, "", "error: box partition enumeration: "
                                  "C(1000001, 1000000) exceeds budget 1000000\n")


HUGE = str(10**12)
HUGE_E8 = f"{HUGE},0,0,0,0,0,0,0"


def _huge_a1(sub, *rest):
    return [sub, "--type", "A", "--rank", "1", "--weight", HUGE, *rest]


# One compute call per row at 10^12, with the exit code it must end in.
HUGE_INPUTS = [
    (_huge_a1("character"), 3),
    (_huge_a1("dynkin"), 3),
    (_huge_a1("jump"), 3),
    (_huge_a1("lusztig", "--mu", "0", "--method", "weyl"), 3),
    (_huge_a1("lusztig", "--mu", HUGE, "--method", "weyl"), 0),
    (_huge_a1("lusztig", "--mu", "0", "--method", "module"), 3),
    (_huge_a1("lusztig", "--mu", HUGE, "--method", "module"), 0),
    (["lusztig", "--type", "E", "--rank", "8", "--weight", HUGE_E8,
      "--mu", HUGE_E8, "--method", "module"], 0),
    (["lusztig", "--type", "E", "--rank", "8", "--weight", HUGE_E8,
      "--mu", "0,0,0,0,0,0,0,0", "--method", "module"], 3),
    (_huge_a1("t-poly"), 0),
    (_huge_a1("f-lambda"), 3),
    (_huge_a1("poincare-cg"), 3),
    (_huge_a1("poincare-ct"), 3),
    (_huge_a1("tensor-square"), 3),
    (["end-alg-a", "--n", HUGE, "--kind", "S2"], 3),
    (["end-alg-a", "--n", "2", "--kind", "S" + HUGE], 3),
    (["end-alg-a", "--n", "300000", "--kind", "S300000"], 3),
    (["truncsym", "--n", HUGE, "--m", HUGE], 3),
    # 870001 levels, under the limit; their first 64 hold more vectors
    (["lusztig", "--type", "E", "--rank", "8", "--weight",
      f"0,0,0,0,0,0,0,{HUGE}", "--mu", "0,0,0,0,0,0,0,999999970000",
      "--method", "module"], 3),
]


@pytest.mark.parametrize("argv, code", HUGE_INPUTS, ids=[
    " ".join(x.replace(HUGE, "1e12") for x in argv if x[:2] != "--")
    for argv, _ in HUGE_INPUTS])
def test_huge_inputs_end_in_their_exit_code_at_once(capsys, argv, code):
    start = time.perf_counter()
    got, out, err = run(["compute", *argv], capsys)
    assert time.perf_counter() - start < 1
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert (out, err) == ("1\n", "")


def test_huge_module_builds_are_refused_by_their_level_count(capsys):
    # the A1 module down to mu = 0 has one vector on each of its levels
    assert run(["compute", *HUGE_INPUTS[5][0]], capsys) == (
        3, "", "error: module dimension: 500000000001 levels exceeds "
               "budget 1000000\n")
    assert run(["compute", "end-alg-a", "--n", "300000", "--kind", "S300000"],
               capsys) == (3, "", "error: matrix model dimension: "
                                  "C(600000, 300000) exceeds budget 60\n")


@pytest.mark.parametrize("sub", ["character", "f-lambda"])
def test_a_cache_hit_meets_the_dim_budget(capsys, tmp_path, sub):
    # V(2,1) of A2 has dimension 15; a hit meets the limit a miss meets
    argv = ["--cache-dir", str(tmp_path), "compute", sub, "--type", "A",
            "--rank", "2", "--weight", "2,1"]
    refused = (3, "", "error: character dimension: 15 exceeds budget 1\n")
    assert run(argv + ["--dim-budget", "1"], capsys) == refused  # cold
    assert list(tmp_path.iterdir()) == []
    assert run(argv, capsys)[0] == 0
    assert len(list(tmp_path.iterdir())) == 1
    assert run(argv + ["--dim-budget", "1"], capsys) == refused  # warm
    assert run(argv[2:] + ["--dim-budget", "1"], capsys) == refused
    assert run(argv + ["--dim-budget", "15"], capsys)[0] == 0


def test_limits_do_not_leak_between_calls(capsys):
    # a refused call leaves no limit behind for the next one in the process
    argv = ["compute", "tensor-square", "--type", "A", "--rank", "2",
            "--weight", "1,1", "--format", "csv"]
    code, out, err = run(argv + ["--dim-budget", "1"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: character dimension: 8 exceeds budget 1\n"
    assert budget.limit("dim") == budget.DEFAULTS["dim"] == 10**6
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.split() == ["highest_weight,multiplicity", "(2,2),1",
                           "(0,3),1", "(3,0),1", "(1,1),2", "(0,0),1"]


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
    (["lusztig", "--method", "module", "--weyl-budget", "10000000000"],
     "lusztig does not take --weyl-budget"),
    # the closed form runs no Weyl sum, so it reads no Weyl limit, low or
    # lifted
    *(([sub, "--method", "closed", "--weyl-budget", value],
       f"{sub} does not take --weyl-budget")
      for sub in ("f-lambda", "jump", "poincare-cg")
      for value in ("5", "10000000000")),
    # the Weyl options of the method table are still refused elsewhere
    (["dynkin", "--weyl-budget", "5"], "dynkin does not take --weyl-budget"),
])
def test_method_a_subcommand_does_not_have_is_a_usage_error(
        capsys, argv, message):
    code, out, err = run(["compute", argv[0], "--type", "A", "--rank", "2",
                          "--weight", "1,1"] + argv[1:], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: compute {message}\n"


def test_lusztig_module_method_reads_the_dim_budget(capsys):
    # the module route charges the dim limit when it builds the module
    argv = ["compute", "lusztig", "--type", "A", "--rank", "2", "--weight",
            "2,2", "--method", "module"]
    assert run(argv + ["--dim-budget", "5"], capsys) == (
        3, "", "error: module dimension: 16 exceeds budget 5\n")
    assert run(argv + ["--dim-budget", "16"], capsys) == run(argv, capsys)


def test_truncsym_reads_the_dim_budget(capsys):
    # the C(n + m, m) box partitions are a basis of V(m omega1) of A_n
    argv = ["compute", "truncsym", "--n", "2", "--m", "3"]
    assert run(argv + ["--dim-budget", "9"], capsys) == (
        3, "", "error: box partition enumeration: C(5, 3) exceeds budget 9\n")
    assert run(argv + ["--dim-budget", "10"], capsys) == run(argv, capsys)


def test_each_subcommand_that_reads_method_lists_its_methods():
    for sub, (reads, methods, _) in cli.COMPUTE.items():
        assert bool(methods) == ("method" in reads), sub


# One light case per row of cli.COMPUTE, with the md5 of its text, json
# and csv outputs in that order.
FORMAT_CASES = [
    ("root-system --type G --rank 2",
     "9de43796716d629f14edfcd9ba202ad0"),
    ("character --type A --rank 2 --weight 1,1",
     "50d75cc02d1a9120283588feaad9e6f1"),
    ("dynkin --type G --rank 2 --weight 1,0",
     "3823d7e38ff15e0eaa6b8be5ee924682"),
    ("jump --type A --rank 2 --weight 2,0 --mu 0,1",
     "955058ab5f49d5a6753029b0cd2ea03c"),
    ("lusztig --type B --rank 2 --weight 0,2",
     "7790e309470b753458af8ea2c38c8f82"),
    ("t-poly --type B --rank 3 --weight 0,1,0",
     "735a92c97996486b05e18bd5aead0670"),
    ("f-lambda --type C --rank 3 --weight 0,1,0",
     "654387b7002bc7bf758df00555d977b3"),
    ("poincare-cg --type B --rank 2 --weight 1,0",
     "3e86d4ca79aee991109a6ac81ccfe6e5"),
    ("poincare-ct --type B --rank 2 --weight 1,0",
     "9017811887e0d36ba2859815d5384cac"),
    ("tensor-square --type G --rank 2 --weight 1,0",
     "8ad57e812a461d2ec4b1fb2007e61455"),
    ("end-alg-a --n 2 --kind S2",
     "1cab77dc0acef72550006f440b0c0e02"),
    ("truncsym --n 2 --m 3",
     "65cec8c065698ebbe5e62ea3d9b3158f"),
]


def test_format_cases_cover_every_subcommand():
    assert [argv.split()[0] for argv, _ in FORMAT_CASES] == list(cli.COMPUTE)


@pytest.mark.parametrize("argv,digest", FORMAT_CASES)
def test_each_subcommand_output_is_pinned_in_every_format(capsys, argv,
                                                          digest):
    md5 = hashlib.md5()
    for fmt in ("text", "json", "csv"):
        code, out, err = run(["compute"] + argv.split() + ["--format", fmt],
                             capsys)
        assert (code, err) == (0, "")
        md5.update(out.encode())
    assert md5.hexdigest() == digest


def test_each_error_class_carries_its_exit_code():
    from spindle import errors

    assert {cls.__name__: cls.exit_code for cls in (
        errors.SpindleError, errors.InternalConsistencyError,
        errors.UsageError, errors.DomainError, errors.ExactDivisionError,
        errors.ResourceBudgetError)} == {
        "SpindleError": 1, "InternalConsistencyError": 1, "UsageError": 2,
        "DomainError": 2, "ExactDivisionError": 2, "ResourceBudgetError": 3}


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
    code, lifted, _ = run(argv + ["--weyl-budget", "10000000000"], capsys)
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


def test_cache_round_trip(tmp_path, capsys):
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
    # the flag is the one spelling of the cache directory: a set
    # SPINDLE_CACHE_DIR alone writes no entry
    flag_dir, env_dir = tmp_path / "flag", tmp_path / "env"
    monkeypatch.setenv("SPINDLE_CACHE_DIR", str(env_dir))
    argv = ["compute", "dynkin", "--type", "A", "--rank", "2",
            "--weight", "1,0"]
    code, cold, _ = run(["--cache-dir", str(flag_dir)] + argv, capsys)
    assert code == 0
    before = sorted(flag_dir.iterdir())
    assert len(before) == 1
    assert run(argv, capsys) == (0, cold, "")
    code, _, _ = run(["compute", "character", "--type", "A", "--rank", "2",
                      "--weight", "1,0"], capsys)
    assert code == 0
    assert sorted(flag_dir.iterdir()) == before
    assert not env_dir.exists()


def test_cache_corruption_recovery(tmp_path, capsys):
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
    (["t-poly", "--type", "A", "--rank", "2", "--weight", "1,1",
      "--method", "weyl", "--dim-budget", "1"], "--dim-budget, --method"),
    (["character", "--type", "A", "--rank", "2", "--weight", "1,1",
      "--weyl-budget", "5", "--mu", "1,0"], "--mu, --weyl-budget"),
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
        tmp_path, capsys, argv, command):
    code, out, err = run(["--cache-dir", str(tmp_path)] + argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {command} does not take --cache-dir\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sub", ["character", "dynkin", "f-lambda"])
def test_cache_dir_is_read_by_the_cached_subcommands(
        tmp_path, capsys, sub):
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
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
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



def test_a_closed_pipe_ends_in_one_error_line():
    # a pipe of one page holds less than the output of verify all, so the
    # call is still writing when the reader closes it after one line
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "spindle.cli", "verify", "all"],
        env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    os.close(write_end)
    with open(read_end) as pipe:
        assert pipe.readline().startswith("PASS [")
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1
    assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_output_that_cannot_be_written_is_one_error_line(capsys, monkeypatch,
                                                        failing):
    # a buffered write fails only at the flush, which is caught as well
    class Full(io.StringIO):
        def write(self, text):
            if failing == "write":
                raise OSError(errno.ENOSPC, "No space left on device")

        def flush(self):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    code = cli.main(["compute", "dynkin", "--type", "A", "--rank", "1",
                     "--weight", "1"])
    # the rest of the output goes nowhere, not to the interpreter's exit
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == ("error: cannot write output: [Errno 28] No space left on "
                   "device\n")


def test_an_oserror_of_the_computation_is_not_taken_for_the_output(
        capsys, monkeypatch):
    def broken(args, rs):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setitem(cli.COMPUTE, "truncsym", (("n", "m"), (), broken))
    with pytest.raises(OSError, match="Input/output error"):
        cli.main(["compute", "truncsym", "--n", "2", "--m", "2"])
    assert capsys.readouterr() == ("", "")


def test_tensor_mf_fails_a_table_row_that_is_not_wmf(capsys, monkeypatch):
    # the adjoint of A2 is not wmf and its square holds the adjoint twice
    from spindle import verify as vf
    from spindle.rootsystem import build_root_system

    entries = vf._table1_entries
    a2 = build_root_system("A", 2)
    monkeypatch.setattr(vf, "_table1_entries", lambda dim_cap: [
        *entries(dim_cap), (a2, (1, 1))])
    code, out, _ = run(["verify", "tensor-mf"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[-2].startswith(
        "FAIL [tensor-mf] A2 (1, 1) multiplicity-free square :: ")
    assert [line for line in lines if line.startswith("FAIL")] == lines[-2:-1]
    assert lines[-1] == "150/151 checks passed"


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


def test_cache_dir_that_is_a_file_warns_and_still_answers(tmp_path, capsys):
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
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_start_up_imports_no_unused_stdlib_module(tmp_path):
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
    # a cached call, a miss and then a hit, loads json but never OpenSSL
    for _ in range(2):
        cached_call = _modules_after(
            "from spindle import cli\n"
            f"cli.main(['--cache-dir', {str(tmp_path)!r}, 'compute', 'dynkin',"
            " '--type', 'A', '--rank', '2', '--weight', '1,1'])"
        ) - bare
        assert "json" in cached_call
        assert not cached_call & {"hashlib", "_hashlib"}
    assert len(list(tmp_path.iterdir())) == 1


def test_suite_parameters_match_the_signatures():
    import inspect

    from spindle import verify as vf

    for name in vf.SUITES:
        fn = vf.SUITES[name]
        params = inspect.signature(fn).parameters
        assert vf.suite_parameters(name) == tuple(params)
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD
                   and p.default is not p.empty for p in params.values())


# Every value a caller can set, each with one spelling: the options of the
# top-level parser and of its compute and verify parsers.  No environment
# variable is read.
SETTABLE = {
    "--cache-dir",
    "--type", "--rank", "--weight", "--mu", "--format", "--method", "--n",
    "--m", "--kind", "--weyl-budget", "--dim-budget", "--matrix-budget",
    "--max-rank", "--height-bound",
}


def _option_strings(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_strings(sub)
        else:
            yield from (o for o in action.option_strings
                        if o not in ("-h", "--help"))


def test_the_settable_values_are_pinned():
    options = list(_option_strings(cli.build_parser()))
    assert len(options) == len(SETTABLE) == 15
    assert set(options) == SETTABLE
    env_reads = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted((SRC / "spindle").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([node.attr] if isinstance(node, ast.Attribute)
                     else [node.id] if isinstance(node, ast.Name)
                     else [a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            assert not env_reads.intersection(names), (path.name, node.lineno)
    # pip's own flags in the install lines are not the CLI's
    readme = (SRC.parent / "README.md").read_text().splitlines()
    named = {flag for line in readme if not line.startswith("pip ")
             for flag in re.findall(r"--[a-z][a-z-]*", line)}
    assert named <= SETTABLE, named - SETTABLE
