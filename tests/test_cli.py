"""End-to-end CLI behavior, exit codes, and file formats."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from faircon import dp, simplex
from faircon.cli import SOLVERS, _bench_row, build_parser, main
from faircon.errors import InvalidInstanceError
from faircon.serialize import dump_json, instance_to_dict, load_json
from faircon.instances import FAMILIES, gen_partition_ef1, gen_random, gen_two_agent_hard, make


REPO = Path(__file__).resolve().parents[1]
POF_CONFIG = REPO / "bench" / "pof.json"


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def ex52_path(tmp_path, ex52):
    path = tmp_path / "ex52.json"
    dump_json(instance_to_dict(ex52), str(path))
    return path


class TestGenerate:
    def test_writes_instance_and_manifest(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run(["generate", "partition-ef", "--set", "1,2,3", "--out", out]) == 0
        data = load_json(str(out))
        assert data["n"] == 3 and data["m"] == 4
        manifest = load_json(str(out) + ".manifest.json")
        assert manifest["generator"] == "partition-ef"
        assert manifest["params"]["set"] == [1, 2, 3]

    def test_pof_sqrt_shape(self, tmp_path):
        out = tmp_path / "pof.json"
        assert run(["generate", "pof-sqrt", "--n", 9, "--out", out]) == 0
        data = load_json(str(out))
        assert data["n"] == 9 and data["m"] == 9

    def test_random_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "random", "--n", 3, "--m", 4, "--seed", 5, "--profile", "uniform"]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_parameter(self, tmp_path):
        out = ["--out", tmp_path / "x.json"]
        assert run(["generate", "partition-ef", *out]) == 3
        assert run(["generate", "pof-sqrt", *out]) == 3
        assert run(["generate", "random", "--m", 2, *out]) == 3
        assert run(["generate", "random", "--n", 2, *out]) == 3
        assert not (tmp_path / "x.json").exists()

    def test_set_and_graph_read_integers_like_the_other_flags(self, tmp_path, capsys):
        # --set 1,2.0 used to exit 3 though make() and a bench-pof row take
        # 2.0 as 2; 1.5 and true still exit 3.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for family, flag, ints, floats, bads, kind in (
            ("partition-ef", "--set", "1,2", "1,2.0", ("1,1.5", "1,true"), "integers"),
            ("independent-set", "--graph", "0-1,1-2", "0-1.0,1-2", ("0-1.5", "0-true"),
             "edge_list"),
        ):
            assert run(["generate", family, flag, ints, "--out", a]) == 0
            assert run(["generate", family, flag, floats, "--out", b]) == 0
            assert a.read_bytes() == b.read_bytes()
            manifests = [Path(f"{path}.manifest.json").read_bytes() for path in (a, b)]
            assert manifests[0] == manifests[1]
            b.unlink()
            for bad in bads:
                assert run(["generate", family, flag, bad, "--out", b]) == 3
                assert f"{flag}: invalid {kind} value: '{bad}'" in capsys.readouterr().err
                assert not b.exists()

    def test_flag_the_family_does_not_take_invalid(self, tmp_path, capsys):
        # Each used to exit 0, leaving the flag out of instance and manifest.
        out = tmp_path / "x.json"
        for family, args, flag in (
            ("partition-ef", ["--set", "1,2", "--eps", "1/10"], "--eps"),
            ("random", ["--n", 2, "--m", 2, "--id", "5.2"], "--id"),
            ("example", ["--id", "5.2", "--eps", "1/4", "--set", "3"], "--set"),
        ):
            assert run(["generate", family, *args, "--out", out]) == 3
            assert f"{flag} is not a parameter of {family}" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_example_id(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["generate", "example", "--eps", "1/4", "--out", out]) == 3
        assert "--id is required for example" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_exact_ef_example(self, tmp_path, ex52_path):
        out = tmp_path / "sol.json"
        code = run(["solve", ex52_path, "--method", "exact-ef", "--exact-arith", "--out", out])
        assert code == 0
        sol = load_json(str(out))
        assert sol["revenue"] == "9/100"
        assert sol["contract"]["assignment"] == [0]
        assert sol["fairness"]["ef_ok"] is True

    def test_greedy_single_agent_equals_opt(self, tmp_path):
        inst = gen_random(1, 4, 77)
        path = tmp_path / "single.json"
        dump_json(instance_to_dict(inst), str(path))
        out = tmp_path / "sol.json"
        assert run(["solve", path, "--method", "greedy", "--out", out]) == 0
        sol = load_json(str(out))
        from faircon.core import unconstrained_opt

        assert abs(sol["revenue"] - float(unconstrained_opt(inst))) < 1e-9

    def test_dp_ef1_roundtrips_through_verify(self, tmp_path):
        inst = gen_random(2, 3, 88)
        ipath = tmp_path / "inst.json"
        dump_json(instance_to_dict(inst), str(ipath))
        out = tmp_path / "sol.json"
        code = run([
            "solve", ipath, "--method", "dp-ef1", "--eps", "0.25",
            "--f-bits", 6, "--exact-arith", "--out", out,
        ])
        assert code == 0
        sol = load_json(str(out))
        kpath = tmp_path / "contract.json"
        dump_json(sol["contract"], str(kpath))
        assert run(["verify", ipath, kpath, "--notion", "ef1", "--tol", "0"]) == 0

    @pytest.mark.parametrize("exact,guess", [(True, ["1/16", 0]), (False, [0.0625, 0])])
    def test_dp_ef1_guess_is_a_list_of_numbers(self, tmp_path, ex52_path, exact, guess):
        out = tmp_path / "sol.json"
        argv = ["solve", ex52_path, "--method", "dp-ef1", "--eps", "1/4", "--f-bits", 6, "--out", out]
        assert run(argv + (["--exact-arith"] if exact else [])) == 0
        assert load_json(str(out))["meta"]["guess"] == guess

    def test_eps_method_requires_eps(self, ex52_path):
        assert run(["solve", ex52_path, "--method", "dp-eps-ef"]) == 3

    def test_usage_errors_exit_invalid(self, tmp_path, ex52_path):
        assert run(["solve", ex52_path, "--method", "nope"]) == 3
        assert run(["solve", ex52_path]) == 3
        dp_ef1 = ["solve", ex52_path, "--method", "dp-ef1", "--eps", "1/4"]
        assert run(dp_ef1 + ["--f-bits", -20]) == 3
        assert run(["solve", "--help"]) == 0
        # A zero denominator is malformed input, not a failed verification.
        assert run(["solve", ex52_path, "--method", "dp-eps-ef", "--eps", "1/0"]) == 3
        assert run(["solve", ex52_path, "--method", "greedy", "--tol", "1/0"]) == 3
        out = tmp_path / "x.json"
        assert run(["generate", "partition-eps-ef", "--set", "1", "--eps", "1/0", "--out", out]) == 3
        bad = tmp_path / "zero-den.json"
        bad.write_text('{"r": ["1/0"], "p": [["1"]], "c": [["0"]]}')
        assert run(["solve", bad, "--method", "greedy"]) == 3

    def test_budget_exit_code(self, ex52_path):
        assert run(["solve", ex52_path, "--method", "exact-ef", "--budget-lps", "1"]) == 2

    def test_guess_count_charged_before_ladder(self, ex52_path, capsys, monkeypatch):
        # m = 1 and f_bits 50 give 52 rungs per agent, 52^2 guesses for two
        # agents; the budget fires before a single rung is built.
        def no_ladder(*_):
            raise AssertionError("guess ladder built before its count was charged")

        monkeypatch.setattr(dp, "utility_guesses", no_ladder)
        argv = ["solve", ex52_path, "--method", "dp-ef1", "--eps", "1/4", "--f-bits", 50]
        assert run(argv + ["--budget-states", 100]) == 2
        assert "states budget of 100 exceeded (needs ~2704)" in capsys.readouterr().err

    def test_grid_points_charged_before_grid(self, ex52_path, capsys, monkeypatch):
        # At eps 1e-12 the grids would hold ~10^12 points; the budget fires
        # on that count before either grid builder runs.
        def no_grid(*_):
            raise AssertionError("grid built before its points were charged")

        monkeypatch.setattr(dp, "uniform_grid", no_grid)
        monkeypatch.setattr(dp, "adaptive_grid", no_grid)
        for method, need in (("dp-eps-ef", 3 * 10**12 + 1), ("dp-ef1", 2 * 10**12 + 1)):
            assert run(["solve", ex52_path, "--method", method, "--eps", "1e-12"]) == 2
            assert f"states budget of 5000000 exceeded (needs ~{need})" in capsys.readouterr().err

    def test_state_budget_equal_to_reported_states_suffices(self, tmp_path, capsys):
        # Pruned states are never charged: the smallest budget that succeeds
        # is the states the solve reports, over dp-ef1's guesses and
        # dp-eps-ef's runs alike, unless the grid points, charged before the
        # grid is built, are more; one less fails needing that count.
        # tah-1-2 answers on its first, floored run, with 74 states on 121
        # grid points; the 3x3 draw lowers its floor four times, and its
        # last run is the one that overruns.
        cases = [
            (gen_partition_ef1([1]), ["dp-ef1", "--eps", "1/6", "--f-bits", 1], 8659, 7, 8659),
            (gen_two_agent_hard([1, 2]), ["dp-eps-ef", "--eps", "1/10"], 74, 1, 121),
            (gen_random(3, 3, 21), ["dp-eps-ef", "--eps", "1/20"], 1539, 5, 1539),
        ]
        for inst, method, states, runs, need in cases:
            path = tmp_path / "inst.json"
            dump_json(instance_to_dict(inst), str(path))
            out = tmp_path / "sol.json"
            argv = ["solve", path, "--method", *method]
            assert run(argv + ["--budget-states", need, "--out", out]) == 0
            meta = load_json(str(out))["meta"]
            assert (meta["states"], meta["runs"]) == (states, runs)
            assert need == max(states, meta.get("grid_points", 0))
            capsys.readouterr()
            assert run(argv + ["--budget-states", need - 1]) == 2
            err = capsys.readouterr().err
            assert f"states budget of {need - 1} exceeded (needs ~{need})" in err

    def test_readme_dp_ef1_command(self, tmp_path):
        # The README's dp-ef1 command at the default f_bits (158 rungs per
        # agent, 24,964 guesses): guess (0, 0) already earns
        # unconstrained_opt, so the solve stops after that one DP run.
        rand, sol = tmp_path / "rand.json", tmp_path / "sol.json"
        gen = ["generate", "random", "--n", 2, "--m", 4, "--seed", 7, "--profile", "sparse-ability"]
        assert run(gen + ["--out", rand]) == 0
        started = time.time()
        assert run(["solve", rand, "--method", "dp-ef1", "--eps", "0.25", "--out", sol]) == 0
        elapsed = time.time() - started
        out = load_json(str(sol))
        assert F(out["revenue"]) == F(1937, 2048)
        assert (out["meta"]["guesses"], out["meta"]["guesses_pruned"]) == (1, 0)
        assert elapsed < 10

    def test_negative_tol_invalid(self, tmp_path, ex52_path, capsys):
        # The greedy contract is exactly EF; a negative tol used to fail it.
        out = tmp_path / "sol.json"
        argv = ["solve", ex52_path, "--method", "greedy", "--tol", "-1", "--out", out]
        assert run(argv) == 3
        assert "tol must be nonnegative" in capsys.readouterr().err
        assert not out.exists()
        assert run(argv[:-4] + ["--tol", "0", "--exact-arith", "--out", out]) == 0
        kpath = tmp_path / "k.json"
        dump_json(load_json(str(out))["contract"], str(kpath))
        verify = ["verify", ex52_path, kpath, "--notion", "ef"]
        assert run(verify + ["--tol", "-1"]) == 3
        assert "tol must be nonnegative" in capsys.readouterr().err
        assert run(verify + ["--tol", "0"]) == 0

    def test_bad_tol_fails_before_the_solve(self, tmp_path, ex52_path, capsys):
        # The search exceeds --budget-lps 1, so a solve that started would exit
        # 2; a rejected --tol exits 3 before it.
        part = tmp_path / "part.json"
        assert run(["generate", "partition-ef", "--set", "1,2,3", "--out", part]) == 0
        solve = ["solve", part, "--method", "exact-ef", "--budget-lps", 1]
        assert run(solve) == 2
        for tol in ("-1", "abc"):
            assert run(solve + ["--tol", tol]) == 3
            assert "argument --tol" in capsys.readouterr().err
        kpath = tmp_path / "k.json"
        dump_json({"assignment": [0], "alpha": ["1/10"]}, str(kpath))
        assert run(["verify", ex52_path, kpath, "--notion", "ef", "--tol", "abc"]) == 3
        assert "argument --tol" in capsys.readouterr().err

    def test_infeasible_lp_point_exits_invalid(self, ex52_path, capsys, monkeypatch):
        # A failed LP certificate is an error exit, not a traceback.  The
        # certificate is handed x = 0, which breaks the first IR row.
        check = simplex._certify

        def at_zero(cost, rows, x, *rest):
            check(cost, rows, [0] * len(x), *rest)

        monkeypatch.setattr(simplex, "_certify", at_zero)
        assert run(["solve", ex52_path, "--method", "exact-ef"]) == 3
        assert "error: simplex certificate: infeasible point at row 0" in capsys.readouterr().err

    def test_non_integral_declared_size_invalid(self, tmp_path, ex52, capsys):
        # A file declaring n 2.9 used to load as 2 agents, and m 1.5 as 1 task.
        path, out = tmp_path / "inst.json", tmp_path / "sol.json"
        for key, bad in (("n", 2.9), ("m", 1.5)):
            dump_json(instance_to_dict(ex52) | {key: bad}, str(path))
            assert run(["solve", path, "--method", "greedy"]) == 3
            assert f"error: declared {key} {bad!r} is not an integer" in capsys.readouterr().err
        dump_json(instance_to_dict(ex52) | {"n": 2.0, "m": 1.0}, str(path))
        assert run(["solve", path, "--method", "greedy", "--out", out]) == 0

    def test_declared_size_must_match_the_rows(self, tmp_path, ex52, capsys):
        path = tmp_path / "inst.json"
        for key, size, rows in (("n", 3, "p/c rows"), ("m", 2, "r length")):
            dump_json(instance_to_dict(ex52) | {key: size}, str(path))
            assert run(["solve", path, "--method", "greedy"]) == 3
            assert f"error: declared {key} does not match {rows}" in capsys.readouterr().err

    def test_bad_instance_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"r\": [2], \"p\": [[1]], \"c\": [[0]]}")
        assert run(["solve", bad, "--method", "greedy"]) == 3


class TestVerify:
    def test_envious_contract_fails_with_slacks(self, tmp_path, ex52_path):
        kpath = tmp_path / "bad_contract.json"
        dump_json({"assignment": [1], "alpha": [0.5]}, str(kpath))
        out = tmp_path / "report.json"
        code = run(["verify", ex52_path, kpath, "--notion", "ef", "--out", out])
        assert code == 1
        rep = load_json(str(out))
        assert rep["ok"] is False
        assert rep["ef_slacks"][0][1] == pytest.approx(-0.04)

    def test_example_54_efs_passes(self, tmp_path, ex52_path):
        kpath = tmp_path / "efs_contract.json"
        dump_json(
            {"assignment": [1], "alpha": ["3/5"], "subsidies": ["1/20", 0]},
            str(kpath),
        )
        assert run(["verify", ex52_path, kpath, "--notion", "efs", "--tol", "0"]) == 0

    def test_stdout_matches_out_file(self, tmp_path, ex52_path, capsys):
        kpath = tmp_path / "k.json"
        dump_json({"assignment": [1], "alpha": ["1/2"]}, str(kpath))
        out = tmp_path / "report.json"
        argv = ["verify", ex52_path, kpath, "--notion", "ef", "--exact-arith"]
        assert run(argv + ["--out", out]) == 1
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().out == out.read_text()

    def test_non_integral_agent_index_invalid(self, tmp_path, ex52_path, capsys):
        # 0.7 used to be read as agent 0 and true as agent 1.
        kpath = tmp_path / "k.json"
        for bad in (0.7, True):
            dump_json({"assignment": [bad], "alpha": ["1/10"]}, str(kpath))
            assert run(["verify", ex52_path, kpath, "--notion", "ef"]) == 3
            assert "is not an integer" in capsys.readouterr().err
        dump_json({"assignment": [1.0], "alpha": ["3/5"]}, str(kpath))
        assert run(["verify", ex52_path, kpath, "--notion", "ef1"]) == 0

    def test_efs_without_subsidies_invalid(self, tmp_path, ex52_path, capsys):
        kpath = tmp_path / "k.json"
        dump_json({"assignment": [0], "alpha": [0.1]}, str(kpath))
        assert run(["verify", ex52_path, kpath, "--notion", "efs"]) == 3
        assert "error: contract has no subsidies" in capsys.readouterr().err

    def test_eps_ef_without_eps_invalid(self, tmp_path, ex52_path, capsys):
        kpath = tmp_path / "k.json"
        dump_json({"assignment": [1], "alpha": ["3/5"]}, str(kpath))
        assert run(["verify", ex52_path, kpath, "--notion", "eps-ef"]) == 3
        assert "error: eps-ef verification requires --eps" in capsys.readouterr().err
        assert run(["verify", ex52_path, kpath, "--notion", "eps-ef", "--eps", "1/10"]) == 0

    def test_contract_without_alpha_invalid(self, tmp_path, ex52_path, capsys):
        kpath = tmp_path / "k.json"
        dump_json({"assignment": [1]}, str(kpath))
        assert run(["verify", ex52_path, kpath, "--notion", "ef"]) == 3
        assert "error: bad contract JSON: 'alpha'" in capsys.readouterr().err


class TestBenchPof:
    def test_example_sweep(self, tmp_path):
        config = {
            "rows": [
                {
                    "id": "ex52-1e2",
                    "family": "example",
                    "params": {"id": "5.2", "eps": "1/100"},
                    "ef_method": "exact-ef",
                    "ef1_method": "round-robin",
                },
                {
                    "id": "ex52-1e3",
                    "family": "example",
                    "params": {"id": "5.2", "eps": "1/1000"},
                    "ef_method": "exact-ef",
                    "ef1_method": "round-robin",
                },
                {
                    "id": "single",
                    "family": "random",
                    "params": {"n": 1, "m": 3, "seed": 2},
                    "ef_method": "exact-ef",
                    "ef1_method": "round-robin",
                },
                {
                    "id": "broken",
                    "family": "no-such-family",
                    "params": {},
                },
                {
                    "id": "no-eps",
                    "family": "example",
                    "params": {"id": "5.2", "eps": "1/100"},
                    "ef_method": "dp-eps-ef",
                    "ef1_method": "round-robin",
                },
                {
                    "id": "dp",
                    "family": "example",
                    "params": {"id": "5.2", "eps": "1/100"},
                    "eps": "1/4",
                    "ef_method": "dp-eps-ef",
                    "ef1_method": "round-robin",
                },
            ]
        }
        cpath = tmp_path / "bench.json"
        dump_json(config, str(cpath))
        out = tmp_path / "pof.csv"
        assert run(["bench-pof", cpath, "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        ids = [r["instance_id"] for r in rows]
        assert ids == ["ex52-1e2", "ex52-1e3", "single", "broken", "no-eps", "dp"]
        # Price of envy-freeness on the example is exactly 36 eps.
        assert float(rows[0]["ratio_ef"]) == pytest.approx(0.36, abs=1e-9)
        assert float(rows[1]["ratio_ef"]) == pytest.approx(0.036, abs=1e-9)
        assert float(rows[2]["ratio_ef"]) == pytest.approx(1.0, abs=1e-12)
        assert rows[3]["error"]
        assert rows[4]["error"] == "InvalidInstanceError: method dp-eps-ef requires eps"
        # LP and DP-state counts sit in their own columns.
        assert int(rows[0]["lp_solves"]) > 0 and int(rows[0]["states"]) == 0
        assert not rows[5]["error"] and int(rows[5]["states"]) > 0
        # EF1 lower bound never falls below the EF optimum on these rows.
        for r in rows[:3]:
            assert float(r["ratio_ef1"]) >= float(r["ratio_ef"]) - 1e-12

    def test_readme_config(self, tmp_path):
        # `faircon bench-pof bench/pof.json` from the README: the price of
        # envy-freeness on example 5.2 is exactly 36 eps, of EF1 exactly 1.
        out = tmp_path / "pof.csv"
        assert run(["bench-pof", POF_CONFIG, "--out", out, "--jobs", 2]) == 0
        rows = list(csv.DictReader(open(out)))
        assert [r["instance_id"] for r in rows] == ["ex52-1e2", "ex52-1e3", "ex52-1e4"]
        assert [F(r["ratio_ef"]) for r in rows] == [F(9, 25), F(9, 250), F(9, 2500)]
        assert [F(r["ratio_ef1"]) for r in rows] == [1, 1, 1]
        assert not any(r["error"] for r in rows)

    def test_malformed_config(self, tmp_path, capsys):
        cpath, out = tmp_path / "bench.json", tmp_path / "pof.csv"
        for config in ([], {"rows": 5}):
            cpath.write_text(json.dumps(config))
            assert run(["bench-pof", cpath, "--out", out]) == 3
            assert "rows are a list" in capsys.readouterr().err
        good = {"id": "ok", "family": "example", "params": {"id": "5.2", "eps": "1/100"}}
        cpath.write_text(json.dumps({"rows": [7, good]}))
        assert run(["bench-pof", cpath, "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        assert rows[0]["error"] == "InvalidInstanceError: row 7 is not an object"
        assert rows[1]["instance_id"] == "ok" and not rows[1]["error"]

    @pytest.mark.parametrize("key", ["budget_lps", "budget_states"])
    def test_non_integral_setting_invalid(self, tmp_path, capsys, key):
        # 1.5 used to run as 1, and true as 1; a budget of 0 or -1 failed
        # every row instead of the run.
        cpath, out = tmp_path / "bench.json", tmp_path / "pof.csv"
        row = {"id": "ok", "family": "example", "params": {"id": "5.2", "eps": "1/100"}}
        for bad, why in ((1.5, "an integer"), (True, "an integer"), (0, "a positive integer"),
                         (-1, "a positive integer")):
            cpath.write_text(json.dumps({key: bad, "rows": [row]}))
            assert run(["bench-pof", cpath, "--out", out]) == 3
            assert f"{key} {bad!r} is not {why}" in capsys.readouterr().err
            assert not out.exists()
        cpath.write_text(json.dumps({key: 1000.0, "rows": [row]}))
        assert run(["bench-pof", cpath, "--out", out]) == 0

    @pytest.mark.parametrize("bad", ["0", "-1", "1.5"])
    def test_count_flag_below_one_invalid(self, tmp_path, ex52_path, capsys, bad):
        # --budget-lps -3 used to exit 2 ("budget of -3 exceeded"), --jobs 0
        # fell back to the config's jobs, and --jobs -2 ran serially.
        out = tmp_path / "out"
        solve = ["solve", ex52_path, "--method", "exact-ef", "--out", out]
        for argv in (
            solve + ["--budget-lps", bad],
            solve + ["--budget-states", bad],
            ["bench-pof", POF_CONFIG, "--out", out, "--jobs", bad],
        ):
            assert run(argv) == 3
            assert f"invalid count value: '{bad}'" in capsys.readouterr().err
            assert not out.exists()

    def test_integral_flags_take_the_config_forms(self, tmp_path, ex52_path, capsys):
        # --budget-lps 4.0, --jobs 4.0 and --f-bits 2.0 used to exit 3,
        # though a bench-pof config takes 4.0; true and 1.5 still exit 3.
        out = tmp_path / "out"
        solve = ["solve", ex52_path, "--method", "dp-ef1", "--eps", "1/4", "--out", out]
        assert run(solve + ["--f-bits", "2.0", "--budget-lps", "4.0", "--budget-states", "1e6"]) == 0
        assert load_json(str(out))["meta"]["f_bits"] == 2
        assert run(["bench-pof", POF_CONFIG, "--out", out, "--jobs", "2.0"]) == 0
        out.unlink()
        for bad in ("true", "1.5"):
            for argv, kind in (
                (solve + ["--f-bits", bad], "integer"),
                (solve + ["--budget-lps", bad], "count"),
                (["bench-pof", POF_CONFIG, "--out", out, "--jobs", bad], "count"),
            ):
                assert run(argv) == 3
                assert f"invalid {kind} value: '{bad}'" in capsys.readouterr().err
                assert not out.exists()

    def test_row_f_bits_is_read_as_an_integer(self):
        # Example 5.2 at eps 1/20 by dp-ef1 at eps 1/4: f_bits true used to
        # run as 1 bit, and 2.0 and "2" failed the row with a TypeError.
        row = {"family": "example", "params": {"id": "5.2", "eps": "1/20"}, "eps": "1/4",
               "ef1_method": "dp-ef1"}
        good = _bench_row({**row, "f_bits": 2}, 1000, 10**6)
        assert not good["error"]
        for f_bits in (2.0, "2"):
            assert _bench_row({**row, "f_bits": f_bits}, 1000, 10**6) == good
        for f_bits in (True, 1.5):
            out = _bench_row({**row, "f_bits": f_bits}, 1000, 10**6)
            assert out["error"] == f"InvalidInstanceError: f_bits {f_bits!r} is not an integer"

    def test_method_outside_its_column_is_a_row_error(self):
        # dp-ef1 and greedy would each run, and fill the wrong column.
        row = {"family": "example", "params": {"id": "5.2", "eps": "1/20"}, "eps": "1/4"}
        for key, method in (("ef_method", "dp-ef1"), ("ef1_method", "greedy")):
            out = _bench_row({**row, key: method}, 1000, 10**6)
            assert out["error"] == f"InvalidInstanceError: unknown {key} {method!r}"

    def test_unknown_family_parameter_is_a_row_error(self):
        # The misspelled seed used to run seed 0 and report ok.
        out = _bench_row({"family": "random", "params": {"n": 2, "m": 3, "sed": 5}}, 100, 100)
        assert out["error"] == "InvalidInstanceError: family random takes no parameter 'sed'"

    def test_non_integral_family_parameter_is_a_row_error(self):
        # Each used to be truncated: n 2.5 ran 2 agents, set [1.5, 2] built
        # partition-ef on {1, 2}, and adjacency [[1.5], [0]] a 3-agent
        # instance on a vertex "1.5".  2.0 still reads as 2.
        for family, params, what in (
            ("random", {"n": 2.5, "m": 2}, "n 2.5"),
            ("random", {"n": 2, "m": 2.5}, "m 2.5"),
            ("random", {"n": 2, "m": 2, "seed": 1.5}, "seed 1.5"),
            ("pof-sqrt", {"n": 9.5}, "n 9.5"),
            ("partition-ef", {"set": [1.5, 2]}, "set entry 1.5"),
            ("independent-set", {"adjacency": [[1.5], [0]]}, "vertex 1.5"),
        ):
            out = _bench_row({"family": family, "params": params}, 100, 100)
            assert out["error"] == f"InvalidInstanceError: {what} is not an integer"
        for family, params, ints in (
            ("random", {"n": 2.0, "m": 2.0, "seed": 1.0}, {"n": 2, "m": 2, "seed": 1}),
            ("pof-sqrt", {"n": 9.0}, {"n": 9}),
            ("partition-ef", {"set": [1.0, 2]}, {"set": [1, 2]}),
            ("independent-set", {"adjacency": [[1.0], [0.0]]}, {"adjacency": [[1], [0]]}),
        ):
            assert make(family, params) == make(family, ints)
        out = _bench_row({"family": "random", "params": {"n": 2.0, "m": 2}}, 100, 100)
        assert not out["error"] and out["n"] == 2

    def test_unknown_config_key_invalid(self, tmp_path, capsys):
        # {"budget_lp": 1, "jobz": 4} used to run at the default LP budget,
        # serially.
        cpath, out = tmp_path / "bench.json", tmp_path / "pof.csv"
        row = {"id": "ok", "family": "example", "params": {"id": "5.2", "eps": "1/100"}}
        cpath.write_text(json.dumps({"budget_lp": 1, "jobz": 4, "rows": [row]}))
        assert run(["bench-pof", cpath, "--out", out]) == 3
        assert "bench config takes no key 'budget_lp'" in capsys.readouterr().err
        # The worker count is the --jobs flag's alone.
        cpath.write_text(json.dumps({"jobs": 2, "rows": [row]}))
        assert run(["bench-pof", cpath, "--out", out]) == 3
        assert "bench config takes no key 'jobs'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_row_key_is_a_row_error(self):
        # The misspelled ef_method used to solve the row by exact-ef.
        row = {"id": "x", "family": "example", "params": {"id": "5.2", "eps": "1/100"},
               "ef_metod": "greedy"}
        out = _bench_row(row, 100, 100)
        assert out["instance_id"] == "x"
        assert out["error"] == "InvalidInstanceError: row takes no key 'ef_metod'"

    def test_row_missing_parameter_names_it(self):
        row = {"id": "no-set", "family": "partition-ef", "params": {}}
        out = _bench_row(row, 10, 10)
        assert out["error"] == "InvalidInstanceError: family partition-ef needs parameter 'set'"

    def test_deterministic_csv(self, tmp_path):
        config = {
            "rows": [
                {
                    "id": "r0",
                    "family": "random",
                    "params": {"n": 2, "m": 3, "seed": 11},
                    "ef_method": "exact-ef",
                    "ef1_method": "round-robin",
                }
            ]
        }
        cpath = tmp_path / "bench.json"
        dump_json(config, str(cpath))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["bench-pof", cpath, "--out", out1]) == 0
        assert run(["bench-pof", cpath, "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # The README's CLI block as written, in a fresh directory, with
    # bench-pof reading the repo's config: every command exits 0.
    block = (REPO / "README.md").read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("faircon ")]
    assert [argv[0] for argv in commands] == ["generate"] * 8 + ["solve"] * 3 + ["verify", "bench-pof"]
    assert [argv[1] for argv in commands[:8]] == list(FAMILIES)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        argv = [str(POF_CONFIG) if a == "bench/pof.json" else a for a in argv]
        assert main(argv) == 0, argv


def test_readme_names_every_method_family_and_option():
    # Every solve method, generate family and long option of a subcommand,
    # each as a whole word: `partition-ef` is a prefix of `partition-ef1`.
    readme = (REPO / "README.md").read_text()
    subparsers = next(a for a in build_parser()._actions if a.choices and "solve" in a.choices)
    options = {
        opt
        for sub in subparsers.choices.values()
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    names = [*SOLVERS, *FAMILIES, *sorted(options)]
    missing = [x for x in names if not re.search(rf"(?<![\w-]){re.escape(x)}(?![\w-])", readme)]
    assert missing == []


def test_string_vectors_are_invalid(tmp_path, ex52_path, capsys):
    # Each str used to read as the list of its characters: the instance
    # loaded as 1x1, the contract reached verification (exit 1), the row
    # built partition [1, 2, 3] and make() built a graph.
    ipath, kpath = tmp_path / "inst.json", tmp_path / "k.json"
    ipath.write_text(json.dumps({"r": "1", "p": ["1"], "c": ["0"]}))
    assert run(["solve", ipath, "--method", "greedy"]) == 3
    assert "error: expected a list, got the string '1'" in capsys.readouterr().err
    kpath.write_text(json.dumps({"assignment": "0", "alpha": "0"}))
    assert run(["verify", ex52_path, kpath, "--notion", "ef"]) == 3
    assert "error: expected a list, got the string '0'" in capsys.readouterr().err
    out = _bench_row({"family": "partition-ef", "params": {"set": "123"}}, 100, 100)
    assert out["error"] == "InvalidInstanceError: expected a list, got the string '123'"
    with pytest.raises(InvalidInstanceError, match="got the string '1'"):
        make("independent-set", {"adjacency": ["1", "0"]})


# The modules `import faircon.cli` loads; a top-level numpy import in any of
# them would load numpy for every command.
CLI_MODULES = ("cli", "core", "exact", "lp", "simplex", "ext", "instances", "serialize", "numeric")


def run_fresh(script, tmp_path):
    """Run `script` in a new interpreter that imports faircon from src/, with
    `tmp_path` as argv[1]; returns the JSON its last stdout line prints."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


COLD_START = """
import json, sys
from faircon import cli

out = sys.argv[1]
inst = out + "/inst.json"
solve = ["solve", inst, "--eps", "1/4", "--out", out + "/sol.json", "--method"]
calls = [["generate", "partition-ef", "--set", "1,2", "--out", inst]]
calls += [solve + [m] for m in ("greedy", "round-robin", "exact-ef", "exact-ef1", "exact-efs")]
calls += [["verify", inst, out + "/sol.json", "--notion", "efs"], ["--help"]]
codes = [cli.main(argv) for argv in calls]
loaded = lambda: sorted(m for m in ("numpy", "concurrent.futures.process") if m in sys.modules)
before = loaded()
faircon = sorted(m for m in sys.modules if m.startswith("faircon."))
dp_code = cli.main(solve + ["dp-eps-ef"])
print(json.dumps({"codes": codes, "before": before, "faircon": faircon, "dp_code": dp_code,
                  "after": loaded()}))
"""

CALL_TIME_LOOKUP = """
import json, sys
from faircon import cli
import faircon.dp as dp

counts = {}
originals = {name: getattr(dp, name) for name in ("solve_eps_ef_fptas", "solve_ef1_fptas")}

def counting(name):
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return originals[name](*args, **kwargs)
    return wrapper

out = sys.argv[1]
inst = out + "/inst.json"
codes = [cli.main(["generate", "example", "--id", "5.2", "--eps", "1/100", "--out", inst])]
# Wrapped, then unwrapped again, as the tracer's traced and untraced passes.
for wrap in (True, False):
    for name, solver in originals.items():
        setattr(dp, name, counting(name) if wrap else solver)
    for method in ("dp-eps-ef", "dp-ef1"):
        argv = ["solve", inst, "--method", method, "--eps", "1/4", "--f-bits", "6"]
        codes.append(cli.main(argv + ["--out", out + "/" + method + ".json"]))
print(json.dumps({"codes": codes, "counts": counts}))
"""


class TestColdStart:
    def test_only_a_dp_solve_loads_numpy(self, tmp_path):
        # Checked on sys.modules, not on a timing: greedy, round robin, the
        # exact solvers, verify, generate and --help load neither numpy nor
        # the process pool, and the first DP solve loads numpy.
        got = run_fresh(COLD_START, tmp_path)
        assert got["codes"] == [0] * 8
        assert {f"faircon.{name}" for name in CLI_MODULES} <= set(got["faircon"])
        assert "faircon.dp" not in got["faircon"]
        assert got["before"] == []
        assert got["dp_code"] == 0
        assert got["after"] == ["numpy"]

    def test_dp_solvers_are_looked_up_after_the_lazy_import(self, tmp_path):
        # The tracer rebinds the DP solvers on faircon.dp before the CLI has
        # imported it, and restores them for its untraced passes: each
        # wrapper sees exactly the one solve made while it was bound.
        got = run_fresh(CALL_TIME_LOOKUP, tmp_path)
        assert got["codes"] == [0] * 5
        assert got["counts"] == {"solve_eps_ef_fptas": 1, "solve_ef1_fptas": 1}
