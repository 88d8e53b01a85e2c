import cmath
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quartic
from quartic import circle, geometry
from quartic.cli import CACHE_ENV, FormCache, form_hash, main
from quartic.errors import CacheCorrupt
from quartic.forms import LRUCache, parse_form
from quartic.verify import SWEEPS


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


class TestDispatch:
    def test_count_both(self, capsys):
        rc, out = run_cli(
            ["count", "--form-text", "x1^4 - x2^4", "--P", "5", "--method", "both"],
            capsys,
        )
        rep = json.loads(out)
        assert rc == 0 and rep["agree"] and rep["count_brute"] == 21

    def test_count_both_on_a_block_form(self, capsys):
        rc, out = run_cli(
            ["count", "--form-text", "x1^4 + x1*x2^3 + x3^4 - x4^4", "--P", "6", "--method", "both"],
            capsys,
        )
        rep = json.loads(out)
        assert rc == 0 and rep["agree"] is True and rep["count_mitm"] == 657

    def test_series_exact_string(self, capsys, tmp_path):
        f = tmp_path / "form.json"
        f.write_text(parse_form("x1^4 + x2^4").to_json())
        rc, out = run_cli(["series", "--form", str(f), "--R", "2"], capsys)
        rep = json.loads(out)
        assert rc == 0 and rep["S_R"] == "1/1"

    def test_unknown_command_exit(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_error_is_nonzero_exit(self, capsys):
        rc = main(["count", "--P", "5"])  # no form given
        assert rc == 1

    def test_variable_x0_is_an_error_line(self, capsys):
        rc = main(["expsum", "--form-text", "x0^4", "--q", "5"])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "MalformedExponent"

    def test_modulus_past_two_to_the_31_is_one_error_line(self, capsys):
        rc = main(["--budget", "10000000000", "expsum", "--form-text", "x1", "--q", "2147483648"])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "BudgetExceeded"

    def test_verify_deterministic(self, capsys):
        rc1, out1 = run_cli(["verify", "davenport", "--trials", "8", "--seed", "7"], capsys)
        rc2, out2 = run_cli(["verify", "davenport", "--trials", "8", "--seed", "7"], capsys)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_bound_failure_is_data_not_error(self, capsys, tmp_path):
        # a calibration file with tiny stored ratios: verdict false, exit 0
        calib = tmp_path / "calib.json"
        calib.write_text(json.dumps({"davenport": {"max_ratio": 1e-9}}))
        rc, out = run_cli(
            ["verify", "davenport", "--trials", "4", "--seed", "7", "--calibration", str(calib)],
            capsys,
        )
        rep = json.loads(out)
        assert rc == 0 and rep["calibration_ok"] is False

    def test_a_written_calibration_is_read_back(self, capsys, tmp_path):
        calib = tmp_path / "calib.json"
        argv = ["verify", "geometry", "--trials", "1", "--calibration", str(calib)]
        rc, out = run_cli(argv + ["--write-calibration"], capsys)
        assert rc == 0 and json.loads(out)["calibration_written"] == str(calib)
        entry = json.loads(calib.read_text())["geometry"]
        assert list(entry) == ["lemma", "max_ratio_Bs", "max_ratio_Tr", "params", "seed", "shape_ok", "trials"]
        assert entry["params"] == {"n": 3, "primes": [7, 11, 13]}
        rc, out = run_cli(argv, capsys)
        rep = json.loads(out)
        assert rc == 0 and rep["calibration_ok"] is True and {k: rep[k] for k in entry} == entry

    def test_no_subcommand_prints_the_help(self, capsys):
        rc, out = run_cli([], capsys)
        assert rc == 2 and out.startswith("usage: quartic")

    @pytest.mark.parametrize(
        "argv",
        [["count", "--weight", "separable", "--rho", "0.5", "--P", "6"],
         ["integral", "--weight", "separable", "--rho", "0.2", "--R", "2"]],
        ids=["count", "integral"],
    )
    def test_one_center_stands_for_every_axis(self, argv, capsys):
        argv = argv + ["--form-text", "x1^4-x2^4", "--center"]
        rc, out = run_cli(argv + ["0.5"], capsys)
        assert rc == 0 and (rc, out) == run_cli(argv + ["0.5,0.5"], capsys)

    def test_arcs_subcommand(self, capsys):
        rc, out = run_cli(["arcs", "--delta", "1.0", "--P", "16"], capsys)
        rep = json.loads(out)
        assert rep["arc_count"] == 80 and rep["disjoint"]

    def test_hasse_small(self, capsys):
        rc, out = run_cli(
            ["hasse", "--form-text", "x1^4 + x2^4 - 2*x3^4", "--p-max", "7"], capsys
        )
        rep = json.loads(out)
        assert rc == 0 and rep["real_soluble"] is True

    def test_poisson_subcommand(self, capsys):
        rc, out = run_cli(
            ["poisson", "--form-text", "x1^3", "--weight", "bump", "--center", "0",
             "--rho", "1.0", "--P", "30", "--a", "1", "--q", "3", "--z", "0"],
            capsys,
        )
        rep = json.loads(out)
        assert rc == 0 and rep["relative"] < 1e-3

    def test_expsum_matches_library(self, capsys):
        from quartic.expsums import complete_sum

        rc, out = run_cli(["expsum", "--form-text", "x1^4", "--a", "1", "--q", "5"], capsys)
        rep = json.loads(out)
        want = complete_sum(parse_form("x1^4"), 1, 5).value
        assert abs(complex(rep["re"], rep["im"]) - want) < 1e-12


class TestCache:
    def test_roundtrip(self, tmp_path):
        cache = FormCache(str(tmp_path))
        payload = {"form_hash": "abc", "kind": "Saq", "a": 1, "q": 5, "re": 2.0, "im": 3.5, "err": 1e-9}
        cache.store(payload)
        fresh = FormCache(str(tmp_path))
        assert fresh.load("abc", "Saq", 1, 5) == payload

    def test_tamper_detected(self, tmp_path):
        cache = FormCache(str(tmp_path))
        cache.store({"form_hash": "abc", "kind": "Aq", "a": None, "q": 3, "int": 7, "err": 0})
        path = tmp_path / "expsums.jsonl"
        text = path.read_text().replace('"int": 7', '"int": 8')
        path.write_text(text)
        with pytest.raises(CacheCorrupt):
            FormCache(str(tmp_path))

    def test_truncated_line_is_cache_corrupt(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "expsum", "--form-text", "x1^4 + x2^4", "--q", "6"]
        assert main(argv) == 0 and main(argv[:-1] + ["7"]) == 0
        path = tmp_path / "expsums.jsonl"
        text = path.read_text()
        path.write_text(text[: len(text) - 10])  # an interrupted write cuts the last line short
        with pytest.raises(CacheCorrupt):
            FormCache(str(tmp_path))
        capsys.readouterr()
        rc = main(argv)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "CacheCorrupt"

    @staticmethod
    def _payload(q, value):
        return {"form_hash": "abc", "kind": "Aq", "a": None, "q": q, "int": value, "err": 0}

    @staticmethod
    def _fresh_load(monkeypatch, tmp_path):
        with monkeypatch.context() as m:
            m.setattr(FormCache, "_loaded", {})
            return FormCache(str(tmp_path)).entries

    def test_appended_lines_are_the_only_ones_parsed_again(self, monkeypatch, tmp_path):
        import quartic.cli as cli

        writer = FormCache(str(tmp_path))
        for q in range(2, 6):
            writer.store(self._payload(q, q * q))
        FormCache(str(tmp_path))  # the first load in this process parses every line
        for q in range(6, 9):
            writer.store(self._payload(q, -q))
        parsed = []
        loads = cli.json.loads
        monkeypatch.setattr(cli.json, "loads", lambda text: parsed.append(text) or loads(text))
        again = FormCache(str(tmp_path))
        assert len(parsed) == 3
        monkeypatch.undo()
        assert again.entries == self._fresh_load(monkeypatch, tmp_path)
        assert again.load("abc", "Aq", None, 8) == self._payload(8, -8)

    def test_an_earlier_line_edited_between_loads_is_cache_corrupt(self, tmp_path):
        cache = FormCache(str(tmp_path))
        cache.store(self._payload(3, 7))
        cache.store(self._payload(4, 9))
        FormCache(str(tmp_path))
        path = tmp_path / "expsums.jsonl"
        path.write_text(path.read_text().replace('"int": 7', '"int": 8'))  # same length, same line count
        cache.store(self._payload(5, 11))
        with pytest.raises(CacheCorrupt):
            FormCache(str(tmp_path))

    def test_a_shortened_file_is_loaded_in_full(self, monkeypatch, tmp_path):
        cache = FormCache(str(tmp_path))
        for q in (3, 4, 5):
            cache.store(self._payload(q, q + 1))
        FormCache(str(tmp_path))
        path = tmp_path / "expsums.jsonl"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))  # a rewrite drops the last line
        entries = FormCache(str(tmp_path)).entries
        assert entries == self._fresh_load(monkeypatch, tmp_path)
        assert sorted(key[3] for key in entries) == [3, 4]

    SERIES_CALLS = [("x1^4 + x1*x2^3 + 2*x3^4", "6", []), ("x1^4 - x2^4 + x3^4", "5", []),
                    ("x1^4 + x1*x2^3 + 2*x3^4", "9", ["--euler"]), ("3*x1^4 - x2^4", "12", []),
                    ("x1^4 - x2^4 + x3^4", "10", ["--euler"]), ("x1^4 + x1*x2^3 + 2*x3^4", "9", []),
                    ("3*x1^4 - x2^4", "7", [])]

    @pytest.mark.parametrize("reload", [False, True], ids=["parsed-once", "parsed-in-full-at-each-call"])
    def test_interleaved_series_calls_keep_their_output_and_file(self, reload, capsys, monkeypatch, tmp_path):
        out = []
        for text, R, extra in self.SERIES_CALLS:
            if reload:
                monkeypatch.setattr(FormCache, "_loaded", {})
            assert main(["--cache-dir", str(tmp_path), "series", "--form-text", text, "--R", R] + extra) == 0
            out.append(capsys.readouterr().out)
        data = (tmp_path / "expsums.jsonl").read_bytes()
        # recorded when `series` still read every entry of every form: its stdout and the file it left
        assert hashlib.sha256("".join(out).encode()).hexdigest() == (
            "3c85cf9f2915e9392b40d44fef8975faa189a50171fd629a496fa8189cb8db8e")
        assert hashlib.sha256(data).hexdigest() == "00ce8ce629844a19400144d74434b8aacd082b9f7228f62786f41efa1401211c"
        cache = FormCache(str(tmp_path))
        assert len(cache.by_form) == 3 and len(cache.entries) == data.count(b"\n") == 31
        assert {k: v for entries in cache.by_form.values() for k, v in entries.items()} == cache.entries
        assert all(key[0] == fh for fh, entries in cache.by_form.items() for key in entries)

    def test_lines_a_second_writer_appends_are_read(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "expsum", "--form-text", "x1^4 + x2^4", "--q", "6", "--units"]
        assert main(argv) == 0 and len(FormCache(str(tmp_path)).entries) == 1
        src = str(Path(quartic.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-m", "quartic.cli"] + argv[:-2] + ["7", "--units"],
                               capture_output=True, text=True, env=env)
        assert child.returncode == 0
        entries = FormCache(str(tmp_path)).entries
        fh = form_hash(parse_form("x1^4 + x2^4"))
        assert sorted(entries) == [(fh, "Aq", None, 6), (fh, "Aq", None, 7)]
        assert entries[fh, "Aq", None, 7]["int"] == json.loads(child.stdout)["int"]
        capsys.readouterr()

    def test_cache_hit_skips_recompute(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "--timing", "expsum",
                "--form-text", "x1^4 + x2^4", "--q", "6", "--units"]
        rc, out1 = run_cli(argv, capsys)
        rep1 = json.loads(out1)
        rc, out2 = run_cli(argv, capsys)
        rep2 = json.loads(out2)
        assert rep1["cache_hit"] is False and rep2["cache_hit"] is True
        assert rep1["int"] == rep2["int"]

    def test_the_cache_dir_follows_the_environment_at_each_call(self, capsys, monkeypatch, tmp_path):
        from quartic.cli import CACHE_ENV

        argv = ["expsum", "--form-text", "x1^4 + x2^4", "--q", "6", "--units"]
        for name in ("first", "second"):
            monkeypatch.setenv(CACHE_ENV, str(tmp_path / name))
            assert main(argv) == 0
        assert all(len(FormCache(str(tmp_path / name)).entries) == 1 for name in ("first", "second"))
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "third"))
        assert main(["--cache-dir", ""] + argv) == 0  # an explicit empty flag still turns the cache off
        assert not (tmp_path / "third").exists()
        capsys.readouterr()

    def test_hash_invalidates_on_edit(self):
        assert form_hash(parse_form("x1^4")) != form_hash(parse_form("2*x1^4"))


class TestRunConfig:
    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize("place", ["before", "after"])
    def test_invalid_budget(self, budget, place, capsys):
        command = ["arcs", "--delta", "1.0", "--P", "8"]
        rc = main(["--budget", budget] + command if place == "before" else command + ["--budget", budget])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0]) == {"command": "arcs", "error": "ConfigInvalid", "message": "budget must be positive"}

    def test_timing_adds_one_elapsed_line_to_stderr_only(self, capsys, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        for argv in (
            ["arcs", "--delta", "1.0", "--P", "8", "--alpha", "1/3"],
            ["count", "--form-text", "x1^4 - x2^4", "--P", "5"],
            ["expsum", "--form-text", "x1^4 + x2^4", "--q", "6", "--units"],
            ["expsum", "--form-text", "x1^4 + x2^4", "--a", "2", "--q", "5"],
            ["series", "--form-text", "x1^4 + x2^4", "--R", "8", "--euler"],
            ["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "sing-dim", "--p", "7"],
            ["verify", "vdc", "--trials", "2"],
        ):
            assert main(argv) == 0
            plain = capsys.readouterr()
            assert main(["--timing"] + argv) == 0
            timed = capsys.readouterr()
            out = timed.out
            if argv[0] == "expsum":  # the one field --timing adds to a report
                rep = json.loads(out)
                assert rep.pop("cache_hit") is False
                out = json.dumps(rep, sort_keys=True) + "\n"
            assert out == plain.out and plain.err == ""
            assert re.fullmatch(r"elapsed \d+\.\d{3}s\n", timed.err)

    def test_table_output(self, capsys):
        rc, out = run_cli(
            ["count", "--form-text", "x1^4 - x2^4", "--P", "5", "--method", "brute",
             "--output", "table"],
            capsys,
        )
        assert rc == 0 and "count_brute" in out and "{" not in out

    def test_verify_lemmas_are_the_registered_sweeps(self):
        from quartic.cli import build_parser
        from quartic.verify import SWEEPS

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        lemma = next(a for a in sub.choices["verify"]._actions if a.dest == "lemma")
        assert lemma.choices == list(SWEEPS) == [
            "davenport", "geometry", "vdc", "weyl", "filter", "deligne", "kernel-average", "cubic-sum"]

    def test_extended_verify_lemmas(self, capsys):
        for lemma in ("vdc", "filter", "kernel-average"):
            rc, out = run_cli(["verify", lemma, "--trials", "2", "--seed", "7"], capsys)
            rep = json.loads(out)
            assert rc == 0 and rep["lemma"] == lemma
            if "identities_ok" in rep:
                assert rep["identities_ok"]


class TestBudget:
    N6 = "x1^4 + x1*x2^3 + x3^4 + x4^4 - x5^4 - x6^4"
    COUNT = ["count", "--form-text", "x1^4 - x2^4", "--P", "50", "--method", "brute"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--budget", "10"] + COUNT,
            COUNT + ["--budget", "10"],
            ["--budget", "100", "series", "--form-text", N6, "--R", "32"],
            ["--budget", "10", "poisson", "--form-text", "x1^3", "--weight", "bump", "--center", "0",
             "--rho", "1.0", "--P", "30", "--a", "1", "--q", "3", "--z", "0"],
            # 7^3 = 343 grid cells (7^2 projective) against a budget of 10 or 100
            ["--budget", "100", "geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "rank-profile", "--p", "7"],
            ["--budget", "100", "geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "b-set", "--p", "7"],
            ["--budget", "10", "geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "sing-dim", "--p", "7"],
            ["--budget", "100", "geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "hyperplane", "--primes", "7"],
            # q <= 100: 5050 fractions a/q to walk
            ["--budget", "1000", "arcs", "--delta", "1.0", "--P", "100"],
            # the second join step alone is 41 distinct values x 81 cells
            ["--budget", "1000", "count", "--form-text", "x1^4 + x2^4 + x3^4 + x4^4 - x5^4 - x6^4 - x7^4 - x8^4",
             "--P", "40", "--method", "mitm"],
        ],
        ids=["before-subcommand", "after-subcommand", "series", "poisson", "geometry-rank-profile",
             "geometry-b-set", "geometry-sing-dim", "geometry-hyperplane", "arcs", "count-mitm"],
    )
    def test_budget_is_enforced(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "BudgetExceeded"

    @pytest.mark.parametrize("argv", [["integral", "--R", "5"], ["pipeline", "--P", "5", "--R-series", "4", "--R-integral", "5"]])
    def test_integral_grids_fit_the_budget(self, argv, capsys):
        # under 100 cells the 256-point axis table is refused; the default budget gives the recorded J
        weight = ["--form-text", "x1^4 - x2^4", "--weight", "separable", "--center", "0.5,0.5", "--rho", "0.2"]
        rc = main(["--budget", "100"] + argv[:1] + weight + argv[1:])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0]) == {"command": argv[0], "error": "ToleranceNotMet",
                                        "message": "grid (256,) exceeded the cell budget before converging"}
        rc, out = run_cli(argv[:1] + weight + argv[1:], capsys)
        assert rc == 0 and json.loads(out)["J_R"] == 0.048843168764357014

    def test_series_error_line_is_planned_before_any_histogram(self, monkeypatch, tmp_path, capsys):
        from quartic import counting

        calls = []
        histogram = counting._block_histogram
        monkeypatch.setattr(counting, "_value_counts_memo", counting.LRUCache(counting.MEMO_RESIDUES, size=len))
        monkeypatch.setattr(counting, "_block_histogram", lambda G, q: calls.append(q) or histogram(G, q))
        argv = ["--cache-dir", str(tmp_path), "--budget", "150", "series", "--form-text", "x1^4 + x2^4", "--R", "16"]
        assert main(argv + ["--euler"]) == 1 and calls == []
        # the line the command printed before the plan
        assert capsys.readouterr().err == (
            '{"command": "series", "error": "BudgetExceeded", '
            '"message": "cost 195 of the blocks of F mod 13 exceeds budget 150"}\n'
        )

    def test_hasse_sizes_its_grids_to_the_budget(self, monkeypatch, tmp_path, capsys):
        sizes = []
        for module in list(sys.modules.values()):
            original = getattr(module, "grid_values", None)
            if module.__name__.startswith("quartic") and original is not None:
                def recording(F, axes, modulus=None, original=original):
                    sizes.append(math.prod(len(ax) for ax in axes))
                    return original(F, axes, modulus)

                monkeypatch.setattr(module, "grid_values", recording)
        # the level-1 grid of `local_witness` is F on broadcast axes, through `_values_at`
        original_at = circle._values_at

        def recording_at(F, coords, modulus=None):
            sizes.append(math.prod(np.broadcast_shapes(*map(np.shape, coords))))
            return original_at(F, coords, modulus)

        monkeypatch.setattr(circle, "_values_at", recording_at)
        x1 = "4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4"
        argv = ["--cache-dir", str(tmp_path), "--budget", "6000", "hasse", "--form-text", x1, "--p-max", "13"]
        assert main(argv) == 0
        # 5^4 and 7^4 on the grid; 11^4 and 13^4 sampled, 4 * 60 * (11 + 13) = 5760 draws
        assert sizes and max(sizes) <= 6000
        assert json.loads(capsys.readouterr().out)["everywhere_locally_soluble"] is True
        # under 1000 the draws for 7, 11 and 13 (7440) are refused before any prime
        sizes.clear()
        assert main(argv[:2] + ["--budget", "1000"] + argv[4:]) == 1 and sizes == []
        assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"

    def test_hasse_refuses_unplanned_draws_at_once(self, capsys):
        argv = ["--budget", "1000000", "hasse", "--form-text", "x1^4-2*x2^4", "--p-max", "3000"]
        rc = main(argv)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0]) == {
            "command": "hasse", "error": "BudgetExceeded",
            "message": "69184800 residues drawn past the grid cap up to p = 3000 exceed budget 1000000"}

    def test_block_form_series_fits_the_default_budget(self, capsys):
        # one 2-variable block: about q^2 cells per modulus, not q^6
        rc, out = run_cli(["series", "--form-text", self.N6, "--R", "32"], capsys)
        assert rc == 0 and json.loads(out)["R"] == 32.0


class TestGeometryAnyN:
    def test_rank_profile_of_a_four_variable_cubic(self, capsys):
        argv = ["geometry", "--form-text", "x1^3+x2^3+x3^3+x4^3", "--op", "rank-profile", "--p", "5", "--r", "2"]
        rc, out = run_cli(argv, capsys)
        # H = diag(6 x_i): rank H(x) is the number of nonzero x_i, so #T_2 = 1 + 4*4 + 6*4^2
        assert rc == 0 and json.loads(out)["count"] == 113

    @pytest.mark.parametrize(
        "op, default",
        [(["--op", "rank-profile", "--p", "7"], ["--r", "0"]), (["--op", "b-set", "--p", "7"], ["--s", "1"]),
         (["--op", "hyperplane", "--primes", "7"], ["--M-max", "5"])],
        ids=["r", "s", "M-max"],
    )
    def test_an_op_applies_the_default_of_its_own_option(self, op, default, capsys):
        argv = ["geometry", "--form-text", "x1^3+x2^3+x3^3"] + op
        rc, out = run_cli(argv, capsys)
        assert rc == 0 and (rc, out) == run_cli(argv + default, capsys)

    def test_sing_dim_without_p_is_the_proxy(self, capsys):
        rc, out = run_cli(["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "sing-dim"], capsys)
        rep = json.loads(out)
        assert rc == 0 and (rep["s_proxy"], rep["tag"]) == (-1, "proxy") and "p" not in rep


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, error",
        [
            (["integral", "--form-text", "x1^4-x2^4", "--weight", "bump", "--center", "0.5,0.5", "--rho", "0", "--R", "2"], "PreconditionViolated"),
            (["expsum", "--form-text", "x1^4", "--a", "1", "--q", "0"], "PreconditionViolated"),
            (["expsum", "--form-text", "x1^4", "--a", "1", "--q", "-3"], "PreconditionViolated"),
            (["expsum", "--form-text", "x1^4", "--a", "1", "--q", "0", "--units"], "PreconditionViolated"),
            (["expsum", "--form-text", "x1^4", "--a", "1", "--q", "-3", "--v", "1"], "PreconditionViolated"),
            (["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "rank-profile", "--p", "3"], "PreconditionViolated"),
            (["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "b-set", "--p", "3"], "PreconditionViolated"),
            (["geometry", "--form-text", "x1^4+x2^4", "--op", "b-set", "--p", "7"], "PreconditionViolated"),
            (["geometry", "--form-text", "x1^3", "--op", "hyperplane"], "PreconditionViolated"),
            (["arcs", "--delta", "1.0", "--P", "0"], "PreconditionViolated"),
            (["arcs", "--delta", "1.0", "--P", "-2", "--alpha", "1/2"], "PreconditionViolated"),
            (["count", "--form-text", "x1^4-x2^4", "--P", "0", "--method", "brute"], "PreconditionViolated"),
            (["integral", "--form-text", "x1^4-x2^4", "--R", "-1"], "PreconditionViolated"),
            (["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "sing-dim", "--p", "1"], "CompositeP"),
            (["geometry", "--form-text", "4*x1^3+4*x2^3+4*x3^3", "--op", "sing-dim", "--p", "4"], "CompositeP"),
            (["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "sing-dim", "--p", "0"], "CompositeP"),
            (["geometry", "--form-text", "x1^3+x2", "--op", "sing-dim", "--p", "7"], "PreconditionViolated"),
            (["count", "--form-text", "x1^4-x2^4", "--P", "inf"], "PreconditionViolated"),
            (["count", "--form-text", "x1^4-x2^4", "--projective", "--P", "nan"], "PreconditionViolated"),
            (["count", "--form-text", "x1^4-x2^4", "--projective", "--P", "inf"], "PreconditionViolated"),
            (["count", "--form-text", "x1^4-x2^4", "--projective", "--P", "-1"], "PreconditionViolated"),
            (["count", "--form-text", "x1^4-x2^4", "--weight", "bump", "--center", "nan,0.5", "--P", "5"],
             "PreconditionViolated"),
            (["count", "--form-text", "x1^4-x2^4", "--weight", "bump", "--center", "inf,0.5", "--P", "5"],
             "PreconditionViolated"),
            (["integral", "--form-text", "x1^4-x2^4", "--weight", "separable", "--center", "nan,0.5", "--rho", "0.2",
              "--R", "2"], "PreconditionViolated"),
            (["integral", "--form-text", "x1^4-x2^4", "--weight", "separable", "--center", "inf,0.5", "--rho", "0.2",
              "--R", "2"], "PreconditionViolated"),
            (["integral", "--form-text", "x1^4-x2^4", "--R", "nan"], "PreconditionViolated"),
            (["integral", "--form-text", "x1^4-x2^4", "--R", "inf"], "PreconditionViolated"),
            (["arcs", "--delta", "1.0", "--P", "inf"], "PreconditionViolated"),
            (["series", "--form-text", "x1^4-x2^4", "--R", "nan"], "PreconditionViolated"),
            (["series", "--form-text", "x1^4-x2^4", "--R", "inf"], "PreconditionViolated"),
            (["series", "--form-text", "x1^4-x2^4", "--R", "-1"], "PreconditionViolated"),
            (["pipeline", "--form-text", "x1^4-x2^4", "--P", "inf"], "PreconditionViolated"),
            (["pipeline", "--form-text", "x1^4-x2^4", "--P", "5", "--R-series", "nan"], "PreconditionViolated"),
            (["pipeline", "--form-text", "x1^4-x2^4", "--P", "5", "--R-series", "inf"], "PreconditionViolated"),
            (["pipeline", "--form-text", "x1^4-x2^4", "--P", "5", "--R-series", "-1"], "PreconditionViolated"),
            (["pipeline", "--form-text", "x1^4-x2^4", "--P", "5", "--R-series", "4", "--R-integral", "nan"],
             "PreconditionViolated"),
            (["pipeline", "--form-text", "x1^4-x2^4", "--P", "5", "--R-series", "4", "--R-integral", "inf"],
             "PreconditionViolated"),
            (["poisson", "--form-text", "x1^3", "--weight", "bump", "--P", "nan"], "PreconditionViolated"),
            (["poisson", "--form-text", "x1^3", "--weight", "bump", "--P", "inf"], "PreconditionViolated"),
            (["poisson", "--form-text", "x1^3", "--weight", "bump", "--P", "-1"], "PreconditionViolated"),
            (["poisson", "--form-text", "x1^3", "--weight", "bump", "--z", "nan"], "PreconditionViolated"),
            (["poisson", "--form-text", "x1^3", "--weight", "bump", "--z", "inf"], "PreconditionViolated"),
            (["hasse", "--form-text", "x1^4-2*x2^4", "--p-max", "-1"], "PreconditionViolated"),
            (["hasse", "--form-text", "x1^4-2*x2^4", "--k-max", "0"], "PreconditionViolated"),
            (["arcs", "--delta", "0.5", "--P", "1e300"], "BudgetExceeded"),
            (["arcs", "--delta", "1.3", "--P", "1e300"], "BudgetExceeded"),
            (["series", "--form-text", "x1^4-x2^4", "--R", "1e300"], "BudgetExceeded"),
            (["integral", "--form-text", "x1^4-x2^4", "--R", "1e300"], "ToleranceNotMet"),
            (["hasse", "--form-text", "x1^2-x2^2", "--p-max", "1000000000000000000"], "BudgetExceeded"),
            (["pipeline", "--form-text", "x1^4-x2^4", "--P", "5", "--R-series", "1e300"], "BudgetExceeded"),
            (["pipeline", "--form-text", "x1^4-x2^4", "--P", "5", "--R-series", "4", "--R-integral", "1e300"],
             "ToleranceNotMet"),
            (["poisson", "--form-text", "x1^3", "--weight", "bump", "--v-cut", "-5"], "PreconditionViolated"),
            (["poisson", "--form-text", "x1^3", "--weight", "bump", "--P", "1e300"], "BudgetExceeded"),
            (["poisson", "--form-text", "x1^3", "--weight", "bump", "--P", "8", "--z", "1e308"], "BudgetExceeded"),
            (["integral", "--form-text", "x1^4-x2^4", "--weight", "bump", "--center", "0.1,0.2,0.3", "--R", "2"],
             "DimensionMismatch"),
            (["expsum", "--form", "{tmp}/coefficient-1.5.json", "--q", "5"], "NonIntegerCoefficient"),
            (["expsum", "--form", "{tmp}/exponent-4.5.json", "--q", "5"], "MalformedExponent"),
        ] + [(["verify", lemma, "--trials", "-1"], "PreconditionViolated") for lemma in SWEEPS],
        ids=["rho-0", "q-0", "q-negative", "units-q-0", "twisted-q-negative", "rank-profile-p-3",
             "b-set-p-3", "b-set-not-cubic", "hyperplane-one-variable", "arcs-P-0", "arcs-P-negative",
             "count-P-0", "integral-R-negative", "sing-dim-p-1", "sing-dim-p-4-vanishing", "sing-dim-p-0",
             "sing-dim-not-a-form", "count-P-inf", "projective-P-nan", "projective-P-inf", "projective-P-negative",
             "count-center-nan", "count-center-inf", "integral-center-nan", "integral-center-inf", "integral-R-nan",
             "integral-R-inf", "arcs-P-inf", "series-R-nan", "series-R-inf", "series-R-negative", "pipeline-P-inf",
             "pipeline-R-series-nan", "pipeline-R-series-inf", "pipeline-R-series-negative",
             "pipeline-R-integral-nan", "pipeline-R-integral-inf", "poisson-P-nan", "poisson-P-inf",
             "poisson-P-negative", "poisson-z-nan", "poisson-z-inf", "hasse-p-max-negative", "hasse-k-max-0",
             "arcs-P-1e300", "arcs-P-delta-past-double", "series-R-1e300", "integral-R-1e300", "hasse-p-max-1e18",
             "pipeline-R-series-1e300", "pipeline-R-integral-1e300", "poisson-v-cut-negative", "poisson-P-1e300",
             "poisson-z-1e308",
             "integral-center-of-three-for-two-variables", "form-file-coefficient-1.5", "form-file-exponent-4.5"]
        + [f"verify-{lemma}-trials-negative" for lemma in SWEEPS],
    )
    def test_is_one_error_line(self, argv, error, capsys, tmp_path):
        (tmp_path / "coefficient-1.5.json").write_text('{"n": 1, "monomials": [[[4], 1.5]]}')
        (tmp_path / "exponent-4.5.json").write_text('{"n": 1, "monomials": [[[4.5], 1]]}')
        rc = main([a.format(tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    @pytest.mark.parametrize("command", ["series", "pipeline"])
    def test_an_R_past_the_sieve_is_refused_in_one_short_line(self, command, capsys):
        args = ["--R", "1e300"] if command == "series" else ["--P", "5", "--R-series", "1e300"]
        rc = main([command, "--form-text", "x1^4-x2^4", *args, "--budget", "1000"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and len(captured.err.encode()) < 300
        message = json.loads(captured.err)["message"]
        assert "R = 1e+300" in message and "budget 1.000e+3" in message

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["count", "--P", "5", "--center", "abc", "--rho", "-3"], "ConfigInvalid"),
            (["count", "--P", "5", "--weight", "box", "--rho", "-3"], "PreconditionViolated"),
            (["count", "--P", "5", "--center", "0.1,0.2,0.3"], "DimensionMismatch"),
            (["integral", "--R", "2", "--center", "nan,0.5"], "PreconditionViolated"),
            (["integral", "--R", "2", "--rho", "1.5"], "PreconditionViolated"),
            (["pipeline", "--P", "5", "--center", "nan,0.5"], "PreconditionViolated"),
            (["pipeline", "--P", "5", "--center", ",,"], "ConfigInvalid"),
        ],
        ids=["count-center-abc", "count-rho-negative", "count-center-of-three", "integral-center-nan",
             "integral-rho-past-1", "pipeline-center-nan", "pipeline-center-empty-entries"],
    )
    def test_box_weight_checks_center_and_rho(self, argv, error, capsys):
        # --center and --rho are checked whatever the weight, the default box included
        rc = main(argv[:1] + ["--form-text", "x1^4-x2^4"] + argv[1:])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    def test_huge_series_R_is_refused_before_the_sieve(self, monkeypatch, capsys):
        def sieve(m):
            raise AssertionError(f"sieved {m + 1} cells")

        monkeypatch.setattr(circle, "primes_up_to", sieve)
        rc = main(["series", "--form-text", "x1^4", "--R", "39999999"])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "BudgetExceeded"

    def test_rank_profile_refuses_a_non_form_before_any_rank_grid(self, monkeypatch, capsys):
        calls = []

        def recording(*args, **kwargs):
            calls.append(args)
            return grid(*args, **kwargs)

        grid = geometry.hessian_rank_grid
        monkeypatch.setattr(geometry, "hessian_rank_grid", recording)
        monkeypatch.setattr(geometry, "_rank_count_cache", LRUCache(geometry.RANK_CACHE_ENTRIES))
        rc = main(["geometry", "--form-text", "x1^3+x2", "--op", "rank-profile", "--p", "7"])
        assert rc == 1 and json.loads(capsys.readouterr().err)["error"] == "PreconditionViolated"
        assert calls == []

    @pytest.mark.parametrize("method", [[], ["--method", "both"], ["--method", "mitm"]], ids=["default", "both", "mitm"])
    def test_count_refuses_a_bump_weight_before_any_count(self, method, monkeypatch, capsys):
        from quartic import cli

        calls = []

        def recording(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return count(*args, **kwargs)

        count = cli.weighted_count
        monkeypatch.setattr(cli, "weighted_count", recording)
        rc = main(["count", "--form-text", "x1^4+x2^4-2*x3^4", "--weight", "bump", "--P", "5"] + method)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "MitmNotApplicable" and "--method brute" in err["message"]
        assert calls == []

    @pytest.mark.parametrize(
        "extra",
        [["--weight", "bump", "--method", "mitm"], ["--weight", "bump"], ["--weight", "separable"],
         ["--method", "brute"], ["--method", "both"]],
        ids=["bump-mitm", "bump", "separable", "brute", "both"],
    )
    def test_projective_count_refuses_a_weight_or_method_before_any_count(self, extra, monkeypatch, capsys):
        from quartic import cli

        calls = []
        for name in ("height_count", "weighted_count"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: calls.append(name))
        rc = main(["count", "--form-text", "x1^4+x2^4-2*x3^4", "--projective", "--P", "5"] + extra)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0]) == {
            "command": "count", "error": "ConfigInvalid",
            "message": "--projective counts points by height: it takes no --weight or --method"}
        assert calls == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["expsum", "--form-text", "x1^4", "--q", "5", "--units", "--v", "1,2"], "--v"),
            (["expsum", "--form-text", "x1^4", "--q", "5", "--units", "--v", ""], "--v"),
            (["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "hyperplane", "--p", "7"], "--p"),
            (["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "sing-dim", "--r", "2"], "--r"),
            (["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "b-set", "--p", "7", "--r", "0"], "--r"),
            (["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "rank-profile", "--p", "7", "--s", "1"], "--s"),
            (["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "sing-dim", "--primes", "5"], "--primes"),
            (["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "b-set", "--p", "7", "--M-max", "5"], "--M-max"),
        ],
        ids=["units-twist", "units-empty-twist", "hyperplane-p", "sing-dim-r", "b-set-r", "rank-profile-s",
             "sing-dim-primes", "b-set-M-max"],
    )
    def test_an_option_the_command_does_not_read_is_refused_before_any_work(self, argv, flag, monkeypatch, capsys):
        from quartic import cli

        def no_work(args):
            raise AssertionError("the form was loaded before the options were checked")

        monkeypatch.setattr(cli, "_load_form", no_work)
        rc = main(argv)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigInvalid" and flag in err["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["arcs", "--delta", "1.0", "--P", "16", "--alpha", "abc"],
            ["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "rank-profile"],
            ["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "b-set"],
            ["integral", "--form-text", "x1^4-x2^4", "--weight", "bump", "--center", "abc", "--R", "2"],
            ["integral", "--form-text", "x1^4-x2^4", "--weight", "bump", "--center", ",,", "--R", "2"],
            ["expsum", "--form-text", "x1^4", "--q", "5", "--v", "a"],
            ["expsum", "--form-text", "x1^4+x2^4", "--q", "5", "--v="],
            ["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "hyperplane", "--primes", "x"],
            ["expsum", "--form", "{tmp}/missing.json", "--q", "5"],
            ["expsum", "--form", "{tmp}", "--q", "5"],
            ["expsum", "--form", "{tmp}/list.json", "--q", "5"],
            ["expsum", "--form", "{tmp}/n-only.json", "--q", "5"],
            ["verify", "filter", "--trials", "1", "--calibration", "{tmp}"],
            ["verify", "filter", "--trials", "1", "--calibration", "{tmp}/not-json.json"],
            ["verify", "filter", "--trials", "1", "--calibration", "{tmp}/list.json"],
            ["verify", "filter", "--trials", "1", "--calibration", "{tmp}/list.json", "--write-calibration"],
            ["verify", "filter", "--trials", "1", "--calibration", "{tmp}/entry-a-number.json"],
            ["verify", "filter", "--trials", "1", "--calibration", "{tmp}/ratio-a-string.json"],
            ["expsum", "--form", "{tmp}/empty.json", "--q", "5"],
            ["expsum", "--form", "{tmp}/blank.json", "--q", "5"],
            ["expsum", "--form-text", " ", "--q", "5"],
            ["expsum", "--form-text", "7", "--q", "5"],
            ["series", "--form-text", "7", "--R", "4"],
        ],
        ids=["alpha-not-rational", "rank-profile-without-p", "b-set-without-p", "center-not-a-number",
             "center-empty-entries", "v-not-an-integer", "v-empty", "primes-not-an-integer", "form-file-missing",
             "form-file-a-directory", "form-file-a-json-list", "form-file-without-monomials",
             "calibration-a-directory", "calibration-not-json", "calibration-a-json-list",
             "calibration-a-json-list-to-write", "calibration-entry-a-number", "calibration-ratio-a-string",
             "form-file-empty", "form-file-blank", "form-text-blank",
             "form-text-a-constant", "series-of-a-constant"],
    )
    def test_bad_option_is_one_config_error_line(self, argv, capsys, tmp_path):
        (tmp_path / "list.json").write_text("[1]")
        (tmp_path / "n-only.json").write_text('{"n": 2}')
        (tmp_path / "not-json.json").write_text("{calibration")
        (tmp_path / "empty.json").write_text("")
        (tmp_path / "blank.json").write_text(" \n")
        (tmp_path / "entry-a-number.json").write_text('{"filter": 1}')
        (tmp_path / "ratio-a-string.json").write_text('{"filter": {"max_ratio": "x"}}')
        rc = main([a.format(tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigInvalid"
        assert (tmp_path / "list.json").read_bytes() == b"[1]"  # a refused --write-calibration leaves it alone


class TestBlockFormSums:
    """Diagonal forms go direct through the block distribution mod q, far past q^n cells."""

    @pytest.mark.parametrize(
        "form, coeffs, a, q, v",
        [
            ("x1^4+x2^4+x3^4+x4^4-x5^4-x6^4-x7^4-x8^4", (1, 1, 1, 1, -1, -1, -1, -1), 1, 128, None),
            ("x1^4+x2^4+x3^4+x4^4-x5^4-x6^4-x7^4-x8^4", (1, 1, 1, 1, -1, -1, -1, -1), 5, 256, None),
            ("x1^4+2*x2^4-x3^4+3*x4^4-5*x5^4", (1, 2, -1, 3, -5), 3, 64, (1, 2, 0, 5, 63)),
        ],
        ids=["F8-q128", "F8-q256-object-counts", "twisted-n5-q64"],
    )
    def test_matches_product_of_one_variable_sums(self, form, coeffs, a, q, v, capsys):
        argv = ["expsum", "--form-text", form, "--a", str(a), "--q", str(q)]
        if v:
            argv += ["--v", ",".join(map(str, v))]
        rc, out = run_cli(argv, capsys)
        rep = json.loads(out)
        want = 1
        for c, t in zip(coeffs, v or [0] * len(coeffs)):
            want *= sum(cmath.exp(2j * cmath.pi * ((a * c * x ** 4 + t * x) % q) / q) for x in range(q))
        assert rc == 0 and abs(complex(rep["re"], rep["im"]) - want) <= rep["err"] + 1e-9 * abs(want)


    def test_two_blocks_at_a_large_prime_exceed_the_budget(self, capsys):
        # x1^4 + x2^4 mod 999983: 2e6 cells, but the join alone is about 1e12 steps
        rc = main(["expsum", "--form-text", "x1^4+x2^4", "--q", "999983"])
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "BudgetExceeded"


class TestBlockFormIntegral:
    """J(R) factors over the blocks of F, so a form with a two-variable block is integrated at n = 6."""

    FORM = "x1^4+x1*x2^3+x3^4+x4^4-x5^4-x6^4"
    WEIGHT = ["--weight", "separable", "--center", "0.5,0.5,0.5,0.5,0.5,0.5", "--rho", "0.25"]

    def test_integral_and_pipeline_run(self, capsys):
        reps = []
        for argv in (["integral", "--R", "20"], ["pipeline", "--P", "8", "--R-series", "16", "--R-integral", "20"]):
            rc, out = run_cli(argv[:1] + ["--form-text", self.FORM] + self.WEIGHT + argv[1:], capsys)
            assert rc == 0 and len(out.splitlines()) == 1
            reps.append(json.loads(out))
        assert [rep["command"] for rep in reps] == ["integral", "pipeline"]
        assert reps[0]["J_R"] == reps[1]["J_R"] > 0


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same quartic as the tests, installed or not
        src = str(Path(quartic.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "quartic.cli", "arcs", "--delta", "1.0", "--P", "8"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["disjoint"] is True
