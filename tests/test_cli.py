import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quartic
from quartic import geometry
from quartic.cli import FormCache, form_hash, main
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

    def test_cache_hit_skips_recompute(self, capsys, tmp_path):
        argv = ["--cache-dir", str(tmp_path), "--timing", "expsum",
                "--form-text", "x1^4 + x2^4", "--q", "6", "--units"]
        rc, out1 = run_cli(argv, capsys)
        rep1 = json.loads(out1)
        rc, out2 = run_cli(argv, capsys)
        rep2 = json.loads(out2)
        assert rep1["cache_hit"] is False and rep2["cache_hit"] is True
        assert rep1["int"] == rep2["int"]

    def test_hash_invalidates_on_edit(self):
        assert form_hash(parse_form("x1^4")) != form_hash(parse_form("2*x1^4"))


class TestRunConfig:
    def test_invalid_budget(self):
        from quartic.cli import RunConfig
        from quartic.errors import ConfigInvalid

        with pytest.raises(ConfigInvalid):
            RunConfig(budget=0).validate()

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
        x1 = "4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4"
        argv = ["--cache-dir", str(tmp_path), "--budget", "1000", "hasse", "--form-text", x1, "--p-max", "13"]
        assert main(argv) == 0
        assert sizes and max(sizes) <= 1000  # 5^4 = 625 on the grid; 7^4, 11^4 and 13^4 sampled
        assert json.loads(capsys.readouterr().out)["everywhere_locally_soluble"] is True

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
             "pipeline-R-series-1e300", "pipeline-R-integral-1e300", "poisson-v-cut-negative"]
        + [f"verify-{lemma}-trials-negative" for lemma in SWEEPS],
    )
    def test_is_one_error_line(self, argv, error, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == error

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["arcs", "--delta", "1.0", "--P", "16", "--alpha", "abc"],
            ["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "rank-profile"],
            ["geometry", "--form-text", "x1^3+x2^3+x3^3", "--op", "b-set"],
        ],
        ids=["alpha-not-rational", "rank-profile-without-p", "b-set-without-p"],
    )
    def test_bad_option_is_one_config_error_line(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert rc == 1 and captured.out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigInvalid"


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
