import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from quartic import circle, counting
from quartic.circle import (
    SeriesCache,
    _randrange_many,
    _sampled_zeros,
    arc_partition,
    classify,
    dirichlet_approx,
    euler_view,
    hasse_report,
    hensel_criterion,
    local_factor,
    local_witness,
    real_point_probe,
    singular_series,
)
from quartic.counting import solutions_mod_q
from quartic.errors import ArcsOverlap, BudgetExceeded, DeltaOutOfRange, Inconclusive, PreconditionViolated
from quartic.forms import parse_form
from quartic.verify import random_form

X1 = parse_form("4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4")


class TestDirichlet:
    def test_examples(self):
        ra = dirichlet_approx(Fraction(1, 3), 10)
        assert (ra.a, ra.q, ra.z) == (1, 3, 0)
        ra = dirichlet_approx(1, 10)
        assert (ra.a, ra.q, ra.z) == (1, 1, 0)

    def test_near_half(self):
        ra = dirichlet_approx(0.49999999, 10)
        assert ra.q == 2 and abs(ra.z) <= Fraction(1, 20)

    def test_random_sweep(self):
        rng = random.Random(0)
        for _ in range(400):
            Q = rng.randint(1, 80)
            alpha = Fraction(rng.randint(0, 500), rng.randint(1, 500))
            assert dirichlet_approx(alpha, Q).check(Q)

    def test_float_input(self):
        ra = dirichlet_approx(math.pi % 1, 100)
        assert ra.check(100) and ra.q == 7  # 1/7 is the classic convergent


class TestArcs:
    def test_phi_sum_count(self):
        part = arc_partition(1.0, 16)
        assert len(part.arcs) == 80  # sum of phi(q), q <= 16
        assert part.q_max == 16

    def test_total_measure(self):
        part = arc_partition(1.0, 16)
        assert abs(part.total_measure - 2 * 16 ** -3 * 80) < 1e-15

    def test_classify_center(self):
        assert classify(Fraction(1, 2), 1.0, 16) == ("major", 1, 2)
        for (a, q, _) in arc_partition(1.0, 8).arcs:
            assert classify(Fraction(a, q), 1.0, 8) == ("major", a, q)

    def test_minor_point(self):
        # far from every low-denominator rational at this width
        kind, _, _ = classify(Fraction(355, 1130) + Fraction(1, 10 ** 4), 1.0, 16)
        assert kind == "minor"

    def test_delta_guard(self):
        with pytest.raises(DeltaOutOfRange):
            arc_partition(1.34, 16)
        with pytest.raises(DeltaOutOfRange):
            arc_partition(0.0, 16)

    @pytest.mark.parametrize("P", [0, -2, 0.0])
    def test_P_must_be_positive(self, P):
        with pytest.raises(PreconditionViolated):
            arc_partition(1.0, P)
        with pytest.raises(PreconditionViolated):
            classify(Fraction(1, 2), 1.0, P)

    def test_disjoint_small_delta(self):
        for P in (8, 16, 32):
            arc_partition(1.2, P)  # should not raise

    def test_overlap_detected_at_13(self):
        # at delta = 1.3 and P = 32 neighbouring Farey fractions at q ~ 90
        # sit closer than the arc width, so the partition must refuse
        with pytest.raises(ArcsOverlap):
            arc_partition(1.3, 32)


class TestSingularSeries:
    def test_R1(self):
        assert singular_series(parse_form("x1^4 + x2^4"), 1) == 1

    def test_R2_vanishing_A2(self):
        assert singular_series(parse_form("x1^4 + x2^4"), 2) == 1

    def test_euler_grouping_matches_multiplicativity(self):
        rng = random.Random(1)
        F = parse_form("x1^4 + 3*x2^4")
        cache = SeriesCache(F)
        # the Euler product over p^k <= 12 equals the sum over the q whose
        # prime-power parts are all <= 12
        prod = euler_view(F, 12, cache=cache)
        total = Fraction(0)
        n = F.n
        for q in range(1, 12 ** 4):
            from quartic.counting import factorint

            fac = factorint(q)
            if q > 1 and max((p ** e for p, e in fac.items()), default=1) > 12:
                continue
            if any(p > 12 for p in fac):
                continue
            total += Fraction(cache.a_at(q), q ** n)
        assert prod == total

    def test_cache_reuse(self):
        F = parse_form("x1^4 + x2^4")
        cache = SeriesCache(F)
        singular_series(F, 8, cache=cache)
        calls_before = len(cache.rho)
        singular_series(F, 8, cache=cache)
        assert len(cache.rho) == calls_before


class TestLocalFactor:
    def test_K0_trivial(self):
        lf = local_factor(parse_form("x1^4 + x2^4"), 5, 0)
        assert lf.identity_ok and lf.partial_sums == []

    def test_x4_plus_y4_p2(self):
        lf = local_factor(parse_form("x1^4 + x2^4"), 2, 1)
        assert lf.partial_sums == [Fraction(0)]
        assert lf.densities == [Fraction(1)]
        assert lf.identity_ok

    def test_x1_exact_p3_K2(self):
        lf = local_factor(X1, 3, 2)
        assert lf.identity_ok
        # rho(9) consistency: density = rho(9)/9^3
        rho9 = solutions_mod_q(X1, 9)
        assert lf.densities[1] == Fraction(rho9, 9 ** 3)

    def test_random_forms_exact(self):
        rng = random.Random(2)
        for _ in range(5):
            F = random_form(rng, 2, 4, bound=5)
            for p in (2, 3, 5):
                assert local_factor(F, p, 2).identity_ok


class TestLocalSolubility:
    def test_hensel_criterion_basic(self):
        F = parse_form("x1^4 + x2^4 - 2*x3^4")
        ok, vF, vg = hensel_criterion(F, (1, 1, 1), 5)
        assert ok and vF >= 1 and vg == 0

    def test_x1_witnesses_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13):
            x, k = local_witness(X1, p)
            ok, vF, vg = hensel_criterion(X1, x, p)
            assert ok

    def test_real_probe(self):
        assert real_point_probe(X1)[0] is True
        assert real_point_probe(parse_form("x1^4 + x2^4 + x3^4 + x4^4"))[0] is False

    def test_hasse_report_small(self):
        rep = hasse_report(X1, p_max=20)
        assert rep["real"]["soluble"]
        assert rep["everywhere_locally_soluble"]

    def test_posdef_fails_at_real(self):
        rep = hasse_report(parse_form("x1^4 + x2^4 + x3^4 + x4^4"), p_max=5)
        assert rep["real"]["soluble"] is False


class TestPipeline:
    def test_no_real_zero_in_support(self):
        from quartic.circle import main_term_pipeline
        from quartic.weights import separable_bump

        # positive form with the weight centred away from the origin:
        # no solutions and a singular integral that has decayed
        F = parse_form("x1^4 + x2^4")
        w = separable_bump((0.5, 0.5), 0.2)
        out = main_term_pipeline(F, w, 12, R_series=4, R_integral=60)
        assert out["N_omega"] == 0
        J1 = __import__("quartic.oscillatory", fromlist=["singular_integral"]).singular_integral(
            F, w, 1
        )
        assert abs(out["J"]) <= 0.1 * abs(J1)


class TestInsolubleAt2:
    def test_posdef_diag_quartic_has_no_2adic_point(self):
        # odd fourth powers are 1 mod 16, so a primitive zero of
        # x1^4+..+x4^4 would force k = 0 mod 16 with 1 <= k <= 4
        F = parse_form("x1^4 + x2^4 + x3^4 + x4^4")
        with pytest.raises(Inconclusive):
            local_witness(F, 2, k_max=3, cap=2000)
        rep = hasse_report(F, p_max=3, k_max=3)
        assert rep["primes"][2]["soluble"] is None
        assert rep["everywhere_locally_soluble"] is False


WITNESSES = Path(__file__).parent / "data" / "hasse_witnesses.jsonl"


@pytest.mark.parametrize(
    "rec",
    [json.loads(line) for line in WITNESSES.read_text().splitlines()],
    ids=lambda rec: f"n{rec['form'].count('x')}-{rec['form'][:4]}-p{rec['p']}-seed{rec['seed']}",
)
def test_local_witness_keeps_its_recorded_witness(rec):
    """Witness and level of `local_witness` for every prime <= 199, as recorded before the bulk draws."""
    x, k = local_witness(parse_form(rec["form"]), rec["p"], seed=rec["seed"])
    assert (list(x), k) == (rec["witness"], rec["level"])
    assert all(type(xi) is int for xi in x)


class TestBulkDraws:
    @pytest.mark.parametrize("p", [2, 3, 127, 131, 8191, 65537, 2 ** 31 - 1, 2 ** 61 - 1])
    def test_same_values_and_state_as_randrange(self, p):
        for seed, count in ((1, 0), (2, 1), (3, 1000), (7, 4999)):
            bulk, scalar = random.Random(seed), random.Random(seed)
            assert _randrange_many(bulk, p, count).tolist() == [scalar.randrange(p) for _ in range(count)]
            assert bulk.getstate() == scalar.getstate()

    @pytest.mark.parametrize(
        "src, p",
        [
            ("4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4", 23),
            ("4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4", 199),
            ("x1^4 + x1*x2^3 + 2*x3^4 - 3*x4^4 - x5^4 + x2*x3*x4*x5", 101),
            ("10*x1^4 + 5*x2^4 - 5*x3^4 - 5*x4^4", 5),  # every x is a zero; 300 draws of 625 repeat often
            ("2*x1^4 + 2*x2^4", 2),  # x = 0 is drawn
        ],
    )
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_sampled_zeros_match_the_scalar_loop(self, src, p, seed):
        F = parse_form(src)
        rng, ref = random.Random(seed), random.Random(seed)
        expect, seen = [], set()
        for _ in range(60 * p):
            x = tuple(ref.randrange(p) for _ in range(F.n))
            if not any(x) or x in seen:
                continue
            seen.add(x)
            if F.evaluate(list(x)) % p == 0:
                expect.append(x)
        assert _sampled_zeros(F, p, rng) == expect
        assert rng.getstate() == ref.getstate()

    def test_budget_turns_the_grids_into_samples(self, monkeypatch):
        F = parse_form("10*x1^4 + 5*x2^4 - 5*x3^4 - 5*x4^4")
        assert local_witness(F, 5) == local_witness(F, 5, budget=625)  # 5^4 cells fit: the same grid
        calls = []
        monkeypatch.setattr(circle, "_sampled_zeros", lambda F, p, rng: calls.append(p) or _sampled_zeros(F, p, rng))
        x, k = local_witness(F, 5, budget=100)
        assert calls == [5] and hensel_criterion(F, x, 5)[0]


class TestBudgetPlan:
    F = parse_form("x1^4 + x2^4")

    @pytest.mark.parametrize(
        "series, message",
        [
            # recorded before the plan: 2q + q^2 passes 150 up to q = 11; euler_view goes 2, 4, 8, 16 first
            (singular_series, "cost 195 of the blocks of F mod 13 exceeds budget 150"),
            (euler_view, "cost 288 of the blocks of F mod 16 exceeds budget 150"),
        ],
    )
    def test_first_modulus_over_budget_raises_before_any_histogram(self, series, message, monkeypatch):
        calls = []
        histogram = counting._block_histogram
        monkeypatch.setattr(counting, "_value_counts_memo", counting.LRUCache(counting.MEMO_RESIDUES, size=len))
        monkeypatch.setattr(counting, "_block_histogram", lambda G, q: calls.append(q) or histogram(G, q))
        with pytest.raises(BudgetExceeded) as exc:
            series(self.F, 16, SeriesCache(self.F, 150))
        assert str(exc.value) == message and calls == []

    def test_local_factor_plans_every_power_first(self, monkeypatch):
        calls = []
        histogram = counting._block_histogram
        monkeypatch.setattr(counting, "_value_counts_memo", counting.LRUCache(counting.MEMO_RESIDUES, size=len))
        monkeypatch.setattr(counting, "_block_histogram", lambda G, q: calls.append(q) or histogram(G, q))
        with pytest.raises(BudgetExceeded) as exc:
            local_factor(self.F, 2, 5, budget=150)
        # the message is the one raised after the histograms mod 2, 4 and 8 before the plan
        assert str(exc.value) == "cost 288 of the blocks of F mod 16 exceeds budget 150" and calls == []

    def test_cached_moduli_are_not_planned(self):
        cache = SeriesCache(self.F, 150)
        full = SeriesCache(self.F)
        singular_series(self.F, 16, full)
        cache.aq = dict(full.aq)
        assert singular_series(self.F, 16, cache) == singular_series(self.F, 16) and cache.rho == {}
