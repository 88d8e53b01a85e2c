import json
import math
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from quartic import circle, counting
from quartic.circle import (
    SeriesCache,
    _gauss_many,
    _randrange_many,
    _sampled_zeros,
    _val_p_many,
    arc_partition,
    classify,
    dirichlet_approx,
    euler_view,
    hasse_report,
    local_factor,
    local_witness,
    real_point_probe,
    singular_series,
)
from quartic.counting import solutions_mod_q
from quartic.errors import ArcsOverlap, BudgetExceeded, DeltaOutOfRange, Inconclusive, PreconditionViolated
from quartic.expsums import DEFAULT_BUDGET
from quartic.forms import IntPolynomial, grid_values, parse_form
from quartic.geometry import primes_up_to
from quartic.verify import random_form

X1 = parse_form("4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4")


def _val_p(x: int, p: int) -> int:
    if x == 0:
        return 64  # v_p(0) is infinite: 64 stands in for it, as in `local_witness`
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def hensel_criterion(F: IntPolynomial, x, p: int, gradient=None):
    """(ok, vF, vGrad): ok when v_p(F(x)) > 2 min_i v_p(dF/dx_i(x)), the rule `local_witness` applies to its rows."""
    vF = _val_p(F.evaluate(x), p)
    vg = min(_val_p(g.evaluate(x), p) for g in gradient or F.gradient())
    return vF > 2 * vg, vF, vg


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

    def test_budget_bounds_the_walk(self):
        # q <= 100: 5050 fractions a/q for the partition, 100 denominators for classify
        assert arc_partition(1.0, 100, budget=5050).q_max == 100
        assert classify(Fraction(1, 3), 1.0, 100, budget=100) == ("major", 1, 3)
        with pytest.raises(BudgetExceeded):
            arc_partition(1.0, 100, budget=5049)
        with pytest.raises(BudgetExceeded):
            classify(Fraction(1, 3), 1.0, 100, budget=99)
        with pytest.raises(BudgetExceeded):  # P^delta past the largest double
            classify(Fraction(1, 3), 1.3, 1e300)

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

    @pytest.mark.parametrize(
        "text, p, cap",
        [(repr(X1), 7, 20000), (repr(X1), 13, 20000), (repr(X1), 17, 3),
         ("x1^4 + x1*x2^3 - 2*x3^4 - 5*x4^4 + x2*x3*x4^2", 11, 20000), ("x1^3*x2 - x3^4 + 3*x4^2*x1^2", 19, 5)],
    )
    def test_level_one_rows_come_x1_fastest(self, monkeypatch, text, p, cap):
        # the zeros of the 4-D grid mod p by flat index, in the order of the transposed grid's argwhere
        F, rows = parse_form(text), []
        values_at = circle._values_at

        def recording(G, coords, modulus=None):
            if G is F and modulus is None:  # F on a slice of rows of a level
                rows.append(np.stack(coords, axis=1))
            return values_at(G, coords, modulus)

        monkeypatch.setattr(circle, "_values_at", recording)
        local_witness(F, p, cap=cap)
        X = np.argwhere(grid_values(F, [np.arange(p)] * 4, modulus=p).T == 0)[: 10 * cap, ::-1]
        X = X[X.any(axis=1)]
        # level 1 is read slab by slab up to its witness, or whole before level 2: either way a prefix of X first
        read = np.concatenate(rows)[: len(X)]
        assert len(read) and np.array_equal(read, X[: len(read)])
        if len(read) >= 64:
            assert np.array_equal(read[:64], X[:64])

    def test_level_one_reads_one_slab_of_x1_mod_19(self, monkeypatch):
        # 19^4 cells fit the grid cap; the first slab of x4 (19^3 cells) holds the witness
        cells = []
        values_at = circle._values_at

        def recording(G, coords, modulus=None):
            if modulus == 19:
                cells.append(math.prod(np.broadcast_shapes(*map(np.shape, coords))))
            return values_at(G, coords, modulus)

        monkeypatch.setattr(circle, "_values_at", recording)
        assert local_witness(X1, 19) == ((6, 2, 1, 0), 1)
        assert cells and sum(cells) <= 19 ** 3

    def test_real_probe(self):
        assert real_point_probe(X1)[0] is True
        assert real_point_probe(parse_form("x1^4 + x2^4 + x3^4 + x4^4"))[0] is False

    def test_hasse_report_small(self):
        rep = hasse_report(X1, p_max=20)
        assert rep["real"]["soluble"]
        assert rep["everywhere_locally_soluble"]

    def test_hasse_report_plans_its_sampled_draws(self, monkeypatch):
        # primes 449..2999 are past the grid cap of x1^4 - 2 x2^4: 120 p residues each, about 6.9e7 in all
        def no_witness(*args, **kwargs):
            raise AssertionError("a prime was searched before the draws were planned")

        monkeypatch.setattr(circle, "local_witness", no_witness)
        F = parse_form("x1^4 - 2*x2^4")
        drawn = sum(120 * p for p in primes_up_to(3000) if p * p > 200_000)
        with pytest.raises(BudgetExceeded, match=f"^{drawn} residues drawn past the grid cap"):
            hasse_report(F, p_max=3000, budget=drawn - 1)
        monkeypatch.undo()
        # under a budget of 120 * 127 only p = 127 is past the grid cap, and its draws just fit
        assert set(hasse_report(F, p_max=127, budget=120 * 127)["primes"]) == set(primes_up_to(127))
        with pytest.raises(BudgetExceeded):
            hasse_report(F, p_max=127, budget=120 * 127 - 1)

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


class TestValuations:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 19, 3037000493, 2 ** 61 - 1])
    def test_int64_matches_python_ints(self, p):
        rng = random.Random(p)
        M = max(m for m in range(64) if p ** m < 1 << 63)
        values = [0, p ** M, -p ** M, -(1 << 63), (1 << 63) - 1, 1, -1]
        values += [rng.randrange(-(1 << 63), 1 << 63) for _ in range(200)]
        values += [rng.randrange(-999, 1000) * p ** rng.randrange(M + 1) for _ in range(200)]  # v_p of every size
        values = [v for v in values if -(1 << 63) <= v < 1 << 63]
        got = _val_p_many(np.array(values, dtype=np.int64), p)
        assert got.tolist() == [_val_p(v, p) for v in values]

    @pytest.mark.parametrize("p", [2, 5, 2 ** 61 - 1])
    def test_object_arrays_keep_python_ints(self, p):
        values = [0, p ** 40, -p ** 40 * 3, 7 * p ** 3 + p ** 70, 1 << 200, -(1 << 63), 12345]
        got = _val_p_many(np.array(values, dtype=object), p)
        assert got.tolist() == [_val_p(v, p) for v in values]


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

    @pytest.mark.parametrize("src, p", [("4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4", 23), ("2*x1^4 + 2*x2^4", 2)])
    def test_fewer_draws_give_the_first_zeros(self, src, p):
        # the sampled level 1 looks first at the zeros of 8 p draws: they must be the first zeros of the 60 p
        F = parse_form(src)
        for seed in (1, 2, 7):
            head = _sampled_zeros(F, p, random.Random(seed), 8 * p)
            assert head == _sampled_zeros(F, p, random.Random(seed))[: len(head)]

    def test_sampled_zeros_past_int64_rows(self):
        # 601^7 >= 2^63: no row fits one int64 key; 60 * 601 draws of 7 coordinates, few of them repeats
        F, p, seed = parse_form("x1^4 + 2*x2^4 - 3*x3^4 + x4^4 - x5^4 + 5*x6^4 - 7*x7^4"), 601, 3
        assert p ** F.n >= 2 ** 63
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

    @pytest.mark.parametrize("seed", [1, 2, 5, 2 ** 40 + 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 999, 7984])
    def test_same_values_and_state_as_gauss(self, seed, count):
        bulk, scalar = random.Random(seed), random.Random(seed)
        assert _gauss_many(bulk, count).tolist() == [scalar.gauss(0, 1) for _ in range(count)]
        assert bulk.getstate() == scalar.getstate() and bulk.gauss_next == scalar.gauss_next
        # an odd count leaves one value pending: the next draws start from it
        assert _gauss_many(bulk, 3).tolist() == [scalar.gauss(0, 1) for _ in range(3)]
        assert bulk.getstate() == scalar.getstate() and bulk.gauss_next == scalar.gauss_next

    def test_budget_turns_the_grids_into_samples(self, monkeypatch):
        F = parse_form("10*x1^4 + 5*x2^4 - 5*x3^4 - 5*x4^4")
        assert local_witness(F, 5) == local_witness(F, 5, budget=625)  # 5^4 cells fit: the same grid
        calls = []  # the first draws, and the whole sample unless they hold the witness
        monkeypatch.setattr(circle, "_sampled_zeros", lambda F, p, *args: calls.append(p) or _sampled_zeros(F, p, *args))
        x, k = local_witness(F, 5, budget=100)
        assert calls in ([5], [5, 5]) and hensel_criterion(F, x, 5)[0]


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

    def test_summed_cost_raises_before_any_histogram(self, monkeypatch):
        # every q <= 3000 fits 100,000 alone (cost q for one variable); the 466 prime powers sum to 621,475
        calls = []
        histogram = counting._block_histogram
        monkeypatch.setattr(counting, "_value_counts_memo", counting.LRUCache(counting.MEMO_RESIDUES, size=len))
        monkeypatch.setattr(counting, "_block_histogram", lambda G, q, memo: calls.append(q) or histogram(G, q, memo))
        F = parse_form("x1^4")
        with pytest.raises(BudgetExceeded) as exc:
            singular_series(F, 3000, SeriesCache(F, 100_000))
        assert str(exc.value) == "summed cost 621475 of F mod 466 prime powers exceeds budget 100000"
        assert calls == []
        assert singular_series(F, 3000, SeriesCache(F, 621_475)) == singular_series(F, 3000)

    def test_cached_moduli_are_not_planned(self):
        cache = SeriesCache(self.F, 150)
        full = SeriesCache(self.F)
        singular_series(self.F, 16, full)
        cache.aq = dict(full.aq)
        assert singular_series(self.F, 16, cache) == singular_series(self.F, 16) and cache.rho == {}


def _local_witness_oracle(F, p, k_max=12, cap=20000, seed=1, budget=DEFAULT_BUDGET):
    """The two-pass search with its linearised lifting step, as it was before the one-pass search."""
    n = F.n
    rng = random.Random(seed * 1_000_003 + p)
    if p ** n <= min(200_000, budget):
        vals = grid_values(F, [np.arange(p)] * n, modulus=p).T
        zeros = np.argwhere(vals == 0)[: 10 * cap, ::-1].tolist()
        level = [tuple(x) for x in zeros if any(x)]
    else:
        level = _sampled_zeros(F, p, rng)
    gradient = F.gradient()
    for k in range(1, k_max + 1):
        for x in level:
            ok, vF, vg = hensel_criterion(F, x, p, gradient=gradient)
            if ok and min(_val_p(xi, p) for xi in x) <= vg:
                return tuple(x), k
        pk, nxt, seen = p ** k, [], set()
        for x in level:
            c = (F.evaluate(list(x)) // pk) % p
            grad = [g.evaluate(list(x)) % p for g in gradient]
            support = [i for i, gi in enumerate(grad) if gi]
            if not support:
                if c % p != 0:
                    continue
                if p ** n <= min(4096, budget):
                    deltas = list(product(range(p), repeat=n))
                else:
                    deltas = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(64)]
            else:
                i0 = support[0]
                inv = pow(grad[i0], -1, p)
                frees = [j for j in range(n) if j != i0]
                if p ** len(frees) <= min(4096, budget):
                    free_iter = product(range(p), repeat=len(frees))
                else:
                    free_iter = (tuple(rng.randrange(p) for _ in frees) for _ in range(64))
                deltas = []
                for fv in free_iter:
                    d = list(fv)
                    d.insert(i0, (-(c + sum(grad[j] * v for j, v in zip(frees, fv))) * inv) % p)
                    deltas.append(tuple(d))
            for d in deltas:
                y = tuple(x[i] + pk * d[i] for i in range(n))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                if len(nxt) >= cap:
                    break
            if len(nxt) >= cap:
                break
        level = nxt
        if not level:
            break
    raise Inconclusive(f"no Hensel witness mod {p} within k <= {k_max}")


def _real_point_probe_oracle(F, budget=2000, seed=1):
    """The probe that evaluates F at one point at a time, as it was before the batched evaluation."""
    n = F.n
    rng = random.Random(seed)
    probes = []
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        probes.append(tuple(e))
    while len(probes) < budget:
        v = [rng.gauss(0, 1) for _ in range(n)]
        norm = math.sqrt(sum(t * t for t in v))
        probes.append(tuple(t / norm for t in v))
    vals = [float(F.evaluate(list(x))) for x in probes]
    pos = next((i for i, v in enumerate(vals) if v > 0), None)
    neg = next((i for i, v in enumerate(vals) if v < 0), None)
    zero = next((i for i, v in enumerate(vals) if v == 0), None)
    if zero is not None and any(F.gradient_at(list(probes[zero]))):
        return True, probes[zero]
    if pos is None or neg is None:
        return False, None
    xa, xb = probes[pos], probes[neg]
    for _ in range(200):
        mid = tuple((a + b) / 2 for a, b in zip(xa, xb))
        v = float(F.evaluate(list(mid)))
        if v == 0.0:
            break
        if v > 0:
            xa = mid
        else:
            xb = mid
    mid = tuple((a + b) / 2 for a, b in zip(xa, xb))
    grad = F.gradient_at(list(mid))
    gnorm = math.sqrt(sum(float(g) ** 2 for g in grad))
    return gnorm > 1e-9, mid


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except Inconclusive as exc:
        return "Inconclusive", str(exc)


def _scaled(F, m):
    return IntPolynomial(F.n, {e: m * c for e, c in F.coeffs.items()})


_forms_rng = random.Random(13)
# with k_max = 6 these searches end at levels 1, 2 and 3 and with empty levels
SEARCH_FORMS = (
    [random_form(_forms_rng, n, 4, 9) for n in (2, 3, 4, 5)]
    + [_scaled(X1, 899)]  # 899 = 29 * 31: every point mod 29 and mod 31 is singular
    + [_scaled(random_form(_forms_rng, n, 4, 5), m) for m, n in ((2, 2), (4, 3), (8, 4), (8, 2))]
    # p^2 | F: every point mod p lifts, through the 64 seeded deltas where p^n passes the budget
    + [_scaled(random_form(_forms_rng, 3, 4, 5), 900), _scaled(parse_form("-4*x1^4 - x1^3*x2 - x1*x2^3 + 2*x2^4"), 961)]
)
PROBE_FORMS = (
    [random_form(_forms_rng, n, 4, 5) for n in (1, 2, 3, 4)]
    # sparse forms up to n = 12, positive at every unit vector: sum a_i x_i^4 - 3 sum x_i^2 x_{i+1}^2
    + [IntPolynomial(n, {tuple(4 * (j == i) for j in range(n)): _forms_rng.choice((1, 2)) for i in range(n)}
                     | {tuple(2 * (j in (i, i + 1)) for j in range(n)): -3 for i in range(n - 1)}) for n in (5, 8, 12)]
    # no sign change; a bisection; a unit vector that is a smooth zero, and one that is a singular zero; a constant
    + [parse_form("x1^4 + x2^4 + x3^4 + x4^4"), parse_form("x1^2 - x2^2"), parse_form("x1^3*x2 + x2^4 - x3^4"),
       parse_form("x1^2*x2^2 + x2^4 - x3^4"), IntPolynomial(3, {(0, 0, 0): 5})]
)


class TestAgainstOracles:
    """The one-pass search and the batched probe return what the earlier code returned."""

    @pytest.mark.parametrize("p", [2, 3, 5, 29, 31])
    def test_local_witness(self, p):
        for F, seed, budget in product(SEARCH_FORMS, (1, 2), (40_000_000, 100)):
            new = _outcome(local_witness, F, p, k_max=6, seed=seed, budget=budget)
            assert new == _outcome(_local_witness_oracle, F, p, k_max=6, seed=seed, budget=budget)
            assert new[0] == "Inconclusive" or all(type(xi) is int for xi in new[0])

    @pytest.mark.parametrize("p", [41, 43])
    def test_local_witness_past_int64(self, p):
        # x1^2 - 4 p^22 x2^2: the first witness, x1 = 2 p^11 x2, is found at level 12, whose rows pass 2^63
        F = IntPolynomial(2, {(2, 0): 1, (0, 2): -4 * p ** 22})
        new = local_witness(F, p, k_max=13, cap=2000, seed=3)
        assert new == _local_witness_oracle(F, p, k_max=13, cap=2000, seed=3) and new[1] == 12
        assert all(type(xi) is int for xi in new[0])
        F3 = IntPolynomial(3, {(2, 0, 0): 1, (0, 2, 0): -4 * p ** 22})  # 64 seeded d a row past the p^2 grid
        assert _outcome(local_witness, F3, p, k_max=13, cap=500, seed=3) == _outcome(
            _local_witness_oracle, F3, p, k_max=13, cap=500, seed=3)

    @pytest.mark.parametrize("budget", [2000, 50, 3])
    def test_real_point_probe(self, budget):
        for F, seed in product(PROBE_FORMS, (1, 2)):
            new = real_point_probe(F, budget=budget, seed=seed)
            assert new == _real_point_probe_oracle(F, budget=budget, seed=seed)
            assert new[1] is None or all(type(t) is float for t in new[1])
