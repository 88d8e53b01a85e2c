import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from quartic import geometry, oscillatory, verify
from quartic.errors import BudgetExceeded, DimensionMismatch, NotQuarticForm, PreconditionViolated
from quartic.forms import CubicData, difference_cubic, parse_form, sym_tensor
from quartic.oscillatory import gen_sum
from quartic.verify import (
    avs5_average,
    davenport_shrink,
    davenport_sweep,
    geometry_bound_sweep,
    prime_power_bounds,
    prop_t2_bound,
    random_cubic_data,
    random_form,
    rational_approx_filter,
    vdc_identity,
    weyl_chain,
)
from quartic.weights import box, bump, separable_bump, shifted_product, unit_box


class TestVdc:
    def test_H1_relabeling(self):
        rep = vdc_identity(parse_form("x1^4"), bump((0.0,), 1.0), 10, 1, Fraction(1, 3))
        assert rep["rearrangement_residual"] < 1e-12
        assert rep["pair_counts_ok"]

    def test_pair_count_values(self):
        # n=1, H=3: N(0)=3, N(+-1)=2, N(+-2)=1, N(+-3)=0 by direct pair count
        H = 3
        for t, expect in [(0, 3), (1, 2), (-1, 2), (2, 1), (-2, 1), (3, 0)]:
            brute = sum(
                1 for h1 in range(1, H + 1) for h2 in range(1, H + 1) if h1 - h2 == t
            )
            assert brute == expect == max(H - abs(t), 0)

    def test_n2_full(self):
        rng = random.Random(0)
        F = random_form(rng, 2, 4, bound=3)
        rep = vdc_identity(F, bump((0.0, 0.0), 1.0), 15, 4, Fraction(1, 7))
        assert rep["rearrangement_residual"] <= 1e-9 * max(abs(rep["S"]) * 4 ** 2, 1.0)
        assert rep["pair_counts_ok"]
        assert rep["quadratic_residual"] <= 1e-9 * rep["quadratic_scale"]
        assert math.isfinite(rep["bound"].ratio)

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            vdc_identity(parse_form("x1^4"), bump((0.0,), 1.0), 10, 11, Fraction(1, 3))

    def test_budget_checked_before_the_grid(self, monkeypatch):
        # P = 10, H = 3: 24 x 24 widened cells times 3^2 shifts is 5184 > 5000
        def no_work(*args, **kwargs):
            raise AssertionError("F evaluated past the budget check")

        monkeypatch.setattr(verify, "grid_values", no_work)
        message = r"^vdc work of 5184 cells \(576 widened, 9 shifts\) exceeds budget 5000$"
        with pytest.raises(BudgetExceeded, match=message):
            vdc_identity(parse_form("x1^4 - x2^4"), bump((0.0, 0.0), 1.0), 10, 3, Fraction(1, 7), budget=5000)

    def test_pair_counts_checked_past_4096_pairs(self, monkeypatch):
        # n = 1, H = 70: a tally of 70^2 = 4900 pairs (h1, h2), checked at every size the budget admits
        F, w = parse_form("x1^4"), bump((0.0,), 1.0)
        assert vdc_identity(F, w, 80, 70, Fraction(1, 7))["pair_counts_ok"]
        real = np.bincount

        def one_pair_too_many(*args, **kwargs):
            out = real(*args, **kwargs)
            out[0] += 1
            return out

        monkeypatch.setattr(np, "bincount", one_pair_too_many)
        assert not vdc_identity(F, w, 80, 70, Fraction(1, 7))["pair_counts_ok"]

    @staticmethod
    def _per_shift(F, w, P, H, alpha):
        """vdc_identity's numbers as computed before one evaluation served every box: f afresh on the box of S
        and on each box shifted by h in 1..H."""
        n = F.n
        if isinstance(alpha, Fraction):
            a, q, z = int(alpha.numerator % alpha.denominator) or alpha.denominator, int(alpha.denominator), 0.0
        else:
            a, q, z = 0, 1, float(alpha)

        def f_at(axes):
            vals = verify.grid_values(F, axes).ravel()
            ang = ((vals % q).astype(np.int64) * (a / q) if q > 1 else 0.0) + z * vals.astype(float)
            return w.eval_grid([ax / P for ax in axes]).ravel() * np.exp(2j * np.pi * (ang % 1.0))

        ranges = verify.lattice_ranges(w, P)
        S = complex(f_at([np.arange(a0, b0 + 1, dtype=np.int64) for a0, b0 in ranges]).sum())
        X = [np.arange(a0 - H, b0 + 1, dtype=np.int64) for a0, b0 in ranges]
        inner = np.zeros(math.prod(max(b0 - a0 + 1 + H, 0) for a0, b0 in ranges), dtype=complex)
        double_sum = 0.0 + 0j
        for hh in product(range(1, H + 1), repeat=n):
            fx = f_at([ax + h for ax, h in zip(X, hh)])
            inner += fx
            double_sum += fx.sum()
        lhs_quad = float((np.abs(inner) ** 2).sum())
        rhs_quad = 0.0 + 0j
        sum_abs_T = 0.0
        for hh, Th in verify._differenced_sums(F, w, P, H, a or 1, q, z).items():
            rhs_quad += math.prod(H - abs(t) for t in hh) * Th
            sum_abs_T += abs(Th)
        return [S, abs(H ** n * S - double_sum), abs(lhs_quad - rhs_quad), max(lhs_quad, 1.0), abs(S) ** 2,
                H ** (-n) * float(P) ** n * sum_abs_T]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("H", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "weight", ["bump", "separable", "box", "unit-box", "no-lattice-point"],
    )
    @pytest.mark.parametrize("alpha", [Fraction(3, 7), 0.0137], ids=["rational", "float"])
    def test_one_evaluation_matches_the_per_shift_loop(self, n, H, weight, alpha):
        w = {"bump": bump((0.1,) * n, 0.9), "separable": separable_bump((0.2,) * n, 0.5), "box": box(n),
             "unit-box": unit_box(n), "no-lattice-point": bump((0.05,) * n, 0.01)}[weight]
        F = random_form(random.Random(10 * n + H), n, 4, bound=3)
        rep = vdc_identity(F, w, 7, H, alpha)
        got = [rep["S"], rep["rearrangement_residual"], rep["quadratic_residual"], rep["quadratic_scale"],
               rep["bound"].lhs, rep["bound"].rhs]
        assert [repr(v) for v in got] == [repr(v) for v in self._per_shift(F, w, 7, H, alpha)]

    @pytest.mark.parametrize("H", [1, 2, 3, 4, 6])
    def test_F_is_evaluated_twice_for_every_H(self, H, monkeypatch):
        # once for S and every shifted box, once for the differenced sums; the per-shift loop took H^n + 2
        calls = []

        def counted(F, axes, modulus=None):
            calls.append(len(axes))
            return grid_values(F, axes, modulus)

        grid_values = verify.grid_values
        monkeypatch.setattr(verify, "grid_values", counted)
        vdc_identity(random_form(random.Random(H), 2, 4, bound=3), bump((0.0, 0.0), 1.0), 8, H, Fraction(1, 5))
        assert calls == [2, 2]


def _differenced_sums_per_shift(F, w, P, H, a, q, z):
    """h -> T_h before one evaluation of F served every shift: a difference cubic and a `gen_sum` for each h."""
    return {
        hh: gen_sum(difference_cubic(F, list(hh)).poly, shifted_product(w, hh, P), P, a=a, q=q, z=z)
        for hh in product(range(-(H - 1), H), repeat=F.n)
    }


def _pair_counts_loop(H, n):
    """N(h) for h in [-H, H]^n by the loop over every pair (h1, h2) and every h that the one tally replaced."""
    return {
        hh: sum(
            1
            for h1 in product(range(1, H + 1), repeat=n)
            for h2 in product(range(1, H + 1), repeat=n)
            if all(a1 - a2 == t for a1, a2, t in zip(h1, h2, hh))
        )
        for hh in product(range(-H, H + 1), repeat=n)
    }


class TestDifferencedSums:
    @pytest.mark.parametrize(
        "n, w, P, H, a, q, z",
        [
            (1, bump((0.1,), 1.0), 12, 3, 1, 7, 0.0),
            (1, bump((0.0,), 0.6), 20, 5, 0, 1, 0.0123),
            (1, unit_box(1), 9, 9, 2, 5, 0.0),
            (2, bump((0.0, 0.0), 1.0), 12, 3, 3, 7, 0.0),
            (2, separable_bump((0.2, -0.1), 0.7), 10, 2, 0, 1, -0.031),
            (2, bump((0.1, 0.2), 0.9), 8, 3, 2, 9, 0.004),
            (2, unit_box(2), 6, 6, 1, 3, 0.0),
            (1, bump((0.0,), 0.2), 10, 6, 1, 7, 0.0),
            (2, separable_bump((0.0, 0.1), 0.25), 8, 4, 0, 1, 0.02),
        ],
        ids=["n1-q7", "n1-q1-z", "n1-unit-box-H=P", "n2-q7", "n2-q1-z", "n2-q9-z", "n2-unit-box-H=P",
             "n1-empty-boxes", "n2-empty-boxes"],
    )
    def test_one_evaluation_of_F_matches_a_gen_sum_per_shift(self, n, w, P, H, a, q, z):
        rng = random.Random(n * 1000 + P)
        for _ in range(3):
            F = random_form(rng, n, 4, bound=3)
            got = verify._differenced_sums(F, w, P, H, a or q, q, z)
            want = _differenced_sums_per_shift(F, w, P, H, a or q, q, z)
            assert list(got) == list(want)
            assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]

    def test_past_int64_the_differences_stay_exact(self):
        F = parse_form(f"{2 ** 41}*x1^4 - x1^3*x2")  # F on the box passes 2^62, each difference cubic does not
        w = bump((0.0, 0.0), 1.0)
        assert verify.grid_values(F, [np.arange(-40, 41)] * 2).dtype == object
        got = verify._differenced_sums(F, w, 40, 2, 3, 7, 0.001)
        want = _differenced_sums_per_shift(F, w, 40, 2, 3, 7, 0.001)
        assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]

    @pytest.mark.parametrize("n, H", [(1, 1), (1, 4), (1, 12), (2, 1), (2, 3), (2, 8), (3, 2), (3, 3)])
    def test_pair_counts_match_the_pair_loop(self, n, H):
        # vdc_identity checks its one tally of h1 - h2 against prod_i (H - |h_i|): the counts of the pair loop
        assert _pair_counts_loop(H, n) == {
            hh: math.prod(H - abs(t) for t in hh) for hh in product(range(-H, H + 1), repeat=n)
        }
        F = random_form(random.Random(H), n, 4, bound=3)
        assert vdc_identity(F, bump((0.0,) * n, 1.0), max(H, 4), H, Fraction(1, 7))["pair_counts_ok"]

    def test_refusals_come_in_order_before_any_pass(self, monkeypatch):
        calls = []
        for module in (verify, oscillatory):
            values = module.grid_values
            monkeypatch.setattr(module, "grid_values", lambda F, ax, values=values: calls.append(F) or values(F, ax))
        with pytest.raises(NotQuarticForm):
            verify._differenced_sums(parse_form("x1^3 + x2"), bump((0.0,), 1.0), 10, 2, 1, 3, 0.0)
        with pytest.raises(DimensionMismatch):
            verify._differenced_sums(parse_form("x1^4 + x2^4"), bump((0.0,), 1.0), 10, 2, 1, 3, 0.0)
        assert calls == []

    def test_empty_boxes_evaluate_no_F(self):
        F = parse_form(f"{2 ** 63}*x1^4")  # past int64 on any box that holds a cell
        w = bump((0.55,), 0.01)  # 10 * support = [5.4, 5.6] holds no integer
        assert gen_sum(F, w, 10, a=1, q=3) == 0
        assert list(verify._differenced_sums(F, w, 10, 2, 1, 3, 0.0).values()) == [0, 0, 0]


class TestWeyl:
    def test_alpha0_dominated(self):
        rep = weyl_chain(parse_form("x1^4"), 8, Fraction(0, 1))
        # alpha = 0: LHS = S(0)^8 <= P^{4n} * sum prod min(P, inf->P) = P^{4n} B^{3n} P^n
        assert rep["product"].ratio <= 1.0

    def test_n1_ratios_finite(self):
        rep = weyl_chain(parse_form("x1^4"), 10, Fraction(1, 3))
        for key in ("square", "product", "counting"):
            assert math.isfinite(rep[key].ratio)
        # N(alpha,P) never exceeds the full box
        assert rep["N_alpha_P"] <= (2 * 10 + 1) ** 3

    def test_histogram_oracle_n1(self):
        # brute-force the weyl4 RHS for a tiny case
        F = parse_form("x1^4")
        P, alpha = 4, Fraction(1, 5)
        rep = weyl_chain(F, P, alpha)
        N24 = 24  # tensor entry for x^4
        rhs = 0.0
        for w in range(-P, P + 1):
            for x in range(-P, P + 1):
                for y in range(-P, P + 1):
                    L = N24 * w * x * y
                    fr = (alpha * L) % 1
                    dist = min(fr, 1 - fr)
                    rhs += min(P, 1.0 / dist) if dist else P
        rhs *= float(P) ** 4
        assert abs(rep["product"].rhs - rhs) <= 1e-6 * rhs


    def test_histogram_n3_vs_brute_force(self):
        F = random_form(random.Random(3), 3, 4, bound=2)
        T = sym_tensor(F)
        box = list(product(range(-1, 2), repeat=3))
        Ls = [T.trilinear(w, x, y) for w, x, y in product(box, repeat=3)]
        for qq in (2, 5):  # with qq = 2 the residues of y repeat
            want = np.zeros((qq,) * 3, dtype=np.int64)
            for L in Ls:
                want[tuple(t % qq for t in L)] += 1
            assert np.array_equal(verify._trilinear_residue_histogram(F, 1, qq), want)

    def test_histogram_past_its_cap_names_the_cells(self):
        # n = 2, P = 40: 81^4 (w, x) pairs times 7^2 residues of y
        with pytest.raises(BudgetExceeded, match="^weyl histogram of 2109289329 cells exceeds its cap 300000000$"):
            verify._trilinear_residue_histogram(parse_form("x1^4 - x2^4"), 40, 7)


class TestDavenport:
    def test_equal_Z(self):
        L = [[1, 2], [2, 5]]
        rep = davenport_shrink(L, 10.0, 1.0, 1.0, 1.0, alpha=Fraction(1, 7))
        assert rep.ratio == 1.0

    def test_zero_matrix_closed_form(self):
        n = 2
        L = [[0] * n for _ in range(n)]
        A, Z1, Z2 = 10.0, 0.5, 1.0
        rep = davenport_shrink(L, A, 1.0, Z1, Z2)
        N1 = (2 * math.floor(A * Z1) + 1) ** n
        N2 = (2 * math.floor(A * Z2) + 1) ** n
        assert rep.lhs == N2 and rep.params["N1"] == N1
        assert rep.ratio <= 2 ** n

    def test_sweep_bounded(self):
        out = davenport_sweep(seed=7, trials=30)
        assert out["max_ratio"] <= 100

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_fraction_oracle(self, n):
        rng = random.Random(n)
        for _ in range(12):
            L = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            alpha = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            A, Z1, Z2 = rng.choice([4.0, 6.0, 10.0]), rng.choice([0.25, 0.5, 0.3]), 1.0
            rep = davenport_shrink(L, A, 1.0, Z1, Z2, alpha=alpha)
            assert (rep.params["N1"], rep.params["N2"]) == (
                _davenport_count_oracle(L, A, 1.0, Z1, alpha), _davenport_count_oracle(L, A, 1.0, Z2, alpha))

    def test_integer_alpha_counts_everything(self):
        L = [[3, -1], [-1, 2]]
        rep = davenport_shrink(L, 5.0, 1.0, 0.4, 1.0, alpha=Fraction(-2))
        assert (rep.params["N1"], rep.params["N2"]) == (5 ** 2, 11 ** 2)

    def test_slabs_cover_the_box(self):
        # 2*2^18 + 1 points in slabs of 2^18: ||u/4|| < Z/A only at u = 0 mod 4
        rep = davenport_shrink([[1]], float(1 << 18), 1.0, 0.5, 1.0, alpha=Fraction(1, 4))
        assert (rep.params["N1"], rep.params["N2"]) == ((1 << 16) + 1, (1 << 17) + 1)

    def test_distance_equal_to_threshold_is_excluded(self):
        # Z2/A = 1/4 = ||(1/4) u|| exactly at every odd u: only u = 0 mod 4 counts
        L, A = [[1]], 4.0
        assert _davenport_count_oracle(L, A, 1.0, 1.0, Fraction(1, 4)) == 3
        rep = davenport_shrink(L, A, 1.0, 0.5, 1.0, alpha=Fraction(1, 4))
        assert (rep.params["N1"], rep.params["N2"]) == (1, 3)


def _davenport_count_oracle(L, A, c, Z, alpha):
    """#{|u| <= cAZ : ||alpha (Lu)_i|| < Z/A for all i}, point by point in Fractions."""
    n = len(L)
    R = int(math.floor(c * A * Z))
    thresh = Fraction(Z) / Fraction(A)
    total = 0
    for u in product(range(-R, R + 1), repeat=n):
        ok = True
        for i in range(n):
            v = alpha * sum(L[i][j] * u[j] for j in range(n))
            frac = v - math.floor(v)
            if not min(frac, 1 - frac) < thresh:
                ok = False
                break
        total += ok
    return total


class TestRationalFilter:
    def test_m0(self):
        out = rational_approx_filter(20, 2, 5, Fraction(0), 10, 0)
        assert out["ok"]

    def test_example(self):
        out = rational_approx_filter(20, 2, 5, Fraction(0), 10, 10)
        assert out["q_divides_m"] and out["ok"]

    def test_exhaustive_small(self):
        # q <= 8, |m| <= 30, z on a rational grid; zero tolerance
        for q in range(1, 9):
            for a in range(1, q + 1):
                if math.gcd(a, q) != 1:
                    continue
                for M in (q, 2 * q, 30):
                    Q = 2 * q + 3
                    for znum in (-1, 0, 1):
                        z = Fraction(znum, 4 * q * M)
                        for m in range(-min(M, 30), min(M, 30) + 1):
                            alpha = Fraction(a, q) + z
                            v = alpha * m
                            fr = v - math.floor(v)
                            if min(fr, 1 - fr) >= Fraction(1, Q):
                                continue
                            out = rational_approx_filter(M, a, q, z, Q, m)
                            assert out["ok"], (q, a, M, z, m)


class TestPrimePowerBounds:
    def test_constant_mod_p(self):
        # f with top part vanishing mod p: convention s_p = n-1 makes ratio <= 1
        f = parse_form("7*x1^3 + x1")
        rep = prime_power_bounds("deligne", f=f, p=7, j=1, s_p=geometry.sing_dim(f.homogeneous_part(3), 7))
        assert rep.params["s_p"] == 0  # n - 1 for n = 1
        assert rep.ratio <= 1.0 + 1e-12

    def test_weil_sweep_elliptic(self):
        for p in (5, 7, 11, 13):
            for a in range(p):
                f = parse_form(f"x1^3 + {a}*x1 + 1") if a else parse_form("x1^3 + 1")
                rep = prime_power_bounds("deligne", f=f, p=p, j=1, s_p=-1)
                assert rep.lhs <= 2 * math.sqrt(p) + 1e-9

    def test_j2(self):
        rep = prime_power_bounds("deligne", f=parse_form("x1^3 + x1"), p=5, j=2, s_p=-1)
        assert math.isfinite(rep.ratio)

    def test_birch_bound_diag(self):
        F = parse_form("x1^4 + 2*x2^4")
        for q in (3, 4, 5, 8, 12):
            rep = prime_power_bounds("birch", F=F, q=q, sigma=-1)
            assert math.isfinite(rep.ratio)

    def test_kge2_exact_scale(self):
        rep = prime_power_bounds("kge2", F=parse_form("x1^4 + x2^4"), p=3, k=2, sigma=-1)
        assert rep.ratio <= 2.0


class TestAvs5:
    def test_empty(self):
        rep = avs5_average(parse_form("x1^3 + x2^3"), 5, 0.5)
        assert rep.lhs == 0.0

    def test_small_case(self):
        rep = avs5_average(parse_form("x1^3 + x2^3"), 5, 5)
        assert rep.ratio <= 4.0

    def test_m1_unit_kernels(self):
        rep = avs5_average(parse_form("x1^3 + x2^3"), 1, 5)
        assert rep.lhs == 11 ** 2
        assert rep.ratio <= 3 ** 2

    def test_random_sweep(self):
        rng = random.Random(11)
        for _ in range(6):
            g0 = random_form(rng, 2, 3, bound=3)
            rep = avs5_average(g0, rng.choice([2, 3, 4, 5, 6]), rng.choice([2, 3, 4]))
            assert math.isfinite(rep.ratio)


class TestPropT2:
    def test_q1(self):
        g = CubicData.from_poly(parse_form("x1^3"))
        rep = prop_t2_bound(g, bump((0.0,), 1.0), 30, 1, 1, 0.0)
        assert math.isfinite(rep.ratio)

    def test_q4_example(self):
        g = CubicData.from_poly(parse_form("x1^3"))
        rep = prop_t2_bound(g, bump((0.0,), 1.0), 30, 1, 4, 0.0)
        assert rep.params["bcd"] == (4, 1, 1)
        assert math.isfinite(rep.ratio)

    def test_sweep_stable_under_P(self):
        rng = random.Random(12)
        g = random_cubic_data(rng, 2, bound=2)
        w = bump((0.0, 0.0), 0.5)
        r30 = max(prop_t2_bound(g, w, 30, 1, q, 0.0).ratio for q in (2, 3, 4, 5))
        r60 = max(prop_t2_bound(g, w, 60, 1, q, 0.0).ratio for q in (2, 3, 4, 5))
        assert r60 <= 4 * max(r30, 1e-9) + 1.0


class TestGeometrySweep:
    def test_shape_and_ratios(self):
        out = geometry_bound_sweep(seed=7, trials=3)
        assert out["shape_ok"]
        assert out["max_ratio_Tr"] > 0 and out["max_ratio_Bs"] > 0

    def test_one_sing_dim_per_form_and_prime(self, monkeypatch):
        calls = []
        real = geometry.sing_dim

        def counted(G, p, *args, **kwargs):
            calls.append((G, p))
            return real(G, p, *args, **kwargs)

        monkeypatch.setattr(geometry, "sing_dim", counted)
        monkeypatch.setattr(verify, "sing_dim", counted)
        primes = (7, 11, 13)
        geometry_bound_sweep(seed=7, trials=4, primes=primes)
        assert len(calls) == len(set(calls)) == 4 * len(primes)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_matches_a_loop_over_the_profiles(self, seed):
        trials, primes, n = 3, (7, 11, 13), 3
        rng = random.Random(seed)
        max_tr = max_bs = 0.0
        shape_ok = True
        for _ in range(trials):
            G = random_form(rng, n, 3, bound=4)
            for p in primes:
                for r in range(n + 1):
                    prof = geometry.hessian_rank_profile(G, p, r, kmax=1)
                    max_tr = max(max_tr, prof["ratio"])
                    shape_ok &= prof["count"] <= 8.0 * p ** prof["bound"]
                for s in range(n + 1):
                    prof = geometry.hessian_rank_profile(G, p, n - s, kmax=1)  # B_s is the rank <= n - s locus
                    max_bs = max(max_bs, prof["ratio"])
                    shape_ok &= prof["count"] <= 8.0 * p ** prof["bound"]
        out = geometry_bound_sweep(seed=seed, trials=trials, primes=primes, n=n)
        assert (out["max_ratio_Tr"], out["max_ratio_Bs"], out["shape_ok"]) == (max_tr, max_bs, shape_ok)


class TestMoreErrorPaths:
    def test_filter_precondition(self):
        with pytest.raises(PreconditionViolated):
            rational_approx_filter(20, 2, 4, Fraction(0), 10, 0)  # gcd(2,4) != 1
        with pytest.raises(PreconditionViolated):
            rational_approx_filter(20, 1, 5, Fraction(1, 2), 10, 0)  # |z| too big

    def test_kge2_guard(self):
        from quartic.forms import parse_form

        with pytest.raises(PreconditionViolated):
            prime_power_bounds("kge2", F=parse_form("x1^4"), p=3, k=1, sigma=-1)
