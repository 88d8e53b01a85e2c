import cmath
import json
import math
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from quartic import counting, expsums
from quartic.counting import factorint, solutions_mod_q, value_counts
from quartic.errors import BudgetExceeded, NotCoprime, PreconditionViolated
from quartic.expsums import (
    _scaled_counts,
    complete_sum,
    factor_bcd,
    kernel_count_mod,
    smith_diagonal,
    split_multiplicative,
    sum_over_units,
    sum_over_units_float,
    twisted_sum,
    unit_sum_prime_power,
)
from quartic.forms import CubicData, IntPolynomial, grid_values, hessian, parse_form
from quartic.verify import random_cubic_data, random_form


class TestCompleteSum:
    def test_x4_mod2(self):
        assert abs(complete_sum(parse_form("x1^4"), 1, 2).value) < 1e-12

    def test_q1(self):
        assert complete_sum(parse_form("x1^4 + x2^4"), 1, 1).value == 1

    def test_x4_mod5(self):
        got = complete_sum(parse_form("x1^4"), 1, 5).value
        assert abs(got - (1 + 4 * cmath.exp(2j * cmath.pi / 5))) < 1e-12

    def test_crt_vs_direct_sweep(self):
        rng = random.Random(0)
        for q in range(2, 61):
            F = random_form(rng, 2, 4, bound=5)
            a = next(t for t in range(1, q + 1) if math.gcd(t, q) == 1)
            d = complete_sum(F, a, q, method="direct").value
            c = complete_sum(F, a, q, method="crt").value
            assert abs(d - c) <= 1e-9 * q ** 2

    def test_two_blocks_at_composite_q_take_crt(self, monkeypatch):
        # direct at 30030 would be two q^2 convolutions: auto takes the six prime sums
        import quartic.expsums as expsums

        F = parse_form("x1^4 + x2^4")
        moduli = []

        def recording(G, q, budget):
            moduli.append(q)
            return value_counts(G, q, budget)

        monkeypatch.setattr(expsums, "value_counts", recording)
        got = complete_sum(F, 1, 30030)
        assert moduli == [30030, 2, 3, 5, 7, 11, 13]
        assert repr(got.value) == repr(complete_sum(F, 1, 30030, method="crt").value)

    def test_conjugation(self):
        rng = random.Random(1)
        F = random_form(rng, 2, 4, bound=5)
        for q in (7, 12, 25):
            for a in range(1, q):
                if math.gcd(a, q) == 1:
                    s1 = complete_sum(F, a, q).value
                    s2 = complete_sum(F, q - a, q).value
                    assert abs(s2 - s1.conjugate()) <= 1e-9 * q ** 2


def _times(F, a):
    return IntPolynomial(F.n, {e: a * c for e, c in F.coeffs.items()})


F8 = parse_form("x1^4 + x2^4 + x3^4 + x4^4 - x5^4 - x6^4 - x7^4 - x8^4")


class TestEveryMultiplier:
    """Untwisted sums reindex one memoised value distribution of F for every a."""

    @pytest.mark.parametrize("q", [12, 27, 36])
    def test_reindexed_counts_equal_counts_of_aF(self, q):
        rng = random.Random(q)
        with_const = random_form(rng, 2, 4, bound=5) + IntPolynomial(2, {(0, 0): 7})
        for F in (random_form(rng, 2, 4, bound=5), with_const):
            counts = value_counts(F, q)
            for a in list(range(q + 2)) + [-1, -q]:  # a = 0 and the non-units included
                got = _scaled_counts(counts, a, q)
                want = value_counts(_times(F, a), q)
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), (F, q, a)

    def test_reindexing_keeps_python_ints(self):
        q = 243  # 8*log2(q) >= 62: the distribution of F8 holds Python ints
        counts = value_counts(F8, q)
        for a in (0, 3, 5):
            got = _scaled_counts(counts, a, q)
            want = value_counts(_times(F8, a), q)
            assert got.dtype == want.dtype == object and got.tolist() == want.tolist()

    def test_one_table_serves_every_a(self, monkeypatch, cold_memo):
        F = parse_form("x1^4 + 2*x1*x2*x3^2 + x2^3*x3 - 5*x3^4 + 11")  # one block
        built = []
        real = counting._block_histogram
        monkeypatch.setattr(counting, "_block_histogram", lambda G, q, memo: built.append(q) or real(G, q, memo))
        for a in range(1, 22):
            complete_sum(F, a, 21)
        assert built == [3, 7]  # the table mod 21 is the CRT product of the tables mod 3 and mod 7

    def test_twisted_tables_are_not_kept(self):
        g = random_cubic_data(random.Random(60), 2, bound=4)
        keys = list(counting._value_counts_memo)
        for v in product(range(3), repeat=2):
            if any(v):
                twisted_sum(g, 1, 15, v, method="direct")
        assert list(counting._value_counts_memo) == keys

    def test_a_hit_under_a_smaller_budget(self, monkeypatch):
        import quartic.expsums as expsums

        F = parse_form("x1^4 + x1*x2^3 + 3*x2^4")  # one block of q^2 cells
        q = 30
        complete_sum(F, 1, q)  # the table of F mod 30 is now memoised
        with pytest.raises(BudgetExceeded):
            complete_sum(F, 7, q, method="direct", budget=q * q - 1)
        moduli = []

        def recording(G, q, budget):
            moduli.append(q)
            return value_counts(G, q, budget)

        monkeypatch.setattr(expsums, "value_counts", recording)
        got = complete_sum(F, 7, q, budget=q * q - 1)
        assert moduli == [30, 2, 3, 5]
        assert repr(got) == repr(complete_sum(F, 7, q, method="crt"))

    def test_a_modulus_past_int64_residues_goes_through_its_prime_powers(self):
        F, q = parse_form("x1^2"), 65536 * 65537  # q >= 2^31, its prime powers are not
        with pytest.raises(BudgetExceeded):
            complete_sum(F, 1, q, method="direct", budget=10 ** 10)
        got = complete_sum(F, 1, q, budget=10 ** 10)
        assert repr(got) == repr(complete_sum(F, 1, q, method="crt", budget=10 ** 10))


class TestErrOracle:
    """|S_{a,q} - the same sum in mpmath at 50 digits| <= err, for every a mod q."""

    @staticmethod
    def check(F, q, counts, method="auto"):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            roots = [mpmath.expjpi(mpmath.mpf(2 * k) / q) for k in range(q)]
            support = [(r, int(N)) for r, N in enumerate(counts) if N]
            for a in range(q):
                got = complete_sum(F, a, q, method=method)
                exact = mpmath.fsum(N * roots[a * r % q] for r, N in support)
                assert 0 < got.err and abs(mpmath.mpc(got.value) - exact) <= got.err, (F, q, a)

    @pytest.mark.parametrize("n, q", [(1, 128), (2, 45), (2, 101), (3, 16), (3, 128)])
    def test_seeded_forms(self, n, q):
        F = random_form(random.Random(50 + n), n, 4, bound=9) + IntPolynomial(n, {(0,) * n: 3})
        counts = np.bincount(grid_values(F, [np.arange(q)] * n, modulus=q).ravel(), minlength=q)
        self.check(F, q, counts)

    @staticmethod
    def f8_counts(q):
        dist = {0: 1}
        for sign in (1, 1, 1, 1, -1, -1, -1, -1):
            new = {}
            for r, N in dist.items():
                for x in range(q):
                    s = (r + sign * x ** 4) % q
                    new[s] = new.get(s, 0) + N
            dist = new
        return [dist.get(r, 0) for r in range(q)]

    def test_F8_on_python_ints(self):
        q = 256
        assert value_counts(F8, q).dtype == object
        self.check(F8, q, self.f8_counts(q))

    def test_F8_crt_product_on_python_ints(self):
        q = 240  # 16 * 3 * 5
        assert value_counts(F8, q).dtype == object
        self.check(F8, q, self.f8_counts(q), "crt")

    @pytest.mark.parametrize("n, q", [(1, 900), (2, 360), (3, 60), (3, 72)])
    def test_crt_product_on_seeded_forms(self, n, q):
        """The err of `_crt_sum`: composite q, so each sum is a product over its prime powers."""
        F = random_form(random.Random(60 + n), n, 4, bound=9) + IntPolynomial(n, {(0,) * n: 5})
        counts = np.bincount(grid_values(F, [np.arange(q)] * n, modulus=q).ravel(), minlength=q)
        self.check(F, q, counts, "crt")


class TestUnitSums:
    def test_q1(self):
        assert sum_over_units(parse_form("x1^4"), 1) == 1

    def test_prime_identity(self):
        rng = random.Random(2)
        F = random_form(rng, 2, 4, bound=5)
        for p in (3, 5, 7, 11):
            assert unit_sum_prime_power(F, p, 1) == p * solutions_mod_q(F, p) - p ** 2

    def test_a2_vanishes(self):
        assert sum_over_units(parse_form("x1^4 + x2^4"), 2) == 0

    def test_exact_vs_float(self):
        rng = random.Random(3)
        F = random_form(rng, 2, 4, bound=4)
        for q in (2, 3, 4, 6, 8, 9, 12, 18):
            exact = sum_over_units(F, q)
            approx = sum_over_units_float(F, q)
            ndiv = len([d for d in range(1, q + 1) if q % d == 0])
            assert abs(exact - approx) <= 1e-6 * q ** 2 * ndiv

    def test_mobius_route_matches_multiplicative(self):
        # A_q from inclusion-exclusion over divisors, no multiplicativity used
        rng = random.Random(4)
        F = random_form(rng, 2, 4, bound=3)
        n = F.n
        for q in (6, 12, 20, 36):
            direct = 0
            for qp in range(1, q + 1):
                if q % qp:
                    continue
                mu_arg = q // qp
                fac = factorint(mu_arg)
                if any(e > 1 for e in fac.values()):
                    continue
                mu = (-1) ** len(fac)
                direct += mu * (q // qp) ** n * qp * solutions_mod_q(F, qp)
            assert direct == sum_over_units(F, q)

    @pytest.mark.parametrize("F", [
        parse_form("x1^4 + x2^4 + x3^4 + x4^4 - x5^4 - x6^4 - x7^4 - x8^4"),
        parse_form("4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4"),
        parse_form("x1^4 + x1*x2^3 + x3^4 + x4^4 - x5^4 - x6^4"),
    ], ids=["F8", "X1", "n6-blocks"])
    def test_ramanujan_sums(self, F):
        """A_q = sum_r N_q(r) c_q(r) with the exact Ramanujan sums c_q(r) = sum_{d | (q, r)} mu(q/d) d."""
        def mu(m):
            fac = factorint(m)
            return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)

        for q in range(1, 129):
            N = value_counts(F, q)
            divisors = [d for d in range(1, q + 1) if q % d == 0]
            c = [sum(mu(q // d) * d for d in divisors if r % d == 0) for r in range(q)]
            assert sum_over_units(F, q) == sum(int(N[r]) * c[r] for r in range(q))

    def test_prime_power_reads_one_table(self, monkeypatch):
        F = parse_form("x1^4 + x1*x2^3 - 3*x2^4 + 2*x3^4")
        moduli, rho = [], [solutions_mod_q(F, 3 ** k) for k in range(5)]
        monkeypatch.setattr(expsums, "value_counts", lambda F, q, b: moduli.append(q) or value_counts(F, q, b))
        for k in range(1, 5):
            assert unit_sum_prime_power(F, 3, k) == 3 ** k * rho[k] - 3 ** (F.n + k - 1) * rho[k - 1]
        assert moduli == [3, 9, 27, 81]


class TestTwisted:
    def test_v0_equals_complete(self):
        rng = random.Random(5)
        g = random_cubic_data(rng, 2, bound=4)
        for q in (5, 8, 9):
            t = twisted_sum(g, 2 if q != 8 else 3, q, [0, 0]).value
            s = complete_sum(g.poly, 2 if q != 8 else 3, q).value
            assert abs(t - s) < 1e-9 * q ** 2

    def test_x3_mod2_twisted(self):
        g = CubicData.from_poly(parse_form("x1^3"))
        assert abs(twisted_sum(g, 1, 2, [1]).value - 2) < 1e-12

    def test_crt_agrees(self):
        rng = random.Random(6)
        for q in (6, 10, 12, 15, 30):
            g = random_cubic_data(rng, 2, bound=3)
            v = [rng.randint(-3, 3) for _ in range(2)]
            a = next(t for t in range(1, q) if math.gcd(t, q) == 1)
            d = twisted_sum(g, a, q, v, method="direct").value
            c = twisted_sum(g, a, q, v, method="crt").value
            assert abs(d - c) <= 1e-9 * q ** 2


class TestSplitMultiplicative:
    def test_s1_trivial(self):
        g = CubicData.from_poly(parse_form("x1^3"))
        rep = split_multiplicative(g, 1, 5, 1, [0])
        assert rep["right"] == 1 and rep["residual"] < 1e-12

    def test_example_2_3(self):
        g = CubicData.from_poly(parse_form("x1^3"))
        rep = split_multiplicative(g, 1, 2, 3, [0])
        assert rep["residual"] <= 1e-9

    def test_not_coprime(self):
        g = CubicData.from_poly(parse_form("x1^3"))
        with pytest.raises(NotCoprime):
            split_multiplicative(g, 1, 4, 6, [0])

    @pytest.mark.parametrize("r, s", [(0, 1), (1, 0), (-3, 5)])
    def test_moduli_below_one_are_a_precondition(self, r, s):
        # (0, 1) and (1, 0) used to die in a % (r * s) with a bare ZeroDivisionError
        g = CubicData.from_poly(parse_form("x1^3"))
        with pytest.raises(PreconditionViolated):
            split_multiplicative(g, 1, r, s, [0])

    def test_random_trials(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.choice([1, 2])
            g = random_cubic_data(rng, n, bound=5)
            while True:
                r, s = rng.randint(2, 60), rng.randint(2, 60)
                if math.gcd(r, s) == 1 and (r * s) ** n <= 4_000_000:
                    break
            v = [rng.randint(-5, 5) for _ in range(n)]
            a = rng.randrange(1, r * s)
            rep = split_multiplicative(g, a, r, s, v)
            assert rep["residual"] <= 1e-6 * rep["scale"]


class TestFactorBCD:
    @pytest.mark.parametrize(
        "q,b,c,d",
        [(72, 9, 2, 2), (32, 1, 4, 2), (16, 1, 4, 1), (1, 1, 1, 1), (360, 45, 2, 2)],
    )
    def test_examples(self, q, b, c, d):
        mf = factor_bcd(q)
        assert (mf.b, mf.c, mf.d) == (b, c, d)
        assert mf.verify()

    def test_sweep(self):
        for q in range(1, 20001):
            mf = factor_bcd(q)
            assert mf.q == mf.b * mf.c ** 2 * mf.d
            assert mf.c % mf.d == 0
        # full invariant check on every q <= 10^6 via a smallest-prime sieve
        N = 1_000_000
        spf = np.arange(N + 1, dtype=np.int64)
        for p in range(2, int(N ** 0.5) + 1):
            if spf[p] == p:
                sl = spf[p * p :: p]
                sl[sl == np.arange(p * p, N + 1, p)] = p
        bad = 0
        for q in range(2, N + 1):
            b = d = 1
            c2 = 1
            m = q
            while m > 1:
                p = int(spf[m])
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                if e <= 2:
                    b *= p ** e
                elif e % 2:
                    d *= p
                    c2 *= p ** (e - 1)
                else:
                    c2 *= p ** e
            c = math.isqrt(c2)
            if not (c * c == c2 and q == b * c * c * d and c % d == 0 and math.gcd(b, c * c * d) == 1):
                bad += 1
        assert bad == 0
        # spot-check d0 and the square-full witness on larger moduli
        rng = random.Random(8)
        for _ in range(500):
            q = rng.randint(20001, 1_000_000)
            assert factor_bcd(q).verify()

    def test_classified_tables(self):
        mf = factor_bcd(72, s_map={2: 0, 3: -1}, n=3)
        # r_i = prod of p^e || bd with s_p = i - 1; bd = 9 * 2 = 18
        assert mf.r_i[0] == 9  # s_3 = -1
        assert mf.r_i[1] == 2  # s_2 = 0
        assert math.prod(mf.r_i) == mf.b * mf.d


class TestKernelCounts:
    def test_smith_diag(self):
        assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6] or smith_diagonal(
            [[2, 0], [0, 3]]
        ) == [2, 3]

    def test_kernel_vs_enumeration(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(1, 3)
            M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            m = rng.randint(1, 12)
            brute = 0
            for y in product(range(m), repeat=n):
                if all(sum(M[i][j] * y[j] for j in range(n)) % m == 0 for i in range(n)):
                    brute += 1
            assert kernel_count_mod(M, m) == brute

    def test_kernel_rectangular_vs_enumeration(self):
        # more columns than rows leaves free coordinates; more rows than columns adds equations
        rng = random.Random(15)
        for _ in range(40):
            rows, cols = rng.choice([(1, 2), (1, 3), (2, 3), (2, 1), (3, 2)])
            M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            m = rng.randint(1, 12)
            brute = sum(
                all(sum(M[i][j] * y[j] for j in range(cols)) % m == 0 for i in range(rows))
                for y in product(range(m), repeat=cols)
            )
            assert kernel_count_mod(M, m) == brute

    def test_smith_diagonal_keeps_det_and_rank(self):
        # unimodular row and column steps keep |det| and the rank over Q
        rng = random.Random(16)
        for _ in range(40):
            n = rng.randint(1, 4)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            diag = smith_diagonal(M)
            assert len(diag) == n and all(d >= 0 for d in diag)
            assert math.prod(diag) == abs(round(np.linalg.det(np.array(M, dtype=float))))
            assert sum(d != 0 for d in diag) == np.linalg.matrix_rank(np.array(M, dtype=float))

    # M_m(x) and N_m(x): kernels mod m of the Hessian of g and of g0 at x

    def test_mn_examples(self):
        g = CubicData.from_poly(parse_form("x1^3 + x2^3"))

        def mn(x, m):
            return kernel_count_mod(hessian(g.poly, x), m), kernel_count_mod(hessian(g.g0, x), m)

        assert mn((1, 1), 1) == (1, 1)
        assert mn((1, 1), 5) == (1, 1)  # invertible Hessian mod 5
        # at (1,0) the Hessian is diag(6,0), zero mod 3, so both kernels fill F_3^2
        assert mn((1, 0), 3) == (9, 9)

    def test_mn_multiplicative(self):
        rng = random.Random(10)
        for _ in range(20):
            g = random_cubic_data(rng, 2, bound=4)
            x = [rng.randint(-4, 4) for _ in range(2)]
            for H in (hessian(g.poly, x), hessian(g.g0, x)):
                for m1, m2 in [(2, 3), (4, 9), (5, 8)]:
                    assert kernel_count_mod(H, m1 * m2) == kernel_count_mod(H, m1) * kernel_count_mod(H, m2)

    def test_N_symmetry(self):
        # N_m(x) counts y with H(x) y = 0, equivalently H(y) x = 0
        rng = random.Random(11)
        for _ in range(10):
            g = random_cubic_data(rng, 2, bound=3)
            x = [rng.randint(-3, 3) for _ in range(2)]
            m = rng.randint(1, 9)
            brute = 0
            for y in product(range(m), repeat=2):
                H = hessian(g.g0, list(y))
                if all(sum(H[i][j] * x[j] for j in range(2)) % m == 0 for i in range(2)):
                    brute += 1
            assert kernel_count_mod(hessian(g.g0, x), m) == brute


CRT_REPRS = Path(__file__).parent / "data" / "crt_reprs.jsonl"


@pytest.mark.parametrize(
    "rec",
    [json.loads(line) for line in CRT_REPRS.read_text().splitlines()],
    ids=lambda rec: f"n{rec['n']}-a{rec['a']}-q{rec['q']}-{'complete' if rec['v'] is None else 'twisted'}",
)
def test_crt_sum_keeps_its_recorded_repr(rec):
    """Seeded complete and twisted sums at composite q on the CRT path, value and err bit for bit as recorded.

    The records hold random forms of degree 2 to 4 in one to three variables,
    a in [0, 2q) and, for twisted sums, v in [-q, 2q)^n.
    """
    F = parse_form(rec["form"], n=rec["n"])
    if rec["v"] is None:
        got = complete_sum(F, rec["a"], rec["q"], method="crt")
    else:
        got = twisted_sum(F, rec["a"], rec["q"], rec["v"], method="crt")
    assert (repr(got.value), repr(got.err)) == (rec["value"], rec["err"])
