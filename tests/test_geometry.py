import functools
import json
import math
import random
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from quartic import counting, geometry
from quartic.errors import (
    AmbiguousDimension,
    BudgetExceeded,
    CompositeP,
    PreconditionViolated,
    SearchExhausted,
)
from quartic.forms import IntPolynomial, _values_at, grid_values, hessian_form_rows, parse_form
from quartic.geometry import (
    GF,
    GF_CACHE_ENTRIES,
    RANK_CACHE_ENTRIES,
    _rank_counts,
    b_set_profile,
    count_points_ext,
    dim_A_h,
    estimate_dim,
    find_hyperplane,
    find_irreducible,
    hessian_rank_grid,
    hessian_rank_profile,
    restrict_to_hyperplane_mod_p,
    shortest_orthogonal_gap,
    sing_dim,
)


def _rank_mod_p(H, p: int) -> int:
    """Rank of an integer matrix mod p by Gaussian elimination."""
    M = np.array(H, dtype=np.int64) % p
    r = 0
    for col in range(M.shape[1]):
        piv = next((row for row in range(r, len(M)) if M[row][col] % p), None)
        if piv is None:
            continue
        M[[r, piv]] = M[[piv, r]]
        inv = pow(int(M[r][col]), -1, p)
        for row in range(len(M)):
            if row != r and M[row][col] % p:
                M[row] = (M[row] - M[row][col] * inv * M[r]) % p
        r += 1
    return r


MODULI = [json.loads(line) for line in (Path(__file__).parent / "data" / "irreducible_moduli.jsonl").open()]
SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7, 11) for k in range(2, 8) if p ** k <= 128]


def _poly_mul_mod(a, b, modulus, p):
    """Product of coefficient lists mod (modulus, p), modulus monic of degree k: the field oracle."""
    k = len(modulus) - 1
    out = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    for i in range(2 * k - 2, k - 1, -1):  # x^i = -x^(i-k) * (c_0 + ... + c_{k-1} x^(k-1))
        for j in range(k):
            out[i - k + j] -= out[i] * modulus[j]
    return [c % p for c in out[:k]]


def _check_field_ops(gf, a, b):
    """gf.mul, gf.add and gf.neg on code pairs (a, b) against polynomial arithmetic mod (modulus, p)."""
    p, k = gf.p, gf.k

    def digits(code):
        return [code // p ** i % p for i in range(k)]

    def code(coeffs):
        return sum(c % p * p ** i for i, c in enumerate(coeffs))

    pairs = list(zip(a.tolist(), b.tolist()))
    assert gf.mul(a, b).tolist() == [code(_poly_mul_mod(digits(x), digits(y), gf.modulus, p)) for x, y in pairs]
    assert gf.add(a, b).tolist() == [code([u + v for u, v in zip(digits(x), digits(y))]) for x, y in pairs]
    assert gf.neg(a).tolist() == [code([-u for u in digits(x)]) for x in a.tolist()]


def _eval_codes_oracle(poly, gf, coords):
    """poly over arrays of field codes, each power x^k read from a table of code ** k built by squaring."""
    shape = np.broadcast(*[np.asarray(c) for c in coords]).shape if coords else ()
    total = np.full(shape, gf.embed(0), dtype=np.int64)
    luts = {}
    for e, c in poly.coeffs.items():
        term = gf.embed(c)
        for i, k in enumerate(e):
            if k:
                if k not in luts:
                    lut, acc, bits = np.full(gf.q, gf.embed(1), dtype=np.int64), np.arange(gf.q), k
                    while bits:
                        if bits & 1:
                            lut = gf.mul(lut, acc)
                        acc, bits = gf.mul(acc, acc), bits >> 1
                    luts[k] = lut
                term = gf.mul(term, luts[k][coords[i]])
        total = gf.add(total, term)
    return total


class TestField:
    @pytest.mark.parametrize("row", MODULI, ids=lambda row: f"{row['p']}^{row['k']}")
    def test_moduli_match_the_record(self, row):
        # the least monic irreducible in base-p order, for every k >= 2 field with p^k <= 4096
        assert find_irreducible(row["p"], row["k"]) == tuple(row["modulus"])

    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_small_field_tables_in_full(self, p, k):
        q = p ** k
        a, b = np.divmod(np.arange(q * q, dtype=np.int64), q)
        _check_field_ops(GF(p, k), a, b)

    @pytest.mark.parametrize("p,k", [(61, 2), (2, 12)])
    def test_large_field_tables_on_samples(self, p, k):
        rng = np.random.default_rng(p * 100 + k)
        a, b = rng.integers(0, p ** k, size=(2, 10 ** 4))
        _check_field_ops(GF(p, k), a, b)

    def test_irreducible_deterministic(self):
        assert find_irreducible(5, 2) == find_irreducible(5, 2)
        # x^2 + 2 is the least irreducible over F_5 in our ordering
        assert find_irreducible(5, 2) == (2, 0, 1)

    def test_group_order(self):
        # x^8 = 1 on the 8 units of F_9
        vals = grid_values(parse_form("x1^8"), [np.arange(9)], GF(3, 2))
        assert vals.tolist() == [0] + [GF(3, 2).embed(1)] * 8

    def test_composite_p(self):
        with pytest.raises(CompositeP):
            GF(6, 1)
        G = parse_form("4*x1^3 + 4*x2^3 + 4*x3^3")
        for p in (0, 1, 4):  # 4 | G would otherwise pass as "G vanishes mod p"
            with pytest.raises(CompositeP):
                sing_dim(G, p)
        with pytest.raises(CompositeP):
            hessian_rank_profile(G, 4, 1)

    def test_sieve_past_the_tables_is_refused(self):
        with pytest.raises(BudgetExceeded):
            find_irreducible(2, 13)

    def test_frobenius_count(self):
        # number of roots of x^p - x in F_{p^2} is exactly p
        xs = np.arange(49, dtype=np.int64)
        frob = grid_values(parse_form("x1^7"), [xs], GF(7, 2))
        assert int((frob == xs).sum()) == 7

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
    def test_evaluator_matches_the_power_table_oracle(self, p, k):
        # seeded polynomials (n <= 4, degree <= 5) on chart grids with a scalar fixed coordinate and on point columns
        gf, q = GF(p, k), p ** k
        rng = random.Random(p * 10 + k)
        for _ in range(40):
            n = rng.randint(1, 4)
            coeffs = {}
            for _ in range(rng.randint(0, 6)):
                e = [0] * n
                for _ in range(rng.randint(0, 5)):
                    e[rng.randrange(n)] += 1
                coeffs[tuple(e)] = rng.randint(-9, 9)
            poly = IntPolynomial(n, coeffs)
            chart = [rng.randrange(q)] + list(np.ix_(*[np.arange(q)] * (n - 1))[::-1])
            columns = [np.array([rng.randrange(q) for _ in range(50)]) for _ in range(n)]
            for coords in (chart, columns):
                got, want = _values_at(poly, coords, gf), _eval_codes_oracle(poly, gf, coords)
                assert got.shape == want.shape and np.array_equal(got, want)


def _chart_count(system, p: int, k: int) -> int:
    """Projective zeros of a homogeneous system over F_{p^k}, chart by chart: x_1..x_j = 0, x_{j+1} = 1, the rest free."""
    gf, n = GF(p, k), system[0].n
    total = 0
    for j in range(n):
        axes = [np.array([0])] * j + [np.array([1])] + [np.arange(gf.q)] * (n - j - 1)
        total += int(np.logical_and.reduce([grid_values(g, axes, gf.residues) == 0 for g in system]).sum())
    return total


class TestCounting:
    def test_linear_in_plane(self):
        assert count_points_ext([parse_form("x1", n=2)], 3, 1, "affine") == 3

    def test_empty_system(self):
        assert count_points_ext([IntPolynomial(2, {})], 3, 2, "affine") == 81

    def test_cone_diag_quartic_f5(self):
        # x^4 = 1 for x != 0 mod 5, so the only zero of x1^4+x2^4 is the origin
        assert count_points_ext([parse_form("x1^4 + x2^4")], 5, 1, "affine") == 1

    def test_projective_line_count(self):
        # zero form on P^1 has p+1 points
        assert count_points_ext([IntPolynomial(2, {})], 7, 1, "projective") == 8

    @pytest.mark.parametrize("mode", ["affine", "projective"])
    @pytest.mark.parametrize("p,k", [(7, 1), (5, 2)])
    def test_tiny_slabs_match_one_slab(self, mode, p, k, monkeypatch):
        G = parse_form("x1^3 + 2*x1*x2*x3 - x2^2*x3 + x3^3")
        system = [G] + [G.partial(i) for i in range(3)]
        slabs = geometry._slabs
        monkeypatch.setattr(geometry, "_slabs", functools.partial(slabs, cells=1 << 30))
        want = count_points_ext(system, p, k, mode)
        monkeypatch.setattr(geometry, "_slabs", functools.partial(slabs, cells=3))
        assert count_points_ext(system, p, k, mode) == want

    @pytest.mark.parametrize("q, n", [(2, 22), (11, 7), (8, 8)])
    def test_no_slab_holds_more_than_2_to_the_20_cells(self, q, n):
        # under the budget, but q^(n-1) > 2^20: the cut falls past the leading axis
        slabs = geometry._slabs(q, n, 20_000_000)
        sizes = [math.prod(np.broadcast_shapes(*(c.shape for c in coords))) for coords in slabs]
        assert max(sizes) <= 1 << 20 and sum(sizes) == q ** n

    @pytest.mark.parametrize("p,k", [(7, 1), (5, 2), (2, 3)])
    @pytest.mark.parametrize("cells, stack", [(1 << 20, 1 << 16), (5, 7), (3, 0)])
    def test_projective_count_matches_the_charts(self, p, k, cells, stack, monkeypatch):
        # one pass over all charts stacked, a stacked head and charts in many slabs, or every chart in slabs
        from quartic.verify import random_form

        rng = random.Random(31 * p + k)
        monkeypatch.setattr(geometry, "_line_slabs", functools.partial(geometry._line_slabs, cells=cells, stack=stack))
        for n in (1, 2, 3):
            G = random_form(rng, n, 3, bound=4)
            for system in ([G], [G] + G.gradient(), [IntPolynomial(n, {})]):
                assert count_points_ext(system, p, k, "projective") == _chart_count(system, p, k)

    def test_projective_passes_hold_at_most_2_to_the_20_rows(self, monkeypatch):
        # 103^3 + 103^2 + 103 + 1 lines in F_103^4: more than 2^20, so more than one pass
        sizes, values_at = [], geometry._values_at

        def recording(g, coords, modulus=None):
            sizes.append(math.prod(np.broadcast_shapes(*map(np.shape, coords))))
            return values_at(g, coords, modulus)

        monkeypatch.setattr(geometry, "_values_at", recording)
        G = parse_form("x1^4 - 2*x2^4 + 3*x3^4 - x4^4 + x1*x2*x3*x4")
        assert count_points_ext([G], 103, 1, "projective") == _chart_count([G], 103, 1)
        assert len(sizes) > 1 and max(sizes) <= 1 << 20 and sum(sizes) == (103 ** 4 - 1) // 102

    def test_extension_consistency(self):
        # affine count of x1*x2 = 0 over F_{p^k} is 2 q - 1
        for k in (1, 2):
            q = 3 ** k
            got = count_points_ext([parse_form("x1*x2")], 3, k, "affine")
            assert got == 2 * q - 1

    @pytest.mark.parametrize("mode, n", [("affine", 3), ("projective", 4)])
    def test_grid_past_the_budget_raises_before_work(self, mode, n, monkeypatch):
        # affine space walks 7^3 cells, projective space 7^3 in its largest chart: 343 do not fit a budget of 300
        def no_work(*args):
            raise AssertionError("a grid evaluated past the budget check")

        monkeypatch.setattr(geometry, "_values_at", no_work)
        F = IntPolynomial(n, {tuple(2 * (j == i) for j in range(n)): 1 for i in range(n)})
        with pytest.raises(BudgetExceeded, match=r"^7\^3 = 343 grid cells exceeds budget 300$"):
            count_points_ext([F], 7, 1, mode, budget=300)


class TestDimEstimate:
    def test_basic(self):
        assert estimate_dim({1: 9, 2: 81}, 3) == 2

    def test_zero_and_one(self):
        assert estimate_dim({1: 0}, 3) == -1
        assert estimate_dim({1: 1}, 3) == 0

    def test_ambiguous(self, monkeypatch):
        # a count straddling two bands with no second extension degree
        monkeypatch.setattr(geometry, "BAND_CONSTANT", 2.0)
        with pytest.raises(AmbiguousDimension):
            estimate_dim({1: 5}, 3)

    def test_two_degrees_pin_dimension(self, monkeypatch):
        # the k=2 count removes the ambiguity the k=1 count leaves behind
        monkeypatch.setattr(geometry, "BAND_CONSTANT", 2.0)
        assert estimate_dim({1: 12, 2: 100}, 3) == 2

    def test_inconsistent(self):
        with pytest.raises(AmbiguousDimension):
            estimate_dim({1: 9, 2: 5000}, 3)


class TestSingDim:
    def test_diag_quartic_nonsingular(self):
        G = parse_form("x1^4 + x2^4 + x3^4 + x4^4")
        assert sing_dim(G, 3) == -1

    def test_vanishing_convention(self):
        assert sing_dim(parse_form("2*x1^4"), 2) == 0  # n - 1 with n = 1

    def test_one_variable_protocol(self):
        assert sing_dim(parse_form("x1^4"), 5) == -1

    def test_square_product(self):
        assert sing_dim(parse_form("x1^2*x2^2"), 5) == 0

    def test_proxy_flag(self):
        val, tag = sing_dim(parse_form("x1^3 + x2^3 + x3^3"), None)
        assert (val, tag) == (-1, "proxy")


class TestRankProfiles:
    def test_t0_is_origin(self):
        prof = hessian_rank_profile(parse_form("x1^3 + x2^3"), 7, 0)
        assert prof["count"] == 1 and prof["dim"] == 0
        assert prof["dim"] <= prof["bound"]

    def test_t1_two_lines(self):
        prof = hessian_rank_profile(parse_form("x1^3 + x2^3"), 7, 1)
        assert prof["count"] == 13  # 2p - 1
        assert prof["dim"] == 1 and prof["dim_ok"]

    def test_rank_le_n_is_everything(self):
        prof = hessian_rank_profile(parse_form("x1^3 + x2^3"), 7, 2)
        assert prof["count"] == 49

    def test_rank_grid_vs_python_oracle(self):
        rng = random.Random(2)
        from quartic.verify import random_form

        for _ in range(4):
            G = random_form(rng, 3, 3, bound=3)
            p = 5
            ranks = hessian_rank_grid(G, p, 1)
            from quartic.forms import hessian

            # oracle: rank by Gaussian elimination mod p at every point
            idx = rng.sample(range(p ** 3), 40)
            for t in idx:
                x = [(t // p ** i) % p for i in range(3)]
                assert ranks[t] == _rank_mod_p(hessian(G, x), p)

    @pytest.mark.parametrize("p", [2, 5])
    def test_four_variable_rank_grid_vs_gaussian_elimination(self, p):
        # every point of F_p^4, x1 fastest; p = 2 checks the principal-minor rule in characteristic 2
        from quartic.forms import hessian
        from quartic.verify import random_form

        G = random_form(random.Random(p), 4, 3, bound=4)
        ranks = hessian_rank_grid(G, p, 1)
        want = [_rank_mod_p(hessian(G, x[::-1]), p) for x in product(range(p), repeat=4)]
        assert ranks.tolist() == want
        if p != 3:
            counts = np.bincount(want, minlength=5).cumsum().tolist()
            assert [hessian_rank_profile(G, p, r, kmax=1)["count"] for r in range(5)] == counts

    @pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7) for k in (1, 2)])
    def test_line_counts_match_the_whole_grid(self, p, k, monkeypatch):
        # one point per line through 0 stands for q - 1 points; 0 has rank 0, or the constant rank when the degree is 2
        from quartic.verify import random_form

        rng, q = random.Random(10 * p + k), p ** k
        monkeypatch.setattr(geometry, "_rank_count_cache", geometry.LRUCache(RANK_CACHE_ENTRIES))
        for n in range(1, 5):
            for d in range(2, 5):
                if q ** n > 1 << 16:
                    continue
                for G in (random_form(rng, n, d, bound=4), random_form(rng, n, d, bound=4, homogeneous=False)):
                    want = np.bincount(hessian_rank_grid(G, p, k), minlength=n + 1).tolist()
                    assert _rank_counts(G, p, k, 10 ** 6) == want

    def test_rank_counts_of_a_ternary_cubic_read_one_point_per_line(self, monkeypatch):
        # each of the 6 Hessian entries on at most 19^2 + 19 + 1 rows, not on the 19^3 grid
        G = parse_form("x1^3 + 2*x1*x2*x3 - x2^2*x3 + x3^3")
        want = np.bincount(hessian_rank_grid(G, 19), minlength=4).tolist()
        rows, values_at = {}, geometry._values_at

        def recording(g, coords, modulus=None):
            rows[id(g)] = rows.get(id(g), 0) + math.prod(np.broadcast_shapes(*map(np.shape, coords)))
            return values_at(g, coords, modulus)

        monkeypatch.setattr(geometry, "_values_at", recording)
        monkeypatch.setattr(geometry, "_rank_count_cache", geometry.LRUCache(RANK_CACHE_ENTRIES))
        assert _rank_counts(G, 19, 1, 10 ** 6) == want
        assert len(rows) == 6 and max(rows.values()) <= 19 ** 2 + 19 + 1

    def test_b_set_cubic_fermat(self):
        prof = b_set_profile(parse_form("x1^3 + x2^3 + x3^3"), 7, 1)
        assert prof["count"] == 7 ** 3 - 6 ** 3 == 127
        assert prof["dim"] == 2 and prof["bound"] == 2

    def test_b0_everything_and_empty_tail(self):
        G = parse_form("x1^3 + x2^3 + x3^3")
        assert b_set_profile(G, 7, 0)["count"] == 343
        assert b_set_profile(G, 7, 4)["count"] == 0

    def test_dim_A_h_matches_zero_coords(self):
        G = parse_form("x1^3 + x2^3 + x3^3")
        for h in [(1, 1, 1), (1, 0, 1), (7, 0, 1), (7, 7, 1)]:
            zeros = sum(1 for t in h if t % 7 == 0)
            assert dim_A_h(G, 7, list(h)) == zeros

    def test_dim_A_h_vs_enumeration(self):
        # H_G(x) is linear in x for a cubic form, so A_h is a subspace of F_p^n with p^dim points
        rng = random.Random(17)
        from quartic.forms import hessian
        from quartic.verify import random_form

        p = 5
        for _ in range(8):
            G = random_form(rng, 3, 3, bound=4)
            h = [rng.randrange(p) for _ in range(3)]
            brute = sum(
                all(sum(row[j] * h[j] for j in range(3)) % p == 0 for row in hessian(G, x))
                for x in product(range(p), repeat=3)
            )
            assert p ** dim_A_h(G, p, h) == brute

    def test_monotone_in_r(self):
        rng = random.Random(3)
        from quartic.verify import random_form

        G = random_form(rng, 3, 3, bound=4)
        counts = [hessian_rank_profile(G, 11, r, kmax=1)["count"] for r in range(4)]
        assert counts == sorted(counts)
        assert counts[-1] == 11 ** 3

    def test_b_nested(self):
        rng = random.Random(4)
        from quartic.verify import random_form

        G = random_form(rng, 3, 3, bound=4)
        counts = [b_set_profile(G, 7, s)["count"] for s in range(4)]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("profile", [hessian_rank_profile, b_set_profile])
    def test_budget_below_one_grid_raises_before_work(self, profile, monkeypatch):
        # 7^3 = 343 cells do not fit a budget of 100, so no extension degree fits
        def no_work(*args):
            raise AssertionError("rank counts computed past the budget check")

        monkeypatch.setattr(geometry, "_rank_counts", no_work)
        with pytest.raises(BudgetExceeded):
            profile(parse_form("x1^3 + x2^3 + x3^3"), 7, 1, budget=100)

    @pytest.mark.parametrize("profile", [hessian_rank_profile, b_set_profile])
    def test_p_divisible_by_3_is_a_precondition(self, profile):
        with pytest.raises(PreconditionViolated):
            profile(parse_form("x1^3 + x2^3 + x3^3"), 3, 1)

    def test_b_set_needs_a_cubic_form(self):
        with pytest.raises(PreconditionViolated):
            b_set_profile(parse_form("x1^4 + x2^4"), 7, 1)


def _rank_over(gf, M) -> int:
    """Rank of a matrix of field codes by Gaussian elimination, one gf.mul / gf.add / gf.neg at a time."""
    M = [[int(a) for a in row] for row in M]
    r = 0
    for col in range(len(M[0]) if M else 0):
        piv = next((i for i in range(r, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv, acc, e = 1, M[r][col], gf.q - 2  # a^(q - 2) = 1/a
        while e:
            inv, acc, e = (int(gf.mul(inv, acc)) if e & 1 else inv), int(gf.mul(acc, acc)), e >> 1
        for i in range(r + 1, len(M)):
            c = int(gf.mul(M[i][col], inv))
            M[i] = [int(gf.add(a, gf.neg(gf.mul(c, b)))) for a, b in zip(M[i], M[r])]
        r += 1
    return r


class TestPrimeFieldResidues:
    """F_p grids go through integer residues reduced once; each must equal the op-by-op field arithmetic."""

    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2), (3, 2)])
    def test_rank_grid_and_counts_match_the_field_oracle(self, p, k):
        from quartic.verify import random_form

        gf, rng = GF(p, k), random.Random(100 * p + k)
        coords = list(np.ix_(*[np.arange(gf.q)] * 3)[::-1])  # x1 fastest, as hessian_rank_grid ravels
        for _ in range(2):
            G = random_form(rng, 3, 3, bound=6)
            rows = hessian_form_rows(G)
            H = [[_eval_codes_oracle(h, gf, coords).ravel() for h in row] for row in rows]
            want = [_rank_over(gf, [[H[i][j][t] for j in range(3)] for i in range(3)]) for t in range(gf.q ** 3)]
            assert hessian_rank_grid(G, p, k).tolist() == want
            for system in ([G], [G] + G.gradient()):
                zeros = np.logical_and.reduce([_eval_codes_oracle(g, gf, coords) == 0 for g in system])
                affine = int(zeros.sum())
                assert count_points_ext(system, p, k, "affine") == affine
                assert count_points_ext(system, p, k, "projective") == (affine - 1) // (gf.q - 1)

    def test_minors_past_int64_stay_in_the_field(self):
        # p is the largest prime with (p - 1)^2 < 2^63: field products fit int64, a minor's sum of them need not.
        # Every symmetric 3 x 3 matrix with entries in [-3, 3], read mod p, keeps the rank of the integer matrix.
        p = 3037000493
        mats = np.array(list(product(range(-3, 4), repeat=6)))[:, [[0, 1, 2], [1, 3, 4], [2, 4, 5]]]
        entries = [[mats[:, i, j] % p for j in range(3)] for i in range(3)]
        ranks = geometry._ranks_of_matrix_grid(entries, GF(p), 3)
        assert np.array_equal(ranks, np.linalg.matrix_rank(mats.astype(float)))


class TestHyperplane:
    def test_fermat_cubic_section(self):
        out = find_hyperplane(parse_form("x1^3 + x2^3 + x3^3"), [7], 3)
        assert out["m"] == (0, 0, 1)
        assert out["observed"][7] == -1 and out["observed"]["proxy"] == -1

    def test_restriction_mod_p(self):
        G = parse_form("x1^3 + x2^3 + x3^3")
        sec = restrict_to_hyperplane_mod_p(G, (0, 0, 1), 7)
        assert sec.n == 2
        assert sing_dim(sec, 7) == -1

    def test_singular_binary_drops(self):
        # G = x1^3 in two variables has a projective singular point; a slice fixes it
        out = find_hyperplane(parse_form("x1^3", n=2), [7], 4)
        m = out["m"]
        sec = restrict_to_hyperplane_mod_p(parse_form("x1^3", n=2), m, 7)
        assert sec.n == 1

    def test_exhausted(self):
        with pytest.raises(SearchExhausted):
            find_hyperplane(parse_form("x1^3 + x2^3 + x3^3"), [7], 0)

    def test_restriction_values_on_the_hyperplane(self):
        # the section is a bijective parametrisation of {m.x = 0} mod p, so it takes G's values there
        rng = random.Random(18)
        from quartic.verify import random_form

        p = 7
        for _ in range(6):
            G = random_form(rng, 3, 3, bound=5)
            m = [rng.randint(-9, 9) for _ in range(3)]
            if all(t % p == 0 for t in m):
                continue
            sec = restrict_to_hyperplane_mod_p(G, m, p)
            want = sorted(G.evaluate(x) % p for x in product(range(p), repeat=3)
                          if sum(a * b for a, b in zip(m, x)) % p == 0)
            assert sorted(sec.evaluate(y) % p for y in product(range(p), repeat=2)) == want

    def test_restriction_diagonal_cancel(self):
        # x1^3 + x2^3 vanishes on x1 + x2 = 0
        sec = restrict_to_hyperplane_mod_p(parse_form("x1^3 + x2^3", n=2), (1, 1), 7)
        assert sec.n == 1 and all(c % 7 == 0 for c in sec.coeffs.values())

    def test_restriction_needs_m_nonzero_mod_p(self):
        with pytest.raises(ValueError):
            restrict_to_hyperplane_mod_p(parse_form("x1^3 + x2^3 + x3^3"), (7, 14, 0), 7)

    def test_shortest_orthogonal_gap_binary(self):
        # for primitive (a, b) the vectors orthogonal to it are the multiples of (b, -a)
        rng = random.Random(19)
        for _ in range(20):
            a, b = rng.randint(-12, 12), rng.randint(1, 12)
            if math.gcd(a, b) != 1:
                continue
            M = max(abs(a), b)
            assert shortest_orthogonal_gap((a, b), M)
            assert not shortest_orthogonal_gap((a, b), M + 0.5)

    def test_shortest_orthogonal_gap_axis(self):
        # (0, 1, 0) is orthogonal to the first axis, so only bounds at most 1 leave a gap
        assert shortest_orthogonal_gap((1, 0, 0), 1)
        assert not shortest_orthogonal_gap((1, 0, 0), 1.5)
        assert shortest_orthogonal_gap((3, 5, 7), 0.5)


class TestErrorPaths:
    def test_budget_exceeded(self):
        with pytest.raises(Exception) as exc:
            count_points_ext([parse_form("x1 + x2")], 101, 2, "affine", budget=1000)
        assert "budget" in str(exc.value).lower()


class TestBoundedCaches:
    def test_fields_past_the_bound(self):
        primes = counting.primes_up_to(400)[: GF_CACHE_ENTRIES + 5]
        for p in primes:
            GF(p)
        assert len(GF._cache) == GF_CACHE_ENTRIES
        assert (primes[0], 1) not in GF._cache and (primes[-1], 1) in GF._cache
        again = GF(primes[0])  # rebuilt after eviction, and equal in use
        assert (again.p, again.q, again.modulus) == (primes[0], primes[0], (0, 1))
        assert GF(primes[-1]) is GF._cache[(primes[-1], 1)]

    def test_fields_count_by_their_tables(self):
        # 2^24, 3721^2 and 2187^2 table cells count 32, 27 and 10 towards the bound
        for p, k in ((2, 12), (61, 2), (3, 7)):
            gf = GF(p, k)
            assert GF._cache.held == sum(map(GF._cache.size, GF._cache.values())) <= GF_CACHE_ENTRIES
            assert sum(f.q ** 2 for f in GF._cache.values() if f.k > 1) <= 2 ** 24
        assert GF._cache[(3, 7)] is gf
        GF._cache.clear()

    def test_rank_counts_past_the_bound(self):
        cache = geometry._rank_count_cache
        forms = [IntPolynomial(1, {(3,): c}) for c in range(1, RANK_CACHE_ENTRIES + 10)]
        for G in forms:
            assert _rank_counts(G, 5, 1, 10 ** 6) == ([5, 0] if G.coeffs[(3,)] % 5 == 0 else [1, 4])
        assert len(cache) == cache.held == RANK_CACHE_ENTRIES
        assert (forms[0], 5, 1) not in cache and (forms[-1], 5, 1) in cache
