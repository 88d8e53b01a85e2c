import hashlib
import math
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic import counting
from quartic.counting import (
    MEMO_RESIDUES,
    _near_integer,
    auxiliary_counts,
    height_count,
    is_diagonal,
    primes_up_to,
    solutions_mod_q,
    value_counts,
    weighted_count,
)
from quartic.errors import BudgetExceeded, InvariantViolated, MitmNotApplicable, PreconditionViolated
from quartic.forms import IntPolynomial, _grid_slabs, blocks, grid_values, parse_form, sym_tensor, weyl_difference
from quartic.verify import random_form
from quartic.weights import WeightSpec, box, bump, lattice_ranges, separable_bump, unit_box

X1 = parse_form("4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4")


class TestWeightedCount:
    def test_posdef_off_origin(self):
        w = bump((0.5, 0.5), 0.2)
        assert weighted_count(parse_form("x1^4 + x2^4"), w, 10, method="brute").count == 0

    def test_box_21_points(self):
        res = weighted_count(parse_form("x1^4 - x2^4"), box(2), 5, method="brute")
        assert res.count == 21

    def test_mitm_equals_brute_box(self):
        res_b = weighted_count(parse_form("x1^4 - x2^4"), box(2), 5, method="brute")
        res_m = weighted_count(parse_form("x1^4 - x2^4"), box(2), 5, method="mitm")
        assert res_b.count == res_m.count

    def test_mitm_equals_brute_diag4(self):
        F = parse_form("x1^4 + x2^4 - x3^4 - x4^4")
        b = weighted_count(F, box(4), 8, method="brute").count
        m = weighted_count(F, box(4), 8, method="mitm").count
        assert b == m

    def test_mitm_weighted_matches_brute(self):
        F = parse_form("x1^4 - x2^4")
        w = separable_bump((0.0, 0.0), 0.8)
        b = weighted_count(F, w, 12, method="brute").count
        m = weighted_count(F, w, 12, method="mitm").count
        assert abs(b - m) <= 1e-9 * max(1.0, abs(b))

    def test_mitm_random_diagonals(self):
        rng = random.Random(0)
        for _ in range(6):
            coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)]
            F = parse_form(
                f"{coeffs[0]}*x1^4 + {coeffs[1]}*x2^4 + {coeffs[2]}*x3^4"
            )
            b = weighted_count(F, box(3), 6, method="brute").count
            m = weighted_count(F, box(3), 6, method="mitm").count
            assert b == m

    @pytest.mark.parametrize(
        "sizes, const, unused",
        [((2, 1, 1), 0, 0), ((1, 2), 3, 0), ((2,), -5, 1), ((1, 1), 0, 2), ((3, 1), 0, 0), ((2, 2), -1, 0)],
        ids=["2+1+1", "const", "unused+const", "two-unused", "3+1", "2+2+const"],
    )
    def test_mitm_equals_brute_on_block_forms(self, sizes, const, unused):
        rng = random.Random(f"mitm:{sizes}:{const}:{unused}")
        for _ in range(3):
            F = _random_block_form(rng, sizes, const, unused)
            center = tuple(rng.uniform(-0.3, 0.3) for _ in range(F.n))
            for w in (box(F.n), unit_box(F.n)):
                assert weighted_count(F, w, 5, method="mitm").count == weighted_count(F, w, 5, method="brute").count
            w = separable_bump(center, 0.6)
            b = weighted_count(F, w, 8, method="brute").count
            m = weighted_count(F, w, 8, method="mitm").count
            assert abs(b - m) <= 1e-12 * max(1.0, abs(b)), (F, b, m)

    def test_mitm_one_block_form(self):
        # one block of two variables: x1^3*x2 = 0 where x1 = 0 or x2 = 0, 11 + 11 - 1 = 21 points of the box
        F = parse_form("x1^3*x2")
        assert weighted_count(F, box(2), 5, method="mitm").count == 21
        assert weighted_count(F, box(2), 5).method == "brute"  # auto: one block has nothing to join

    def test_auto_counts_past_int64_by_brute(self):
        # |F| passes 2^62 on the box, where mitm refuses; x1 = x3 = 0 and x2 free: 5 points
        F = parse_form(f"{2 ** 62}*x1^4 + x1*x2^3 - x3^4")
        res = weighted_count(F, box(3), 2)
        assert (res.method, res.count) == ("brute", 5)

    def test_unit_box_drops_the_zero_coordinates(self):
        # x1 = x2 in (0, 5]: five points; the lattice range of the unit box starts at 0, where w = 0
        F = parse_form("x1^4 - x2^4")
        assert [weighted_count(F, unit_box(2), 5, method=m).count for m in ("brute", "mitm", "auto")] == [5, 5, 5]

    def test_box_count_past_two_to_the_53_is_exact(self):
        # the n = 41 diagonal form of the paper's range, at P = 3: 7^41 ~ 4.5e34 box cells
        coeffs = [1] * 20 + [-1] * 19 + [-2, 1]
        F = IntPolynomial(41, {tuple(4 * (j == i) for j in range(41)): c for i, c in enumerate(coeffs)})
        dist = {0: 1}  # the value distribution over the box, one variable at a time, in Python ints
        for c in coeffs:
            step = {}
            for v, k in dist.items():
                for x in range(-3, 4):
                    step[v + c * x ** 4] = step.get(v + c * x ** 4, 0) + k
            dist = step
        assert weighted_count(F, box(41), 3).count == dist[0]

    def test_brute_passes_hold_at_most_2_to_the_22_cells(self, monkeypatch):
        # a 79^4 = 38,950,081-cell box, under the default budget
        F, built = parse_form("x1^4 + x1*x2^3 + x3^4 - 2*x4^4 + x2*x3*x4^2"), []
        monkeypatch.setattr(counting, "grid_values",
                            lambda G, axes, **kw: built.append(math.prod(map(len, axes))) or grid_values(G, axes, **kw))
        res = weighted_count(F, box(4), 39, method="brute")
        assert res.count == 1213 and res.meta == {"cells": 79 ** 4}
        assert max(built) <= 1 << 22 and sum(built) == 79 ** 4

    @pytest.mark.parametrize("text", ["x1^4 - x2^4 + x3^4 - x4^4", "x1^2 - x2^2 + x3*x4 - x1*x3"])
    def test_brute_zeros_come_in_grid_order(self, monkeypatch, text):
        # the zeros of each slab by flat index, in the order of np.nonzero: the float sum of their weights is unchanged
        F, w, P = parse_form(text), bump((0.1, 0.2, 0.0, -0.1), 1.0), 12
        want = []
        for slab in _grid_slabs([np.arange(a, b + 1, dtype=np.int64) for a, b in lattice_ranges(w, P)], 1 << 22):
            zeros = np.nonzero(grid_values(F, slab) == 0)
            want.append(np.stack([ax[z] for ax, z in zip(slab, zeros)], axis=1))
        want = np.concatenate(want)
        seen, eval_many = [], WeightSpec.eval_many
        monkeypatch.setattr(WeightSpec, "eval_many", lambda self, X: seen.append(X) or eval_many(self, X))
        res = weighted_count(F, w, P, method="brute")
        assert len(want) > 100 and np.array_equal(seen[0], want / P)
        assert repr(res.count) == repr(float(eval_many(w, want / P).sum()))

    @pytest.mark.parametrize("center", [(0.55, 0.5), (0.5, 0.55)])
    def test_brute_count_of_an_empty_box_is_zero(self, center):
        res = weighted_count(parse_form("x1^4 - x2^4"), separable_bump(center, 0.01), 10, method="brute")
        assert res.count == 0 and res.meta == {"cells": 0}

    def test_mitm_rejects_radial_bump(self):
        with pytest.raises(MitmNotApplicable):
            weighted_count(parse_form("x1^4 - x2^4"), bump((0, 0), 0.5), 5, method="mitm")


class TestHeightCount:
    def test_x1_empty(self):
        assert height_count(X1, 100).count == 0

    def test_small_diag_has_111(self):
        assert height_count(parse_form("x1^4 + x2^4 - 2*x3^4"), 1).count >= 1

    def test_pm_classes_n2(self):
        assert height_count(parse_form("x1^4 - x2^4"), 7).count == 2

    def test_method_names_the_join_that_ran(self):
        assert height_count(X1, 10).method == "mobius+mitm"
        assert height_count(parse_form("x1^3*x2 - x2^4"), 10).method == "mobius+brute"  # one block

    def test_odd_count_is_a_typed_error(self, monkeypatch):
        # nonzero solutions come in +- pairs; an odd total is a defect, raised under -O too
        monkeypatch.setattr(counting, "_nonzero_solution_count", lambda F, P, budget: 1)
        with pytest.raises(InvariantViolated):
            height_count(parse_form("x1^4 - x2^4"), 1)

    def test_monotone_in_P(self):
        F = parse_form("x1^4 + x2^4 - 2*x3^4")
        counts = [height_count(F, P).count for P in (1, 2, 4, 8)]
        assert counts == sorted(counts)


class TestSolutionsModQ:
    def test_examples(self):
        assert solutions_mod_q(parse_form("x1^4 + x2^4"), 2) == 2
        assert solutions_mod_q(parse_form("x1^4 + x2^4"), 1) == 1

    def test_multiplicative(self):
        rng = random.Random(1)
        for _ in range(5):
            F = random_form(rng, 2, 4, bound=4)
            assert solutions_mod_q(F, 6) == solutions_mod_q(F, 2) * solutions_mod_q(F, 3)

    def test_diagonal_vs_grid(self):
        rng = random.Random(2)
        F = parse_form("2*x1^4 + 3*x2^4 + x3^4")
        for q in (2, 3, 4, 5, 8, 9, 25):
            conv = solutions_mod_q(F, q)
            brute = sum(
                1
                for x1 in range(q)
                for x2 in range(q)
                for x3 in range(q)
                if (2 * x1 ** 4 + 3 * x2 ** 4 + x3 ** 4) % q == 0
            )
            assert conv == brute

    def test_lifting_bound(self):
        rng = random.Random(3)
        F = random_form(rng, 2, 4, bound=4)
        for p in (2, 3, 5):
            for k in (1, 2):
                assert solutions_mod_q(F, p ** (k + 1)) <= p ** 2 * solutions_mod_q(F, p ** k)

    def test_is_diagonal(self):
        assert is_diagonal(parse_form("x1^4 + 7*x2^4 + 3"))
        assert not is_diagonal(parse_form("x1^3*x2"))


def _grid_count(F, q):
    """#{x mod q : F(x) = 0 mod q} by evaluating F on the whole q^n grid."""
    return int(np.count_nonzero(grid_values(F, [np.arange(q)] * F.n, modulus=q) == 0))


def _join(*parts, const=0):
    """The sum of the polynomials `parts` on consecutive disjoint variables, plus `const`."""
    n = sum(G.n for G in parts)
    coeffs = {(0,) * n: const} if const else {}
    start = 0
    for G in parts:
        for e, c in G.coeffs.items():
            coeffs[(0,) * start + e + (0,) * (n - start - G.n)] = c
        start += G.n
    return IntPolynomial(n, coeffs)


def _random_block_form(rng, sizes, const=0, unused=0):
    """Random quartic blocks on consecutive variables, a constant, and unused trailing variables."""
    return _join(*(random_form(rng, size, 4, bound=5) for size in sizes), IntPolynomial(unused), const=const)


class TestBlockConvolution:
    QS = (2, 3, 4, 5, 8, 9, 12)

    @pytest.mark.parametrize(
        "sizes, const, unused",
        [((2, 1, 1), 0, 0), ((1, 2), 3, 0), ((2,), -5, 1), ((1, 1), 0, 2), ((3,), 0, 0), ((4,), 7, 0)],
        ids=["2+1+1", "const", "unused+const", "two-unused", "dense-n3", "dense-n4"],
    )
    def test_matches_grid_count(self, sizes, const, unused):
        rng = random.Random(f"{sizes}:{const}:{unused}")
        for _ in range(2):
            F = _random_block_form(rng, sizes, const, unused)
            for q in self.QS:
                assert solutions_mod_q(F, q) == _grid_count(F, q), (F, q)

    def test_object_dtype_matches_python_convolution(self):
        F8 = parse_form("x1^4 + x2^4 + x3^4 + x4^4 - x5^4 - x6^4 - x7^4 - x8^4")

        def python_rho(q):
            dist = {0: 1}
            for sign in (1, 1, 1, 1, -1, -1, -1, -1):
                hist = {}
                for x in range(q):
                    r = sign * pow(x, 4, q) % q
                    hist[r] = hist.get(r, 0) + 1
                new = {}
                for r1, c1 in dist.items():
                    for r2, c2 in hist.items():
                        new[(r1 + r2) % q] = new.get((r1 + r2) % q, 0) + c1 * c2
                dist = new
            return dist.get(0, 0)

        # n*log2(q) >= 62 at both prime powers: the counts are Python ints
        assert 8 * math.log2(3 ** 5) >= 62
        assert solutions_mod_q(F8, 2 ** 9 * 3 ** 5) == python_rho(2 ** 9) * python_rho(3 ** 5)

    def test_budget_counts_block_cells(self):
        F = parse_form("x1^4 + x1*x2^3 + x3^4 + x4^4 - x5^4 - x6^4")
        # one 2-variable block and four 1-variable blocks, joined by four convolutions
        cost = 32 ** 2 + 4 * 32 + 4 * 32 ** 2
        assert solutions_mod_q(F, 32, budget=cost) == solutions_mod_q(F, 32)
        with pytest.raises(BudgetExceeded):
            solutions_mod_q(F, 32, budget=cost - 1)


def _python_counts(F, q):
    """N_q(r) for every r by evaluating F at each x mod q in pure Python."""
    counts = [0] * q
    for x in product(range(q), repeat=F.n):
        counts[F.evaluate(x) % q] += 1
    return counts


def _python_convolution(hists, q):
    """Cyclic convolution mod q of residue histograms given as dicts, in pure Python."""
    dist = {0: 1}
    for hist in hists:
        new = {}
        for r1, c1 in dist.items():
            for r2, c2 in hist.items():
                new[(r1 + r2) % q] = new.get((r1 + r2) % q, 0) + c1 * c2
        dist = new
    return [dist.get(r, 0) for r in range(q)]


class TestValueCounts:
    @pytest.mark.parametrize(
        "sizes, const, unused",
        [((2, 1, 1), 0, 0), ((1, 2), 3, 0), ((2,), -5, 1), ((1, 1), 11, 2), ((3,), 0, 0)],
        ids=["2+1+1", "const", "unused+const", "two-unused+const", "dense-n3"],
    )
    @pytest.mark.parametrize("twist", [False, True], ids=["plain", "twisted"])
    def test_matches_python_count(self, sizes, const, unused, twist):
        rng = random.Random(f"{sizes}:{const}:{unused}:{twist}")
        for _ in range(2):
            F = _random_block_form(rng, sizes, const, unused)
            if twist:  # a linear twist v.x keeps the blocks of F
                F = F + IntPolynomial(F.n, {tuple(int(i == j) for j in range(F.n)): rng.randint(-4, 4)
                                            for i in range(F.n)})
            for q in (2, 4, 6, 9, 10, 12):
                got = value_counts(F, q)
                assert got.dtype == np.int64 and got.tolist() == _python_counts(F, q), (F, q)

    def test_object_dtype_matches_python_convolution(self):
        # n*log2(q) >= 62: Python ints; constant 5 and twist 3*x1 - x8 shift the distribution
        q = 3 ** 5
        signs = (1, 1, 1, 1, -1, -1, -1, -1)
        twist = (3, 0, 0, 0, 0, 0, 0, -1)
        F = parse_form("x1^4 + x2^4 + x3^4 + x4^4 - x5^4 - x6^4 - x7^4 - x8^4 + 5 + 3*x1 - x8")
        assert 8 * math.log2(q) >= 62
        hists = []
        for sign, t in zip(signs, twist):
            hist = {}
            for x in range(q):
                r = (sign * x ** 4 + t * x) % q
                hist[r] = hist.get(r, 0) + 1
            hists.append(hist)
        want = _python_convolution(hists + [{5: 1}], q)
        got = value_counts(F, q)
        assert got.dtype == object and got.tolist() == want

    def test_budget_checked_before_work(self):
        F = parse_form("x1^4 + x1*x2^3 + x3^4")
        q = 64
        cost = q ** 2 + q + q ** 2  # the two blocks' cells and one q^2 convolution
        assert value_counts(F, q, budget=cost).sum() == q ** 3
        with pytest.raises(BudgetExceeded):
            value_counts(F, q, budget=cost - 1)

    def test_one_block_needs_no_convolution(self):
        F = parse_form("x1^4 + x1*x2^3 + 7")
        assert value_counts(F, 64, budget=64 ** 2).tolist() == _python_counts(F, 64)

    def test_convolution_counts_against_budget(self):
        # 2*q cells, but one q^2 join: about 1e12 steps at this prime, refused at once
        with pytest.raises(BudgetExceeded):
            value_counts(parse_form("x1^4 + x2^4"), 999983)


def _reduce_every_product_histogram(F, q):
    """Histogram of F mod q over [0, q)^n, each product and each sum reduced mod q at once."""
    coords = [(np.arange(q, dtype=np.int64) % q).reshape([-1 if j == i else 1 for j in range(F.n)])
              for i in range(F.n)]
    total = np.zeros((q,) * F.n, dtype=np.int64)
    for e, c in F.coeffs.items():
        term = np.int64(c % q)
        for x, k in zip(coords, e):
            for _ in range(k):
                term = term * x % q
        total = (total + term) % q
    return np.bincount(total.ravel(), minlength=q)


@st.composite
def polynomials_mod_prime_powers(draw):
    """(F, q): F in 1..5 variables of degree 1..4, homogeneous or not, q = p^k with q^n small.

    Coefficients are often multiples of p, some variables are absent, and
    inhomogeneous polynomials may carry a constant.
    """
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, max(1, min(4, int(math.log(4096, p) / n)))))
    used = draw(st.one_of(st.just(range(n)), st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
    degrees = [d] if draw(st.sampled_from([True, True, False])) else range(d + 1)
    monomials = [e for e in product(range(d + 1), repeat=n) if sum(e) in degrees
                 and all(e[i] == 0 for i in range(n) if i not in used)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=6, unique=True))
    coefficient = st.one_of(st.integers(-30, 30), st.integers(-6, 6).map(lambda c: c * p))
    return IntPolynomial(n, {e: draw(coefficient) for e in chosen}), p ** k


class TestUnitOrbitHistograms:
    @settings(max_examples=200, deadline=None)
    @given(polynomials_mod_prime_powers())
    def test_value_counts_equal_the_grid(self, case):
        F, q = case
        got = counting._value_counts(F, q, counting.DEFAULT_BUDGET)
        assert got.tolist() == _reduce_every_product_histogram(F, q).tolist()

    @settings(max_examples=200, deadline=None)
    @given(polynomials_mod_prime_powers())
    def test_every_block_takes_the_orbits_when_passes_are_free(self, case):
        # with no fixed cost per pass the orbit path runs on small grids too
        F, q = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "PASS_CELLS", 0)
            for _, G in counting.blocks(F)[1]:
                assert counting._block_histogram(G, q).tolist() == _reduce_every_product_histogram(G, q).tolist()

    @pytest.mark.parametrize("text, q", [("x1^4 + x1^3*x2 + x2^2*x3^2 + x1*x2*x3*x4 + x3*x4^3", 32),
                                         ("3*x1^4 - x1*x2*x3^2 + 9*x3^4", 81), ("x1^3*x2 - 5*x2^4", 1024)])
    def test_large_prime_powers_take_the_orbits(self, text, q, monkeypatch):
        G = parse_form(text)
        passes = []
        grid = counting._grid_histogram
        monkeypatch.setattr(counting, "_grid_histogram", lambda G, axes, q: passes.append(axes) or grid(G, axes, q))
        got = counting._block_histogram(G, q)
        assert got.tolist() == _reduce_every_product_histogram(G, q).tolist()
        assert sum(math.prod(map(len, axes)) for axes in passes) < q ** G.n // 4

    def test_every_pass_holds_at_most_2_to_the_22_cells(self, monkeypatch):
        # the orbit grid [axis[1:2]] + [axis] * 2 mod 3^7 has 3^14 > 2^22 cells behind its one leading point
        F, q, built = parse_form("x1^3+2*x2^3+x1*x2*x3"), 3 ** 7, []
        monkeypatch.setattr(counting, "grid_values",
                            lambda G, axes, **kw: built.append(math.prod(map(len, axes))) or grid_values(G, axes, **kw))
        table = counting._value_counts(F, q, 3 ** 21 + 10 ** 6)
        assert max(built) <= 1 << 22 and sum(built) > 3 ** 14
        # the table recorded before passes were cut past the leading axis
        digest = "abe559f8a347cd86e10ae255fe48573c5928cd3fa904a7d037fc4289a64ff091"
        assert hashlib.sha256(table.astype(np.int64).tobytes()).hexdigest() == digest

    def test_singular_and_one_variable_blocks(self):
        # x1^2 x2^2 vanishes on the axes; one-variable blocks stay on the grid
        for text, q in [("x1^2*x2^2", 64), ("x1*x2*x3*x4", 16), ("2*x1^4", 81)]:
            F = parse_form(text)
            assert value_counts(F, q).tolist() == _reduce_every_product_histogram(F, q).tolist()


COMPOSITE_Q = (6, 12, 36, 77, 90, 900)


@st.composite
def polynomials_mod_composites(draw):
    """(F, q): F in 1..3 variables (two at q = 900) of degree 1..4 with a constant and absent variables allowed."""
    q = draw(st.sampled_from(COMPOSITE_Q))
    n, d = draw(st.integers(1, 2 if q > 100 else 3)), draw(st.integers(1, 4))
    used = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    monomials = [e for e in product(range(d + 1), repeat=n)
                 if sum(e) <= d and all(e[i] == 0 for i in range(n) if i not in used)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=6, unique=True))
    return IntPolynomial(n, {e: draw(st.integers(-40, 40)) for e in chosen}), q


class TestCrtTables:
    @settings(max_examples=60, deadline=None)
    @given(polynomials_mod_composites(), st.data())
    def test_composite_tables_equal_the_grid(self, case, data):
        F, q = case
        assert value_counts(F, q).tolist() == _reduce_every_product_histogram(F, q).tolist()
        # a twisted a*F + v.x, as `expsums` builds it, without the memo
        a = data.draw(st.integers(0, q - 1))
        v = data.draw(st.lists(st.integers(0, q - 1), min_size=F.n, max_size=F.n))
        coeffs = {e: a * c for e, c in F.coeffs.items()}
        for i, vi in enumerate(v):
            e = tuple(int(i == j) for j in range(F.n))
            coeffs[e] = coeffs.get(e, 0) + vi
        T = IntPolynomial(F.n, coeffs)
        got = counting._value_counts(T, q, counting.DEFAULT_BUDGET)
        assert not got.flags.writeable and got.tolist() == _reduce_every_product_histogram(T, q).tolist()

    def test_F8_mod_2310_holds_python_ints(self):
        F8 = parse_form(" + ".join(f"x{i}^4" for i in range(1, 9)))
        q = 2310
        got = value_counts(F8, q)
        assert got.dtype == object and sum(got.tolist()) == q ** 8 and max(got) > 1 << 63
        # independent: two int64 cyclic self-convolutions of the table of x^4 give that of x1^4 + ... + x4^4,
        # and N(t) is the cyclic self-convolution of that table at t, in Python ints
        h = np.bincount(np.arange(q, dtype=np.int64) ** 4 % q, minlength=q)
        for _ in range(2):
            full = np.convolve(h, h)
            h = full[:q] + np.append(full[q:], 0)
        h4 = h.tolist()
        for t in random.Random(8).sample(range(q), 12):
            assert got[t] == sum(h4[s] * h4[(t - s) % q] for s in range(q))

    def test_no_composite_modulus_reaches_the_grid(self, monkeypatch, cold_memo):
        moduli = []
        grid = counting._grid_histogram
        monkeypatch.setattr(counting, "_grid_histogram", lambda G, axes, q: moduli.append(q) or grid(G, axes, q))
        for text in ("x1^4 + 3*x1*x2^3 - 2*x2^4 + 5", "x1^3*x2 + x2*x3^3 + x3^4", "2*x1^4 - x2 + 1", "x1*x2 + x3"):
            F = parse_form(text)
            for q in (12, 77, 90, 210):
                value_counts(F, q)
                counting._value_counts(F, q, counting.DEFAULT_BUDGET)  # without the memo
        assert moduli and all(len(counting.factorint(q)) == 1 for q in moduli)

    @pytest.mark.parametrize("text, q", [("x1^4 + 3*x1*x2^3 - 2*x2^4 + 5", 6), ("x1^3*x2 + x2*x3^3 + x3^4", 12),
                                         ("2*x1^4 - x2 + 1", 45), ("x1^4 + x1*x2^3 + 3*x2^4 + 1", 900),
                                         ("3*x1^4 - x1 + 7", 253 * 256)])
    def test_tiled_tables_equal_the_gather_by_residue(self, text, q):
        F, t = parse_form(text), np.arange(q)
        got = value_counts(F, q)
        tables = [value_counts(F, p ** e).astype(got.dtype)[t % p ** e] for p, e in counting.factorint(q).items()]
        want = math.prod(tables)
        assert len(tables) > 1 and got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_a_composite_past_the_budget_keeps_its_message(self, monkeypatch):
        built = []
        monkeypatch.setattr(counting, "_block_histogram", lambda G, q: built.append(q))
        F = parse_form("x1^4 + x1*x2^3 + 3*x2^4 + 1")
        with pytest.raises(BudgetExceeded, match="^cost 810000 of the blocks of F mod 900 exceeds budget 809999$"):
            value_counts(F, 900, budget=900 ** 2 - 1)
        assert built == []


class TestValueCountsMemo:
    def test_a_hit_is_the_same_read_only_table(self):
        F = parse_form("x1^4 + 3*x1*x2^3 + 2")
        got = value_counts(F, 50)
        assert value_counts(parse_form("2 + 3*x1*x2^3 + x1^4"), 50) is got
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0
        assert got.tolist() == _python_counts(F, 50)

    def test_budget_is_checked_on_a_hit(self):
        F = parse_form("x1^4 + x1*x2^3 + x3^4")
        q = 32
        cost = q ** 2 + q + q ** 2
        value_counts(F, q, budget=cost)
        with pytest.raises(BudgetExceeded):
            value_counts(F, q, budget=cost - 1)

    def test_residues_held_never_exceed_the_bound(self):
        F = parse_form("x1^4 + 5")
        memo = counting._value_counts_memo
        first = (F.n, frozenset(F.coeffs.items()), 7001)
        for q in range(7001, 7001 + 2 * MEMO_RESIDUES // 7000):
            value_counts(F, q)
            assert memo.held == sum(map(len, memo.values())) <= MEMO_RESIDUES
        assert first not in memo  # the least recently used tables went first
        assert (F.n, frozenset(F.coeffs.items()), q) in memo

    def test_a_table_larger_than_the_bound_is_not_kept(self):
        F = parse_form("x1^4 - 1")
        q = MEMO_RESIDUES + 1
        got = value_counts(F, q)
        assert not got.flags.writeable and got.sum() == q
        assert (F.n, frozenset(F.coeffs.items()), q) not in counting._value_counts_memo


PRIME_POWERS_TO_32 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


class TestBlockTablesInTheMemo:
    """The memo of `value_counts` holds the tables of blocks and of orbit levels as well as those of forms."""

    def test_every_table_the_memo_holds_equals_a_build_without_it(self, monkeypatch):
        memo = counting.LRUCache(MEMO_RESIDUES, size=len)
        monkeypatch.setattr(counting, "_value_counts_memo", memo)
        rng = random.Random(29)
        parts = [random_form(rng, m, 4, bound=3, homogeneous=h) for m in range(1, 5) for h in (True, False)]
        forms = parts + [_join(G, const=3) for G in parts] + [_join(G, H) for G, H in zip(parts, parts[1:])]
        series = [_join(*(IntPolynomial(1, {(4,): rng.choice([-3, -2, -1, 1, 2, 3])}) for _ in range(4)),
                        IntPolynomial(2, {(4, 0): rng.randint(1, 3), (1, 3): rng.randint(1, 3)})) for _ in range(3)]
        cases = [(F, q) for F in forms for q in PRIME_POWERS_TO_32] + [(B, q) for B in series for q in range(2, 13)]
        for F, q in rng.sample(cases, len(cases)):  # orbit levels are built both before and after their own tables
            value_counts(F, q)
        for F, q in cases:
            assert value_counts(F, q) is memo[F.n, frozenset(F.coeffs.items()), q]
        assert len(memo) > len(cases) and memo.held == sum(map(len, memo.values())) < MEMO_RESIDUES
        for (n, coeffs, q), table in memo.items():  # forms, blocks and orbit levels, each against a build with no memo
            want = counting._value_counts(IntPolynomial(n, dict(coeffs)), q, counting.DEFAULT_BUDGET)
            assert not table.flags.writeable and table.dtype == want.dtype and table.tolist() == want.tolist()

    def test_local_factor_2_to_the_5_builds_no_level_twice(self, monkeypatch):
        from quartic.circle import local_factor

        F = parse_form("x1^4 + x1^3*x2 + x2^2*x3^2 + x1*x2*x3*x4 + x3*x4^3")
        moduli = []
        grid = counting._grid_histogram
        monkeypatch.setattr(counting, "_value_counts_memo", counting.LRUCache(MEMO_RESIDUES, size=len))
        monkeypatch.setattr(counting, "_grid_histogram", lambda G, axes, q: moduli.append(q) or grid(G, axes, q))
        assert local_factor(F, 2, 5).identity_ok
        # grids mod 2, 4 and 8, then four orbit passes mod 16 and mod 32: the orbit recursion reads each level below
        assert moduli == [2, 4, 8, 16, 16, 16, 16, 32, 32, 32, 32]

    def test_a_block_a_second_form_shares_is_not_built_again(self, monkeypatch):
        built = []
        grid = counting._grid_histogram
        monkeypatch.setattr(counting, "_value_counts_memo", counting.LRUCache(MEMO_RESIDUES, size=len))
        monkeypatch.setattr(counting, "_grid_histogram", lambda G, axes, q: built.append(G) or grid(G, axes, q))
        shared = parse_form("x1^4 + x1*x2^3")
        value_counts(parse_form("x1^4 + x1*x2^3 + 3*x3^4"), 25)
        assert shared in built
        built.clear()
        F = parse_form("x1^4 + x1*x2^3 - 2*x3^4 + 3*x4^4 + 5")
        assert value_counts(F, 25).tolist() == _reduce_every_product_histogram(F, 25).tolist()
        assert built == [parse_form("-2*x1^4")]  # the blocks x1^4 + x1*x2^3 and 3*x^4 come from the memo
        value_counts(parse_form("3*x1^4"), 25)  # a one-block form is its block
        assert built == [parse_form("-2*x1^4")]



F8 = parse_form("x1^4 + x2^4 + x3^4 + x4^4 - x5^4 - x6^4 - x7^4 - x8^4")
N40 = parse_form(" + ".join(f"x{i}^4" for i in range(1, 21)) + " - " + " - ".join(f"x{i}^4" for i in range(21, 41)))


def _block_grid_reference(F, q):
    """N_q(r) from the grid histogram of each block of `forms.blocks` as it stands, joined by `_python_convolution`."""
    const, parts = blocks(F)
    hists = []
    for _, G in parts:
        h = np.bincount(grid_values(G, [np.arange(q)] * G.n, modulus=q).ravel(), minlength=q)
        hists.append({r: int(c) for r, c in enumerate(h.tolist()) if c})
    return _python_convolution(hists + [{const % q: 1}], q)


def _signed_class_form(rng, const):
    """A one-variable block a and a two-variable block B, each twice with each sign, shuffled after a first -a."""
    a = IntPolynomial(1, {(4,): rng.randint(1, 3)})
    B = IntPolynomial(2, {(4, 0): rng.choice([-3, -2, -1, 1, 2, 3]), (1, 3): rng.choice([-2, -1, 1, 2]),
                          (2, 2): rng.randint(-3, 3)})
    rest = [a, a, -a, B, B, -B, -B]
    rng.shuffle(rest)
    return _join(-a, *rest, const=const)


class TestRepeatedAndNegatedBlocks:
    """`value_counts` builds one table per class of blocks equal up to sign and joins its copies by squaring."""

    @pytest.mark.parametrize("q", PRIME_POWERS_TO_32 + (6, 10, 12, 24, 30))
    def test_matches_a_convolution_of_block_grid_histograms(self, q):
        rng = random.Random(31)
        for F in [F8, X1] + [_signed_class_form(rng, const) for const in (0, -7, 3)]:
            got = value_counts(F, q)
            assert got.dtype == np.int64 and got.tolist() == _block_grid_reference(F, q), (F, q)

    @pytest.mark.parametrize("q", (8, 27))
    def test_object_dtype_at_n_40(self, q):
        assert 40 * math.log2(q) >= 62  # counts past int64: Python ints
        got = value_counts(N40, q)
        assert got.dtype == object and got.tolist() == _block_grid_reference(N40, q)

    def test_f8_builds_one_block_table(self, monkeypatch):
        built = []
        grid = counting._grid_histogram
        monkeypatch.setattr(counting, "_value_counts_memo", counting.LRUCache(MEMO_RESIDUES, size=len))
        monkeypatch.setattr(counting, "_grid_histogram", lambda G, axes, q: built.append(G) or grid(G, axes, q))
        value_counts(F8, 13)
        assert built == [parse_form("x1^4")]  # -x^4 reads the table of x^4 at -t

    def test_f8_takes_five_convolutions(self, monkeypatch):
        calls = []
        conv = counting._cyclic_convolve
        monkeypatch.setattr(counting, "_value_counts_memo", counting.LRUCache(MEMO_RESIDUES, size=len))
        monkeypatch.setattr(counting, "_cyclic_convolve", lambda a, b: calls.append(len(a)) or conv(a, b))
        value_counts(F8, 13)
        assert calls == [13] * 5  # four copies of each sign: two squarings each, then one join

    @pytest.mark.parametrize("k", (1, 2, 3, 4, 5, 7, 8, 12, 20))
    def test_k_copies_take_log_many_convolutions(self, monkeypatch, k):
        calls = []
        conv = counting._cyclic_convolve
        monkeypatch.setattr(counting, "_value_counts_memo", counting.LRUCache(MEMO_RESIDUES, size=len))
        monkeypatch.setattr(counting, "_cyclic_convolve", lambda a, b: calls.append(len(a)) or conv(a, b))
        F = _join(*[IntPolynomial(1, {(4,): 3})] * k, const=2)
        assert value_counts(F, 7).tolist() == _block_grid_reference(F, 7)
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1  # floor(log2 k) + popcount(k) - 1

class TestAuxiliaryCounts:
    def test_T_closed_form_n1(self):
        F = parse_form("x1^4")
        for R in (1, 2, 3):
            got = auxiliary_counts(F, "T", R=R)
            assert got == (2 * R + 1) ** 3 - (2 * R) ** 3

    def test_N_alpha0_everything(self):
        F = parse_form("x1^4")
        P = 4
        got = auxiliary_counts(F, "N", alpha=Fraction(0, 1), P=P)
        assert got == (2 * P + 1) ** 3

    def test_S_contains_T(self):
        F = parse_form("x1^4")
        R, Q = 2, 9
        T = auxiliary_counts(F, "T", R=R)
        S = auxiliary_counts(F, "S", alpha=Fraction(1, 7), R=R, Q=Q)
        assert S >= T

    def test_T_growth_bound(self):
        # #T(R) <= C R^{2n + sigma + 1} with sigma = -1 for a nonsingular form
        F = parse_form("x1^4")
        ratios = []
        for R in (1, 2, 3, 4):
            ratios.append(auxiliary_counts(F, "T", R=R) / R ** 2)
        # the exponent is right: the observed constant does not grow with R
        assert max(ratios) == ratios[0] and ratios[0] <= 24

    def test_T_n2_matches_brute(self):
        from itertools import product as prod

        from quartic.forms import sym_tensor

        rng = random.Random(4)
        F = random_form(rng, 2, 4, bound=2)
        T = sym_tensor(F)
        R = 1
        brute = 0
        pts = range(-R, R + 1)
        for w in prod(pts, repeat=2):
            for x in prod(pts, repeat=2):
                for y in prod(pts, repeat=2):
                    if T.trilinear(list(w), list(x), list(y)) == (0, 0):
                        brute += 1
        assert auxiliary_counts(F, "T", R=R) == brute

    @pytest.mark.parametrize(
        "n, kind, params",
        [
            (1, "N", {"P": 3}),
            (1, "S", {"R": 2, "Q": 5}),
            (2, "N", {"P": 2}),
            (2, "S", {"R": 1, "Q": 3}),
            (3, "S", {"R": 1, "Q": 4}),
        ],
    )
    def test_N_and_S_match_fraction_oracle(self, n, kind, params):
        rng = random.Random(f"{n}{kind}{sorted(params.items())}")
        for alpha in (Fraction(-3, 7), Fraction(5), Fraction(-2), Fraction(7, 12), Fraction(-11, 6)):
            F = random_form(rng, n, 4, bound=2)
            assert auxiliary_counts(F, kind, alpha=alpha, **params) == _auxiliary_oracle(F, kind, alpha, **params)

    def test_contraction_is_the_trilinear_form(self):
        rng = random.Random(5)
        F = random_form(rng, 3, 4, bound=3)
        T = sym_tensor(F)
        for _ in range(20):
            w, x, y = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(3))
            assert tuple((T.contract(w, x) @ y).tolist()) == T.trilinear(w, x, y)

    def test_contract_matches_the_entry_loop_and_weyl(self):
        rng = random.Random(5)
        for n in (1, 2, 3, 4):
            T = sym_tensor(F := random_form(rng, n, 4, bound=3))
            W, X = (np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(5)]) for _ in range(2))
            C = T.contract(W[:, None], X[None])
            assert C.shape == (5, 5, n, n)
            for w, x in product(range(5), repeat=2):
                assert C[w, x].tolist() == _contract_two(T, W[w].tolist(), X[x].tolist())
            for w, x in zip(W.tolist(), X.tolist()):
                y = [rng.randint(-3, 3) for _ in range(n)]
                # the level-3 Weyl difference is sum_i L_i z_i plus a constant
                D = weyl_difference(F, 3, [w, x, y])
                L = [D.coeffs.get(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
                assert L == (T.contract(w, x) @ y).tolist()

    def test_dense_tensor_is_built_once_per_ring(self):
        T = sym_tensor(parse_form("x1^4 + 3*x1*x2^3 - x2^4"))
        w, x, y = [1, -2], [3, 1], [2, 5]
        want = (T.contract(np.array(w), np.array(x)).tolist(), T.trilinear(w, x, y))
        built = dict(T._dense)
        assert set(built) == {np.dtype(np.int64), np.dtype(object)}
        assert (T.contract(np.array(w), np.array(x)).tolist(), T.trilinear(w, x, y)) == want
        assert all(T._dense[dt] is N for dt, N in built.items())

    def test_huge_coefficients_stay_exact(self):
        # |L| reaches 24e18 * R^3, past int64: the pass runs on Python ints
        F = parse_form(f"{10 ** 18}*x1^4 + 3*x1*x2^3 - x2^4")
        alpha = Fraction(2, 2 ** 40 + 1)
        assert auxiliary_counts(F, "N", alpha=alpha, P=1) == _auxiliary_oracle(F, "N", alpha, P=1)
        alpha = Fraction(1, 7)
        assert auxiliary_counts(F, "S", alpha=alpha, R=1, Q=5) == _auxiliary_oracle(F, "S", alpha, R=1, Q=5)

    def test_distance_equal_to_threshold_is_excluded(self):
        # L = 24*w*x*y, so ||L/96|| = 1/4 = 1/Q exactly whenever w*x*y = +-1
        F = parse_form("x1^4")
        assert _auxiliary_oracle(F, "S", Fraction(1, 96), R=1, Q=4) == 27 - 8
        assert auxiliary_counts(F, "S", alpha=Fraction(1, 96), R=1, Q=4) == 27 - 8


def _auxiliary_oracle(F, kind, alpha, **params):
    """N(alpha, P) or S(R, Q) point by point, with Fraction fractional parts."""
    T = sym_tensor(F)
    n = F.n
    if kind == "N":
        R = int(params["P"])
        thresh = Fraction(1, int(params["P"]))
    else:
        R = int(params["R"])
        thresh = Fraction(1, int(params["Q"]))
    pts = range(-R, R + 1)
    count = 0
    for w in product(pts, repeat=n):
        for x in product(pts, repeat=n):
            C = _contract_two(T, w, x)
            for y in product(pts, repeat=n):
                ok = True
                for i in range(n):
                    Li = sum(C[i][l] * y[l] for l in range(n))
                    frac = (alpha * Li) % 1
                    if not min(frac, 1 - frac) < thresh:
                        ok = False
                        break
                count += ok
    return count


def _contract_two(T, wv, xv):
    """Matrix C with C[i][l] = sum_{jk} N_ijkl w_j x_k, entry by entry."""
    n = T.n
    C = [[0] * n for _ in range(n)]
    for key, val in T.entries.items():
        for p in set(permutations(key)):
            C[p[0]][p[3]] += val * wv[p[1]] * xv[p[2]]
    return C


class TestNearInteger:
    @pytest.mark.parametrize(
        "alpha", [Fraction(0), Fraction(-4), Fraction(3, 8), Fraction(-5, 12), Fraction(1, 2 ** 40)]
    )
    @pytest.mark.parametrize("theta", [Fraction(1, 8), Fraction(1, 3), Fraction(0.3)])
    def test_matches_fractions(self, alpha, theta):
        m = np.arange(-30, 31)
        expect = [min((alpha * t) % 1, 1 - (alpha * t) % 1) < theta for t in m.tolist()]
        assert _near_integer(alpha, m, theta).tolist() == expect


class TestSieves:
    def test_factorint_matches_trial_division(self):
        def trial(q):
            out, d = {}, 2
            while d * d <= q:
                while q % d == 0:
                    out[d] = out.get(d, 0) + 1
                    q //= d
                d += 1
            if q > 1:
                out[q] = out.get(q, 0) + 1
            return out

        near = [(1 << 31) - 1, (1 << 31) - 19, (1 << 31) + 11, 46337 ** 2, 46337 * 46349, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19]
        for q in [-5, 0, 1] + list(range(2, 10 ** 5 + 1)) + near:
            got = counting.factorint(q)
            assert got == trial(q) and list(got) == sorted(got) and all(type(p) is int for p in got), q


    def test_primes_and_mobius_match_trial_division(self):
        primes = [p for p in range(2, 2001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        mu = [1] + [0 if any(e > 1 for e in f.values()) else (-1) ** len(f)
                    for f in map(counting.factorint, range(1, 2001))]
        for N in range(-2, 2001):
            assert primes_up_to(N) == [p for p in primes if p <= N]
        for N in range(2001):
            assert counting._mobius_sieve(N).tolist() == mu[: N + 1]


class TestWeightedCountInputs:
    @pytest.mark.parametrize("P", [0, -3, 0.0])
    @pytest.mark.parametrize("method", ["brute", "mitm", "auto"])
    def test_P_must_be_positive(self, P, method):
        with pytest.raises(PreconditionViolated):
            weighted_count(parse_form("x1^4 - x2^4"), box(2), P, method=method)


class TestBudgets:
    def test_brute_budget(self):
        from quartic.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            weighted_count(parse_form("x1^3*x2"), box(2), 10 ** 5, method="brute", budget=100)

    def test_rho_budget(self):
        from quartic.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            solutions_mod_q(parse_form("x1^3*x2 + x2^4"), 97, budget=100)

    @staticmethod
    def _no_work(*args, **kwargs):
        raise AssertionError("a grid built past the budget check")

    @pytest.mark.parametrize("kind, params", [("T", {"R": 2}), ("N", {"alpha": 0, "P": 2}),
                                              ("S", {"alpha": Fraction(1, 7), "R": 2, "Q": 3})])
    def test_auxiliary_enumeration_refused_before_the_grid(self, kind, params, monkeypatch):
        # (2R + 1)^(3n) = 5^6 = 15625 triples for n = 2
        monkeypatch.setattr(counting, "_grid_points", self._no_work)
        label = r"T\(R\)" if kind == "T" else kind
        with pytest.raises(BudgetExceeded, match=f"^{label} enumeration 15625 exceeds budget 15624$"):
            auxiliary_counts(parse_form("x1^4 + x1*x2^3"), kind, budget=15624, **params)

    def test_mitm_past_int64_refused_before_the_grid(self, monkeypatch):
        # x1^4 reaches 10^20 > 2^63 on the box of height 10^5
        monkeypatch.setattr(counting, "grid_values", self._no_work)
        with pytest.raises(BudgetExceeded, match="^mitm partial values overflow int64 at this height$"):
            weighted_count(parse_form("x1^4 - x2^4"), box(2), 10 ** 5, method="mitm")

    @pytest.mark.parametrize("q", [1 << 31, 3 ** 20])
    def test_modulus_past_two_to_the_31_is_refused_at_any_budget(self, q):
        with pytest.raises(BudgetExceeded):
            value_counts(parse_form("x1"), q, budget=10 ** 12)
