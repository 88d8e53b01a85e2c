import json
import math
import operator
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic.errors import (
    DimensionMismatch,
    MalformedExponent,
    NonIntegerCoefficient,
    NotQuarticForm,
)
from quartic.forms import (
    CubicData,
    IntPolynomial,
    _abs_bound,
    _grid_points,
    _grid_slabs,
    _int64_safe,
    _values_at,
    block_classes,
    blocks,
    difference_cubic,
    grid_values,
    heights,
    hessian,
    hessian_form_rows,
    parse_form,
    sym_tensor,
    weyl_difference,
)
from quartic.geometry import GF


def homogenize(f: IntPolynomial) -> IntPolynomial:
    """F(x, z) = z^d f(x/z); appends z as the last variable."""
    d = max(f.degree, 0)
    return IntPolynomial(f.n + 1, {e + (d - sum(e),): c for e, c in f.coeffs.items()})


def dehomogenize(F: IntPolynomial) -> IntPolynomial:
    """Set the last variable to 1."""
    coeffs = {}
    for e, c in F.coeffs.items():
        coeffs[e[:-1]] = coeffs.get(e[:-1], 0) + c
    return IntPolynomial(F.n - 1, coeffs)


def random_form(rng, n, degree, bound=9, homogeneous=True):
    coeffs = {}
    degs = [degree] if homogeneous else range(degree + 1)
    for d in degs:
        for key in combinations_with_replacement(range(n), d):
            e = [0] * n
            for i in key:
                e[i] += 1
            c = rng.randint(-bound, bound)
            if c:
                coeffs[tuple(e)] = c
    return IntPolynomial(n, coeffs)


def rand_vec(rng, n, bound=5):
    return [rng.randint(-bound, bound) for _ in range(n)]


class TestParse:
    def test_x1_example(self):
        F = parse_form("4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4")
        assert F.n == 4 and F.degree == 4 and len(F.coeffs) == 4
        assert F.evaluate([1, 1, 1, 1]) == 4 + 9 - 16

    def test_single_monomial(self):
        F = parse_form("x1^4")
        assert F.coeffs == {(4,): 1}

    def test_non_integer_coefficient(self):
        with pytest.raises(NonIntegerCoefficient):
            parse_form("x1^4 + 0.5*x2^4")

    def test_malformed_exponent(self):
        with pytest.raises(MalformedExponent):
            parse_form("x1^-2")
        with pytest.raises(MalformedExponent):
            parse_form("x1^1.5")

    def test_variable_x0_is_rejected(self):
        # x0 used to be read as the constant 1 ("x0^4 + x1^4" -> 1 + x1^4)
        for text in ("x0^4 + x1^4", "x0^4"):
            with pytest.raises(MalformedExponent):
                parse_form(text)

    def test_json_roundtrip(self):
        F = parse_form("3*x1^2*x2 - x3 + 7")
        assert IntPolynomial.from_json(F.to_json()) == F

    @pytest.mark.parametrize(
        "coeffs, error",
        [({(4,): 1.5}, NonIntegerCoefficient), ({(4,): Fraction(3, 2)}, NonIntegerCoefficient),
         ({(4.5,): 1}, MalformedExponent), ({(-1,): 1}, MalformedExponent)],
        ids=["float-coefficient", "fraction-coefficient", "float-exponent", "negative-exponent"],
    )
    def test_constructor_refuses_what_it_would_truncate(self, coeffs, error):
        # int(1.5) used to read 1.5*x1^4 as x1^4
        with pytest.raises(error):
            IntPolynomial(1, coeffs)
        with pytest.raises(error):
            IntPolynomial.from_json(json.dumps({"n": 1, "monomials": [[list(e), float(c)] for e, c in coeffs.items()]}))

    def test_constructor_keeps_integral_values_of_any_type(self):
        F = IntPolynomial(2, {(np.int64(4), 0.0): np.int64(3), (0, 4): 2.0})
        assert F == parse_form("3*x1^4 + 2*x2^4") and all(type(c) is int for c in F.coeffs.values())

    def test_canonical_order_is_graded(self):
        F = parse_form("x1 + x2^3 + 5")
        degs = [sum(e) for e, _ in F.monomials()]
        assert degs == sorted(degs)


@st.composite
def polynomials(draw):
    """IntPolynomials in one to four variables of degree at most 5, the zero polynomial among them."""
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 5)] * n).filter(lambda e: sum(e) <= 5)
    coeffs = st.integers(-(10 ** 20), 10 ** 20) | st.integers(-3, 3)
    return IntPolynomial(n, draw(st.dictionaries(exponents, coeffs, max_size=8)))


class TestRoundTrip:
    @given(polynomials())
    def test_json(self, F):
        assert IntPolynomial.from_json(F.to_json()) == F

    @given(polynomials())
    def test_repr_parses_back(self, F):
        assert parse_form(repr(F), n=F.n) == F

    def test_zero_polynomial_prints_as_zero(self):
        assert repr(IntPolynomial(3, {})) == "0" and parse_form("0", n=3) == IntPolynomial(3, {})


class TestSymTensor:
    def test_pure_power(self):
        assert sym_tensor(parse_form("x1^4")).entries == {(0, 0, 0, 0): 24}

    def test_mixed_monomial(self):
        assert sym_tensor(parse_form("x1^3*x2")).entries == {(0, 0, 0, 1): 6}

    def test_not_quartic(self):
        with pytest.raises(NotQuarticForm):
            sym_tensor(parse_form("x1^3"))
        with pytest.raises(NotQuarticForm):
            sym_tensor(parse_form("x1^4 + x1"))

    def test_reconstruction_oracle(self):
        # oracle: direct polynomial evaluation of 24*F at random points
        rng = random.Random(1)
        for _ in range(10):
            n = rng.randint(1, 4)
            F = random_form(rng, n, 4)
            T = sym_tensor(F)
            R = T.reconstruct()
            for _ in range(5):
                x = rand_vec(rng, n)
                assert R.evaluate(x) == 24 * F.evaluate(x)

    def test_trilinear_example(self):
        assert sym_tensor(parse_form("x1^4")).trilinear([2], [3], [5]) == (720,)

    def test_trilinear_symmetry(self):
        rng = random.Random(2)
        F = random_form(rng, 3, 4)
        T = sym_tensor(F)
        w, x, y = (rand_vec(rng, 3) for _ in range(3))
        vals = {T.trilinear(*p) for p in permutations((tuple(w), tuple(x), tuple(y)))}
        assert len(vals) == 1

    def test_trilinear_is_z_derivative_of_weyl(self):
        # F(w,x,y;z) - sum_i z_i L_i independent of z
        rng = random.Random(3)
        for n in (1, 2, 3):
            F = random_form(rng, n, 4)
            T = sym_tensor(F)
            w, x, y = (rand_vec(rng, n, 3) for _ in range(3))
            L = T.trilinear(w, x, y)
            W = weyl_difference(F, 3, [w, x, y])
            z1, z2 = rand_vec(rng, n), rand_vec(rng, n)
            resid1 = W.evaluate(z1) - sum(L[i] * z1[i] for i in range(n))
            resid2 = W.evaluate(z2) - sum(L[i] * z2[i] for i in range(n))
            assert resid1 == resid2


class TestCalculus:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            parse_form("x1^4 + x2^4").evaluate([1])

    def test_euler_identity(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randint(1, 4)
            F = random_form(rng, n, 4)
            x = rand_vec(rng, n)
            v, g = F.evaluate(x), F.gradient_at(x)
            assert sum(a * b for a, b in zip(x, g)) == 4 * v

    def test_hessian_diag_cubic(self):
        H = hessian(parse_form("x1^3 + x2^3"), [1, 2])
        assert H == [[6, 0], [0, 12]]

    def test_hessian_symmetry_identity_cubic(self):
        # H_G(x) y = H_G(y) x for cubic forms
        rng = random.Random(5)
        for _ in range(8):
            n = rng.randint(2, 4)
            G = random_form(rng, n, 3)
            x, y = rand_vec(rng, n), rand_vec(rng, n)
            Hx, Hy = hessian(G, x), hessian(G, y)
            lhs = [sum(Hx[i][j] * y[j] for j in range(n)) for i in range(n)]
            rhs = [sum(Hy[i][j] * x[j] for j in range(n)) for i in range(n)]
            assert lhs == rhs

    def test_hessian_rows_are_linear(self):
        G = parse_form("x1^3 + x1*x2^2")
        rows = hessian_form_rows(G)
        assert all(p.degree <= 1 for row in rows for p in row)

    def test_hessian_decomposition_constant_difference(self):
        # grad^2 g - H_{g0} does not depend on the evaluation point
        rng = random.Random(6)
        for _ in range(6):
            n = rng.randint(2, 3)
            g = random_form(rng, n, 3, homogeneous=False)
            g0 = g.homogeneous_part(3)
            x, y = rand_vec(rng, n), rand_vec(rng, n)
            dx = [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(hessian(g, x), hessian(g0, x))
            ]
            dy = [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(hessian(g, y), hessian(g0, y))
            ]
            assert dx == dy

    def test_rational_point_hessian(self):
        H = hessian(parse_form("x1^3"), [Fraction(1, 2)])
        assert H == [[3]]


class TestDifference:
    def test_one_var_example(self):
        D = difference_cubic(parse_form("x1^4"), [1])
        assert D.poly == parse_form("4*x1^3 + 6*x1^2 + 4*x1 + 1")
        assert D.g0 == parse_form("4*x1^3")

    def test_zero_shift(self):
        D = difference_cubic(parse_form("x1^4 + x2^4"), [0, 0])
        assert D.poly.coeffs == {}

    def test_cubic_part_is_h_dot_grad(self):
        rng = random.Random(7)
        for _ in range(8):
            n = rng.randint(1, 4)
            F = random_form(rng, n, 4)
            h = rand_vec(rng, n, 3)
            D = difference_cubic(F, h)
            hdg = IntPolynomial(n, {})
            for i, hi in enumerate(h):
                hdg = hdg + hi * F.partial(i)
            assert D.g0 == hdg
            assert D.poly.degree <= 3

    def test_degree_two_remainder(self):
        rng = random.Random(8)
        F = random_form(rng, 2, 4)
        h = [2, -1]
        D = difference_cubic(F, h)
        assert (D.poly - D.g0).degree <= 2


class TestWeyl:
    def test_zero_point_vanishes(self):
        F = parse_form("x1^4 + x1*x2^3")
        W = weyl_difference(F, 3, [[0, 0], [1, 2], [3, 4]])
        assert W.coeffs == {}

    def test_one_var_coefficient(self):
        F = parse_form("x1^4")
        W = weyl_difference(F, 3, [[1], [1], [1]])
        # coefficient of z equals L_1(1;1;1) = 24
        assert W.coeffs.get((1,)) == 24

    def test_affine_linear_in_z(self):
        # second finite difference in z vanishes
        rng = random.Random(9)
        F = random_form(rng, 2, 4)
        pts = [rand_vec(rng, 2, 3) for _ in range(3)]
        W = weyl_difference(F, 3, pts)
        z = rand_vec(rng, 2)
        e = [1, 0]
        second = (
            W.evaluate([a + 2 * b for a, b in zip(z, e)])
            - 2 * W.evaluate([a + b for a, b in zip(z, e)])
            + W.evaluate(z)
        )
        assert second == 0

    @staticmethod
    def _alternating_sum(F, points):
        """The former definition: sum over subsets T of the points of (-1)^(level - |T|) F(z + sum_T h_t)."""
        eye = np.eye(F.n, dtype=int).tolist()
        out = IntPolynomial(F.n, {})
        for mask in range(1 << len(points)):
            picked = [pt for t, pt in enumerate(points) if mask >> t & 1]
            term = F.substitute_affine([sum(col) for col in zip([0] * F.n, *picked)], eye)
            out = out + (term if (len(points) - len(picked)) % 2 == 0 else -term)
        return out

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_iterated_differences_equal_the_alternating_sum(self, n, level):
        rng = random.Random(100 * n + level)
        for _ in range(4):
            F = random_form(rng, n, rng.choice([2, 3, 4]), bound=5, homogeneous=rng.random() < 0.5)
            pts = [rand_vec(rng, n, 4) for _ in range(level)]
            assert weyl_difference(F, level, pts) == self._alternating_sum(F, pts)


class TestHeights:
    def test_inhomogeneous_shrinks(self):
        h, hP = heights(parse_form("x1^2"), 10)
        assert h == 1 and hP == Fraction(1, 10)

    def test_homogeneous_cubic_fixed_point(self):
        g = parse_form("5*x1^3 - 2*x1*x2^2")
        for P in (1, 2, 10, 97):
            h, hP = heights(g, P)
            assert hP == h == 5

    def test_chain_inequality(self):
        rng = random.Random(10)
        for _ in range(10):
            g = random_form(rng, 2, 3, homogeneous=False)
            if g.degree < 3:
                continue
            g0 = g.homogeneous_part(3)
            P = rng.randint(1, 50)
            assert heights(g0, P)[1] <= heights(g, P)[1] <= heights(g, P)[0]

    def test_homogenize_roundtrip(self):
        f = parse_form("x1^3 + x1")
        F = homogenize(f)
        assert F == parse_form("x1^3 + x1*x2^2", n=2)
        assert dehomogenize(F) == f


# -- grid evaluation ------------------------------------------------------------


@st.composite
def forms_on_grids(draw, coeffs, elements, dtype=np.int64):
    """A polynomial in n <= 3 variables of degree <= 4 and one axis per variable."""
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 4)] * n).filter(lambda e: sum(e) <= 4)
    F = IntPolynomial(n, draw(st.dictionaries(exponents, coeffs, max_size=6)))
    axes = [np.array(draw(st.lists(elements, max_size=5)), dtype=dtype) for _ in range(n)]
    return F, axes


SMALL_INT_GRIDS = forms_on_grids(st.integers(-9, 9), st.integers(-20, 20))


def _pointwise(F, axes, vals, expected):
    assert vals.shape == tuple(len(ax) for ax in axes)
    for idx in np.ndindex(vals.shape):
        x = [int(ax[j]) for ax, j in zip(axes, idx)]
        assert vals[idx] == expected(F.evaluate(x))


def _monomial_loop(F, axes):
    """The point-by-point float evaluation that `grid_values` replaced."""
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    fv = np.zeros(len(pts))
    for e, c in F.coeffs.items():
        term = np.full(len(pts), float(c))
        for i, k in enumerate(e):
            if k:
                term = term * pts[:, i] ** k
        fv += term
    return fv


class TestGridValues:
    @settings(deadline=None)
    @given(SMALL_INT_GRIDS, st.integers(1, 60))
    def test_mod_m(self, case, m):
        F, axes = case
        vals = grid_values(F, axes, modulus=m)
        assert vals.dtype == np.int64
        _pointwise(F, axes, vals, lambda v: v % m)

    @pytest.mark.parametrize("m", [(1 << 31) - 1, (1 << 31) - 19, 1 << 30, 3 ** 19, 65537])
    def test_mod_m_near_two_to_the_31(self, m):
        # residues near m put the bound of F past 2^62, so each product is reduced as it is formed
        F = parse_form("x1^4 + 3*x1^3*x2 - 7*x2^4 + x1*x2*x3^2 - x3^3 + x2 - 5", 3)
        F = F + IntPolynomial(3, {(2, 1, 1): m - 2, (0, 0, 4): -(m - 1), (0, 0, 0): 5 * m + 3})
        axes = [np.arange(m - 13, m + 2, 2), np.arange(0, 2 * m, m // 5), np.array([-m - 1, -7, 2 ** 40 + 1])]
        vals = grid_values(F, axes, modulus=m)
        assert vals.dtype == np.int64
        _pointwise(F, axes, vals, lambda v: v % m)

    @settings(deadline=None)
    @given(SMALL_INT_GRIDS)
    def test_exact_int64(self, case):
        F, axes = case
        vals = grid_values(F, axes)
        assert vals.dtype == np.int64
        _pointwise(F, axes, vals, lambda v: v)

    @settings(deadline=None)
    @given(forms_on_grids(st.integers(2 ** 62 - 99, 2 ** 62), st.integers(-20, 20)))
    def test_object_fallback_is_exact(self, case):
        F, axes = case
        F = F + IntPolynomial(F.n, {(0,) * F.n: 2 ** 62})  # past the int64 bound
        vals = grid_values(F, axes)
        assert vals.dtype == object
        assert all(type(v) is int for v in vals.ravel())
        _pointwise(F, axes, vals, lambda v: v)

    @settings(deadline=None)
    @given(forms_on_grids(st.integers(-9, 9), st.floats(-3, 3), dtype=float))
    def test_float_matches_monomial_loop_bit_for_bit(self, case):
        F, axes = case
        vals = grid_values(F, axes)
        assert vals.dtype == np.float64
        assert np.array_equal(vals.ravel().view(np.int64), _monomial_loop(F, axes).view(np.int64))

    def test_zero_length_axis(self):
        F = parse_form("x1^4 + x1*x2*x3^2 - 3")
        axes = [np.arange(3), np.arange(0), np.arange(2)]
        assert grid_values(F, axes).shape == (3, 0, 2)
        assert grid_values(F, axes, modulus=7).shape == (3, 0, 2)
        assert grid_values(F, [ax.astype(float) for ax in axes]).shape == (3, 0, 2)

    @pytest.mark.parametrize("axis", [np.array([0]), np.array([], dtype=np.int64)])
    def test_huge_coefficient_on_zero_coordinates(self, axis):
        # every coordinate is 0 (or there is none), so the monomial bound is 0; the coefficient itself is past int64
        F = IntPolynomial(1, {(1,): 2 ** 63, (0,): 1})
        vals = grid_values(F, [axis])
        assert vals.dtype == object and vals.tolist() == [1] * len(axis)

    def test_axis_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            grid_values(parse_form("x1^4 + x2^4"), [np.arange(3)])

    def test_value_counts_across_slabs(self):
        from quartic.counting import value_counts
        from quartic.expsums import complete_sum

        # 2100^2 = 4.41M cells: the direct histogram is built in two slabs
        F = parse_form("x1^3*x2 + 2*x1*x2^2 + x2^4 + 3*x1")
        assert value_counts(F * 11, 2100).sum() == 2100 ** 2
        direct = complete_sum(F, 11, 2100, method="direct")
        crt = complete_sum(F, 11, 2100, method="crt")
        assert abs(direct.value - crt.value) <= direct.err + crt.err


def _values_at_full_shape(F, coords, modulus=None):
    """The evaluator before the growing total: np.zeros of the full broadcast shape, one full-size add per monomial."""
    coords = [np.asarray(c) for c in coords]
    shape = np.broadcast(*coords).shape if coords else ()
    field = hasattr(modulus, "mul")
    embed, add, mul, coeffs = int, operator.iadd, operator.mul, F.coeffs
    if field:
        dtype, embed, add, mul = np.int64, modulus.embed, modulus.add, modulus.mul
    elif modulus is not None:
        coeffs = {e: c % modulus for e, c in coeffs.items() if c % modulus}
        dtype, coords = np.int64, [c.astype(np.int64) % modulus for c in coords]
        if _abs_bound(coeffs, [(0, modulus - 1)] * F.n) >= 1 << 62:

            def mul(a, b):
                out = a * b
                out %= modulus
                return out
    elif all(c.dtype.kind in "iuO" for c in coords):
        ranges = [(int(c.min()), int(c.max())) if c.size else (0, 0) for c in coords]
        fits = all(-(1 << 63) <= a and b < 1 << 63 for a, b in ranges)
        dtype = np.int64 if fits and _int64_safe(F, ranges) else object
    else:
        dtype, embed = np.float64, float
    coords = [c.astype(dtype, copy=False) for c in coords]
    tables = {(i, 1): c for i, c in enumerate(coords)}

    def power(i, k):
        for j in range(k if modulus is None else 2, k + 1):
            if (i, j) not in tables:
                tables[i, j] = coords[i] ** j if modulus is None else mul(tables[i, j - 1], coords[i])
        return tables[i, k]

    total = np.zeros(shape, dtype=dtype)
    for e, c in coeffs.items():
        term = embed(c)
        for i, k in enumerate(e):
            if k:
                term = mul(term, power(i, k))
        total = add(total, term)
    if modulus is not None and not field:
        total %= modulus
    return total


@st.composite
def evaluator_cases(draw):
    """(F, coords, modulus): every ring of `_values_at`, on grids, `np.ix_` grids, reversed grids and 1-D rows."""
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 4)] * n).filter(lambda e: sum(e) <= 4)
    ring = draw(st.sampled_from(["Z", "Z-object", "mod-small", "mod-large", "GF", "float"]))
    coeffs = st.integers(-(2 ** 70), 2 ** 70) if ring == "Z-object" else st.integers(-9, 9)
    F = IntPolynomial(n, draw(st.dictionaries(exponents, coeffs, max_size=6)))
    modulus = {"mod-small": st.integers(1, 60), "mod-large": st.integers((1 << 31) - 999, (1 << 31) - 1),
               "GF": st.sampled_from([GF(2, 2), GF(3, 2), GF(2, 3), GF(5, 2), GF(7, 1)])}.get(ring, st.none())
    modulus = draw(modulus)
    if ring == "float":
        elements = st.sampled_from([-0.0, 0.0, 1.0, -1.5]) | st.floats(-3, 3)
    elif ring == "GF":
        elements = st.integers(0, modulus.q - 1)
    else:
        elements = st.integers(-20, 20) | st.integers(-(2 ** 40), 2 ** 40)
    dtype = float if ring == "float" else object if ring == "Z-object" and draw(st.booleans()) else np.int64
    layout = draw(st.sampled_from(["grid", "ix", "reversed", "rows"]))
    if layout == "rows":
        size = draw(st.integers(0, 6))
        rows = [np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=dtype) for _ in range(n)]
        return F, rows, modulus
    axes = [np.array(draw(st.lists(elements, max_size=4)), dtype=dtype) for _ in range(n)]
    if layout == "ix":
        return F, list(np.ix_(*axes)), modulus
    dims = [i if layout == "grid" else n - 1 - i for i in range(n)]
    return F, [ax.reshape([-1 if j == d else 1 for j in range(n)]) for ax, d in zip(axes, dims)], modulus


class TestGrowingTotal:
    """`_values_at` adds into a total that grows to the terms' broadcast shape: the full-shape loop, bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(evaluator_cases())
    def test_matches_the_full_shape_loop(self, case):
        F, coords, modulus = case
        want = _values_at_full_shape(F, coords, modulus)
        got = _values_at(F, coords, modulus)
        assert type(got) is type(want) and got.dtype == want.dtype and got.shape == want.shape
        if got.dtype == object:
            assert [(type(v), v) for v in got.ravel()] == [(type(v), v) for v in want.ravel()]
        else:
            assert got.tobytes() == want.tobytes()

    def test_float_minus_zero_terms_become_plus_zero(self):
        F = parse_form("x1^3 + x2")
        coords = [np.array([-0.0, 1.0]).reshape(2, 1), np.array([-0.0])]
        got = _values_at(F, coords)
        assert got.tobytes() == _values_at_full_shape(F, coords).tobytes()
        assert math.copysign(1.0, got[0, 0]) == 1.0  # -0.0 + -0.0 added to +0 is +0

    def test_variable_in_no_monomial_and_constant_first(self):
        F = IntPolynomial(3, {(0, 0, 0): 2 ** 70, (2, 0, 0): 3})  # x2 and x3 in no monomial, object ring
        axes = [np.arange(3), np.arange(2), np.arange(4)]
        got = grid_values(F, axes)
        assert got.shape == (3, 2, 4) and got.dtype == object and got.flags.writeable
        assert got.tolist() == _values_at_full_shape(F, np.ix_(*axes)).tolist()


class TestGridSlabs:
    @pytest.mark.parametrize("cells", [1, 3, 7, 1 << 30])
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 5), (4, 1, 3), (1, 7), (2, 2, 2, 2), (0,), (3, 0, 2)],
                             ids=str)
    def test_slabs_tile_the_grid_in_c_order(self, shape, cells):
        axes = [np.arange(s) * 10 + i for i, s in enumerate(shape)]  # no two axes share a value
        slabs = list(_grid_slabs(axes, cells))
        assert all(math.prod(map(len, slab)) <= cells for slab in slabs)
        assert np.array_equal(np.concatenate([_grid_points(slab) for slab in slabs]), _grid_points(axes))
        if 0 in shape:  # an empty axis: no cells
            assert sum(math.prod(map(len, slab)) for slab in slabs) == 0

    @pytest.mark.parametrize("cells", [1, 3, 7, 1 << 30])
    def test_no_axes_is_one_empty_slab(self, cells):
        assert list(_grid_slabs([], cells)) == [[]]


# -- blocks ------------------------------------------------------------------------


@st.composite
def block_forms(draw):
    """A polynomial in n <= 6 variables whose monomials touch one or two variables each."""
    n = draw(st.integers(1, 6))
    coeffs = {}
    for _ in range(draw(st.integers(0, 6))):
        e = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            e[i] += draw(st.integers(1, 3))
        coeffs[tuple(e)] = draw(st.integers(-5, 5))
    if draw(st.booleans()):
        coeffs[(0,) * n] = draw(st.integers(-5, 5))
    return IntPolynomial(n, coeffs)


def _components(F):
    """Connected components of the graph 'x_i and x_j share a monomial', by search."""
    adj = {i: set() for i in range(F.n)}
    for e in F.coeffs:
        vs = [i for i, k in enumerate(e) if k]
        for i in vs:
            adj[i].update(vs)
    seen, comps = set(), []
    for i in range(F.n):
        if i not in seen:
            stack, comp = [i], set()
            while stack:
                j = stack.pop()
                if j not in comp:
                    comp.add(j)
                    stack.extend(adj[j] - comp)
            seen |= comp
            comps.append(tuple(sorted(comp)))
    return comps


class TestBlocks:
    @settings(deadline=None)
    @given(block_forms())
    def test_parts_reassemble_F(self, F):
        const, parts = blocks(F)
        total = IntPolynomial(F.n, {(0,) * F.n: const})
        for vars_, G in parts:
            assert G.n == len(vars_)
            for g, c in G.coeffs.items():
                e = [0] * F.n
                for i, k in zip(vars_, g):
                    e[i] = k
                total = total + IntPolynomial(F.n, {tuple(e): c})
        assert total == F

    @settings(deadline=None)
    @given(block_forms())
    def test_parts_are_the_components_in_first_variable_order(self, F):
        _, parts = blocks(F)
        assert [vars_ for vars_, _ in parts] == _components(F)
        assert sorted(i for vars_, _ in parts for i in vars_) == list(range(F.n))

    @settings(deadline=None)
    @given(block_forms(), st.booleans())
    def test_memoised_structure_equals_a_fresh_polynomial(self, F, hash_first):
        # F keeps blocks(F), its partials and its hash; asked again, in either order, they must be what a polynomial
        # built anew from the same coefficients derives, down to the order of the coefficients
        def structure(G):
            parts = [(vars_, list(H.coeffs.items())) for vars_, H in blocks(G)[1]]
            partials = [list(G.partial(i).coeffs.items()) for i in range(G.n)]
            return blocks(G)[0], parts, partials, hash(G)

        if hash_first:
            hash(F)
        first = structure(F)
        assert structure(F) == first == structure(IntPolynomial(F.n, dict(F.coeffs)))
        assert blocks(F) is blocks(F) and all(F.partial(i) is F.partial(i) for i in range(F.n))
        assert hash(F) == hash((F.n, tuple(F.monomials())))

    def test_example_keeps_monomial_order(self):
        F = parse_form("x1*x2^3 + x3^4 + 7 + x1^4", n=5)
        const, parts = blocks(F)
        assert const == 7
        assert [vars_ for vars_, _ in parts] == [(0, 1), (2,), (3,), (4,)]
        (_, G01), (_, G2), (_, G3), (_, G4) = parts
        assert list(G01.coeffs.items()) == [((1, 3), 1), ((4, 0), 1)]
        assert G2 == parse_form("x1^4") and G3 == G4 == IntPolynomial(1, {})
        assert blocks(IntPolynomial(0, {(): 3})) == (3, [])


class TestBlockClasses:
    @settings(deadline=None)
    @given(block_forms(), st.booleans())
    def test_classes_are_the_blocks_equal_up_to_sign(self, F, labelled):
        # every block is sign * G with G its class's first member, and two blocks share a class exactly when they are
        # equal up to sign (and share the label)
        label = (lambda vars_: vars_[0] % 2) if labelled else None
        const, parts = blocks(F)
        got_const, classes = block_classes(F, label)
        assert got_const == const
        members = [m for cls in classes for m in cls]
        assert sorted(vars_ for vars_, _, _ in members) == [vars_ for vars_, _ in parts]
        block = dict(parts)
        for cls in classes:
            first_vars, first_sign, G = cls[0]
            assert first_sign == 1 and G is block[first_vars]
            assert [vars_ for vars_, _, _ in cls] == sorted(vars_ for vars_, _, _ in cls)
            assert all(sign in (1, -1) and block[vars_] == sign * G and G2 is G for vars_, sign, G2 in cls)
        assert [cls[0][0] for cls in classes] == sorted(cls[0][0] for cls in classes)
        for i, cls in enumerate(classes):  # no two classes could be one
            for other in classes[i + 1:]:
                (a, _, G), (b, _, H) = cls[0], other[0]
                assert not ((G == H or G == -H) and (label is None or label(a) == label(b)))

    def test_members_in_block_order_with_the_first_members_polynomial(self):
        F = parse_form("-2*x1^4 + x2^4 + x3*x4^3 + 3*x5^4 + 2*x6^4 - x7*x8^3 - x9^4 + 5")
        const, classes = block_classes(F)
        parts = dict(blocks(F)[1])
        assert const == 5
        assert [[(vars_, sign) for vars_, sign, _ in cls] for cls in classes] == [
            [((0,), 1), ((5,), -1)], [((1,), 1), ((8,), -1)], [((2, 3), 1), ((6, 7), -1)], [((4,), 1)]]
        assert [cls[0][2] for cls in classes] == [parse_form("-2*x1^4"), parse_form("x1^4"), parse_form("x1*x2^3"),
                                                  parse_form("3*x1^4")]
        assert all(G is parts[cls[0][0]] for cls in classes for _, _, G in cls)

    def test_signs_are_relative_to_a_negative_first_member(self):
        X1 = parse_form("4*x1^4 + 9*x2^4 - 8*x3^4 - 8*x4^4")
        assert block_classes(X1) == (0, [[((0,), 1, parse_form("4*x1^4"))], [((1,), 1, parse_form("9*x1^4"))],
                                         [((2,), 1, parse_form("-8*x1^4")), ((3,), 1, parse_form("-8*x1^4"))]])
        F = parse_form("-8*x1^4 + 8*x2^4 - 8*x3^4 + x4*x5^3 - x6*x7^3")
        assert [[sign for _, sign, _ in cls] for cls in block_classes(F)[1]] == [[1, -1, 1], [1, -1]]

    def test_label_splits_a_class(self):
        F8 = parse_form("x1^4 + x2^4 + x3^4 + x4^4 - x5^4 - x6^4 - x7^4 - x8^4")
        (one,) = block_classes(F8)[1]
        assert [(vars_, sign) for vars_, sign, _ in one] == [((i,), 1 if i < 4 else -1) for i in range(8)]
        even, odd = block_classes(F8, label=lambda vars_: vars_[0] % 2)[1]
        assert [(vars_, sign) for vars_, sign, _ in even] == [((0,), 1), ((2,), 1), ((4,), -1), ((6,), -1)]
        assert [(vars_, sign) for vars_, sign, _ in odd] == [((1,), 1), ((3,), 1), ((5,), -1), ((7,), -1)]

    def test_zero_blocks_and_the_constant(self):
        zero = IntPolynomial(1, {})
        assert block_classes(parse_form("x1^4 + 7", n=3)) == (7, [[((0,), 1, parse_form("x1^4"))],
                                                                  [((1,), 1, zero), ((2,), 1, zero)]])
        assert block_classes(IntPolynomial(1, {(0,): -4})) == (-4, [[((0,), 1, zero)]])
        assert block_classes(IntPolynomial(0, {(): 3})) == (3, [])
