import cmath
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic import oscillatory, verify
from quartic.errors import BudgetExceeded, DimensionMismatch, PreconditionViolated, ToleranceNotMet
from quartic.forms import CubicData, _abs_bound, _grid_points, blocks, grid_values, parse_form
from quartic.oscillatory import (
    QuadratureConfig,
    _by_abs_gamma,
    _direct_gamma_table,
    _grad_bound,
    _phase_sums,
    _phase_table,
    _simpson_1d,
    _simpson_weights,
    _start_points,
    gen_sum,
    integrate_1d,
    major_arc_model,
    osc_integral,
    poisson_check,
    singular_integral,
    singular_integral_sine,
)
from quartic.expsums import _twisted_table, twisted_sum
from quartic.verify import random_cubic_data, random_form
from quartic import weights
from quartic.weights import (
    WeightSpec,
    bump,
    gamma_bump,
    lattice_ranges,
    separable_bump,
    shifted_product,
)


def _integrate_1d_oracle(fn, a, b, cfg, cycles):
    """Adaptive composite Simpson on [a, b], doubling until two grids agree within cfg.tolerance."""
    N = _start_points(cycles, cfg)
    prev = None
    for _ in range(oscillatory.MAX_REFINEMENTS):
        cur = _simpson_1d(fn(np.linspace(a, b, N + 1)), (b - a) / N)
        if prev is not None and abs(cur - prev) <= cfg.tolerance:
            return cur
        prev = cur
        N *= 2
        if N > cfg.max_points_1d:
            raise ToleranceNotMet(f"1-D quadrature did not reach {cfg.tolerance}")
    raise ToleranceNotMet("refinement limit reached")


def _osc_integral_oracle(f, w, z, cfg=QuadratureConfig()):
    """I(z) one z at a time: a product over the blocks of f for a separable w, else a 1-D integral
    with f evaluated node by node, or a tensor grid.

    The reference the batched gamma table is checked against.
    """
    n = f.n
    box_phys = w.support_box()
    const, parts = blocks(f)
    if w.separable_factors() is not None and len(parts) > 1:
        total = complex(np.exp(2j * np.pi * z * const))
        for vars_, G in parts:
            wb = separable_bump([w.x0[i] for i in vars_], w.rho) if w.x0 else WeightSpec(w.kind, len(vars_))
            total *= _osc_integral_oracle(G, wb, z, cfg)
        return total
    if n == 1:
        [(lo, hi)] = box_phys
        cycles = abs(z) * _grad_bound(f, box_phys)[0] * (hi - lo)

        def fn(xs):
            ph = z * np.array([float(f.evaluate([float(t)])) for t in xs])
            return w.eval_many(xs[:, None]) * np.exp(2j * np.pi * ph)

        return complex(_integrate_1d_oracle(fn, lo, hi, cfg, cycles))
    gb = _grad_bound(f, box_phys)
    axes_pts = [
        _start_points(abs(z) * gb[i] * (hi - lo), cfg) for i, (lo, hi) in enumerate(box_phys)
    ]
    prev = None
    for _ in range(oscillatory.MAX_REFINEMENTS):
        if math.prod(N + 1 for N in axes_pts) > cfg.max_cells:
            raise ToleranceNotMet("tensor grid exceeded the cell budget before converging")
        grids = [np.linspace(lo, hi, N + 1) for (lo, hi), N in zip(box_phys, axes_pts)]
        pts = _grid_points(grids)
        fv = grid_values(f, grids).ravel()
        cur = (w.eval_many(pts) * np.exp(2j * np.pi * z * fv)).reshape([N + 1 for N in axes_pts])
        for ax in range(n - 1, -1, -1):
            wts = _simpson_weights(*box_phys[ax], axes_pts[ax])
            cur = np.tensordot(cur, wts, axes=([ax], [0])) if cur.ndim > 1 else cur @ wts
        cur = complex(cur)
        if prev is not None and abs(cur - prev) <= cfg.tolerance:
            return cur
        prev = cur
        axes_pts = [2 * N for N in axes_pts]
    raise ToleranceNotMet("tensor quadrature refinement limit reached")


class TestWeights:
    def test_gamma_values(self):
        assert abs(gamma_bump(0.0) - math.exp(-1)) < 1e-15
        assert gamma_bump(1.0) == 0.0
        assert gamma_bump(-2.0) == 0.0

    def test_bump_center(self):
        w = bump((0.3, 0.4), 0.2)
        assert abs(w((0.3, 0.4)) - math.exp(-1)) < 1e-15

    def test_zero_outside_support(self):
        w = bump((0.0,), 0.5)
        assert w((0.51,)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bump((0.0,), 0.5)((0.1, 0.2))

    def test_shifted_product_pointwise(self):
        base = bump((0.0, 0.0), 0.5)
        h, P = (3, -2), 10
        w = shifted_product(base, h, P)
        rng = random.Random(0)
        for _ in range(50):
            x = [rng.uniform(-0.8, 0.8) for _ in range(2)]
            expect = base([x[0] + 0.3, x[1] - 0.2]) * base(x)
            assert abs(w(x) - expect) < 1e-14

    @pytest.mark.parametrize("kwargs", [dict(kind="bump", n=1, x0=(0.0,), rho=0.0), dict(kind="ball", n=1)])
    def test_bad_spec_is_typed(self, kwargs):
        with pytest.raises(PreconditionViolated):
            WeightSpec(**kwargs)

    def test_separable_smoothness_scale(self):
        w = separable_bump((0.1, 0.2), 0.3)
        assert abs(w((0.1, 0.2)) - math.exp(-2)) < 1e-15

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    def test_separable_kinds_are_the_per_kind_formulas_byte_for_byte(self, n):
        # the product of the separable factors against each kind's own formula, boundary points included
        rng = np.random.default_rng(n)
        X = rng.uniform(-1.2, 1.2, size=(300, n))
        X[:40] = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(40, n))
        x0, h = tuple(rng.uniform(-0.3, 0.3, n)), tuple(int(t) for t in rng.integers(-2, 3, n))

        def formula(w, X):
            if w.kind == "shifted_product":
                return formula(w.base, X + np.asarray(w.h, dtype=float) / w.P) * formula(w.base, X)
            if w.kind == "box":
                return (np.abs(X) <= 1.0).all(axis=1).astype(float)
            if w.kind == "unit_box":
                return ((X > 0.0) & (X <= 1.0)).all(axis=1).astype(float)
            out = np.ones(X.shape[0])
            for i in range(w.n):
                out *= gamma_bump((X[:, i] - w.x0[i]) / w.rho)
            return out

        for base in (weights.box(n), weights.unit_box(n), separable_bump(x0, 0.7)):
            for w in (base, shifted_product(base, h, 5), shifted_product(shifted_product(base, h, 5), h, 7)):
                assert w.eval_many(X).tobytes() == formula(w, X).tobytes()


COORDS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
AXES = st.one_of(  # a few loose points, or a run of seeded uniform points whose offsets round unevenly
    st.lists(COORDS, max_size=6).map(np.array),
    st.builds(lambda seed, k: np.sort(np.random.default_rng(seed).uniform(-2.0, 2.0, k)), st.integers(0, 2 ** 32 - 1),
              st.integers(0, 12)),
)


@st.composite
def weights_on_grids(draw):
    """(w, axes): every weight kind at n = 1..3 on axes of 0 to 12 points, in and out of the support."""
    n = draw(st.integers(1, 3))
    center = tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    rho = draw(st.floats(0.05, 1.0))
    kinds = [bump(center, rho), separable_bump(center, rho), weights.box(n), weights.unit_box(n)]
    w = draw(st.sampled_from(kinds))
    if draw(st.booleans()):
        w = shifted_product(w, draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), draw(st.integers(1, 9)))
    axes = [draw(AXES) for _ in range(n)]
    return w, axes


class TestEvalGrid:
    @settings(deadline=None, max_examples=300)
    @given(weights_on_grids())
    def test_is_eval_many_on_the_stacked_points_bit_for_bit(self, case):
        w, axes = case
        got = w.eval_grid(axes)
        want = w.eval_many(_grid_points(axes)).reshape([len(ax) for ax in axes])
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_dense_grids_across_the_supports(self):
        # 15^3 uniform points over every support: offsets that round differently in another summation order
        rng = np.random.default_rng(7)
        c = tuple(rng.uniform(-0.3, 0.3, 3))
        for base in (bump(c, 0.7), separable_bump(c, 0.7), weights.box(3), weights.unit_box(3)):
            for w in (base, shifted_product(base, (5, -3, 2), 7)):
                axes = [np.sort(rng.uniform(-1.2, 1.2, 15)) for _ in range(3)]
                got, want = w.eval_grid(axes), w.eval_many(_grid_points(axes)).reshape(15, 15, 15)
                assert got.any() and got.tobytes() == want.tobytes()

    def test_integer_axes_and_dimension_mismatch(self):
        w = separable_bump((0.0, 0.0), 1.0)
        axes = [np.arange(-3, 4), np.arange(-2, 1)]
        assert w.eval_grid([ax / 4 for ax in axes]).tobytes() == w.eval_many(_grid_points(axes) / 4).tobytes()
        with pytest.raises(DimensionMismatch):
            w.eval_grid(axes[:1])

    def test_no_tensor_grid_stacks_its_points(self, monkeypatch):
        # each of these evaluates w on a tensor grid axis by axis
        def refuse(axes):
            raise AssertionError("stacked grid points")

        monkeypatch.setattr(verify, "_grid_points", refuse)
        F, w = parse_form("x1^4 - x2^4"), separable_bump((0.5, 0.5), 0.2)
        assert singular_integral_sine(F, w, 8) > 0
        assert singular_integral(F, bump((0.5, 0.5), 0.2), 2, method="direct") > 0
        assert osc_integral(F, bump((0.5, 0.5), 0.2), 1.5) != 0
        assert gen_sum(F, w, 20, a=1, q=3) != 0
        assert poisson_check(parse_form("x1^3 + x2"), bump((0.0, 0.0), 0.3), 30, 1, 3, 0.0).relative <= 1e-3
        assert verify.vdc_identity(F, bump((0.0, 0.0), 1.0), 12, 3, Fraction(1, 7))["pair_counts_ok"]


class TestGenSum:
    def test_alpha0_positive(self):
        w = bump((0.0,), 0.5)
        s = gen_sum(parse_form("x1^4"), w, 20, a=1, q=1)
        assert s.imag == 0 and s.real > 0

    def test_integer_alpha_periodicity(self):
        w = bump((0.0,), 0.5)
        F = parse_form("x1^4")
        s0 = gen_sum(F, w, 20, a=1, q=1)
        s1 = gen_sum(F, w, 20, a=1, q=1, z=1.0)
        s13 = gen_sum(F, w, 20, a=1, q=3)
        s43 = gen_sum(F, w, 20, a=4, q=3)
        assert abs(s1 - s0) < 1e-12
        assert abs(s13 - s43) < 1e-12

    def test_naive_oracle(self):
        rng = random.Random(1)
        F = random_form(rng, 2, 4, bound=3)
        w = bump((0.0, 0.0), 0.4)
        P = 20
        got = gen_sum(F, w, P, a=1, q=3)
        naive = 0j
        for x1 in range(-8, 9):
            for x2 in range(-8, 9):
                wt = w((x1 / P, x2 / P))
                if wt:
                    naive += wt * cmath.exp(2j * cmath.pi * F.evaluate([x1, x2]) / 3)
        assert abs(got - naive) <= 1e-9 * max(1.0, abs(naive))

    def test_triangle_bound(self):
        rng = random.Random(2)
        F = random_form(rng, 2, 4, bound=3)
        w = bump((0.0, 0.0), 0.4)
        s0 = abs(gen_sum(F, w, 15, a=1, q=1))
        for _ in range(5):
            u, v = rng.randint(1, 30), rng.randint(1, 30)
            assert abs(gen_sum(F, w, 15, a=u, q=v)) <= s0 + 1e-12

    def test_a_z_whose_phases_overflow_is_refused_before_any_pass(self, monkeypatch):
        F, w, passes = parse_form("x1^4"), bump((0.0,), 1.0), []
        monkeypatch.setattr(oscillatory, "grid_values", lambda *a, **kw: passes.append(a) or grid_values(*a, **kw))
        for z in (1e308, -1e308, math.inf):  # z * 8^4 is past the largest float: the phases were NaN
            with pytest.raises(BudgetExceeded):
                gen_sum(F, w, 8, 1, 1, z=z)
        assert passes == []
        assert math.isfinite(abs(gen_sum(F, w, 8, 1, 1, z=1e300)))  # 8^4 * 1e300 is still a float


class TestOscIntegral:
    def test_product_of_1d(self):
        w = separable_bump((0.0, 0.0), 0.5)
        val = osc_integral(parse_form("x1^3 + x2^3"), w, 0.0)
        K1 = integrate_1d(lambda t: gamma_bump(t), -1, 1)
        assert abs(val - (0.5 * K1) ** 2) < 1e-8

    def test_tiny_support(self):
        w = bump((0.37,), 0.01)
        val = osc_integral(parse_form("x1^3"), w, 0.0)
        assert 0 < abs(val) < 0.01

    def test_refinement_oracle(self):
        w = bump((0.0,), 1.0)
        v1 = osc_integral(parse_form("x1^3"), w, 0.1)
        v2 = osc_integral(parse_form("x1^3"), w, 0.1, cfg=QuadratureConfig(base_points=512))
        assert abs(v1 - v2) < 1e-6

    def test_linearity_in_weight(self):
        F = parse_form("x1^3")
        w1 = bump((0.0,), 0.5)
        w2 = bump((0.2,), 0.3)
        z = 0.3
        a1 = osc_integral(F, w1, z)
        a2 = osc_integral(F, w2, z)

        def fn(xs):
            ph = np.exp(2j * np.pi * z * xs ** 3)
            return (w1.eval_many(xs[:, None]) + w2.eval_many(xs[:, None])) * ph

        both = integrate_1d(fn, -1.0, 1.0, cycles=2)
        assert abs(both - (a1 + a2)) <= 1e-6

    def test_weight_of_another_dimension_is_refused(self):
        with pytest.raises(DimensionMismatch):
            osc_integral(parse_form("x1^3 + x2^3"), bump((0.1, 0.2, 0.3), 0.5), 0.1)


class TestSingularIntegral:
    def test_R0(self):
        w = bump((0.5,), 0.2)
        assert singular_integral(parse_form("x1^4"), w, 0) == 0.0

    @pytest.mark.parametrize("method", ["auto", "direct", "factored", "sine"])
    def test_weight_of_another_dimension_is_refused(self, method):
        # the direct table used to die with an IndexError
        w = bump((0.1, 0.2, 0.3), 0.5) if method != "factored" else separable_bump((0.1, 0.2, 0.3), 0.5)
        with pytest.raises(DimensionMismatch):
            singular_integral(parse_form("x1^4 - x2^4"), w, 2, method=method)

    @pytest.mark.parametrize(
        "w, method",
        [(separable_bump((0.5, 0.5), 0.2), "auto"), (bump((0.5, 0.5), 0.2), "direct")],
        ids=["factored", "direct"],
    )
    def test_negative_R_is_refused(self, w, method):
        # unchecked, R = -1 would give -J(1) on the factored path and 0.0 on the direct one
        with pytest.raises(PreconditionViolated):
            singular_integral(parse_form("x1^4 - x2^4"), w, -1, method=method)

    def test_positive_form_decays(self):
        w = bump((0.5, 0.5), 0.2)
        F = parse_form("x1^4 + x2^4")
        J50 = singular_integral(F, w, 50, method="direct")
        J1 = singular_integral(F, w, 1, method="direct")
        assert abs(J50) <= 0.1 * abs(J1)

    def test_stabilizes_at_nonsingular_zero(self):
        # center the weight on a zero of F = x1^4 - x2^4
        F = parse_form("x1^4 - x2^4")
        w = separable_bump((0.5, 0.5), 0.2)
        J = {R: singular_integral(F, w, R) for R in (8, 16, 32, 64)}
        assert abs(J[64] - J[32]) < abs(J[16] - J[8])
        assert J[64] > 0

    def test_factored_matches_direct(self):
        F = parse_form("x1^4 - x2^4")
        w = separable_bump((0.5, 0.5), 0.2)
        a = singular_integral(F, w, 10, method="factored")
        b = singular_integral(F, w, 10, method="direct")
        assert abs(a - b) <= 1e-5 * max(1.0, abs(a))

    def test_sine_kernel_checks_its_first_grid(self, monkeypatch):
        # R = 50 starts on a 105^2 grid: past 10^4 cells, it is refused before any grid is built
        built = []
        values = oscillatory.grid_values
        monkeypatch.setattr(oscillatory, "grid_values", lambda F, axes: built.append(len(axes[0])) or values(F, axes))
        F, w = parse_form("x1^4 - x2^4"), separable_bump((0.5, 0.5), 0.2)
        with pytest.raises(ToleranceNotMet):
            singular_integral_sine(F, w, 50, QuadratureConfig(max_cells=10 ** 4))
        assert built == []
        singular_integral_sine(F, w, 50, QuadratureConfig(max_cells=10 ** 6))
        assert built[0] == 105

    def test_factored_gamma_nodes_are_capped_by_the_budget(self):
        # 257-point axis tables fit within(300); the 512 gamma nodes the rule starts on do not
        F, w = parse_form("x1^4 - x2^4"), separable_bump((0.5, 0.5), 0.2)
        with pytest.raises(ToleranceNotMet):
            singular_integral(F, w, 50, QuadratureConfig().within(300), method="factored")

    def test_sine_kernel_agrees(self):
        F = parse_form("x1^4 - x2^4")
        w = separable_bump((0.5, 0.5), 0.2)
        a = singular_integral(F, w, 8, method="factored")
        c = singular_integral_sine(F, w, 8)
        assert abs(a - c) <= 1e-4 * max(1.0, abs(a))


def _sine_kernel_whole_grids(F, w, R, cfg):
    """The sine kernel before its doublings kept their nodes: F and np.sinc on every cell of every grid."""
    n = F.n
    box_phys = w.support_box()
    N = _start_points(R * _abs_bound(F.coeffs, box_phys), cfg)
    prev = None
    for _ in range(oscillatory.MAX_REFINEMENTS):
        if (N + 1) ** n > cfg.max_cells:
            raise ToleranceNotMet("sine-kernel grid exceeded cell budget")
        grids = [np.linspace(lo, hi, N + 1) for lo, hi in box_phys]
        kernel = 2.0 * R * np.sinc(2.0 * R * grid_values(F, grids))
        cur = w.eval_grid(grids) * kernel
        for ax in range(n - 1, -1, -1):
            wts = _simpson_weights(*box_phys[ax], N)
            cur = np.tensordot(cur, wts, axes=([ax], [0])) if np.ndim(cur) > 1 else cur @ wts
        cur = float(cur)
        if prev is not None and abs(cur - prev) <= max(cfg.tolerance, 1e-9 * abs(cur)):
            return cur
        prev = cur
        N *= 2
    raise ToleranceNotMet("sine-kernel refinement limit reached")


SINE_DOUBLINGS = [  # each form is 0 at some node of every grid: x = 0, or a diagonal of equal axes
    ("x1^4 - 2*x1^2", weights.box(1), 3.0, QuadratureConfig(base_points=8, tolerance=1e-9)),
    ("x1^4 - x2^4", separable_bump((0.5, 0.5), 0.2), 8.0, QuadratureConfig(base_points=8, tolerance=1e-8)),
    ("x1^4 + x2^4 - 2*x3^4", bump((0.0, 0.0, 0.0), 0.5), 1.0, QuadratureConfig(base_points=4, tolerance=1e-5)),
    ("x1^4 - x1*x2^3 + x3^3*x2", separable_bump((0.1, -0.2, 0.3), 0.4), 2.0,
     QuadratureConfig(base_points=4, tolerance=1e-6)),
]
SINE_IDS = ["n1-box", "n2-separable", "n3-bump", "n3-separable"]


class TestSineDoublings:
    @pytest.mark.parametrize("text, w, R, cfg", SINE_DOUBLINGS, ids=SINE_IDS)
    def test_matches_whole_grids_bit_for_bit(self, text, w, R, cfg):
        F = parse_form(text)
        assert repr(singular_integral_sine(F, w, R, cfg)) == repr(_sine_kernel_whole_grids(F, w, R, cfg))

    @pytest.mark.parametrize("text, w, R, cfg", SINE_DOUBLINGS[:3], ids=SINE_IDS[:3])
    def test_a_zero_node_is_in_every_grid(self, text, w, R, cfg):
        F = parse_form(text)
        N = _start_points(R * _abs_bound(F.coeffs, w.support_box()), cfg)
        for k in range(3):
            grids = [np.linspace(lo, hi, N * 2 ** k + 1) for lo, hi in w.support_box()]
            assert (grid_values(F, grids) == 0).any()

    @pytest.mark.parametrize("text, w, R, cfg", SINE_DOUBLINGS, ids=SINE_IDS)
    def test_each_doubling_evaluates_only_its_new_cells(self, monkeypatch, text, w, R, cfg):
        cells = []
        values = oscillatory.grid_values
        monkeypatch.setattr(
            oscillatory, "grid_values", lambda F, axes: cells.append(math.prod(map(len, axes))) or values(F, axes)
        )
        F = parse_form(text)
        singular_integral_sine(F, w, R, cfg)
        n, N = F.n, _start_points(R * _abs_bound(F.coeffs, w.support_box()), cfg)
        assert cells[0] == (N + 1) ** n and (len(cells) - 1) % n == 0 and len(cells) > 1
        for k in range(1, len(cells), n):  # one call per axis: even indices before it, odd at it
            assert sum(cells[k:k + n]) == (2 * N + 1) ** n - (N + 1) ** n
            N *= 2

    def test_old_nodes_are_every_second_new_node(self):
        rng = np.random.default_rng(25)
        for _ in range(2000):
            lo, hi = sorted(rng.uniform(-3, 3, 2))
            N = int(rng.integers(1, 2000))
            assert np.linspace(lo, hi, 2 * N + 1)[::2].tobytes() == np.linspace(lo, hi, N + 1).tobytes()


class TestByAbsGamma:
    def test_computes_only_new_abs_gammas(self):
        calls = []
        table = _by_abs_gamma(lambda g: calls.append(g.tolist()) or g * (1 + 1j))
        assert np.array_equal(table(np.array([-2.0, 1.0, 2.0])), [2 - 2j, 1 + 1j, 2 + 2j])  # conj for gamma < 0
        assert np.array_equal(table(np.array([1.0, -1.0])), [1 + 1j, 1 - 1j])
        assert calls == [[2.0, 1.0]]  # the second call holds no new |gamma|
        # new |gamma| below, between and above those held, one of them twice
        assert np.array_equal(table(np.array([3.0, -2.0, 0.0, -3.0, 1.5])), [3 + 3j, 2 - 2j, 0, 3 - 3j, 1.5 + 1.5j])
        assert calls == [[2.0, 1.0], [3.0, 0.0, 1.5]]  # in first-appearance order

    @pytest.mark.parametrize(
        "text, center, R, tables",
        [("x1^4 - x2^4", (0.5, 0.5), 200, 2),
         ("x1^4 + x2^4 + x3^4 + x4^4 - x5^4 - x6^4 - x7^4 - x8^4", (0.3, 0.4) * 4, 20, 4)],
        ids=["x1^4-x2^4", "F8"],
    )
    def test_factored_J_builds_phase_tables_for_new_gammas_only(self, monkeypatch, text, center, R, tables):
        # the shared tables are called once per block and gamma rule; a call with no new |gamma| builds nothing
        built = []
        phase_table = oscillatory._phase_table
        monkeypatch.setattr(oscillatory, "_phase_table", lambda g, fv: built.append(len(g)) or phase_table(g, fv))
        singular_integral(parse_form(text), separable_bump(center, 0.2), R)
        assert len(built) == tables and all(built)

    def test_a_phase_table_is_built_in_passes_of_about_2_20_cells(self, monkeypatch):
        # x1^4 on [-1, 1] at R = 200: 6405 nodes a row, so 300 |gamma| are 1.9M cells in one piece
        calls = []
        phase_table = oscillatory._phase_table
        monkeypatch.setattr(oscillatory, "_phase_table", lambda g, fv: calls.append((g, len(fv))) or phase_table(g, fv))
        F, w, gammas = parse_form("x1^4"), separable_bump((0.0,), 1.0), np.linspace(0.0, 200.0, 300)
        [(_, table)] = oscillatory._factored_axes(F, w, 200, QuadratureConfig())[1]
        got = table(gammas)
        assert [(len(g), cols) for g, cols in calls] == [(163, 6405), (137, 6405)]  # 163 = 2^20 // 6405 rows a pass
        assert np.array_equal(np.concatenate([g for g, _ in calls]), gammas)
        [(_, one_row)] = oscillatory._factored_axes(F, w, 200, QuadratureConfig())[1]
        want = np.concatenate([one_row(gammas[k:k + 1]) for k in range(len(gammas))])
        assert np.abs(got - want).max() <= 1e-12 * abs(want[0])


class TestDirectGammaTable:
    CFG = QuadratureConfig(tolerance=1e-6, base_points=16)
    R = 4.0

    FORMS = [
        ("x1^4", bump((0.3,), 0.5)),
        ("x1^4", separable_bump((0.3,), 0.5)),
        ("x1^4 - x2^4", bump((0.5, 0.5), 0.2)),
        ("x1^4 - x2^4 + 1", separable_bump((0.5, 0.5), 0.2)),
        ("x1^4 + x1*x2^3", separable_bump((0.5, 0.5), 0.2)),
        ("x1^4 + x2^4 - x3^4", separable_bump((0.5, 0.5, 0.5), 0.3)),
        ("x1^2*x2*x3 + x3^4", bump((0.2, 0.2, 0.2), 0.2)),
        ("x1^4 + x1*x2^3 - x3^4", separable_bump((0.5, 0.5, 0.5), 0.25)),
        ("x1^4 + x1*x2^3 - x3^4 + 2*x3 - 1", separable_bump((0.5, 0.5, 0.5), 0.25)),
    ]

    @pytest.mark.parametrize("src, w", FORMS)
    def test_matches_per_gamma_osc_integral(self, src, w):
        F = parse_form(src)
        gammas = np.array([0.0, 1e-3, -1e-3, self.R, -self.R])
        table = _direct_gamma_table(F, w, gammas, self.CFG)
        per_gamma = [_osc_integral_oracle(F, w, float(g), cfg=self.CFG) for g in gammas]
        scale = abs(per_gamma[0])  # the mass of w
        for got, want in zip(table, per_gamma):
            assert abs(got - want) <= 1e-12 * scale

    @pytest.mark.parametrize("z", [0.0, 1e-3, -2.5, 4.0])
    @pytest.mark.parametrize("base", [8, 16, 17], ids=["start-8", "start-16", "start-17-made-even"])
    @pytest.mark.parametrize("src, w", FORMS)
    def test_osc_integral_matches_oracle(self, src, w, base, z):
        # the start grid sets the path of refinements; osc_integral and the oracle walk the same one
        F, cfg = parse_form(src), replace(self.CFG, base_points=base)
        got = osc_integral(F, w, z, cfg=cfg)
        want = _osc_integral_oracle(F, w, z, cfg=cfg)
        mass = abs(_osc_integral_oracle(F, w, 0.0, cfg=cfg))
        assert abs(got - want) <= 1e-12 * mass

    @pytest.mark.parametrize("R", [1, 2, 10])
    def test_direct_J_matches_sine_kernel(self, R):
        F = parse_form("x1^4 - x2^4")
        w = bump((0.5, 0.5), 0.2)
        direct = singular_integral(F, w, R, method="direct")
        assert abs(direct - singular_integral_sine(F, w, R)) <= 2 * R * QuadratureConfig().tolerance

    def test_each_gamma_is_computed_once(self, monkeypatch):
        seen = []

        def recording(F, w, gammas, cfg):
            seen.extend(gammas.tolist())
            return table(F, w, gammas, cfg)

        def per_gamma_call(*args, **kwargs):
            raise AssertionError("the direct path must not call osc_integral per gamma")

        table = oscillatory._direct_gamma_table
        monkeypatch.setattr(oscillatory, "_direct_gamma_table", recording)
        monkeypatch.setattr(oscillatory, "osc_integral", per_gamma_call)
        singular_integral(parse_form("x1^4 - x2^4"), bump((0.5, 0.5), 0.2), 2, method="direct")
        # only |gamma| is computed (I(-gamma) is its conjugate): 33 values on the first rule of 65 nodes
        assert min(seen) >= 0 and len(seen) == len(set(seen)) > 33  # the gamma rule doubled at least once

    @pytest.mark.parametrize("w", [bump((0.5, 0.5), 0.2), separable_bump((0.5, 0.5), 0.2)], ids=["bump", "separable"])
    def test_negative_gamma_is_the_conjugate(self, w):
        F, gammas = parse_form("x1^4 - x2^4"), np.linspace(0.0, 3.7, 9)
        table = _direct_gamma_table(F, w, gammas, self.CFG)
        assert np.array_equal(_direct_gamma_table(F, w, -gammas, self.CFG), table.conj())

    @pytest.mark.parametrize("cells, refinements", [(100, 12), (1 << 24, 1)], ids=["cells", "refinements"])
    def test_tolerance_not_met(self, cells, refinements, monkeypatch):
        monkeypatch.setattr(oscillatory, "MAX_REFINEMENTS", refinements)
        cfg = QuadratureConfig(max_cells=cells)
        with pytest.raises(ToleranceNotMet):
            _direct_gamma_table(parse_form("x1^4 - x2^4"), bump((0.5, 0.5), 0.2), np.array([0.0, 2.0]), cfg)

    def test_n4_tensor_grid_is_refused(self):
        F = parse_form("x1^4 + x2^4 - x3^4 - x4^4")
        with pytest.raises(BudgetExceeded):
            singular_integral(F, bump((0.5,) * 4, 0.2), 2, method="direct")

    def test_block_of_four_variables_is_refused(self):
        F, w = parse_form("x1*x2*x3*x4 + x5^4"), separable_bump((0.5,) * 5, 0.2)
        with pytest.raises(BudgetExceeded):
            singular_integral(F, w, 2)
        with pytest.raises(BudgetExceeded):
            osc_integral(F, w, 1.0)

    def test_block_product_up_to_n8(self):
        """A separable w over the blocks {1, 2}, {3}, {4, 5}, {6}, {7, 8}: the product of the blocks' own integrals."""
        F = parse_form("x1^4 + x1*x2^3 - x3^4 + x4^2*x5^2 - 2*x6^4 + x7*x8^3 + 3")
        centre = (0.5, 0.4, 0.6, 0.5, 0.3, 0.45, 0.55, 0.5)
        block_forms = [
            ("x1^4 + x1*x2^3", (0, 1)), ("-x1^4", (2,)), ("x1^2*x2^2", (3, 4)), ("-2*x1^4", (5,)), ("x1*x2^3", (6, 7)),
        ]
        gammas = np.array([0.0, 1e-3, -2.5, self.R])
        table = _direct_gamma_table(F, separable_bump(centre, 0.2), gammas, self.CFG)
        want = np.exp(2j * np.pi * 3 * gammas)
        for src, vars_ in block_forms:
            wb = separable_bump([centre[i] for i in vars_], 0.2)
            want = want * [osc_integral(parse_form(src), wb, float(g), cfg=self.CFG) for g in gammas]
        assert np.abs(table - want).max() <= 1e-12 * abs(want[0])

    @pytest.mark.parametrize("src", ["x1^4 + x1*x2^3 - x3^4", "x1^4 + x1*x2^3 - x3^4 + 2*x3 - 1"])
    def test_block_J_matches_sine_kernel(self, src):
        F, w, R = parse_form(src), separable_bump((0.5, 0.5, 0.5), 0.25), 1
        block = singular_integral(F, w, R)
        assert abs(block - singular_integral_sine(F, w, R)) <= 2 * R * QuadratureConfig().tolerance


class TestPoisson:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("q", [1, 2, 7, 12])
    def test_twisted_table_is_twisted_sum(self, n, q):
        g = random_cubic_data(random.Random(10 * n + q), n, bound=3).poly
        for a in [t for t in range(1, q + 1) if math.gcd(t, q) == 1][:3]:
            table = _twisted_table(g, a, q, 4_000_000)
            want = np.array([twisted_sum(g, a, q, list(v), method="direct").value for v in np.ndindex(*(q,) * n)])
            assert np.array_equal(table.ravel(), want)

    def test_twisted_table_budget_is_that_of_the_blocks(self):
        g = parse_form("x1^3 + x1*x2^2")  # 7^2 rows v of 7^2 cells y each: 7^4 table cells walked mod 7
        assert _twisted_table(g, 1, 7, 2401).shape == (7, 7)
        with pytest.raises(BudgetExceeded):
            _twisted_table(g, 1, 7, 2400)

    def test_a_refused_table_costs_no_other_pass(self, monkeypatch):
        # 120^4 table cells exceed the default budget 40,000,000: refused before either gen_sum pass or the FFT
        def no_pass(*args, **kwargs):
            raise AssertionError("gen_sum ran before the table was checked")

        monkeypatch.setattr(oscillatory, "gen_sum", no_pass)
        monkeypatch.setattr(np.fft, "fftn", no_pass)
        g = CubicData.from_poly(parse_form("x1^3 + x2^3"))
        with pytest.raises(BudgetExceeded):
            poisson_check(g, bump((0.0, 0.0), 0.3), 30, 1, 120, 0.0)

    def test_a_refused_fft_grid_costs_no_pass(self, monkeypatch):
        # v_cut = 4q = 48, so h = 1/16 and 289 nodes across the support pad to 384 a side: 147,456 cells against
        # 100,000, while the 19^2 lattice points and the 12^4 table cells fit
        def no_pass(*args, **kwargs):
            raise AssertionError("a pass ran before the FFT grid was checked")

        monkeypatch.setattr(oscillatory, "gen_sum", no_pass)
        monkeypatch.setattr(oscillatory, "_twisted_table", no_pass)
        g = CubicData.from_poly(parse_form("x1^3 + x2^3"))
        with pytest.raises(BudgetExceeded, match="^FFT grid of 147456 cells exceeds budget 100000$"):
            poisson_check(g, bump((0.0, 0.0), 0.3), 30, 1, 12, 0.0, budget=100_000)

    def test_classical_q1(self):
        g = CubicData.from_poly(parse_form("x1^3"))
        rep = poisson_check(g, bump((0.0,), 1.0), 30, 1, 1, 0.0)
        assert rep.relative <= 1e-4

    def test_x3_q3(self):
        g = CubicData.from_poly(parse_form("x1^3"))
        rep = poisson_check(g, bump((0.0,), 1.0), 30, 1, 3, 0.0, v_cut=60)
        assert rep.relative <= 1e-4

    def test_truncation_dominates(self):
        g = CubicData.from_poly(parse_form("x1^3"))
        rep = poisson_check(g, bump((0.0,), 1.0), 30, 1, 3, 0.0, v_cut=1)
        assert rep.relative > 1e-4  # reported, not an error

    def test_n2_with_z(self):
        rng = random.Random(3)
        g = random_cubic_data(rng, 2, bound=2)
        rep = poisson_check(g, bump((0.0, 0.0), 0.3), 30, 1, 7, 1 / (2 * 7 * 30))
        assert rep.relative <= 1e-3


class TestMajorArcModel:
    def test_q1_gap_shrinks(self):
        F = parse_form("x1^4 - x2^4")
        w = separable_bump((0.5, 0.5), 0.2)
        rels = []
        for P in (10, 20, 40):
            rep = major_arc_model(F, w, P, 1, 1, 0.0)
            rels.append(rep["diff"] / max(abs(rep["S"]), 1e-9))
        assert rels[2] < rels[0]
        assert rels[2] <= 4.0 / 40  # C/P with a generous constant

    def test_report_fields(self):
        rng = random.Random(4)
        F = random_form(rng, 2, 4, bound=2)
        rep = major_arc_model(F, bump((0.0, 0.0), 0.4), 20, 1, 2, 0.0)
        for key in ("S", "S_aq", "I", "model", "diff", "relative"):
            assert key in rep

    def test_precondition(self):
        F = parse_form("x1^4 - x2^4")
        with pytest.raises(PreconditionViolated):
            major_arc_model(F, separable_bump((0.5, 0.5), 0.2), 10, 1, 2, 0.1)


class TestQuadratureGuards:
    def test_tolerance_not_met(self, monkeypatch):
        from quartic.errors import ToleranceNotMet

        monkeypatch.setattr(oscillatory, "MAX_REFINEMENTS", 2)
        cfg = QuadratureConfig(tolerance=1e-18, base_points=8, max_points_1d=32)
        with pytest.raises(ToleranceNotMet):
            integrate_1d(lambda t: gamma_bump(t), -1, 1, cfg)

    def test_gen_sum_budget(self):
        from quartic.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            gen_sum(parse_form("x1^4 + x2^4"), bump((0.0, 0.0), 1.0), 10 ** 5, a=1, q=3)

    def test_simpson_needs_an_even_interval_count(self):
        assert _simpson_1d(np.ones(5), 0.25) == pytest.approx(1.0)
        with pytest.raises(PreconditionViolated):
            _simpson_1d(np.ones(4), 0.25)


J_REPRS = Path(__file__).parent / "data" / "j_reprs.jsonl"


def _oracle_weight(rec, n):
    if rec["weight"] == "separable":
        return separable_bump(rec["center"], rec["rho"])
    if rec["weight"] == "bump":
        return bump(rec["center"], rec["rho"])
    return getattr(weights, rec["weight"])(n)


@pytest.mark.parametrize(
    "rec",
    [json.loads(line) for line in J_REPRS.read_text().splitlines()],
    ids=lambda rec: f"{rec['method']}-{rec['weight']}-n{rec['form'].count('x')}-R{rec['R']}-c{rec['center'] or ''}",
)
def test_singular_integral_keeps_its_recorded_repr(rec):
    """J(R) on the factored, direct and sine paths, bit for bit as recorded before the gamma memo."""
    F = parse_form(rec["form"])
    cfg = QuadratureConfig() if rec["tolerance"] is None else QuadratureConfig(tolerance=rec["tolerance"])
    J = singular_integral(F, _oracle_weight(rec, F.n), rec["R"], cfg=cfg, method=rec["method"])
    assert repr(J) == rec["J"]


SINE_REPRS = Path(__file__).parent / "data" / "sine_reprs.jsonl"


def _spec_weight(spec, n):
    """WeightSpec from a record {"kind", ...}; a shifted product holds its base as a nested record."""
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()}
    if "base" in spec:
        fields["base"] = _spec_weight(spec["base"], n)
    return WeightSpec(n=n, **fields)


@pytest.mark.parametrize(
    "rec",
    [json.loads(line) for line in SINE_REPRS.read_text().splitlines()],
    ids=lambda rec: f"{rec['weight']['kind']}-{rec['form']}-R{rec['R']}",
)
def test_sine_kernel_keeps_its_recorded_repr(rec):
    """The sine kernel at n = 1 and n = 3 and on box and shifted-product weights, bit for bit as recorded."""
    F = parse_form(rec["form"])
    cfg = QuadratureConfig() if rec["tolerance"] is None else QuadratureConfig(tolerance=rec["tolerance"])
    assert repr(singular_integral_sine(F, _spec_weight(rec["weight"], F.n), rec["R"], cfg)) == rec["J"]


def test_phase_table_is_the_complex_exp_bit_for_bit():
    """The platform assumption the recorded factored J reprs rest on: cos + i sin of the real angle 2 pi g f is
    libm's complex exp of 2j pi g f, bit for bit, from subnormal to 1e7 angles and with products of +-0."""
    rng = np.random.default_rng(24)
    edge = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e7, 1e7]
    g = np.concatenate([10.0 ** rng.uniform(-310, 7, 500) * rng.choice([-1.0, 1.0], 500), edge])
    f = np.concatenate([10.0 ** rng.uniform(-12, 4, 300) * rng.choice([-1.0, 1.0], 300), edge])
    got, want = _phase_table(g, f), np.exp(2j * np.pi * np.outer(g, f))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _phase_sums_plain(gammas, fv, wv):
    """`_phase_sums` on the full phase matrices, in the same chunks of rows."""
    out = np.empty(len(gammas), dtype=complex)
    step = max(1, (1 << 20) // max(len(fv), 1))
    for s in range(0, len(gammas), step):
        ph = np.outer(gammas[s:s + step], fv)
        ph *= 2.0 * math.pi
        out[s:s + step] = np.cos(ph) @ wv + 1j * (np.sin(ph) @ wv)
    return out


@pytest.mark.parametrize("twisted", [False, True], ids=["real-w", "complex-w"])
@pytest.mark.parametrize(
    "distinct, negated, again, rows, shared",
    [(300, 150, 250, 1602, True), (1000, 100, 0, 1602, False), (300, 150, 250, 15, False)],
    ids=["repeats", "few-repeats", "few-rows"],
)
def test_phase_sums_take_each_abs_value_once_bit_for_bit(twisted, distinct, negated, again, rows, shared, monkeypatch):
    rng = np.random.default_rng(30)
    base = rng.uniform(-2, 2, distinct)
    fv = np.concatenate([base, -base[:negated], base[:again], [0.0, -0.0, 0.0]])  # both zeros
    rng.shuffle(fv)
    wv = rng.uniform(0.1, 1, len(fv)) * (np.exp(1j * rng.uniform(0, 6, len(fv))) if twisted else 1)
    gammas = np.concatenate([rng.uniform(-40, 40, rows - 2), [0.0, -0.0]])  # 1602 rows: two chunks
    want = _phase_sums_plain(gammas, fv, wv)
    widths, outer = [], np.outer
    monkeypatch.setattr(np, "outer", lambda a, b: widths.append(len(b)) or outer(a, b))
    got = _phase_sums(gammas, fv, wv)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert set(widths) == {distinct + 1 if shared else len(fv)}  # the distinct |fv|, zero included
