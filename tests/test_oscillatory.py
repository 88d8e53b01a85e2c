import cmath
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quartic import oscillatory
from quartic.errors import BudgetExceeded, DimensionMismatch, PreconditionViolated, ToleranceNotMet
from quartic.forms import CubicData, _grid_points, blocks, grid_values, parse_form
from quartic.oscillatory import (
    QuadratureConfig,
    _direct_gamma_table,
    _grad_bound,
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
    for _ in range(cfg.max_refinements):
        cur = _simpson_1d(fn(np.linspace(a, b, N + 1)), (b - a) / N)
        if prev is not None and abs(cur - prev) <= cfg.tolerance:
            return cur
        prev = cur
        N *= 2
        if N > cfg.max_points_1d:
            raise ToleranceNotMet(f"1-D quadrature did not reach {cfg.tolerance}")
    raise ToleranceNotMet("refinement limit reached")


def _osc_integral_oracle(f, w, z, beta, cfg=QuadratureConfig()):
    """I(z; beta) one z at a time: a product of 1-D integrals with F evaluated node by node, or a tensor grid.

    The reference the batched gamma table is checked against.
    """
    n = f.n
    box_phys = w.support_box()
    factors = w.separable_factors()
    const, parts = blocks(f)
    if factors is not None and all(len(vars_) == 1 for vars_, _ in parts):
        total = complex(np.exp(2j * np.pi * z * const))
        for (i,), fi in parts:
            lo, hi = box_phys[i]
            cycles = (abs(z) * _grad_bound(fi, [(lo, hi)])[0] + abs(beta[i])) * (hi - lo)

            def fn(xs, i=i, fi=fi):
                ph = z * np.array([float(fi.evaluate([float(t)])) for t in xs]) - beta[i] * xs
                return factors[i](xs) * np.exp(2j * np.pi * ph)

            total *= _integrate_1d_oracle(fn, lo, hi, cfg, cycles)
        return total
    gb = _grad_bound(f, box_phys)
    axes_pts = [
        _start_points((abs(z) * gb[i] + abs(beta[i])) * (hi - lo), cfg) for i, (lo, hi) in enumerate(box_phys)
    ]
    prev = None
    for _ in range(cfg.max_refinements):
        if math.prod(N + 1 for N in axes_pts) > cfg.max_cells:
            raise ToleranceNotMet("tensor grid exceeded the cell budget before converging")
        grids = [np.linspace(lo, hi, N + 1) for (lo, hi), N in zip(box_phys, axes_pts)]
        pts = _grid_points(grids)
        fv = grid_values(f, grids).ravel()
        cur = (
            w.eval_many(pts) * np.exp(2j * np.pi * (z * fv - pts @ np.asarray(beta, dtype=float)))
        ).reshape([N + 1 for N in axes_pts])
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


class TestGenSum:
    def test_alpha0_positive(self):
        w = bump((0.0,), 0.5)
        s = gen_sum(parse_form("x1^4"), w, 20, a=1, q=1)
        assert s.imag == 0 and s.real > 0

    def test_integer_alpha_periodicity(self):
        w = bump((0.0,), 0.5)
        F = parse_form("x1^4")
        s0 = gen_sum(F, w, 20, a=1, q=1)
        s1 = gen_sum(F, w, 20, alpha=1.0)
        s13 = gen_sum(F, w, 20, alpha=Fraction(1, 3))
        s43 = gen_sum(F, w, 20, alpha=Fraction(4, 3))
        assert abs(s1 - s0) < 1e-12
        assert abs(s13 - s43) < 1e-12

    def test_naive_oracle(self):
        rng = random.Random(1)
        F = random_form(rng, 2, 4, bound=3)
        w = bump((0.0, 0.0), 0.4)
        P = 20
        got = gen_sum(F, w, P, alpha=Fraction(1, 3))
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
            al = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            assert abs(gen_sum(F, w, 15, alpha=al)) <= s0 + 1e-12


class TestOscIntegral:
    def test_product_of_1d(self):
        w = separable_bump((0.0, 0.0), 0.5)
        val = osc_integral(parse_form("x1^3 + x2^3"), w, 0.0, [0.0, 0.0])
        K1 = integrate_1d(lambda t: gamma_bump(t), -1, 1)
        assert abs(val - (0.5 * K1) ** 2) < 1e-8

    def test_tiny_support(self):
        w = bump((0.37,), 0.01)
        val = osc_integral(parse_form("x1^3"), w, 0.0, [3.0])
        assert abs(val) < 0.01

    def test_refinement_oracle(self):
        w = bump((0.0,), 1.0)
        v1 = osc_integral(parse_form("x1^3"), w, 0.1, [0.0])
        v2 = osc_integral(
            parse_form("x1^3"), w, 0.1, [0.0], cfg=QuadratureConfig(base_points=512)
        )
        assert abs(v1 - v2) < 1e-6

    def test_linearity_in_weight(self):
        F = parse_form("x1^3")
        w1 = bump((0.0,), 0.5)
        w2 = bump((0.2,), 0.3)
        z, beta = 0.3, [0.7]
        a1 = osc_integral(F, w1, z, beta)
        a2 = osc_integral(F, w2, z, beta)

        def fn(xs):
            ph = np.exp(2j * np.pi * (z * xs ** 3 - beta[0] * xs))
            return (w1.eval_many(xs[:, None]) + w2.eval_many(xs[:, None])) * ph

        both = integrate_1d(fn, -1.0, 1.0, cycles=2)
        assert abs(both - (a1 + a2)) <= 1e-6

    def test_fourier_decay_at_zero_z(self):
        # I(0; beta) is the Fourier transform of the weight: decreasing along a ray
        w = bump((0.0,), 0.5)
        vals = [abs(osc_integral(parse_form("x1^3"), w, 0.0, [b])) for b in (0.0, 2.0, 6.0, 12.0)]
        assert vals == sorted(vals, reverse=True)


class TestSingularIntegral:
    def test_R0(self):
        w = bump((0.5,), 0.2)
        assert singular_integral(parse_form("x1^4"), w, 0) == 0.0

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

    def test_sine_kernel_agrees(self):
        F = parse_form("x1^4 - x2^4")
        w = separable_bump((0.5, 0.5), 0.2)
        a = singular_integral(F, w, 8, method="factored")
        c = singular_integral_sine(F, w, 8)
        assert abs(a - c) <= 1e-4 * max(1.0, abs(a))


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
    ]

    @pytest.mark.parametrize("src, w", FORMS)
    def test_matches_per_gamma_osc_integral(self, src, w):
        F = parse_form(src)
        gammas = np.array([0.0, 1e-3, -1e-3, self.R, -self.R])
        table = _direct_gamma_table(F, w, gammas, self.CFG)
        per_gamma = [_osc_integral_oracle(F, w, float(g), [0.0] * F.n, cfg=self.CFG) for g in gammas]
        scale = abs(per_gamma[0])  # the mass of w
        for got, want in zip(table, per_gamma):
            assert abs(got - want) <= 1e-12 * scale

    @pytest.mark.parametrize("z", [0.0, 1e-3, -2.5, 4.0])
    @pytest.mark.parametrize(
        "beta", [lambda n: [0.7] * n, lambda n: [-3.0] + [0.25] * (n - 1), lambda n: [0.0] * (n - 1) + [5.0]],
        ids=["all-0.7", "-3-then-0.25", "last-5"],
    )
    @pytest.mark.parametrize("src, w", FORMS)
    def test_twisted_osc_integral_matches_oracle(self, src, w, beta, z):
        F = parse_form(src)
        got = osc_integral(F, w, z, beta(F.n), cfg=self.CFG)
        want = _osc_integral_oracle(F, w, z, beta(F.n), cfg=self.CFG)
        mass = abs(_osc_integral_oracle(F, w, 0.0, [0.0] * F.n, cfg=self.CFG))
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

    @pytest.mark.parametrize(
        "cfg", [QuadratureConfig(max_cells=100), QuadratureConfig(max_refinements=1)], ids=["cells", "refinements"]
    )
    def test_tolerance_not_met(self, cfg):
        with pytest.raises(ToleranceNotMet):
            _direct_gamma_table(parse_form("x1^4 - x2^4"), bump((0.5, 0.5), 0.2), np.array([0.0, 2.0]), cfg)

    def test_n4_tensor_grid_is_refused(self):
        F = parse_form("x1^4 + x2^4 - x3^4 - x4^4")
        with pytest.raises(BudgetExceeded):
            singular_integral(F, bump((0.5,) * 4, 0.2), 2, method="direct")


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
    def test_tolerance_not_met(self):
        from quartic.errors import ToleranceNotMet

        cfg = QuadratureConfig(tolerance=1e-18, base_points=8, max_points_1d=32, max_refinements=2)
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
