"""Weighted generating sums and oscillatory integrals.

Quadrature is tensor-product composite Simpson with oscillation-aware initial
grids (at least four points per expected cycle of the dominant phase) and
doubling until the requested tolerance is met.  `_refine_rows` is the one
doubling-and-stopping rule: `_direct_gamma_table` computes I(gamma; beta) for a
batch of gamma with it, I(z; beta) is the one-row case `osc_integral`, and
`integrate_1d` and both gamma rules of J(R) are one-row calls.  The Poisson
identity check evaluates the whole family I(z; v/q) in one batched FFT on a
uniform grid instead of one quadrature per v, which is what makes the default
truncation affordable, and reads every T(a, q; v) from one residue pass.

J(R) doubles a gamma rule that keeps its old nodes, and I(-gamma) = conj I(gamma)
for a real weight, so I(gamma) is computed once per |gamma|, bit for bit.  J and
I(gamma) factor over the blocks of F for a separable weight: the factored path
keeps one table per class of `forms.block_classes` (blocks equal up to sign,
with equal weights) across doublings; each table lives for one call of J.
A large batch of `_direct_gamma_table` rows takes cos and sin once per
distinct |F| on its grid when many values repeat.  A one-variable table fills its phases
with the cos and sin of the real angles (`_phase_table`): bit for bit the complex
exp of the recorded J reprs, in half its time.  The sine kernel
(`singular_integral_sine`) keeps a loop of its own, the independent reference J is checked against;
each doubling evaluates F and the kernel on its new cells only; `_phase_sum`, `gen_sum`'s phase tail, serves verify too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    PreconditionViolated,
    ToleranceNotMet,
)
from .expsums import _twisted_table, complete_sum
from .forms import CubicData, IntPolynomial, _abs_bound, _grid_points, block_classes, blocks, grid_values
from .weights import WeightSpec, lattice_ranges

TWO_PI = 2.0 * math.pi


@dataclass
class QuadratureConfig:
    tolerance: float = 1e-8
    base_points: int = 64
    max_points_1d: int = 1 << 18
    max_cells: int = 1 << 24
    max_refinements: int = 12

    def within(self, budget: int) -> "QuadratureConfig":
        """This config with no grid of more than `budget` cells or points per axis."""
        return replace(self, max_cells=min(self.max_cells, budget), max_points_1d=min(self.max_points_1d, budget))


DEFAULT_CFG = QuadratureConfig()


# -- lattice sums -----------------------------------------------------------------


def _support_axes(w: WeightSpec, P: float, budget: int):
    ranges = lattice_ranges(w, P)
    cells = 1
    for a, b in ranges:
        cells *= max(b - a + 1, 0)
    if cells > budget:
        raise BudgetExceeded(f"{cells} lattice points exceed budget {budget}")
    return [np.arange(a, b + 1, dtype=np.int64) for a, b in ranges]


def gen_sum(
    poly: IntPolynomial, w: WeightSpec, P: float, a: int, q: int, z: float = 0.0, budget: int = 4_000_000
) -> complex:
    """S(alpha) = sum_x w(x/P) e(alpha poly(x)) at alpha = a/q + z.

    The rational part of the phase is computed from exact residues mod q.
    BudgetExceeded, before any pass, when z * poly overflows a float on the lattice box.
    """
    if w.n != poly.n:
        raise DimensionMismatch("weight dimension != variable count")
    axes = _support_axes(w, P, budget)
    bound = _abs_bound(poly.coeffs, lattice_ranges(w, P))  # |poly| <= bound on the lattice box
    if bound > sys.float_info.max or not math.isfinite(z * bound):  # else the phases would be NaN
        raise BudgetExceeded(f"the phases z * F at z={z} overflow a float on the lattice box at P={P}")
    wv = w.eval_grid([ax / P for ax in axes]).ravel()
    if not len(wv):
        return 0.0 + 0.0j
    return _phase_sum(wv, grid_values(poly, axes).ravel(), a, q, z)


def _phase_sum(wv: np.ndarray, vals: np.ndarray, a: int, q: int, z: float) -> complex:
    """sum of wv e((a/q + z) vals) over the cells of positive weight, the rational part from exact residues mod q."""
    keep = wv > 0
    wv, vals = wv[keep], vals[keep]
    resid = (vals % q).astype(np.int64) if q > 1 else None
    zpart = vals.astype(float) * z
    phase_angles = (a * resid / q if resid is not None else 0.0) + zpart
    phases = np.exp(2j * np.pi * (phase_angles % 1.0))
    return complex((wv * phases).sum())


# -- 1-D and tensor quadrature --------------------------------------------------------


def _simpson_1d(fvals: np.ndarray, h: float):
    N = len(fvals) - 1
    if N % 2:
        raise PreconditionViolated(f"Simpson's rule needs an even number of intervals, got {N}")
    wts = np.ones(N + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    return (h / 3.0) * np.tensordot(wts, fvals, axes=(0, 0))


def _start_points(cycles: float, cfg: QuadratureConfig) -> int:
    """Even initial interval count with at least four points per expected cycle."""
    N = max(cfg.base_points, 4 * math.ceil(cycles + 1))
    return N + N % 2


def _simpson_weights(lo: float, hi: float, N: int) -> np.ndarray:
    wts = np.ones(N + 1)
    wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
    return wts * ((hi - lo) / (3.0 * N))


def integrate_1d(fn, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CFG, cycles: float = 0.0):
    """Adaptive composite Simpson of a vectorized callable on [a, b]: one row of `_refine_rows`."""
    if b <= a:
        return 0.0

    def values(Ns, rows):
        return [_simpson_1d(fn(np.linspace(a, b, Ns[0] + 1)), (b - a) / Ns[0])]

    return _refine_rows([(_start_points(cycles, cfg),)], values, lambda Ns: Ns[0] > cfg.max_points_1d, cfg)[0]


def _grad_bound(f: IntPolynomial, box_phys) -> list:
    """Per-axis bound on |df/dx_i| over a physical box [(lo,hi)] per axis."""
    return [_abs_bound(f.partial(i).coeffs, box_phys) for i in range(f.n)]


# -- oscillatory integrals ------------------------------------------------------------------


def _phase_sums(gammas: np.ndarray, fv: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """sum_k wv[k] e(gamma fv[k]) for every gamma, about 2^20 phases at a time.

    A batch of 16 or more gammas takes cos and sin once per distinct |fv| when
    at most 3/4 of them are distinct, as for a form odd or even under a
    symmetry of the grid: cos is even and sin odd, bit for bit.  Counting the
    distinct |fv| costs about a tenth of a row of cos and sin, and reading
    the values back about a fifth of what they cost, hence the two bounds.
    `take` reads them back in C order; `a[:, idx]` gives a Fortran-order
    array, which BLAS sums in another order.
    """
    out = np.empty(len(gammas), dtype=complex)
    step = max(1, (1 << 20) // max(len(fv), 1))
    u, ws, cells = fv, wv, lambda table: table
    if len(gammas) >= 16 and len(fv):
        absf = np.abs(fv)
        ascending = np.sort(absf)
        if 4 * (1 + np.count_nonzero(ascending[1:] != ascending[:-1])) <= 3 * len(fv):
            order = np.argsort(absf)
            first = np.concatenate(([True], absf[order[1:]] != absf[order[:-1]]))
            u, at = absf[order[first]], np.empty(len(fv), dtype=np.intp)
            at[order] = np.cumsum(first) - 1
            ws = np.where(np.signbit(fv), -wv, wv)  # sin(-x) wv = sin(x) (-wv), bit for bit
            cells = lambda table: table.take(at, axis=1)  # noqa: E731
    for s in range(0, len(gammas), step):
        ph = np.outer(gammas[s:s + step], u)
        ph *= TWO_PI
        out[s:s + step] = cells(np.cos(ph)) @ wv + 1j * (cells(np.sin(ph)) @ ws)
    return out


def _phase_table(gammas: np.ndarray, fv: np.ndarray) -> np.ndarray:
    """np.exp(2j * np.pi * np.outer(gammas, fv)) bit for bit (libm's cexp is cos + i sin), from real cos and sin."""
    ph = np.outer(gammas, fv)
    ph *= TWO_PI
    ph += 0.0  # -0 to +0, as the complex product's imaginary part 0 * 0 + 2 pi x has it
    out = np.empty(ph.shape, dtype=complex)
    np.cos(ph, out=out.real)
    np.sin(ph, out=out.imag)
    return out


def _refine_rows(starts, values, too_big, cfg: QuadratureConfig) -> np.ndarray:
    """Per-row adaptive doubling in which the rows on the same grid are computed together.

    Row j starts on the grid starts[j], a tuple of per-axis interval counts,
    doubles it and stops at the first grid whose value is within
    cfg.tolerance of the grid before; values(Ns, rows) gives the quadrature
    on grid Ns for an index array of rows.  Grids go smallest first, so each
    one is built once however many rows reach it.
    """
    out = [None] * len(starts)
    prev = {}
    grid = dict(enumerate(starts))
    steps = dict.fromkeys(grid, 0)
    while grid:
        Ns = min(grid.values(), key=math.prod)
        rows = [j for j, g in grid.items() if g == Ns]
        if any(steps[j] == cfg.max_refinements for j in rows):
            raise ToleranceNotMet("refinement limit reached")
        if too_big(Ns):
            raise ToleranceNotMet(f"grid {Ns} exceeded the cell budget before converging")
        for j, cur in zip(rows, values(Ns, np.array(rows))):
            if j in prev and abs(cur - prev[j]) <= cfg.tolerance:
                out[j] = cur
                del grid[j]
            else:
                prev[j] = cur
                grid[j] = tuple(2 * N for N in Ns)
                steps[j] += 1
    return np.array(out)


def _block_weight(w: WeightSpec, vars_) -> WeightSpec:
    """The separable weight w on the variables vars_ alone: the product of their factors."""
    return replace(w, n=len(vars_), x0=tuple(w.x0[i] for i in vars_) if w.x0 else ())


def _direct_gamma_table(F: IntPolynomial, w: WeightSpec, gammas: np.ndarray, cfg: QuadratureConfig, beta=None):
    """I(gamma; beta) = integral of w(x) e(gamma F(x) - beta.x) dx for every gamma in one batched pass.

    `osc_integral` is the one-row case.  For a separable w and two or more blocks
    of F = c + sum_b G_b(x_b) (`forms.blocks`), I = e(gamma c) prod_b I_b with I_b
    this table of G_b over its own variables.  Otherwise row gamma starts on one
    grid over every variable (n <= 3) with at least four points per expected cycle
    of gamma F - beta.x, and `_refine_rows` doubles it until it meets
    cfg.tolerance.  The gammas on one grid share the F values and the weight times
    the Simpson weights (times e(-beta.x) for a nonzero beta).  A grid of two or
    more axes drops its cells of zero weight and is capped at cfg.max_cells; a
    one-axis grid keeps them and is capped at cfg.max_points_1d.
    """
    beta = np.zeros(F.n) if beta is None else np.asarray(beta, dtype=float)
    const, parts = blocks(F)
    if w.separable_factors() is not None and len(parts) > 1:
        out = np.exp(2j * np.pi * gammas * const)
        for vars_, G in parts:
            out = out * _direct_gamma_table(G, _block_weight(w, vars_), gammas, cfg, beta[list(vars_)])
        return out
    if F.n > 3:
        raise BudgetExceeded("tensor-grid quadrature supports n <= 3 variables per block")
    box_phys = w.support_box()
    gb = _grad_bound(F, box_phys)

    def values(Ns, rows):
        grids = [np.linspace(lo, hi, N + 1) for (lo, hi), N in zip(box_phys, Ns)]
        simpson = reduce(np.multiply.outer, [_simpson_weights(lo, hi, N) for (lo, hi), N in zip(box_phys, Ns)])
        wv = (w.eval_grid(grids) * simpson).ravel()
        if beta.any():
            wv = wv * np.exp(-2j * np.pi * (_grid_points(grids) @ beta))
        keep = wv != 0.0 if F.n > 1 else slice(None)
        return _phase_sums(gammas[rows], grid_values(F, grids).ravel()[keep], wv[keep])

    starts = [
        tuple(_start_points((abs(g) * gb[i] + abs(beta[i])) * (hi - lo), cfg) for i, (lo, hi) in enumerate(box_phys))
        for g in gammas.tolist()
    ]
    if F.n == 1:
        return _refine_rows(starts, values, lambda Ns: Ns[0] > cfg.max_points_1d, cfg)
    return _refine_rows(starts, values, lambda Ns: math.prod(N + 1 for N in Ns) > cfg.max_cells, cfg)


def osc_integral(f: IntPolynomial, w: WeightSpec, z: float, beta, cfg: QuadratureConfig = DEFAULT_CFG) -> complex:
    """I(z; beta) = integral of w(x) e(z f(x) - beta.x) dx, the one row gamma = z of `_direct_gamma_table`."""
    if w.n != f.n or len(beta) != f.n:
        raise DimensionMismatch("weight dimension or beta length != variable count")
    return complex(_direct_gamma_table(f, w, np.array([float(z)]), cfg, beta)[0])


# -- singular integral ------------------------------------------------------------------


def _by_abs_gamma(compute):
    """gammas -> compute(gammas) for one call of J, memoised by |gamma| and conjugated where gamma < 0.

    compute(new) gets the |gamma| not seen yet as one batch, in first-appearance
    order; the memo is two arrays, |gamma| sorted and the value at each, read by
    `searchsorted`.
    """
    seen, vals = np.empty(0), np.empty(0, dtype=complex)

    def table(gammas):
        nonlocal seen, vals
        absg = np.abs(gammas)
        at = np.searchsorted(seen, absg)
        new = absg[seen.take(at, mode="clip") != absg] if len(seen) else absg
        if len(new):
            new = new[np.sort(np.unique(new, return_index=True)[1])]
            seen, vals = np.concatenate([seen, new]), np.concatenate([vals, compute(new)])
            order = np.argsort(seen)
            seen, vals = seen[order], vals[order]
            at = np.searchsorted(seen, absg)
        out = vals[at]
        return np.where(gammas < 0, out.conj(), out)

    return table


def _factored_axes(F: IntPolynomial, w: WeightSpec, R: float, cfg: QuadratureConfig):
    """(const, [(sign, table), ...]), I(gamma) = e(gamma const) prod table(sign gamma), |gamma| <= R.

    Separable w, one table per class of `forms.block_classes` labelled by block
    weight (centres and box), listed once per block in block order.  A
    one-variable class gets an axis grid that depends on R only; a larger one
    gets its `_direct_gamma_table` rows.
    """
    if w.separable_factors() is None:
        raise PreconditionViolated("factored path needs separable w")
    const, classes = block_classes(F, label=lambda vars_: _block_weight(w, vars_))
    R, axes = abs(float(R)), []
    for members in classes:
        vars_, _, G = members[0]
        wb = _block_weight(w, vars_)
        if len(vars_) > 1:
            table = _by_abs_gamma(lambda g, G=G, wb=wb: _direct_gamma_table(G, wb, g, cfg))
        else:
            [(lo, hi)] = wb.support_box()
            fv = [float(G.evaluate([float(t)])) for t in np.linspace(lo, hi, 2)]
            cycles = R * max(max(fv) - min(fv), _grad_bound(G, [(lo, hi)])[0] * (hi - lo))
            N = max(_start_points(min(cycles, cfg.max_points_1d), cfg), 256)  # min: past the cap either way
            if N > cfg.max_points_1d:
                raise ToleranceNotMet(f"grid {(N,)} exceeded the cell budget before converging")
            xs = np.linspace(lo, hi, N + 1)
            fv = (G.evaluate([xs.astype(object)]) + np.zeros(N + 1)).astype(float)  # Python floats, as at a point
            wv = _simpson_weights(lo, hi, N) * wb.separable_factors()[0](xs)
            table = _by_abs_gamma(lambda g, fv=fv, wv=wv: _phase_table(g, fv) @ wv)
        axes += [(vars_, sign, table) for vars_, sign, _ in members]
    return const, [(sign, table) for _, sign, table in sorted(axes, key=lambda a: a[0])]


def singular_integral(
    F: IntPolynomial,
    w: WeightSpec,
    R: float,
    cfg: QuadratureConfig = DEFAULT_CFG,
    method: str = "auto",
):
    """J(R) = integral over |gamma| <= R of integral w(x) e(gamma F(x)) dx dgamma, for R >= 0."""
    if w.n != F.n:
        raise DimensionMismatch("weight dimension != variable count")
    if not 0 <= R < math.inf:
        raise PreconditionViolated(f"J(R) needs a finite R >= 0, got {R}")
    if R == 0:
        return 0.0
    if method == "auto":  # factored unless w is not separable or F is one block of two or more variables
        split = F.n == 1 or len(blocks(F)[1]) > 1
        method = "factored" if split and w.separable_factors() is not None else "direct"
    if method == "factored":
        const, axes = _factored_axes(F, w, R, cfg)

        def Iv(gammas):
            start = np.exp(2j * np.pi * np.outer(gammas, [const])).ravel()
            return math.prod((table(s * gammas) for s, table in axes), start=start)

        # the rule the recorded J reprs come from: 512 gamma nodes to start, tolerance at least 1e-12, max_cells nodes
        rule = replace(cfg, tolerance=max(cfg.tolerance, 1e-12), base_points=512, max_points_1d=cfg.max_cells)
        J = complex(integrate_1d(Iv, -R, R, rule))
        if abs(J.imag) > 1e-6 * max(abs(J), 1.0):
            raise ToleranceNotMet("singular integral should be real")
        return J.real
    if method == "direct":
        fn = _by_abs_gamma(lambda gammas: _direct_gamma_table(F, w, gammas, cfg))
        return float(np.real(integrate_1d(fn, -R, R, cfg, cycles=R)))
    if method == "sine":
        return singular_integral_sine(F, w, R, cfg)
    raise ValueError(f"unknown method {method!r}")


def singular_integral_sine(F: IntPolynomial, w: WeightSpec, R: float, cfg: QuadratureConfig = DEFAULT_CFG):
    """Same quantity via the closed z-integral: integral w(x) sin(2 pi R F)/(pi F) dx."""
    n = F.n
    if n > 3:
        raise BudgetExceeded("sine-kernel form supports n <= 3")
    box_phys = w.support_box()
    N = _start_points(R * _abs_bound(F.coeffs, box_phys), cfg)
    prev = kernel = None

    def sine_kernel(axes):  # 2R sinc(2R F) = sin(2 pi R F)/(pi F) in place, in np.sinc's operations and order
        y = grid_values(F, axes)
        y *= 2.0 * R
        y *= np.pi
        y[y == 0] = np.finfo(float).eps
        return np.multiply(np.divide(np.sin(y), y, out=y), 2.0 * R, out=y)
    for _ in range(cfg.max_refinements):
        if (N + 1) ** n > cfg.max_cells:  # every grid, the first one included, before it is built
            raise ToleranceNotMet("sine-kernel grid exceeded cell budget")
        grids = [np.linspace(lo, hi, N + 1) for lo, hi in box_phys]
        if kernel is None:
            kernel = sine_kernel(grids)
        else:  # the old grid is every second node of the new one, bit for bit: only cells with an odd index are new
            old, kernel = kernel, np.empty((N + 1,) * n)
            kernel[(slice(None, None, 2),) * n] = old
            for k in range(n):  # even indices before axis k, odd at k, any after it
                cut = (slice(None, None, 2),) * k + (slice(1, None, 2),) + (slice(None),) * (n - k - 1)
                kernel[cut] = sine_kernel([g[c] for g, c in zip(grids, cut)])
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


# -- Poisson summation check ---------------------------------------------------------------


@dataclass
class PoissonReport:
    lhs: complex
    rhs: complex
    residual: float
    relative: float
    v_cut: int
    tail_estimate: float
    grid_shape: tuple
    mass: float


def _default_v_cut(g: IntPolynomial, q: int, z: float, box_phys) -> int:
    gb = _grad_bound(g, box_phys)
    v0max = max(q * abs(z) * b for b in gb) if gb else 0.0
    width = min(hi - lo for lo, hi in box_phys)
    margin = q * 30.0 / max(width, 1e-9)  # 30 cycles across the narrowest side
    if not math.isfinite(v0max + margin):  # then no grid of four points a cycle fits either
        raise BudgetExceeded(f"the default v_cut at z={z} overflows a float")
    return max(4 * q, math.ceil(v0max + margin))


def poisson_check(
    g,
    w: WeightSpec,
    P: float,
    a: int,
    q: int,
    z: float,
    v_cut: int | None = None,
    budget: int = 4_000_000,
) -> PoissonReport:
    """Residual of T(a/q+z) = q^-n sum_v T(a,q;v) I(z; v/q) with truncation |v| <= v_cut.

    The I values for the whole v-box come from one zero-padded FFT per run on
    a uniform grid of four points per cycle of v_cut/q and at most 2^25 cells;
    the reported tail estimate is the boundary-shell mass.
    """
    poly = g.poly if isinstance(g, CubicData) else g
    n = poly.n
    if math.gcd(a, q) != 1 or not 1 <= a <= q:
        raise PreconditionViolated("need 1 <= a <= q with gcd(a, q) = 1")
    if not (0 < P < math.inf and math.isfinite(z)):
        raise PreconditionViolated(f"the Poisson check needs a finite P > 0 and a finite z, got P={P}, z={z}")
    if v_cut is not None and v_cut < 0:
        raise PreconditionViolated(f"the Poisson check needs v_cut >= 0, got {v_cut}")
    Ttab = _twisted_table(poly, a, q, budget)  # refused at this budget before any other pass
    lhs = gen_sum(poly, w, P, a=a, q=q, z=z, budget=budget)  # refuses a P whose lattice box is past the budget
    mass = abs(gen_sum(poly, w, P, a=q, q=q, z=0.0, budget=budget))
    box_phys = [(lo * P, hi * P) for lo, hi in w.support_box()]
    if v_cut is None:
        v_cut = _default_v_cut(poly, q, z, box_phys)
    # grid: step h = q/M, FFT length L a multiple of M covering the support
    M = 4 * max(v_cut, 1)
    axes = []
    cells = 1
    for lo, hi in box_phys:
        h = q / M
        N = int(math.ceil((hi - lo) / h)) + 1
        L = M * int(math.ceil(N / M))
        axes.append((lo, h, N, L))
        cells *= L
    if cells > 1 << 25:
        raise BudgetExceeded(f"FFT grid of {cells} cells exceeds {1 << 25}")
    grids = [lo + h * np.arange(N) for (lo, h, N, L) in axes]
    u = w.eval_grid([g / P for g in grids]) * np.exp(2j * np.pi * z * grid_values(poly, grids))
    U = np.fft.fftn(u, s=[L for (_, _, _, L) in axes], axes=list(range(n)))
    vs = np.arange(-v_cut, v_cut + 1)
    vgrids = np.meshgrid(*[vs] * n, indexing="ij")
    hprod = 1.0
    phase0 = np.zeros(vgrids[0].shape)
    fft_idx = []
    for i, (lo, h, N, L) in enumerate(axes):
        hprod *= h
        stride = L // M
        fft_idx.append(((vgrids[i] * stride) % L).astype(np.int64))
        phase0 = phase0 + vgrids[i] * lo / q
    Ivals = hprod * np.exp(-2j * np.pi * phase0) * U[tuple(fft_idx)]
    Tvals = Ttab[tuple((vg % q) for vg in vgrids)]
    rhs = (Tvals * Ivals).sum() / q ** n
    # tail: mass of |T I| on the boundary shell of the v-box
    shell = np.zeros(vgrids[0].shape, dtype=bool)
    for vg in vgrids:
        shell |= np.abs(vg) == v_cut
    tail = float(np.abs(Tvals[shell] * Ivals[shell]).sum()) / q ** n
    resid = abs(lhs - rhs)
    rel = resid / max(abs(lhs), 1e-4 * mass)
    return PoissonReport(
        lhs=lhs,
        rhs=complex(rhs),
        residual=resid,
        relative=rel,
        v_cut=v_cut,
        tail_estimate=tail,
        grid_shape=tuple(L for (_, _, _, L) in axes),
        mass=mass,
    )


# -- major arc model ---------------------------------------------------------------------


def major_arc_model(
    F: IntPolynomial,
    w: WeightSpec,
    P: float,
    a: int,
    q: int,
    z: float,
    cfg: QuadratureConfig = DEFAULT_CFG,
    budget: int = 4_000_000,
) -> dict:
    """S(a/q+z) against the model q^-n P^n S_{a,q} I(z P^4)."""
    n = F.n
    if q > P:
        raise PreconditionViolated("major arc model needs q <= P")
    if abs(z) > P ** -3:
        raise PreconditionViolated("major arc model needs |z| <= P^-3")
    S = gen_sum(F, w, P, a=a, q=q, z=z, budget=budget)
    Saq = complete_sum(F, a, q).value
    Iz = osc_integral(F, w, z * P ** 4, [0.0] * F.n, cfg=cfg)
    model = q ** -n * P ** n * Saq * Iz
    diff = abs(S - model)
    return {
        "S": S,
        "S_aq": Saq,
        "I": Iz,
        "model": model,
        "diff": diff,
        "relative": diff / max(abs(S), 1e-12),
        "error_scale": abs(z) * q * P ** (n + 3) + q * P ** (n - 1),
    }
