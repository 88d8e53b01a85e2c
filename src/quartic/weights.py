"""Smooth compactly supported weights and their descriptors.

The basic profile is gamma(t) = exp(-1/(1-t^2)) on |t|<1, zero outside; it is
infinitely differentiable with gamma(0) = 1/e.  A `WeightSpec` describes one
of a few weight families; evaluation is exact up to float rounding and the
support box is available in closed form for lattice enumeration.  `eval_grid`
evaluates on a tensor grid one axis at a time, with the bits of `eval_many`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatch, PreconditionViolated


def gamma_bump(t):
    """exp(-1/(1-t^2)) for |t| < 1, else 0 (vectorized)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class WeightSpec:
    """Descriptor of a nonnegative weight on R^n.

    kinds:
      bump             gamma(|x - x0|_2 / rho), radial, smooth
      separable_bump   prod_i gamma((x_i - c_i) / rho)
      box              indicator of [-1, 1]^n
      unit_box         indicator of (0, 1]^n
      shifted_product  base(x + h/P) * base(x)
    """

    kind: str
    n: int
    x0: tuple = ()
    rho: float = 1.0
    base: "WeightSpec" = None
    h: tuple = ()
    P: int = 1

    def __post_init__(self):
        if self.kind in ("bump", "separable_bump"):
            if len(self.x0) != self.n:
                raise DimensionMismatch("center length != n")
            if not 0 < self.rho <= 1:
                raise PreconditionViolated(f"rho must lie in (0, 1], got {self.rho}")
            if not all(map(math.isfinite, self.x0)):
                raise PreconditionViolated(f"the center must be finite, got {self.x0}")
        elif self.kind == "shifted_product":
            if self.base is None or len(self.h) != self.n:
                raise DimensionMismatch("shifted_product needs base and h of length n")
        elif self.kind not in ("box", "unit_box"):
            raise PreconditionViolated(f"unknown weight kind {self.kind!r}")

    # -- evaluation ---------------------------------------------------------

    def eval_many(self, X) -> np.ndarray:
        """Weight values at the rows of X (shape (N, n))."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n:
            raise DimensionMismatch(f"points have dim {X.shape[1]}, weight has n={self.n}")
        if self.kind == "bump":
            r = np.sqrt(((X - np.asarray(self.x0)) ** 2).sum(axis=1))
            return np.asarray(gamma_bump(r / self.rho))
        if self.kind == "shifted_product":
            shift = np.asarray(self.h, dtype=float) / self.P
            return self.base.eval_many(X + shift) * self.base.eval_many(X)
        out = np.ones(X.shape[0])  # separable kinds: the product of the factors in axis order
        for i, factor in enumerate(self.separable_factors()):
            out *= factor(X[:, i])
        return out

    def eval_grid(self, axes) -> np.ndarray:
        """w on the grid axes[0] x ... x axes[n-1], in its shape: `eval_many` of its stacked points, bit for bit."""
        axes = [np.asarray(ax, dtype=float) for ax in axes]
        if len(axes) != self.n:
            raise DimensionMismatch(f"grid has {len(axes)} axes, weight has n={self.n}")
        if self.kind == "bump":  # squared offsets summed in axis order, as eval_many's row sums are
            return gamma_bump(np.sqrt(reduce(np.add.outer, [(ax - c) ** 2 for ax, c in zip(axes, self.x0)])) / self.rho)
        if self.kind == "shifted_product":
            shift = np.asarray(self.h, dtype=float) / self.P
            return self.base.eval_grid([ax + s for ax, s in zip(axes, shift)]) * self.base.eval_grid(axes)
        return reduce(np.multiply.outer, [factor(ax) for factor, ax in zip(self.separable_factors(), axes)])

    def __call__(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float)[None, :])[0])

    # -- structure ------------------------------------------------------------

    def support_box(self):
        """Per-axis closed interval [lo_i, hi_i] containing the support."""
        if self.kind in ("bump", "separable_bump"):
            return [(c - self.rho, c + self.rho) for c in self.x0]
        if self.kind == "box":
            return [(-1.0, 1.0)] * self.n
        if self.kind == "unit_box":
            return [(0.0, 1.0)] * self.n
        if self.kind == "shifted_product":
            inner = self.base.support_box()
            shift = [hi_ / self.P for hi_ in self.h]
            return [
                (max(lo, lo - s), min(hi, hi - s)) for (lo, hi), s in zip(inner, shift)
            ]
        raise AssertionError

    def separable_factors(self):
        """List of 1-D callables whose product is the weight, or None."""
        if self.kind == "separable_bump":
            return [
                (lambda t, c=c, r=self.rho: gamma_bump((np.asarray(t) - c) / r))
                for c in self.x0
            ]
        if self.kind == "box":
            return [(lambda t: (np.abs(np.asarray(t, dtype=float)) <= 1.0).astype(float))] * self.n
        if self.kind == "unit_box":
            return [
                (lambda t: ((np.asarray(t, dtype=float) > 0) & (np.asarray(t, dtype=float) <= 1)).astype(float))
            ] * self.n
        return None

    @property
    def smooth(self) -> bool:
        return self.kind in ("bump", "separable_bump") or (
            self.kind == "shifted_product" and self.base.smooth
        )


def bump(x0, rho) -> WeightSpec:
    return WeightSpec(kind="bump", n=len(x0), x0=tuple(float(c) for c in x0), rho=float(rho))


def separable_bump(x0, rho) -> WeightSpec:
    return WeightSpec(kind="separable_bump", n=len(x0), x0=tuple(float(c) for c in x0), rho=float(rho))


def box(n) -> WeightSpec:
    return WeightSpec(kind="box", n=n)


def unit_box(n) -> WeightSpec:
    return WeightSpec(kind="unit_box", n=n)


def shifted_product(base: WeightSpec, h, P: int) -> WeightSpec:
    return WeightSpec(kind="shifted_product", n=base.n, base=base, h=tuple(int(x) for x in h), P=int(P))


def lattice_ranges(w: WeightSpec, P: float):
    """Integer ranges [a_i, b_i] covering P * support(w) per axis."""
    out = []
    for lo, hi in w.support_box():
        out.append((math.ceil(lo * P - 1e-12), math.floor(hi * P + 1e-12)))
    return out
