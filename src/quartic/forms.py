"""Exact integer polynomials, symmetric tensors and difference calculus.

Everything here is exact: coefficients are Python integers, evaluation at
integer (or Fraction) points is exact, and the symmetric tensor of a quartic
form is stored with the 4! denominator cleared so all downstream contractions
stay in Z.  `grid_values` evaluates a polynomial on a whole Cartesian grid
(mod m, over F_{p^k}, over Z, or in floating point) for the array-based
layers, through the one body `_values_at` that other point sets use too;
`_grid_slabs` cuts a grid into the bounded passes of every exact enumeration,
`blocks` splits a polynomial into parts on disjoint sets of variables, which
`block_classes` groups up to sign, and `LRUCache` bounds the module's caches.
"""

from __future__ import annotations

import json
import math
import operator
import re
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedExponent,
    NonIntegerCoefficient,
    NotQuarticForm,
)

Expt = tuple  # exponent vector, tuple[int, ...]


def _monomial_key(e: Expt):
    # graded lexicographic: total degree first, then leading variables first
    return (sum(e), tuple(-x for x in e))


class IntPolynomial:
    """Multivariate polynomial with integer coefficients.

    Stored as a map {exponent tuple: coefficient} with no zero coefficients
    and no duplicate exponent vectors.  The canonical monomial order used for
    serialization and hashing is graded lexicographic.  Never changed once built
    (`blocks` fills a new one before it escapes), it keeps `blocks(self)`, its
    partials and its hash once computed.
    """

    __slots__ = ("n", "coeffs", "_blocks", "_partials", "_hash")

    def __init__(self, n: int, coeffs=None):
        if n < 0 or n != int(n):
            raise ValueError(f"variable count must be an integer >= 0, got {n!r}")
        self.n = int(n)
        clean = {}
        for e0, c0 in (coeffs or {}).items():
            e, c = tuple(int(x) for x in e0), int(c0)
            if len(e) != self.n:
                raise DimensionMismatch(f"exponent {e} has length {len(e)}, expected {self.n}")
            if any(x < 0 for x in e) or e != tuple(e0):
                raise MalformedExponent(f"exponents must be integers >= 0, got {tuple(e0)}")
            if c != c0:
                raise NonIntegerCoefficient(f"non-integer coefficient {c0!r}")
            if c != 0:
                clean[e] = clean.get(e, 0) + c
                if clean[e] == 0:
                    del clean[e]
        self.coeffs = clean
        self._blocks, self._partials, self._hash = None, {}, None

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def monomials(self):
        """Canonically ordered list of (exponent tuple, coefficient)."""
        return [(e, self.coeffs[e]) for e in sorted(self.coeffs, key=_monomial_key)]

    def is_homogeneous(self, d=None) -> bool:
        if not self.coeffs:
            return True
        degs = {sum(e) for e in self.coeffs}
        if len(degs) != 1:
            return False
        return True if d is None else degs == {d}

    def homogeneous_part(self, d: int) -> "IntPolynomial":
        return IntPolynomial(self.n, {e: c for e, c in self.coeffs.items() if sum(e) == d})

    def graded_parts(self):
        """Dict degree -> homogeneous part (only nonzero parts)."""
        out = {}
        for e, c in self.coeffs.items():
            out.setdefault(sum(e), {})[e] = c
        return {d: IntPolynomial(self.n, m) for d, m in sorted(out.items())}

    def height(self) -> int:
        """Max modulus of the coefficients, read in the monomial basis."""
        return max((abs(c) for c in self.coeffs.values()), default=0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return IntPolynomial(self.n, out)

    def __neg__(self):
        return IntPolynomial(self.n, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(self.n, {e: c * other for e, c in self.coeffs.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntPolynomial(self.n, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, IntPolynomial):
            if other.n != self.n:
                raise DimensionMismatch("mixed variable counts")
            return other
        if isinstance(other, int):
            return IntPolynomial(self.n, {(0,) * self.n: other})
        raise TypeError(f"cannot combine IntPolynomial with {type(other)!r}")

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, tuple(self.monomials())))
        return self._hash

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.monomials():
            vars_ = "*".join(
                f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k
            )
            parts.append(f"{c}" if not vars_ else (f"{c}*{vars_}" if c != 1 else vars_))
        return " + ".join(parts).replace("+ -", "- ")

    # -- calculus ------------------------------------------------------------

    def evaluate(self, x):
        """Exact value at an integer or Fraction point; on arrays of coordinates, one per variable, elementwise."""
        if len(x) != self.n:
            raise DimensionMismatch(f"point has length {len(x)}, expected {self.n}")
        total = 0
        for e, c in self.coeffs.items():
            term = c
            for xi, k in zip(x, e):
                if k:
                    term *= xi ** k
            total += term
        return total

    def partial(self, i: int) -> "IntPolynomial":
        if i not in self._partials:
            out = {}
            for e, c in self.coeffs.items():
                if e[i] == 0:
                    continue
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = out.get(tuple(e2), 0) + c * e[i]
            self._partials[i] = IntPolynomial(self.n, out)
        return self._partials[i]

    def gradient(self):
        return [self.partial(i) for i in range(self.n)]

    def gradient_at(self, x):
        return tuple(self.partial(i).evaluate(x) for i in range(self.n))

    def substitute_affine(self, t, cols) -> "IntPolynomial":
        """Exact composition g(t + sum_j u_j cols[j]) as a polynomial in u.

        `t` is an integer vector of length n, `cols` a list of integer vectors
        of length n; the result has len(cols) variables.
        """
        m = len(cols)
        if len(t) != self.n or any(len(col) != self.n for col in cols):
            raise DimensionMismatch("affine map shape does not match variable count")
        # linear forms for each original variable: x_i = t_i + sum_j cols[j][i) u_j
        lin = []
        for i in range(self.n):
            coeffs = {(0,) * m: int(t[i])}
            for j, col in enumerate(cols):
                if col[i]:
                    e = [0] * m
                    e[j] = 1
                    coeffs[tuple(e)] = int(col[i])
            lin.append(IntPolynomial(m, coeffs))
        out = IntPolynomial(m, {})
        for e, c in self.coeffs.items():
            term = IntPolynomial(m, {(0,) * m: c})
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * lin[i]
            out = out + term
        return out

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "degree": self.degree,
                "monomials": [[list(e), c] for e, c in self.monomials()],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "IntPolynomial":
        obj = json.loads(text)
        poly = cls(obj["n"], {tuple(e): c for e, c in obj["monomials"]})
        if "degree" in obj and obj["degree"] != poly.degree:
            raise MalformedExponent("declared degree does not match monomials")
        return poly


# -- parsing -------------------------------------------------------------------

_VAR_RE = re.compile(r"^x(\d+)(?:\^(-?[0-9.]+))?$")


def _parse_factor(fac, exps):
    m = _VAR_RE.match(fac)
    if not m:
        raise MalformedExponent(f"cannot parse factor {fac!r}")
    idx = int(m.group(1))
    if idx == 0:
        raise MalformedExponent(f"variables are numbered from x1, got {fac!r}")
    etext = m.group(2)
    if etext is None:
        e = 1
    else:
        if "." in etext:
            raise MalformedExponent(f"non-integer exponent {etext!r}")
        e = int(etext)
        if e < 0:
            raise MalformedExponent(f"negative exponent {etext!r}")
    exps[idx] = exps.get(idx, 0) + e
    return idx


def parse_form(source: str, n: int | None = None) -> IntPolynomial:
    """Parse a human-readable form like ``4*x1^4 + 9*x2^4 - 8*x3^4``.

    Coefficients must be integers and exponents nonnegative integers;
    variables are x1..xn (n inferred from the largest index unless given).
    """
    text = source.replace("**", "^").replace("-", "+-").replace(" ", "")
    terms = [t for t in text.split("+") if t]
    parsed = []  # (coeff, dict var->exp)
    max_var = 0
    for term in terms:
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        coeff = 1
        exps = {}
        for k, fac in enumerate(term.split("*")):
            if k == 0 and not fac.startswith("x"):
                if "." in fac:
                    raise NonIntegerCoefficient(f"non-integer coefficient {fac!r}")
                try:
                    coeff = int(fac)
                except ValueError:
                    raise MalformedExponent(f"cannot parse term {term!r}") from None
                continue
            max_var = max(max_var, _parse_factor(fac, exps))
        parsed.append((sign * coeff, exps))
    nvars = n if n is not None else max_var
    coeffs = {}
    for coeff, exps in parsed:
        if any(i > nvars for i in exps):
            raise DimensionMismatch("variable index exceeds declared n")
        e = tuple(exps.get(i + 1, 0) for i in range(nvars))
        coeffs[e] = coeffs.get(e, 0) + coeff
    return IntPolynomial(nvars, coeffs)


# -- grid evaluation -------------------------------------------------------------


def _abs_bound(coeffs: dict, ranges):
    """sum of |c| * prod max(|a_i|, |b_i|)^k_i over the monomials {e: c}: |F| <= it on the box."""
    bound = 0
    for e, c in coeffs.items():
        term = abs(c)
        for (a, b), k in zip(ranges, e):
            if k:
                term *= max(abs(a), abs(b)) ** k
        bound += term
    return bound


def _int64_safe(F: IntPolynomial, ranges) -> bool:
    """Can every partial sum of axis values, and every coefficient (c * 0 still holds c), be held exactly in int64?"""
    return max(_abs_bound(F.coeffs, ranges), *map(abs, F.coeffs.values()), 0) < 2 ** 62


def grid_values(F: IntPolynomial, axes, modulus=None) -> np.ndarray:
    """F on the grid axes[0] x ... x axes[n-1], as an array of shape (len(axes[0]), ...).

    The ring follows the inputs: with an integer `modulus` the result holds
    int64 residues mod modulus; with a finite field as `modulus` (anything
    with `embed`, `add` and `mul` on arrays of element codes, like
    `geometry.GF`) the axes and the result hold its codes; integer axes (int64,
    or Python ints in an object array) give exact values, int64 when
    `_int64_safe` proves they fit and Python ints in an object array
    otherwise; float axes give float64.  Each monomial is a
    product of per-axis power tables broadcast over its own variables only,
    and the monomials are added in `F.coeffs` order, from +0, into a total
    that grows to the broadcast shape of the terms so far: a block form makes
    one full-size pass over the grid.  Exact results equal the
    point-by-point sum c * x_i^k * x_j^l * ...; float results equal, bit for
    bit, the numpy loop that adds float(c) * x_i ** k * x_j ** l * ... over the
    monomials in that order, and can differ from `IntPolynomial.evaluate` on
    Python floats in the last bit.
    """
    coords = [np.asarray(ax).reshape([-1 if j == i else 1 for j in range(len(axes))]) for i, ax in enumerate(axes)]
    return _values_at(F, coords, modulus)  # each axis along its own dimension


def _values_at(F: IntPolynomial, coords, modulus=None) -> np.ndarray:
    """F elementwise on broadcast coordinate arrays coords[0], ..., coords[n-1], in the ring of `grid_values`."""
    if len(coords) != F.n:
        raise DimensionMismatch(f"{len(coords)} coordinate arrays for {F.n} variables")
    coords = [np.asarray(c) for c in coords]
    shape = np.broadcast(*coords).shape if coords else ()
    field = hasattr(modulus, "mul")
    embed, add, mul, coeffs = int, operator.iadd, operator.mul, F.coeffs
    if field:
        dtype, embed, add, mul = np.int64, modulus.embed, modulus.add, modulus.mul
    elif modulus is not None:
        if not 0 < modulus < 1 << 31:
            raise ValueError(f"modulus {modulus} outside [1, 2^31): residue products must fit int64")
        coeffs = {e: c % modulus for e, c in coeffs.items() if c % modulus}
        dtype, coords = np.int64, [c.astype(np.int64) % modulus for c in coords]
        if _abs_bound(coeffs, [(0, modulus - 1)] * F.n) >= 1 << 62:  # else no value passes 2^62: reduce at the end

            def mul(a, b):  # in place: a term can span the whole grid
                out = a * b
                out %= modulus
                return out
    elif all(c.dtype.kind in "iuO" for c in coords):  # object arrays hold Python ints
        ranges = [(int(c.min()), int(c.max())) if c.size else (0, 0) for c in coords]
        fits = all(-(1 << 63) <= a and b < 1 << 63 for a, b in ranges)  # variables absent from F too
        dtype = np.int64 if fits and _int64_safe(F, ranges) else object
    else:
        dtype, embed = np.float64, float
    coords = [c.astype(dtype, copy=False) for c in coords]
    tables = {(i, 1): c for i, c in enumerate(coords)}

    def power(i, k):
        # x_i^k: by ** over Z and the floats, by repeated products in a finite ring; a loop, as a closure
        # that calls itself is a reference cycle that keeps every table alive until the collector runs
        for j in range(k if modulus is None else 2, k + 1):
            if (i, j) not in tables:
                tables[i, j] = coords[i] ** j if modulus is None else mul(tables[i, j - 1], coords[i])
        return tables[i, k]

    # from +0, grown to the terms' broadcast shape (a constant term can leave a Python int): one full-size pass
    total, grow = np.zeros((), dtype=dtype), add if field else operator.add
    for e, c in coeffs.items():
        term = embed(c)
        for i, k in enumerate(e):
            if k:
                term = mul(term, power(i, k))
        total = add(total, term) if getattr(total, "shape", ()) == shape else grow(total, term)
    if getattr(total, "shape", ()) != shape:  # a variable in no monomial
        total = np.broadcast_to(np.asarray(total, getattr(total, "dtype", dtype)), shape).copy()
    if modulus is not None and not field:
        # the terms are residues, or every value is at most _abs_bound(coeffs) < 2^62: the sum fits int64
        total %= modulus
    return total


def _grid_points(axes) -> np.ndarray:
    """Rows of the grid axes[0] x ... x axes[n-1] in the order of `grid_values(...).ravel()`."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _grid_slabs(axes, cells: int):
    """Sub-grids (lists of axis slices) that tile axes[0] x ... x axes[n-1] in C order, each of at most `cells` cells.

    A slab cuts axis k, the first axis whose later axes span at most `cells`
    cells, and holds one point of each axis before it.  A grid with no axes is
    the one slab [], and a grid with an empty axis is one slab of no cells.
    """
    sizes = list(map(len, axes))
    if not sizes or 0 in sizes:
        yield list(axes)
        return
    k = next(k for k in range(len(axes)) if math.prod(sizes[k + 1:]) <= cells)
    step = max(1, cells // math.prod(sizes[k + 1:]))
    for lead in product(*map(range, sizes[:k])):
        for start in range(0, sizes[k], step):
            yield [ax[i:i + 1] for ax, i in zip(axes, lead)] + [axes[k][start:start + step]] + list(axes[k + 1:])


def blocks(F: IntPolynomial):
    """(const, [(vars, G), ...]): F = const + sum of G(x[vars]) over blocks of disjoint variables.

    Two variables share a block when some monomial contains both; a variable
    in no monomial is a block of its own with G = 0.  Blocks come in order of
    their first variable, and each G keeps its monomials in `F.coeffs` order.
    A diagonal form has every block of size 1.  The result is kept on F.
    """
    if F._blocks is not None:
        return F._blocks
    n = F.n
    label = list(range(n))  # label[i] = first variable of the block of x_i
    for e in F.coeffs:
        hit = {label[i] for i, k in enumerate(e) if k}
        if len(hit) > 1:
            first = min(hit)
            label = [first if lab in hit else lab for lab in label]
    if set(label) == {0}:  # one block over every variable: G is F less its constant
        const = F.coeffs.get((0,) * n, 0)
        G = IntPolynomial(n)  # F.coeffs is clean, so G skips the validating constructor; F itself would be a cycle
        G.coeffs = {e: c for e, c in F.coeffs.items() if any(e)} if const else F.coeffs
        F._blocks = const, [(tuple(range(n)), G)]
        return F._blocks
    groups = {first: tuple(i for i in range(n) if label[i] == first) for first in sorted(set(label))}
    subs = {first: {} for first in groups}
    const = 0
    for e, c in F.coeffs.items():
        first = next((label[i] for i, k in enumerate(e) if k), None)
        if first is None:
            const = c
        else:
            subs[first][tuple(e[i] for i in groups[first])] = c
    F._blocks = const, [(vars_, IntPolynomial(len(vars_), subs[first])) for first, vars_ in groups.items()]
    return F._blocks


def block_classes(F: IntPolynomial, label=None):
    """(const, [[(vars, sign, G), ...], ...]): the blocks of F (`blocks`) in classes equal up to sign and `label(vars)`.

    Classes come in order of first block, members in block order.  Each block is sign * G, G the first member's own
    polynomial; sign is that of the block's coefficient at min(G.coeffs) (+1 for 0), relative to the first member's.
    """
    classes = {}
    for vars_, G in blocks(F)[1]:
        sign = -1 if G.coeffs and G.coeffs[min(G.coeffs)] < 0 else 1
        key = label(vars_) if label else None, frozenset((e, sign * c) for e, c in G.coeffs.items())
        classes.setdefault(key, []).append((vars_, sign, G))
    return blocks(F)[0], [[(vars_, sign * cls[0][1], cls[0][2]) for vars_, sign, _ in cls] for cls in classes.values()]


# -- symmetric tensor ------------------------------------------------------------


class SymTensor:
    """Integer symmetric tensor N with N_ijkl = 24 * f_ijkl for a quartic form.

    Entries are stored on sorted index 4-tuples (i<=j<=k<=l, zero-based); the
    full symmetric tensor takes the same value on every rearrangement.  For a
    monomial with exponent vector e the stored value is coeff * prod(e_i!),
    which is always an integer.
    """

    __slots__ = ("n", "entries", "_dense")

    def __init__(self, n: int, entries):
        self.n = n
        self.entries = {tuple(k): int(v) for k, v in entries.items() if v}
        self._dense = {}  # dtype -> the full n^4 tensor, built on first use

    def reconstruct(self) -> IntPolynomial:
        """Sum N_ijkl x_i x_j x_k x_l over all ordered index tuples (= 24 F)."""
        coeffs = {}
        for key, val in self.entries.items():
            mult = _n_arrangements(key)
            e = [0] * self.n
            for i in key:
                e[i] += 1
            e = tuple(e)
            coeffs[e] = coeffs.get(e, 0) + val * mult
        return IntPolynomial(self.n, coeffs)

    def contract(self, W, X) -> np.ndarray:
        """C[..., i, l] = sum_jk N_ijkl w_j x_k over the broadcast leading axes of W and X.

        The ring follows the inputs (int64, or Python ints in object arrays);
        the caller picks one in which the sums fit.
        """
        W, X = np.asarray(W), np.asarray(X)
        dtype = np.result_type(W, X)
        N = self._dense.get(dtype)
        if N is None:
            N = np.zeros((self.n,) * 4, dtype=dtype)
            for key, val in self.entries.items():
                for p in set(permutations(key)):
                    N[p] = val
            N.flags.writeable = False
            self._dense[dtype] = N
        return np.einsum("ijkl,...j,...k->...il", N, W, X)

    def trilinear(self, w, x, y):
        """L_i(w;x;y) = sum_jkl N_ijkl w_j x_k y_l, exactly (eq. uses 4! f)."""
        for v in (w, x, y):
            if len(v) != self.n:
                raise DimensionMismatch("vector length mismatch in trilinear form")
        w, x, y = (np.array(v, dtype=object) for v in (w, x, y))
        return tuple(self.contract(w, x) @ y)


def _n_arrangements(key) -> int:
    counts = {}
    for i in key:
        counts[i] = counts.get(i, 0) + 1
    out = math.factorial(len(key))
    for c in counts.values():
        out //= math.factorial(c)
    return out


def sym_tensor(F: IntPolynomial) -> SymTensor:
    """Symmetric tensor of a homogeneous quartic form (exact, denominator-free)."""
    if F.degree != 4 or not F.is_homogeneous(4):
        raise NotQuarticForm("sym_tensor needs a homogeneous form of degree 4")
    entries = {}
    for e, c in F.coeffs.items():
        key = []
        fact = 1
        for i, k in enumerate(e):
            key.extend([i] * k)
            fact *= math.factorial(k)
        entries[tuple(key)] = c * fact
    return SymTensor(F.n, entries)


def hessian(g: IntPolynomial, x):
    """Symmetric matrix of second partials of g at x: `hessian_form_rows(g)` there (exact; x may be rational)."""
    if len(x) != g.n:
        raise DimensionMismatch("point length mismatch in hessian")
    return [[h.evaluate(x) for h in row] for row in hessian_form_rows(g)]


def hessian_form_rows(g0: IntPolynomial):
    """Hessian of a form as a matrix of polynomials (linear forms for cubic g0)."""
    return [[gi.partial(j) for j in range(g0.n)] for gi in map(g0.partial, range(g0.n))]


# -- cubic data -------------------------------------------------------------------


@dataclass(frozen=True)
class CubicData:
    """A polynomial of degree <= 3 with its graded parts g0 + f2 + f1 + f0."""

    poly: IntPolynomial
    g0: IntPolynomial
    f2: IntPolynomial
    f1: IntPolynomial
    f0: IntPolynomial

    @classmethod
    def from_poly(cls, g: IntPolynomial) -> "CubicData":
        if g.degree > 3:
            raise NotQuarticForm("CubicData needs degree <= 3")
        z = IntPolynomial(g.n, {})
        parts = g.graded_parts()
        return cls(
            poly=g,
            g0=parts.get(3, z),
            f2=parts.get(2, z),
            f1=parts.get(1, z),
            f0=parts.get(0, z),
        )

    @property
    def n(self) -> int:
        return self.poly.n


def difference_cubic(F: IntPolynomial, h) -> CubicData:
    """F(x+h) - F(x) for a homogeneous quartic F; cubic part is h . grad F."""
    if F.degree != 4 or not F.is_homogeneous(4):
        raise NotQuarticForm("difference_cubic needs a homogeneous quartic")
    if len(h) != F.n:
        raise DimensionMismatch("shift vector length mismatch")
    return CubicData.from_poly(F.substitute_affine(h, np.eye(F.n, dtype=int).tolist()) - F)


def weyl_difference(F: IntPolynomial, level: int, points) -> IntPolynomial:
    """The multi-difference of F along `points`, as a polynomial in z: G <- G(z + h_t) - G for each h_t in turn.

    level 1 gives F(z+w) - F(z); level 3 gives the eight-term alternating sum
    which is affine-linear in z with linear coefficients the trilinear forms.
    """
    if level not in (1, 2, 3):
        raise ValueError("level must be 1, 2 or 3")
    if len(points) != level:
        raise DimensionMismatch(f"need exactly {level} shift vectors")
    for pt in points:
        if len(pt) != F.n:
            raise DimensionMismatch("shift vector length mismatch")
        F = F.substitute_affine(pt, np.eye(F.n, dtype=int).tolist()) - F
    return F


# -- heights -----------------------------------------------------------------------


def heights(g: IntPolynomial, P: int):
    """(||g||, ||g||_P) with ||g||_P = ||P^-3 g(P x)|| as an exact Fraction."""
    if P < 1:
        raise ValueError("P must be >= 1")
    h = g.height()
    hP = Fraction(0)
    for e, c in g.coeffs.items():
        hP = max(hP, Fraction(abs(c)) * Fraction(P) ** (sum(e) - 3))
    return h, hP


# -- bounded memos -------------------------------------------------------------------


class LRUCache(OrderedDict):
    """A memo that drops its least recently used entries once it holds more than `bound`.

    `size(value)` is what one entry counts towards the bound (1 by default) and
    `held` is the running total, so a store costs O(1) amortised.  A value
    larger than the whole bound is returned but not kept.
    """

    def __init__(self, bound: int, size=None):
        super().__init__()
        self.bound, self.held = bound, 0
        self.size = size or (lambda value: 1)

    def lookup(self, key):
        """The value stored at key, now the most recently used, or None."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def store(self, key, value):
        """Keep value at a key not held yet, evicting the oldest entries past the bound; returns value."""
        size = self.size(value)
        if size <= self.bound:
            self[key] = value
            self.held += size
            while self.held > self.bound:
                self.held -= self.size(self.popitem(last=False)[1])
        return value

    def clear(self):
        super().clear()
        self.held = 0
