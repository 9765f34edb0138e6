"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A jet stores the Taylor coefficients f_alpha = (d^alpha f)/alpha! of a smooth
function at a point, for every multi-index alpha with |alpha| <= order. All
arithmetic is exact truncated-polynomial arithmetic, so derivatives extracted
from jets are exact up to floating point roundoff (no finite differencing).

Coefficients live in the trailing axis of an ndarray, so a jet can carry any
leading shape: a batch of evaluation points, tensor indices, or both. Every
operation is vectorized over the leading axes. Batch axes come first, tensor
axes after them: a (d, d) matrix jet at n points has shape (n, d, d), and the
subscripts of jet_einsum start with `...` to pass the batch axes through.
Where two operands meet, their batch axes are the same or absent (a constant
broadcasts). A single point is the batch shape ().

A jet is stored in the space of its order and holds exactly the coefficients
that are exact: those with |alpha| <= space.order. `valid` is that order.
Differentiation moves a jet to the space one order lower, and extraction
beyond the order raises instead of returning silently wrong numbers. Where
jets of different orders meet (a binary operation, jstack, jet_einsum), the
higher-order one is first cut to the lower order. Coefficients are stored in
graded order, so the cut is a prefix slice.

A jet x jet product (`*`, and jet_einsum on two jets) runs over the product
table of the space it lands in. The table lists the P unordered coefficient
pairs (i, j), i <= j, whose degrees sum to at most the order, grouped by
target, and then the same P pairs swapped. Each operand is gathered once
over these 2P ordered pairs, one elementwise product or one einsum forms
their terms e, and the coefficients are w * (e[:P] + e[P:]) summed by
target, with the weight w = 1/2 on the diagonal i == j and 1 elsewhere.
Swapping the operands swaps the two halves of e, floating-point addition
commutes, and w scales exactly, so a * b and b * a agree to the last bit.

Where every target has exactly one pair (the tables of orders 0 and 1:
the pairs (0, k)), the sum by target adds nothing, and the weighted terms
are the coefficients: np.add.reduceat is skipped. An order-0 `*` is the
product of the values, which is what its doubled and halved pair gives.
These results are laid out C-contiguous, as reduceat lays out its sum when
the operands' leading axes are in C order: an elementwise result would keep
the strides of e, where the pair axis is often the slowest, and a later
einsum over it would sum in another order and round differently. An
order-0 jet_einsum keeps its doubled pair axis: one einsum over the
coefficient axis of size 1 rounds some sums differently, too.

jet_solve(a, b) lands in the lower of the two orders: a right-hand side jet
b of lower order cuts a to b's order before the inverse of a is built, so
no coefficient of the inverse above the result's order is formed (an array
b keeps a's order). A coefficient of degree k never reads a higher one, so
the result equals the full-order solve cut to that order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

__all__ = [
    "JetSpace",
    "Jet",
    "get_space",
    "jstack",
    "jet_einsum",
    "jet_along",
    "jet_matmul",
    "jet_matvec",
    "jet_dot",
    "jet_solve",
    "jet_inv",
    "jet_pullback",
    "jsqrt",
    "jexp",
    "jlog",
    "jsin",
    "jcos",
    "jsinh",
    "jcosh",
    "jpow_int",
    "jpow_real",
]


def _multi_indices(nvars: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= order, graded, lex within a grade."""
    out = []
    for total in range(order + 1):
        for combo in combinations_with_replacement(range(nvars), total):
            alpha = [0] * nvars
            for v in combo:
                alpha[v] += 1
            out.append(tuple(alpha))
    return out


class JetSpace:
    """Shared tables for jets in `nvars` variables truncated at `order`."""

    def __init__(self, nvars: int, order: int):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.nvars = nvars
        self.order = order
        self.multi_indices = _multi_indices(nvars, order)
        self.ncoeff = len(self.multi_indices)
        self.index_of = {a: k for k, a in enumerate(self.multi_indices)}
        self._build_product_table()
        self._build_derivative_table()

    def _build_product_table(self) -> None:
        # The P unordered coefficient pairs (i, j), i <= j, with deg(i) +
        # deg(j) <= order, grouped by the target index of alpha_i + alpha_j,
        # then the same P pairs swapped, (j, i): the ordered pairs over which
        # a product gathers each operand once (see the module docstring for
        # why the product stays exactly commutative).
        by_target: dict[int, list[tuple[int, int]]] = {}
        for i, a in enumerate(self.multi_indices):
            da = sum(a)
            for j in range(i, self.ncoeff):
                b = self.multi_indices[j]
                if da + sum(b) > self.order:
                    continue
                tgt = self.index_of[tuple(x + y for x, y in zip(a, b))]
                by_target.setdefault(tgt, []).append((i, j))
        pi, pj, w, starts = [], [], [], []
        for k in range(self.ncoeff):
            starts.append(len(pi))
            for i, j in sorted(by_target[k]):
                pi.append(i)
                pj.append(j)
                w.append(0.5 if i == j else 1.0)
        # (left index, right index, weight of each unordered pair, segment
        # start of each target); the indices run over the 2P ordered pairs
        self._product = (np.array(pi + pj), np.array(pj + pi), np.array(w), np.array(starts))

    def _build_derivative_table(self) -> None:
        # (d_a f)_alpha = (alpha_a + 1) * f_{alpha + e_a}, for the alpha of
        # degree < order: the coefficients of the space one order lower
        lower = [alpha for alpha in self.multi_indices if sum(alpha) < self.order]
        src = np.zeros((self.nvars, len(lower)), dtype=int)
        fac = np.zeros((self.nvars, len(lower)))
        for a in range(self.nvars):
            for k, alpha in enumerate(lower):
                up = list(alpha)
                up[a] += 1
                src[a, k] = self.index_of[tuple(up)]
                fac[a, k] = alpha[a] + 1
        self._dsrc = src
        self._dfac = fac

    # -- constructors ------------------------------------------------------

    def constant(self, value) -> Jet:
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (self.ncoeff,))
        c[..., 0] = value
        return Jet(self, c)

    def variable(self, a: int, value) -> Jet:
        if not 0 <= a < self.nvars:
            raise ValueError(f"variable index {a} out of range")
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (self.ncoeff,))
        c[..., 0] = value
        e_a = tuple(1 if v == a else 0 for v in range(self.nvars))
        if self.order >= 1:
            c[..., self.index_of[e_a]] = 1.0
        return Jet(self, c)

    def variables(self, point) -> list[Jet]:
        point = np.asarray(point, dtype=float)
        return [self.variable(a, point[..., a]) for a in range(self.nvars)]

    def __repr__(self) -> str:
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


@lru_cache(maxsize=None)
def get_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


def _lowest(jets) -> JetSpace:
    """The space jets are cut to before they combine: the lowest order among
    them. Jets in different numbers of variables do not combine."""
    sp = jets[0].space
    for j in jets[1:]:
        if j.space is not sp:
            if j.space.nvars != sp.nvars:
                raise ValueError("jets in different numbers of variables")
            if j.space.order < sp.order:
                sp = j.space
    return sp


def _cut(jet: Jet, sp: JetSpace) -> np.ndarray:
    """The jet's coefficients up to sp.order: in graded order, a prefix."""
    return jet.coeffs if jet.space is sp else jet.coeffs[..., : sp.ncoeff]


def _common(a: Jet, b: Jet) -> tuple[JetSpace, np.ndarray, np.ndarray]:
    """Two jets' common space and their coefficients cut to it."""
    if a.space is b.space:
        return a.space, a.coeffs, b.coeffs
    sp = _lowest((a, b))
    return sp, _cut(a, sp), _cut(b, sp)


def _pair_sum(e: np.ndarray, pw: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Coefficients of a product from its terms e (..., 2P) over the ordered
    pair table: the two orders of each pair weighted, then summed by target;
    a table with one pair per target needs no sum (see the module docstring)."""
    P = pw.shape[0]
    terms = e[..., :P] + e[..., P:]
    if len(starts) == P:
        return np.multiply(pw, terms, order="C")
    # weighted in place: a second array of terms would be live during the sum
    terms *= pw
    return np.add.reduceat(terms, starts, axis=-1)


class Jet:
    """Taylor coefficients with arbitrary leading (batch/tensor) shape."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = coeffs

    # -- views -------------------------------------------------------------

    @property
    def valid(self) -> int:
        """The truncation order: every stored coefficient is exact."""
        return self.space.order

    @property
    def val(self) -> np.ndarray:
        """Order-zero part: the plain value of the function."""
        return self.coeffs[..., 0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[:-1]

    def cut(self, order: int) -> Jet:
        """The same jet truncated to order, at most its valid order: a prefix
        of its coefficients in get_space(nvars, order)."""
        if not 0 <= order <= self.valid:
            raise ValueError(f"cannot cut a jet valid to order {self.valid} to order {order}")
        sp = get_space(self.space.nvars, order)
        return Jet(sp, _cut(self, sp))

    def tcoef(self, alpha) -> np.ndarray:
        """Taylor coefficient for multi-index alpha (= partial / alpha!)."""
        alpha = tuple(alpha)
        if sum(alpha) > self.valid:
            raise ValueError(
                f"coefficient of order {sum(alpha)} requested from a jet "
                f"valid only to order {self.valid}"
            )
        return self.coeffs[..., self.space.index_of[alpha]]

    def partial(self, alpha) -> np.ndarray:
        """Exact partial derivative d^alpha f at the expansion point."""
        alpha = tuple(alpha)
        fac = 1.0
        for k in alpha:
            fac *= math.factorial(k)
        return self.tcoef(alpha) * fac

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Jet:
        return other if isinstance(other, Jet) else self.space.constant(other)

    def __add__(self, other) -> Jet:
        sp, a, b = _common(self, self._coerce(other))
        return Jet(sp, a + b)

    __radd__ = __add__

    def __sub__(self, other) -> Jet:
        sp, a, b = _common(self, self._coerce(other))
        return Jet(sp, a - b)

    def __rsub__(self, other) -> Jet:
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> Jet:
        return Jet(self.space, -self.coeffs)

    def __mul__(self, other) -> Jet:
        if not isinstance(other, Jet):
            # scalar / plain-array factor scales every coefficient
            arr = np.asarray(other, dtype=float)
            return Jet(self.space, self.coeffs * arr[..., None])
        sp, a, b = _common(self, other)
        if sp.order == 0:
            # one coefficient: the product of the values
            return Jet(sp, np.multiply(a, b, order="C"))
        left, right, pw, starts = sp._product
        e = a[..., left] * b[..., right]
        return Jet(sp, _pair_sum(e, pw, starts))

    __rmul__ = __mul__

    def __truediv__(self, other) -> Jet:
        if not isinstance(other, Jet):
            arr = np.asarray(other, dtype=float)
            return Jet(self.space, self.coeffs / arr[..., None])
        return self * _reciprocal(other)

    def __rtruediv__(self, other) -> Jet:
        return self._coerce(other) * _reciprocal(self)

    # -- calculus ----------------------------------------------------------

    def d(self, a: int) -> Jet:
        """Derivative with respect to variable a, in the space one order lower."""
        sp = self.space
        if sp.order == 0:
            raise ValueError("jet differentiated beyond its valid order")
        return Jet(get_space(sp.nvars, sp.order - 1), self.coeffs[..., sp._dsrc[a]] * sp._dfac[a])

    # -- structure ---------------------------------------------------------

    def __getitem__(self, idx) -> Jet:
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.space, self.coeffs[idx + (slice(None),)])

    def transpose(self, *perm: int) -> Jet:
        """Permute the last len(perm) leading (tensor) axes; any batch axes
        before them and the coefficient axis stay where they are."""
        nb = self.coeffs.ndim - 1 - len(perm)
        if nb < 0 or sorted(perm) != list(range(len(perm))):
            raise ValueError("permutation must cover the tensor axes")
        axes = tuple(range(nb)) + tuple(nb + k for k in perm) + (self.coeffs.ndim - 1,)
        return Jet(self.space, np.transpose(self.coeffs, axes))

    def sum(self, axis: int) -> Jet:
        axis = axis if axis >= 0 else axis - 1
        return Jet(self.space, self.coeffs.sum(axis=axis))

    def __repr__(self) -> str:
        return f"Jet(shape={self.shape}, order={self.space.order})"


def jstack(jets: list[Jet], axis: int = -1) -> Jet:
    """Stack jets along a new leading axis, in the space of the lowest order
    among them; their shapes broadcast first, so a constant stacks with a
    batch of points."""
    sp = _lowest(jets)
    axis = axis if axis >= 0 else axis - 1
    cs = [_cut(j, sp) for j in jets]
    if len({c.shape for c in cs}) > 1:
        cs = np.broadcast_arrays(*cs)
    return Jet(sp, np.stack(cs, axis=axis))


@lru_cache(maxsize=256)
def _einsum_subscripts(sub: str) -> tuple[str, str, str]:
    """The einsum strings of sub for jet x jet, jet x array and array x jet;
    the trailing P is the pair or the coefficient axis."""
    lhs, rhs = sub.split("->")
    sa, sb = lhs.split(",")
    return f"{sa}P,{sb}P->{rhs}P", f"{sa}P,{sb}->{rhs}P", f"{sa},{sb}P->{rhs}P"


def jet_einsum(sub: str, a, b) -> Jet:
    """Two-operand einsum where either operand may be a Jet.

    The subscripts are plain einsum subscripts over the leading axes; the
    coefficient axis is handled internally (Cauchy product when both operands
    are jets).
    """
    jet_jet, jet_arr, arr_jet = _einsum_subscripts(sub)
    if isinstance(a, Jet) and isinstance(b, Jet):
        sp, ca, cb = _common(a, b)
        left, right, pw, starts = sp._product
        e = np.einsum(jet_jet, ca[..., left], cb[..., right])
        return Jet(sp, _pair_sum(e, pw, starts))
    if isinstance(a, Jet):
        return Jet(a.space, np.einsum(jet_arr, a.coeffs, np.asarray(b, dtype=float)))
    if isinstance(b, Jet):
        return Jet(b.space, np.einsum(arr_jet, np.asarray(a, dtype=float), b.coeffs))
    raise TypeError("at least one operand must be a Jet")


def jet_along(X, F: Jet) -> Jet:
    """Directional derivative sum_a X^a d_a F of any jet F.

    X holds one coefficient per variable along its last axis: a jet field,
    or a plain array for a constant direction (then the product is
    jet-by-array). Its other axes are batch axes, and F leads with the same
    ones (an unbatched X is one direction for every point of F). The result
    is valid to min(X.valid, F.valid - 1), or F.valid - 1 for an array.
    """
    dF = jstack([F.d(a) for a in range(F.space.nvars)], axis=-1)
    shape = X.shape if isinstance(X, Jet) else np.shape(X)
    # X's batch axes, then one unit axis per tensor axis of F, then a
    lift = shape[:-1] + (1,) * (len(F.shape) + 1 - len(shape)) + shape[-1:]
    if isinstance(X, Jet):
        X = Jet(X.space, X.coeffs.reshape(lift + X.coeffs.shape[-1:]))
    else:
        X = np.reshape(X, lift)
    return jet_einsum("...a,...a->...", X, dF)


def jet_matmul(a, b) -> Jet:
    """Matrix product over the last two leading axes."""
    return jet_einsum("...ik,...kj->...ij", a, b)


def jet_matvec(a, v) -> Jet:
    return jet_einsum("...ik,...k->...i", a, v)


def jet_dot(u, v) -> Jet:
    return jet_einsum("...k,...k->...", u, v)


def jet_solve(a: Jet, b) -> Jet:
    """Solve a @ x = b for jet-valued square a (LU on the value part plus a
    terminating Neumann series in the nilpotent remainder).

    b, a jet or an array, is a vector when it has one axis fewer than a and
    a matrix when it has as many; the batch axes of both lead. The result
    lands in the lower of the two orders: a jet b of lower order cuts a to
    b's order first, and an array b keeps a's order.
    """
    if isinstance(b, Jet) and b.space.order < a.space.order:
        a = a.cut(b.space.order)
    a0 = a.val
    b0inv = np.linalg.inv(a0)
    n = a - a.space.constant(a0)
    # (a0 + n)^{-1} = sum_k (-a0^{-1} n)^k a0^{-1}
    term = a.space.constant(b0inv)
    inv = term
    for _ in range(a.space.order):
        term = jet_matmul(jet_matmul(-b0inv, n), term)
        inv = inv + term
    b_ndim = len(b.shape) if isinstance(b, Jet) else np.ndim(b)
    if b_ndim == len(a.shape):
        return jet_matmul(inv, b)
    return jet_matvec(inv, b)


def jet_inv(a: Jet) -> Jet:
    """Inverse of a jet-valued square matrix."""
    eye = np.broadcast_to(np.eye(a.shape[-1]), a.shape[:-2] + (a.shape[-1], a.shape[-1]))
    return jet_solve(a, np.array(eye))


# -- scalar elementary functions ------------------------------------------


def _horner(jet: Jet, dcoef: np.ndarray) -> Jet:
    """Evaluate sum_k dcoef[k] (jet - jet.val)^k with Horner's rule."""
    sp = jet.space
    h = jet - sp.constant(jet.val)
    K = dcoef.shape[0] - 1
    out = sp.constant(dcoef[K])
    for k in range(K - 1, -1, -1):
        out = out * h + sp.constant(dcoef[k])
    return out


def _series(jet: Jet, table) -> Jet:
    return _horner(jet, table(jet.val, jet.space.order))


def _reciprocal(jet: Jet) -> Jet:
    def table(c, K):
        return np.array([(-1.0) ** k / c ** (k + 1) for k in range(K + 1)])

    return _series(jet, table)


def jexp(jet: Jet) -> Jet:
    def table(c, K):
        e = np.exp(c)
        return np.array([e / math.factorial(k) for k in range(K + 1)])

    return _series(jet, table)


def jlog(jet: Jet) -> Jet:
    def table(c, K):
        rows = [np.log(c)]
        for k in range(1, K + 1):
            rows.append((-1.0) ** (k + 1) / (k * c**k))
        return np.array([np.broadcast_to(r, np.shape(c)) for r in rows])

    return _series(jet, table)


def jsqrt(jet: Jet) -> Jet:
    return jpow_real(jet, 0.5)


def jpow_real(jet: Jet, r: float) -> Jet:
    def table(c, K):
        rows = []
        binom = 1.0
        for k in range(K + 1):
            if k > 0:
                binom *= (r - (k - 1)) / k
            rows.append(binom * c ** (r - k))
        return np.array([np.broadcast_to(row, np.shape(c)) for row in rows])

    return _series(jet, table)


def jpow_int(jet: Jet, n: int) -> Jet:
    if n == 0:
        return jet.space.constant(np.ones(jet.shape))
    if n < 0:
        return _reciprocal(jpow_int(jet, -n))
    out = None
    base = jet
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return out


def jsin(jet: Jet) -> Jet:
    def table(c, K):
        s, co = np.sin(c), np.cos(c)
        cycle = [s, co, -s, -co]
        return np.array([cycle[k % 4] / math.factorial(k) for k in range(K + 1)])

    return _series(jet, table)


def jcos(jet: Jet) -> Jet:
    def table(c, K):
        s, co = np.sin(c), np.cos(c)
        cycle = [co, -s, -co, s]
        return np.array([cycle[k % 4] / math.factorial(k) for k in range(K + 1)])

    return _series(jet, table)


def jsinh(jet: Jet) -> Jet:
    def table(c, K):
        s, co = np.sinh(c), np.cosh(c)
        cycle = [s, co]
        return np.array([cycle[k % 2] / math.factorial(k) for k in range(K + 1)])

    return _series(jet, table)


def jcosh(jet: Jet) -> Jet:
    def table(c, K):
        s, co = np.sinh(c), np.cosh(c)
        cycle = [co, s]
        return np.array([cycle[k % 2] / math.factorial(k) for k in range(K + 1)])

    return _series(jet, table)


# -- composition -----------------------------------------------------------


def jet_pullback(xjet: Jet, phi: Jet, x0: np.ndarray) -> Jet:
    """Compose an outer jet (expanded in x at x0) with inner jets phi(u).

    `phi` holds the N inner functions along its last axis, expanded in u,
    with phi.val == x0; its other axes are batch axes. `xjet` holds Taylor
    data of a quantity Q in an x-space of dimension N, one expansion per
    batch point: its leading axes are phi's batch axes, then Q's tensor
    axes. Returns Q(phi(u)) as a u-space jet of the same leading shape.
    """
    xsp = xjet.space
    N = xsp.nvars
    if phi.shape[-1] != N:
        raise ValueError("inner jet count must match the outer space dimension")
    batch = phi.shape[:-1]
    if xjet.shape[: len(batch)] != batch:
        raise ValueError("outer jet must lead with the inner jets' batch axes")
    v = min(xsp.order, phi.space.order)
    usp = get_space(phi.space.nvars, v)
    delta = phi - usp.constant(np.asarray(x0, dtype=float))  # cut to order v
    deltas = [delta[..., a] for a in range(N)]
    # power products of delta follow the graded enumeration of x multi-indices,
    # so the ones of degree <= v come first
    powers: dict[tuple[int, ...], Jet] = {}
    cols = []
    for alpha in xsp.multi_indices:
        if sum(alpha) > v:
            break
        if sum(alpha) == 0:
            powers[alpha] = usp.constant(np.ones(batch))
        else:
            a = next(i for i, m in enumerate(alpha) if m > 0)
            down = list(alpha)
            down[a] -= 1
            powers[alpha] = powers[tuple(down)] * deltas[a]
        cols.append(powers[alpha])
    K = len(cols)
    pw = jstack(cols, axis=-1).coeffs  # (batch..., K, u-coefficients)
    tensor = xjet.shape[len(batch):]
    coef = xjet.coeffs[..., :K].reshape(batch + (-1, K))
    out = np.einsum("...kc,...tk->...tc", pw, coef).reshape(batch + tensor + (usp.ncoeff,))
    return Jet(usp, out)
