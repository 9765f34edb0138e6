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

Each jet tracks `valid`, the truncation order up to which its coefficients are
trustworthy. Differentiation lowers it by one; binary operations take the
minimum. Coefficients above `valid` are kept at exactly zero, and extraction
beyond `valid` raises instead of returning silently wrong numbers.

Products compute only up to their valid order. Coefficients are stored in
graded order, so those of degree <= v form a prefix, and the coefficient
pairs that multiply into that prefix form a prefix of the target-sorted pair
table. A product of jets valid to v sums only those pairs and writes zeros
above the prefix; the storage shape stays `ncoeff` whatever v is.
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
        self.degree = np.array([sum(a) for a in self.multi_indices])
        # boolean masks selecting coefficients of degree <= o
        self.mask_le = [self.degree <= o for o in range(order + 1)]
        self._build_product_table()
        self._build_derivative_table()

    def _build_product_table(self) -> None:
        # Unordered coefficient pairs {i, j} (i <= j) with deg(i)+deg(j) <=
        # order, grouped by the target index of alpha_i + alpha_j. Keeping
        # pairs unordered and weighting the diagonal by 1/2 makes jet
        # multiplication exactly commutative at the bit level.
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
        starts.append(len(pi))
        pi, pj, w = np.array(pi), np.array(pj), np.array(w)
        # The table truncated at each valid order v: the first n targets are
        # those of degree <= v, and their pairs come first. Entry v holds
        # (pi, pj, weights, segment starts, n).
        self._pairs_le = []
        for v in range(self.order + 1):
            n = int(self.mask_le[v].sum())
            k = starts[n]
            self._pairs_le.append((pi[:k], pj[:k], w[:k], np.array(starts[:n]), n))

    def _build_derivative_table(self) -> None:
        # (d_a f)_alpha = (alpha_a + 1) * f_{alpha + e_a}
        nv, nc = self.nvars, self.ncoeff
        src = np.zeros((nv, nc), dtype=int)
        fac = np.zeros((nv, nc))
        for a in range(nv):
            for k, alpha in enumerate(self.multi_indices):
                up = list(alpha)
                up[a] += 1
                idx = self.index_of.get(tuple(up))
                if idx is not None:
                    src[a, k] = idx
                    fac[a, k] = alpha[a] + 1
        self._dsrc = src
        self._dfac = fac

    # -- constructors ------------------------------------------------------

    def constant(self, value) -> Jet:
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (self.ncoeff,))
        c[..., 0] = value
        return Jet(self, c, self.order)

    def variable(self, a: int, value) -> Jet:
        if not 0 <= a < self.nvars:
            raise ValueError(f"variable index {a} out of range")
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (self.ncoeff,))
        c[..., 0] = value
        e_a = tuple(1 if v == a else 0 for v in range(self.nvars))
        if self.order >= 1:
            c[..., self.index_of[e_a]] = 1.0
        return Jet(self, c, self.order)

    def variables(self, point) -> list[Jet]:
        point = np.asarray(point, dtype=float)
        return [self.variable(a, point[..., a]) for a in range(self.nvars)]

    def __repr__(self) -> str:
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


@lru_cache(maxsize=None)
def get_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


def _trim(space: JetSpace, coeffs: np.ndarray, valid: int) -> np.ndarray:
    if valid < space.order:
        coeffs = coeffs * space.mask_le[valid]
    return coeffs


def _pad(space: JetSpace, low: np.ndarray, n: int) -> np.ndarray:
    """Full coefficient array from its first n coefficients; the rest zero."""
    if n == space.ncoeff:
        return low
    out = np.zeros(low.shape[:-1] + (space.ncoeff,))
    out[..., :n] = low
    return out


class Jet:
    """Taylor coefficients with arbitrary leading (batch/tensor) shape."""

    __slots__ = ("space", "coeffs", "valid")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, valid: int):
        if valid < 0:
            raise ValueError("jet differentiated beyond its valid order")
        self.space = space
        self.coeffs = coeffs
        self.valid = valid

    # -- views -------------------------------------------------------------

    @property
    def val(self) -> np.ndarray:
        """Order-zero part: the plain value of the function."""
        return self.coeffs[..., 0]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[:-1]

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
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jets from different spaces")
            return other
        return self.space.constant(other)

    def __add__(self, other) -> Jet:
        o = self._coerce(other)
        v = min(self.valid, o.valid)
        return Jet(self.space, _trim(self.space, self.coeffs + o.coeffs, v), v)

    __radd__ = __add__

    def __sub__(self, other) -> Jet:
        o = self._coerce(other)
        v = min(self.valid, o.valid)
        return Jet(self.space, _trim(self.space, self.coeffs - o.coeffs, v), v)

    def __rsub__(self, other) -> Jet:
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> Jet:
        return Jet(self.space, -self.coeffs, self.valid)

    def __mul__(self, other) -> Jet:
        if not isinstance(other, Jet):
            # scalar / plain-array factor scales every coefficient
            arr = np.asarray(other, dtype=float)
            return Jet(self.space, self.coeffs * arr[..., None], self.valid)
        o = self._coerce(other)
        sp = self.space
        v = min(self.valid, o.valid)
        pi, pj, pw, starts, n = sp._pairs_le[v]
        a, b = self.coeffs, o.coeffs
        prod = pw * (a[..., pi] * b[..., pj] + a[..., pj] * b[..., pi])
        return Jet(sp, _pad(sp, np.add.reduceat(prod, starts, axis=-1), n), v)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Jet:
        if not isinstance(other, Jet):
            arr = np.asarray(other, dtype=float)
            return Jet(self.space, self.coeffs / arr[..., None], self.valid)
        return self * _reciprocal(other)

    def __rtruediv__(self, other) -> Jet:
        return self._coerce(other) * _reciprocal(self)

    # -- calculus ----------------------------------------------------------

    def d(self, a: int) -> Jet:
        """Derivative with respect to variable a; valid order drops by one."""
        sp = self.space
        v = self.valid - 1
        fac = sp._dfac[a] if v >= sp.order else sp._dfac[a] * sp.mask_le[v]
        return Jet(sp, self.coeffs[..., sp._dsrc[a]] * fac, v)

    def truncated(self) -> Jet:
        """The same jet in the space of its valid order. Its coefficients
        above valid are zero and, in graded order, follow all the others,
        so dropping them keeps every coefficient that counts."""
        sp = get_space(self.space.nvars, self.valid)
        return Jet(sp, np.ascontiguousarray(self.coeffs[..., : sp.ncoeff]), self.valid)

    # -- structure ---------------------------------------------------------

    def __getitem__(self, idx) -> Jet:
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.space, self.coeffs[idx + (slice(None),)], self.valid)

    def swapaxes(self, a: int, b: int) -> Jet:
        # axes count within the leading shape; the coefficient axis is fixed
        a = a if a >= 0 else a - 1
        b = b if b >= 0 else b - 1
        return Jet(self.space, np.swapaxes(self.coeffs, a, b), self.valid)

    def transpose(self, *perm: int) -> Jet:
        """Permute the last len(perm) leading (tensor) axes; any batch axes
        before them and the coefficient axis stay where they are."""
        nb = self.coeffs.ndim - 1 - len(perm)
        if nb < 0 or sorted(perm) != list(range(len(perm))):
            raise ValueError("permutation must cover the tensor axes")
        axes = tuple(range(nb)) + tuple(nb + k for k in perm) + (self.coeffs.ndim - 1,)
        return Jet(self.space, np.transpose(self.coeffs, axes), self.valid)

    def t(self) -> Jet:
        """Transpose the last two leading (tensor) axes."""
        return Jet(self.space, np.swapaxes(self.coeffs, -3, -2), self.valid)

    def sum(self, axis: int) -> Jet:
        axis = axis if axis >= 0 else axis - 1
        return Jet(self.space, self.coeffs.sum(axis=axis), self.valid)

    def __repr__(self) -> str:
        return f"Jet(shape={self.shape}, order={self.space.order}, valid={self.valid})"


def jstack(jets: list[Jet], axis: int = -1) -> Jet:
    """Stack jets along a new leading axis; their shapes broadcast first, so
    a constant stacks with a batch of points."""
    sp = jets[0].space
    v = min(j.valid for j in jets)
    axis = axis if axis >= 0 else axis - 1
    cs = [j.coeffs for j in jets]
    if len({c.shape for c in cs}) > 1:
        cs = np.broadcast_arrays(*cs)
    c = np.stack(cs, axis=axis)
    if any(j.valid > v for j in jets):  # coefficients above a jet's valid are zero already
        c = _trim(sp, c, v)
    return Jet(sp, c, v)


def jet_einsum(sub: str, a, b) -> Jet:
    """Two-operand einsum where either operand may be a Jet.

    The subscripts are plain einsum subscripts over the leading axes; the
    coefficient axis is handled internally (Cauchy product when both operands
    are jets).
    """
    lhs, rhs = sub.split("->")
    sa, sb = lhs.split(",")
    if isinstance(a, Jet) and isinstance(b, Jet):
        if a.space is not b.space:
            raise ValueError("jets from different spaces")
        sp = a.space
        v = min(a.valid, b.valid)
        pi, pj, pw, starts, n = sp._pairs_le[v]
        pair_sub = f"{sa}P,{sb}P->{rhs}P"
        prod = pw * np.einsum(pair_sub, a.coeffs[..., pi], b.coeffs[..., pj])
        prod += pw * np.einsum(pair_sub, a.coeffs[..., pj], b.coeffs[..., pi])
        return Jet(sp, _pad(sp, np.add.reduceat(prod, starts, axis=-1), n), v)
    if isinstance(a, Jet):
        out = np.einsum(f"{sa}P,{sb}->{rhs}P", a.coeffs, np.asarray(b, dtype=float))
        return Jet(a.space, out, a.valid)
    if isinstance(b, Jet):
        out = np.einsum(f"{sa},{sb}P->{rhs}P", np.asarray(a, dtype=float), b.coeffs)
        return Jet(b.space, out, b.valid)
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
        X = Jet(X.space, X.coeffs.reshape(lift + X.coeffs.shape[-1:]), X.valid)
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
    a matrix when it has as many; the batch axes of both lead.
    """
    a0 = a.val
    b0inv = np.linalg.inv(a0)
    n = a - a.space.constant(a0)
    # (a0 + n)^{-1} = sum_k (-a0^{-1} n)^k a0^{-1}
    term = a.space.constant(b0inv)
    inv = term
    for _ in range(a.valid):
        term = jet_matmul(jet_matmul(a.space.constant(-b0inv), n), term)
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
    out.valid = jet.valid
    out.coeffs = _trim(sp, out.coeffs, jet.valid)
    return out


def _series(jet: Jet, table) -> Jet:
    c0 = jet.val
    K = jet.valid
    return _horner(jet, table(c0, K))


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
    usp = phi.space
    N = xsp.nvars
    if phi.shape[-1] != N:
        raise ValueError("inner jet count must match the outer space dimension")
    batch = phi.shape[:-1]
    if xjet.shape[: len(batch)] != batch:
        raise ValueError("outer jet must lead with the inner jets' batch axes")
    delta = phi - usp.constant(np.asarray(x0, dtype=float))
    v = min(xjet.valid, phi.valid)
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
    return Jet(usp, _trim(usp, out, v), v)
