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
broadcasts). A single point is the batch shape (). A stack of directions,
evaluated in one call, is one more set of axes ahead of the batch axes:
where an operand without them meets one with them, the `...` of jet_einsum
broadcasts it, and broadcast_to lifts a jet to them where two operands are
aligned by counting axes (jet_along, and jet_solve's vector/matrix rule).

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
their terms e, and the coefficients are e[:P] + e[P:] off the diagonal and
e[:P] on it (i == j), summed by target. Swapping the operands swaps the two
halves of e, floating-point addition commutes, and the two halves of a
diagonal pair are the same product, equal to the last bit, so a * b and
b * a agree to the last bit. Keeping the first half is (e + e) * 0.5 for
every finite e, subnormals included, except where e + e overflows (|e|
above half the largest double, 8.99e307): there the coefficient stays
finite where the halved sum was inf.

Where every target has exactly one pair (the tables of orders 0 and 1:
the pairs (0, k)), the sum by target adds nothing, and the terms are the
coefficients: np.add.reduceat is skipped. An order-0 `*` is the product of
the values, which is what its one pair gives. These results are laid out
C-contiguous, as reduceat lays out its sum when the operands' leading axes
are in C order: an elementwise result would keep the strides of e, where
the pair axis is often the slowest, and a later einsum over it would sum in
another order and round differently.

An order-0 jet_einsum forms the pair (0, 0) alone, not the pair and its
swap. Each operand's value slice c[..., :1] is copied in its own memory
order (copy(order="K")), the layout of one half of the doubled gather
c[..., [0, 0]]; the einsum runs over that size-1 pair axis in numpy's
default output order, and its result is copied C-contiguous. An einsum sums
in an order its operands' strides fix, so this sums as the einsum over the
doubled gather did, and gives its first half to the last bit, for every
pairing of operand layouts the tests try. An einsum on the strided .val, on
C-order copies, or asked for a C-order output sums some contractions in
another order and rounds them differently. Every einsum of jet_einsum is
numpy's c_einsum, the function np.einsum calls when it is not asked to
optimize, so each call skips np.einsum's Python wrapper and its argument
dispatch.

The elementary functions are Taylor series in jet - jet.val, summed by
Horner's rule. Each step, out * h + constant(c), adds the constant in place
into the product, a fresh array, from one array holding every step's
constant, and h is a copy of the jet with its value subtracted in place:
the same floating-point operations as adding and subtracting constant jets,
so the same bits, without a constant jet made per step. jet_solve's Neumann
step subtracts its value in place alike.

Jet.grad(axis) stacks every derivative d_a of a jet along a new axis from
one gather: jstack of the Jet.d in values and in strides. The Christoffel
and curvature jets (ambient), a frame's Jacobian (submanifold) and jet_along
take their derivative stacks from it.

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
from numpy._core.multiarray import c_einsum
from numpy.lib.array_utils import normalize_axis_index

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
        pi, pj, starts = [], [], []
        for k in range(self.ncoeff):
            starts.append(len(pi))
            for i, j in sorted(by_target[k]):
                pi.append(i)
                pj.append(j)
        # (left index, right index, whether each unordered pair is off the
        # diagonal i == j, segment start of each target); the indices run
        # over the 2P ordered pairs
        self._product = (np.array(pi + pj), np.array(pj + pi), np.array(pi) != np.array(pj), np.array(starts))

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
        """The nvars variable jets at the points (..., nvars): each as
        variable(a, point[..., a]) gives it, C-contiguous, all of them views
        of one array filled at once."""
        point = np.asarray(point, dtype=float)
        if point.shape[-1:] < (self.nvars,):
            raise ValueError(f"a point needs {self.nvars} coordinates, got shape {point.shape}")
        c = np.zeros((self.nvars,) + point.shape[:-1] + (self.ncoeff,))
        c[..., 0] = point[..., : self.nvars].transpose((-1,) + tuple(range(point.ndim - 1)))
        if self.order >= 1:
            # the degree-1 coefficients follow the value, one per variable
            c[np.arange(self.nvars), ..., np.arange(1, self.nvars + 1)] = 1.0
        return [Jet(self, c[a]) for a in range(self.nvars)]

    def __repr__(self) -> str:
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


@lru_cache(maxsize=None)
def get_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


def _lower(sp: JetSpace) -> JetSpace:
    """The space one order below sp, where a derivative lands."""
    if sp.order == 0:
        raise ValueError("jet differentiated beyond its valid order")
    return get_space(sp.nvars, sp.order - 1)


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


def _pair_sum(e: np.ndarray, offdiag: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Coefficients of a product from its terms e (..., 2P) over the ordered
    pair table: the two orders of each pair added off the diagonal, the first
    kept on it, then summed by target; a table with one pair per target
    needs no sum (see the module docstring)."""
    P = offdiag.shape[0]
    one = len(starts) == P
    terms = e[..., :P].copy(order="C" if one else "K")
    np.add(terms, e[..., P:], out=terms, where=offdiag)
    return terms if one else np.add.reduceat(terms, starts, axis=-1)


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
        left, right, offdiag, starts = sp._product
        e = a[..., left] * b[..., right]
        return Jet(sp, _pair_sum(e, offdiag, starts))

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
        return Jet(_lower(sp), self.coeffs[..., sp._dsrc[a]] * sp._dfac[a])

    def grad(self, axis: int = -1) -> Jet:
        """Every derivative d_a, stacked along a new leading axis at axis:
        jstack([self.d(a) for a in range(nvars)], axis) in values and strides
        alike, from one gather over every (a, k) in place of nvars.

        The gather's slice by a has the strides of self.d(a) (the fancy-indexed
        axes are the gather's slowest), and the slices are concatenated as
        jstack concatenates the d(a), so the stack has jstack's memory order:
        not always C-contiguous, and a later einsum over it sums in that order.
        """
        sp = self.space
        g = self.coeffs[..., sp._dsrc] * sp._dfac
        # the stack has nd leading axes: the jet's and the new one, at axis
        nd = self.coeffs.ndim
        axis = normalize_axis_index(axis, nd)
        # g's slice by a with the new axis at axis, in one index counted from
        # the end: the leading axes after the new one, then a, then the
        # coefficients
        head = (Ellipsis, None) + (slice(None),) * (nd - 1 - axis)
        return Jet(_lower(sp), np.concatenate([g[head + (a, slice(None))] for a in range(sp.nvars)], axis=axis))

    # -- structure ---------------------------------------------------------

    def __getitem__(self, idx) -> Jet:
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.space, self.coeffs[idx + (slice(None),)])

    def broadcast_to(self, shape) -> Jet:
        """The jet broadcast to the leading shape, numpy's rule: a read-only
        view that leads with further (stack) axes."""
        return Jet(self.space, np.broadcast_to(self.coeffs, tuple(shape) + self.coeffs.shape[-1:]))

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
    batch of points.

    The coefficients are np.stack's, values and strides alike: each part is
    given the new axis as a view and the parts are concatenated along it,
    which is np.stack without its Python wrapper. np.concatenate lays its
    result out in the memory order of its parts, so the stack is not always
    C-contiguous, and a later einsum over it sums in that order."""
    sp = _lowest(jets)
    cs = [_cut(j, sp) for j in jets]
    if len({c.shape for c in cs}) > 1:
        cs = np.broadcast_arrays(*cs)
    axis = normalize_axis_index(axis if axis >= 0 else axis - 1, cs[0].ndim + 1)
    expand = (slice(None),) * axis + (None,)
    return Jet(sp, np.concatenate([c[expand] for c in cs], axis=axis))


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
        if sp.order == 0:
            # the pair (0, 0) alone, each value slice laid out as one half of
            # the doubled gather (see the module docstring)
            e = c_einsum(jet_jet, ca[..., :1].copy(order="K"), cb[..., :1].copy(order="K"))
            return Jet(sp, np.ascontiguousarray(e))
        left, right, offdiag, starts = sp._product
        return Jet(sp, _pair_sum(c_einsum(jet_jet, ca[..., left], cb[..., right]), offdiag, starts))
    if isinstance(a, Jet):
        return Jet(a.space, c_einsum(jet_arr, a.coeffs, np.asarray(b, dtype=float)))
    if isinstance(b, Jet):
        return Jet(b.space, c_einsum(arr_jet, np.asarray(a, dtype=float), b.coeffs))
    raise TypeError("at least one operand must be a Jet")


def jet_along(X, F: Jet) -> Jet:
    """Directional derivative sum_a X^a d_a F of any jet F.

    X holds one coefficient per variable along its last axis: a jet field,
    or a plain array for a constant direction (then the product is
    jet-by-array). Its other axes are batch axes, and F leads with the same
    ones (an unbatched X is one direction for every point of F). The result
    is valid to min(X.valid, F.valid - 1), or F.valid - 1 for an array.

    The stack of the d_a F that the einsum contracts is F.grad(-1), in the
    strides of jstack([F.d(a) for a in range(nvars)], axis=-1): not
    C-contiguous, so the einsum sums in the order it did over that stack.
    """
    dF = F.grad(-1)
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
    # (a0 + n)^{-1} = sum_k (-a0^{-1} n)^k a0^{-1}, n = a - a0 nilpotent
    term = a.space.constant(b0inv)
    inv = term
    if a.space.order:
        step = jet_matmul(-b0inv, _minus_value(a))
        for _ in range(a.space.order):
            term = jet_matmul(step, term)
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


def _minus_value(jet: Jet) -> Jet:
    """jet - jet.space.constant(jet.val), bitwise, as a copy of the jet with
    its value subtracted in place: x - 0.0 is x for every double, -0.0 and
    NaN included, so only the value slot changes."""
    c = np.positive(jet.coeffs)  # a copy, in the memory order of that difference
    c[..., 0] -= jet.coeffs[..., 0]
    return Jet(jet.space, c)


def _horner(jet: Jet, dcoef: np.ndarray) -> Jet:
    """Evaluate sum_k dcoef[k] (jet - jet.val)^k with Horner's rule.

    Each step is out * h + constant(dcoef[k]), bitwise: the coefficients of
    every constant(dcoef[k]) are made at once, in one array, and each is
    added in place into the product, a fresh array. The other slots get
    0.0 added, as the constant jet adds it: x + 0.0 turns -0.0 into +0.0."""
    sp = jet.space
    h = _minus_value(jet)
    consts = np.zeros(dcoef.shape + (sp.ncoeff,))
    consts[..., 0] = dcoef
    K = dcoef.shape[0] - 1
    out = Jet(sp, consts[K])
    for k in range(K - 1, -1, -1):
        out = out * h
        np.add(out.coeffs, consts[k], out=out.coeffs)
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
        return np.array(rows)

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
        return np.array(rows)

    return _series(jet, table)


def jpow_int(jet: Jet, n) -> Jet:
    """jet^n for an integer n, or for n an array of integers (integer-valued
    floats, say) that broadcasts against the jet's shape, one exponent per
    point: then jet^k is formed once per distinct k, and each point takes the
    coefficients of its own k. A power a point does not take is discarded,
    so an overflow or a division by zero in it goes unreported."""
    if isinstance(n, np.ndarray) and n.ndim:
        ks = np.unique(n)
        if ks.size > 1:
            out = None
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                for k in ks:
                    c = jpow_int(jet, int(k)).coeffs
                    out = c if out is None else np.where((n == k)[..., None], c, out)
            return Jet(jet.space, out)
        n = ks[0]
    n = int(n)
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
    out = c_einsum("...kc,...tk->...tc", pw, coef).reshape(batch + tensor + (usp.ncoeff,))
    return Jet(usp, out)
