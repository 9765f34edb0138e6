import math
import sys

import numpy as np
import pytest

from framelab.jets import (
    Jet,
    get_space,
    jcos,
    jcosh,
    jet_dot,
    jet_along,
    jet_einsum,
    jet_inv,
    jet_matmul,
    jet_matvec,
    jet_pullback,
    jet_solve,
    jexp,
    jlog,
    jpow_int,
    jpow_real,
    jsin,
    jsinh,
    jsqrt,
    jstack,
)


def test_variable_seeds_first_order():
    sp = get_space(3, 2)
    v = sp.variable(1, 0.4)
    assert v.val == 0.4
    assert v.partial((0, 1, 0)) == 1.0
    assert v.partial((1, 0, 0)) == 0.0
    assert v.partial((0, 2, 0)) == 0.0


def test_polynomial_partials_exact():
    sp = get_space(2, 3)
    x, y = sp.variables([2.0, -1.0])
    f = jpow_int(x, 2) * y + 3 * x - y * y
    # f = x^2 y + 3x - y^2 at (2, -1)
    assert f.val == 4 * (-1) + 6 - 1
    assert f.partial((1, 0)) == 2 * 2 * (-1) + 3
    assert f.partial((0, 1)) == 4 - 2 * (-1)
    assert f.partial((2, 0)) == 2 * (-1)
    assert f.partial((1, 1)) == 2 * 2
    assert f.partial((2, 1)) == 2.0
    assert f.partial((0, 3)) == 0.0


@pytest.mark.parametrize(
    "fn,deriv",
    [
        (jexp, lambda c: math.exp(c)),
        (jsin, lambda c: math.cos(c)),
        (jcos, lambda c: -math.sin(c)),
        (jsinh, lambda c: math.cosh(c)),
        (jcosh, lambda c: math.sinh(c)),
        (jlog, lambda c: 1.0 / c),
        (jsqrt, lambda c: 0.5 / math.sqrt(c)),
    ],
)
def test_elementary_first_derivative(fn, deriv):
    sp = get_space(1, 3)
    (x,) = sp.variables([0.83])
    f = fn(x)
    assert abs(f.partial((1,)) - deriv(0.83)) < 1e-13


def test_chain_rule_three_orders():
    # f(t) = exp(sin(t)); derivatives known in closed form
    sp = get_space(1, 3)
    (t,) = sp.variables([0.31])
    f = jexp(jsin(t))
    c, s = math.cos(0.31), math.sin(0.31)
    e = math.exp(s)
    assert abs(f.partial((1,)) - e * c) < 1e-13
    assert abs(f.partial((2,)) - e * (c * c - s)) < 1e-13
    assert abs(f.partial((3,)) - e * (c**3 - 3 * s * c - c)) < 1e-12


def test_product_commutes_bitwise():
    rng = np.random.default_rng(7)
    sp = get_space(3, 3)
    for _ in range(25):
        a = Jet(sp, rng.standard_normal(sp.ncoeff))
        b = Jet(sp, rng.standard_normal(sp.ncoeff))
        assert np.array_equal((a * b).coeffs, (b * a).coeffs)


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_truncated_product_matches_full_product(nvars):
    # Jets of orders va and vb combine in the space of order min(va, vb).
    # Each operation must equal, bitwise, the leading coefficients of the
    # same operation on both jets zero-padded to order 4.
    rng = np.random.default_rng(11)
    full = get_space(nvars, 4)

    def padded(jet):
        c = np.zeros(jet.shape + (full.ncoeff,))
        c[..., : jet.space.ncoeff] = jet.coeffs
        return Jet(full, c)

    ops = {
        "*": lambda x, y: x[:, 0] * y[0, :],
        "+": lambda x, y: x[:, 0] + y[0, :],
        "jet_einsum": lambda x, y: jet_einsum("ik,kj->ij", x, y),
        "jstack": lambda x, y: jstack([x[:, 0], y[0, :]], axis=0),
    }
    for va in range(full.order + 1):
        for vb in range(full.order + 1):
            sa, sb, low = get_space(nvars, va), get_space(nvars, vb), get_space(nvars, min(va, vb))
            a = Jet(sa, rng.standard_normal((2, 3, sa.ncoeff)))
            b = Jet(sb, rng.standard_normal((3, 2, sb.ncoeff)))
            for name, op in ops.items():
                cut, ref = op(a, b), op(padded(a), padded(b))
                assert cut.space is low, name
                assert np.array_equal(cut.coeffs, ref.coeffs[..., : low.ncoeff]), name


def test_derivative_lowers_valid_and_extraction_guards():
    sp = get_space(2, 3)
    x, y = sp.variables([0.2, 0.5])
    f = jsin(x * y)
    fx = f.d(0)
    assert f.valid == 3 and fx.valid == 2
    fx.partial((2, 0))  # fine
    with pytest.raises(ValueError):
        fx.partial((2, 1))


def test_derivative_matches_shifted_coefficients():
    sp = get_space(2, 4)
    x, y = sp.variables([1.3, 0.4])
    f = jexp(x) * jcos(y)
    fx = f.d(0)
    for alpha in [(0, 0), (1, 0), (0, 2), (2, 1)]:
        up = (alpha[0] + 1, alpha[1])
        assert abs(fx.partial(alpha) - f.partial(up)) < 1e-12 * max(1, abs(f.partial(up)))


def test_division_and_reciprocal():
    sp = get_space(1, 4)
    (x,) = sp.variables([0.6])
    f = 1.0 / (1 + x * x)
    # d/dx = -2x/(1+x^2)^2
    assert abs(f.partial((1,)) + 2 * 0.6 / (1 + 0.36) ** 2) < 1e-13
    g = jsin(x) / jcos(x)
    assert abs(g.partial((1,)) - 1 / math.cos(0.6) ** 2) < 1e-13


def test_pow_real_and_negative_int():
    sp = get_space(1, 3)
    (x,) = sp.variables([1.7])
    f = jpow_real(x, -2.5)
    assert abs(f.partial((1,)) + 2.5 * 1.7 ** (-3.5)) < 1e-13
    g = jpow_int(x, -3)
    assert abs(g.val - 1.7 ** (-3)) < 1e-15
    assert abs(g.partial((1,)) + 3 * 1.7 ** (-4)) < 1e-13


def test_matrix_inverse_identity_all_orders():
    rng = np.random.default_rng(3)
    sp = get_space(2, 3)
    x, y = sp.variables([0.1, -0.2])
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            c = rng.standard_normal(3)
            entry = (3.0 if i == j else 0.3) + c[0] * x + c[1] * y + c[2] * x * y
            row.append(entry)
        rows.append(jstack(row, axis=-1))
    A = jstack(rows, axis=-2)
    I = jet_matmul(A, jet_inv(A))
    target = np.zeros(I.coeffs.shape)
    for i in range(3):
        target[i, i, 0] = 1.0
    assert np.max(np.abs(I.coeffs - target)) < 1e-12


def test_solve_vector_right_hand_side():
    sp = get_space(2, 3)
    x, y = sp.variables([0.3, 0.9])
    A = jstack(
        [
            jstack([2 + jsin(x), x * y], axis=-1),
            jstack([jcos(y) * 0.2, 3 - x], axis=-1),
        ],
        axis=-2,
    )
    b = jstack([jexp(x * 0.1), jlog(1 + y)], axis=-1)
    sol = jet_solve(A, b)
    back = jet_matvec(A, sol)
    assert np.max(np.abs(back.coeffs - b.coeffs)) < 1e-13


def test_pullback_equals_direct_composition():
    sp_x = get_space(2, 4)
    sp_u = get_space(2, 4)
    u1, u2 = sp_u.variables([0.25, -0.4])
    phi = jstack([jsin(u1) + u2, jexp(0.3 * u1 * u2)], axis=-1)
    x0 = phi.val.copy()
    X1, X2 = sp_x.variables(x0)
    Q = jcos(X1) * X2 + jpow_int(X2, 3)
    composed = jet_pullback(Q, phi, x0)
    direct = jcos(jsin(u1) + u2) * jexp(0.3 * u1 * u2) + jpow_int(jexp(0.3 * u1 * u2), 3)
    assert np.max(np.abs(composed.coeffs - direct.coeffs)) < 1e-12


def test_pullback_tracks_valid_order():
    sp_x = get_space(1, 4)
    sp_u = get_space(1, 4)
    (u,) = sp_u.variables([0.5])
    phi = jstack([u * u], axis=-1)
    (X,) = sp_x.variables([0.25])
    Q = jsin(X).d(0)  # valid order 3
    out = jet_pullback(Q, phi, np.array([0.25]))
    assert out.valid == 3


def test_dot_and_tensor_sum():
    sp = get_space(2, 2)
    x, y = sp.variables([1.0, 2.0])
    v = jstack([x, y, x * y], axis=-1)
    d = jet_dot(v, v)
    assert abs(d.val - (1 + 4 + 4)) < 1e-14
    s = v.sum(axis=0)
    assert abs(s.val - 5.0) < 1e-14


def test_mismatched_spaces_rejected():
    a = get_space(2, 2).variables([0.0, 0.0])[0]
    b = get_space(3, 2).variables([0.0, 0.0, 0.0])[0]
    for combine in (
        lambda: a + b,
        lambda: a * b,
        lambda: jet_einsum(",->", a, b),
        lambda: jstack([a, b]),
    ):
        with pytest.raises(ValueError, match="different numbers of variables"):
            combine()


def test_batched_leading_axes():
    # jets vectorize over arbitrary leading shape
    sp = get_space(2, 3)
    pts = np.array([[0.1, 0.2], [0.5, -0.3], [1.0, 0.7]])
    x = sp.variable(0, pts[:, 0])
    y = sp.variable(1, pts[:, 1])
    f = jexp(x) * jsin(y)
    for k, (a, b) in enumerate(pts):
        assert abs(f.val[k] - math.exp(a) * math.sin(b)) < 1e-14
        assert abs(f.partial((1, 1))[k] - math.exp(a) * math.cos(b)) < 1e-13


@pytest.mark.parametrize("shape", ["vector", "matrix"])
@pytest.mark.parametrize("direction", ["jet", "low-order jet", "array"])
def test_jet_along_is_the_sum_of_partials(shape, direction):
    sp = get_space(2, 4)
    x, y = sp.variables([0.3, -0.7])
    F = jstack([jsin(x) * y, x * x * y, jexp(y)], axis=-1)
    if shape == "matrix":
        F = jet_einsum("i,j->ij", F, jstack([jcos(y), x * y], axis=-1))
    if direction == "jet":
        X = jstack([x * y + 1.0, jcos(y)], axis=-1)
    elif direction == "low-order jet":
        X = jstack([(x * x * y).d(0).d(1), jcos(y)], axis=-1)
    else:
        X = np.array([0.8, -1.3])
    got = jet_along(X, F)
    want = X[0] * F.d(0) + X[1] * F.d(1)
    assert got.shape == F.shape
    assert got.valid == (min(X.valid, F.valid - 1) if isinstance(X, Jet) else F.valid - 1)
    assert got.valid == want.valid
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-14


def test_along_and_pullback_take_leading_batch_axes():
    """A batch of points through jet_along and jet_pullback gives, point by
    point, what one point at a time gives."""
    sp_u, sp_x = get_space(2, 4), get_space(2, 3)
    pts = np.array([[0.25, -0.4], [0.1, 0.3], [-0.5, 0.2]])

    def at(u):
        u1, u2 = sp_u.variables(u)
        phi = jstack([jsin(u1) + u2, jexp(0.3 * u1 * u2)], axis=-1)
        F = jet_einsum("...i,...j->...ij", phi, jstack([jcos(u2), u1 * u2], axis=-1))
        X1, X2 = sp_x.variables(phi.val)
        Q = jstack([jcos(X1) * X2, X1 * X1], axis=-1)
        X = jstack([u1 * u2 + 1.0, jcos(u2)], axis=-1)
        return jet_along(X, F), jet_pullback(Q, phi, phi.val)

    batch = at(pts)
    for k, u in enumerate(pts):
        for got, want in zip(batch, at(u)):
            assert got.valid == want.valid
            assert np.array_equal(got.coeffs[k], want.coeffs)


def _reference_product(a: Jet, b: Jet, multiply) -> Jet:
    """The truncated product by its definition: c_gamma is the sum of
    multiply(a_alpha, b_beta) over every alpha + beta = gamma, |gamma| at
    most the lower of the two orders."""
    low = a.space if a.space.order <= b.space.order else b.space
    terms: dict[int, list] = {}
    for i, alpha in enumerate(a.space.multi_indices):
        for j, beta in enumerate(b.space.multi_indices):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if sum(gamma) <= low.order:
                terms.setdefault(low.index_of[gamma], []).append(multiply(a.coeffs[..., i], b.coeffs[..., j]))
    return Jet(low, np.stack([sum(terms[k]) for k in range(low.ncoeff)], axis=-1))


def _reference_solve(a: Jet, b: Jet) -> Jet:
    """x with a x = b, order by order: x_gamma = a_0^-1 (b_gamma - sum of
    a_alpha x_beta over alpha + beta = gamma, alpha != 0)."""
    sp = a.space
    x = np.zeros(b.coeffs.shape)
    for k, gamma in enumerate(sp.multi_indices):
        rhs = b.coeffs[..., k].copy()
        for i, alpha in enumerate(sp.multi_indices[1:], start=1):
            beta = tuple(g - s for g, s in zip(gamma, alpha))
            if min(beta) >= 0:
                rhs -= np.einsum("...ij,...j->...i", a.coeffs[..., i], x[..., sp.index_of[beta]])
        x[..., k] = np.linalg.solve(a.coeffs[..., 0], rhs[..., None])[..., 0]
    return Jet(sp, x)


def _assert_close(got: Jet, want: Jet):
    assert got.space is want.space
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * np.max(np.abs(want.coeffs))


KERNEL_ORDERS = [(k, k) for k in range(5)] + [(4, 2), (1, 3), (0, 4), (3, 4)]


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("va,vb", KERNEL_ORDERS)
def test_kernel_matches_reference_product(nvars, va, vb):
    """Jet *, jet_einsum (jet x jet) against the double loop over multi-indices,
    at a batch of 4 points."""
    rng = np.random.default_rng([nvars, va, vb])
    sa, sb = get_space(nvars, va), get_space(nvars, vb)
    a = Jet(sa, rng.uniform(-1.0, 1.0, (4, 3, 3, sa.ncoeff)))
    b = Jet(sb, rng.uniform(-1.0, 1.0, (4, 3, sb.ncoeff)))
    _assert_close(a[..., 0] * b, _reference_product(a[..., 0], b, np.multiply))
    for sub in ("...ik,...k->...i", "...ij,...k->...ijk"):
        want = _reference_product(a, b, lambda x, y, sub=sub: np.einsum(sub, x, y))
        _assert_close(jet_einsum(sub, a, b), want)


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("order", range(5))
def test_solve_matches_reference(nvars, order):
    """jet_solve against the order-by-order solve, for a batch of 4 matrices
    and both a vector and a matrix right-hand side, and against the
    full-order solve where the right-hand side is of lower order."""
    rng = np.random.default_rng([nvars, order])
    sp = get_space(nvars, order)
    c = rng.uniform(-0.3, 0.3, (4, 3, 3, sp.ncoeff))
    c[..., 0] += 3.0 * np.eye(3)
    a = Jet(sp, c)
    v = Jet(sp, rng.uniform(-1.0, 1.0, (4, 3, sp.ncoeff)))
    m = Jet(sp, rng.uniform(-1.0, 1.0, (4, 3, 2, sp.ncoeff)))
    _assert_close(jet_solve(a, v), _reference_solve(a, v))
    for col in range(2):
        _assert_close(jet_solve(a, m)[..., col], _reference_solve(a, m[..., col]))
    # a right-hand side of lower order, vector and matrix: the solve lands in
    # its space, bitwise the full-order solve (b padded with zeros) cut there
    for low in range(min(order, 2)):
        sl = get_space(nvars, low)
        for shape in ((4, 3), (4, 3, 2)):
            b = Jet(sl, rng.uniform(-1.0, 1.0, shape + (sl.ncoeff,)))
            padded = np.zeros(shape + (sp.ncoeff,))
            padded[..., : sl.ncoeff] = b.coeffs
            got = jet_solve(a, b)
            assert got.space is sl
            assert np.array_equal(got.coeffs, jet_solve(a, Jet(sp, padded)).cut(low).coeffs)


def _pre_change_table(sp) -> tuple:
    """The ordered pair table of the pair kernel as first written: the P
    unordered pairs (i, j), i <= j, grouped by target, then the same pairs
    swapped, with the weight of each pair and the start of each target."""
    by_target: dict[int, list] = {}
    for i, alpha in enumerate(sp.multi_indices):
        for j in range(i, sp.ncoeff):
            beta = sp.multi_indices[j]
            if sum(alpha) + sum(beta) <= sp.order:
                by_target.setdefault(sp.index_of[tuple(x + y for x, y in zip(alpha, beta))], []).append((i, j))
    pi, pj, w, starts = [], [], [], []
    for k in range(sp.ncoeff):
        starts.append(len(pi))
        for i, j in sorted(by_target[k]):
            pi.append(i)
            pj.append(j)
            w.append(0.5 if i == j else 1.0)
    return np.array(pi + pj), np.array(pj + pi), np.array(w), np.array(starts)


def _pre_change_kernel(a: Jet, b: Jet, sub=None) -> np.ndarray:
    """The pair kernel before it skipped work, kept as the reference: both
    operands gathered over the 2P ordered pairs, their terms formed by one
    elementwise product (sub None) or one einsum with a trailing pair axis,
    the two orders of each pair weighted and summed by target with
    np.add.reduceat, at every order."""
    low = a.space if a.space.order <= b.space.order else b.space
    left, right, pw, starts = _pre_change_table(low)
    ca, cb = a.coeffs[..., : low.ncoeff][..., left], b.coeffs[..., : low.ncoeff][..., right]
    if sub is None:
        e = ca * cb
    else:
        lhs, rhs = sub.split("->")
        sa, sb = lhs.split(",")
        e = np.einsum(f"{sa}P,{sb}P->{rhs}P", ca, cb)
    P = pw.shape[0]
    return np.add.reduceat(pw * (e[..., :P] + e[..., P:]), starts, axis=-1)


def _laid_out(rng, sp, shape, layout: str) -> Jet:
    """A jet of the given shape whose coefficients are C-contiguous, have
    their leading axes reversed in memory, sit at every other entry of a
    wider array (a non-contiguous coefficient axis), repeat along a stride-0
    first axis (as Jet.broadcast_to lays them out), have negative strides
    along every leading axis, or have the last leading axis slowest in
    memory and the others in order (not a reversal from three axes on)."""
    nd = len(shape)
    if layout == "contiguous":
        return Jet(sp, rng.uniform(-1.0, 1.0, shape + (sp.ncoeff,)))
    if layout == "transposed":
        c = rng.uniform(-1.0, 1.0, shape[::-1] + (sp.ncoeff,))
        return Jet(sp, c.transpose(tuple(range(nd - 1, -1, -1)) + (nd,)))
    if layout == "broadcast":
        return Jet(sp, rng.uniform(-1.0, 1.0, shape[1:] + (sp.ncoeff,))).broadcast_to(shape)
    if layout == "negative-stride":
        return Jet(sp, np.flip(rng.uniform(-1.0, 1.0, shape + (sp.ncoeff,)), axis=tuple(range(nd))))
    if layout == "permuted":
        c = rng.uniform(-1.0, 1.0, shape[-1:] + shape[:-1] + (sp.ncoeff,))
        return Jet(sp, np.moveaxis(c, 0, nd - 1))
    return Jet(sp, rng.uniform(-1.0, 1.0, shape + (2 * sp.ncoeff,))[..., ::2])


KERNEL_LAYOUTS = ["contiguous", "transposed", "strided", "broadcast", "negative-stride", "permuted"]

PAIR_KERNEL_CALLS = {
    "*": (None, (5, 3, 3), (5, 3, 3)),
    "...ik,...kj->...ij": ("...ik,...kj->...ij", (5, 3, 3), (5, 3, 3)),
    "...ij,...k->...ijk": ("...ij,...k->...ijk", (5, 3, 2), (5, 3)),
    "...k,...k->...": ("...k,...k->...", (5, 3), (5, 3)),
    "...a,...aij->...ij": ("...a,...aij->...ij", (5, 2), (5, 2, 3, 3)),
    # the highest-rank contractions of the program, each at its shapes there
    "...abij,...ji->...ab": ("...abij,...ji->...ab", (5, 3, 3, 3, 3), (5, 3, 3)),
    "...ijkl,...k->...ijl": ("...ijkl,...k->...ijl", (5, 3, 3, 3, 3), (5, 3)),
    "...mnqr,...nj->...mjqr": ("...mnqr,...nj->...mjqr", (5, 3, 3, 3, 3), (5, 3, 3)),
    "...il,...ljk->...ijk": ("...il,...ljk->...ijk", (5, 3, 3), (5, 3, 3, 3)),
    "...mlj,...ikm->...ijkl": ("...mlj,...ikm->...ijkl", (5, 3, 3, 3), (5, 3, 3, 3)),
}


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("layout", KERNEL_LAYOUTS)
@pytest.mark.parametrize("call", PAIR_KERNEL_CALLS)
def test_pair_kernel_matches_pre_change_kernel(nvars, order, layout, call):
    """Jet * and jet_einsum are bitwise the pre-change kernel. Where every
    target has one pair (orders 0 and 1) the result is C-contiguous whatever
    the operands' layout; above that it is laid out as reduceat lays it out."""
    sub, sa, sb = PAIR_KERNEL_CALLS[call]
    rng = np.random.default_rng([nvars, order, len(layout), len(call)])
    sp = get_space(nvars, order)
    a, b = _laid_out(rng, sp, sa, layout), _laid_out(rng, sp, sb, layout)
    got = (a * b if sub is None else jet_einsum(sub, a, b)).coeffs
    want = _pre_change_kernel(a, b, sub)
    assert got.shape == want.shape and np.array_equal(got, want)
    if order <= 1:
        assert got.flags.c_contiguous
    else:
        assert got.strides == want.strides


@pytest.mark.parametrize("layout_b", KERNEL_LAYOUTS)
@pytest.mark.parametrize("layout_a", KERNEL_LAYOUTS)
@pytest.mark.parametrize("call", PAIR_KERNEL_CALLS)
def test_order_0_kernel_matches_pre_change_kernel_across_layouts(call, layout_a, layout_b):
    """At order 0, where jet_einsum contracts the one pair (0, 0) in place of
    the pair and its swap, each operand in its own layout: an einsum sums in
    an order its operands' strides fix, and the one-pair form has to sum as
    the doubled gather does for every pairing of layouts."""
    sub, sa, sb = PAIR_KERNEL_CALLS[call]
    rng = np.random.default_rng([len(layout_a), len(layout_b), len(call)])
    sp = get_space(2, 0)
    a, b = _laid_out(rng, sp, sa, layout_a), _laid_out(rng, sp, sb, layout_b)
    got = (a * b if sub is None else jet_einsum(sub, a, b)).coeffs
    want = _pre_change_kernel(a, b, sub)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1])
def test_one_pair_products_commute_bitwise(nvars, order):
    """a * b and b * a agree to the last bit where the table skips its sum
    by target, as they do where it sums."""
    rng = np.random.default_rng([nvars, order])
    sp = get_space(nvars, order)
    for _ in range(10):
        a, b = (Jet(sp, rng.standard_normal((4, 3, sp.ncoeff))) for _ in range(2))
        assert np.array_equal((a * b).coeffs, (b * a).coeffs)


@pytest.mark.parametrize("nvars", [1, 2])
@pytest.mark.parametrize("order", range(5))
def test_diagonal_pairs_do_not_overflow(nvars, order):
    """A diagonal pair (i, i) is one term, not the halved sum of two: with
    value 1e154 the product's value is 1e308, finite, where e + e would be
    inf (an overflow warning fails the test)."""
    sp = get_space(nvars, order)
    c = np.ones((1, sp.ncoeff))
    c[..., 0] = 1e154
    a = Jet(sp, c)
    assert (a * a).coeffs[0, 0] == 1e308
    assert jet_dot(a, a).coeffs[0] == 1e308


@pytest.mark.parametrize("axis", [0, -1, -2])
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
@pytest.mark.parametrize("shapes", ["equal", "broadcast"])
def test_jstack_is_np_stack(axis, layout, shapes):
    """jstack's coefficients are np.stack's of its parts, cut to the lowest
    order and broadcast, in values and in strides alike: an einsum over a
    stack sums in its memory order."""
    rng = np.random.default_rng([axis % 7, len(layout), len(shapes)])
    high, low = get_space(2, 3), get_space(2, 2)
    parts = [_laid_out(rng, high, (4, 3), layout), _laid_out(rng, low, (4, 3) if shapes == "equal" else (3,), layout)]
    got = jstack(parts, axis=axis).coeffs
    cut = np.broadcast_arrays(*(p.coeffs[..., : low.ncoeff] for p in parts))
    want = np.stack(cut, axis=axis if axis >= 0 else axis - 1)
    assert np.array_equal(got, want) and got.strides == want.strides


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided", "broadcast"])
def test_jet_along_stacks_derivatives_as_jstack(monkeypatch, nvars, order, layout):
    """The derivative stack jet_along contracts is jstack([F.d(a) ...],
    axis=-1), in values and in strides alike; the jet x array einsum over it
    sums in its memory order."""
    rng = np.random.default_rng([nvars, order, len(layout)])
    sp = get_space(nvars, order)
    F = _laid_out(rng, sp, (4, 3), layout)
    stacks = []
    monkeypatch.setattr("framelab.jets.jet_einsum", lambda sub, X, dF: stacks.append(dF) or jet_einsum(sub, X, dF))
    jet_along(rng.uniform(-1.0, 1.0, nvars), F)
    (got,) = stacks
    want = jstack([F.d(a) for a in range(nvars)], axis=-1)
    assert got.space is want.space
    assert np.array_equal(got.coeffs, want.coeffs) and got.coeffs.strides == want.coeffs.strides


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided", "broadcast"])
@pytest.mark.parametrize("axis", [0, 2, -1, -2, -3])
def test_grad_is_jstack_of_derivatives(nvars, order, layout, axis):
    """F.grad(axis) is jstack([F.d(a) ...], axis) in values and in strides
    alike, whatever the memory order of F's coefficients."""
    rng = np.random.default_rng([nvars, order, len(layout), axis % 5])
    sp = get_space(nvars, order)
    F = _laid_out(rng, sp, (4, 3), layout)
    got = F.grad(axis)
    want = jstack([F.d(a) for a in range(nvars)], axis=axis)
    assert got.space is want.space
    assert np.array_equal(got.coeffs, want.coeffs) and got.coeffs.strides == want.coeffs.strides


def test_grad_serves_every_derivative_stack(monkeypatch):
    """christoffel_jets, curvature_jets, a frame's J, the Jacobian of the
    centre normals, jet_along and the derivatives of E that omega reads over
    a constant metric (sphere2's) each stack their derivatives with one
    Jet.grad, equal to the jstack of the Jet.d it replaced in values and in
    strides: an einsum over a stack sums in its memory order."""
    from framelab.submanifold import builtin_submanifold

    grad = Jet.grad
    seen = set()

    def checked(F, axis=-1):
        got = grad(F, axis)
        want = jstack([F.d(a) for a in range(F.space.nvars)], axis=axis)
        assert np.array_equal(got.coeffs, want.coeffs) and got.coeffs.strides == want.coeffs.strides
        seen.add(sys._getframe(1).f_code.co_name)
        return got

    monkeypatch.setattr(Jet, "grad", checked)
    for name in ("sphere2", "clifford"):
        M = builtin_submanifold(name)
        fd = M.frame_data(np.array([M.chart_domain.mean(axis=1), M.chart_domain[:, 0] + 0.1]), 4)
        fd.R, fd.Rt_chart
        jet_along(jstack(fd.uv, axis=-1).cut(2), fd.E)
    assert seen == {"christoffel_jets", "curvature_jets", "__init__", "_centre_normals", "jet_along", "omega"}


def _reference_horner(jet: Jet, dcoef) -> Jet:
    """Horner's rule as out * h + constant(c), one new jet per step."""
    sp = jet.space
    h = jet - sp.constant(jet.val)
    out = sp.constant(dcoef[-1])
    for c in dcoef[-2::-1]:
        out = out * h + sp.constant(c)
    return out


# A jet at value 0 in 2 variables, by order, whose cosine series meets a
# product with -0.0 in a derivative slot: adding the constant jet makes it
# +0.0, which adding into the value slot alone would not.
LIVE_NEGATIVE_ZERO = {
    2: [0.0, -1.0, 1.0, 0.0, 0.0, -0.0],
    3: [0.0, 1.0, 1.0, 1.0, -1.0, 0.5, -0.0, -1.0, 0.0, -0.0],
}


@pytest.mark.parametrize("order", [2, 3])
def test_series_add_their_constants_in_place_bitwise(order):
    """The series are Horner's rule with each constant added in place into
    the product; they equal out * h + constant(c) to the last bit, the sign
    of a zero included, on a jet that holds -0.0 coefficients."""
    sp = get_space(2, order)
    c = np.random.default_rng(order).uniform(0.2, 0.9, (3, sp.ncoeff))
    c[1] = LIVE_NEGATIVE_ZERO[order]
    c[2, 1:] = -0.0
    x = Jet(sp, c)
    v, K = x.val, order
    cases = {
        jexp: [np.exp(v) / math.factorial(k) for k in range(K + 1)],
        jsin: [[np.sin(v), np.cos(v), -np.sin(v), -np.cos(v)][k % 4] / math.factorial(k) for k in range(K + 1)],
        jcos: [[np.cos(v), -np.sin(v), -np.cos(v), np.sin(v)][k % 4] / math.factorial(k) for k in range(K + 1)],
    }
    for fn, dcoef in cases.items():
        got, want = fn(x), _reference_horner(x, np.array(dcoef))
        assert got.coeffs.tobytes() == want.coeffs.tobytes() and got.coeffs.strides == want.coeffs.strides
    # the case is live: steps that add into the value slot alone differ
    h = x - sp.constant(v)
    out = sp.constant(cases[jcos][-1])
    for dk in cases[jcos][-2::-1]:
        out = out * h
        out.coeffs[..., 0] += dk
    assert out.coeffs.tobytes() != jcos(x).coeffs.tobytes()


def test_solve_subtracts_the_value_in_place_bitwise():
    """jet_solve's Neumann step reads a minus its value as a copy of a with
    the value slot subtracted in place: bitwise a - constant(a.val), -0.0
    derivative coefficients kept."""
    sp = get_space(2, 2)
    rng = np.random.default_rng(3)
    c = rng.uniform(-0.2, 0.2, (4, 3, 3, sp.ncoeff))
    c[..., 0] += 2.0 * np.eye(3)
    c[1, :, :, 1:] = -0.0
    a, b = Jet(sp, c), Jet(sp, rng.uniform(-1.0, 1.0, (4, 3, sp.ncoeff)))
    a0 = a.val
    b0inv = np.linalg.inv(a0)
    step = jet_matmul(-b0inv, a - sp.constant(a0))
    term = inv = sp.constant(b0inv)
    for _ in range(sp.order):
        term = jet_matmul(step, term)
        inv = inv + term
    want = jet_matvec(inv, b)
    assert jet_solve(a, b).coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 4, 3)])
@pytest.mark.parametrize("order", [0, 1, 3])
def test_variables_fill_one_array(shape, order):
    """variables gives each variable(a, point[..., a]) in values and strides,
    and refuses a point with too few coordinates."""
    sp = get_space(3, order)
    pt = np.random.default_rng(len(shape)).uniform(-1.0, 1.0, shape)
    for got, a in zip(sp.variables(pt), range(3)):
        want = sp.variable(a, pt[..., a])
        assert np.array_equal(got.coeffs, want.coeffs) and got.coeffs.strides == want.coeffs.strides
    with pytest.raises(ValueError, match="needs 3 coordinates"):
        sp.variables(pt[..., :1])


def test_pow_int_takes_each_point_its_own_exponent():
    """An array of integer exponents gives each point the power of its own
    exponent, bitwise that power formed alone; a power a point does not
    take is discarded silently, even where it divides by zero."""
    sp = get_space(1, 2)
    x = Jet(sp, np.array([[2.0, 1.0, 0.5], [0.0, 1.0, 0.0], [1.5, -1.0, 0.25]]))
    n = np.array([3.0, 2.0, -2.0])
    got = jpow_int(x, n)
    for i, k in enumerate(n):
        assert np.array_equal(got.coeffs[i], jpow_int(x[i], int(k)).coeffs)
