import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.expr import (
    FUNCTIONS,
    Bin,
    Call,
    DomainError,
    Neg,
    Num,
    ParseError,
    PiConst,
    Span,
    Var,
    eval_expr,
    intern,
    parse,
    to_source,
)
from framelab.jets import get_space

DUMMY = Span(0, 0)


def eval_at(e, point, order):
    """The jet of e at the point, exact to the given order."""
    pt = np.asarray(point, dtype=float)
    space = get_space(len(pt), order)
    return eval_expr(e, space.variables(pt), space)


def test_precedence_and_shape():
    e = parse("2+3*u1", 1)
    assert isinstance(e, Bin) and e.op == "+"
    assert isinstance(e.left, Num) and e.left.value == 2.0
    assert isinstance(e.right, Bin) and e.right.op == "*"

    e = parse("sin(u1)^2", 1)
    assert isinstance(e, Bin) and e.op == "^"
    assert isinstance(e.left, Call) and e.left.fn == "sin"


def test_left_associativity():
    e = parse("u1-u2-u1", 2)
    # (u1-u2)-u1
    assert e.op == "-" and isinstance(e.left, Bin) and e.left.op == "-"
    e = parse("u1/u2/u1", 2)
    assert e.op == "/" and isinstance(e.left, Bin) and e.left.op == "/"


def test_power_right_associative_and_tighter_than_unary_minus():
    e = parse("2^u1^2", 1)
    assert e.op == "^" and isinstance(e.right, Bin) and e.right.op == "^"
    e = parse("-u1^2", 1)
    assert isinstance(e, Neg) and isinstance(e.arg, Bin) and e.arg.op == "^"


def test_variable_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("u3", 2)


def test_unknown_identifier_offset():
    with pytest.raises(ParseError) as ei:
        parse("u1 + foo(u1)", 1)
    assert ei.value.offset == 5


def test_syntax_error_offset_and_expected_set():
    with pytest.raises(ParseError) as ei:
        parse("u1 + ", 1)
    assert ei.value.offset == 5
    assert ei.value.expected  # nonempty expected-token set
    with pytest.raises(ParseError) as ei:
        parse("sin u1", 1)
    assert "'('" in ei.value.expected


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("u1 u1", 1)
    with pytest.raises(ParseError):
        parse("(u1))", 1)


def test_eval_examples():
    j = eval_at(parse("u1*u2", 2), (2, 3), 1)
    assert j.val == 6.0
    assert j.partial((1, 0)) == 3.0
    assert j.partial((0, 1)) == 2.0

    j = eval_at(parse("sin(u1)", 1), (0,), 3)
    assert (j.val, j.partial((1,)), j.partial((2,)), j.partial((3,))) == (0, 1, 0, -1)

    j = eval_at(parse("1/(sqrt(2)-sin(u2))", 2), (0.7, 0.0), 1)
    assert abs(j.val - 1 / math.sqrt(2)) < 1e-15
    assert abs(j.partial((0, 1)) - 0.5) < 1e-15
    assert j.partial((1, 0)) == 0.0


def test_order_zero_is_plain_evaluation():
    j = eval_at(parse("exp(u1)*cos(u2)", 2), (0.3, 1.1), 0)
    assert abs(j.val - math.exp(0.3) * math.cos(1.1)) < 1e-15
    assert j.space.multi_indices == [(0, 0)]


def test_order_cap():
    """A jet gives partials up to its order only, and the order is >= 0."""
    e = parse("u1", 1)
    with pytest.raises(ValueError, match="valid only to order 3"):
        eval_at(e, (0.0,), 3).partial((4,))
    with pytest.raises(ValueError):
        eval_at(e, (0.0,), -1)


def test_domain_errors_carry_subexpression_span():
    src = "1 + log(u1-2)"
    with pytest.raises(DomainError) as ei:
        eval_at(parse(src, 1), (1.0,), 1)
    sp = ei.value.span
    assert src[sp.start:sp.end] == "log(u1-2)"

    with pytest.raises(DomainError, match="division by zero"):
        eval_at(parse("1/(u1-1)", 1), (1.0,), 0)
    with pytest.raises(DomainError, match="sqrt"):
        eval_at(parse("sqrt(u1)", 1), (-0.5,), 0)


@pytest.mark.parametrize(
    "src, message",
    [
        ("sqrt(u1-0.5)", "sqrt of a negative value"),
        ("sqrt(u1-0.25)", "sqrt is not differentiable at zero"),
        ("1+log(u1-0.5)", "log of a non-positive value"),
        ("u2/(u1-0.25)", "division by zero"),
        ("(u1-0.25)^(0-2)", "zero raised to a negative power"),
        ("(u1-0.5)^1.5", "non-positive base raised to a non-integer power"),
    ],
)
def test_domain_error_names_the_first_bad_point_of_a_batch(src, message):
    """Each sub-expression leaves its domain at the second and third points,
    and the error names the second."""
    pts = np.array([[1.0, 3.0], [0.25, 0.5], [0.25, 1.5]])
    space = get_space(2, 1)
    with pytest.raises(DomainError, match=rf"^{message} at \[0\.25, 0\.5\] in sub-expression at bytes"):
        eval_expr(parse(src, 2), space.variables(pts), space)


def test_tan_refuses_its_poles_and_names_the_point():
    """cos of the double nearest pi/2 is 6e-17, not 0: tan there is a pole
    within roundoff and is refused, while a point 1e-6 away is accepted."""
    space = get_space(1, 1)
    for pole in (np.pi / 2, -np.pi / 2, 3 * np.pi / 2):
        pts = np.array([[0.3], [pole]])
        with pytest.raises(DomainError, match=rf"^tan at a pole at \[{re.escape(repr(pole))}\]"):
            eval_expr(parse("tan(u1)", 1), space.variables(pts), space)
    near = eval_at(parse("tan(u1)", 1), (np.pi / 2 - 1e-6,), 1)
    assert np.isfinite(near.val) and abs(near.val * 1e-6 - 1.0) < 1e-6


def test_parse_is_remembered_and_failures_are_not():
    e = parse("u1*u2-0.5", 2)
    assert parse("u1*u2-0.5", 2, var_prefix="u") is e
    assert parse("u1*u2-0.5", 3) is not e and parse("u1*u2-0.5", 3) == e
    for _ in range(2):
        with pytest.raises(ParseError, match="unknown identifier 'x1'"):
            parse("u1+x1", 2)


def test_noninteger_power_is_exp_log():
    j = eval_at(parse("u1^2.5", 1), (4.0,), 2)
    assert abs(j.val - 32.0) < 1e-12
    assert abs(j.partial((1,)) - 2.5 * 4**1.5) < 1e-12
    assert abs(j.partial((2,)) - 2.5 * 1.5 * 4**0.5) < 1e-11
    with pytest.raises(DomainError, match="non-integer"):
        eval_at(parse("u1^2.5", 1), (-1.0,), 0)
    with pytest.raises(DomainError, match="non-integer"):
        eval_at(parse("(0-2)^(1/3)", 1), (0.0,), 0)


def test_integer_power_works_on_negative_base():
    j = eval_at(parse("u1^3", 1), (-2.0,), 1)
    assert j.val == -8.0
    assert j.partial((1,)) == 12.0
    j = eval_at(parse("u1^-2", 1), (2.0,), 1)
    assert abs(j.val - 0.25) < 1e-15
    assert abs(j.partial((1,)) + 2 * 2.0 ** (-3)) < 1e-15


def test_pi_constant():
    j = eval_at(parse("cos(pi)", 1), (0.0,), 0)
    assert j.val == -1.0


def test_mixed_partials_single_entry():
    # a multi-index cannot encode a differentiation order, so symmetry is exact
    j = eval_at(parse("sin(u1*u2)", 2), (0.6, 0.8), 2)
    alphas = j.space.multi_indices
    assert (1, 1) in alphas
    assert (2, 0) in alphas and (0, 2) in alphas
    assert len([a for a in alphas if sum(a) == 2]) == 3


# -- random generator vs finite differences ---------------------------------

_FN_POOL = ("sin", "cos", "tanh", "sinh", "exp")


def _gen(rng, depth, dim):
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.5:
            return f"u{rng.integers(1, dim + 1)}"
        if r < 0.9:
            return f"{rng.uniform(0.2, 2.5):.4f}"
        return "pi"
    r = rng.random()
    a = _gen(rng, depth - 1, dim)
    if r < 0.2:
        return f"({a})+({_gen(rng, depth - 1, dim)})"
    if r < 0.35:
        return f"({a})-({_gen(rng, depth - 1, dim)})"
    if r < 0.55:
        return f"({a})*({_gen(rng, depth - 1, dim)})"
    if r < 0.63:
        return f"({a})/(2.5+sin({_gen(rng, depth - 1, dim)}))"
    if r < 0.71:
        return f"log(2.2+sin({a}))"
    if r < 0.77:
        return f"sqrt(1.5+cos({a}))"
    if r < 0.83:
        return f"(1.4+sin({a}))^1.7"
    if r < 0.89:
        return f"({a})^2"
    if r < 0.94:
        return f"tan(0.6*tanh({a}))"
    fn = _FN_POOL[rng.integers(0, len(_FN_POOL))]
    inner = f"0.8*tanh({a})" if fn in ("exp", "sinh") else a
    return f"{fn}({inner})"


def test_thousand_random_expressions_match_finite_differences():
    rng = np.random.default_rng(20240817)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 4))
        src = _gen(rng, int(rng.integers(1, 4)), dim)
        pt = rng.uniform(-1.5, 1.5, size=dim)
        e = parse(src, dim)

        def f(q):
            return eval_at(e, q, 0).val

        try:
            jet = eval_at(e, pt, 2)
            base = f(pt)
        except DomainError:
            continue
        if not math.isfinite(jet.val) or abs(jet.val) > 1e5:
            continue
        partials = [float(jet.partial(a)) for a in jet.space.multi_indices]
        if any(not math.isfinite(v) or abs(v) > 1e5 for v in partials):
            continue
        try:
            h1, h2 = 1e-5, 1e-4
            ok = True
            for i in range(dim):
                ei = np.zeros(dim)
                ei[i] = 1.0
                fd1 = (f(pt + h1 * ei) - f(pt - h1 * ei)) / (2 * h1)
                alpha = tuple(int(x) for x in ei)
                assert abs(jet.partial(alpha) - fd1) <= 1e-6 * max(1.0, abs(fd1)), src
                fd2 = (f(pt + h2 * ei) - 2 * base + f(pt - h2 * ei)) / h2**2
                alpha2 = tuple(int(2 * x) for x in ei)
                assert abs(jet.partial(alpha2) - fd2) <= 1e-4 * max(1.0, abs(fd2)), src
            for i in range(dim):
                for j in range(i + 1, dim):
                    di, dj = np.zeros(dim), np.zeros(dim)
                    di[i] = h2
                    dj[j] = h2
                    fd11 = (
                        f(pt + di + dj) - f(pt + di - dj) - f(pt - di + dj) + f(pt - di - dj)
                    ) / (4 * h2**2)
                    alpha = tuple(
                        (1 if k in (i, j) else 0) for k in range(dim)
                    )
                    assert abs(jet.partial(alpha) - fd11) <= 1e-4 * max(1.0, abs(fd11)), src
        except DomainError:
            continue  # FD probe stepped outside the domain
        checked += 1
    assert checked == 1000


def test_product_commutes_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        a = _gen(rng, 2, dim)
        b = _gen(rng, 2, dim)
        pt = rng.uniform(-1.2, 1.2, size=dim)
        try:
            jab = eval_at(parse(f"({a})*({b})", dim), pt, 3)
            jba = eval_at(parse(f"({b})*({a})", dim), pt, 3)
        except DomainError:
            continue
        assert np.array_equal(jab.coeffs, jba.coeffs, equal_nan=True), (a, b)


# -- hypothesis: structural properties ---------------------------------------


def _ast_strategy(dim):
    leaves = st.one_of(
        st.builds(Num, st.floats(0, 1e6, allow_nan=False).map(abs), st.just(DUMMY)),
        st.integers(1, dim).map(lambda i: Var(f"u{i}", i, DUMMY)),
        st.just(PiConst(DUMMY)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children, st.just(DUMMY)),
            st.builds(
                Bin,
                st.sampled_from("+-*/^"),
                children,
                children,
                st.just(DUMMY),
            ),
            st.builds(
                Call,
                st.sampled_from(("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")),
                children,
                st.just(DUMMY),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_ast_strategy(3))
def test_canonical_printer_round_trips(e):
    assert parse(to_source(e), 3) == e


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=30))
def test_parser_total_over_arbitrary_text(s):
    try:
        parse(s, 2)
    except (ParseError, ValueError):
        pass


@pytest.mark.parametrize("order", [0, 1])
def test_a_variable_integer_exponent_is_taken_per_point(order):
    """An exponent that is an integer at every point, not the same one
    everywhere, is each point's own: at order 0 the integer power, exact; at
    order 1 the exponent has a derivative, so b^r is exp(r log b), which
    needs b > 0."""
    space = get_space(2, order)
    pts = np.array([[2.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    j = eval_expr(parse("u1^u2", 2), space.variables(pts), space)
    space1 = get_space(1, order)
    neg = parse("(-2)^u1", 1)
    if order == 0:
        assert np.array_equal(j.val, [2.0, 4.0, 27.0])
        assert np.array_equal(eval_expr(neg, space1.variables(np.array([[1.0], [2.0]])), space1).val, [-2.0, 4.0])
    else:
        assert np.allclose(j.val, [2.0, 4.0, 27.0], rtol=1e-14, atol=0)
        # d/du1 u1^u2 = u2 u1^(u2-1), d/du2 u1^u2 = u1^u2 log u1
        assert np.allclose(j.partial((1, 0)), [1.0, 4.0, 27.0], rtol=1e-14, atol=0)
        assert np.allclose(j.partial((0, 1)), [2 * math.log(2), 4 * math.log(2), 27 * math.log(3)], rtol=1e-14, atol=0)
        with pytest.raises(DomainError, match=r"^non-positive base raised to a non-integer power at \[1\.0\]"):
            eval_expr(neg, space1.variables(np.array([[1.0], [2.0]])), space1)


def test_zero_to_a_negative_exponent_is_refused_at_its_own_point():
    """A zero base is refused where its exponent is negative and nowhere
    else; the powers a point does not take are not reported."""
    space = get_space(2, 0)
    ok = np.array([[2.0, -1.0], [0.0, 2.0], [-3.0, -2.0]])
    j = eval_expr(parse("u1^u2", 2), space.variables(ok), space)
    assert np.array_equal(j.val, [0.5, 0.0, 1.0 / 9.0])
    bad = np.array([[2.0, -1.0], [0.0, 2.0], [0.0, -1.0]])
    with pytest.raises(DomainError, match=r"^zero raised to a negative power at \[0\.0, -1\.0\]"):
        eval_expr(parse("u1^u2", 2), space.variables(bad), space)


def test_intern_makes_equal_subtrees_one_node():
    """Equal subtrees across the list become one node, which keeps the span
    of its first occurrence; 0.0 and -0.0 stay apart, and the list is equal
    to the one it was made from."""
    den = "(sqrt(2)-sin(u2))"
    comps = [parse(f"{f}(u1)/{den}", 2) for f in ("cos", "sin")] + [parse(f"cos(u2)/{den}", 2)]
    shared = intern(comps)
    assert shared == comps
    assert shared[0].right is shared[1].right is shared[2].right
    assert shared[0].left is not shared[2].left
    alone = parse("sin(u2)", 2)
    first = intern([alone] + comps)
    assert first[0] is alone and first[1].right.right is alone and alone.span == Span(0, 7)
    zeros = intern([Num(0.0, DUMMY), Num(-0.0, DUMMY), Num(0.0, Span(1, 2))])
    assert zeros[0] is not zeros[1] and zeros[2] is zeros[0]


def _lists_sharing_subtrees(dim):
    """Lists of 2 to 4 expressions over a pool of 1 to 3 subtrees: each one
    a subtree of the pool, or one operation on subtrees of it."""

    def over(pool):
        part = st.sampled_from(pool)
        return st.lists(
            st.one_of(
                part,
                st.builds(Neg, part, st.just(DUMMY)),
                st.builds(Bin, st.sampled_from("+-*/^"), part, part, st.just(DUMMY)),
                st.builds(Call, st.sampled_from(FUNCTIONS), part, st.just(DUMMY)),
            ),
            min_size=2,
            max_size=4,
        )

    return st.lists(_ast_strategy(dim), min_size=1, max_size=3).flatmap(over)


def _evaluated(exprs, pts, order, memo):
    """Each expression's jet at the points, or the DomainError raised first."""
    space = get_space(2, order)
    uv = space.variables(pts)
    try:
        with np.errstate(all="ignore"):
            return [eval_expr(e, uv, space, memo) for e in exprs]
    except DomainError as exc:
        return exc


_COORD = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-2.0, 2.0))


@settings(max_examples=150, deadline=None)
@given(
    _lists_sharing_subtrees(2),
    st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=3),
    st.integers(0, 3),
)
def test_shared_evaluation_equals_one_at_a_time(drawn, pts, order):
    """A list interned and evaluated with one memo gives, for each
    expression, the jet that evaluating it alone gives, bitwise (NaN equal
    to NaN); where one way refuses a point, both raise the same DomainError,
    message and span alike. The expressions are parsed from their source,
    so that each node has a span of its own."""
    exprs = [parse(to_source(e), 2) for e in drawn]
    pts = np.array(pts)
    alone = _evaluated(exprs, pts, order, None)
    shared = _evaluated(intern(exprs), pts, order, {})
    if isinstance(alone, DomainError) or isinstance(shared, DomainError):
        assert type(alone) is type(shared)
        assert str(alone) == str(shared) and alone.span == shared.span
        return
    for a, b in zip(alone, shared):
        assert a.space is b.space and a.coeffs.shape == b.coeffs.shape
        assert np.array_equal(a.coeffs, b.coeffs, equal_nan=True)
