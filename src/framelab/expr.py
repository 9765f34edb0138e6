"""Scalar expression language with exact forward-mode differentiation.

Expressions are parsed from text into an immutable AST and evaluated as
truncated Taylor jets, so every partial derivative up to the requested order
is exact (no finite differencing anywhere in this path).

Grammar:

    expr   : term (("+" | "-") term)*          left associative
    term   : unary (("*" | "/") unary)*        left associative
    unary  : "-" unary | power
    power  : atom ("^" unary)?                 right associative
    atom   : NUMBER | "pi" | FUNC "(" expr ")" | VARIABLE | "(" expr ")"

Functions: sin cos tan exp log sqrt sinh cosh tanh. Variables are the
declared prefix followed by an index, e.g. u1..u3 or x1..x5.

Shared subexpressions. A list of expressions evaluated on the same
variables, as an immersion's components or a metric's distinct entries,
is interned once, when its owner is made: intern rebuilds it so that
equal subtrees are one node. eval_expr then takes a memo, a dict shared
by the calls that evaluate that list on the same variables, and evaluates
each node once: a node met again is handed the jet it gave the first time.
Those jets are shared, so no caller changes one in place. Every jet is the
one a separate evaluation gives, bitwise, and a value outside a domain is
refused at the same node, with the same message and span.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from .jets import (
    Jet,
    JetSpace,
    jcos,
    jcosh,
    jexp,
    jlog,
    jpow_int,
    jsin,
    jsinh,
    jsqrt,
)

__all__ = [
    "Span",
    "Num",
    "Var",
    "PiConst",
    "Neg",
    "Bin",
    "Call",
    "Expression",
    "ExprError",
    "ParseError",
    "DomainError",
    "parse",
    "to_source",
    "free_of_variables",
    "intern",
    "eval_expr",
    "first_point",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Syntax or name resolution failure, located by byte offset."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(f"at byte {offset}: {message}")


class DomainError(ExprError):
    """Evaluation left the domain of a sub-expression."""

    def __init__(self, message: str, span: Span):
        self.span = span
        super().__init__(f"{message} in sub-expression at bytes {span.start}..{span.end}")


@dataclass(frozen=True)
class Span:
    start: int
    end: int


@dataclass(frozen=True)
class Num:
    value: float
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    index: int  # 1-based
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class PiConst:
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Neg:
    arg: "Expression"
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expression"
    span: Span = field(compare=False, repr=False)


Expression = Union[Num, Var, PiConst, Neg, Bin, Call]


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | end
    text: str
    start: int
    end: int


def _byte_offsets(source: str) -> list[int]:
    offs = [0]
    for ch in source:
        offs.append(offs[-1] + len(ch.encode("utf-8")))
    return offs


def _tokenize(source: str) -> list[_Token]:
    boff = _byte_offsets(source)
    toks = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", boff[pos])
        if m.lastgroup != "ws":
            kind = {"number": "number", "ident": "ident", "op": "op"}[m.lastgroup]
            toks.append(_Token(kind, m.group(), boff[m.start()], boff[m.end()]))
        pos = m.end()
    toks.append(_Token("end", "", boff[len(source)], boff[len(source)]))
    return toks


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, dim: int, var_prefix: str):
        if not source.strip():
            raise ParseError("empty expression", 0)
        if not 1 <= dim <= 9:
            raise ValueError(f"dimension must be between 1 and 9, got {dim}")
        self.toks = _tokenize(source)
        self.k = 0
        self.dim = dim
        self.prefix = var_prefix

    def peek(self) -> _Token:
        return self.toks[self.k]

    def advance(self) -> _Token:
        t = self.toks[self.k]
        self.k += 1
        return t

    def fail(self, expected: tuple[str, ...]):
        t = self.peek()
        got = "end of input" if t.kind == "end" else repr(t.text)
        raise ParseError(f"unexpected {got}", t.start, expected)

    def parse(self) -> Expression:
        e = self.expr()
        if self.peek().kind != "end":
            self.fail(("operator", "end of input"))
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            r = self.term()
            e = Bin(op, e, r, Span(e.span.start, r.span.end))
        return e

    def term(self) -> Expression:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            r = self.unary()
            e = Bin(op, e, r, Span(e.span.start, r.span.end))
        return e

    def unary(self) -> Expression:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.advance()
            arg = self.unary()
            return Neg(arg, Span(t.start, arg.span.end))
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.advance()
            exponent = self.unary()  # right associative
            return Bin("^", base, exponent, Span(base.span.start, exponent.span.end))
        return base

    def atom(self) -> Expression:
        t = self.peek()
        if t.kind == "number":
            self.advance()
            return Num(float(t.text), Span(t.start, t.end))
        if t.kind == "op" and t.text == "(":
            self.advance()
            e = self.expr()
            c = self.peek()
            if not (c.kind == "op" and c.text == ")"):
                self.fail(("')'",))
            self.advance()
            return e
        if t.kind == "ident":
            self.advance()
            name = t.text
            if name == "pi":
                return PiConst(Span(t.start, t.end))
            if name in FUNCTIONS:
                o = self.peek()
                if not (o.kind == "op" and o.text == "("):
                    self.fail(("'('",))
                self.advance()
                arg = self.expr()
                c = self.peek()
                if not (c.kind == "op" and c.text == ")"):
                    self.fail(("')'",))
                close = self.advance()
                return Call(name, arg, Span(t.start, close.end))
            return self.variable(t)
        self.fail(("number", "variable", "function", "'pi'", "'('", "'-'"))

    def variable(self, t: _Token) -> Var:
        name = t.text
        if name.startswith(self.prefix):
            digits = name[len(self.prefix):]
            if digits.isdigit() and (len(digits) == 1 or digits[0] != "0"):
                index = int(digits)
                if not 1 <= index <= self.dim:
                    raise ParseError(
                        f"variable {name!r} out of range for dimension {self.dim}",
                        t.start,
                    )
                return Var(name, index, Span(t.start, t.end))
        raise ParseError(f"unknown identifier {name!r}", t.start)


def parse(source: str, dim: int, var_prefix: str = "u") -> Expression:
    """Parse `source` over variables `<var_prefix>1 .. <var_prefix><dim>`.

    Expressions are immutable, so the same (source, dim, var_prefix) gives
    the same object every time; a failed parse is not remembered and raises
    again on every call.
    """
    return _parse(source, dim, var_prefix)


@lru_cache(maxsize=1024)
def _parse(source: str, dim: int, var_prefix: str) -> Expression:
    return _Parser(source, dim, var_prefix).parse()


# -- canonical printer ---------------------------------------------------------

_PREC_ATOM = 5
_PREC_POW = 4
_PREC_NEG = 3
_PREC_MUL = 2
_PREC_ADD = 1


def _prec(e: Expression) -> int:
    if isinstance(e, (Num, Var, PiConst, Call)):
        return _PREC_ATOM
    if isinstance(e, Neg):
        return _PREC_NEG
    if e.op == "^":
        return _PREC_POW
    if e.op in "*/":
        return _PREC_MUL
    return _PREC_ADD


def to_source(e: Expression) -> str:
    """Canonical rendering; parse(to_source(e)) reproduces the AST exactly."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, PiConst):
        return "pi"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, Neg):
        s = to_source(e.arg)
        if _prec(e.arg) < _PREC_NEG:
            s = f"({s})"
        return f"-{s}"
    # binary
    p = _prec(e)
    ls, rs = to_source(e.left), to_source(e.right)
    if e.op == "^":
        # right associative: parenthesize a left child at or below our level
        if _prec(e.left) <= p:
            ls = f"({ls})"
        if _prec(e.right) < p:
            rs = f"({rs})"
    else:
        if _prec(e.left) < p:
            ls = f"({ls})"
        if _prec(e.right) <= p:
            rs = f"({rs})"
    return f"{ls}{e.op}{rs}"


def free_of_variables(e: Expression) -> bool:
    """Whether e reads no variable, so that it has one value everywhere."""
    if isinstance(e, Var):
        return False
    if isinstance(e, (Neg, Call)):
        return free_of_variables(e.arg)
    if isinstance(e, Bin):
        return free_of_variables(e.left) and free_of_variables(e.right)
    return True


# -- evaluation ----------------------------------------------------------------


def intern(exprs) -> list[Expression]:
    """The expressions of the list rebuilt so that equal subtrees are one
    node, shared across the list: what a memo of eval_expr evaluates once.

    Subtrees are equal as the AST compares them, spans aside, except that
    the numbers 0.0 and -0.0 stay apart. A shared node keeps the span of its
    first occurrence in the order eval_expr evaluates the list (each
    expression in turn, a node after its operands), which is where a
    separate evaluation of the list would refuse it first."""
    nodes: dict[tuple, Expression] = {}

    def one(e: Expression) -> Expression:
        if isinstance(e, Num):
            key = (Num, e.value, math.copysign(1.0, e.value))
        elif isinstance(e, Var):
            key = (Var, e.name, e.index)
        elif isinstance(e, PiConst):
            key = (PiConst,)
        elif isinstance(e, Neg):
            arg = one(e.arg)
            key = (Neg, id(arg))
            if arg is not e.arg:
                e = Neg(arg, e.span)
        elif isinstance(e, Call):
            arg = one(e.arg)
            key = (Call, e.fn, id(arg))
            if arg is not e.arg:
                e = Call(e.fn, arg, e.span)
        else:
            left, right = one(e.left), one(e.right)
            key = (Bin, e.op, id(left), id(right))
            if left is not e.left or right is not e.right:
                e = Bin(e.op, left, right, e.span)
        # a node's key holds its operands' ids: those stay alive in nodes
        return nodes.setdefault(key, e)

    return [one(e) for e in exprs]


_TAN_POLE_EPS = 4.0 * np.finfo(float).eps


def _is_constant(j: Jet) -> bool:
    return not j.coeffs[..., 1:].any()


def first_point(points: np.ndarray, mask) -> list[float]:
    """The first point of the batch points (..., k) at which mask, broadcast
    to the batch shape, holds: the one lookup behind every refusal at points.
    A mask with stack axes ahead of the batch axes (one entry per direction
    of a stacked call at each point) names the first point at which any
    entry holds."""
    batch = points.shape[:-1]
    mask = np.asarray(mask)
    if mask.ndim > len(batch):
        mask = mask.any(axis=tuple(range(mask.ndim - len(batch))))
    return points[tuple(np.argwhere(np.broadcast_to(mask, batch))[0])].tolist()


def _refuse_where(bad, message: str, e: Expression, varjets: list[Jet]) -> None:
    """Raise the DomainError of e if bad holds anywhere, naming the first of
    the variables' points (their batch, of shape (..., dim)) where it does."""
    if bad.any():
        points = np.stack([v.val for v in varjets], axis=-1)
        raise DomainError(f"{message} at {first_point(points, bad)}", e.span)


def eval_expr(e: Expression, varjets: list[Jet], space: JetSpace, memo: dict | None = None) -> Jet:
    """Evaluate to a raw jet over pre-built variable jets (any order).

    A value outside the domain of a sub-expression raises DomainError naming
    the first point of the variables' batch where it happens.

    memo, where given, is shared by the calls that evaluate one list of
    expressions (best interned, see intern) on the same varjets and space,
    and by no others: it holds the jet of each node evaluated so far, keyed
    by the node's identity, and a node met again is handed that jet (a
    variable, which costs no work, is not kept)."""
    if isinstance(e, Var):
        if e.index > len(varjets):
            raise DomainError(
                f"variable {e.name} exceeds the evaluation dimension", e.span
            )
        return varjets[e.index - 1]
    if memo is not None:
        jet = memo.get(id(e))
        if jet is not None:
            return jet
    if isinstance(e, Num):
        jet = space.constant(e.value)
    elif isinstance(e, PiConst):
        jet = space.constant(math.pi)
    elif isinstance(e, Neg):
        jet = -eval_expr(e.arg, varjets, space, memo)
    elif isinstance(e, Call):
        jet = _call(e, eval_expr(e.arg, varjets, space, memo), varjets, space)
    else:
        jet = _binary(e, eval_expr(e.left, varjets, space, memo), varjets, space, memo)
    if memo is not None:
        memo[id(e)] = jet
    return jet


def _call(e: Call, a: Jet, varjets: list[Jet], space: JetSpace) -> Jet:
    """The jet of the call e on its argument's jet a."""
    if e.fn == "sin":
        return jsin(a)
    if e.fn == "cos":
        return jcos(a)
    if e.fn == "exp":
        return jexp(a)
    if e.fn == "sinh":
        return jsinh(a)
    if e.fn == "cosh":
        return jcosh(a)
    if e.fn == "tan":
        c = jcos(a)
        # cos of a double is never exactly 0: refuse where it is within
        # its own roundoff at a, a few eps times max(1, |a|)
        pole = np.abs(c.val) <= _TAN_POLE_EPS * np.maximum(1.0, np.abs(a.val))
        _refuse_where(pole, "tan at a pole", e, varjets)
        return jsin(a) / c
    if e.fn == "tanh":
        return jsinh(a) / jcosh(a)
    if e.fn == "log":
        _refuse_where(a.val <= 0.0, "log of a non-positive value", e, varjets)
        return jlog(a)
    if e.fn == "sqrt":
        _refuse_where(a.val < 0.0, "sqrt of a negative value", e, varjets)
        if space.order >= 1:
            _refuse_where(a.val == 0.0, "sqrt is not differentiable at zero", e, varjets)
        return jsqrt(a)
    raise AssertionError(f"unhandled function {e.fn}")


def _binary(e: Bin, l: Jet, varjets: list[Jet], space: JetSpace, memo: dict | None) -> Jet:
    """The jet of the binary node e, its left operand's jet l given and its
    right operand evaluated here, after it."""
    r = eval_expr(e.right, varjets, space, memo)
    if e.op == "+":
        return l + r
    if e.op == "-":
        return l - r
    if e.op == "*":
        return l * r
    if e.op == "/":
        _refuse_where(r.val == 0.0, "division by zero", e, varjets)
        return l / r
    if e.op == "^":
        rv = r.val
        if _is_constant(r) and (rv == np.floor(rv)).all() and (np.abs(rv) < 2**31).all():
            # an integer at every point, not always the same one
            _refuse_where((l.val == 0.0) & (rv < 0), "zero raised to a negative power", e, varjets)
            return jpow_int(l, rv)
        # non-integer exponent: b^r = exp(r log b), requires b > 0
        _refuse_where(l.val <= 0.0, "non-positive base raised to a non-integer power", e, varjets)
        return jexp(r * jlog(l))
    raise AssertionError(f"unhandled operator {e.op}")
