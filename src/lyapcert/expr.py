"""Expression ASTs, a small parser, and generic evaluation.

One parsed expression serves every evaluation mode: plain floats, batched
numpy arrays, interval arrays, and first/second-order dual numbers.  The grammar:

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ['^' INT]          (integer exponents only)
    atom    := NUMBER | 'x1'..'xN' | 'sqrt' '(' expr ')'
             | 'abs' '(' expr ')' | '(' expr ')'

Numbers may use scientific notation and must be finite; whitespace is
ignored.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .ad import Dual, Dual2, dual_seeds, dual2_seeds, hessian_of
from .errors import ParseError
from .interval import IntervalArray
from .scalars import abs_, div_, pow_, sqrt_

# -- AST nodes ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    index: int  # 0-based


@dataclass(frozen=True, slots=True)
class Bin:
    op: str  # one of '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Sqrt:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Abs:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Const, Var, Bin, Neg, Sqrt, Abs, Pow]


@dataclass(frozen=True, slots=True)
class VectorField:
    """A map R^n -> R^m given componentwise by expressions."""

    dim_in: int
    components: tuple

    @property
    def dim_out(self) -> int:
        return len(self.components)


def contains_abs(e: Expr) -> bool:
    if isinstance(e, Abs):
        return True
    if isinstance(e, Bin):
        return contains_abs(e.left) or contains_abs(e.right)
    if isinstance(e, (Neg, Sqrt)):
        return contains_abs(e.arg)
    if isinstance(e, Pow):
        return contains_abs(e.base)
    return False


def shift_vars(e: Expr, offsets) -> Expr:
    """Substitute x_i -> x_i + offsets[i] throughout the tree."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        c = float(offsets[e.index])
        if c == 0.0:
            return e
        if c > 0.0:
            return Bin("+", e, Const(c))
        return Bin("-", e, Const(-c))
    if isinstance(e, Bin):
        return Bin(e.op, shift_vars(e.left, offsets), shift_vars(e.right, offsets))
    if isinstance(e, Neg):
        return Neg(shift_vars(e.arg, offsets))
    if isinstance(e, Sqrt):
        return Sqrt(shift_vars(e.arg, offsets))
    if isinstance(e, Abs):
        return Abs(shift_vars(e.arg, offsets))
    if isinstance(e, Pow):
        return Pow(shift_vars(e.base, offsets), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


# -- parser ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.tokens = []
        self.paren_stack = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind) + 1))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is not None:
            self.i += 1
        return tok

    def _eof_column(self) -> int:
        if self.paren_stack:
            return self.paren_stack[-1]
        return len(self.text) + 1

    def parse(self) -> Expr:
        if not self.tokens:
            raise ParseError("empty expression", 1)
        e = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return e

    def _expr(self) -> Expr:
        e = self._term()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self._next()
                rhs = self._term()
                e = Bin(tok[1], e, rhs)
            else:
                return e

    def _term(self) -> Expr:
        e = self._unary()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self._next()
                rhs = self._unary()
                e = Bin(tok[1], e, rhs)
            else:
                return e

    def _unary(self) -> Expr:
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self._next()
            return Neg(self._unary())
        if tok and tok[0] == "op" and tok[1] == "+":
            self._next()
            return self._unary()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self._next()
            etok = self._next()
            if etok is None:
                raise ParseError("missing exponent after '^'", self._eof_column())
            kind, text, col = etok
            if kind != "num" or not re.fullmatch(r"\d+", text):
                raise ParseError("exponent must be a non-negative integer", col)
            return Pow(base, int(text))
        return base

    def _atom(self) -> Expr:
        tok = self._next()
        if tok is None:
            raise ParseError("unexpected end of input", self._eof_column())
        kind, text, col = tok
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):  # a constant scales enclosures, so it must be a number
                raise ParseError(f"number {text!r} is not finite", col)
            return Const(value)
        if kind == "ident":
            if text in ("sqrt", "abs"):
                open_tok = self._next()
                if open_tok is None or open_tok[1] != "(":
                    raise ParseError(
                        f"expected '(' after {text!r}",
                        open_tok[2] if open_tok else self._eof_column(),
                    )
                self.paren_stack.append(open_tok[2])
                arg = self._expr()
                self._expect_close()
                return Sqrt(arg) if text == "sqrt" else Abs(arg)
            m = re.fullmatch(r"x(\d+)", text)
            if not m:
                raise ParseError(f"unknown identifier {text!r}", col)
            idx = int(m.group(1))
            if idx < 1 or idx > self.dim:
                raise ParseError(
                    f"unknown variable {text!r} (dimension is {self.dim})", col
                )
            return Var(idx - 1)
        if text == "(":
            self.paren_stack.append(col)
            e = self._expr()
            self._expect_close()
            return e
        raise ParseError(f"unexpected token {text!r}", col)

    def _expect_close(self):
        tok = self._next()
        if tok is None or tok[1] != ")":
            col = self.paren_stack[-1] if tok is None else tok[2]
            raise ParseError("unclosed parenthesis", col)
        self.paren_stack.pop()


def parse_expr(text: str, dim: int) -> Expr:
    """Parse an expression over variables x1..x<dim>."""
    return _Parser(text, dim).parse()


# -- pretty printing ------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def pretty(e: Expr) -> str:
    """Render an expression; parse(pretty(e)) reproduces the tree."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Const):
        s = repr(e.value)
        if s.endswith(".0"):
            s = s[:-2]
        return s
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        left = _render(e.left, prec)
        # right side of - and / binds tighter to preserve grouping
        right = _render(e.right, prec + (1 if e.op in "-/" else 0))
        if e.op in "+-":
            s = f"{left} {e.op} {right}"
        else:
            s = f"{left}{e.op}{right}"
        return f"({s})" if prec < parent_prec else s
    if isinstance(e, Neg):
        s = f"-{_render(e.arg, _PREC['neg'] + 1)}"
        return f"({s})" if _PREC["neg"] < parent_prec else s
    if isinstance(e, Sqrt):
        return f"sqrt({_render(e.arg, 0)})"
    if isinstance(e, Abs):
        return f"abs({_render(e.arg, 0)})"
    if isinstance(e, Pow):
        s = f"{_render(e.base, _PREC['pow'] + 1)}^{e.exponent}"
        return f"({s})" if _PREC["pow"] < parent_prec else s
    raise TypeError(f"not an expression node: {e!r}")


# -- evaluation -----------------------------------------------------------


def eval_any(e: Expr, env):
    """Evaluate over any payload sequence (floats, arrays, interval arrays, duals)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.index]
    if isinstance(e, Bin):
        a = eval_any(e.left, env)
        b = eval_any(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return div_(a, b)
    if isinstance(e, Neg):
        return -eval_any(e.arg, env)
    if isinstance(e, Sqrt):
        return sqrt_(eval_any(e.arg, env))
    if isinstance(e, Abs):
        return abs_(eval_any(e.arg, env))
    if isinstance(e, Pow):
        return pow_(eval_any(e.base, env), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def eval_real(e: Expr, x) -> float:
    """Pointwise floating evaluation."""
    return float(eval_any(e, [float(v) for v in x]))


def eval_batch(e: Expr, X: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over rows of X (shape (N, n))."""
    X = np.asarray(X, dtype=float)
    out = eval_any(e, [X[:, i] for i in range(X.shape[1])])
    if not isinstance(out, np.ndarray):
        out = np.full(X.shape[0], float(out))
    return out


def eval_interval(e: Expr, box: IntervalArray) -> IntervalArray:
    """Enclosures of the image of the expression over N boxes, given as an
    IntervalArray of shape (n, N) (one box: HyperRect.to_interval_vector());
    an IntervalArray of shape (N,)."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, as for floats
        out = eval_any(e, list(box))
    if not isinstance(out, IntervalArray):
        out = box[0].constant(out)
    return out


def eval_grad(e: Expr, x):
    """Value and exact gradient at a point via first-order duals."""
    seeds = dual_seeds([float(v) for v in x])
    out = eval_any(e, seeds)
    n = len(seeds)
    if not isinstance(out, Dual):
        return float(out), np.zeros(n)
    return float(out.value), np.array(out.grad, dtype=float)


def eval_hess_interval(e: Expr, box: IntervalArray):
    """Enclosures of value, gradient and Hessian over N boxes, given as an
    IntervalArray of shape (n, N).

    Returns IntervalArrays of shapes (N,), (n, N) and (N, n, n); the
    Hessian is symmetric by construction.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = eval_any(e, dual2_seeds(list(box)))
    hess = hessian_of(out, box)
    if not isinstance(out, Dual2):
        return box[0].constant(out), IntervalArray.point(np.zeros(box.lo.shape)), hess
    return out.value, out.grad, hess
