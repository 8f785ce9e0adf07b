"""Text grammar for polynomials and rational-function expressions.

Grammar (whitespace insignificant, the unicode minus sign is accepted):

    expr     := product (('+'|'-') product)*
    product  := unary (('*'|'/') unary)*
    unary    := ('+'|'-')* power
    power    := atom ('^' signed_int)?
    atom     := INT | variable | '(' expr ')'
    variable := NAME ('^' exponent)?
    exponent := signed_int | '(' signed_int (',' signed_int)* ')'

Rationals are written ``p/q`` or ``p`` (the slash doubles as exact division,
which yields the same value).  With a single variable name and rank N > 1,
monomials use the vector form ``X^(1,-2)``; with one name per coordinate
(for example Y and X), each variable takes a plain integer power.

Parse errors carry the offending position and what was expected.
Parentheses nest at most ``MAX_NESTING`` deep; a deeper '(' is a parse
error at its position rather than a ``RecursionError``.  A power, product,
quotient, sum or difference whose estimated size exceeds ``MAX_POWER_SIZE``
raises ``LimitExceeded`` before it is computed; p/q +- r/s is estimated as
(p*s +- r*q) / (q*s).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from .laurent import LaurentPolynomial, LimitExceeded, check_rank
from .ratfunc import RationalFunction


MAX_NESTING = 100  # parenthesis depth; each level costs five Python frames

# Estimated size of a power's result: its terms times (the widest
# coefficient's bits plus the term count), so that both the bits and the
# term-by-term products that build them count.  At the limit 91^149796,
# (X+1)^723 and (1+X+X^2)^361 take about 0.05 s on a 2-vCPU VM, and
# 1/(X+1)^323 + 1/(X-1)^323, whose gcd has degree-646 inputs, about 0.4 s;
# 91^5497340 and (X+1)^3000 took 24 s and 29 s unchecked.
MAX_POWER_SIZE = 1 << 20


class ParseError(ValueError):
    """Syntax error in the expression grammar, with position information."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^(),])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


Box = tuple[tuple[int, int], ...]  # (lowest, highest) exponent per coordinate
Shape = tuple[int, int, Box]  # term count, coefficient width, support box
HeightShape = tuple[int, int, Box]  # term count, height, support box


class _Factor(NamedTuple):
    """An atom with its power (a negative one already applied to the atom as
    its inverse) and sign, not yet multiplied out, so that a product's size
    is checked before either operand's power is computed.  A parenthesised
    group passes its factor through unforced."""

    atom: RationalFunction
    exponent: int | None = None
    negative: bool = False

    def shapes(self) -> tuple[Shape, Shape]:
        """The numerator's and the denominator's shape, estimated for a power."""
        num, den = _height_shapes(self.atom)
        if self.exponent is None:
            return _shape(num), _shape(den)
        return _power_shape(num, self.exponent), _power_shape(den, self.exponent)

    def value(self) -> RationalFunction:
        value = self.atom if self.exponent is None else self.atom ** self.exponent
        return -value if self.negative else value


class _Parser:
    def __init__(self, text: str, rank: int, names: tuple[str, ...]):
        if rank < 1:
            raise ValueError("rank must be positive")
        check_rank(rank)
        names = tuple(names)
        self.vector_mode = len(names) == 1 and rank > 1
        if not self.vector_mode and len(names) != rank:
            raise ValueError("need one variable name per coordinate")
        self.rank = rank
        self.coords = {name: i for i, name in enumerate(names)}
        self.tokens = _tokenize(text.replace("−", "-"))
        self.index = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def at_op(self, *ops: str) -> str | None:
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            return value
        return None

    # -- grammar ----------------------------------------------------------

    def parse(self) -> RationalFunction:
        factor = self.expr()
        kind, token, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {token!r}", pos)
        return factor.value()

    def expr(self) -> _Factor:
        left = self.product()
        while (op := self.at_op("+", "-")) is not None:
            _, _, pos = self.advance()
            rhs = self.product()
            (p, q), (r, s) = left.shapes(), rhs.shapes()
            num = _sum_shape(_product_shape(p, s), _product_shape(r, q))
            if _size(num) + _size(_product_shape(q, s)) > MAX_POWER_SIZE:
                raise LimitExceeded(f"sum at position {pos} exceeds the size limit {MAX_POWER_SIZE}")
            value, rhs_value = left.value(), rhs.value()
            left = _Factor(value + rhs_value if op == "+" else value - rhs_value)
        return left

    def product(self) -> _Factor:
        left = self.unary()
        while (op := self.at_op("*", "/")) is not None:
            _, _, pos = self.advance()
            rhs = self.unary()
            (lnum, lden), (num, den) = left.shapes(), rhs.shapes()
            if op == "/":
                num, den = den, num
            if _size(_product_shape(lnum, num)) + _size(_product_shape(lden, den)) > MAX_POWER_SIZE:
                raise LimitExceeded(f"product at position {pos} exceeds the size limit {MAX_POWER_SIZE}")
            value, rhs_value = left.value(), rhs.value()
            if op == "*":
                value = value * rhs_value
            else:
                if rhs_value.is_zero():
                    raise ParseError("division by zero", pos)
                value = value / rhs_value
            left = _Factor(value)
        return left

    def unary(self) -> _Factor:
        negative = False
        while (op := self.at_op("+", "-")) is not None:
            self.advance()
            negative ^= op == "-"
        factor = self.power()
        return factor._replace(negative=factor.negative ^ negative)

    def power(self) -> _Factor:
        operand = self.atom()
        if not self.at_op("^"):
            return operand
        _, _, pos = self.advance()
        exponent = self.signed_int()
        atom = operand.value()
        factor = _Factor(atom, abs(exponent))
        if sum(map(_size, factor.shapes())) > MAX_POWER_SIZE:
            raise LimitExceeded(f"power at position {pos} exceeds the size limit {MAX_POWER_SIZE}")
        return factor if exponent >= 0 else factor._replace(atom=atom.inverse())

    def atom(self) -> _Factor:
        """A number, a variable, or a parenthesised group left unforced, so
        that a product checks the group's estimated size before computing it."""
        kind, token, pos = self.peek()
        if kind == "int":
            self.advance()
            return _Factor(RationalFunction.from_scalar(self.rank, Fraction(int(token))))
        if kind == "name":
            self.advance()
            return _Factor(self.variable(token, pos))
        if kind == "op" and token == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.advance()
            self.depth += 1
            factor = self.expr()
            self.depth -= 1
            self.expect_op(")")
            return factor
        raise ParseError("expected a number, variable, or '('", pos)

    def variable(self, name: str, pos: int) -> RationalFunction:
        if name not in self.coords:
            raise ParseError(f"unknown variable {name!r}", pos)
        if self.at_op("^"):
            self.advance()
            exponent = self.exponent_vector(name)
        else:
            if self.vector_mode:
                raise ParseError(f"variable {name!r} requires an exponent vector", pos)
            exponent = self.unit(self.coords[name], 1)
        return RationalFunction(LaurentPolynomial.monomial(self.rank, exponent))

    def unit(self, coord: int, value: int) -> tuple[int, ...]:
        exponent = [0] * self.rank
        exponent[coord] = value
        return tuple(exponent)

    def exponent_vector(self, name: str) -> tuple[int, ...]:
        kind, token, pos = self.peek()
        if kind == "op" and token == "(":
            if not self.vector_mode:
                raise ParseError("vector exponents need the single-variable form", pos)
            self.advance()
            coords = [self.signed_int()]
            while self.at_op(","):
                self.advance()
                coords.append(self.signed_int())
            self.expect_op(")")
            if len(coords) != self.rank:
                raise ParseError(f"expected {self.rank} exponent coordinates", pos)
            return tuple(coords)
        if self.vector_mode:
            raise ParseError(f"expected '(' after {name}^", pos)
        return self.unit(self.coords[name], self.signed_int())

    def signed_int(self) -> int:
        sign = 1
        while (op := self.at_op("+", "-")) is not None:
            self.advance()
            if op == "-":
                sign = -sign
        kind, token, pos = self.peek()
        if kind != "int":
            raise ParseError("expected an integer", pos)
        self.advance()
        return sign * int(token)


def _height_shapes(r: RationalFunction) -> tuple[HeightShape, HeightShape]:
    """The height shapes of num(r) and den(r): each side's term count, its
    height (widest numerator times widest denominator) and its support's box.

    They are read from r's integer form p*f / (q*g) in every rank, and
    neither num nor den is built: den = g has int coefficients, and the
    coefficient p*c/q of num reduces to (p*c/d) / (q/d) with d = gcd(c, q),
    because p and q are coprime.
    """
    p, q, f, g = r._ints
    den = len(g), max(map(abs, g.values())), _support_box(g, r.rank)
    if not p:
        return (0, 0, ()), den
    gcds = [math.gcd(c, q) for c in f.values()]
    height = abs(p) * max([abs(c) // d for c, d in zip(f.values(), gcds)]) * (q // min(gcds))
    return (len(f), height, _support_box(f, r.rank)), den


def _support_box(f: dict, rank: int) -> Box:
    """The box of a nonzero int map's support: int exponents in rank 1,
    Vectors above."""
    if rank == 1:
        return ((min(f), max(f)),)
    return tuple([(min(column), max(column)) for column in zip(*f)])


def _box_terms(box: Box) -> int:
    """The number of exponents in a box."""
    return math.prod(high - low + 1 for low, high in box)


def _shape(height_shape: HeightShape) -> Shape:
    """The shape of a polynomial itself; its width is the bits of height - 1,
    so 0 for unit coefficients."""
    t, height, box = height_shape
    return t, (height - 1).bit_length() if t else 0, box


def _power_shape(height_shape: HeightShape, k: int) -> Shape:
    """Upper estimates for the shape of a polynomial's k-th power: the term
    count is a multinomial count or the size of k times the support's box,
    and each coefficient has at most k times the bits of (term count) *
    height."""
    t, height, box = height_shape
    if not t:
        return 0, 0, ()
    k = min(k, MAX_POWER_SIZE + 1)  # the size grows with k and exceeds the limit past it
    box = tuple([(k * low, k * high) for low, high in box])
    return min(math.comb(k + t - 1, t - 1), _box_terms(box)), k * (t * height - 1).bit_length(), box


def _product_shape(a: Shape, b: Shape) -> Shape:
    """Upper estimates for the shape of a product: every pair of terms or
    the sum of the boxes, and coefficients that sum at most min(ta, tb)
    products of the two widths."""
    (ta, wa, ba), (tb, wb, bb) = a, b
    box = tuple([(la + lb, ha + hb) for (la, ha), (lb, hb) in zip(ba, bb)])
    return min(ta * tb, _box_terms(box)), wa + wb + (min(ta, tb) - 1).bit_length(), box


def _sum_shape(a: Shape, b: Shape) -> Shape:
    """Upper estimates for the shape of a sum: the terms of both or the
    box around both boxes, and one bit more than the wider coefficients."""
    (ta, wa, ba), (tb, wb, bb) = a, b
    if not ta:
        return b
    if not tb:
        return a
    box = tuple([(min(la, lb), max(ha, hb)) for (la, ha), (lb, hb) in zip(ba, bb)])
    return min(ta + tb, _box_terms(box)), max(wa, wb) + 1, box


def _size(shape: Shape) -> int:
    """The size ``MAX_POWER_SIZE`` bounds: terms times (width plus terms),
    so that both the bits and the term-by-term products that build them
    count."""
    terms, width, _ = shape
    return terms * (width + terms)


def parse_ratfunc(text: str, rank: int = 1, names: tuple[str, ...] = ("X",)) -> RationalFunction:
    """Parse a rational-function expression of the given rank."""
    return _Parser(text, rank, names).parse()


def parse_poly(text: str, rank: int = 1, names: tuple[str, ...] = ("X",)) -> LaurentPolynomial:
    """Parse an expression and require it to be a Laurent polynomial.

    A one-term denominator, always X^e with coefficient 1, is folded back
    into negative exponents.
    """
    value = parse_ratfunc(text, rank, names)
    if len(value.den) != 1:
        raise ParseError("expression is not a polynomial", 0)
    return value.num.shift(tuple([-e for e in value.den.lex_min_exponent()]))


def parse_rational(text: str) -> Fraction:
    """Parse a plain rational number written as ``p`` or ``p/q``."""
    try:
        return Fraction(text.replace("−", "-").strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}", 0) from exc
