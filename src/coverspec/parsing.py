"""Parsing and printing of polynomial expressions in T and Y.

Grammar (EBNF):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := 'T' | 'Y' | rational | '(' expr ')'
    rational := int ('/' int)?
    int      := ['-'] digits

Whitespace is insignificant.  Implicit multiplication is not allowed
('2T' is an error, write '2*T').  Exponents above 64 are rejected, and
so is a power of degree above 64 in Y or T, such as '(Y^64)^64'.  A
leading bare minus applies only to numeric literals ('-3*T' parses,
'-T' does not; write '0 - T').
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CoverSpecError, DegreeLimitError
from .fields import QQ
from .poly import Polynomial, PolyRing

MAX_EXPONENT = 64


class ParseError(CoverSpecError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < len(text) and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(("num", text[start:i], line, start_col))
            continue
        if ch in "TY":
            tokens.append(("var", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message):
        kind, text, line, col = self.peek()
        raise ParseError(message, line, col)

    def expect(self, kind):
        if self.peek()[0] != kind:
            self.error(f"expected {kind!r}, found {self.peek()[1]!r}")
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.parse_term()
            node = BinOp(op, node, right)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self):
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.advance()
            kind, text, line, col = self.peek()
            if kind != "num":
                self.error("exponent must be a nonnegative integer")
            self.advance()
            exponent = int(text)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} exceeds the limit {MAX_EXPONENT}",
                    line, col)
            return Pow(base, exponent)
        return base

    def parse_base(self):
        kind, text, line, col = self.peek()
        if kind == "var":
            self.advance()
            return Var(text)
        if kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "num" or kind == "-":
            return self.parse_rational()
        self.error(f"expected 'T', 'Y', a number or '(', found {text!r}")

    def parse_rational(self):
        negative = False
        if self.peek()[0] == "-":
            self.advance()
            negative = True
            if self.peek()[0] != "num":
                self.error("expected digits after '-'")
        kind, text, line, col = self.advance()
        if kind != "num":
            raise ParseError("expected digits", line, col)
        num = -int(text) if negative else int(text)
        if self.peek()[0] == "/":
            self.advance()
            dkind, dtext, dline, dcol = self.peek()
            neg_den = False
            if dkind == "-":
                self.advance()
                neg_den = True
                dkind, dtext, dline, dcol = self.peek()
            if dkind != "num":
                raise ParseError("expected digits in denominator", dline, dcol)
            self.advance()
            den = int(dtext)
            if neg_den:
                den = -den
            if den == 0:
                raise ParseError("zero denominator", dline, dcol)
            return Num(Fraction(num, den))
        return Num(Fraction(num))


def parse_poly(text):
    """Parse an expression in T and Y into an abstract syntax tree."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.peek()[0] != "end":
        parser.error(f"trailing input {parser.peek()[1]!r}")
    return node


def to_bivariate(node, base=QQ):
    """Evaluate an AST into a polynomial in Y over base[T]."""
    ring = PolyRing(base, "T")
    t_poly = Polynomial.variable(base)

    def ev(n):
        if isinstance(n, Num):
            return Polynomial.constant(ring, ring.coerce(n.value))
        if isinstance(n, Var):
            if n.name == "Y":
                return Polynomial(ring, [ring.zero, ring.one])
            return Polynomial.constant(ring, t_poly)
        if isinstance(n, Pow):
            b = ev(n.base)
            top = max([b.degree] + [c.degree for c in b.coeffs])
            if top * n.exponent > MAX_EXPONENT:
                raise DegreeLimitError(f"power of degree above {MAX_EXPONENT}")
            return b ** n.exponent
        if isinstance(n, BinOp):
            left, right = ev(n.left), ev(n.right)
            if n.op == "+":
                return left + right
            if n.op == "-":
                return left - right
            return left * right
        raise CoverSpecError(f"unknown node {n!r}")

    return ev(node)


def parse_bivariate(text, base=QQ):
    return to_bivariate(parse_poly(text), base)


def univariate_in_y(P):
    """Collapse a bivariate polynomial with constant T-coefficients."""
    base = P.domain.inner
    coeffs = []
    for c in P.coeffs:
        if c.degree > 0:
            raise CoverSpecError("polynomial involves T where only Y is allowed")
        coeffs.append(c.coeff(0))
    return Polynomial(base, coeffs)


def _format_coefficient(base, value):
    return base.format(value)


def pretty(P):
    """Canonical textual form of a bivariate polynomial; parses back equal.

    Terms are emitted by decreasing Y-degree, then decreasing T-degree;
    negative rational coefficients fold their sign into the separator.
    """
    ring = P.domain
    base = ring.inner
    terms = []
    for i in range(P.degree, -1, -1):
        c = P.coeff(i)
        for j in range(c.degree, -1, -1):
            a = c.coeff(j)
            if base.is_zero(a):
                continue
            text = _format_coefficient(base, a)
            negative = text.startswith("-")
            if negative:
                text = text[1:]
            parts = []
            if j:
                parts.append(f"T^{j}" if j > 1 else "T")
            if i:
                parts.append(f"Y^{i}" if i > 1 else "Y")
            if not parts or text != "1":
                parts.insert(0, text)
            terms.append(("-" if negative else "+", "*".join(parts)))
    if not terms:
        return "0"
    sign, first = terms[0]
    if sign == "-":
        # a leading bare minus only binds to literals, so make the
        # coefficient explicit: -T becomes -1*T
        out = "-" + first if first[0].isdigit() else "-1*" + first
    else:
        out = first
    for sign, text in terms[1:]:
        out += f" {sign} {text}"
    return out
