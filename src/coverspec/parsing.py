"""Parsing and printing of polynomial expressions in T and Y.

Grammar (EBNF):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := 'T' | 'Y' | rational | '(' expr ')'
    rational := int ('/' int)?
    int      := ['-'] digits

Whitespace is insignificant and digits are decimal digits, the ones
`int` reads.  Implicit multiplication is not allowed ('2T' is an error,
write '2*T').  A leading bare minus applies only to numeric literals
('-3*T' parses, '-T' does not; write '0 - T').

The parser evaluates in one pass: each rule returns a polynomial in Y
over base[T], and sums and products fold left in a loop, so only
parentheses nest, at most MAX_DEPTH deep.  Exponents above MAX_EXPONENT
= 64 are rejected, and so is a power or a product of degree above 64 in
Y or T, such as '(Y^64)^64' or 'Y^64*Y', before it is expanded.  A
character outside the grammar is reported wherever it is; other errors
come in reading order, so a degree or coefficient error before a later
syntax error is the one reported.
"""

import re
from fractions import Fraction

from .errors import CoverSpecError, DegreeLimitError
from .fields import QQ
from .poly import Polynomial, PolyRing

MAX_EXPONENT = 64
MAX_DEPTH = 100

_TOKEN = re.compile(r"(?P<num>\d+)|(?P<var>[TY])|(?P<op>[-+*^/()])|\S")


class ParseError(CoverSpecError):
    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


def _error(message, text, offset):
    """ParseError at the line and column of `offset` in `text`."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _tokenize(text):
    """(kind, text, offset) triples ending in an 'end' token; the kind of
    an operator is the operator itself."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            raise _error(f"unexpected character {m.group()!r}", text,
                         m.start())
        tokens.append((m.group() if kind == "op" else kind, m.group(),
                       m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _degrees(P):
    """The Y-degree and the T-degree of P (-1 for zero)."""
    return P.degree, max((c.degree for c in P.coeffs), default=-1)


def _term(P):
    """(i, j, c) when P is the one term c*T^j*Y^i, else None."""
    coeffs = P.coeffs
    if not coeffs or any(coeffs[:-1]):
        return None
    top = coeffs[-1].coeffs
    is_zero = P.domain.inner.is_zero
    if not all(is_zero(x) for x in top[:-1]):
        return None
    return len(coeffs) - 1, len(top) - 1, top[-1]


def _monomial(ring, i, j, c):
    """c*T^j*Y^i in Y over ring = base[T]."""
    base = ring.inner
    return Polynomial(ring, [ring.zero] * i
                      + [Polynomial(base, [base.zero] * j + [c])])


def _product(a, b):
    """a*b; a factor that is one term c*T^j*Y^i shifts and scales the
    other factor's coefficients instead of multiplying them."""
    ta, tb = _term(a), _term(b)
    if ta is None and tb is None:
        return a * b
    ring = a.domain
    if ta is not None and tb is not None:
        return _monomial(ring, ta[0] + tb[0], ta[1] + tb[1],
                         ring.inner.mul(ta[2], tb[2]))
    P, (i, j, c) = (a, tb) if ta is None else (b, ta)
    return P.map_coeffs(lambda q: q.shift(j).scale(c), ring).shift(i)


class _Parser:
    def __init__(self, text, base):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.ring = ring = PolyRing(base, "T")
        self.variables = {
            "Y": Polynomial(ring, [ring.zero, ring.one]),
            "T": Polynomial.constant(ring, Polynomial.variable(base))}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind):
        """Consume the next token if it is of `kind`; say whether it was."""
        if self.peek()[0] != kind:
            return False
        self.pos += 1
        return True

    def error(self, message, tok=None):
        return _error(message, self.text, (tok or self.peek())[2])

    def number(self, tok):
        try:
            return int(tok[1])
        except ValueError:  # past the int-string digit limit
            raise self.error(f"number of {len(tok[1])} digits is too long",
                             tok) from None

    def parse_expr(self):
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.parse_term()
            value = value + right if op == "+" else value - right
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.accept("*"):
            right = self.parse_factor()
            (ya, ta), (yb, tb) = _degrees(value), _degrees(right)
            if max(ya + yb, ta + tb) > MAX_EXPONENT:
                raise DegreeLimitError(
                    f"product of degree above {MAX_EXPONENT}")
            value = _product(value, right)
        return value

    def parse_factor(self):
        value = self.parse_base()
        if self.accept("^"):
            tok = self.advance()
            if tok[0] != "num":
                raise self.error("exponent must be a nonnegative integer", tok)
            exponent = self.number(tok)
            if exponent > MAX_EXPONENT:
                raise self.error(
                    f"exponent {exponent} exceeds the limit {MAX_EXPONENT}",
                    tok)
            if max(_degrees(value)) * exponent > MAX_EXPONENT:
                raise DegreeLimitError(f"power of degree above {MAX_EXPONENT}")
            term = _term(value)
            if term is None:
                value = value ** exponent
            else:
                i, j, c = term
                value = _monomial(self.ring, i * exponent, j * exponent,
                                  self.ring.inner.pow(c, exponent))
        return value

    def parse_base(self):
        kind, text, _ = tok = self.peek()
        if kind == "num" or kind == "-":
            return Polynomial.constant(self.ring, self.parse_rational())
        self.advance()
        if kind == "var":
            return self.variables[text]
        if kind != "(":
            raise self.error(
                f"expected 'T', 'Y', a number or '(', found {text!r}", tok)
        if self.depth == MAX_DEPTH:
            raise self.error(f"parentheses nested deeper than {MAX_DEPTH}",
                             tok)
        self.depth += 1
        value = self.parse_expr()
        if not self.accept(")"):
            raise self.error(f"expected ')', found {self.peek()[1]!r}")
        self.depth -= 1
        return value

    def parse_rational(self):
        negative = self.accept("-")
        if negative and self.peek()[0] != "num":
            raise self.error("expected digits after '-'")
        num = self.number(self.advance())
        num = -num if negative else num
        if not self.accept("/"):
            return Fraction(num)
        negative = self.accept("-")
        tok = self.advance()
        if tok[0] != "num":
            raise self.error("expected digits in denominator", tok)
        den = self.number(tok)
        if den == 0:
            raise self.error("zero denominator", tok)
        return Fraction(num, -den if negative else den)


def parse_bivariate(text, base=QQ):
    """Parse an expression in T and Y into a polynomial in Y over base[T]."""
    parser = _Parser(text, base)
    value = parser.parse_expr()
    if parser.peek()[0] != "end":
        raise parser.error(f"trailing input {parser.peek()[1]!r}")
    return value


def univariate_in_y(P):
    """Collapse a bivariate polynomial with constant T-coefficients."""
    base = P.domain.inner
    coeffs = []
    for c in P.coeffs:
        if c.degree > 0:
            raise CoverSpecError("polynomial involves T where only Y is allowed")
        coeffs.append(c.coeff(0))
    return Polynomial(base, coeffs)


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
            text = base.format(a)
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
