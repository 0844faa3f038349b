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

The parser evaluates in one pass on integer term maps: each rule
returns (terms, d), the sum of c*T^j*Y^i / d over the entries
{i * _SLOT + j: c} of terms, with d > 0.  Over GF(q), d = 1 and every c
is reduced mod p, as each literal lies in the prime field.  Sums add in
place and products fold left in a loop, so only parentheses nest, at
most MAX_DEPTH deep; P over base[T] is built once, at the end.
Exponents above MAX_EXPONENT = 64 are rejected, and so, before it is
expanded, is a power or a product of degree above 64 in Y or T, such as
'(Y^64)^64' or 'Y^64*Y', or one whose coefficient bound passes the
int-string digit limit.  A character outside the grammar is reported
wherever it is; other errors come in reading order, so a degree or
coefficient error before a later syntax error is the one reported.
"""

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .errors import CoverSpecError, DegreeLimitError
from .fields import QQ
from .numutil import past_digit_limit, power
from .poly import Polynomial, PolyRing

MAX_EXPONENT = 64
MAX_DEPTH = 100
_SLOT = 128  # above every T-degree, so the keys of terms add in products

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


def _degrees(terms):
    """The Y-degree and the T-degree of a term map (-1 for zero)."""
    return ((max(terms) // _SLOT, max(k % _SLOT for k in terms)) if terms
            else (-1, -1))


class _Parser:
    def __init__(self, text, base):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.prime = getattr(base, "base", base)  # GF(p) under GF(p^f)
        self.p = base.char

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

    def reduced(self, terms, d):
        """terms/d with zero terms dropped, mod p or in lowest terms."""
        if self.p:
            return {k: c % self.p for k, c in terms.items() if c % self.p}, 1
        g = gcd(d, *terms.values())
        return {k: c // g for k, c in terms.items() if c}, d // g

    def mul(self, a, b):
        """a*b, refused first if a bound on its coefficients is too long."""
        (x, d), (y, e) = a, b
        top = [max(map(abs, z.values()), default=0) for z in (x, y)]
        if past_digit_limit(max(d * e, min(len(x), len(y)) * top[0] * top[1])):
            raise CoverSpecError("product or power with a coefficient of more"
                                 f" than {sys.get_int_max_str_digits()} digits")
        out = {}
        for k, c in x.items():
            for l, f in y.items():
                out[k + l] = out.get(k + l, 0) + c * f
        return self.reduced(out, d * e)

    def parse_expr(self):
        terms, d = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.advance()[0] == "+" else -1
            right, e = self.parse_term()
            m = lcm(d, e)
            if m != d:
                terms = {k: c * (m // d) for k, c in terms.items()}
            d, sign = m, sign * (m // e)
            for k, c in right.items():
                terms[k] = terms.get(k, 0) + sign * c
        return self.reduced(terms, d)

    def parse_term(self):
        value = self.parse_factor()
        while self.accept("*"):
            right = self.parse_factor()
            (ya, ta), (yb, tb) = _degrees(value[0]), _degrees(right[0])
            if max(ya + yb, ta + tb) > MAX_EXPONENT:
                raise DegreeLimitError(
                    f"product of degree above {MAX_EXPONENT}")
            value = self.mul(value, right)
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
            if max(_degrees(value[0])) * exponent > MAX_EXPONENT:
                raise DegreeLimitError(f"power of degree above {MAX_EXPONENT}")
            value = power(value, exponent, self.mul, ({0: 1}, 1))
        return value

    def parse_base(self):
        kind, text, _ = tok = self.peek()
        if kind == "num" or kind == "-":
            return self.parse_rational()
        self.advance()
        if kind == "var":
            return {_SLOT if text == "Y" else 1: 1}, 1
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
        """A literal, read over GF(q) in the prime field of base."""
        negative = self.accept("-")
        if negative and self.peek()[0] != "num":
            raise self.error("expected digits after '-'")
        num, den = self.number(self.advance()) * (-1 if negative else 1), 1
        if self.accept("/"):
            negative, tok = self.accept("-"), self.advance()
            if tok[0] != "num":
                raise self.error("expected digits in denominator", tok)
            den = self.number(tok) * (-1 if negative else 1)
            if den == 0:
                raise self.error("zero denominator", tok)
        q = Fraction(num, den)
        if self.p:
            q = self.prime.coerce(q)
        return self.reduced({0: q.numerator}, q.denominator)


def parse_bivariate(text, base=QQ):
    """Parse an expression in T and Y into a polynomial in Y over base[T]."""
    parser = _Parser(text, base)
    terms, d = parser.parse_expr()
    if parser.peek()[0] != "end":
        raise parser.error(f"trailing input {parser.peek()[1]!r}")
    ydeg, tdeg = _degrees(terms)
    rows = [[base.zero] * (tdeg + 1) for _ in range(ydeg + 1)]
    for k, c in terms.items():
        rows[k // _SLOT][k % _SLOT] = base.coerce(Fraction(c, d))
    return Polynomial(PolyRing(base),
                      [Polynomial(base, row) for row in rows])


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
