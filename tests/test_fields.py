from fractions import Fraction
from itertools import product

import pytest

from coverspec.errors import CoverSpecError, DegreeLimitError
from coverspec.fields import (
    EXT_DEGREE_CAP, QQ, ExtField, PrimeField, default_modulus, finite_field)


def test_qq_basics():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce("4/6") == Fraction(2, 3)
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert QQ.char == 0
    assert QQ == type(QQ)()


def test_prime_field_requires_prime():
    with pytest.raises(CoverSpecError):
        PrimeField(12)


def test_prime_field_ops():
    F = PrimeField(13)
    assert F.add(7, 9) == 3
    assert F.sub(2, 9) == 6
    assert F.neg(0) == 0 and F.neg(4) == 9
    for a in range(1, 13):
        assert F.mul(a, F.inv(a)) == 1
    assert F.coerce(-1) == 12
    assert F.coerce(Fraction(1, 2)) == 7
    with pytest.raises(CoverSpecError):
        F.coerce(Fraction(1, 13))


def test_prime_field_equality():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert PrimeField(5) != QQ


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_ext_field_axioms_exhaustive(q):
    F = finite_field(q)
    els = list(F.elements())
    assert len(els) == q == F.order
    one, zero = F.one, F.zero
    for a, b in product(els, repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in product(els[: min(q, 5)], repeat=3):
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    for a in els:
        assert F.add(a, zero) == a
        assert F.mul(a, one) == a
        assert F.add(a, F.neg(a)) == zero
        if a != zero:
            assert F.mul(a, F.inv(a)) == one
            assert F.pow(a, q - 1) == one


def test_ext_field_frobenius_additive():
    F = finite_field(9)
    els = list(F.elements())
    for a, b in product(els, repeat=2):
        lhs = F.pow(F.add(a, b), 3)
        rhs = F.add(F.pow(a, 3), F.pow(b, 3))
        assert lhs == rhs


def test_ext_field_enumeration_order():
    F = finite_field(9)
    assert F.from_index(0) == (0, 0)
    assert F.from_index(1) == (1, 0)
    assert F.from_index(3) == (0, 1)
    assert F.from_index(8) == (2, 2)


def test_ext_field_rejects_reducible_modulus():
    with pytest.raises(CoverSpecError):
        ExtField(PrimeField(2), [0, 0, 1])  # x^2
    ExtField(PrimeField(2), [1, 1, 1])  # x^2 + x + 1 is fine


def test_default_modulus_is_irreducible_and_deterministic():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(3, 2) == default_modulus(3, 2)
    F = ExtField(PrimeField(5), default_modulus(5, 3))
    assert F.order == 125


def test_finite_field_decomposition():
    assert isinstance(finite_field(1297), PrimeField)
    assert finite_field(49).order == 49
    assert finite_field(8).order == 8
    for bad in [6, 12, 100]:
        with pytest.raises(CoverSpecError):
            finite_field(bad)


def test_finite_field_prime_takes_no_modulus():
    with pytest.raises(CoverSpecError):
        finite_field(7, modulus=(1, 1))


def test_finite_field_edges_fail_fast():
    # integer roots only: 3**700 used to overflow a float root
    with pytest.raises(DegreeLimitError):
        finite_field(3 ** 700)
    with pytest.raises(DegreeLimitError):
        finite_field(2 ** (EXT_DEGREE_CAP + 1))
    with pytest.raises(DegreeLimitError):
        ExtField(PrimeField(2), [1] * (EXT_DEGREE_CAP + 2))
    # a perfect power of a composite, and a q past the primality cap
    for bad in (10 ** 20, 2 ** 61 + 1):
        with pytest.raises(CoverSpecError):
            finite_field(bad)
    assert finite_field(3 ** 5).order == 243
    assert finite_field(1000003 ** 2).order == 1000003 ** 2
