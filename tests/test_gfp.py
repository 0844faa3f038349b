"""The int-list kernel against naive convolution and trial division."""

import pytest
from hypothesis import given, settings, strategies as st

from coverspec import gfp
from coverspec.errors import CoverSpecError
from coverspec.fields import PrimeField
from coverspec.poly import Polynomial

from oracles import (
    all_monic_polys, euclid_gcd, factors_by_trial, pattern_by_powering,
    seeded, x_power_mod)


def naive_mul(a, b, m):
    out = [0] * (len(a) + len(b))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] += a[i] * b[j]
    out = [c % m for c in out]
    while out and out[-1] == 0:
        out.pop()
    return out


def naive_add(a, b, m):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m
           for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def random_list(rng, m, degree):
    if degree < 0:
        return []
    return [rng.randrange(m) for _ in range(degree)] + [rng.randrange(1, m)]


@pytest.mark.parametrize("m", [2, 7, 101, 7 ** 5])
def test_mul_and_sub_match_naive(m):
    rng = seeded(m)
    for _ in range(200):
        a = random_list(rng, m, rng.randrange(-1, 8))
        b = random_list(rng, m, rng.randrange(-1, 8))
        assert gfp.mul(a, b, m) == naive_mul(a, b, m)
        assert naive_add(gfp.sub(a, b, m), b, m) == a


@pytest.mark.parametrize("p", [2, 3, 101, 10007])
def test_divmod_is_euclidean_division(p):
    rng = seeded(p)
    for _ in range(300):
        a = random_list(rng, p, rng.randrange(-1, 10))
        b = random_list(rng, p, rng.randrange(0, 6))
        q, r = gfp.divmod(a, b, p)
        assert len(r) < len(b)
        assert naive_add(naive_mul(q, b, p), r, p) == a
    with pytest.raises(ZeroDivisionError):
        gfp.divmod([1, 1], [], p)


def test_gcd_and_xgcd_bezout():
    rng = seeded(11)
    p = 17
    for _ in range(200):
        d = random_list(rng, p, rng.randrange(0, 3))
        a = naive_mul(d, random_list(rng, p, rng.randrange(-1, 5)), p)
        b = naive_mul(d, random_list(rng, p, rng.randrange(0, 5)), p)
        g, s = gfp.xgcd(a, b, p)
        assert g[-1] == 1
        assert gfp.divmod(naive_mul(s, a, p), b, p)[1] == gfp.divmod(g, b, p)[1]
        assert gfp.gcd(a, b, p) == g
        assert not gfp.divmod(a, g, p)[1] and not gfp.divmod(b, g, p)[1]
        assert not gfp.divmod(g, d, p)[1]


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_gcd_matches_euclid_on_zero_constant_and_drawn_operands(p):
    # the remainder-only loop against Euclid on Polynomial's own division
    rng = seeded(p + 130)
    F = PrimeField(p)
    drawn = []
    for _ in range(150):
        d = random_list(rng, p, rng.randrange(-1, 4))
        drawn.append((naive_mul(d, random_list(rng, p, rng.randrange(-1, 7)),
                                p),
                      naive_mul(d, random_list(rng, p, rng.randrange(-1, 7)),
                                p)))
    small = [[], [1], [rng.randrange(1, p)], random_list(rng, p, 3)]
    for a, b in drawn + [(a, b) for a in small for b in small]:
        expected = euclid_gcd(Polynomial(F, a), Polynomial(F, b))
        assert gfp.gcd(a, b, p) == list(expected.coeffs), (a, b)


@pytest.mark.parametrize("p", [2, 3])
def test_rabin_matches_trial_division(p):
    rng = seeded(p + 40)
    F = PrimeField(p)
    for _ in range(150):
        f = random_list(rng, p, rng.randrange(1, 8))
        f[-1] = 1
        _, facs = factors_by_trial(Polynomial(F, f))
        single = len(facs) == 1 and facs[0][1] == 1
        assert gfp.is_irreducible(f, p) == single


def check_pattern(f, p):
    """On a squarefree f, every block (d, g) of gfp.ddf(f) has deg g a
    multiple of d, the blocks multiply back to f, and they name
    pattern_by_powering's degrees; gfp.is_irreducible is False on f with
    a repeated factor (gcd(f, f') != 1)."""
    poly = Polynomial(PrimeField(p), f)
    if euclid_gcd(poly, poly.derivative()).degree > 0:
        assert gfp.is_irreducible(f, p) is False
        return
    blocks = list(gfp.ddf(f, p))
    product = [1]
    for d, g in blocks:
        assert (len(g) - 1) % d == 0 and g[-1] == 1, (f, blocks)
        product = gfp.mul(product, g, p)
    assert product == f, (f, blocks)
    degrees = sorted((d for d, g in blocks for _ in range((len(g) - 1) // d)),
                     reverse=True)
    assert tuple(degrees) == pattern_by_powering(poly), (f, blocks)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pattern_matches_factor_ff_on_every_monic_up_to_degree_4(p):
    F = PrimeField(p)
    for n in range(1, 5):
        for f in all_monic_polys(F, n):
            check_pattern(list(f.coeffs), p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 101, 1009, 10007, 100003]),
       data=st.data())
def test_pattern_matches_factor_ff_on_drawn_polys(p, data):
    n = data.draw(st.integers(1, 9))
    tail = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    check_pattern(tail + [1], p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pattern_below_the_degree(p):
    # p < n: x^p is a plain shift and several Frobenius steps run
    rng = seeded(p + 70)
    for _ in range(100):
        check_pattern([rng.randrange(p) for _ in range(7)] + [1], p)


@pytest.mark.parametrize("p", [2, 3, 13, 10007])
def test_pattern_rejects_repeated_factors(p):
    rng = seeded(p + 90)
    for _ in range(50):
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 4))] + [1]
        h = [rng.randrange(p) for _ in range(rng.randrange(0, 4))] + [1]
        assert gfp.is_irreducible(gfp.mul(gfp.mul(g, g, p), h, p), p) is False
    # (x + 1)^p, f' = 0
    assert gfp.is_irreducible([1] + [0] * (p - 1) + [1], p) is False
    assert gfp.is_irreducible([1], p) is False  # a constant is a unit


def unpacked_rows(f, p):
    rows, w = gfp._frobenius_rows(f, p, gfp._x_to_the_p(f, p))
    n, mask = len(f) - 1, (1 << w) - 1
    return [gfp.trim([row >> (w * k) & mask for k in range(n)])
            for row in rows]


@pytest.mark.parametrize("p", [2, 3, 53, 1301, 10007, 2 ** 61 - 1])
def test_packed_frobenius_rows_match_powering(p):
    # row i is x^(i*p) mod f, packed in slots w = bit_length(n^3 p^4) bits
    # wide, which Barrett's reduction never carries across.  The fibers
    # x^7 - x^6 - t mod 53 stay as inputs: narrower slots, of
    # bit_length(n p^3) + 1 bits, overflowed on five of them, and on about
    # one random f in 3000 there
    rng = seeded(p + 7)
    for n in range(2, 13):
        fs = [[rng.randrange(p) for _ in range(n)] + [1] for _ in range(3)]
        if (n, p) == (7, 53):
            fs += [[-t % p] + [0] * 5 + [p - 1, 1] for t in range(p)]
        for f in fs:
            assert unpacked_rows(f, p) == [x_power_mod(i * p, f, p)
                                           for i in range(n)], (f, p)
    f = [rng.randrange(p) for _ in range(64)] + [1]
    rows = unpacked_rows(f, p)
    for i in (0, 1, 2, 63):  # the oracle is slow at n = 64
        assert rows[i] == x_power_mod(i * p, f, p)


@pytest.mark.parametrize("p", [2, 3, 53, 1009])
def test_ddf_takes_one_gcd_for_its_first_block(monkeypatch, p):
    # a degree-64 f may take 32 Frobenius steps; its first block takes one,
    # and one gcd(x^p - x, f), the product of the x - r over the roots r
    rng = seeded(p + 11)
    f = [rng.randrange(p) for _ in range(64)] + [1]
    calls = []
    gcd = gfp.gcd

    def counting(a, b, p):
        calls.append(p)
        return gcd(a, b, p)

    monkeypatch.setattr(gfp, "gcd", counting)
    blocks = gfp.ddf(f, p)
    assert not calls
    roots = sum(1 for x in range(p)
                if not sum(c * pow(x, i, p) for i, c in enumerate(f)) % p)
    d, g = next(blocks)
    assert d == 1 and len(g) - 1 == roots
    assert len(calls) == 1


def test_ddf_builds_no_q_rows_before_its_second_step(monkeypatch):
    # step 1 reads x^p alone, so a polynomial with a root is decided
    # reducible with no row built; a first block at d = 2 builds them once
    built = []
    rows = gfp._frobenius_rows

    def counting(f, p, packed=None):
        built.append(f)
        return rows(f, p, packed)

    monkeypatch.setattr(gfp, "_frobenius_rows", counting)
    for p in (3, 1009, 10007):
        rng = seeded(p + 150)
        for n in (2, 7, 64):
            r = rng.randrange(p)
            f = gfp.mul([-r % p, 1], random_list(rng, p, n - 1), p)
            f = [c * pow(f[-1], -1, p) % p for c in f]
            assert gfp.is_irreducible(f, p) is False
    assert not built
    f = gfp.mul([1, 0, 1], [2, 1, 1], 3)  # two irreducible quadratics
    assert list(gfp.ddf(f, 3)) == [(1, [1]), (2, f)]
    assert built == [f]


def test_exact_division_over_z_raises_on_a_remainder():
    rng = seeded(17)
    for _ in range(300):
        b = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 4))] + [
            rng.choice((-3, -1, 1, 2, 5))]
        q = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 5))]
        a = gfp.trim(gfp.zmul(q, b))
        assert gfp.zexact_div(a, b) == gfp.trim(q)
        r = [rng.randrange(-9, 10) for _ in range(len(b) - 1)]
        if any(r):  # a nonzero remainder of lower degree
            with pytest.raises(CoverSpecError):
                gfp.zexact_div(gfp.zsub(a, [-x for x in r]), b)
    with pytest.raises(CoverSpecError):
        gfp.zexact_div([1, 3], [2])  # the quotient is not integral
    with pytest.raises(CoverSpecError):
        gfp.Z.div(7, 2)
    assert gfp.Z.div(-8, 2) == -4
    with pytest.raises(CoverSpecError):
        gfp.ZT.div([0, 2], [0, 0, 1])  # 2T / T^2


def test_zgcd_is_the_primitive_gcd():
    # gcd((2x + 1)(x - 3)^2 * 6, (2x + 1)(x - 3)(x + 5) * -4)
    g = gfp.zmul([1, 2], [-3, 1])
    a = gfp.zmul(gfp.zmul(g, [-3, 1]), [6])
    b = gfp.zmul(gfp.zmul(g, [5, 1]), [-4])
    assert gfp.zgcd(a, b) == g
    assert gfp.zgcd(b, a) == g
    assert gfp.zgcd([-6, 4], []) == [-3, 2]
    assert gfp.zgcd([3, 1], [5]) == [1]
