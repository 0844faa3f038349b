"""The int-list kernel against naive convolution and trial division."""

import pytest

from coverspec import gfp
from coverspec.fields import PrimeField
from coverspec.poly import Polynomial

from oracles import factors_by_trial, seeded


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


def test_powmod_matches_repeated_multiplication():
    rng = seeded(5)
    p = 13
    for _ in range(50):
        mod = random_list(rng, p, rng.randrange(1, 6))
        a = random_list(rng, p, rng.randrange(0, 8))
        e = rng.randrange(0, 40)
        acc = gfp.divmod([1], mod, p)[1]
        for _ in range(e):
            acc = gfp.divmod(naive_mul(acc, a, p), mod, p)[1]
        assert gfp.powmod(a, e, mod, p) == acc


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
