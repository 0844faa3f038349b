"""Integer helpers: deterministic primality, prime streams, CRT, radicals."""

import math

from .errors import NonCoprimeModuliError

# Trial division is the only primality route; keep inputs desk-scale.
PRIME_CAP = 1 << 61


def is_prime(n):
    """Deterministic primality by trial division up to sqrt(n), n < 2**61."""
    if n >= PRIME_CAP:
        raise ValueError(f"primality certification capped at 2**61, got {n}")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    limit = math.isqrt(n)
    while d <= limit:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_from(start):
    """Yield primes >= start in increasing order."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


def xgcd(a, b):
    """Return (g, u, v) with g = gcd(a, b) >= 0 and g = u*a + v*b."""
    prev_u, u = 1, 0
    prev_v, v = 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        prev_u, u = u, prev_u - q * u
        prev_v, v = v, prev_v - q * v
    if a < 0:
        a, prev_u, prev_v = -a, -prev_u, -prev_v
    return a, prev_u, prev_v


def inverse_mod(a, m):
    """Inverse of a modulo m; raises ZeroDivisionError if not coprime."""
    g, u, _ = xgcd(a, m)
    if g != 1:
        raise ZeroDivisionError(f"{a} is not invertible modulo {m}")
    return u % m


def crt(pairs):
    """Combine congruences x = r_i (mod m_i) with pairwise coprime moduli.

    Returns (b, M) with M the product of the moduli and 0 <= b < M the
    unique simultaneous solution.  Raises NonCoprimeModuliError naming the
    first offending pair of moduli.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("crt needs at least one congruence")
    for m in (m for _, m in pairs):
        if m < 1:
            raise ValueError(f"modulus {m} is not positive")
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if math.gcd(pairs[i][1], pairs[j][1]) != 1:
                raise NonCoprimeModuliError(pairs[i][1], pairs[j][1])
    big = math.prod(m for _, m in pairs)
    acc = 0
    for r, m in pairs:
        rest = big // m
        acc += r * rest * inverse_mod(rest, m)
    return acc % big, big


def iroot(n, k):
    """Largest r with r**k <= n, for n >= 0 and k >= 1 (integer Newton)."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)  # above the root
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_factors(n):
    """Sorted distinct prime factors of |n| by trial division (desk scale)."""
    n = abs(n)
    out = []
    if n < 2:
        return out
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def radical(n):
    """Product of the distinct primes dividing |n| (1 if |n| <= 1)."""
    return math.prod(prime_factors(n))
