"""Integer helpers: deterministic primality, prime streams, CRT, factoring,
base-p digits, and the one square-and-multiply of the package."""

import math
import sys

from .errors import DegreeLimitError, NonCoprimeModuliError

# The size limits of primality certification and of trial division.
PRIME_CAP = 1 << 61
FACTOR_BOUND = 1 << 20

# Miller-Rabin on these bases is exact below 3.18e23, far above PRIME_CAP
# (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases", 2017);
# the first four alone are exact below 3215031751 (Jaeschke, 1993).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic primality for n < PRIME_CAP by Miller-Rabin.

    Divisions by the bases decide every n < 41**2; above that the strong
    probable-prime test on the bases has no pseudoprimes below PRIME_CAP.
    Raises DegreeLimitError for n >= PRIME_CAP.
    """
    if n >= PRIME_CAP:
        raise DegreeLimitError(
            f"primality certification is capped at 2**61, got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:4] if n < 3215031751 else _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_from(start):
    """Yield primes >= start in increasing order."""
    n = max(2, start)
    while True:
        if is_prime(n):
            yield n
        n += 1


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
        acc += r * rest * pow(rest, -1, m)
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
    """Sorted distinct prime factors of |n| by trial division up to
    FACTOR_BOUND; a cofactor past FACTOR_BOUND**2 must be certified prime
    by is_prime, else DegreeLimitError."""
    n = abs(n)
    out = []
    if n < 2:
        return out
    d = 2
    while d * d <= n:
        if d > FACTOR_BOUND:
            if n < PRIME_CAP and is_prime(n):
                break
            raise DegreeLimitError(
                f"cannot factor a {n.bit_length()}-bit cofactor: no prime"
                f" factor up to 2**20 and not certified prime")
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def digits(i, base, n):
    """The n base-`base` digits of 0 <= i < base**n, least significant first."""
    out = []
    for _ in range(n):
        i, d = divmod(i, base)
        out.append(d)
    return out


def power(x, e, mul, one):
    """x**e for e >= 0 under the product mul, with identity one.

    Right-to-left binary method (Knuth, TAOCP Vol. 2, 4.6.3): for e >= 1,
    bit_length(e) - 1 squarings and popcount(e) products, with no
    squaring past the top bit.
    """
    result = one
    while True:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if not e:
            return result
        x = mul(x, x)


def past_digit_limit(n):
    """Whether n has more digits than the int-string limit k, if any."""
    k = sys.get_int_max_str_digits()  # 2**(3k) < 10**k
    return bool(k) and n.bit_length() > 3 * k and abs(n) >= 10 ** k
