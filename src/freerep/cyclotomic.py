"""Number theory for the cyclotomic fields Q(zeta_n): the distinct prime
factors of n, Euler's phi, an exact primality test below 2^64, and the
integer coefficients of the cyclotomic polynomial Phi_n.  Arithmetic in
Q(zeta_n) itself runs on integer arrays in freerep.represent."""

from __future__ import annotations

from functools import lru_cache

from .errors import BadParams, InvariantViolated


def prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    for p in prime_factors(n):
        n = n // p * (p - 1)
    return n


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Miller-Rabin to the prime bases 2..37, which is exact below 2^64;
    larger p raise BadParams."""
    if p >= 2 ** 64:
        raise BadParams(f"primality is decided below 2^64, not for {p.bit_length()} bits")
    if p < 2 or any(p % q == 0 for q in _WITNESSES):
        return p in _WITNESSES
    k = ((p - 1) & (1 - p)).bit_length() - 1  # 2^k is the 2-part of p - 1
    d = (p - 1) >> k
    return all(pow(q, d, p) == 1 or p - 1 in (pow(q, d << t, p) for t in range(k))
               for q in _WITNESSES)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of Phi_n, ascending degree, computed by dividing
    x^n - 1 by Phi_d for the proper divisors d of n."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _polydiv_exact(num, cyclotomic_polynomial(d))
    if len(num) - 1 != euler_phi(n):
        raise InvariantViolated(f"Phi_{n} has degree {len(num) - 1}, not phi({n})")
    return tuple(num)


def _polydiv_exact(num: list, den: tuple) -> list:
    """Exact division of integer polynomials (remainder must vanish)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        if c % lead:
            raise InvariantViolated("inexact polynomial division")
        q = c // lead
        out[k - dd] = q
        for i, dc in enumerate(den):
            num[k - dd + i] -= q * dc
    if any(num):
        raise InvariantViolated("polynomial division left a remainder")
    return out
