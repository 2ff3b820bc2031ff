"""Exact arithmetic in cyclotomic fields Q(zeta_n): coefficient vectors of
length phi(n) reduced modulo the n-th cyclotomic polynomial."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import BadConductor, BadParams, InvariantViolated

ZERO = Fraction(0)
ONE = Fraction(1)


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


class _Context:
    """Per-conductor reduction machinery (memoized)."""

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        poly = cyclotomic_polynomial(n)
        # Phi_n is monic; reduction row for x^phi
        self.head = [Fraction(-c) for c in poly[: self.phi]]
        self.rows = [None] * self.phi  # x^k for k < phi are basis vectors
        self._extend_to(2 * self.phi - 2)

    def _extend_to(self, k: int) -> None:
        """Reduction rows for x^e, phi <= e <= k."""
        while len(self.rows) <= k:
            prev = self.row(len(self.rows) - 1)
            shifted = [ZERO] + list(prev[:-1])
            lead = prev[-1]
            if lead:
                shifted = [s + lead * h for s, h in zip(shifted, self.head)]
            self.rows.append(shifted)

    def row(self, e: int) -> list:
        if e < self.phi:
            out = [ZERO] * self.phi
            out[e] = ONE
            return out
        self._extend_to(e)
        return self.rows[e]

    def reduce(self, coeffs: list) -> list:
        """Reduce a polynomial (ascending, any length) modulo Phi_n."""
        out = list(coeffs[: self.phi]) + [ZERO] * max(0, self.phi - len(coeffs))
        for e in range(self.phi, len(coeffs)):
            c = coeffs[e]
            if c:
                row = self.row(e)
                out = [a + c * b for a, b in zip(out, row)]
        return out


_contexts: dict = {}


def _context(n: int) -> _Context:
    if n not in _contexts:
        if n < 1:
            raise BadConductor(f"conductor must be positive, got {n}")
        _contexts[n] = _Context(n)
    return _contexts[n]


class CyclotomicNumber:
    """Element of Q(zeta_n), stored reduced modulo Phi_n."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        ctx = _context(conductor)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != ctx.phi:
            coeffs = ctx.reduce(coeffs)
        self.conductor = conductor
        self.coeffs = tuple(coeffs)

    @staticmethod
    def zero(n: int) -> "CyclotomicNumber":
        return CyclotomicNumber(n, [ZERO] * _context(n).phi)

    @staticmethod
    def one(n: int) -> "CyclotomicNumber":
        return CyclotomicNumber.rational(n, ONE)

    @staticmethod
    def rational(n: int, value) -> "CyclotomicNumber":
        ctx = _context(n)
        coeffs = [ZERO] * ctx.phi
        coeffs[0] = Fraction(value)
        return CyclotomicNumber(n, coeffs)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "CyclotomicNumber":
        ctx = _context(n)
        e = power % n
        return CyclotomicNumber(n, list(ctx.row(e)))

    def _check(self, other: "CyclotomicNumber") -> None:
        if self.conductor != other.conductor:
            raise BadConductor(
                f"mixed conductors {self.conductor} and {other.conductor}")

    def __add__(self, other):
        self._check(other)
        return CyclotomicNumber(
            self.conductor, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return CyclotomicNumber(
            self.conductor, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicNumber(self.conductor, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CyclotomicNumber(self.conductor,
                                    [c * a for a in self.coeffs])
        self._check(other)
        a, b = self.coeffs, other.coeffs
        phi = len(a)
        conv = [ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CyclotomicNumber(self.conductor, _context(self.conductor).reduce(conv))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Extended Euclid against Phi_n (irreducible over Q, so gcd = 1)."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic number is zero")
        n = self.conductor
        mod = [Fraction(c) for c in cyclotomic_polynomial(n)]
        r0, r1 = mod, list(self.coeffs)
        s0, s1 = [ZERO], [ONE]
        while _degree(r1) > 0:
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        lead = r1[_degree(r1)]
        inv_coeffs = [c / lead for c in s1]
        return CyclotomicNumber(n, _context(n).reduce(inv_coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def lift(self, m: int) -> "CyclotomicNumber":
        """Image under Q(zeta_n) -> Q(zeta_m) via zeta_n = zeta_m^(m/n)."""
        n = self.conductor
        if m == n:
            return self
        if m % n:
            raise BadConductor(f"{n} does not divide {m}")
        step = m // n
        out = CyclotomicNumber.zero(m)
        for i, c in enumerate(self.coeffs):
            if c:
                out = out + c * CyclotomicNumber.zeta(m, i * step)
        return out

    def __eq__(self, other):
        return (isinstance(other, CyclotomicNumber)
                and self.conductor == other.conductor
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(str(c) if i == 0 else
                             (f"{c}*z{self.conductor}^{i}" if i > 1
                              else f"{c}*z{self.conductor}"))
        return " + ".join(terms)


def _degree(p: list) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i] != 0:
            return i
    return -1


def _polydivmod(num: list, den: list) -> tuple:
    num = list(num)
    dd = _degree(den)
    lead = den[dd]
    q = [ZERO] * max(1, len(num) - dd)
    for k in range(_degree(num), dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        f = c / lead
        q[k - dd] = f
        for i in range(dd + 1):
            num[k - dd + i] -= f * den[i]
    return q, num


def _polymul(a: list, b: list) -> list:
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _polysub(a: list, b: list) -> list:
    size = max(len(a), len(b))
    a = list(a) + [ZERO] * (size - len(a))
    b = list(b) + [ZERO] * (size - len(b))
    return [x - y for x, y in zip(a, b)]
