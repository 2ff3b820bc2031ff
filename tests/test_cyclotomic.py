"""Cyclotomic polynomials, phi and primality, and the Fraction-object
Q(zeta_n) the tests use as an oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

from exact_fields import CyclotomicNumber
from freerep.errors import BadConductor, BadParams
from freerep.cyclotomic import cyclotomic_polynomial, euler_phi, is_prime


def _is_prime_by_trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    for p in [*range(-3, 200_000), *range(2 ** 31 - 1000, 2 ** 31)]:
        assert is_prime(p) == _is_prime_by_trial_division(p), p


def test_is_prime_rejects_strong_pseudoprimes_and_stops_at_2_64():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2..23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)
    assert not is_prime(2 ** 64 - 1)
    with pytest.raises(BadParams):
        is_prime(2 ** 64)


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 8, 12, 21)] == \
        [1, 1, 2, 2, 4, 4, 12]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is always phi(n)
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_zeta4_squared_is_minus_one():
    i = CyclotomicNumber.zeta(4)
    assert i * i == CyclotomicNumber.rational(4, -1)


def test_phi3_relation():
    z = CyclotomicNumber.zeta(3)
    total = CyclotomicNumber.one(3) + z + z * z
    assert total.is_zero()


def test_zeta_n_has_order_n():
    for n in (5, 8, 12):
        z = CyclotomicNumber.zeta(n)
        x = z
        for _ in range(n - 1):
            assert not (x - CyclotomicNumber.one(n)).is_zero()
            x = x * z
        assert (x - CyclotomicNumber.one(n)).is_zero()


def test_inverse():
    z = CyclotomicNumber.zeta(7, 3)
    x = z + CyclotomicNumber.rational(7, Fraction(2, 3))
    assert (x * x.inverse() - CyclotomicNumber.one(7)).is_zero()
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(5).inverse()


def test_lift_compatible_with_roots():
    # zeta_3 = zeta_6^2
    z3 = CyclotomicNumber.zeta(3).lift(6)
    assert z3 == CyclotomicNumber.zeta(6, 2)
    # lift is a field map
    a = CyclotomicNumber.zeta(3) + CyclotomicNumber.rational(3, 2)
    b = CyclotomicNumber.zeta(3, 2)
    assert (a * b).lift(12) == a.lift(12) * b.lift(12)


def test_lift_rejects_bad_conductor():
    with pytest.raises(BadConductor):
        CyclotomicNumber.zeta(4).lift(6)


def is_rational(x):
    if all(c == 0 for c in x.coeffs[1:]):
        return x.coeffs[0]
    return None


def test_rational_detection():
    z = CyclotomicNumber.zeta(5)
    s = z + CyclotomicNumber.zeta(5, 2) + CyclotomicNumber.zeta(5, 3) \
        + CyclotomicNumber.zeta(5, 4)
    assert is_rational(s) == -1  # sum of primitive 5th roots


def test_mixed_conductor_rejected():
    with pytest.raises(BadConductor):
        CyclotomicNumber.zeta(4) + CyclotomicNumber.zeta(8)
