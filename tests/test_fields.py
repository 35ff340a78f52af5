from fractions import Fraction

import pytest

from desing.errors import DomainError
from desing.fields import QQ, PrimeField, SimpleExtension, is_irreducible_over_q


def test_rationals_basic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.invert(Fraction(-3, 7)) == Fraction(-7, 3)
    assert QQ.characteristic() == 0
    assert QQ == QQ and hash(QQ) == hash(QQ)


def test_rationals_invert_zero():
    with pytest.raises(DomainError):
        QQ.invert(Fraction(0))


def test_prime_field_arithmetic():
    F = PrimeField(101)
    assert F.characteristic() == 101
    for a in range(1, 30):
        inv = F.invert(a)
        assert F.mul(a, inv) == 1
    assert F.add(100, 2) == 1
    assert F.sub(0, 1) == 100
    assert F.from_int(-1) == 100
    assert F.from_fraction(Fraction(1, 2)) == F.invert(2)


def test_prime_field_rejects_composite():
    with pytest.raises(DomainError):
        PrimeField(15)
    with pytest.raises(DomainError):
        PrimeField(1)


def test_prime_field_miller_rabin():
    import time

    from desing.iofmt import parse_field

    started = time.monotonic()
    F = parse_field("GF 2305843009213693951")          # 2^61 - 1
    assert time.monotonic() - started < 1.0
    assert F.p == 2 ** 61 - 1
    # a Carmichael number, 3 * 768614336404564651, and a strong
    # pseudoprime to every prime base up to 23
    for n in (561, 2 ** 61 + 1, 3825123056546413051):
        with pytest.raises(DomainError):
            PrimeField(n)
    with pytest.raises(DomainError, match="machine word"):
        PrimeField(2 ** 64 - 59)                       # prime, too wide


def test_prime_field_equality():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert PrimeField(5) != QQ


def test_extension_arithmetic():
    K = SimpleExtension(QQ, (-2, 0, 1), gen="r")
    r = K.generator()
    assert K.mul(r, r) == K.from_int(2)
    one_plus_r = K.add(K.one(), r)
    inv = K.invert(one_plus_r)
    assert K.mul(one_plus_r, inv) == K.one()
    # 1/(1+r) = r - 1 since (r-1)(r+1) = 1
    assert inv == K.sub(r, K.one())


def test_extension_coerce_from_q():
    K = SimpleExtension(QQ, (-2, 0, 1))
    assert K.coerce(QQ, Fraction(3, 2)) == K.from_fraction(Fraction(3, 2))


def test_extension_rejects_reducible():
    with pytest.raises(DomainError):
        SimpleExtension(QQ, (-1, 0, 1))      # (t-1)(t+1)
    with pytest.raises(DomainError):
        SimpleExtension(QQ, (0, 1))          # degree 1
    with pytest.raises(DomainError):
        SimpleExtension(QQ, (-2, 0, 2))      # not monic


def test_irreducibility_certificate():
    assert is_irreducible_over_q([-2, 0, 1])
    assert is_irreducible_over_q([1, 1, 1])
    assert not is_irreducible_over_q([-1, 0, 1])
    assert not is_irreducible_over_q([0, 0, 1])
    # cyclotomic-like degree 4
    assert is_irreducible_over_q([1, 0, 0, 0, 1])
    assert not is_irreducible_over_q([-4, 0, 1])


def test_irreducibility_kronecker_path():
    # (t^2 + 1)(t^2 + 2) is reducible modulo every prime, so no modular
    # certificate exists and trial factorization must find t^2 + 2
    assert not is_irreducible_over_q([2, 0, 3, 0, 1])


def test_extension_characteristic_and_format():
    K = SimpleExtension(QQ, (-2, 0, 1), gen="s")
    assert K.characteristic() == 0
    assert K.format(K.generator()) == "s"
    val = K.add(K.from_int(2), K.neg(K.generator()))
    assert K.format(val) == "2 - s"
