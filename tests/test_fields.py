import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from desing.errors import DomainError, ResourceError
from desing.fields import (MAX_EXTENSION_DEGREE, QQ, PrimeField,
                           SimpleExtension, _least_scaling,
                           is_irreducible_over_q)
from desing.gnd import desingularize
from desing.poly import Polynomial, parse_polynomial
from desing.series import (PACKED_MIN_PAIRS, CompletionMorphism,
                           TruncatedSeries)
from desing.smooth import AlgebraPresentation


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
    # irreducible, and reducible modulo every prime
    assert is_irreducible_over_q([1, 0, 0, 0, 0, 0, 0, 0, 1])


def _scales_to_integers(coeffs, ell):
    d = len(coeffs) - 1
    return all((c * ell ** (d - i)).denominator == 1
               for i, c in enumerate(coeffs))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(max_denominator=200), min_size=1, max_size=5))
def test_least_scaling_is_least(low):
    # l clears every denominator, and no l/q for a prime q of l does
    coeffs = [Fraction(c) for c in low] + [Fraction(1)]
    ell = _least_scaling(coeffs)
    assert _scales_to_integers(coeffs, ell)
    primes = [q for q in range(2, 200)
              if ell % q == 0 and all(q % r for r in range(2, q))]
    assert not any(_scales_to_integers(coeffs, ell // q) for q in primes)


def test_least_scaling_examples():
    F = Fraction
    assert _least_scaling([F(1, 65536), 0, 0, 0, 1]) == 16
    assert _least_scaling([F(1, 27), F(1, 9), 0, 1]) == 3
    assert _least_scaling([F(3), F(-2), 1]) == 1
    # a cofactor with no prime below 2^16 enters whole
    big = 2 ** 61 - 1
    assert _least_scaling([F(1, big ** 2), 0, 1]) == big ** 2


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_minimal_polynomial_above_the_degree_bound_is_refused():
    d = MAX_EXTENSION_DEGREE + 1
    dense = list(range(2, d + 2)) + [1]
    for mu in (dense, [1] + [0] * (d - 1) + [1]):
        with pytest.raises(DomainError, match=f"above the bound {d - 1}"):
            is_irreducible_over_q(mu)
        with pytest.raises(DomainError, match=f"above the bound {d - 1}"):
            SimpleExtension(QQ, mu)
    # at the bound, the modular certificate decides
    assert is_irreducible_over_q([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9,
                                  3, 1])


@pytest.mark.parametrize("mu,irreducible", [
    # (r^4 - 3r^3 + r^2 - 3r + 1)(r^4 + r^3 - r^2 + 3)
    (_times([1, -3, 1, -3, 1], [3, 0, -1, 1, 1]), False),
    # irreducible, and reducible modulo every prime
    ([1] + [0] * 15 + [1], True),
    # r^4 + 4a^4 with a = 10^7: a Sophie Germain product whose values have
    # a square root of 2*10^14
    ([4 * 10 ** 28, 0, 0, 0, 1], False),
    # a degree-7 product whose factor lies deep in the Kronecker search
    ([12, -21, 19, -5, -12, -3, 1, 1], False),
], ids=["two-quartics", "r16+1", "sophie-germain", "degree-7"])
def test_hostile_minimal_polynomial_is_decided_or_out_of_budget(mu,
                                                                irreducible):
    # the Kronecker search counts candidates and trial divisors against
    # one budget, so each ends, with the right answer if it decides
    try:
        assert is_irreducible_over_q(mu) is irreducible
    except ResourceError as e:
        assert "budget" in str(e)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), data=st.data())
def test_eisenstein_polynomials_are_irreducible(p, data):
    # one in a few thousand is reducible modulo every prime and needs more
    # Kronecker steps than the budget (x^8 + 6x^7 + 6x^6 + 9x^4 - 9x^3 +
    # 6x^2 + 6x + 3 does); it may run out of budget, never answer False
    d = data.draw(st.integers(2, 8))
    middle = data.draw(st.lists(st.integers(-3, 3), min_size=d - 1,
                                max_size=d - 1))
    unit = data.draw(st.integers(-4, 4).filter(lambda u: u % p))
    try:
        assert is_irreducible_over_q([p * unit] + [p * c for c in middle]
                                     + [1]) is True
    except ResourceError:
        pass


_monic = st.integers(1, 4).flatmap(lambda d: st.lists(
    st.integers(-6, 6), min_size=d, max_size=d).map(lambda c: c + [1]))


@settings(max_examples=60, deadline=None)
@given(f=_monic, g=_monic)
def test_products_are_never_reported_irreducible(f, g):
    try:
        assert is_irreducible_over_q(_times(f, g)) is False
    except ResourceError:
        pass


@settings(max_examples=60, deadline=None)
@given(mu=st.sampled_from([(-2, 0, 1), (-2, 0, 0, 1), (1, 0, 0, 0, 1)]),
       data=st.data())
def test_extension_inverse(mu, data):
    K = SimpleExtension(QQ, mu, gen="r")
    a = K.from_coeffs(data.draw(st.lists(
        st.fractions(max_denominator=50).filter(lambda q: abs(q) < 1000),
        min_size=K.degree, max_size=K.degree)))
    assume(not K.is_zero(a))
    assert K.mul(a, K.invert(a)) == K.one()


def test_extension_characteristic_and_format():
    K = SimpleExtension(QQ, (-2, 0, 1), gen="s")
    assert K.characteristic() == 0
    assert K.format(K.generator()) == "s"
    val = K.add(K.from_int(2), K.neg(K.generator()))
    assert K.format(val) == "2 - s"


# ---------------------------------------------------------------------------
# a Q element is an int when integral and a Fraction otherwise, never a float

def _assert_canonical_q(value):
    assert type(value) in (int, Fraction), repr(value)
    assert type(value) is int or value.denominator != 1, repr(value)


def _q_elements():
    """Canonical Q elements: integers, and fractions whose small
    denominators make many sums and products integral."""
    small = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 4))
    large = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                      st.integers(1, 10 ** 6))
    return st.one_of(st.integers(-10 ** 30, 10 ** 30), small,
                     large).map(QQ.from_fraction)


@settings(max_examples=300, deadline=None)
@given(a=_q_elements(), b=_q_elements(), n=st.integers(-10 ** 20, 10 ** 20),
       num=st.integers(-10 ** 20, 10 ** 20), den=st.integers(1, 10 ** 3))
def test_rational_results_are_int_or_fraction(a, b, n, num, den):
    results = [QQ.zero(), QQ.one(), QQ.add(a, b), QQ.sub(a, b),
               QQ.mul(a, b), QQ.neg(a), QQ.from_int(n),
               QQ.from_fraction(Fraction(num, den)), QQ.from_fraction(n)]
    if b != 0:
        results += [QQ.invert(b), QQ.mul(a, QQ.invert(b))]
    for r in results:
        _assert_canonical_q(r)
    assert QQ.from_int(n) == n and QQ.from_fraction(Fraction(num, den)) \
        == Fraction(num, den)


@st.composite
def _q_series_pairs(draw):
    """Two series over Q, univariate with enough terms that their product
    packs, or in two variables, where it runs bounded ``product_terms``."""
    packed = draw(st.booleans())
    variables = ("x",) if packed else ("y", "x")
    size = st.integers(8, 20) if packed else st.integers(0, 8)

    def one():
        count = draw(size)
        monos = st.tuples(*[st.integers(0, 30)] * len(variables))
        terms = draw(st.dictionaries(monos, _q_elements(), min_size=count,
                                     max_size=count))
        return TruncatedSeries(variables, QQ, terms, draw(st.integers(1, 40)))

    a, b = one(), one()
    assume(not packed or len(a.terms) * len(b.terms) >= PACKED_MIN_PAIRS)
    return a, b


@settings(max_examples=120, deadline=None)
@given(_q_series_pairs())
def test_series_product_coefficients_are_int_or_fraction(pair):
    a, b = pair
    results = [a * b, a + b, a - b]
    if not QQ.is_zero(a.constant_coefficient()):
        results.append(a.invert())
    for s in results:
        for c in s.terms.values():
            _assert_canonical_q(c)


def _q_coefficients(obj, seen):
    """Every coefficient of a Polynomial or series over Q reachable from
    obj through dataclass fields, lists, tuples and dicts."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (Polynomial, TruncatedSeries)):
        if obj.field == QQ:
            yield from obj.terms.values()
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _q_coefficients(getattr(obj, f.name), seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _q_coefficients(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _q_coefficients(value, seen)


@settings(max_examples=8, deadline=None)
@given(c=st.integers(1, 3), a=st.integers(-3, 3), sqrt2=st.booleans())
def test_gnd_certificate_coefficients_are_int_or_fraction(c, a, sqrt2):
    """Y1*Y2 - 2^k x^(2c) at Y1 = r^k x^c (1 + a x), Y2 = r^k x^c / (1 + a x),
    with r = 1 over Q or r^2 = 2 over Q(sqrt 2) (k = 1)."""
    N = 10 * c + 2
    ring = ("x", "Y1", "Y2")
    K = SimpleExtension(QQ, (-2, 0, 1), gen="r") if sqrt2 else QQ
    r, lead = (K.generator(), 2) if sqrt2 else (1, 1)
    B = AlgebraPresentation(
        base_var="x", variables=ring[1:], field=QQ,
        relations=[parse_polynomial(f"Y1*Y2 - {lead}*x^{2 * c}", ring, QQ)])
    u = TruncatedSeries(("x",), K, {(0,): K.one(), (1,): K.from_int(a)}, N)
    xc = TruncatedSeries(("x",), K, {(c,): r}, N)
    v = CompletionMorphism(base_var="x", field=K,
                           images={"Y1": xc * u, "Y2": xc * u.invert()})
    cert = desingularize(B, v)
    assert cert.all_passed()
    coefficients = list(_q_coefficients(cert, set()))
    assert coefficients
    for coeff in coefficients:
        _assert_canonical_q(coeff)
