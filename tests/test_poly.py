import random
from fractions import Fraction

import pytest

from desing.errors import ParseError, StructuralError
from desing.fields import QQ, PrimeField, SimpleExtension
from desing.poly import (DEGREVLEX, LEX, Polynomial, block_order, compare,
                         format_polynomial, monomial_degree, parse_polynomial)

VARS = ("x", "y", "z")


def random_poly(rng, field, variables=VARS, terms=3, maxdeg=3):
    p = Polynomial.zero(variables, field)
    for _ in range(rng.randrange(terms + 1)):
        mono = tuple(rng.randrange(maxdeg + 1) for _ in variables)
        if field == QQ:
            c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        elif isinstance(field, SimpleExtension):
            c = tuple(Fraction(rng.randrange(-4, 5))
                      for _ in range(field.degree))
        else:
            c = rng.randrange(field.p)
        p = p + Polynomial(variables, field, {mono: c})
    return p


FIELDS = [QQ, PrimeField(5), SimpleExtension(QQ, (-2, 0, 1), gen="r")]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5", "Q(r)"])
def test_ring_axioms_random(field):
    rng = random.Random(12345)
    for _ in range(1000):
        a = random_poly(rng, field)
        b = random_poly(rng, field)
        c = random_poly(rng, field)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == Polynomial.zero(VARS, field)


def test_pow_and_constants():
    f = parse_polynomial("x + 1", ("x",), QQ)
    assert f ** 3 == parse_polynomial("x^3 + 3*x^2 + 3*x + 1", ("x",), QQ)
    assert f ** 0 == Polynomial.one(("x",), QQ)


def test_derivative_product_rule():
    rng = random.Random(77)
    for _ in range(100):
        a = random_poly(rng, QQ)
        b = random_poly(rng, QQ)
        for v in VARS:
            lhs = (a * b).derivative(v)
            rhs = a.derivative(v) * b + a * b.derivative(v)
            assert lhs == rhs


def test_substitute_composition():
    rng = random.Random(99)
    for _ in range(50):
        f = random_poly(rng, QQ)
        g = {v: random_poly(rng, QQ, terms=2, maxdeg=2) for v in VARS}
        h = {v: random_poly(rng, QQ, terms=2, maxdeg=1) for v in VARS}
        gh = {v: g[v].substitute(h) for v in VARS}
        assert f.substitute(g).substitute(h) == f.substitute(gh)


def test_evaluate_matches_substitute():
    f = parse_polynomial("x^2*y - 3*z + 1/2", VARS, QQ)
    point = {"x": Fraction(2), "y": Fraction(-1), "z": Fraction(1, 3)}
    direct = f.evaluate(point)
    assert direct == Fraction(4) * Fraction(-1) - Fraction(1) + Fraction(1, 2)


def test_degrevlex_examples():
    # xz below y^2; x above y
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    assert compare(xz, y2, DEGREVLEX) < 0
    assert compare((1, 0, 0), (0, 1, 0), DEGREVLEX) > 0
    assert compare((1, 0, 0), (0, 1, 0), LEX) > 0


def test_order_well_behaved():
    rng = random.Random(5)
    monos = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(60)]
    for order in (LEX, DEGREVLEX):
        for a in monos:
            for b in monos:
                s = compare(a, b, order)
                assert s == -compare(b, a, order)
                if a == b:
                    assert s == 0
                # multiplicative
                c = (1, 2, 0)
                ac = tuple(p + q for p, q in zip(a, c))
                bc = tuple(p + q for p, q in zip(b, c))
                assert (compare(ac, bc, order) > 0) == (s > 0)


def test_block_order_eliminates_first_block():
    order = block_order(1, LEX, DEGREVLEX)
    # any monomial containing the first variable beats any without it
    assert compare((1, 0, 0), (0, 5, 5), order) > 0
    assert compare((0, 2, 0), (0, 0, 1), order) > 0


def test_leading_term():
    f = parse_polynomial("x^2 + x*y^2 + y", VARS, QQ)
    mono, coeff = f.leading(DEGREVLEX)
    assert mono == (1, 2, 0) and coeff == 1
    mono, coeff = f.leading(LEX)
    assert mono == (2, 0, 0)


def test_leading_term_cached_per_order():
    # the cached lead belongs to one order; asking under another recomputes
    f = parse_polynomial("x^2 + 3*x*y^2 + y^4", VARS, QQ)
    assert f.leading(LEX) == ((2, 0, 0), 1)
    assert f.leading(DEGREVLEX) == ((0, 4, 0), 1)
    assert f.leading(LEX) == ((2, 0, 0), 1)
    assert f.leading(block_order(1, LEX, LEX)) == ((2, 0, 0), 1)
    assert f.leading(DEGREVLEX) == ((0, 4, 0), 1)


def test_parse_format_round_trip():
    rng = random.Random(31)
    for field in FIELDS:
        for _ in range(200):
            f = random_poly(rng, field)
            text = format_polynomial(f)
            back = parse_polynomial(text, VARS, field)
            assert back == f, text


def test_parse_rationals_and_signs():
    f = parse_polynomial("-x + 1/2*y^3 - 7", VARS, QQ)
    assert f.terms[(1, 0, 0)] == Fraction(-1)
    assert f.terms[(0, 3, 0)] == Fraction(1, 2)
    assert f.terms[(0, 0, 0)] == Fraction(-7)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + ^2", VARS, QQ)
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse_polynomial("x + w", VARS, QQ)


def test_parse_extension_generator():
    K = SimpleExtension(QQ, (-2, 0, 1), gen="r")
    f = parse_polynomial("(1 + r)*x - r^2", ("x",), K)
    assert f.terms[(1,)] == K.add(K.one(), K.generator())
    assert f.terms[(0,)] == K.neg(K.from_int(2))


def test_embed_and_restrict():
    f = parse_polynomial("x*y + y^2", ("x", "y"), QQ)
    g = f.embed(("z", "y", "x"))
    assert g.restrict(("x", "y")) == f
    with pytest.raises(StructuralError):
        g.restrict(("z",))


def test_monomial_degree():
    assert monomial_degree((2, 0, 3)) == 5
    assert monomial_degree(()) == 0


def test_total_degree_and_degree_in():
    f = parse_polynomial("x^2*y + z^4", VARS, QQ)
    assert f.total_degree() == 4
    assert f.degree_in("x") == 2
    assert f.degree_in("y") == 1
