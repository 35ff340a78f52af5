import random
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from desing.errors import (DesingError, ParseError, ResourceError,
                           StructuralError)
from desing.fields import QQ, PrimeField, SimpleExtension, format_decimal
from desing.iofmt import parse_problem
from desing.poly import (DEGREVLEX, LEX, Polynomial, block_order,
                         check_power_budget, compare, format_polynomial,
                         monomial_degree, parse_polynomial)

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


# mu = s^3 - 1/2*s + 1/3: degree 3, coefficients not integral
K3 = SimpleExtension(QQ, (Fraction(1, 3), Fraction(-1, 2), 0, 1), gen="s")
FIELDS = [QQ, PrimeField(5), SimpleExtension(QQ, (-2, 0, 1), gen="r"), K3]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5", "Q(r)", "Q(s)"])
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


# ---------------------------------------------------------------------------
# the parser against a reference copy of the recursive-descent parser it
# replaced, which built every sum and product with Polynomial + * and **

class _RefTokens:
    def __init__(self, text, line=1):
        self.text = text
        self.line = line
        self.pos = 0
        self.toks = []
        self._lex()
        self.i = 0

    def _lex(self):
        t, i = self.text, 0
        while i < len(t):
            ch = t[i]
            if ch in " \t":
                i += 1
                continue
            col = i + 1
            if ch.isdigit():
                j = i
                while j < len(t) and t[j].isdigit():
                    j += 1
                self.toks.append(("int", t[i:j], col))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.toks.append(("name", t[i:j], col))
                i = j
            elif ch in "+-*^()/":
                self.toks.append((ch, ch, col))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", self.line, col)
        self.toks.append(("end", "", len(t) + 1))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", self.line, tok[2])
        return tok


def ref_parse_polynomial(text, variables, field, line=1):
    variables = tuple(variables)
    if isinstance(field, SimpleExtension):
        work_vars = variables + (field.gen,)
        raw = _ref_parse_expr_ring(text, work_vars, QQ, line)
        return _fold_extension(raw, variables, field)
    return _ref_parse_expr_ring(text, variables, field, line)


def _fold_extension(raw, variables, field):
    """A polynomial over Q in ``variables`` and the generator, last, read
    over Q(alpha): one field add per term."""
    gi = len(variables)
    terms = {}
    for m, c in raw.terms.items():
        base = m[:gi]
        coeff = field.from_coeffs([Fraction(0)] * m[gi] + [c])
        if base in terms:
            terms[base] = field.add(terms[base], coeff)
        else:
            terms[base] = coeff
    return Polynomial(variables, field, terms)


def _ref_parse_expr_ring(text, variables, field, line):
    toks = _RefTokens(text, line)
    poly = _ref_parse_sum(toks, variables, field)
    tok = toks.peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected token {tok[1]!r}", line, tok[2])
    return poly


def _ref_parse_sum(toks, variables, field):
    negate = False
    if toks.peek()[0] in "+-":
        negate = toks.next()[0] == "-"
    acc = _ref_parse_product(toks, variables, field)
    if negate:
        acc = -acc
    while toks.peek()[0] in "+-":
        op = toks.next()[0]
        term = _ref_parse_product(toks, variables, field)
        acc = acc - term if op == "-" else acc + term
    return acc


def _ref_parse_product(toks, variables, field):
    acc = _ref_parse_power(toks, variables, field)
    while toks.peek()[0] == "*":
        toks.next()
        acc = acc * _ref_parse_power(toks, variables, field)
    return acc


def _ref_parse_power(toks, variables, field):
    base = _ref_parse_atom(toks, variables, field)
    if toks.peek()[0] == "^":
        toks.next()
        exp = toks.expect("int")
        base = base ** int(exp[1])
    return base


def _ref_parse_atom(toks, variables, field):
    tok = toks.next()
    if tok[0] == "int":
        num = int(tok[1])
        if toks.peek()[0] == "/":
            toks.next()
            den = toks.expect("int")
            if int(den[1]) == 0:
                raise ParseError("zero denominator", toks.line, den[2])
            return Polynomial.constant(variables, field,
                                       field.from_fraction(Fraction(num, int(den[1]))))
        return Polynomial.constant(variables, field, field.from_int(num))
    if tok[0] == "name":
        if tok[1] not in variables:
            raise ParseError(f"undeclared variable {tok[1]!r}", toks.line, tok[2])
        return Polynomial.variable(variables, field, tok[1])
    if tok[0] == "(":
        inner = _ref_parse_sum(toks, variables, field)
        toks.expect(")")
        return inner
    if tok[0] == "-":
        return -_ref_parse_atom(toks, variables, field)
    raise ParseError(f"unexpected token {tok[1]!r}", toks.line, tok[2])


K2 = SimpleExtension(QQ, (-2, 0, 1), gen="r")
RINGS = [(QQ, VARS), (PrimeField(32003), VARS), (K2, ("x", "y"))]
RING_IDS = ["Q", "F32003", "Q(sqrt2)"]
MALFORMED = ["x + ^2", "x y", "x^2^3", "1/0", "x + w", "(x", "x)", "@", "",
             "-", "x^", "x^y", "2/x", "x*", "x + (y", "1/2/3", "x\ty z",
             "--", "+-+x", "3 + 4@", "()", "x*/2", "x^2^"]
# pieces spliced into valid text to make it malformed (or not)
JUNK = ["^", "^2", " y", "@", "(", ")", "/0", "1/0", "w", "+", "*", " x",
        "/", "\t", "^^", "x y", "-", "#"]


def outcome(parse, text, variables, field):
    """The parsed polynomial with its term order, or the error raised."""
    try:
        poly = parse(text, variables, field, 3)
    except DesingError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return poly, list(poly.terms.items())


def expression(rng, names, depth=2):
    """Random text of the grammar: signs, sums, products, powers, fractions,
    parentheses, unary minus, repeated names and zero coefficients."""
    def atom():
        roll = rng.random()
        if roll < 0.15 and depth:
            return f"({expression(rng, names, depth - 1)})"
        if roll < 0.25:
            return "-" + atom()
        if roll < 0.45:
            return str(rng.choice([0, 1, 32003, 64006, rng.randrange(100),
                                   rng.randrange(10 ** 30)]))
        if roll < 0.55:
            return f"{rng.randrange(100)}/{rng.randrange(1, 10 ** 12)}"
        return rng.choice(names)

    def product():
        return "*".join(atom() + rng.choice(["", "", "^0", "^1", "^2", "^3"])
                        for _ in range(rng.randrange(1, 4)))
    text = rng.choice(["", "", "-", "+", "- "]) + product()
    for _ in range(rng.randrange(4)):
        text += rng.choice([" + ", " - ", "+", "-"]) + product()
    return text


@pytest.mark.parametrize("field,variables", RINGS, ids=RING_IDS)
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64))
def test_parser_matches_reference(field, variables, seed):
    rng = random.Random(seed)
    names = list(variables) + ([field.gen] if field is K2 else [])
    text = expression(rng, names)
    if rng.random() < 0.4:
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(JUNK) + text[at:]
    # a cut can join digits into an exponent too large to expand
    assume(not re.search(r"\^\d\d", text))
    assert (outcome(parse_polynomial, text, variables, field)
            == outcome(ref_parse_polynomial, text, variables, field)), text


@pytest.mark.parametrize("text", MALFORMED)
@pytest.mark.parametrize("field,variables", RINGS, ids=RING_IDS)
def test_parse_errors_match_reference(field, variables, text):
    got = outcome(parse_polynomial, text, variables, field)
    assert got == outcome(ref_parse_polynomial, text, variables, field)
    assert got[0] is ParseError


def test_parse_error_messages():
    def error(text):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, VARS, QQ, 7)
        return str(err.value)
    assert error("x + ^2") == "line 7, column 5: unexpected token '^'"
    assert error("x y") == "line 7, column 3: unexpected token 'y'"
    assert error("x^2^3") == "line 7, column 4: unexpected token '^'"
    assert error("1/0") == "line 7, column 3: zero denominator"
    assert error("x + w") == "line 7, column 5: undeclared variable 'w'"
    assert error("(x") == "line 7, column 3: expected ), found ''"
    assert error("x)") == "line 7, column 2: unexpected token ')'"
    assert error("x + @") == "line 7, column 5: unexpected character '@'"
    assert error("w + @") == "line 7, column 5: unexpected character '@'"


def test_parse_non_decimal_digit_is_parse_error():
    # '²' is a digit to str.isdigit but not to int(); it used to escape as
    # a ValueError
    for text in ("x²", "2²", "x^²"):
        with pytest.raises(ParseError):
            parse_polynomial(text, VARS, QQ)


def test_parse_atom_minus_binds_before_power():
    # atom := - atom, so inside a product -x^2 is (-x)^2; a sum's leading
    # sign applies to the whole product
    assert parse_polynomial("2*-x^2", VARS, QQ) == \
        parse_polynomial("2*x^2", VARS, QQ)
    assert parse_polynomial("-x^2", VARS, QQ) == \
        parse_polynomial("0 - x^2", VARS, QQ)
    assert parse_polynomial("y*--x^3*-2^2", VARS, QQ) == \
        parse_polynomial("4*x^3*y", VARS, QQ)


def test_parse_cancelled_monomial_reenters_last():
    # the term order of a parsed polynomial is the order of first
    # appearance; a monomial that cancels and comes back goes to the end
    f = parse_polynomial("x - x + y + x", VARS, QQ)
    assert list(f.terms) == [(0, 1, 0), (1, 0, 0)]


def test_parse_power_budget():
    # a power of a constant or a parenthesised factor, or a product of such
    # factors, is refused before it is expanded if the bound of _height
    # puts its coefficients above 2^19 bits; a power of a sum also has an
    # exponent of at most 1000
    f = parse_polynomial("1 + x", VARS, QQ)
    assert parse_polynomial("(1 + x)^1000", VARS, QQ) == f ** 1000
    assert parse_polynomial("y + 3^200000", VARS, QQ).terms[(0, 0, 0)] \
        == 3 ** 200000
    product = "(1 + x)*(2^200000*y + 1)*(2^200000 + z)*(2^200000 + y)"
    for text, column, what in (("(1 + x)^1001", 9, "power"),
                               ("(x)^524289", 5, "power"),
                               ("(x + y)^3000", 9, "power"),
                               ("2^10000000000", 3, "power"),
                               ("3^400000", 3, "power"),
                               ("(2^200000 + x)^3", 16, "power"),
                               (product, product.rindex("(") + 1,
                                "product")):
        with pytest.raises(ParseError, match=f"{what} too large") as err:
            parse_polynomial(text, VARS, QQ)
        assert (err.value.line, err.value.column) == (1, column)


def test_parse_literal_digit_bound():
    # a literal of 100,001 digits is refused where it starts; the digits
    # of a name do not count
    text = f"x + y{'9' * 100_000} + 1{'0' * 100_000}"
    with pytest.raises(ParseError, match="more than 100000 digits") as err:
        parse_polynomial(text, VARS, QQ)
    assert err.value.column == text.index(" + 1") + 4


def test_parse_long_literals_without_cli():
    # a literal past CPython's int/str digit limit (4,300 digits by default)
    # reads the same in a library call as under cli.main, which lifts that
    # limit; the expected values are built without any int/str conversion
    sevens = 7 * (10 ** 5000 - 1) // 9
    f = parse_polynomial("x + " + "7" * 5000, VARS, QQ)
    assert f.terms == {(1, 0, 0): 1, (0, 0, 0): sevens}
    g = parse_polynomial("9" * 100_000 + "/" + "7" * 5000 + "*y", VARS, QQ)
    assert g.terms == {(0, 1, 0): Fraction(10 ** 100_000 - 1, sevens)}
    h = parse_polynomial("z^" + "0" * 4999 + "3 - " + "7" * 5000,
                         VARS, PrimeField(32003))
    assert h.terms == {(0, 0, 3): 1, (0, 0, 0): -sevens % 32003}
    pf = parse_problem("[field]\nQ\n[variables]\nring x y z\n[ideal]\n"
                       "x + " + "7" * 5000 + "\n")
    assert pf.ideal == [f]
    with pytest.raises(ParseError, match="more than 100000 digits"):
        parse_polynomial("x + " + "7" * 100_001, VARS, QQ)


@pytest.mark.parametrize("digits", [5000, 100_000])
def test_format_long_coefficients_without_cli(digits):
    # str() of a polynomial writes coefficients past CPython's int/str digit
    # limit (left at its default here), and the reader reads them back: a
    # numerator of 10^(digits-1) + 1 over 2^k, both of exactly ``digits``
    # digits, an integer of that size and their negatives
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is not None:
        assert 0 < limit() < digits
    num = 10 ** (digits - 1) + 1
    den = 2 ** (10 ** (digits - 1)).bit_length()
    assert 10 ** (digits - 1) <= den < 10 ** digits
    for c in (Fraction(num, den), Fraction(-num, den), num, -num):
        p = Polynomial(VARS, QQ, {(1, 0, 0): QQ.from_fraction(c),
                                  (0, 2, 0): QQ.from_fraction(c) * 3})
        assert parse_polynomial(str(p), VARS, QQ) == p
    K = SimpleExtension(QQ, (-2, 0, 1), gen="r")
    c = K.from_coeffs([Fraction(num, den), Fraction(-num, 3)])
    p = Polynomial(VARS, K, {(1, 0, 0): c, (0, 0, 0): c})
    assert parse_polynomial(str(p), VARS, K) == p
    # and the decimal writer agrees with str() on either side of its chunks
    for n in (0, 7, -10 ** 3999, 10 ** 4000 - 1, 10 ** 4000, -(2 ** 13000),
              2 ** 13001 + 12345):
        with _no_digit_limit():
            assert format_decimal(n) == str(n)


@contextmanager
def _no_digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        yield
        return
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_power_budget_matches_the_reader():
    # s^p in verify is held to the budget of the reader's ^: coefficient
    # bits by _height, and for a sum e*deg + 1 terms at most 1001
    R = ("x", "y")
    x1 = parse_polynomial("x + 1", R, QQ)
    check_power_budget(x1, 1000, "s^p")
    with pytest.raises(ResourceError, match="s\\^p with exponent 1001"):
        check_power_budget(x1, 1001, "s^p")
    with pytest.raises(ResourceError):
        check_power_budget(parse_polynomial("x^10 + 2*x^5 + 1", R, QQ),
                           200_001, "s^p")
    check_power_budget(parse_polynomial("x^10 + 2*x^5 + 1", R, QQ), 100, "")
    check_power_budget(parse_polynomial("x^10", R, QQ), 200_001, "")
    with pytest.raises(ResourceError):
        check_power_budget(parse_polynomial("3*x^10", R, QQ), 400_000, "")
    with pytest.raises(ParseError, match="power too large"):
        parse_polynomial("(x + 1)^1001", R, QQ)


def test_parse_repeated_variable_name():
    # a name listed twice fills both exponent slots, as Polynomial.variable
    f = parse_polynomial("x^2*y", ("x", "y", "x"), PrimeField(7))
    assert list(f.terms) == [(2, 1, 2)]


def coefficients(field):
    q = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                  st.integers(1, 10 ** 20))
    if field == QQ:
        return q
    if isinstance(field, PrimeField):
        return st.integers(0, field.p - 1)
    return st.lists(q, min_size=field.degree,
                    max_size=field.degree).map(field.from_coeffs)


@pytest.mark.parametrize("field,variables", RINGS, ids=RING_IDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_format_round_trip_large_heights(field, variables, data):
    monos = st.tuples(*[st.integers(0, 6)] * len(variables))
    f = Polynomial(variables, field, data.draw(
        st.dictionaries(monos, coefficients(field), max_size=12)))
    assert parse_polynomial(format_polynomial(f), variables, field) == f


# -- the product kernel against the textbook loop ---------------------------

PRODUCT_FIELDS = [QQ, PrimeField(5), PrimeField(32003),
                  PrimeField(2 ** 61 - 1), K2, K3]
PRODUCT_IDS = ["Q", "F5", "F32003", "F(2^61-1)", "Q(sqrt2)", "Q(s)"]
# sums of two of these hit 255, 256, 2^16, 2^32, 2^64 and about 10^20: the
# edges of every slot width of the key codec
WIDE_EXPONENTS = [127, 128, 129, 255, 256, 2 ** 15, 2 ** 16, 2 ** 31,
                  2 ** 32, 2 ** 63, 2 ** 64, 5 * 10 ** 19, 10 ** 20]


def textbook_product(a, b):
    """The terms of a*b by F.mul and F.add per term pair, with their types,
    in dict order; a sum that cancels keeps its place until the end."""
    F = a.field
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            prod = F.mul(c1, c2)
            terms[m] = F.add(terms[m], prod) if m in terms else prod
    return [(m, type(c), c) for m, c in terms.items() if not F.is_zero(c)]


def product_coefficients(field):
    if field == QQ:
        big = st.integers(-2 ** 200, 2 ** 200)
        return st.one_of(big.filter(bool), st.builds(
            Fraction, big, st.integers(2, 2 ** 64)).filter(
                lambda q: q.denominator > 1))
    return coefficients(field)


def product_polys(draw, field, variables):
    exps = st.one_of(st.integers(0, 3), st.sampled_from(WIDE_EXPONENTS))
    monos = st.tuples(*[exps] * len(variables))
    coeffs = product_coefficients(field)
    return [Polynomial(variables, field, draw(
        st.dictionaries(monos, coeffs, max_size=8))) for _ in range(2)]


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=PRODUCT_IDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_product_matches_textbook_loop(field, data):
    variables = ("x", "y", "z", "w")[:data.draw(st.integers(0, 4))]
    a, b = product_polys(data.draw, field, variables)
    if data.draw(st.booleans()):
        a, b = a + b, a - b     # the cross terms of (a + b)(a - b) cancel
    got = a * b
    assert [(m, type(c), c) for m, c in got.terms.items()] == \
        textbook_product(a, b)


def test_product_order_when_an_alpha_component_cancels():
    # (x + 1 + r)(1 - x): the r-component of x cancels, its 1-component
    # does not, so x keeps the place where it first appears
    one, r = K2.one(), K2.generator()
    a = Polynomial(("x",), K2, {(1,): one, (0,): K2.add(one, r)})
    b = Polynomial(("x",), K2, {(0,): one, (1,): K2.neg(one)})
    assert [(m, type(c), c) for m, c in (a * b).terms.items()] == \
        textbook_product(a, b)


@pytest.mark.parametrize("top", [254, 255, 256, 2 ** 16 - 1, 2 ** 16,
                                 2 ** 32, 2 ** 64 - 1, 2 ** 64, 10 ** 20])
@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=PRODUCT_IDS)
def test_product_at_each_slot_width_edge(field, top):
    # max exponent of a + max exponent of b is exactly top, in every variable
    R = ("x", "y")
    one = field.one()
    h = top // 2
    a = Polynomial(R, field, {(h, 0): one, (0, h): one, (1, 1): one})
    b = Polynomial(R, field, {(top - h, top - h): one, (0, 0): field.neg(one),
                              (top - h, 0): one})
    assert [(m, type(c), c) for m, c in (a * b).terms.items()] == \
        textbook_product(a, b)
    assert max(max(m) for m in (a * b).terms) == top


def test_product_cancels_to_zero_terms_and_zero_factors():
    R = ("x", "y")
    for field in PRODUCT_FIELDS:
        x, y = (Polynomial.variable(R, field, v) for v in R)
        assert (x + y) * (x - y) == x * x - y * y
        assert list(((x + y) * (x - y)).terms) == [(2, 0), (0, 2)]
        assert (x * Polynomial.zero(R, field)).is_zero()
        assert (Polynomial.zero(R, field) * y).is_zero()
        c = Polynomial.constant((), field, field.from_int(3))
        assert (c * c).terms == {(): field.from_int(9)}


def _count_field_calls(monkeypatch):
    calls = []
    for cls in (type(QQ), PrimeField, SimpleExtension):
        for op in ("mul", "add"):
            real = getattr(cls, op)
            monkeypatch.setattr(
                cls, op, lambda self, a, b, real=real, op=op:
                calls.append(op) or real(self, a, b))
    return calls


def test_products_over_q_and_gf_p_run_on_ints(monkeypatch):
    # over Q(alpha) too: its coefficients are unfolded to Q and folded back
    calls = _count_field_calls(monkeypatch)
    for field in (QQ, PrimeField(32003)):
        f = parse_polynomial("(x + 2*y - 3)^2", VARS, field)
        g = parse_polynomial("x*y - 5*z^3 + 7", VARS, field)
        del calls[:]
        f * g
        assert calls == []
    for field in (K2, K3):
        f = parse_polynomial(f"(x + {field.gen}*y - 3)^2", ("x", "y"), field)
        del calls[:]
        f * f
        assert calls == []


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_q_product_coefficients_are_int_or_fraction(data):
    a, b = product_polys(data.draw, QQ, ("x", "y"))
    for c in (a * b).terms.values():
        assert type(c) in (int, Fraction)
        if type(c) is Fraction:
            assert c.denominator != 1
