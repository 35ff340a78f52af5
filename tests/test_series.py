import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desing import poly, series
from desing.errors import (DivisibilityError, DomainError, NonUnitError,
                           ParseError, StructuralError)
from desing.fields import QQ, PrimeField, SimpleExtension
from desing.poly import (Polynomial, monomial_degree, parse_polynomial,
                         product_terms)
from desing.series import (PACKED_MIN_PAIRS, CompletionMorphism,
                           SeriesPoint, TruncatedSeries, _PackedPowers,
                           format_series, parse_series, series_eval,
                           series_point, weierstrass_prepare)

VARS = ("x", "y")


def random_series(rng, field, variables=VARS, precision=8, terms=5,
                  unit=False):
    data = {}
    n = len(variables)
    for _ in range(terms):
        mono = tuple(rng.randrange(precision) for _ in range(n))
        if sum(mono) >= precision:
            continue
        if field == QQ:
            c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
        else:
            c = rng.randrange(field.p)
        data[mono] = c
    if unit:
        data[(0,) * n] = field.one()
    return TruncatedSeries(variables, field, data, precision)


def sser(text, variables=("x",), field=QQ):
    return parse_series(text, variables, field)


# ---------------------------------------------------------------------------
# arithmetic and precision bookkeeping

@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_invert_round_trip(field):
    rng = random.Random(404)
    one_count = 0
    for _ in range(200):
        u = random_series(rng, field, unit=True)
        prod = u * u.invert()
        assert prod == TruncatedSeries.one(VARS, field, u.precision)
        one_count += 1
    assert one_count == 200


def test_invert_non_unit():
    s = sser("x + O(x^6)")
    with pytest.raises(NonUnitError):
        s.invert()


def test_order_additive():
    rng = random.Random(11)
    for _ in range(50):
        f = random_series(rng, QQ, precision=10)
        g = random_series(rng, QQ, precision=10)
        fo, go = f.order(), g.order()
        if fo is None or go is None or fo + go >= 10:
            continue
        assert (f * g).order() == fo + go


def test_min_precision_rule():
    a = sser("1 + x + O(x^9)")
    b = sser("1 - x + O(x^5)")
    assert (a + b).precision == 5
    assert (a * b).precision == 5
    assert (a - b).precision == 5


def test_truncate_cannot_raise_precision():
    a = sser("1 + x + O(x^4)")
    assert a.truncate(2).precision == 2
    with pytest.raises(DomainError):
        a.truncate(8)


def test_divide_exact_unit_divisor():
    rng = random.Random(21)
    for _ in range(60):
        f = random_series(rng, QQ)
        g = random_series(rng, QQ, unit=True)
        q = (f * g).divide_exact(g)
        assert q == f.truncate(q.precision)


def test_divide_exact_monomial_times_unit():
    f = sser("x^3 + x^4 + O(x^9)")
    g = sser("x^2 + x^3 + O(x^9)")      # x^2 * (1 + x)
    q = f.divide_exact(g)
    assert q.precision == 7
    assert q == sser("x + O(x^7)")


def test_divide_exact_precision_drop():
    x = TruncatedSeries.variable(("x",), QQ, "x", 10)
    f = x * x
    q = f.divide_exact(x)
    assert q.precision == 9
    assert q == x.truncate(9)


def test_divide_exact_failures():
    with pytest.raises(DivisibilityError):
        sser("x + O(x^5)").divide_exact(sser("x^2 + O(x^5)"))
    with pytest.raises(DivisibilityError):
        sser("x + O(x^5)").divide_exact(sser("0 + O(x^5)"))
    f = parse_series("x + y + O(x^5)", VARS, QQ)
    g = parse_series("x + y + O(x^5)", VARS, QQ)
    # divisor valuation part is not a single monomial
    with pytest.raises(DivisibilityError):
        f.divide_exact(g)
    # a dividend whose precision does not pass the divisor's order
    with pytest.raises(DomainError):
        sser("0 + O(x^2)").divide_exact(sser("x^2 + x^3 + O(x^9)"))
    g = parse_series("x*y + x^2*y + O(x^6)", VARS, QQ)     # x*y * (1 + x)
    # a monomial times a non-unit
    with pytest.raises(DivisibilityError):
        parse_series("x^3*y + O(x^6)", VARS, QQ).divide_exact(
            parse_series("x*y + y^3 + O(x^6)", VARS, QQ))
    # total order below the divisor's, and a term that x*y does not divide
    with pytest.raises(DivisibilityError):
        parse_series("x + O(x^6)", VARS, QQ).divide_exact(g)
    with pytest.raises(DivisibilityError):
        parse_series("x^3 + x*y + O(x^6)", VARS, QQ).divide_exact(g)


@st.composite
def _exact_quotients(draw):
    """(a, b) with b a monomial of degree k = 0..3 times a unit, and a that
    monomial times a series of order j = 0..6 (or zero), in one or two
    variables over Q or GF(32003), each of precision k + 1 to k + 30."""
    field = draw(st.sampled_from((QQ, GF)))
    n = draw(st.integers(1, 2))
    variables = VARS[:n]
    coeff = (st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
             .map(QQ.from_fraction) if field == QQ
             else st.integers(0, field.p - 1))
    k = draw(st.integers(0, 3))
    if n == 1:
        mono = (k,)
    else:
        i = draw(st.integers(0, k))
        mono = (i, k - i)

    def shifted(terms, precision):
        return TruncatedSeries(
            variables, field,
            {tuple(map(sum, zip(m, mono))): c for m, c in terms.items()},
            precision)

    def terms(low, high, size):
        """Up to ``size`` terms of total degree from low to below high."""
        monos = [m for m in itertools.product(range(high), repeat=n)
                 if low <= sum(m) < high]
        if not monos:
            return {}
        return draw(st.dictionaries(st.sampled_from(monos), coeff,
                                    max_size=size))

    pb, pa = draw(st.integers(k + 1, k + 30)), draw(st.integers(k + 1, k + 30))
    unit = terms(1, pb - k, 30)
    unit[(0,) * n] = draw(coeff.filter(lambda c: not field.is_zero(c)))
    j = draw(st.integers(0, 6))
    rest = terms(j, max(j + 1, pa - k), draw(st.sampled_from((0, 3, 30))))
    return shifted(rest, pa), shifted(unit, pb)


def _reference_quotient(a, b):
    """a / b with b inverted at the full precision: the valuation monomial
    of b is taken off both, and the shifted a times the inverse of the
    shifted b."""
    k = b.order()
    mono = next(m for m in b.terms if monomial_degree(m) == k)

    def down(s):
        return TruncatedSeries(
            s.variables, s.field,
            {tuple(e - d for e, d in zip(m, mono)): c
             for m, c in s.terms.items()}, s.precision - k)

    return down(a) * down(b).invert()


def test_divide_exact_matches_full_inverse(monkeypatch):
    # the quotient is the one a full-precision inverse gives, and the
    # divisor is inverted at P - s, P the quotient's precision and s the
    # order of the dividend after the valuation monomial is taken off
    inverted = []
    real = TruncatedSeries.invert

    def spied(self):
        inverted.append(self.precision)
        return real(self)

    monkeypatch.setattr(TruncatedSeries, "invert", spied)

    @settings(max_examples=200, deadline=None)
    @given(_exact_quotients())
    def check(pair):
        a, b = pair
        want = _reference_quotient(a, b)
        del inverted[:]
        q = a.divide_exact(b)
        assert q.terms == want.terms
        assert q.precision == want.precision
        s = a.order()
        if s is None or s - b.order() >= q.precision:
            assert inverted == []
        else:
            assert inverted == [q.precision - (s - b.order())]

    check()


def test_scale_and_pow():
    a = sser("1 + x + O(x^5)")
    assert a * sser("2 + O(x^5)") == sser("2 + 2*x + O(x^5)")
    assert a ** 2 == sser("1 + 2*x + x^2 + O(x^5)")
    assert a ** 0 == TruncatedSeries.one(("x",), QQ, 5)


# ---------------------------------------------------------------------------
# evaluation and morphisms

def test_series_eval_matches_direct():
    f = parse_polynomial("Y^2 - 1 - x", ("x", "Y"), QQ)
    x = TruncatedSeries.variable(("x",), QQ, "x", 8)
    y = sser("1 + 1/2*x - 1/8*x^2 + 1/16*x^3 + O(x^8)")
    val = series_eval(f, {"x": x, "Y": y})
    assert val.order() is None or val.order() >= 4


def test_series_eval_missing_assignment():
    f = parse_polynomial("x + Y", ("x", "Y"), QQ)
    x = TruncatedSeries.variable(("x",), QQ, "x", 8)
    with pytest.raises(StructuralError):
        series_eval(f, {"x": x})


def test_completion_morphism():
    v = CompletionMorphism(base_var="x", field=QQ,
                           images={"Y": sser("x^2 + O(x^6)")})
    assert v.precision == 6
    f = parse_polynomial("Y - x^2", ("x", "Y"), QQ)
    assert v.eval(f).is_zero()


def test_completion_morphism_wrong_variable():
    bad = parse_series("y + O(y^4)", ("y",), QQ)
    with pytest.raises(StructuralError):
        CompletionMorphism(base_var="x", field=QQ, images={"Y": bad})


# ---------------------------------------------------------------------------
# parsing and formatting

def test_parse_format_round_trip():
    rng = random.Random(55)
    for field in (QQ, PrimeField(7)):
        for _ in range(150):
            s = random_series(rng, field)
            assert parse_series(format_series(s), VARS, field) == s


@pytest.mark.parametrize("field", [QQ, PrimeField(32003),
                                   SimpleExtension(QQ, (-2, 0, 1), gen="r")],
                         ids=["Q", "F32003", "Q(sqrt2)"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_format_round_trip_large_heights(field, data):
    q = st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                  st.integers(1, 10 ** 20))
    if isinstance(field, PrimeField):
        coeff = st.integers(0, field.p - 1)
    elif isinstance(field, SimpleExtension):
        coeff = st.lists(q, min_size=2, max_size=2).map(field.from_coeffs)
    else:
        coeff = q
    variables = data.draw(st.sampled_from([("x",), VARS]))
    precision = data.draw(st.integers(1, 30))
    monos = st.tuples(*[st.integers(0, 30)] * len(variables))
    s = TruncatedSeries(variables, field, data.draw(
        st.dictionaries(monos, coeff, max_size=12)), precision)
    assert parse_series(format_series(s), variables, field) == s


def test_parse_requires_marker():
    with pytest.raises(ParseError):
        parse_series("1 + x", ("x",), QQ)
    with pytest.raises(ParseError):
        parse_series("1 + O(t^4)", ("x",), QQ)


def test_parse_precision_above_bound():
    # the packed paths allocate O(N), so a marker past MAX_PRECISION is
    # refused where it is read, with its line
    top = series.MAX_PRECISION
    assert parse_series(f"1 + x + O(x^{top})", ("x",), QQ).precision == top
    for n in (top + 1, 10 ** 8):
        with pytest.raises(ParseError, match=f"line 7.*precision {n}"):
            parse_series(f"x + 1/2*x^2 + O(x^{n})", ("x",), QQ, line=7)


@pytest.mark.parametrize("text", ["1 + x^4 + O(x^4)", "x^9 - x^9 + x^7 + O(x^5)",
                                  "y*x^3 + O(y^4)"])
def test_parse_refuses_a_term_at_or_above_the_marker(text):
    # series text is canonical: a term the marker would drop is a parse
    # error at its line, not silently discarded
    with pytest.raises(ParseError, match="line 3.*at or above the marker"):
        parse_series(text, ("y", "x"), QQ, line=3)
    assert parse_series("x^3 - x^9 + x^9 + O(x^4)", ("x",), QQ) == \
        parse_series("x^3 + O(x^4)", ("x",), QQ)


def test_parse_zero_and_default_exponent():
    z = parse_series("O(x^5)", ("x",), QQ)
    assert z.is_zero() and z.precision == 5
    o1 = parse_series("O(x)", ("x",), QQ)
    assert o1.precision == 1


# ---------------------------------------------------------------------------
# Weierstrass preparation

def random_regular(rng, p, precision, variables=("y", "x")):
    s = random_series(rng, QQ, variables=variables, precision=precision,
                      terms=6)
    terms = dict(s.terms)
    # force x-regularity of order exactly p: kill lower pure-x terms,
    # set the x^p coefficient to a unit
    for i in range(p):
        terms.pop((0, i), None)
    terms[(0, p)] = Fraction(1)
    # every term of y-degree 0 must have x-degree >= p for order exactly p
    for mono in list(terms):
        if mono[0] == 0 and mono[1] < p:
            del terms[mono]
    return TruncatedSeries(variables, QQ, terms, precision)


def test_weierstrass_invariants():
    rng = random.Random(99)
    for _ in range(10):
        p = rng.randrange(1, 4)
        f = random_regular(rng, p, 12)
        data = weierstrass_prepare(f)
        assert data.p == p
        # unit really is a unit
        assert not QQ.is_zero(data.unit.constant_coefficient())
        # z_i vanish at the origin
        for z in data.zs:
            assert QQ.is_zero(z.constant_coefficient())
        # product identity holds exactly at the stated precision
        assert (data.unit * data.wpoly()).terms == f.terms


def test_weierstrass_known_example():
    # f = (1 + y) * (x^2 + y*x) expanded
    f = parse_series("x^2 + y*x + y*x^2 + y^2*x + O(x^10)", ("y", "x"), QQ)
    data = weierstrass_prepare(f)
    assert data.p == 2
    assert data.zs[0].is_zero()
    # f = (1 + y) * x * (x + y), so the distinguished factor is x^2 + y*x
    assert data.zs[1] == parse_series("y + O(y^10)", ("y",), QQ)
    assert data.unit.truncate(5) == parse_series("1 + y + O(y^5)",
                                                 ("y", "x"), QQ).truncate(5)


def test_weierstrass_needs_two_variables():
    # in one variable the z_i would be series in no variables
    for text in ("x^2 + O(x^5)", "1 + x + O(x^5)"):
        with pytest.raises(DomainError, match="two variables"):
            weierstrass_prepare(parse_series(text, ("x",), QQ))


def test_weierstrass_visits_only_nonempty_levels():
    # f = x^2 + y has one nonempty level in y: the recurrence skips the empty
    # ones, so N = 65536 takes well under a second (it used to be quadratic
    # in N: 1.5 s at N = 4096)
    f = parse_series("x^2 + y + O(y^65536)", ("y", "x"), QQ)
    data = weierstrass_prepare(f)
    assert data.p == 2
    assert data.unit == TruncatedSeries.one(("y", "x"), QQ, 65536)
    assert data.zs[0] == parse_series("y + O(y^65536)", ("y",), QQ)
    assert data.zs[1].is_zero()


def test_weierstrass_not_regular():
    f = parse_series("y + y*x + O(x^6)", ("y", "x"), QQ)
    with pytest.raises(DomainError):
        weierstrass_prepare(f)


def test_weierstrass_overlap_between_precisions():
    # recomputing at higher precision must agree with the lower run on the
    # region where both are reliable (strictly below 12 - p)
    rng = random.Random(123)
    for _ in range(5):
        p = rng.randrange(1, 4)
        f16 = random_regular(rng, p, 16)
        f12 = TruncatedSeries(f16.variables, QQ, f16.terms, 12)
        d16 = weierstrass_prepare(f16)
        d12 = weierstrass_prepare(f12)
        cut = 12 - p
        assert d16.unit.truncate(cut).terms == d12.unit.truncate(cut).terms
        for a, b in zip(d16.zs, d12.zs):
            assert a.truncate(cut).terms == b.truncate(cut).terms


def test_order_of_helper():
    assert sser("x^3 + O(x^8)").order() == 3
    assert sser("O(x^8)").order() is None


# ---------------------------------------------------------------------------
# the series product and Weierstrass preparation against textbook loops

def _textbook_mul(d1, d2, field, cut):
    """Every pair of terms, keeping the products of degree below ``cut``."""
    out = {}
    for m1, c1 in d1.items():
        for m2, c2 in d2.items():
            if monomial_degree(m1) + monomial_degree(m2) >= cut:
                continue
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = field.add(out.get(m, field.zero()), field.mul(c1, c2))
    return {m: c for m, c in out.items() if not field.is_zero(c)}


def _textbook_weierstrass(f):
    """(p, unit terms, z_i terms): the level-by-level recurrence on term
    dicts, with the inverse of the level-0 unit by its own recurrence."""
    F, m, N = f.field, len(f.variables), f.precision
    levels = {}
    for mono, c in f.terms.items():
        levels.setdefault(monomial_degree(mono[:m - 1]), {})[mono] = c
    f0 = levels[0]
    p = min(mono[-1] for mono in f0)
    e = {mono[:-1] + (mono[-1] - p,): c for mono, c in f0.items()}
    zero = (0,) * (m - 1)
    inv0 = F.invert(e[zero + (0,)])
    e_inv = {zero + (0,): inv0}
    for d in range(1, N):
        acc = F.zero()
        for j in range(1, d + 1):
            aj, bj = e.get(zero + (j,)), e_inv.get(zero + (d - j,))
            if aj is not None and bj is not None:
                acc = F.add(acc, F.mul(aj, bj))
        if not F.is_zero(acc):
            e_inv[zero + (d,)] = F.neg(F.mul(inv0, acc))
    u_parts, z_parts = {0: e}, {}
    for k in range(1, N):
        R = dict(levels.get(k, {}))
        for j in range(1, k):
            prod = _textbook_mul(u_parts.get(k - j, {}), z_parts.get(j, {}),
                                 F, N)
            for mono, c in prod.items():
                R[mono] = F.add(R.get(mono, F.zero()), F.neg(c))
        w = _textbook_mul(R, e_inv, F, N)
        zk = {mono: c for mono, c in w.items() if mono[-1] < p}
        wplus = {mono[:-1] + (mono[-1] - p,): c for mono, c in w.items()
                 if mono[-1] >= p}
        uk = _textbook_mul(e, wplus, F, N)
        if zk:
            z_parts[k] = zk
        if uk:
            u_parts[k] = uk
    unit = {}
    for part in u_parts.values():
        unit.update(part)
    zs = [{mono[:-1]: c for part in z_parts.values()
           for mono, c in part.items() if mono[-1] == i} for i in range(p)]
    return p, unit, zs


_SERIES_FIELDS = (QQ, PrimeField(32003))


@st.composite
def _series_pairs(draw):
    """Two series in one to three variables, of precision 1 to 20 and up to
    40 terms each; over Q with integers of up to 31 digits and fractions."""
    field = draw(st.sampled_from(_SERIES_FIELDS))
    n = draw(st.integers(1, 3))
    variables = ("y", "z", "x")[3 - n:]

    def one():
        precision = draw(st.integers(1, 20))
        monos = st.tuples(*[st.integers(0, precision)] * n)
        size = min(draw(st.integers(0, 40)), (precision + 1) ** n * 3 // 4)
        terms = draw(st.dictionaries(monos, _eval_coefficients(field),
                                     min_size=size, max_size=40))
        return TruncatedSeries(variables, field, terms, precision)

    return one(), one()


def test_mul_matches_textbook_loop(monkeypatch):
    # every product agrees with the textbook loop, and only products in one
    # variable enter the packed kernel, which some of the examples do
    packed = []
    real = series._packed_product

    def counted(F, a, b, prec):
        assert all(len(m) == 1 for t in (a, b) for m in t)
        packed.append(prec)
        return real(F, a, b, prec)

    monkeypatch.setattr(series, "_packed_product", counted)

    @settings(max_examples=200, deadline=None)
    @given(_series_pairs())
    def check(pair):
        a, b = pair
        prec = min(a.precision, b.precision)
        for x, y in ((a, b), (b, a)):
            product = x * y
            assert product.terms == _textbook_mul(x.terms, y.terms, x.field,
                                                  prec)
            assert product.precision == prec

    check()
    assert packed


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                         ids=["Q", "GF32003"])
@pytest.mark.parametrize("n", [2, 3])
def test_several_variable_products_never_pack(monkeypatch, field, n):
    """Products in two and three variables, of 10-term factors and of
    dense ones of 80 to 200 terms (thousands of stored pairs), run bounded
    ``product_terms``: they never enter the packed kernel and agree with
    the textbook loop.  Over Q with large signed fractions, over GF(p) with
    p - 1 among the coefficients."""
    def refused(*args):
        raise AssertionError("a several-variable product was packed")

    monkeypatch.setattr(series, "_packed_product", refused)
    rng = random.Random(n)
    variables = ("y", "z", "x")[3 - n:]
    precision = 21 if n == 2 else 12
    monos = [[m for m in itertools.product(range(p), repeat=n)
              if sum(m) < p] for p in (precision, precision - 1)]

    def coeff():
        if field == QQ:
            return Fraction(rng.randrange(-10 ** 20, 10 ** 20),
                            rng.randrange(1, 10 ** 6))
        return rng.choice((field.p - 1, rng.randrange(1, field.p)))

    for sizes in ((10, 10), (80, 120), (200, 200)):
        a, b = (TruncatedSeries(variables, field,
                                {m: coeff() for m in rng.sample(monos[i], k)},
                                precision - i)
                for i, k in enumerate(sizes))
        assert len(a.terms) * len(b.terms) >= PACKED_MIN_PAIRS
        product = a * b
        assert product.precision == precision - 1
        assert product.terms == _textbook_mul(a.terms, b.terms, field,
                                              precision - 1)


@st.composite
def _regular_series(draw):
    """An x-regular series in two or three variables: sparse (up to 10
    terms, N up to 12) over Q, GF(32003) or Q(sqrt 2), or dense (every
    monomial below N, N up to 20 in two variables and 12 in three) over
    GF(32003) or over Q with fractions.  A dense three-variable series at
    N = 20 over Q costs the textbook recurrence about 2.6 s, so the CLI
    tests that size on the engine alone."""
    shape = draw(st.sampled_from(("sparse", "dense", "sqrt2")))
    n = draw(st.integers(2, 3))
    variables = ("y", "z", "x")[3 - n:]
    if shape == "dense":
        field = draw(st.sampled_from(_SERIES_FIELDS))
        N = draw(st.integers(2, 20 if n == 2 else 12))
        nums = st.integers(-9, 9)
        coeff = (st.builds(Fraction, nums, st.integers(1, 4))
                 .map(QQ.from_fraction) if field == QQ
                 else nums.map(field.from_int))
        monos = [m for m in itertools.product(range(N), repeat=n)
                 if sum(m) < N]
        terms = {m: draw(coeff) for m in monos}
    else:
        field = SQRT2 if shape == "sqrt2" else draw(
            st.sampled_from(_SERIES_FIELDS))
        N = draw(st.integers(2, 12))
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, N - 1)] * n),
            st.integers(-9, 9).filter(bool).map(field.from_int),
            max_size=10))
    p = draw(st.integers(0, N - 1))
    # x-regular of order exactly p
    terms = {m: c for m, c in terms.items() if any(m[:-1]) or m[-1] > p}
    terms[(0,) * (n - 1) + (p,)] = field.from_int(draw(
        st.integers(-9, 9).filter(bool)))
    return TruncatedSeries(variables, field, terms, N)


@settings(max_examples=150, deadline=None)
@given(_regular_series())
def test_weierstrass_matches_textbook_recurrence(f):
    p, unit, zs = _textbook_weierstrass(f)
    data = weierstrass_prepare(f)
    assert data.p == p
    assert data.unit.terms == unit
    assert [z.terms for z in data.zs] == zs


# ---------------------------------------------------------------------------
# the packed product and Newton inversion against the textbook loop and the
# graded recurrence

GF = PrimeField(32003)
SQRT2 = SimpleExtension(QQ, (-2, 0, 1), gen="r")


def _recurrence_invert(s):
    """The inverse of a unit series by the graded recurrence, degree by
    degree: b_d = -b_0 * sum_(j=1..d) a_j b_(d-j)."""
    F = s.field
    inv0 = F.invert(s.constant_coefficient())
    parts_a = {}
    for m, c in s.terms.items():
        parts_a.setdefault(monomial_degree(m), {})[m] = c
    parts_b = {0: {(0,) * len(s.variables): inv0}}
    for d in range(1, s.precision):
        acc = {}
        for j in range(1, d + 1):
            for m1, c1 in parts_a.get(j, {}).items():
                for m2, c2 in parts_b.get(d - j, {}).items():
                    m = tuple(x + y for x, y in zip(m1, m2))
                    acc[m] = F.add(acc.get(m, F.zero()), F.mul(c1, c2))
        level = {m: F.neg(F.mul(inv0, c)) for m, c in acc.items()
                 if not F.is_zero(c)}
        if level:
            parts_b[d] = level
    return {m: c for level in parts_b.values() for m, c in level.items()}


def _coefficients(field):
    """Q: signed fractions of up to 40-digit numerators and 20-digit
    denominators; GF(32003): any residue; Q(sqrt 2): a + b*r with a, b
    fractions of small height."""
    if field == QQ:
        return st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                         st.integers(1, 10 ** 20))
    if field == SQRT2:
        return st.lists(st.builds(Fraction, st.integers(-50, 50),
                                  st.integers(1, 7)),
                        min_size=2, max_size=2).map(SQRT2.from_coeffs)
    return st.integers(0, field.p - 1)


@st.composite
def _univariate(draw, field, precision, max_terms=40):
    """A series whose drawn terms may lie at or beyond the precision of
    the product (the constructor drops those beyond its own)."""
    terms = draw(st.dictionaries(st.tuples(st.integers(0, precision + 4)),
                                 _coefficients(field), max_size=max_terms))
    return TruncatedSeries(("x",), field, terms, precision)


@st.composite
def _univariate_pairs(draw):
    field = draw(st.sampled_from((QQ, GF)))
    pa, pb = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    return draw(_univariate(field, pa)), draw(_univariate(field, pb))


@settings(max_examples=300, deadline=None)
@given(_univariate_pairs())
def test_packed_mul_matches_textbook_loop(pair):
    a, b = pair
    prec = min(a.precision, b.precision)
    for x, y in ((a, b), (b, a)):
        product = x * y
        assert product.terms == _textbook_mul(x.terms, y.terms, x.field, prec)
        assert product.precision == prec


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF32003"])
@pytest.mark.parametrize("shape", [(7, 9), (8, 8), (1, 64), (9, 9), (0, 90)])
def test_mul_either_side_of_crossover(field, shape):
    """Products with 63, 64 and 81 stored term pairs, on either side of
    the crossover ``PACKED_MIN_PAIRS`` = 64, and a zero factor; over Q
    with negative coefficients of large height, over GF(p) with p - 1."""
    rng = random.Random(100 * shape[0] + shape[1])
    top = Fraction(-10 ** 30 + 7, 3 ** 40) if field == QQ else field.p - 1
    a = TruncatedSeries(("x",), field, {(2 * i,): top
                                        for i in range(shape[0])}, 100)
    b = TruncatedSeries(("x",), field, {(i,): field.from_int(
        rng.choice((-1, 1)) * rng.randrange(1, 10 ** 4))
        for i in range(shape[1])}, 95)
    assert (len(a.terms), len(b.terms)) == shape
    assert (a * b).terms == _textbook_mul(a.terms, b.terms, field, 95)


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF32003"])
def test_packed_mul_at_the_slot_bound(field):
    """Dense factors of one repeated coefficient c make the middle
    coefficient of the product +-n*c^2, the bound the slots are sized by;
    over Q some of these bounds have a bit length that is a multiple of 8."""
    cs = range(1, 13) if field == QQ else range(field.p - 12, field.p)
    for n in (8, 11, 16, 23):
        for c in cs:
            a = TruncatedSeries(("x",), field, {(i,): field.from_int(c)
                                                for i in range(n)}, 2 * n)
            for b in (a, -a):
                assert (a * b).terms == _textbook_mul(a.terms, b.terms,
                                                      field, 2 * n)


@st.composite
def _units(draw):
    """A unit over Q, GF(32003) or Q(sqrt 2) in one variable (precision up
    to 150) or two (up to 20): a nonzero constant term plus up to 30 drawn
    terms, or none, a unit that is only its constant term."""
    field = draw(st.sampled_from((QQ, GF, SQRT2)))
    n = draw(st.integers(1, 2))
    precision = draw(st.integers(1, 150 if n == 1 else 20))
    coeff = _coefficients(field)
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, precision + 4)] * n), coeff,
        max_size=draw(st.sampled_from((0, 30)))))
    terms[(0,) * n] = draw(coeff.filter(lambda c: not field.is_zero(c)))
    return TruncatedSeries(("y", "x")[2 - n:], field, terms, precision)


@settings(max_examples=120, deadline=None)
@given(_units())
def test_newton_invert_matches_recurrence(u):
    inverse = u.invert()
    assert inverse.precision == u.precision
    assert inverse.terms == _recurrence_invert(u)


def test_graded_ring_products_match_reference():
    """Neither a series over Q(sqrt 2) nor one in two variables over Q
    packs; their products, by bounded ``product_terms``, and their inverses
    agree with the textbook loop and the recurrence."""
    rng = random.Random(9)
    for variables, field in ((("x",), SQRT2), (("y", "x"), QQ)):
        n = len(variables)

        def coeff():
            c = Fraction(rng.randrange(-50, 51), 7)
            return (c, Fraction(rng.randrange(-50, 51))) if field == SQRT2 \
                else c

        def series(precision):
            terms = {tuple(rng.randrange(precision) for _ in range(n)):
                     coeff() for _ in range(60)}
            terms[(0,) * n] = field.one()
            return TruncatedSeries(variables, field, terms, precision)

        a, b = series(20), series(16)
        assert len(a.terms) * len(b.terms) >= PACKED_MIN_PAIRS
        assert (a * b).terms == _textbook_mul(a.terms, b.terms, field, 16)
        assert a.invert().terms == _recurrence_invert(a)


@st.composite
def _bounded_products(draw):
    """Two term dicts over Q, GF(32003) or Q(sqrt 2) in one to three
    variables, up to 25 nonzero terms each, and a bound from 0 to past the
    top degree of their product."""
    field = draw(st.sampled_from((QQ, GF, SQRT2)))
    n = draw(st.integers(1, 3))
    monos = st.tuples(*[st.integers(0, 6)] * n)
    coeff = _coefficients(field).filter(lambda c: not field.is_zero(c))
    a, b = (draw(st.dictionaries(monos, coeff, max_size=25))
            for _ in range(2))
    top = max(map(sum, a), default=0) + max(map(sum, b), default=0)
    return field, a, b, draw(st.integers(0, top + 2))


@settings(max_examples=200, deadline=None)
@given(_bounded_products())
def test_bounded_product_terms_drop_only_the_high_terms(case):
    F, a, b, below = case
    want = {m: c for m, c in product_terms(F, a, b).items()
            if monomial_degree(m) < below}
    assert product_terms(F, a, b, below) == want


def test_bounded_products_never_form_the_dropped_pairs(monkeypatch):
    """Over Q(sqrt 2) a product runs on ints, one term per nonzero component
    of a coefficient: a bounded product and a series product form one int
    pair, one sum of packed keys, for each pair of stored components whose
    degrees sum to less than the bound, and no more."""
    calls = []
    real = poly._key_codec

    class Key(int):
        def __add__(self, other):
            calls.append(1)
            return int(self) + other

    def codec(n, top):
        pack, unpack = real(n, top)
        return (lambda monos: map(Key, pack(monos))), unpack

    monkeypatch.setattr(poly, "_key_codec", codec)
    rng = random.Random(18)
    for n, precision in ((1, 30), (2, 12), (3, 8)):
        variables = ("y", "z", "x")[3 - n:]
        a, b = (TruncatedSeries(variables, SQRT2, {
            tuple(rng.randrange(precision) for _ in range(n)):
            SQRT2.from_coeffs((rng.randrange(1, 9), rng.randrange(-9, 9)))
            for _ in range(40)}, precision) for _ in range(2))
        below = precision - 2
        pairs = sum(sum(map(bool, c1)) * sum(map(bool, c2))
                    for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()
                    if monomial_degree(m1) + monomial_degree(m2) < below)
        assert 0 < pairs < 4 * len(a.terms) * len(b.terms)
        del calls[:]
        product_terms(SQRT2, a.terms, b.terms, below)
        assert len(calls) == pairs
        del calls[:]
        a.truncate(below) * b
        assert len(calls) == pairs


# ---------------------------------------------------------------------------
# packed evaluation against a term-by-term substitution

EVAL_VARS = ("x", "Y1", "Y2")
# a cubic field whose minimal polynomial is not integral
CUBIC = SimpleExtension(QQ, (Fraction(1, 3), Fraction(-1, 2), 0, 1), gen="s")


def _eval_coefficients(field):
    """Q: signed integers and fractions, kept canonical; GF(32003): any
    residue; Q(alpha): one to deg(mu) Q coefficients in 1, alpha, ...,
    reduced, so some have alpha-components and some do not."""
    if field == QQ:
        return st.one_of(st.integers(-10 ** 30, 10 ** 30),
                         st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                                   st.integers(1, 10 ** 6))
                         ).map(QQ.from_fraction)
    if isinstance(field, SimpleExtension):
        return st.lists(_eval_coefficients(QQ), min_size=1,
                        max_size=field.degree).map(field.from_coeffs).filter(
                            lambda c: not field.is_zero(c))
    return st.integers(0, field.p - 1)


@st.composite
def _eval_cases(draw):
    """A series field, images of x, Y1 and Y2 over it (some of them zero,
    of precisions 1 to 30), two or three polynomials in those variables
    (some zero or constant; over Q(alpha) their coefficients are over Q
    or over Q(alpha)) and an optional precision cap, from 1 to above the
    images'."""
    field = draw(st.sampled_from((QQ, GF, SQRT2, CUBIC)))
    pfield = draw(st.sampled_from((QQ, field))) if field.kind == \
        "simple-extension" else field
    coeff, pcoeff = _eval_coefficients(field), _eval_coefficients(pfield)
    images = {}
    for name in EVAL_VARS:
        precision = draw(st.integers(1, 30))
        terms = draw(st.dictionaries(st.tuples(st.integers(0, 34)), coeff,
                                     max_size=draw(st.sampled_from((0, 3, 12)))))
        images[name] = TruncatedSeries(("x",), field, terms, precision)
    polys = []
    for _ in range(draw(st.integers(2, 3))):
        shape = draw(st.sampled_from(("zero", "constant", "sum")))
        monos = st.tuples(*(st.integers(0, 4) for _ in EVAL_VARS))
        if shape == "zero":
            terms = {}
        elif shape == "constant":
            terms = {(0, 0, 0): draw(pcoeff)}
        else:
            terms = draw(st.dictionaries(monos, pcoeff, min_size=1,
                                         max_size=8))
        polys.append(Polynomial(EVAL_VARS, pfield, terms))
    cap = draw(st.one_of(st.none(), st.integers(1, 40)))
    return field, images, polys, cap


def _applied(poly, images, cap):
    """poly at the images, term by term: the sum of c times a product of
    powers of the images, cut to the least of their precisions and cap."""
    prec = min(images[v].precision for v in poly.variables)
    prec = prec if cap is None else min(prec, cap)
    field = images[poly.variables[0]].field
    out = TruncatedSeries.zero(("x",), field, prec)
    for mono, c in poly.terms.items():
        part = TruncatedSeries.constant(("x",), field,
                                        field.coerce(poly.field, c), prec)
        for name, e in zip(poly.variables, mono):
            if e:
                part = part * images[name].truncate(prec) ** e
        out = out + part
    return out


@settings(max_examples=400, deadline=None)
@given(_eval_cases())
def test_packed_eval_matches_apply(case):
    field, images, polys, cap = case
    shared = series_point(images)
    assert isinstance(shared, SeriesPoint)
    for poly in polys:
        want = _applied(poly, images, cap)
        for got in (series_eval(poly, images, cap),
                    series_eval(poly, shared, cap)):
            assert got.terms == want.terms
            assert got.precision == want.precision
            if field == QQ:
                assert all(type(c) is int or (type(c) is Fraction
                                              and c.denominator != 1)
                           for c in got.terms.values())
            if field.kind == "simple-extension":
                assert all(len(c) == field.degree and all(
                    type(ci) is Fraction for ci in c)
                    for c in got.terms.values())


def test_packed_eval_over_an_extension_widens_the_stride():
    # a point over Q(s) first evaluated at alpha-degree 0, then at
    # alpha-degree 8 before mu: the powers already built are re-laid out
    # with the longer stride, and every value is the term-by-term one
    s = TruncatedSeries(("x",), CUBIC, {(0,): CUBIC.generator()}, 12)
    y = TruncatedSeries(("x",), CUBIC, {(0,): CUBIC.one(),
                                        (1,): CUBIC.generator()}, 12)
    images = {"x": TruncatedSeries.variable(("x",), CUBIC, "x", 12),
              "Y1": s, "Y2": y}
    point = series_point(images)
    polys = [parse_polynomial(text, EVAL_VARS, QQ)
             for text in ("x^2 + 1/7*x", "Y2^3 - x", "Y1^4*Y2^4 - 2/3",
                          "x^2 + 1/7*x")]
    for poly in polys:
        assert series_eval(poly, point) == _applied(poly, images, None)
    assert point._packed[12].stride == 9


def test_packed_eval_takes_a_high_power_over_an_extension_reduced():
    # (r + x)^1000 over Q(sqrt 2): unreduced, its constant term alone has
    # alpha-degree 1000; the power is an image of its own, reduced by mu,
    # so the stride stays at most 2d - 1 and the evaluation is quick
    y = TruncatedSeries(("x",), SQRT2, {(0,): SQRT2.generator(),
                                        (1,): SQRT2.one()}, 32)
    images = {"x": TruncatedSeries.variable(("x",), SQRT2, "x", 32),
              "Y1": y, "Y2": y}
    point = series_point(images)
    for text in ("Y1^1000 - x*Y2^999", "Y1^3 + Y2^2"):
        poly = parse_polynomial(text, EVAL_VARS, QQ)
        assert series_eval(poly, point) == _applied(poly, images, None)
    assert point._packed[32].stride <= 3


def test_packed_eval_width_counts_the_coefficient_row():
    # c*Y1 with c = 7 + 7s + 7s^2 and Y1 = c: the coefficient of s^2 before
    # mu is 3*49 = 147, more than a slot sized without c's three
    # components would hold
    c = CUBIC.from_coeffs([7, 7, 7])
    images = {name: TruncatedSeries(("x",), CUBIC, {(0,): c}, 4)
              for name in EVAL_VARS}
    poly = Polynomial(EVAL_VARS, CUBIC, {(0, 1, 0): c})
    assert series_eval(poly, images) == _applied(poly, images, None)


def test_series_point_refuses_several_variables():
    z = TruncatedSeries.variable(VARS, QQ, "x", 6)
    with pytest.raises(StructuralError, match="one variable"):
        series_point({"Y": z})
    f = parse_polynomial("Y^2 + 1", ("Y",), QQ)
    with pytest.raises(StructuralError, match="one variable"):
        series_eval(f, {"Y": z})


def test_packed_eval_builds_each_power_once(monkeypatch):
    # one point serves every polynomial: each (variable, exponent) power is
    # packed or multiplied out once for each precision, and widening the
    # slots for a later polynomial re-lays out the powers already built
    built = []
    real = _PackedPowers._build

    def counted(self, key):
        built.append((self.size,) + key)
        return real(self, key)

    monkeypatch.setattr(_PackedPowers, "_build", counted)
    x = TruncatedSeries.variable(("x",), QQ, "x", 20)
    y = TruncatedSeries(("x",), QQ, {(0,): Fraction(1, 3), (1,): -2}, 20)
    point = series_point({"x": x, "Y1": y, "Y2": y})
    polys = [parse_polynomial(text, EVAL_VARS, QQ)
             for text in ("x^3*Y1^2 - 1", "Y1^4 + x^3", "1000000*Y1^9*Y2",
                          "x^3*Y1^2 - 1")]
    values = [series_eval(p, point) for p in polys]
    values.append(series_eval(polys[1], point, 7))
    for p, value in zip(polys + polys[1:2], values):
        assert value == _applied(p, point.images, value.precision)
    assert len(built) == len(set(built))
    assert (20, "Y1", 4) in built and (7, "Y1", 4) in built
