"""Evaluation at a point against textbook loops.

``reference_compose`` and ``reference_series_eval`` map a polynomial term
by term: each polynomial gets its own power cache, and every term starts
from the constant polynomial or series c.  The packed evaluation
(``series_eval``) and gnd's values at the frame y' (``FramePoint``, a
packed series point) must give what they give.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desing.errors import StructuralError
from desing.fields import QQ, PrimeField, SimpleExtension
from desing.gnd import DPresentation, FramePoint
from desing.groebner import division
from desing.poly import DEGREVLEX, Polynomial, alpha_polynomial
from desing.series import TruncatedSeries, series_eval, series_point

RING = ("x", "Y1", "Y2")
GF = PrimeField(32003)
SQRT2 = SimpleExtension(QQ, (-2, 0, 1), gen="r")
# a cubic field whose minimal polynomial is not integral
CUBIC = SimpleExtension(QQ, (Fraction(1, 3), Fraction(-1, 2), 0, 1), gen="s")


def reference_compose(poly, assignment):
    """poly with each variable of ``assignment`` replaced by its image, a
    polynomial of the same ring, through a per-call power cache."""
    F = poly.field
    images = [assignment.get(v) or Polynomial.variable(poly.variables, F, v)
              for v in poly.variables]
    result = Polynomial.zero(poly.variables, F)
    power_cache = [dict() for _ in images]
    for m, c in poly.sorted_terms():
        part = Polynomial.constant(poly.variables, F, c)
        for i, e in enumerate(m):
            if e == 0:
                continue
            if e not in power_cache[i]:
                power_cache[i][e] = images[i] ** e
            part = part * power_cache[i][e]
        result = result + part
    return result


def reference_series_eval(poly, assignment, precision=None):
    images = []
    for v in poly.variables:
        if v not in assignment:
            raise StructuralError(f"no series assigned to variable {v!r}")
        images.append(assignment[v])
    variables, field = images[0].variables, images[0].field
    prec = min(s.precision for s in images)
    if precision is not None:
        prec = min(prec, precision)
    result = TruncatedSeries.zero(variables, field, prec)
    cache = [dict() for _ in images]
    for mono, coeff in poly.terms.items():
        c = field.coerce(poly.field, coeff)
        part = TruncatedSeries.constant(variables, field, c, prec)
        for i, e in enumerate(mono):
            if e == 0:
                continue
            if e not in cache[i]:
                cache[i][e] = images[i].truncate(prec) ** e
            part = part * cache[i][e]
        result = result + part
    return result


def _coeff(field):
    nonzero = st.integers(-9, 9).filter(bool)
    if field == QQ:
        return st.builds(Fraction, nonzero, st.integers(1, 4))
    if field == SQRT2:
        return st.tuples(nonzero, st.integers(-3, 3)).map(
            lambda ab: SQRT2.from_coeffs([Fraction(ab[0]), Fraction(ab[1])]))
    return nonzero.map(field.from_int)


def _terms(draw, field, n, max_exp, max_size):
    return draw(st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * n),
                                _coeff(field), max_size=max_size))


def _polys(draw, field, count):
    return [Polynomial(RING, field, _terms(draw, field, 3, 3, 5))
            for _ in range(count)]


@st.composite
def _frame_cases(draw):
    """A frame y' (Y1 and Y2 as polynomials in x, and in U below deg mu,
    some zero or constant) over Q, Q(sqrt 2) or the cubic Q(s), whose mu
    is not integral; polynomials in x, [U,] Y1 and Y2 of a ring that also
    has T1, zero and constant ones among them; and a precision cap."""
    K = draw(st.sampled_from((QQ, SQRT2, CUBIC)))
    if K == QQ:
        D = DPresentation(base_var="x", field=QQ, series_field=QQ)
    else:
        D = DPresentation(base_var="x", field=QQ, series_field=K,
                          ext_var="U", mu=alpha_polynomial(K.mu, ("U",)))
    ring = D.ring_prefix() + ("Y1", "Y2", "T1")
    u = st.integers(0, K.degree - 1 if D.ext_var else 0)

    def poly(x, y, size):
        # zero, constant (in U only), or a sum in x, U and ``y`` exponents
        shape = draw(st.sampled_from(("zero", "constant", "sum")))
        if shape == "zero":
            return Polynomial.zero(ring, QQ)
        if shape == "constant":
            x, y, size = st.just(0), st.just(0), 1
        monos = st.tuples(x, *([u] if D.ext_var else []), y, y, st.just(0))
        return Polynomial(ring, QQ, draw(st.dictionaries(
            monos, _coeff(QQ), min_size=1, max_size=size)))

    yprime = {name: poly(st.integers(0, 5), st.just(0), 4)
              for name in ("Y1", "Y2")}
    u = st.integers(0, 3)           # past deg mu, so that mu reduces
    polys = [poly(st.integers(0, 3), st.integers(0, 3), 6)
             for _ in range(draw(st.integers(2, 4)))]
    return D, yprime, polys, draw(st.integers(1, 30))


@settings(max_examples=150, deadline=None)
@given(_frame_cases())
def test_frame_values_match_textbook_compose(case):
    # a value at y' is the term-by-term substitution reduced by mu, and
    # modulo x^cap its terms below x^cap
    D, yprime, polys, cap = case
    frame = FramePoint(D, yprime)
    for f in polys:
        want = reference_compose(f, yprime)
        if D.ext_var:
            want = division(want, [D.mu.embed(f.variables)], DEGREVLEX)
        assert frame(f) == want
        low = frame.series(f, cap)
        assert low.precision == cap
        assert D.polynomial(low.terms, f.variables) == Polynomial(
            f.variables, QQ, {m: c for m, c in want.terms.items()
                              if m[0] < cap})


def test_frame_value_bound_weighs_each_variable():
    # Y1*Y2 - x^148 at y' of x-degree 443 has x-degree 886: weighing x^148
    # as 148 factors of degree 443 would ask for precision 131072
    D = DPresentation(base_var="x", field=QQ, series_field=QQ)
    ring = ("x", "Y1", "Y2")
    x = Polynomial.variable(ring, QQ, "x")
    yprime = {"Y1": x + x ** 443, "Y2": x ** 2 - x ** 443 - x ** 443}
    Y1, Y2 = (Polynomial.variable(ring, QQ, y) for y in ("Y1", "Y2"))
    f = Y1 * Y2 - x ** 148
    frame = FramePoint(D, yprime)
    want = yprime["Y1"] * yprime["Y2"] - x ** 148
    assert frame(f) == want
    assert D.polynomial(frame.series(f, 444).terms, ring) == Polynomial(
        ring, QQ, {m: c for m, c in want.terms.items() if m[0] < 444})


@st.composite
def _series_cases(draw):
    # (polynomial field, series field): Q coefficients also go into Q(r)
    pfield, sfield = draw(st.sampled_from([(QQ, QQ), (GF, GF),
                                           (QQ, SQRT2)]))
    images = {v: TruncatedSeries(("x",), sfield,
                                 _terms(draw, sfield, 1, 8, 5),
                                 draw(st.integers(1, 9)))
              for v in RING}
    cap = draw(st.one_of(st.none(), st.integers(1, 10)))
    return _polys(draw, pfield, draw(st.integers(1, 4))), images, cap


@settings(max_examples=150, deadline=None)
@given(_series_cases())
def test_series_eval_matches_textbook_loop(case):
    polys, images, cap = case
    shared = series_point(images)
    for f in polys:
        expected = reference_series_eval(f, images, cap)
        assert series_eval(f, images, cap) == expected
        assert series_eval(f, shared, cap) == expected


def test_missing_variable_is_structural_error():
    f = Polynomial.variable(RING, QQ, "Y2")
    x = TruncatedSeries.variable(("x",), QQ, "x", 6)
    images = {"x": x, "Y1": x}
    for assignment in (images, series_point(images)):
        with pytest.raises(StructuralError, match="Y2"):
            series_eval(f, assignment)


# ---------------------------------------------------------------------------
# arithmetic builds its results with the trusted constructors, which drop
# zero coefficients only; the validating constructors must find nothing
# else to drop, and must keep the same terms in the same order

def _canonical_coeff(field):
    """Nonzero canonical elements, small enough that sums often cancel."""
    if field == QQ:
        return st.builds(Fraction, st.integers(-6, 6).filter(bool),
                         st.integers(1, 3)).map(QQ.from_fraction)
    return _coeff(field)


def _validated(x):
    if isinstance(x, TruncatedSeries):
        return TruncatedSeries(x.variables, x.field, x.terms, x.precision)
    return Polynomial(x.variables, x.field, x.terms)


def _assert_trusted_terms(x):
    rebuilt = _validated(x)
    assert list(x.terms.items()) == list(rebuilt.terms.items())
    assert all(len(m) == len(x.variables) for m in x.terms)


@st.composite
def _operands(draw):
    """Two polynomials or two series of one ring over Q, GF(32003) or
    Q(sqrt 2), a scalar (zero sometimes), and the ring's kind."""
    field = draw(st.sampled_from([QQ, GF, SQRT2]))
    n = draw(st.integers(1, 2))
    variables = ("y", "x")[2 - n:]
    series = draw(st.booleans())
    size = 16 if series and n == 1 else 6

    def one():
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 12)] * n), _canonical_coeff(field),
            max_size=size))
        if series:
            return TruncatedSeries(variables, field, terms,
                                   draw(st.integers(1, 14)))
        return Polynomial(variables, field, terms)

    a, b = one(), one()
    c = draw(st.one_of(st.just(field.zero()), _canonical_coeff(field)))
    return a, b, c


def _scaled(a, c):
    """c*a: ``scale`` for a polynomial, a product for a series."""
    if isinstance(a, Polynomial):
        return a.scale(c)
    return a * TruncatedSeries.constant(a.variables, a.field, c, a.precision)


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_arithmetic_results_pass_the_validating_constructor(case):
    a, b, c = case
    results = [a + b, a - b, b - a, -a, a * b, b * a, _scaled(a, c),
               a + (-a), a - a, a + _scaled(a, a.field.neg(a.field.one()))]
    for x in results:
        _assert_trusted_terms(x)
    for cancelled in results[-3:]:
        assert cancelled.is_zero()
