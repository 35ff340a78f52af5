"""The one substitution routine against textbook loops.

``reference_compose`` and ``reference_series_eval`` are the term-mapping
loops that ``Substitution`` replaced: each polynomial gets its own power
cache, and every term starts from the constant polynomial or series c.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desing.errors import StructuralError
from desing.fields import QQ, PrimeField, SimpleExtension
from desing.poly import Polynomial, ring_substitution
from desing.series import TruncatedSeries, series_eval, series_point

RING = ("x", "Y1", "Y2")
GF = PrimeField(32003)
SQRT2 = SimpleExtension(QQ, (-2, 0, 1), gen="r")


def reference_compose(poly, assignment):
    """Polynomial.substitute as a per-call power cache over the terms."""
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
def _polynomial_cases(draw):
    field = draw(st.sampled_from([QQ, GF]))
    names = draw(st.lists(st.sampled_from(RING), unique=True, max_size=3))
    assignment = {v: Polynomial(RING, field, _terms(draw, field, 3, 2, 3))
                  for v in names}
    return _polys(draw, field, draw(st.integers(1, 4))), assignment


@settings(max_examples=150, deadline=None)
@given(_polynomial_cases())
def test_substitute_matches_textbook_compose(case):
    polys, assignment = case
    field = polys[0].field
    shared = ring_substitution(RING, field, assignment)
    for f in polys:
        expected = reference_compose(f, assignment)
        assert f.substitute(assignment) == expected
        assert f.substitute(shared) == expected


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
    with pytest.raises(StructuralError):
        f.substitute({"Q9": Polynomial.one(RING, QQ)})
    with pytest.raises(StructuralError):
        f.substitute(ring_substitution(("x", "Y2"), QQ, {}))


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


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_arithmetic_results_pass_the_validating_constructor(case):
    a, b, c = case
    results = [a + b, a - b, b - a, -a, a * b, b * a, a.scale(c),
               a + (-a), a - a, a + a.scale(a.field.neg(a.field.one()))]
    for x in results:
        _assert_trusted_terms(x)
    for cancelled in results[-3:]:
        assert cancelled.is_zero()


def _apply_by_sum(point, poly, acc):
    """Substitution.apply as a chain of ``acc + part.scale(c)``."""
    F = point.one.field
    for mono, c in poly.terms.items():
        part = None
        for name, e in zip(poly.variables, mono):
            if e:
                pw = point.power(name, e)
                part = pw if part is None else part * pw
        part = point.one if part is None else part
        acc = acc + part.scale(F.coerce(poly.field, c))
    return acc


@st.composite
def _apply_cases(draw):
    """A point, polynomials to apply it to, and a starting accumulator:
    a polynomial ring point over Q or GF(32003), or a series point whose
    images, and the accumulator, have their own precisions."""
    series = draw(st.booleans())
    if series:
        pfield, sfield = draw(st.sampled_from([(QQ, QQ), (GF, GF),
                                               (QQ, SQRT2)]))
        images = {v: TruncatedSeries(("x",), sfield,
                                     _terms(draw, sfield, 1, 8, 5),
                                     draw(st.integers(1, 9)))
                  for v in RING}
        point = series_point(images)
        acc = TruncatedSeries(("x",), sfield, _terms(draw, sfield, 1, 8, 5),
                              draw(st.integers(1, 12)))
    else:
        pfield = draw(st.sampled_from([QQ, GF]))
        names = draw(st.lists(st.sampled_from(RING), unique=True,
                              max_size=3))
        point = ring_substitution(RING, pfield, {
            v: Polynomial(RING, pfield, _terms(draw, pfield, 3, 2, 3))
            for v in names})
        acc = Polynomial(RING, pfield, _terms(draw, pfield, 3, 4, 4))
    return point, _polys(draw, pfield, draw(st.integers(1, 4))), acc


@settings(max_examples=120, deadline=None)
@given(_apply_cases())
def test_apply_matches_chain_of_sums(case):
    point, polys, acc = case
    for f in polys:
        expected = _apply_by_sum(point, f, acc)
        got = point.apply(f, acc)
        assert got == expected
        assert list(got.terms.items()) == list(expected.terms.items())
        _assert_trusted_terms(got)
        # an accumulator that cancels the value: the sum is zero
        zero = acc.scale(acc.field.zero())
        assert point.apply(f, -_apply_by_sum(point, f, zero)).is_zero()


def test_apply_cancelled_monomial_reenters_last():
    # as in a chain of +: Y1 + Y2 cancels at x, x^2 enters, and x re-enters
    # after it
    ring = ("x", "Y1", "Y2")
    x = Polynomial.variable(ring, QQ, "x")
    point = ring_substitution(ring, QQ, {"Y1": x, "Y2": -x})
    f = Polynomial(ring, QQ, {(0, 1, 0): 1, (0, 0, 1): 1, (0, 2, 0): 1,
                              (1, 0, 0): 1})
    got = point.apply(f, Polynomial.zero(ring, QQ))
    assert list(got.terms.items()) == [((2, 0, 0), 1), ((1, 0, 0), 1)]
