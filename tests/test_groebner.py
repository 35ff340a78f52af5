import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desing import groebner
from desing.errors import DomainError, ResourceError, StructuralError
from desing.fields import QQ, PrimeField, SimpleExtension
from desing.groebner import (DEGREVLEX, IdealPresentation, buchberger,
                             divide_exact_poly, division, eliminate,
                             ideal_equal,
                             ideal_intersection, ideal_member, ideal_quotient,
                             kernel_basis, module_groebner, normal_form,
                             radical_member, s_polynomial, saturate,
                             vec_is_zero, vec_leading)
from desing.poly import LEX, Polynomial, block_order, parse_polynomial

VARS = ("x", "y", "z")


# monomial and term helpers of the textbook references below

def monomial_divides(m1, m2):
    return all(a <= b for a, b in zip(m1, m2))


def monomial_div(m1, m2):
    return tuple(a - b for a, b in zip(m1, m2))


def monomial_lcm(m1, m2):
    return tuple(map(max, m1, m2))


def term_poly(p, mono, coeff):
    """The one-term polynomial coeff*x^mono of p's ring."""
    return Polynomial(p.variables, p.field, {mono: coeff})


def div(F, a, b):
    return F.mul(a, F.invert(b))


def module_normal_form(v, basis, order):
    """Full reduction of a module element against a list of vectors, by the
    engine's division in the position-over-term encoding."""
    work_vars, work_order = groebner._position_ring(len(v), v[0].variables,
                                                    order)
    rem = division(groebner._encode(v, work_vars),
                   [groebner._encode(b, work_vars) for b in basis],
                   work_order)
    return groebner._decode(rem, len(v), v[0].variables)


def pp(text, variables=VARS, field=QQ):
    return parse_polynomial(text, variables, field)


def ideal(*texts, variables=VARS, field=QQ):
    return IdealPresentation(variables, field,
                             [parse_polynomial(t, variables, field)
                              for t in texts])


def test_division_invariant():
    f = pp("x^2*y + x*y^2 + y^2")
    basis = [pp("x*y - 1"), pp("y^2 - 1")]
    quotients, rem = division(f, basis, DEGREVLEX, with_quotients=True)
    rebuilt = rem
    for q, b in zip(quotients, basis):
        rebuilt = rebuilt + q * b
    assert rebuilt == f
    # no remainder term divisible by a leading term
    for mono, _ in rem.terms.items():
        for b in basis:
            lead, _ = b.leading(DEGREVLEX)
            assert not all(a <= m for a, m in zip(lead, mono))


def _textbook_division(f, basis, order):
    """The plain division loop: take the leading term, subtract a multiple
    of the first divisor whose leading monomial divides it."""
    F = f.field
    quotients = [Polynomial.zero(f.variables, F) for _ in basis]
    leads = [g.leading(order) for g in basis]
    rem = Polynomial.zero(f.variables, F)
    p = f
    while not p.is_zero():
        mono, coeff = p.leading(order)
        for i, (lm, lc) in enumerate(leads):
            if monomial_divides(lm, mono):
                factor = term_poly(p, monomial_div(mono, lm),
                                   div(F, coeff, lc))
                p = p - factor * basis[i]
                quotients[i] = quotients[i] + factor
                break
        else:
            rem = rem + term_poly(p, mono, coeff)
            p = p - term_poly(p, mono, coeff)
    return quotients, rem


_SQRT2 = SimpleExtension(QQ, (-2, 0, 1), gen="r")
# mu = s^3 - 1/2*s + 1/3: degree 3, coefficients not integral
_CUBIC = SimpleExtension(QQ, (Fraction(1, 3), Fraction(-1, 2), 0, 1),
                         gen="s")
# GF(2^61 - 1): sums left unreduced by the division kernel pass 64 bits;
# over Q(alpha) the work runs over Q with alpha a last variable and mu a
# generator
_FIELDS = (PrimeField(32003), QQ, PrimeField((1 << 61) - 1), _SQRT2, _CUBIC)
_ORDERS = (LEX, DEGREVLEX, block_order(1), block_order(2, LEX, DEGREVLEX),
           block_order(2, block_order(1, LEX, DEGREVLEX), DEGREVLEX),
           block_order(1, DEGREVLEX, block_order(1, LEX, DEGREVLEX)))
# packed slots start at 15 bits; an exponent scaled by 2^16 + 1 is past
# them, and scaling a variable keeps the divisibility of the small case
_SCALES = st.tuples(*[st.sampled_from((1, (1 << 16) + 1))] * len(VARS))


def _coeffs(field):
    """Nonzero coefficients: over Q fractions a/b, so that divisors are not
    monic and leads are negative or non-integral; over GF(p) any residue;
    over Q(alpha) a + b*alpha + ... with small integers a, b, ..."""
    small = st.integers(-7, 7).filter(bool)
    if field == QQ:
        return st.builds(Fraction, small, st.integers(1, 9)).map(
            field.from_fraction)
    if isinstance(field, SimpleExtension):
        return st.tuples(*[st.integers(-3, 3)] * field.degree).filter(
            any).map(field.from_coeffs)
    return st.one_of(small, st.integers(1, field.p - 1)).map(field.from_int)


def _polys(field, min_terms, scales=(1,) * len(VARS), max_exp=3,
           max_terms=6):
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, max_exp).map(lambda e, s=s: e * s)
                    for s in scales]),
        _coeffs(field), min_size=min_terms, max_size=max_terms)
    return terms.map(lambda t: Polynomial(VARS, field, t))


@st.composite
def _division_cases(draw):
    field = draw(st.sampled_from(_FIELDS))
    order = draw(st.sampled_from(_ORDERS))
    scales = draw(_SCALES)
    f = draw(_polys(field, 0, scales))
    basis = draw(st.lists(_polys(field, 1, scales), min_size=1, max_size=3))
    return f, basis, order


@settings(max_examples=200, deadline=None)
@given(_division_cases(), st.booleans())
def test_division_matches_textbook_loop(case, with_quotients):
    f, basis, order = case
    quotients, rem = _textbook_division(f, basis, order)
    out = division(f, basis, order, with_quotients=with_quotients)
    if with_quotients:
        assert out == (quotients, rem)
    else:
        assert out == rem
    rebuilt = rem
    for q, g in zip(quotients, basis):
        rebuilt = rebuilt + q * g
    assert rebuilt == f


def _textbook_s_polynomial(f, g, order):
    (mf, cf), (mg, cg) = f.leading(order), g.leading(order)
    lcm = monomial_lcm(mf, mg)
    F = f.field
    return (term_poly(f, monomial_div(lcm, mf), F.invert(cf)) * f
            - term_poly(g, monomial_div(lcm, mg), F.invert(cg)) * g)


@st.composite
def _spair_cases(draw):
    field = draw(st.sampled_from(_FIELDS))
    order = draw(st.sampled_from(_ORDERS))
    scales = draw(_SCALES)
    f, g = draw(st.lists(_polys(field, 1, scales), min_size=2, max_size=2))
    return f, g, order


@settings(max_examples=200, deadline=None)
@given(_spair_cases())
def test_s_polynomial_matches_textbook(case):
    # over Q(alpha) s_polynomial runs over Q with alpha a last variable
    f, g, order = case
    assert s_polynomial(f, g, order) == _textbook_s_polynomial(f, g, order)


def _textbook_buchberger(gens, order):
    """All pairs in the order they arise, no criteria, remainders by the
    textbook loop; then minimize, tail-reduce, make monic and sort."""
    def monic(g):
        return g.monic(order)

    G = [monic(g) for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        r = _textbook_division(_textbook_s_polynomial(G[i], G[j], order),
                               G, order)[1]
        if not r.is_zero():
            G.append(monic(r))
            pairs += [(k, len(G) - 1) for k in range(len(G) - 1)]
    leads = [g.leading(order)[0] for g in G]
    minimal = [g for i, g in enumerate(G) if not any(
        j != i and monomial_divides(leads[j], leads[i])
        and (leads[j] != leads[i] or j < i) for j in range(len(G)))]
    reduced = [monic(_textbook_division(g, minimal[:i] + minimal[i + 1:],
                                        order)[1])
               for i, g in enumerate(minimal)]
    return sorted(reduced, key=lambda g: order.key(g.leading(order)[0]),
                  reverse=True)


@st.composite
def _basis_cases(draw):
    field = draw(st.sampled_from(_FIELDS))
    order = draw(st.sampled_from(_ORDERS))
    scales = draw(_SCALES)
    gens = draw(st.lists(_polys(field, 1, scales, max_exp=2, max_terms=3),
                         min_size=1, max_size=3))
    return gens, order


@settings(max_examples=80, deadline=None)
@given(_basis_cases())
def test_buchberger_matches_textbook_loop(case):
    gens, order = case
    assert buchberger(gens, order).elements == \
        _textbook_buchberger(gens, order)


def test_wide_exponents_basis_pinned():
    # 2*40000 passes the 15-bit slots a packed monomial starts with
    names = ("x", "y")
    F = PrimeField(32003)
    gb = buchberger([pp("x^40000 - y", names, F), pp("y^2 - 1", names, F)])
    assert [str(g) for g in gb.elements] == ["x^40000 + 32002*y",
                                             "y^2 + 32002"]


def test_slot_overflow_repacks_wider(monkeypatch):
    # under lex, x^8 reduces to y^(8*65537) by x - y^65537: the slots sized
    # for the inputs overflow, and the work runs again on slots twice as
    # wide, to the same result as the textbook loop
    names = ("x", "y")
    widths = []

    class Ring(groebner._Ring):
        def __init__(self, order, n, width, field):
            widths.append(width)
            super().__init__(order, n, width, field)

    monkeypatch.setattr(groebner, "_Ring", Ring)
    f, g = pp("x^8 + x", names), pp("x - y^65537", names)
    assert division(f, [g], LEX, with_quotients=True) == \
        _textbook_division(f, [g], LEX)
    assert widths == [18, 36]
    del widths[:]
    gb = buchberger([pp("x^8", names), g], LEX)
    assert [str(h) for h in gb.elements] == ["-y^65537 + x", "y^524296"]
    assert widths == [18, 36]


def _count_calls(monkeypatch, name):
    """Record every call of ``groebner.<name>`` as (args, result)."""
    calls = []
    real = getattr(groebner, name)

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(groebner, name, counted)
    return calls


def _count_division_field_calls(monkeypatch):
    """Record the F.mul and F.add calls made while ``groebner._divide``, the
    division loop, runs."""
    calls, inside = [], []
    real_divide = groebner._divide

    def divide(*args):
        inside.append(True)
        try:
            return real_divide(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(groebner, "_divide", divide)
    for cls in (type(QQ), PrimeField, SimpleExtension):
        for op in ("mul", "add"):
            real = getattr(cls, op)
            monkeypatch.setattr(
                cls, op, lambda self, a, b, real=real, op=op:
                inside and calls.append(op) or real(self, a, b))
    return calls


def test_division_over_q_and_gf_p_runs_on_ints(monkeypatch):
    # over Q(alpha) too: division and bases run over Q with mu a divisor
    calls = _count_division_field_calls(monkeypatch)
    texts = ("x^2*y - 2/3*y*z + 1/5", "-3/7*y^2 + 5/2*x*z + 2",
             "z^2 - 4/13*x*y + 7/3*x - 1/2")
    for field in (QQ, PrimeField(32003), PrimeField((1 << 61) - 1), _SQRT2,
                  _CUBIC):
        a = field.gen if isinstance(field, SimpleExtension) else "1"
        gens = [pp(t.replace("z^2", f"{a}*z^2"), field=field) for t in texts]
        f = pp(f"x^3*y^2*z + 5/3*{a}*x*y*z^2 - 7", field=field)
        quotients, rem = division(f, gens, DEGREVLEX, with_quotients=True)
        assert any(not q.is_zero() for q in quotients)
        assert len(buchberger(gens).elements) > len(gens)
        assert calls == []


def test_buchberger_pair_order_pinned(monkeypatch):
    # cyclic-4 mod 32003: 11 S-pairs reach reduction and 5 of them reduce
    # to zero; a different pair order changes these counts
    names = ("a", "b", "c", "d")
    F = PrimeField(32003)
    cyclic4 = [pp(t, names, F) for t in (
        "a + b + c + d", "a*b + b*c + c*d + d*a",
        "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1")]
    spolys = _count_calls(monkeypatch, "s_polynomial")
    divisions = _count_calls(monkeypatch, "division")
    gb = buchberger(cyclic4)
    reduced = {id(s) for _, s in spolys}
    zeros = [r for (f, *_), r in divisions
             if id(f) in reduced and r.is_zero()]
    assert (len(spolys), len(zeros), len(gb.elements)) == (11, 5, 7)


def test_module_groebner_basis_pinned():
    # the reduced basis of these four vectors, recorded from the module
    # pair loop that position variables and ``buchberger`` replaced
    names = ("x", "y")
    vectors = [tuple(pp(t, names) for t in row) for row in (
        ("x^2 - y", "x*y", "1"), ("x*y + 1", "y^2", "x"),
        ("y^2", "x - y", "y"), ("x", "y", "x*y - 1"))]
    gb = module_groebner(vectors)
    assert [tuple(str(c) for c in v) for v in gb] == [
        ("1", "0", "-x*y^2 + x + y"),
        ("0", "y", "x^2*y^2 - x^2 - 1"),
        ("0", "x", "-x^2 + x*y + 2*y - 1"),
        ("0", "0", "x*y^3 + x^2*y - x*y - y^2 - x - 1"),
        ("0", "0", "x^4 + 2*y^4 - 3*x^2*y + 2*x*y^2 - x^2 - 2*x + y"),
        ("0", "0", "y^5 - 1/2*x^2*y^2 + 1/2*x^3 - x^2*y - y^3 + 1/2*x^2"
                   " - x*y + 3/2*y^2 + 1/2*x + 1/2"),
        ("0", "0", "x^3*y^2 - x^3 + x^2*y - x*y^2 - 2*y^2 - x + y")]


def test_buchberger_known_lex_basis():
    I = ideal("x^2 + y^2", "x*y")
    gb = buchberger(I, LEX)
    elems = {str(g) for g in gb.elements}
    assert elems == {"x^2 + y^2", "x*y", "y^3"}


def test_spair_reduction_invariant():
    rng = random.Random(17)
    for _ in range(10):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                mono = tuple(rng.randrange(3) for _ in VARS)
                terms[mono] = Fraction(rng.randrange(-5, 6) or 1)
            gens.append(Polynomial(VARS, QQ, terms))
        I = IdealPresentation(VARS, QQ, gens)
        if not I.generators:
            continue
        gb = buchberger(I)
        for i in range(len(gb.elements)):
            for j in range(i + 1, len(gb.elements)):
                s = s_polynomial(gb.elements[i], gb.elements[j], DEGREVLEX)
                assert normal_form(s, gb).is_zero()


def test_groebner_is_deterministic():
    I = ideal("x^2 + y^2", "x*y", "x*z - y")
    a = buchberger(I)
    b = buchberger(I)
    assert a.elements == b.elements


def test_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(groebner, "SPAIR_BUDGET", 1)
    I = ideal("x^3 - 2*x*y", "x^2*y - 2*y^2 + x")
    with pytest.raises(ResourceError, match="S-pair budget 1 exceeded"):
        buchberger(I, DEGREVLEX)


def test_ideal_member():
    I = ideal("x^2 + y^2", "x*y")
    assert ideal_member(pp("y^3"), I)
    assert not ideal_member(pp("y^2"), I)


def test_eliminate_twisted_cubic():
    I = ideal("y - x^2", "z - x^3")
    J = eliminate(I, ("x",))
    expected = ideal("y^3 - z^2", variables=("y", "z"))
    assert ideal_equal(J, expected)


def test_intersection():
    I = ideal("x")
    J = ideal("y")
    K = ideal_intersection(I, J)
    assert ideal_equal(K, ideal("x*y"))


def test_quotient_identities():
    I = ideal("x^2", "x*y")
    J = ideal("x")
    Q = ideal_quotient(I, J)
    # (I : J) * J inside I, and I inside (I : J)
    for q in Q.generators:
        for j in J.generators:
            assert ideal_member(q * j, I)
    for g in I.generators:
        assert ideal_member(g, Q)
    # known value: (x^2, xy) : (x) = (x, y)
    assert ideal_equal(Q, ideal("x", "y"))


def test_quotient_of_ideal_by_itself_is_unit():
    I = ideal("x^2 - y", "x*z")
    Q = ideal_quotient(I, I)
    assert Q.generators == [Polynomial.one(VARS, QQ)]


def test_quotient_with_generators_inside_numerator():
    # x^2*y and y*z^2 lie in I, so their quotients are (1); the result is
    # still the intersection of all one-generator quotients (I ∩ (h)) / h
    I = ideal("x^2*y", "y*z^2", "x*z - y")
    J = ideal("x", "x^2*y", "z", "y*z^2")
    assert [ideal_member(h, I) for h in J.generators] == [
        False, True, False, True]
    expected = None
    for h in J.generators:
        inter = ideal_intersection(I, IdealPresentation(VARS, QQ, [h]))
        part = IdealPresentation(
            VARS, QQ, [divide_exact_poly(g, h) for g in inter.generators])
        expected = part if expected is None else \
            ideal_intersection(expected, part)
    Q = ideal_quotient(I, J)
    assert ideal_equal(Q, expected)
    assert Q.generators == buchberger(expected).elements


def test_quotient_by_zero_ideal():
    I = ideal("x")
    with pytest.raises(DomainError):
        ideal_quotient(I, IdealPresentation(VARS, QQ, []))


def test_saturation_idempotent():
    I = ideal("x^2*y", "x*z^2")
    f = pp("x")
    S1 = saturate(I, f)
    S2 = saturate(S1, f)
    assert ideal_equal(S1, S2)
    assert ideal_equal(S1, ideal("y", "z^2"))


def test_radical_member():
    I = ideal("x^2")
    assert radical_member(pp("x"), I)
    assert not radical_member(pp("y"), I)
    assert radical_member(pp("x^5*y"), I)


def test_prime_field_groebner():
    F = PrimeField(101)
    I = ideal("x^2 + y", "y^2 - x", field=F)
    gb = buchberger(I)
    assert ideal_member(pp("x^4 - x", field=F), gb)


# ---------------------------------------------------------------------------
# module Groebner bases and kernels

def test_kernel_of_row_vector():
    M = [[pp("x"), pp("y")]]
    kb = kernel_basis(M)
    assert len(kb.basis) == 1
    v = kb.basis[0]
    # (y, -x) up to a scalar
    ratio = None
    expected = (pp("y"), pp("-x"))
    assert v[0] * expected[1] == v[1] * expected[0]
    # really in the kernel
    assert (M[0][0] * v[0] + M[0][1] * v[1]).is_zero()


def test_kernel_multiple_of_column():
    M = [[pp("x"), pp("x^2")]]
    kb = kernel_basis(M)
    assert len(kb.basis) == 1
    v = kb.basis[0]
    assert (M[0][0] * v[0] + M[0][1] * v[1]).is_zero()
    assert v[0] * pp("1") == -v[1] * pp("x") or v[0] == v[1] * pp("-x")


def test_kernel_unit_entry_trivial():
    M = [[Polynomial.one(VARS, QQ)]]
    kb = kernel_basis(M)
    assert kb.basis == []


def test_kernel_completeness_random():
    rng = random.Random(23)
    for _ in range(8):
        M = [[Polynomial(VARS, QQ,
                         {tuple(rng.randrange(2) for _ in VARS):
                          Fraction(rng.randrange(-3, 4) or 1)})
              for _ in range(3)] for _ in range(2)]
        kb = kernel_basis(M)
        # every generator is in the kernel
        for v in kb.basis:
            for row in M:
                acc = Polynomial.zero(VARS, QQ)
                for a, b in zip(row, v):
                    acc = acc + a * b
                assert acc.is_zero()
        # random module elements of the kernel reduce to zero against a
        # module basis of the generators
        if kb.basis:
            gb = module_groebner(kb.basis)
            for _ in range(3):
                combo = tuple(Polynomial.zero(VARS, QQ) for _ in range(3))
                for v in kb.basis:
                    m = Polynomial(VARS, QQ,
                                   {tuple(rng.randrange(2) for _ in VARS):
                                    Fraction(rng.randrange(1, 3))})
                    combo = tuple(c + m * comp for c, comp in zip(combo, v))
                assert vec_is_zero(module_normal_form(combo, gb, DEGREVLEX))


def _textbook_module_nf(v, basis, order):
    """Reduce the leading term by the first basis vector at the same
    position whose leading monomial divides it, else move it to the
    remainder."""
    F = v[0].field
    zero = Polynomial.zero(v[0].variables, F)
    leads = [vec_leading(b, order) for b in basis]
    rem = [zero] * len(v)
    p = list(v)
    while not vec_is_zero(p):
        pos, mono, coeff = vec_leading(p, order)
        for b, (bp, bm, bc) in zip(basis, leads):
            if bp == pos and monomial_divides(bm, mono):
                t = term_poly(p[0], monomial_div(mono, bm),
                              div(F, coeff, bc))
                p = [a - t * c for a, c in zip(p, b)]
                break
        else:
            t = term_poly(p[0], mono, coeff)
            rem[pos] = rem[pos] + t
            p[pos] = p[pos] - t
    return tuple(rem)


def _textbook_module_basis(vectors, order):
    """Buchberger on vectors under position-over-term: same-position pairs
    by least (position, lcm), no criteria, then minimize, tail-reduce and
    sort."""
    def monic(v):
        inv = v[0].field.invert(vec_leading(v, order)[2])
        return tuple(c.scale(inv) for c in v)

    def pair_key(pair):
        (pos, mu, _), (_, mw, _) = (vec_leading(G[k], order) for k in pair)
        return pos, order.key(monomial_lcm(mu, mw)), pair

    def s_vector(u, w):
        (_, mu, _), (_, mw, _) = vec_leading(u, order), vec_leading(w, order)
        lcm = monomial_lcm(mu, mw)
        tu = term_poly(u[0], monomial_div(lcm, mu), u[0].field.one())
        tw = term_poly(w[0], monomial_div(lcm, mw), w[0].field.one())
        return tuple(tu * a - tw * b for a, b in zip(u, w))

    def same_position(j):
        return [(i, j) for i in range(j) if vec_leading(G[i], order)[0]
                == vec_leading(G[j], order)[0]]

    G = [monic(v) for v in vectors if not vec_is_zero(v)]
    pairs = [p for j in range(len(G)) for p in same_position(j)]
    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.remove((i, j))
        r = _textbook_module_nf(s_vector(G[i], G[j]), G, order)
        if not vec_is_zero(r):
            G.append(monic(r))
            pairs += same_position(len(G) - 1)
    leads = [vec_leading(g, order)[:2] for g in G]
    minimal = [g for i, g in enumerate(G) if not any(
        j != i and leads[j][0] == leads[i][0]
        and monomial_divides(leads[j][1], leads[i][1])
        and (leads[j] != leads[i] or j < i) for j in range(len(G)))]
    reduced = [monic(_textbook_module_nf(g, minimal[:i] + minimal[i + 1:],
                                         order))
               for i, g in enumerate(minimal)]
    return sorted(reduced, key=lambda v: (vec_leading(v, order)[0],
                                          order.key(vec_leading(v, order)[1])))


_MODULE_VARS = ("x", "y")


def _module_polys(field):
    terms = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-3, 3).filter(bool).map(field.from_int), max_size=2)
    return terms.map(lambda t: Polynomial(_MODULE_VARS, field, t))


@st.composite
def _module_cases(draw):
    # the wider _FIELDS took this test from 0.5 s to 10 s
    field = draw(st.sampled_from((PrimeField(32003), QQ)))
    order = draw(st.sampled_from((LEX, DEGREVLEX)))
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    matrix = draw(st.lists(st.lists(_module_polys(field), min_size=cols,
                                    max_size=cols),
                           min_size=rows, max_size=rows))
    return matrix, order


@settings(max_examples=80, deadline=None)
@given(_module_cases())
def test_module_groebner_matches_textbook_loop(case):
    matrix, order = case
    F = matrix[0][0].field
    one = Polynomial.one(_MODULE_VARS, F)
    zero = Polynomial.zero(_MODULE_VARS, F)
    # the rows of the matrix as vectors, and the kernel construction
    expected = _textbook_module_basis([tuple(r) for r in matrix], order)
    assert module_groebner([tuple(r) for r in matrix], order) == expected
    for v in [tuple(r) for r in matrix]:
        assert module_normal_form(v, expected, order) == \
            _textbook_module_nf(v, expected, order)
    rows, n = len(matrix), len(matrix[0])
    columns = [tuple([matrix[i][j] for i in range(rows)]
                     + [one if k == j else zero for k in range(n)])
               for j in range(n)]
    kernel = [v[rows:] for v in _textbook_module_basis(columns, order)
              if vec_is_zero(v[:rows])]
    assert kernel_basis(matrix, order).basis == kernel


def test_module_groebner_normal_form_zero_on_generators():
    gens = [(pp("x"), pp("y")), (pp("y"), pp("x"))]
    gb = module_groebner(gens)
    for g in gens:
        assert vec_is_zero(module_normal_form(g, gb, DEGREVLEX))


def test_wrong_ring_rejected():
    with pytest.raises(StructuralError):
        IdealPresentation(VARS, QQ, [parse_polynomial("u", ("u",), QQ)])
