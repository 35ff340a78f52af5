import dataclasses
import os
import sys
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desing import check, gnd, series
from desing.check import (FramePoint, build_H_G, bound_names, build_h_g,
                          derive_frame, identity_matrix, matrix_det,
                          matrix_equal, matrix_mul, matrix_scale,
                          truncate_lift, verify_certificate)
from desing.cli import main
from desing.errors import ConsistencyError, DomainError
from desing.fields import QQ, PrimeField, SimpleExtension, _integral
from desing.gnd import border_step, desingularize
from desing.iofmt import parse_certificate
from desing.poly import Polynomial, fresh_name, parse_polynomial
from desing.series import (CompletionMorphism, TruncatedSeries, parse_series,
                           series_eval)
from desing.smooth import AlgebraPresentation, find_desing_data


def geometric(precision, start=1, sign=1):
    """x^start - x^(start+1) + ... = x^start / (1 + x), as terms."""
    return {(k,): Fraction(sign * (-1) ** (k - start))
            for k in range(start, precision)}


def node_algebra():
    return AlgebraPresentation(
        base_var="x", variables=("Y1", "Y2"), field=QQ,
        relations=[parse_polynomial("Y1*Y2 - x^2", ("x", "Y1", "Y2"), QQ)])


def node_morphism(precision=24):
    y1 = TruncatedSeries(("x",), QQ, {(1,): 1, (2,): 1}, precision)
    y2 = TruncatedSeries(("x",), QQ, geometric(precision), precision)
    return CompletionMorphism(base_var="x", field=QQ,
                              images={"Y1": y1, "Y2": y2})


def chain_k2():
    # Y1*Y2 = x^2, Y3 = Y1^2: three generator subsets
    ring = ("x", "Y1", "Y2", "Y3")
    B = AlgebraPresentation(
        base_var="x", variables=ring[1:], field=QQ,
        relations=[parse_polynomial("Y1*Y2 - x^2", ring, QQ),
                   parse_polynomial("Y3 - Y1^2", ring, QQ)])
    y1 = TruncatedSeries(("x",), QQ, {(1,): 1, (2,): 1}, 24)
    v = CompletionMorphism(base_var="x", field=QQ,
                           images={"Y1": y1, "Y2": node_morphism().images["Y2"],
                                   "Y3": y1 * y1})
    return B, v


# ---------------------------------------------------------------------------
# pipeline pieces

def test_border_step_node():
    B = node_algebra()
    v = node_morphism()
    data = find_desing_data(B, v)
    step = border_step(B, v, data)
    ring1 = step.algebra.ring_variables()
    assert step.zvar == "Z"
    assert step.algebra.relations[-1] == parse_polynomial("-x + Y2*Z", ring1,
                                                          QQ)
    assert step.data.c == 1             # d = d'^2 = x^(2c) = x^2
    # v(Z) = z = 1 + x
    z = step.morphism.images["Z"]
    assert z.coefficient((0,)) == 1 and z.coefficient((1,)) == 1


def test_border_step_needs_singular_case():
    B = AlgebraPresentation(
        base_var="x", variables=("Y1",), field=QQ,
        relations=[parse_polynomial("Y1 - x^2", ("x", "Y1"), QQ)])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series("x^2 + O(x^12)", ("x",), QQ)})
    data = find_desing_data(B, v)
    with pytest.raises(DomainError):
        border_step(B, v, data)


def test_truncate_lift_cuts_below_six_c():
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series("1 + x^5 + x^6 + x^7 + O(x^12)",
                                   ("x",), QQ)})
    D = bound_names("x", QQ, ("Y1",))
    out = truncate_lift(v.images, 1, D, ("x", "Y1"))
    assert out["Y1"] == parse_polynomial("1 + x^5", ("x", "Y1"), QQ)


def test_build_H_G_identity(monkeypatch):
    ring = ("x", "Y1", "Y2")
    fs = [parse_polynomial("Y1*Y2 - x^2", ring, QQ)]
    one = Polynomial.one(ring, QQ)
    H, G, M = build_H_G(fs, ("Y1", "Y2"), one)
    assert H == [[parse_polynomial("Y2", ring, QQ),
                  parse_polynomial("Y1", ring, QQ)],
                 [Polynomial.zero(ring, QQ), one]]
    assert M == parse_polynomial("Y2", ring, QQ)
    # desingularize requires det H * N = (R + x^c)^2 for the bordering
    # relation R = -x^c + P'Z: with N = N0*Z^2 != 0, det H is then the
    # bordering's minor M*P'; a doubled bordered witness breaks it
    real = gnd.border_step

    def wrong_witness(*args):
        step = real(*args)
        return step._replace(data=step.data._replace(
            witness=step.data.witness + step.data.witness))

    monkeypatch.setattr(gnd, "border_step", wrong_witness)
    with pytest.raises(ConsistencyError,
                       match="witness does not give P = M\\*N"):
        desingularize(node_algebra(), node_morphism())


def test_build_h_g_linear_relation():
    # at t = H(y')(yhat - y')/d^2, h is 0 and g is s^p f(yhat)/d^2, so
    # build_h_g returns f at yhat: f = Y1 - x at yhat = x + x^3 is x^3,
    # with yhat extended by zeros from its marker x^8 to x^12
    f = parse_polynomial("Y1 - x", ("x", "Y1", "T1"), QQ)
    D = bound_names("x", QQ, ("Y1",))

    def ser(text):
        return parse_series(text, ("x",), QQ)

    values, point = build_h_g([f], D, {"Y1": ser("x + x^3 + O(x^8)")}, 12)
    assert values == [ser("x^3 + O(x^12)")]
    assert point.images["Y1"] == ser("x + x^3 + O(x^12)")


def test_build_h_g_takes_no_partials(monkeypatch):
    # g is s^p f(y' + (d/s)G(y')T)/d^2, read at the point as f(Y*); a
    # Taylor expansion of this one-term relation would take 4^4 - 1
    # partials
    ring = ("x", "Y1", "Y2", "Y3", "Y4")
    B = AlgebraPresentation(base_var="x", variables=ring[1:], field=QQ,
                            relations=[parse_polynomial(
                                "Y1^3*Y2^3*Y3^3*Y4^3 - x^12", ring, QQ)])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={y: parse_series("x + O(x^120)", ("x",), QQ)
                for y in ring[1:]})
    calls, inside, builds = [0], [False], [0]
    real_derivative, real_build = Polynomial.derivative, check.build_h_g

    def derivative(self, var):
        calls[0] += inside[0]
        return real_derivative(self, var)

    def build(*args):
        inside[0] = True
        builds[0] += 1
        try:
            return real_build(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(Polynomial, "derivative", derivative)
    # verify_certificate reads build_h_g from check, where it is defined
    monkeypatch.setattr(check, "build_h_g", build)
    cert = desingularize(B, v)
    assert calls == [0] and builds == [1]
    verify_certificate(cert, B, v)
    assert cert.all_passed(), "\n".join(cert.report_lines())


# ---------------------------------------------------------------------------
# full runs

def test_desingularize_node_frozen_values():
    B = node_algebra()
    v = node_morphism()
    cert = desingularize(B, v)
    assert cert.all_passed(), "\n".join(cert.report_lines())
    assert not cert.short_circuit
    assert cert.c == 1 and p_of(cert) == 2
    assert cert.permutation == (0, 2, 1)
    assert cert.yvars == ("Y1", "Z", "Y2")
    ring = cert.ring
    assert ring == ("x", "Y1", "Z", "Y2")
    assert record(cert).s == parse_polynomial("1 + 2*x^5 + x^10", ring, QQ)
    # [hat] keeps what check 4 reads of f(yhat), to x^N = x^23: Y1 and Z,
    # whose columns of J_f(y') have x-order 1, below x^22, and Y2 below
    # x^23 (Z(y') = 1 + x is in its column)
    assert cert.precision == 23
    assert {yv: x.precision for yv, x in cert.hat_images.items()} == {
        "Y1": 22, "Z": 22, "Y2": 23}
    # M and H are derived from the subset relations in the leading yvars
    assert cert.minor() == parse_polynomial("Y2^2", ring, QQ)
    expect_H = [["Y2", "0", "Y1"], ["0", "Y2", "Z"], ["0", "0", "1"]]
    H, _, M = build_H_G(cert.subset_relations(), cert.yvars, cert.witness)
    assert H == [[parse_polynomial(e, ring, QQ) for e in row]
                 for row in expect_H]
    assert M == cert.minor()
    # t = H(y')(yhat - y') / d^2, which no certificate prints
    t1, t2, t3 = derived_t(cert, record(cert), cert.hat_images)
    assert t1.to_polynomial() == parse_polynomial("-x^3", ("x",), QQ)
    assert t2.to_polynomial() == parse_polynomial("-x^2", ("x",), QQ)
    # t3 = -x^2 / (1 + x)
    xser = TruncatedSeries.variable(("x",), QQ, "x", t3.precision)
    one = TruncatedSeries.one(("x",), QQ, t3.precision)
    minus_x2 = TruncatedSeries(("x",), QQ, {(2,): Fraction(-1)}, t3.precision)
    assert t3 * (one + xser) == minus_x2
    # six recorded checks
    assert len(cert.report) == 6


def test_desingularize_node_deterministic():
    from desing.iofmt import emit_certificate

    B = node_algebra()
    v = node_morphism()
    a = emit_certificate(desingularize(B, v))
    b = emit_certificate(desingularize(B, v))
    assert a == b


def test_verify_detects_tampering():
    # a [hat] coefficient above y' enters g = s^p f(yhat)/d^2 at the point
    # t = H(y')(yhat - y')/d^2: one more x^10 in Y2 fails check 4
    B = node_algebra()
    v = node_morphism()
    cert = desingularize(B, v)
    y2 = cert.hat_images["Y2"]
    cert.hat_images["Y2"] = y2 + TruncatedSeries(("x",), QQ, {(10,): 1},
                                                 y2.precision)
    report = verify_certificate(cert, B, v)
    failed = {r.name for r in report if not r.passed}
    assert "h and g vanish on (yhat, t)" in failed


def test_verify_check_5_compares_hat_with_v():
    # Y1 = 2x, Y2 = x/2 also satisfies Y1*Y2 = x^2, but it is not the
    # morphism the node certificate factors
    B = node_algebra()
    cert = desingularize(B, node_morphism())
    other = CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series("2*x + O(x^24)", ("x",), QQ),
                "Y2": parse_series("1/2*x + O(x^24)", ("x",), QQ)})
    failed = [r.name for r in verify_certificate(cert, B, other)
              if not r.passed]
    assert failed == ["composite factors v"]


def test_verify_check_5_compares_hat_with_v_short_circuit():
    ring = ("x", "Y1", "Y2")
    B = AlgebraPresentation(
        base_var="x", variables=ring[1:], field=QQ,
        relations=[parse_polynomial("Y1 - x^2", ring, QQ)])

    def morphism(y2):
        return CompletionMorphism(
            base_var="x", field=QQ,
            images={"Y1": parse_series("x^2 + O(x^12)", ("x",), QQ),
                    "Y2": parse_series(y2, ("x",), QQ)})

    cert = desingularize(B, morphism("x + O(x^12)"))
    assert cert.short_circuit and cert.all_passed()
    failed = [r.name for r in verify_certificate(cert, B,
                                                 morphism("2*x + O(x^12)"))
              if not r.passed]
    assert failed == ["composite factors v"]


def test_desingularize_passes_each_polynomial_to_series_eval_once(monkeypatch):
    # chain k = 3: the reduction checks that v kills I and evaluates the
    # smoothing ideal's generators until one is nonzero; find_desing_data
    # checks I again, the witness search reads those generators again as
    # M·N, and the short-circuit checks read the relations and P' once more.
    # v.eval keeps one value per polynomial, so series_eval sees each once
    ring = ("x", "Y1", "Y2", "Y3", "Y4")
    B = AlgebraPresentation(
        base_var="x", variables=ring[1:], field=QQ,
        relations=[parse_polynomial(f, ring, QQ)
                   for f in ("Y1*Y2 - x^2", "Y3 - Y2^2", "Y4 - Y3^2")])
    v = node_morphism()
    y2 = v.images["Y2"]
    v = CompletionMorphism(base_var="x", field=QQ,
                           images=dict(v.images, Y3=y2 ** 2, Y4=y2 ** 4))
    evaluated = []
    real = series.series_eval
    monkeypatch.setattr(series, "series_eval",
                        lambda f, *args: evaluated.append(f) or real(f, *args))
    assert desingularize(B, v).all_passed()
    assert evaluated[:3] == B.relations
    assert len(set(evaluated)) == len(evaluated) > 3


def test_desingularize_codimension_five_chain():
    # chain k = 5: Y1*Y2 = x^2 and Y_j = Y_(j-1)^2 for j = 3..6; the
    # smoothing ideal's witness needs all five relations, a subset of five
    # rows in six variables, which the bordering extends by its sixth
    ring = ("x", "Y1", "Y2", "Y3", "Y4", "Y5", "Y6")
    B = AlgebraPresentation(
        base_var="x", variables=ring[1:], field=QQ,
        relations=[parse_polynomial(f, ring, QQ) for f in
                   ["Y1*Y2 - x^2"] + [f"Y{j} - Y{j - 1}^2"
                                      for j in range(3, 7)]])
    images = dict(node_morphism().images)
    for j in range(3, 7):
        images[f"Y{j}"] = images[f"Y{j - 1}"] ** 2
    v = CompletionMorphism(base_var="x", field=QQ, images=images)
    cert = desingularize(B, v)
    assert cert.subset == (0, 1, 2, 3, 4, 5)
    assert all(r.passed for r in verify_certificate(cert, B, v))


def test_desingularize_smooth_short_circuit():
    B = AlgebraPresentation(
        base_var="x", variables=("Y1",), field=QQ,
        relations=[parse_polynomial("Y1 - x^2", ("x", "Y1"), QQ)])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series("x^2 + O(x^12)", ("x",), QQ)})
    cert = desingularize(B, v)
    assert cert.short_circuit and cert.c == 0
    assert cert.all_passed()
    assert len(cert.report) == 6


def test_desingularize_extension_field():
    K = SimpleExtension(QQ, (-2, 0, 1), gen="r")
    B = AlgebraPresentation(
        base_var="x", variables=("Y1",), field=QQ,
        relations=[parse_polynomial("Y1^2 - 2*x^2 - 4*x^3 - 2*x^4",
                                    ("x", "Y1"), QQ)])
    r = K.generator()
    y = TruncatedSeries(("x",), K, {(1,): r, (2,): r}, 24)
    v = CompletionMorphism(base_var="x", field=K, images={"Y1": y})
    cert = desingularize(B, v)
    assert cert.all_passed(), "\n".join(cert.report_lines())
    assert cert.D.ext_var is not None
    assert cert.series_field == K
    assert cert.c == 1


def test_desingularize_order_two_parameter():
    B = AlgebraPresentation(
        base_var="x", variables=("Y1", "Y2"), field=QQ,
        relations=[parse_polynomial("Y1*Y2 - x^4", ("x", "Y1", "Y2"), QQ)])
    y1 = TruncatedSeries(("x",), QQ, {(2,): 1, (3,): 1}, 30)
    y2 = TruncatedSeries(("x",), QQ, geometric(30, start=2), 30)
    v = CompletionMorphism(base_var="x", field=QQ,
                           images={"Y1": y1, "Y2": y2})
    cert = desingularize(B, v)
    assert cert.all_passed(), "\n".join(cert.report_lines())
    assert cert.c == 2


def test_desingularize_rejects_positive_characteristic():
    F = PrimeField(5)
    B = AlgebraPresentation(
        base_var="x", variables=("Y1",), field=F,
        relations=[parse_polynomial("Y1 - x^2", ("x", "Y1"), F)])
    v = CompletionMorphism(
        base_var="x", field=F,
        images={"Y1": parse_series("x^2 + O(x^12)", ("x",), F)})
    with pytest.raises(DomainError):
        desingularize(B, v)


def derived(cert):
    """The frame y' and the matrix G that verify derives for ``cert``."""
    yprime = truncate_lift({yv: cert.hat_images[yv] for yv in cert.yvars},
                           cert.c, cert.D, cert.ring)
    _, G, _ = build_H_G(cert.subset_relations(), cert.yvars, cert.witness)
    return yprime, G


def record(cert):
    """The FrameRecord verify derives for ``cert``: y', H, G, M, s and the
    [hat] markers."""
    return derive_frame({yv: cert.hat_images[yv] for yv in cert.yvars},
                        cert.c, cert.D, cert.ring, cert.subset_relations(),
                        cert.yvars, cert.witness, cert.precision)


def derived_t(cert, rec, hat):
    """t = H(y')(yhat - y')/d^2 to O(x^(N - 4c)), each image of ``hat``
    extended by zeros to x^N: the T's images at the point, which no
    certificate prints."""
    N, c, x, F = cert.precision, cert.c, cert.base_var, cert.series_field
    deltas = [TruncatedSeries((x,), F, hat[yv].terms, N)
              - rec.frame.point.images[yv].truncate(N) for yv in cert.yvars]
    d2 = TruncatedSeries((x,), F, {(4 * c,): F.one()}, N)
    zero = TruncatedSeries.zero((x,), F, N)
    return [sum((rec.frame.series(e, N) * delta
                 for e, delta in zip(row, deltas)), zero).divide_exact(d2)
            for row in rec.H]


def p_of(cert):
    """p of B''s formula: the largest total degree of [relations]."""
    return max(r.total_degree() for r in cert.relations)


# ---------------------------------------------------------------------------
# the expansion of h and g that certificate version 4 printed, kept as an
# oracle for B''s formula: h_j = s(Y_j - y'_j) - d w_j, w = G(y')T, and
# g_i = s^p f_i with every s*Y_j replaced by s*y'_j + d*w_j, over d^2.
# Neither gnd nor verify names a T, so the oracle names its own: it works
# in ``t_ring``, and embeds what it is given there

def t_ring(cert):
    """cert's ring, then the T's, one per yvar: T_j is fresh against x [, U],
    the yvars and the T's before it."""
    ring = cert.ring
    for j in range(len(cert.yvars)):
        ring += (fresh_name(f"T{j + 1}", ring),)
    return ring


def tvars_of(cert):
    return t_ring(cert)[len(cert.ring):]


def in_t_ring(cert, yprime, G, *polys):
    """y', G and ``polys``, embedded in ``t_ring``."""
    ring = t_ring(cert)
    return ({yv: y.embed(ring) for yv, y in yprime.items()},
            [[e.embed(ring) for e in row] for row in G],
            *[q.embed(ring) for q in polys])


def reduce_mod_mu(D, poly):
    """Normal form with the U-degree below deg(mu): the terms that share
    their U-free monomial form a polynomial in U, reduced by mu as the
    series field reduces its elements."""
    if D.ext_var is None or D.ext_var not in poly.variables:
        return poly
    i, K = poly.variables.index(D.ext_var), D.series_field
    rows, terms = {}, {}
    for m, c in poly.terms.items():
        rows.setdefault(m[:i] + (0,) + m[i + 1:], {})[m[i]] = c
    for m, row in rows.items():
        coeffs = K._reduce(row.get(e, 0) for e in range(max(row) + 1))
        terms.update((m[:i] + (e,) + m[i + 1:], _integral(c))
                     for e, c in enumerate(coeffs) if c)
    return Polynomial._nonzero(poly.variables, poly.field, terms)


def h_and_sY(yprime, yvars, tvars, s, d, Gy):
    """h_j = s(Y_j - y'_j) - d w_j and s y'_j + d w_j, with w = G(y')T."""
    ring, F = s.variables, s.field
    tpolys = [Polynomial.variable(ring, F, t) for t in tvars]
    h, sY = [], []
    for row, yv in zip(Gy, yvars):
        w = sum((e * t for e, t in zip(row, tpolys)), Polynomial.zero(ring, F))
        yp, dw = yprime[yv], d * w
        h.append(s * (Polynomial.variable(ring, F, yv) - yp) - dw)
        sY.append(s * yp + dw)
    return h, sY


def phis(fs, yvars, sY, s, p, D):
    """Phi_i = s^p f_i with every s*Y_j replaced by sY[j], for each f_i of
    ``fs`` in turn (None for one of Y-degree above p); the powers of s
    and of each sY[j] are reduced modulo mu and shared."""
    s_pow = [Polynomial.one(s.variables, s.field)]
    for _ in range(p):
        s_pow.append(reduce_mod_mu(D, s_pow[-1] * s))
    powers = [[s_pow[0]] for _ in sY]
    for f in fs:
        yield substituted_power(f, yvars, sY, powers, s_pow, D)


def substituted_power(f, yvars, sY, powers, s_pow, D):
    """s^p f with every s*Y_j replaced by sY[j], where p = len(s_pow) - 1:
    each term c*m*Y^beta (m free of Y) becomes c*m*s^(p-|beta|)*sY^beta.
    ``powers[j]`` caches the powers of sY[j].  None when f has Y-degree
    above p."""
    ring, F = f.variables, f.field
    p = len(s_pow) - 1
    yidx = [ring.index(y) for y in yvars]
    groups = {}                  # beta -> the Y-free terms of f at Y^beta
    for m, c in f.terms.items():
        beta = tuple(m[i] for i in yidx)
        if sum(beta) > p:
            return None
        rest = list(m)
        for i in yidx:
            rest[i] = 0
        groups.setdefault(beta, {})[tuple(rest)] = c
    by_degree = {}               # |beta| -> sum of the terms' sY^beta parts
    for beta, terms in groups.items():
        part = Polynomial(ring, F, terms)
        for j, e in enumerate(beta):
            while len(powers[j]) <= e:
                powers[j].append(reduce_mod_mu(D, powers[j][-1] * sY[j]))
            if e:
                part = powers[j][e] * part
        k = sum(beta)
        by_degree[k] = by_degree[k] + part if k in by_degree else part
    phi = Polynomial.zero(ring, F)
    for k, part in by_degree.items():
        phi = phi + part * s_pow[p - k]
    return phi


def d_of(cert):
    return Polynomial.variable(t_ring(cert), cert.field, cert.base_var,
                               2 * cert.c)


def G_at(cert, yprime, G):
    frame = FramePoint(cert.D, yprime)
    return [[frame(e) for e in row] for row in G]


def over_d2(cert, poly):
    """poly reduced modulo mu and divided by d^2 = x^(4c), or None where
    d^2 does not divide it (or poly is None)."""
    if poly is None:
        return None
    poly, c = reduce_mod_mu(cert.D, poly), cert.c
    i = poly.variables.index(cert.base_var)
    if any(m[i] < 4 * c for m in poly.terms):
        return None
    return Polynomial(poly.variables, poly.field, {
        m[:i] + (m[i] - 4 * c,) + m[i + 1:]: a for m, a in poly.terms.items()})


def expand_h_g(cert, yprime, G, s, p):
    """h and g as version 4 printed them; a g of Y-degree above p, or one
    that d^2 does not divide, is None."""
    yprime, G, s, *fs = in_t_ring(cert, yprime, G, s,
                                  *cert.subset_relations())
    h, sY = h_and_sY(yprime, cert.yvars, tvars_of(cert), s, d_of(cert),
                     G_at(cert, yprime, G))
    return h, [over_d2(cert, phi) for phi in phis(
        fs, cert.yvars, sY, s, p, cert.D)]


# what version 4 printed of B': s (in W*s - 1), h and g
Printed = namedtuple("Printed", "s h g")


def printed(cert):
    yprime, G = derived(cert)
    s = record(cert).s
    return Printed(s.embed(t_ring(cert)),
                   *expand_h_g(cert, yprime, G, s, p_of(cert)))


def membership(cert, yprime, G, pr):
    """Version 4's check 2 on printed s, h and g: s^p f_i = d^2 g_i mod (h).

    Each h_j must be exactly s(Y_j - y'_j) - d w_j with w = G(y')T, so that
    s Y_j = s y'_j + d w_j mod (h).  A term c m Y^beta of f_i (m free of Y)
    has |beta| <= p, so s^p c m Y^beta = c m s^(p-|beta|) (s Y)^beta, and
    s^p f_i - Phi_i lies in (h), where Phi_i replaces every s Y_j by
    s y'_j + d w_j.  The membership then holds when Phi_i - d^2 g_i
    vanishes modulo mu.  A wrong number of h or g fails."""
    D = cert.D
    yprime, G, *fs = in_t_ring(cert, yprime, G, *cert.subset_relations())
    if len(pr.h) != len(cert.yvars) or len(pr.g) != len(fs):
        return False
    d = d_of(cert)
    h, sY = h_and_sY(yprime, cert.yvars, tvars_of(cert), pr.s, d,
                     G_at(cert, yprime, G))
    if h != pr.h:
        return False
    return all(phi is not None and reduce_mod_mu(D, phi - d * d * g).is_zero()
               for phi, g in zip(phis(fs, cert.yvars, sY, pr.s, p_of(cert),
                                      D), pr.g))


# ---------------------------------------------------------------------------
# version 4's check 2 against the Taylor-telescoping cofactor identity it
# replaced

def substitute(poly, images):
    """poly with each variable named in ``images`` replaced by its image, a
    polynomial of the same ring: term by term, c times a product of powers."""
    ring, F = poly.variables, poly.field
    out = Polynomial.zero(ring, F)
    for m, c in poly.terms.items():
        part = Polynomial.constant(ring, F, c)
        for name, e in zip(ring, m):
            image = images.get(name, Polynomial.variable(ring, F, name))
            part = part * image ** e
        out = out + part
    return out


def _taylor_partials(f, yvars):
    """Nonzero iterated partials of f, keyed by the multi-exponent in Y."""
    n = len(yvars)
    zero_alpha = (0,) * n
    out = {zero_alpha: f}
    frontier = [zero_alpha]
    while frontier:
        nxt = []
        for alpha in frontier:
            for j, v in enumerate(yvars):
                beta = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:]
                if beta in out:
                    continue
                d = out[alpha].derivative(v)
                if d.is_zero():
                    continue
                out[beta] = d
                nxt.append(beta)
        frontier = nxt
    return out


def _alpha_factorial_inverse(alpha, F):
    fact = 1
    for a in alpha:
        for k in range(2, a + 1):
            fact *= k
    return F.from_fraction(Fraction(1, fact))


def reference_congruence_holds(f, i, yassign, yvars, d, s, g, h, w, p, D):
    """Check s^p f - d^2 g in (h) by an explicit cofactor identity: the
    Taylor expansion of f around y' telescopes the difference between
    powers of a_j = s(Y_j - y') and b_j = d(G(y')T)_j into multiples of
    h_j = a_j - b_j."""
    ring = s.variables
    F = s.field
    n = len(yvars)
    a_vec = [h[j] + d * w[j] for j in range(n)]
    b_vec = [d * w[j] for j in range(n)]
    s_pow = [Polynomial.one(ring, F)]
    for _ in range(p):
        s_pow.append(s_pow[-1] * s)
    lhs = s_pow[p] * f.embed(ring) - d * d * g[i]
    C = [Polynomial.zero(ring, F) for _ in range(n)]
    for alpha, df in sorted(_taylor_partials(f, yvars).items()):
        m = sum(alpha)
        if m < 1:
            continue
        base = reduce_mod_mu(D, substitute(df, yassign))
        base = base.scale(_alpha_factorial_inverse(alpha, F))
        base = base * s_pow[p - m]
        for j in range(n):
            if alpha[j] == 0:
                continue
            factor = Polynomial.one(ring, F)
            for l in range(j):
                for _ in range(alpha[l]):
                    factor = factor * b_vec[l]
            geom = Polynomial.zero(ring, F)
            for u in range(alpha[j]):
                term = Polynomial.one(ring, F)
                for _ in range(u):
                    term = term * a_vec[j]
                for _ in range(alpha[j] - 1 - u):
                    term = term * b_vec[j]
                geom = geom + term
            factor = factor * geom
            for l in range(j + 1, n):
                for _ in range(alpha[l]):
                    factor = factor * a_vec[l]
            C[j] = C[j] + base * factor
    rhs = Polynomial.zero(ring, F)
    for j in range(n):
        rhs = rhs + C[j] * h[j]
    return reduce_mod_mu(D, lhs - rhs).is_zero()


def _w(cert, yprime, G):
    """w = G(y')T, with G(y') by substitution."""
    ring, n = t_ring(cert), len(cert.yvars)
    yprime, G = in_t_ring(cert, yprime, G)
    tpolys = [Polynomial.variable(ring, cert.field, t)
              for t in tvars_of(cert)]
    Gy = [[reduce_mod_mu(cert.D, substitute(e, yprime)) for e in row]
          for row in G]
    return [sum((Gy[j][k] * tpolys[k] for k in range(n)),
                Polynomial.zero(ring, cert.field)) for j in range(n)]


def reference_check_2(cert, yprime, G, pr):
    """(the cofactor identity holds, every h_j = s(Y_j - y'_j) - d w_j)"""
    ring, D, d = t_ring(cert), cert.D, d_of(cert)
    w = _w(cert, yprime, G)
    yprime, G, *fs = in_t_ring(cert, yprime, G, *cert.subset_relations())
    identity = all(
        reference_congruence_holds(fs[i], i, yprime, cert.yvars, d, pr.s,
                                   pr.g, pr.h, w, p_of(cert), D)
        for i in range(len(fs)))
    shape = all(
        h == pr.s * (Polynomial.variable(ring, cert.field, yv)
                     - yprime[yv]) - d * wj
        for h, yv, wj in zip(pr.h, cert.yvars, w))
    return identity, shape


def taylor_g(cert, yprime, G, s, p):
    """g of B''s formula by Taylor's expansion of f at y': the sum over
    alpha of s^(p-|alpha|) d^|alpha| (d^alpha f)(y')/alpha! w^alpha, over
    d^2, which takes partials and factorials; None where d^2 does not
    divide it."""
    d, w = d_of(cert), _w(cert, yprime, G)
    yprime, G, s, *fs = in_t_ring(cert, yprime, G, s,
                                  *cert.subset_relations())
    out = []
    for f in fs:
        total = Polynomial.zero(t_ring(cert), cert.field)
        for alpha, df in _taylor_partials(f, cert.yvars).items():
            term = reduce_mod_mu(cert.D, substitute(df, yprime)).scale(
                _alpha_factorial_inverse(alpha, cert.field))
            for wj, a in zip(w, alpha):
                term = term * (d * wj) ** a
            total = total + term * s ** (p - sum(alpha))
        out.append(over_d2(cert, total))
    return out


HONEST = {"node": desingularize(node_algebra(), node_morphism()),
          "chain-k2": desingularize(*chain_k2())}


def _bump(poly, index, delta):
    """poly with its index-th term's coefficient moved by delta."""
    mono = sorted(poly.terms)[index % len(poly.terms)]
    terms = dict(poly.terms)
    terms[mono] += delta
    return Polynomial(poly.variables, poly.field, terms)


def _changed(cert, section, k, index, delta):
    """y', G and the printed s, h and g of cert, with one coefficient of
    one polynomial of s, y', G, h or g changed."""
    yprime, G = derived(cert)
    pr = printed(cert)
    if section == "s":
        pr = pr._replace(s=_bump(pr.s, index, delta))
    elif section == "yprime":
        yv = cert.yvars[k % len(cert.yvars)]
        yprime = dict(yprime, **{yv: _bump(yprime[yv], index, delta)})
    elif section == "G":
        cells = [(j, l) for j, row in enumerate(G)
                 for l, e in enumerate(row) if not e.is_zero()]
        j, l = cells[k % len(cells)]
        G = [list(row) for row in G]
        G[j][l] = _bump(G[j][l], index, delta)
    else:
        seq = list(getattr(pr, section))
        seq[k % len(seq)] = _bump(seq[k % len(seq)], index, delta)
        pr = pr._replace(**{section: seq})
    return yprime, G, pr


def test_membership_check_direct():
    # version 4's check 2 passes on the node certificate's h and g, which
    # B''s formula gives; a changed h, or a dropped h or g, fails it.  A G
    # that breaks HG = P*Id leaves g no polynomial: d^2 does not divide the
    # expansion, and verify fails checks 1 and 2
    cert = HONEST["node"]
    yprime, G = derived(cert)
    pr = printed(cert)
    assert membership(cert, yprime, G, pr)
    one = Polynomial.one(t_ring(cert), QQ)
    for change in ({"h": [pr.h[0] + one] + pr.h[1:]},
                   {"h": pr.h[:-1]}, {"g": pr.g[:-1]}):
        assert not membership(cert, yprime, G, pr._replace(**change))
    rec = record(cert)
    one = Polynomial.one(cert.ring, QQ)
    bad = dataclasses.replace(rec, G=[[rec.G[0][0] + one] + rec.G[0][1:]]
                              + rec.G[1:])
    assert expand_h_g(cert, yprime, bad.G, rec.s, p_of(cert))[1][0] is None
    report = verify_certificate(dataclasses.replace(cert), node_algebra(),
                                node_morphism(), bad)
    assert [r.passed for r in report[:3]] == [False, False, True]


def test_membership_check_degree_above_p():
    # p is the largest total degree of [relations]: x^6*Y2^3, which keeps
    # f(y') = 0 mod d^3 and M (Y2 is no column of the minor), raises it to
    # 9.  The expansion at the old p = 2
    # meets a term of degree above p; at p = 9, g is a polynomial, the
    # expansion agrees with Taylor's, and verify passes checks 1-3
    cert = HONEST["node"]
    cubic = dataclasses.replace(cert, relations=[
        cert.relations[0] + parse_polynomial("x^6*Y2^3", cert.ring, QQ)]
        + cert.relations[1:])
    assert (p_of(cert), p_of(cubic)) == (2, 9)
    yprime, G = derived(cubic)
    s = record(cubic).s
    assert expand_h_g(cubic, yprime, G, s, 2)[1][0] is None
    g = expand_h_g(cubic, yprime, G, s, 9)[1]
    assert None not in g and g == taylor_g(cubic, yprime, G, s, 9)
    report = verify_certificate(cubic, node_algebra(), node_morphism())
    assert all(r.passed for r in report[:3])


def test_membership_check_honest_certificates():
    # on honest certificates the expansion of B''s formula passes version
    # 4's check 2 and the Taylor cofactor identity
    for cert in HONEST.values():
        yprime, G = derived(cert)
        pr = printed(cert)
        assert membership(cert, yprime, G, pr)
        assert reference_check_2(cert, yprime, G, pr) == (True, True)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(HONEST)),
       st.sampled_from(["s", "yprime", "G", "h", "g"]),
       st.integers(0, 20), st.integers(0, 200),
       st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                        Fraction(1, 2), Fraction(-3, 7)]))
def test_membership_check_agrees_with_cofactor_identity(name, section, k,
                                                        index, delta):
    # the oracle's check 2 (``membership``) against the identity it replaced
    cert = HONEST[name]
    yprime, G, pr = _changed(cert, section, k, index, delta)
    identity, shape = reference_check_2(cert, yprime, G, pr)
    if section in ("s", "h", "g"):
        assert membership(cert, yprime, G, pr) == identity
    else:
        # the identity never reads y' or G where Y_j enters f only
        # linearly (Y3 of chain-k2); the shape test binds them to h
        assert membership(cert, yprime, G, pr) == (identity and shape)


def test_membership_check_bounds_the_power_of_s(monkeypatch):
    # verify takes no power of s: a relation x^200000*Y1 outside the subset
    # makes p = 200001, and all six checks pass without a power past the
    # reader's bound on exponents
    honest = HONEST["node"]
    ring, F = honest.ring, honest.field
    big = (Polynomial.variable(ring, F, "x", 200_000)
           * Polynomial.variable(ring, F, "Y1"))
    first, bordering = honest.relations
    cert = dataclasses.replace(honest, relations=[first, big, bordering],
                               subset=(0, 2))
    assert p_of(cert) == 200_001
    exponents = []
    for cls in (Polynomial, TruncatedSeries):
        real = cls.__pow__
        monkeypatch.setattr(cls, "__pow__", lambda self, e, real=real: (
            exponents.append(e), real(self, e))[1])
    report = verify_certificate(cert, node_algebra(), node_morphism())
    assert all(r.passed for r in report)
    assert max(exponents, default=0) <= 1000


# ---------------------------------------------------------------------------
# B''s formula against the expansion, on the seed 1-3 certify certificates
# of the benchmark and the golden ones

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
CERTIFY = ("node-c1", "node-c2", "node-c3", "chain-k1", "chain-k2",
           "chain-k3", "chain-k4", "chain-k5", "sqrt2-node")
GOLDEN_BORDERED = ("NODE", "CHAIN_K2", "SQRT2_NODE", "CUBIC_NODE")


def _problem_text(name, tmp_path):
    if name in GOLDEN_BORDERED:
        import test_golden
        return getattr(test_golden, name)
    seed, problem = name.split("-", 1)
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
        files = workloads.certify(int(seed[1:]), str(tmp_path)).files
    finally:
        sys.path.remove(PERFBENCH)
    return files[f"{tmp_path}/{problem}.problem"]


def _point_values(cert, rec, hat):
    """h and g of the expansion at (yhat, t), t = H(y')(yhat - y')/d^2
    (``derived_t``), to O(x^(N - 4c)), as version 4's check 4 read them;
    check 4 of B''s formula (check 1, h = 0, and f(yhat) to O(x^N) by
    ``build_h_g``) for the same [hat] images ``hat``; and the point of the
    former and the expansion's g."""
    prec4 = cert.precision - 4 * cert.c
    t = derived_t(cert, rec, hat)
    point = cert.D.point(prec4, dict(hat, **dict(zip(tvars_of(cert), t))))
    h, g = expand_h_g(cert, rec.frame.yprime, rec.G, rec.s, p_of(cert))
    old = [series_eval(q, point).is_zero() for q in h + g]
    values, _ = build_h_g(cert.subset_relations(), cert.D, hat,
                          cert.precision)
    ok1 = matrix_equal(matrix_mul(rec.G, rec.H), matrix_scale(
        identity_matrix(len(h), cert.ring, cert.field), rec.M * cert.witness))
    return old, [ok1] * len(h) + [q.is_zero() for q in values], point, g


@pytest.mark.parametrize("name", [f"s{seed}-{problem}" for seed in (1, 2, 3)
                                  for problem in CERTIFY]
                         + list(GOLDEN_BORDERED))
def test_formula_g_matches_the_expansion(tmp_path, name):
    # three facts on each honest certificate: the expansion's g is the
    # formula's (by Taylor's expansion); at (yhat, t), t derived from
    # [hat], its h vanishes and its g vanishes exactly where check 4 says
    # so, also with the top coefficient of one [hat] image raised; and the
    # order of det(dg/dT) at the point is that of det(J_f(yhat) G(y')[:, :r])
    # less 2cr
    path = tmp_path / "in.problem"
    path.write_text(_problem_text(name, tmp_path))
    out = tmp_path / "cert.txt"
    assert main(["gnd", "--input", str(path), "--output", str(out)]) == 0
    cert = parse_certificate(out.read_text())
    rec, p, c, r = record(cert), p_of(cert), cert.c, len(cert.subset)
    yprime, G = rec.frame.yprime, rec.G
    assert expand_h_g(cert, yprime, G, rec.s, p)[1] == \
        taylor_g(cert, yprime, G, rec.s, p)
    old, new, point, g = _point_values(cert, rec, cert.hat_images)
    assert old == new == [True] * len(new)
    x = cert.base_var
    for yv, s in cert.hat_images.items():
        top = TruncatedSeries((x,), s.field,
                              {(s.precision - 1,): s.field.one()}, s.precision)
        assert s.precision > 6 * c          # the top coefficient is not y''s
        old, new, _, _ = _point_values(cert, rec,
                                       dict(cert.hat_images, **{yv: s + top}))
        assert old == new and False in new
    prec4 = cert.precision - 4 * c
    dg = [[series_eval(q.derivative(tv), point)
           for tv in tvars_of(cert)[:r]]
          for q in g]
    at_hat = cert.D.point(prec4, cert.hat_images)
    jac = [[series_eval(e.restrict(rec.frame.variables), at_hat)
            for e in row] for row in rec.H[:r]]
    Gy = [[rec.frame.series(e, prec4) for e in row[:r]] for row in rec.G]
    zero = TruncatedSeries.zero((x,), cert.series_field, prec4)
    JG = [[sum((a * b[m] for a, b in zip(row, Gy)), zero) for m in range(r)]
          for row in jac]
    assert matrix_det(dg).order() == matrix_det(JG).order() - 2 * c * r == 0


def test_desingularize_one_quotient_per_subset(monkeypatch):
    import desing.smooth as smooth

    calls = []
    real = smooth.ideal_quotient
    monkeypatch.setattr(smooth, "ideal_quotient",
                        lambda *a: calls.append(a) or real(*a))
    cert = desingularize(*chain_k2())
    assert cert.all_passed(), "\n".join(cert.report_lines())
    assert 0 < len(calls) <= 3


def test_gnd_takes_the_hat_markers_once(monkeypatch):
    # the [hat] markers read J_f(y'): derive_frame takes them once and holds
    # them on the FrameRecord, which assemble_certificate and the gnd-path
    # verify_certificate both read; a standalone verify takes its own
    from desing.iofmt import emit_certificate

    calls = []
    real = check.hat_precisions
    monkeypatch.setattr(check, "hat_precisions",
                        lambda *a: calls.append(a) or real(*a))
    for problem in (chain_k2(), (node_algebra(), node_morphism())):
        del calls[:]
        cert = desingularize(*problem)
        assert cert.all_passed() and len(calls) == 1
        parsed = parse_certificate(emit_certificate(cert))
        assert all(r.passed for r in verify_certificate(parsed, *problem))
        assert len(calls) == 2


def sqrt2_node():
    """Y1*Y2 - 2x^2 at Y1 = r x (1 + x), Y2 = r x / (1 + x) over Q(r),
    r^2 = 2: its series point packs, with alpha = r a second packed
    variable."""
    K = SimpleExtension(QQ, (-2, 0, 1), gen="r")
    ring = ("x", "Y1", "Y2")
    B = AlgebraPresentation(
        base_var="x", variables=ring[1:], field=QQ,
        relations=[parse_polynomial("Y1*Y2 - 2*x^2", ring, QQ)])
    u = TruncatedSeries(("x",), K, {(0,): K.one(), (1,): K.one()}, 14)
    rx = TruncatedSeries(("x",), K, {(1,): K.generator()}, 14)
    return B, CompletionMorphism(base_var="x", field=K,
                                 images={"Y1": rx * u, "Y2": rx * u.invert()})


def test_verify_computes_each_power_of_its_point_once(monkeypatch):
    # every (variable, exponent) power of a point of checks 4-6 (Y* for g
    # and M, yhat for B's relations) is built once for each precision,
    # however many polynomials use it, over Q(sqrt 2) as over Q
    for problem, cert in ((sqrt2_node(), desingularize(*sqrt2_node())),
                          (chain_k2(), HONEST["chain-k2"])):
        built = []
        real = series._PackedPowers._build

        def counted(self, key):
            built.append((id(self), key))
            return real(self, key)

        monkeypatch.setattr(series._PackedPowers, "_build", counted)
        report = verify_certificate(cert, *problem)
        monkeypatch.undo()
        assert all(r.passed for r in report)
        assert built and len(built) == len(set(built))


def test_verify_on_q_takes_the_packed_path(monkeypatch):
    # every point packs: verify takes no TruncatedSeries power, over
    # Q(sqrt 2) as over Q.  At y' a power past alpha-degree 2d - 2 = 2 is
    # an image of its own, reduced by mu: Z^3 at y'_Z = r/2 + r/2*x (which
    # version 6 met in G(y'), a value verify no longer takes)
    calls, inside = [], [False]
    real_pow, real_series = TruncatedSeries.__pow__, FramePoint.series

    def power(self, e):
        calls.append((inside[0], e))
        return real_pow(self, e)

    def at_yprime(self, *args):
        inside[0] = True
        try:
            return real_series(self, *args)
        finally:
            inside[0] = False

    sqrt2 = desingularize(*sqrt2_node())
    monkeypatch.setattr(TruncatedSeries, "__pow__", power)
    monkeypatch.setattr(FramePoint, "series", at_yprime)
    for cert, problem in ((HONEST["chain-k2"], chain_k2()),
                          (sqrt2, sqrt2_node())):
        del calls[:]
        report = verify_certificate(cert, *problem)
        assert all(r.passed for r in report)
        assert calls == []
    frame = record(sqrt2).frame
    assert frame.yprime["Z"] == parse_polynomial("1/2*U + 1/2*U*x",
                                                 sqrt2.ring, QQ)
    frame(Polynomial.variable(sqrt2.ring, QQ, "Z") ** 3)
    assert calls == [(True, 3)]
