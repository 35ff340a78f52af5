import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from desing import gnd, series
from desing.errors import ConsistencyError, DomainError, ResourceError
from desing.fields import QQ, PrimeField, SimpleExtension
from desing.gnd import (FramePoint, _check_membership, border_step,
                        build_H_G, build_h_g, desingularize, make_D,
                        truncate_lift, verify_certificate)
from desing.poly import Polynomial, parse_polynomial
from desing.series import CompletionMorphism, TruncatedSeries, parse_series
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
    assert step.frp1 == parse_polynomial("-x + Y2*Z", ring1, QQ)
    assert step.d == parse_polynomial("x^2", ring1, QQ)
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
    D = make_D(v, ("x", "Y1"))
    out = truncate_lift(v, 1, D, ("Y1",), ("x", "Y1"))
    assert out["Y1"] == parse_polynomial("1 + x^5", ("x", "Y1"), QQ)


def test_build_H_G_identity():
    ring = ("x", "Y1", "Y2")
    fs = [parse_polynomial("Y1*Y2 - x^2", ring, QQ)]
    one = Polynomial.one(ring, QQ)
    H, G = build_H_G(fs, ("Y1", "Y2"), one,
                     parse_polynomial("Y2", ring, QQ))
    assert H == [[parse_polynomial("Y2", ring, QQ),
                  parse_polynomial("Y1", ring, QQ)],
                 [Polynomial.zero(ring, QQ), one]]
    with pytest.raises(ConsistencyError):
        build_H_G(fs, ("Y1", "Y2"), one, parse_polynomial("Y1", ring, QQ))


def test_build_h_g_linear_relation():
    # smooth-style frame: c = 0, d = s = 1, so h = (Y1 - x) - T1, g = T1
    ring = ("x", "Y1", "T1")
    f = parse_polynomial("Y1 - x", ring, QQ)
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series("x + O(x^12)", ("x",), QQ)})
    D = make_D(v, ring)
    one = Polynomial.one(ring, QQ)
    frame = FramePoint(D, {"Y1": parse_polynomial("x", ring, QQ)})
    h, g, Q = build_h_g([f], frame, ("Y1",), ("T1",), one, one,
                        [Polynomial.zero(ring, QQ)], [[one]], 1, D)
    assert h == [parse_polynomial("Y1 - x - T1", ring, QQ)]
    assert g == [parse_polynomial("T1", ring, QQ)]
    assert Q == [Polynomial.zero(ring, QQ)]


def test_build_h_g_takes_no_partials(monkeypatch):
    # g is s^p f with s*Y replaced by s*y' + d*w, divided by d^2; a Taylor
    # expansion of this one-term relation would take 4^4 - 1 partials
    ring = ("x", "Y1", "Y2", "Y3", "Y4")
    B = AlgebraPresentation(base_var="x", variables=ring[1:], field=QQ,
                            relations=[parse_polynomial(
                                "Y1^3*Y2^3*Y3^3*Y4^3 - x^12", ring, QQ)])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={y: parse_series("x + O(x^120)", ("x",), QQ)
                for y in ring[1:]})
    calls, inside = [0], [False]
    real_derivative, real_build = Polynomial.derivative, gnd.build_h_g

    def derivative(self, var):
        calls[0] += inside[0]
        return real_derivative(self, var)

    def build(*args):
        inside[0] = True
        try:
            return real_build(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(Polynomial, "derivative", derivative)
    monkeypatch.setattr(gnd, "build_h_g", build)
    cert = desingularize(B, v)
    assert calls == [0]
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
    assert cert.c == 1 and cert.p == 2
    assert cert.permutation == (0, 2, 1)
    assert cert.yvars == ("Y1", "Z", "Y2")
    ring = cert.ring
    assert ring == ("x", "Y1", "Z", "Y2", "T1", "T2", "T3")
    assert cert.s == parse_polynomial("1 + 2*x^5 + x^10", ring, QQ)
    assert cert.b == [parse_polynomial("x^3", ring, QQ),
                      parse_polynomial("x^2", ring, QQ)]
    expect_H = [["Y2", "0", "Y1"], ["0", "Y2", "Z"], ["0", "0", "1"]]
    assert cert.H == [[parse_polynomial(e, ring, QQ) for e in row]
                      for row in expect_H]
    # t = H(y')(yhat - y') / d^2
    t1, t2, t3 = (cert.t[tv] for tv in cert.tvars)
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
    B = node_algebra()
    v = node_morphism()
    cert = desingularize(B, v)
    cert.g[0] = cert.g[0] + Polynomial.one(cert.ring, QQ)
    report = verify_certificate(cert, B, v)
    failed = {r.name for r in report if not r.passed}
    assert "s^p f = d^2 g mod (h)" in failed


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
    assert cert.data.subset == (0, 1, 2, 3, 4, 5)
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
    assert cert.wvar is not None


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


def check_2(cert):
    """Check 2 at the point Y -> y' that verify shares with check 3."""
    return _check_membership(cert, FramePoint(cert.D, cert.yprime))


def test_membership_check_direct():
    # the node certificate passes check 2; breaking the shape of one h, or
    # dropping an h or a g, fails it
    cert = desingularize(node_algebra(), node_morphism())
    assert check_2(cert)
    one = Polynomial.one(cert.ring, QQ)
    for change in ({"h": [cert.h[0] + one] + cert.h[1:]},
                   {"h": cert.h[:-1]}, {"g": cert.g[:-1]}):
        assert not check_2(dataclasses.replace(cert, **change))


def test_membership_check_degree_above_p():
    cert = desingularize(node_algebra(), node_morphism())
    assert cert.p == 2
    ring = cert.ring
    cubic = parse_polynomial("Y1^3", ring, QQ)
    relations = [cert.relations[0] + cubic] + cert.relations[1:]
    assert not check_2(dataclasses.replace(cert,
                                                     relations=relations))


# ---------------------------------------------------------------------------
# check 2 against the Taylor-telescoping cofactor identity it replaced

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


def reference_congruence_holds(f, i, yassign, yvars, d, s, b, g, h, w, p, D):
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
        base = D.reduce(substitute(df, yassign))
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
    return D.reduce(lhs - rhs).is_zero()


def reference_check_2(cert):
    """(the cofactor identity holds, every h_j = s(Y_j - y'_j) - d w_j)"""
    ring, D, n = cert.ring, cert.D, len(cert.yvars)
    tpolys = [Polynomial.variable(ring, cert.field, t) for t in cert.tvars]
    Gy = [[D.reduce(substitute(e, cert.yprime)) for e in row]
          for row in cert.G]
    w = []
    for j in range(n):
        acc = Polynomial.zero(ring, cert.field)
        for k in range(n):
            acc = acc + Gy[j][k] * tpolys[k]
        w.append(acc)
    fs = cert.subset_relations()
    identity = all(
        reference_congruence_holds(fs[i], i, cert.yprime, cert.yvars, cert.d,
                                   cert.s, cert.b, cert.g, cert.h, w, cert.p,
                                   D)
        for i in range(len(fs)))
    shape = all(
        h == cert.s * (Polynomial.variable(ring, cert.field, yv)
                       - cert.yprime[yv]) - cert.d * wj
        for h, yv, wj in zip(cert.h, cert.yvars, w))
    return identity, shape


HONEST = {"node": desingularize(node_algebra(), node_morphism()),
          "chain-k2": desingularize(*chain_k2())}


def _bump(poly, index, delta):
    """poly with its index-th term's coefficient moved by delta."""
    mono = sorted(poly.terms)[index % len(poly.terms)]
    terms = dict(poly.terms)
    terms[mono] += delta
    return Polynomial(poly.variables, poly.field, terms)


def _changed(cert, section, k, index, delta):
    """cert with one coefficient of one polynomial of a section changed."""
    if section == "s":
        return dataclasses.replace(cert, s=_bump(cert.s, index, delta))
    if section == "yprime":
        yv = cert.yvars[k % len(cert.yvars)]
        yprime = dict(cert.yprime, **{yv: _bump(cert.yprime[yv], index,
                                                delta)})
        return dataclasses.replace(cert, yprime=yprime)
    if section == "G":
        cells = [(j, l) for j, row in enumerate(cert.G)
                 for l, e in enumerate(row) if not e.is_zero()]
        j, l = cells[k % len(cells)]
        G = [list(row) for row in cert.G]
        G[j][l] = _bump(G[j][l], index, delta)
        return dataclasses.replace(cert, G=G)
    seq = list(getattr(cert, section))
    seq[k % len(seq)] = _bump(seq[k % len(seq)], index, delta)
    return dataclasses.replace(cert, **{section: seq})


def test_membership_check_honest_certificates():
    for cert in HONEST.values():
        assert check_2(cert)
        assert reference_check_2(cert) == (True, True)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(HONEST)),
       st.sampled_from(["s", "yprime", "G", "h", "g"]),
       st.integers(0, 20), st.integers(0, 200),
       st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                        Fraction(1, 2), Fraction(-3, 7)]))
def test_membership_check_agrees_with_cofactor_identity(name, section, k,
                                                        index, delta):
    cert = _changed(HONEST[name], section, k, index, delta)
    identity, shape = reference_check_2(cert)
    if section in ("s", "h", "g"):
        assert check_2(cert) == identity
    else:
        # the identity never reads y' or G where Y_j enters f only
        # linearly (Y3 of chain-k2); the shape test binds them to h
        assert check_2(cert) == (identity and shape)


def test_membership_check_bounds_the_power_of_s():
    # check 2 takes s^p only within the reader's power budget
    cert = dataclasses.replace(HONEST["node"], p=200_001)
    with pytest.raises(ResourceError, match="s\\^p with exponent 200001"):
        check_2(cert)


def test_desingularize_one_quotient_per_subset(monkeypatch):
    import desing.smooth as smooth

    calls = []
    real = smooth.ideal_quotient
    monkeypatch.setattr(smooth, "ideal_quotient",
                        lambda *a: calls.append(a) or real(*a))
    cert = desingularize(*chain_k2())
    assert cert.all_passed(), "\n".join(cert.report_lines())
    assert 0 < len(calls) <= 3


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
    # checks 4-6 share one point: every (variable, exponent) power of it is
    # built once for each precision, however many of h, g, dg/dT and B's
    # relations use it, over Q(sqrt 2) as over Q
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
    # every point packs: checks 4-6 take no TruncatedSeries power, and the
    # y' point takes one only over Q(sqrt 2), for a power past
    # alpha-degree 2d - 2 = 2, an image of its own reduced by mu (Z^3 in
    # [G], at y'_Z = r/2 + r/2*x)
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
    for cert, problem, want in ((HONEST["chain-k2"], chain_k2(), []),
                                (sqrt2, sqrt2_node(), [(True, 3)])):
        del calls[:]
        report = verify_certificate(cert, *problem)
        assert all(r.passed for r in report)
        assert calls == want
