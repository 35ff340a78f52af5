from fractions import Fraction

import pytest

from desing.approx import (LiftRequest, LinearFactorization, ModuleIsoSystem,
                           SeriesPoly, check_candidate, linear_factor,
                           module_iso_system, newton_lift, solve_linear,
                           strong_approx_check)
from desing.errors import DomainError, ResourceError
from desing.fields import QQ
from desing.poly import Polynomial, parse_polynomial
from desing.series import TruncatedSeries, parse_series, series_eval
from desing.smooth import matrix_det

BASE = ("x",)


def sser(text, precision=None):
    s = parse_series(text, BASE, QQ)
    return s if precision is None else s.truncate(precision)


def xpoly(text, variables=BASE):
    return parse_polynomial(text, variables, QQ)


# ---------------------------------------------------------------------------
# exact linear solving

def test_solve_linear_unique():
    rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1)]]
    sol = solve_linear(rows, [Fraction(5), Fraction(1)], QQ)
    assert sol == [Fraction(2), Fraction(1)]


def test_solve_linear_inconsistent():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve_linear(rows, [Fraction(1), Fraction(3)], QQ) is None


def test_solve_linear_free_unknowns_zero():
    rows = [[Fraction(1), Fraction(1), Fraction(0)]]
    sol = solve_linear(rows, [Fraction(7)], QQ)
    assert sol == [Fraction(7), Fraction(0), Fraction(0)]


# ---------------------------------------------------------------------------
# Newton lifting

def sqrt_request(target):
    f = parse_polynomial("Y^2 - 1 - x", ("x", "Y"), QQ)
    y0 = TruncatedSeries.one(BASE, QQ, 4)
    return LiftRequest(system=[f], base_var="x", yvars=("Y",),
                       y0={"Y": y0}, c=0, target=target)


def test_newton_sqrt_series():
    res = newton_lift(sqrt_request(256))
    y = res.values["Y"]
    assert y.precision == 256
    expect = [Fraction(1), Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16),
              Fraction(-5, 128)]
    for k, coeff in enumerate(expect):
        assert y.coefficient((k,)) == coeff
    assert res.iterations <= 9
    # really a square root to precision
    xs = TruncatedSeries.variable(BASE, QQ, "x", 256)
    one = TruncatedSeries.one(BASE, QQ, 256)
    assert (y * y - one - xs).is_zero()


def test_newton_trace_quadratic():
    res = newton_lift(sqrt_request(128))
    prev = None
    for o in res.trace:
        if prev is not None and o is not None:
            assert o >= min(128, 2 * prev)
        prev = o


def test_newton_stability_across_targets():
    a = newton_lift(sqrt_request(64)).values["Y"]
    b = newton_lift(sqrt_request(32)).values["Y"]
    assert a.truncate(32) == b


def test_newton_exact_start():
    f = parse_polynomial("Y - x", ("x", "Y"), QQ)
    y0 = TruncatedSeries.variable(BASE, QQ, "x", 16)
    res = newton_lift(LiftRequest(system=[f], base_var="x", yvars=("Y",),
                                  y0={"Y": y0}, c=0, target=16))
    assert res.iterations == 0
    assert res.values["Y"] == y0


def test_newton_positive_c():
    f = parse_polynomial("Y1*Y2 - x^2", ("x", "Y1", "Y2"), QQ)
    y0 = {"Y1": sser("x + x^2 + O(x^4)"),
          "Y2": sser("x - x^2 + O(x^4)")}
    res = newton_lift(LiftRequest(system=[f], base_var="x",
                                  yvars=("Y1", "Y2"), y0=y0, c=1, target=12))
    y1, y2 = res.values["Y1"], res.values["Y2"]
    # the non-pivot coordinate is frozen; the pivot converges to x/(1 - x)
    assert all(y2.coefficient((k,)) == {1: 1, 2: -1}.get(k, 0)
               for k in range(12))
    assert all(y1.coefficient((k,)) == 1 for k in range(1, 12))
    assert y1.coefficient((0,)) == 0
    val = series_eval(f, {"x": TruncatedSeries.variable(BASE, QQ, "x", 12),
                          "Y1": y1, "Y2": y2})
    assert val.is_zero()


def test_newton_zero_relation():
    # the zero relation is dropped, so the witness subset index shifts
    ring = ("x", "Y1", "Y2")
    f = parse_polynomial("Y1*Y2 - x^2", ring, QQ)
    y0 = {"Y1": sser("x + x^2 + O(x^4)"),
          "Y2": sser("x - x^2 + O(x^4)")}
    plain = newton_lift(LiftRequest(system=[f], base_var="x",
                                    yvars=("Y1", "Y2"), y0=y0, c=1,
                                    target=12))
    padded = newton_lift(LiftRequest(
        system=[Polynomial.zero(ring, QQ), f], base_var="x",
        yvars=("Y1", "Y2"), y0=y0, c=1, target=12))
    assert padded.values == plain.values
    assert padded.trace == plain.trace


def test_newton_rejects_bad_start():
    f = parse_polynomial("Y1*Y2 - x^2", ("x", "Y1", "Y2"), QQ)
    y0 = {"Y1": sser("x + O(x^4)"), "Y2": sser("x + x^2 + O(x^4)")}
    # residue order 3 is fine for c = 1 but not for c = 2
    newton_lift(LiftRequest(system=[f], base_var="x", yvars=("Y1", "Y2"),
                            y0=y0, c=1, target=8))
    with pytest.raises(DomainError):
        newton_lift(LiftRequest(system=[f], base_var="x",
                                yvars=("Y1", "Y2"), y0=y0, c=2, target=8))


def test_newton_witness_order_above_c():
    # both minors Y2 and Y1 have order 1 at (x, x), above c = 0
    f = parse_polynomial("Y1*Y2 - x^2", ("x", "Y1", "Y2"), QQ)
    y0 = {"Y1": sser("x + O(x^4)"), "Y2": sser("x + O(x^4)")}
    with pytest.raises(DomainError, match="no witness"):
        newton_lift(LiftRequest(system=[f], base_var="x",
                                yvars=("Y1", "Y2"), y0=y0, c=0, target=8))


def test_newton_subset_budget():
    f = parse_polynomial("Y^2 - 1 - x", ("x", "Y"), QQ)
    y0 = {"Y": sser("1 + O(x)")}
    with pytest.raises(ResourceError, match="subset budget"):
        newton_lift(LiftRequest(system=[f], base_var="x", yvars=("Y",),
                                y0=y0, c=0, target=8, subset_budget=0))
    res = newton_lift(LiftRequest(system=[f], base_var="x", yvars=("Y",),
                                  y0=y0, c=0, target=8, subset_budget=1))
    assert res.values["Y"].order() == 0


def test_strong_approx_check():
    f = parse_polynomial("Y^2 - 1 - x", ("x", "Y"), QQ)
    xs = TruncatedSeries.variable(BASE, QQ, "x", 8)
    good = {"x": xs, "Y": sser("1 + 1/2*x + O(x^8)")}
    assert strong_approx_check([f], good, 2)
    assert not strong_approx_check([f], good, 3)
    assert strong_approx_check([f], {"x": xs, "Y": sser("1 + O(x^8)")}, 1)


# ---------------------------------------------------------------------------
# linear factorization

def geometric_series(precision, start=0):
    return TruncatedSeries(BASE, QQ,
                           {(k,): Fraction((-1) ** (k - start))
                            for k in range(start, precision)}, precision)


def reconstruct(lf, j):
    acc = TruncatedSeries.from_polynomial(lf.particular[j], lf.precision)
    for z, gen in zip(lf.z, lf.kernel):
        acc = acc + z * TruncatedSeries.from_polynomial(
            gen[j].restrict(BASE) if gen[j].variables != BASE else gen[j],
            lf.precision)
    return acc


def test_linear_factor_two_columns():
    a = [[xpoly("x"), xpoly("x^2")]]
    b = [xpoly("x")]
    # x*y1 + x^2*y2 = x with y1 = y2 = 1/(1+x)
    inv = geometric_series(12)
    yprime = [inv, inv]
    lf = linear_factor(a, b, yprime, "x")
    assert len(lf.kernel) == 1
    # kernel generator proportional to (x, -1)
    g = lf.kernel[0]
    assert (g[0] * xpoly("1", g[0].variables)
            == -g[1] * xpoly("x", g[1].variables))
    for j in range(2):
        assert reconstruct(lf, j) == yprime[j]


def test_linear_factor_zero_rhs():
    a = [[xpoly("x"), xpoly("x^2")]]
    b = [Polynomial.zero(BASE, QQ)]
    yprime = [TruncatedSeries(BASE, QQ, {(1,): 1}, 10),
              TruncatedSeries(BASE, QQ, {(0,): -1}, 10)]
    lf = linear_factor(a, b, yprime, "x")
    assert all(p.is_zero() for p in lf.particular)
    for j in range(2):
        assert reconstruct(lf, j) == yprime[j]


def test_linear_factor_wide_system():
    a = [[xpoly("1"), xpoly("x"), xpoly("0")],
         [xpoly("0"), xpoly("1"), xpoly("x")]]
    y3 = geometric_series(10)
    xs = TruncatedSeries.variable(BASE, QQ, "x", 10)
    y2 = TruncatedSeries.one(BASE, QQ, 10) - xs * y3
    y1 = TruncatedSeries.from_polynomial(xpoly("1 + x"), 10) - xs * y2
    b = [xpoly("1 + x"), xpoly("1")]
    lf = linear_factor(a, b, [y1, y2, y3], "x")
    for j in range(3):
        assert reconstruct(lf, j) == [y1, y2, y3][j]


def test_linear_factor_inconsistent_point():
    a = [[xpoly("x")]]
    b = [xpoly("x^2")]
    with pytest.raises(DomainError):
        linear_factor(a, b, [TruncatedSeries.one(BASE, QQ, 8)], "x")


def test_linear_factor_no_polynomial_particular():
    a = [[xpoly("x + x^2")]]
    b = [xpoly("x")]
    yprime = [geometric_series(12)]       # 1/(1+x)
    with pytest.raises(DomainError):
        linear_factor(a, b, yprime, "x")


# ---------------------------------------------------------------------------
# module isomorphism systems

def ser_matrix(rows, precision=8):
    return [[TruncatedSeries.from_polynomial(xpoly(e), precision)
             for e in row] for row in rows]


def test_matrix_det_series_poly():
    names = ("A", "B", "C", "D")
    xs = TruncatedSeries.variable(BASE, QQ, "x", 8)
    one = TruncatedSeries.one(BASE, QQ, 8)

    def var(name):
        return SeriesPoly.unknown(names, BASE, QQ, 8, name)

    M = [[var("A") * SeriesPoly.constant(names, xs), var("B")],
         [var("C"), var("D")]]
    det = matrix_det(M)
    assert det.terms == {(1, 0, 0, 1): xs, (0, 1, 1, 0): -one}
    assert SeriesPoly.constant(names, one - one).is_zero()


def test_module_iso_identity_accepted():
    u = ser_matrix([["x"]])
    sys = module_iso_system(u, ser_matrix([["x"]]))
    assert sys.unknowns == ("X1_1", "Y1_1", "Z1_1", "W")
    one = TruncatedSeries.one(BASE, QQ, 8)
    cand = {name: one for name in sys.unknowns}
    assert check_candidate(sys, cand, 8)


def test_module_iso_bad_candidate_rejected():
    sys = module_iso_system(ser_matrix([["x"]]), ser_matrix([["x"]]))
    one = TruncatedSeries.one(BASE, QQ, 8)
    xs = TruncatedSeries.variable(BASE, QQ, "x", 8)
    cand = {"X1_1": one + xs, "Y1_1": one, "Z1_1": one, "W": one}
    assert not check_candidate(sys, cand, 8)
    # non-unit X fails the determinant condition
    cand = {"X1_1": xs, "Y1_1": xs, "Z1_1": one, "W": one}
    assert not check_candidate(sys, cand, 8)


def test_module_iso_distinct_cokernels():
    sys = module_iso_system(ser_matrix([["x"]]), ser_matrix([["x^2"]]))
    one = TruncatedSeries.one(BASE, QQ, 8)
    xs = TruncatedSeries.variable(BASE, QQ, "x", 8)
    cand = {"X1_1": one, "Y1_1": one, "Z1_1": xs, "W": one}
    assert not check_candidate(sys, cand, 8)


def test_module_iso_block_identity():
    u = ser_matrix([["x", "0"], ["0", "x"]])
    sys = module_iso_system(u, ser_matrix([["x", "0"], ["0", "x"]]))
    assert len(sys.unknowns) == 13
    assert len(sys.equations) == 4 + 4 + 1
    one = TruncatedSeries.one(BASE, QQ, 8)
    zero = TruncatedSeries.zero(BASE, QQ, 8)
    cand = {}
    for name in sys.unknowns:
        if name == "W":
            cand[name] = one
        else:
            i, j = name[1:].split("_")
            cand[name] = one if i == j else zero
    assert check_candidate(sys, cand, 8)


def test_module_iso_shape_validation():
    import desing.errors as errors

    with pytest.raises(errors.StructuralError):
        module_iso_system(ser_matrix([["x", "0"]]), ser_matrix([["x"]]))
