from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from desing.approx import (MAX_NEWTON_ITERATIONS, LiftRequest,
                           LinearFactorization, ModuleIsoSystem,
                           check_candidate, linear_factor, module_iso_system,
                           newton_lift, solve_linear)
from desing.errors import DomainError, ResourceError
from desing.fields import QQ, PrimeField
from desing.groebner import kernel_basis
from desing.poly import Polynomial, parse_polynomial
from desing.series import (TruncatedSeries, parse_series, series_eval,
                           series_point)
from desing.smooth import (AlgebraPresentation, best_witness,
                           bordered_jacobian, columns_first, matrix_det,
                           matrix_mul)

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


def _dense_solve(rows, rhs, F):
    """Gauss-Jordan that updates every column of a row: the reference for
    the sparse row updates of solve_linear."""
    m, n = len(rows), len(rows[0])
    A = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots, row = [], 0
    for col in range(n):
        sel = next((i for i in range(row, m) if not F.is_zero(A[i][col])),
                   None)
        if sel is None:
            continue
        A[row], A[sel] = A[sel], A[row]
        inv = F.invert(A[row][col])
        A[row] = [F.mul(inv, x) for x in A[row]]
        for i in range(m):
            if i != row and not F.is_zero(A[i][col]):
                factor = A[i][col]
                A[i] = [F.sub(x, F.mul(factor, y))
                        for x, y in zip(A[i], A[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    if any(not F.is_zero(A[i][n]) for i in range(row, m)):
        return None
    x = [F.zero()] * n
    for r, col in enumerate(pivots):
        x[col] = A[r][n]
    return x


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((QQ, PrimeField(7))), st.integers(1, 5),
       st.integers(1, 5), st.data())
def test_solve_linear_matches_dense_elimination(F, m, n, data):
    # mostly zero entries, so the sparse updates skip columns
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, 3)).map(F.from_int)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=m, max_size=m))
    rhs = data.draw(st.lists(entry, min_size=m, max_size=m))
    got, want = solve_linear(rows, rhs, F), _dense_solve(rows, rhs, F)
    assert got == want
    if want is not None:
        assert [type(v) for v in got] == [type(v) for v in want]


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


@pytest.mark.parametrize("target", [20, 24])
def test_newton_positive_c_target_between_doublings(target):
    # the correction is computed no finer than the iterate is known; asking
    # for more stopped these targets with "cannot raise precision"
    f = parse_polynomial("Y^2 - (x^2 + 2*x^3 - 2*x^4)", ("x", "Y"), QQ)
    res = newton_lift(LiftRequest(system=[f], base_var="x", yvars=("Y",),
                                  y0={"Y": sser("x + x^2 + O(x^3)")}, c=1,
                                  target=target))
    y = res.values["Y"]
    assert y.precision == target
    xs = TruncatedSeries.variable(BASE, QQ, "x", target)
    assert series_eval(f, {"x": xs, "Y": y}).is_zero()


def _plain_square(y, F, cut):
    """The coefficients of y^2 below x^cut by the schoolbook convolution."""
    dense = [y.coefficient((k,)) for k in range(cut)]
    out = [F.zero()] * cut
    for i in range(cut):
        for j in range(cut - i):
            out[i + j] = F.add(out[i + j], F.mul(dense[i], dense[j]))
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                         ids=["Q", "GF32003"])
@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_newton_lift_squares_to_target(field, c):
    # Y^2 - x^(2c)*u from the start x^c: every correction divides by
    # P(Y) = 2Y of order c, and the lifted Y squares to x^(2c)*u below each
    # target, targets chosen between the doublings of the residue order
    u = {0: 1, 1: 1, 2: -2, 5: 3, 7: -1}
    f = parse_polynomial(f"Y^2 - x^{2 * c}*(1 + x - 2*x^2 + 3*x^5 - x^7)",
                         ("x", "Y"), field)
    y0 = TruncatedSeries(BASE, field, {(c,): 1}, c + 1)
    for target in (2 * c + 3, 23, 45, 100):
        res = newton_lift(LiftRequest(system=[f], base_var="x",
                                      yvars=("Y",), y0={"Y": y0}, c=c,
                                      target=target))
        y = res.values["Y"]
        assert y.precision == target
        want = [field.from_int(u.get(k - 2 * c, 0)) for k in range(target)]
        assert _plain_square(y, field, target) == want


def _reference_lift(req):
    """The Newton loop with each correction divided from scratch: every
    ``divide_exact`` inverts P(y) from its constant term.  Validation and
    the errors of ``newton_lift`` are left out."""
    work = req.target + req.c * (req.target.bit_length() + 8)
    base = (req.base_var,)
    F = next(iter(req.y0.values())).field
    xs = TruncatedSeries.variable(base, F, req.base_var, work)
    current = {yv: TruncatedSeries(base, F, dict(req.y0[yv].terms), work)
               for yv in req.yvars}
    B = AlgebraPresentation(base_var=req.base_var, variables=req.yvars,
                            field=F, relations=list(req.system))
    at_y = series_point({req.base_var: xs, **current})
    _, subset, cols, minor, witness, _ = best_witness(
        B, lambda p: series_eval(p, at_y), req.subset_budget)
    fs = [B.relations[i] for i in subset]
    r, n = len(fs), len(req.yvars)
    pvars = tuple(req.yvars[j] for j in columns_first(cols, n))
    _, G, _ = bordered_jacobian(fs, pvars, witness)
    P = minor * witness
    trace = []
    for it in range(MAX_NEWTON_ITERATIONS):
        at_y = series_point({req.base_var: xs, **current})
        residues = [series_eval(f, at_y) for f in B.relations]
        finite = [o for o in (s.order() for s in residues) if o is not None]
        cur_ord = min(finite) if finite else None
        trace.append(cur_ord)
        if cur_ord is None or cur_ord >= req.target:
            return ({yv: current[yv].truncate(req.target)
                     for yv in req.yvars}, trace, it)
        dp = min([2 * cur_ord + 1]
                 + [s.precision for s in at_y.images.values()])
        at_dp = series_point({name: image.truncate(dp)
                              for name, image in at_y.images.items()})
        Pval = series_eval(P, at_dp)
        pad = [residues[i].truncate(dp) for i in subset] + \
            [TruncatedSeries.zero(base, F, dp) for _ in range(n - r)]
        for j, yv in enumerate(pvars):
            num = TruncatedSeries.zero(base, F, dp)
            for i in range(n):
                num = num + series_eval(G[j][i], at_dp) * pad[i]
            if num.is_zero():
                continue
            delta = num.divide_exact(Pval)
            current[yv] = current[yv] - TruncatedSeries(
                base, F, delta.terms, work - (dp - delta.precision))
    raise AssertionError("no convergence")


def _lift_case(field, relations, c):
    """One relation Y^2 - x^(2c)*u from Y = x^c, where P(y) = 2Y has order
    c; or that relation in Y1 and Y2^2 - Y1 - v from Y2 = 1, where
    P(y) = 4*Y1*Y2 has order c and both variables are corrected."""
    u = "(1 + x - 2*x^2 + 3*x^5 - x^7)"
    if relations == 1:
        ring, texts, start = ("x", "Y"), [f"Y^2 - x^{2 * c}*{u}"], {
            "Y": {(c,): 1}}
    else:
        v = f"(1 - x^{c} + x^{2 * c + 1})" if c else "(x - x^2)"
        ring = ("x", "Y1", "Y2")
        texts = [f"Y1^2 - x^{2 * c}*{u}", f"Y2^2 - Y1 - {v}"]
        start = {"Y1": {(c,): 1}, "Y2": {(0,): 1}}
    system = [parse_polynomial(t, ring, field) for t in texts]
    y0 = {yv: TruncatedSeries(BASE, field, terms, c + 1)
          for yv, terms in start.items()}
    return system, ring[1:], y0


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)],
                         ids=["Q", "GF32003"])
@pytest.mark.parametrize("relations", [1, 2])
@pytest.mark.parametrize("c", [0, 1, 2])
def test_carried_inverse_matches_division_from_scratch(field, relations, c,
                                                      monkeypatch):
    # the inverse of P(y) carried from step to step gives every quotient,
    # the values, the trace and the iteration count of dividing from
    # scratch
    real, carried = TruncatedSeries.divide_exact, []

    def checked(self, other, inverse=None):
        q = real(self, other, inverse)
        assert q == real(self, other)
        carried.append(inverse is not None)
        return q

    monkeypatch.setattr(TruncatedSeries, "divide_exact", checked)
    system, yvars, y0 = _lift_case(field, relations, c)
    for target in (2 * c + 3, 23, 64, 100):
        req = LiftRequest(system=system, base_var="x", yvars=yvars, y0=y0,
                          c=c, target=target)
        del carried[:]
        res = newton_lift(req)
        assert all(carried)
        values, trace, iterations = _reference_lift(req)
        assert res.values == values
        assert res.trace == trace
        assert res.iterations == iterations
        assert res.iterations >= 2 or target <= 2 * c + 3


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


def test_linear_factor_particular_beyond_the_input_degree():
    # c = (-x^22, x^11) has twice the degree of the input; the syzygies of
    # [-b | a] find it with no degree bound
    a = [[xpoly("1"), xpoly("x^11")], [xpoly("0"), xpoly("1")]]
    b = [xpoly("0"), xpoly("x^11")]
    yprime = [sser("-x^22 + O(x^30)"), sser("x^11 + O(x^30)")]
    lf = linear_factor(a, b, yprime, "x")
    assert lf.particular == [xpoly("-x^22"), xpoly("x^11")]
    assert lf.kernel == [] and lf.z == []
    for j in range(2):
        assert reconstruct(lf, j) == yprime[j]


@st.composite
def factorable_systems(draw):
    """(a, b, y') with b = a*c0 and y' = c0 + sum z_k k_k over the reduced
    kernel basis k of a: a random matrix, c0 and z."""
    F = draw(st.sampled_from((QQ, PrimeField(32003))))
    precision = 8
    coeff = st.sampled_from((0, 0, 1, -1, 2, -3)).map(F.from_int)

    def poly(degree):
        if draw(st.integers(0, 2)) == 0:
            return Polynomial.zero(BASE, F)
        coeffs = draw(st.lists(coeff, min_size=degree + 1,
                               max_size=degree + 1))
        return Polynomial(BASE, F, {(d,): c for d, c in enumerate(coeffs)})

    r, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    a = [[poly(3) for _ in range(n)] for _ in range(r)]
    c0 = [poly(3) for _ in range(n)]
    b = [sum((e * c for e, c in zip(row, c0)), Polynomial.zero(BASE, F))
         for row in a]
    kernel = kernel_basis(a).basis
    zs = [TruncatedSeries(BASE, F, {(d,): c for d, c in enumerate(
        draw(st.lists(coeff, min_size=precision, max_size=precision)))},
        precision) for _ in kernel]
    yprime = []
    for j in range(n):
        acc = TruncatedSeries.from_polynomial(c0[j], precision)
        for z, gen in zip(zs, kernel):
            acc = acc + z * TruncatedSeries.from_polynomial(gen[j], precision)
        yprime.append(acc)
    return a, b, yprime, kernel


@settings(max_examples=100, deadline=None)
@given(factorable_systems())
def test_linear_factor_matches_kernel_basis(system):
    a, b, yprime, kernel = system
    lf = linear_factor(a, b, yprime, "x")
    for row, bi in zip(a, b):
        assert sum((e * c for e, c in zip(row, lf.particular)),
                   Polynomial.zero(BASE, bi.field)) == bi
    assert lf.kernel == kernel
    for j in range(len(yprime)):
        assert reconstruct(lf, j) == yprime[j]


# ---------------------------------------------------------------------------
# module isomorphism systems

def ser_matrix(rows, precision=8):
    return [[TruncatedSeries.from_polynomial(xpoly(e), precision)
             for e in row] for row in rows]


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
    assert sys.equation_count == 4 + 4 + 1
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


# The symbolic system of earlier versions, kept as the reference for
# check_candidate: each equation is a polynomial in the unknowns with
# truncated-series coefficients, expanded before any candidate is known and
# then evaluated at it.  Terms whose coefficient is a zero series are dropped.

class _SeriesPoly:
    def __init__(self, unknowns, sample, precision, terms):
        self.unknowns = unknowns
        self.sample = sample
        self.precision = precision
        self.terms = {m: s for m, s in terms.items() if not s.is_zero()}

    def __add__(self, other):
        terms = dict(self.terms)
        for m, s in other.terms.items():
            terms[m] = terms[m] + s if m in terms else s
        return _SeriesPoly(self.unknowns, self.sample,
                           min(self.precision, other.precision), terms)

    def __neg__(self):
        return _SeriesPoly(self.unknowns, self.sample, self.precision,
                           {m: -s for m, s in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for m1, s1 in self.terms.items():
            for m2, s2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                prod = s1 * s2
                terms[m] = terms[m] + prod if m in terms else prod
        return _SeriesPoly(self.unknowns, self.sample,
                           min(self.precision, other.precision), terms)

    def evaluate(self, assignment):
        acc = TruncatedSeries.zero(self.sample.variables, self.sample.field,
                                   self.precision)
        for m, s in self.terms.items():
            part = s
            for name, e in zip(self.unknowns, m):
                for _ in range(e):
                    part = part * assignment[name]
            acc = acc + part
        return acc


def _reference_det(A):
    if len(A) == 1:
        return A[0][0]
    det = None
    for j in range(len(A)):
        term = A[0][j] * _reference_det(
            [[row[k] for k in range(len(A)) if k != j] for row in A[1:]])
        if j % 2:
            term = -term
        det = term if det is None else det + term
    return det


def _reference_verdict(u, v, candidate, precision):
    t, p, n = len(u), len(v), len(u[0])
    sample = u[0][0]
    prec = sample.precision
    unknowns = module_iso_system(u, v).unknowns

    def const(series):
        return _SeriesPoly(unknowns, sample, series.precision,
                           {(0,) * len(unknowns): series})

    def var(name):
        mono = tuple(int(name == other) for other in unknowns)
        one = TruncatedSeries.one(sample.variables, sample.field, prec)
        return _SeriesPoly(unknowns, sample, prec, {mono: one})

    def total(parts):
        acc = parts[0]
        for part in parts[1:]:
            acc = acc + part
        return acc

    ux = [[total([const(u[k][i]) * var(f"X{i + 1}_{j + 1}")
                  for i in range(n)]) for j in range(n)] for k in range(t)]
    equations = [ux[k][j] - total([var(f"Y{k + 1}_{r + 1}") * const(v[r][j])
                                   for r in range(p)])
                 for k in range(t) for j in range(n)]
    equations += [total([var(f"Z{r + 1}_{k + 1}") * ux[k][j]
                         for k in range(t)]) - const(v[r][j])
                  for r in range(p) for j in range(n)]
    det = _reference_det([[var(f"X{i + 1}_{j + 1}") for j in range(n)]
                          for i in range(n)])
    one = TruncatedSeries.one(sample.variables, sample.field, prec)
    equations.append(det * var("W") - const(one))
    assign = {name: candidate[name].truncate(
        min(precision, candidate[name].precision)) for name in unknowns}
    return (all(eq.evaluate(assign).is_zero() for eq in equations)
            and det.evaluate(assign).order() == 0)


@st.composite
def _iso_cases(draw):
    """u, v, a candidate and a requested precision.  Half the cases build
    a solution (v = M*u*X, Y = M^-1, Z = M, W = 1/det X) and then maybe
    change one coefficient; the rest draw everything at random.  The
    candidate's entries share one precision, as after the CLI's default
    truncation; u and v entries each keep their own."""
    F = draw(st.sampled_from((PrimeField(3), PrimeField(5), QQ)))

    def series(precision):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
        return TruncatedSeries(BASE, F, {(d,): F.from_int(c)
                                         for d, c in enumerate(coeffs)},
                               precision)

    def matrix(rows, cols, precision=None):
        return [[series(precision or draw(st.integers(1, 4)))
                 for _ in range(cols)] for _ in range(rows)]

    n, t = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    prec = draw(st.integers(1, 4))
    u = matrix(t, n)
    X = matrix(n, n, prec)
    if draw(st.booleans()):
        one = TruncatedSeries.one(BASE, F, prec)
        zero = TruncatedSeries.zero(BASE, F, prec)
        M = [[one if i == j else zero for j in range(t)] for i in range(t)]
        Y = [row[:] for row in M]
        if t == 2:
            M[0][1] = series(prec)
            Y[0][1] = -M[0][1]
        Z = M
        v = [[e.truncate(min(e.precision, draw(st.integers(1, 4))))
              for e in row] for row in matrix_mul(M, matrix_mul(u, X))]
        det = matrix_det(X)
        W = det.invert() if det.order() == 0 else series(prec)
    else:
        p = draw(st.integers(1, 2))
        v = matrix(p, n)
        Y, Z, W = matrix(t, p, prec), matrix(p, t, prec), series(prec)
    candidate = {"W": W}
    for letter, block in (("X", X), ("Y", Y), ("Z", Z)):
        for i, row in enumerate(block):
            for j, e in enumerate(row):
                candidate[f"{letter}{i + 1}_{j + 1}"] = e
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(candidate)))
        d = draw(st.integers(0, prec - 1))
        candidate[name] = candidate[name] + TruncatedSeries(
            BASE, F, {(d,): F.one()}, prec)
    # u = 0 to the precision of u[0][0] is pinned by its own test below
    assume(any(not e.truncate(min(e.precision, u[0][0].precision)).is_zero()
               for row in u for e in row))
    return u, v, candidate, draw(st.integers(1, 5))


@settings(max_examples=300, deadline=None)
@given(_iso_cases())
def test_check_candidate_matches_symbolic_reference(case):
    u, v, candidate, precision = case
    assert (check_candidate(module_iso_system(u, v), candidate, precision)
            == _reference_verdict(u, v, candidate, precision))


def test_module_iso_zero_u_checked_to_precision():
    # every equation holds mod x^2; the symbolic system dropped each
    # candidate term of Z*(u*X) - v and compared v with 0 to v's own
    # precision x^3, so it rejected
    u, v = [[sser("0 + O(x^3)")]], [[sser("x^2 + O(x^3)")]]
    one, zero = sser("1 + O(x^3)"), sser("0 + O(x^3)")
    candidate = {"X1_1": one, "Y1_1": zero, "Z1_1": zero, "W": one}
    sys = module_iso_system(u, v)
    assert check_candidate(sys, candidate, 2)
    assert not _reference_verdict(u, v, candidate, 2)
    assert not check_candidate(sys, candidate, 3)
