"""The certificate checker, which ``verify`` and ``gnd`` both run.  It
imports ``errors``, ``fields``, ``poly`` and ``series`` only.

The certificate claims that v factors through

    B' = A[Y, T, W]/(mu, I, h, g, W*s - 1),
    h_j = s(Y_j - y'_j) - d (G(y')T)_j,
    g_i = s^p f_i(y' + (d/s) G(y')T) / d^2,

with I its [relations], f the subset relations, p the largest total degree
of I and d = x^(2c) (B[W]/(W*M*N - 1) in a short circuit, with N monic,
and 1 where the subset is I), standard smooth where the check-6
determinant is a unit (Pfister-Popescu, "Constructive General Neron
Desingularization for one dimensional local rings", JSC 80 (2017); Swan
(1998) defines standard smooth).  h, g and s are given by this formula
and never printed or expanded: the certificate fixes B' through y', c,
G, s, the subset and p.  U, T and W are bound variables of B' and A's
field is the base field of the series field, so none of them is printed
either: ``bound_names`` names U, for the construction and the reader
alike, and no check reads a polynomial in a T or in W, so the working
ring has neither.  The point of B' over v is (yhat, t) with
t = H(y')(yhat - y')/d^2, fixed by yhat alone, so t is not printed
either: y' is yhat below x^(6c), so d^2 = x^(4c) divides yhat - y'.  The
argument rests on these facts, each with the check that discharges it:

- H is the bordered Jacobian of the subset relations f, G = N*adj(H) and
  M = det H (the Jacobian minor of f in the minor's columns, which come
  first in the permutation in both kinds of certificate, so that they are
  the first len(subset) yvars) from the same Berkowitz run: derived by
  verify, not printed (``build_H_G``; ``GndCertificate.minor`` in a short
  circuit);
- G*H = H*G = P*Id with P = M*N (check 1, exact).  Check 1 forms G*H
  alone: P is nonzero (P(y') = s*d with s = 1 modulo d), so over the
  domain k[x, U, Y] G*H = P*Id makes G/P the inverse of H over the
  fraction field, and H*G = P*Id follows;
- P = (R + x^c)^2 for the bordering relation R = -x^c + P'Z, last in I,
  so that d - P = -R(x^c + P'Z) lies in I (exact, by ``derive_frame``
  before any value at y': a ConsistencyError otherwise);
- N*I lies in (f), so that I = (f) where N is a unit: NOT CHECKED yet;
- g is a polynomial (check 2, which follows from checks 1 and 3): in
  s^p f_i(y' + (d/s)w), w = G(y')T, the constant term s^p f_i(y') is
  divisible by d^2 by check 3, the T-linear term s^(p-1) d grad f_i(y') w
  is s^p d^2 T_i as HG = P*Id and P(y') = s*d, and every term of T-degree
  at least 2 carries d^2; where h = 0 and s is a unit, Y = y' + (d/s)w, so
  f = 0 and g = 0 agree in B'; y' is [hat] below x^(6c) (``truncate_lift``);
- I(y') = 0 modulo d^3 (check 3, exact);
- s = P(y')/d with s = 1 modulo d, derived by verify (``compute_s_b``), so
  s is a unit of B'; d = x^(2c) with c >= 1 ([meta] c; c = 0 marks a short
  circuit);
- h and g vanish at (yhat, t), so the point factors through B' (check 4):
  by check 1, G(y')H(y') = P(y') Id = s d Id, so d G(y')t = s(yhat - y'),
  h(yhat, t) = 0 exactly, Y* = y' + (d/s)G(y')t is yhat and
  g(t) = s^p f(yhat)/d^2.  Check 4 is check 1 and f(yhat) = 0 to O(x^N),
  N = [meta] precision, which is g(t) = 0 to O(x^(N - 4c)) (``build_h_g``);
- each [hat] image yhat_j is printed to the precision check 4 reads it to,
  max(N - o_j, 6c) with o_j = min(4c, the least x-order in column j of
  J_f(y')) (``hat_precisions``), and extended by zeros above it.  That is
  exact: a coefficient at x^e of yhat_j, e at least the marker, moves
  f(yhat) by column j of J_f(yhat) (equal to J_f(y') below x^(6c)) times
  it, at x^(e + o_j) or above, which is x^N or above, and by terms with a
  second factor of order 6c or more (e is at least 6c), at x^(N + 2c) or
  above;
- that point restricts to v on B (check 5, to O(x^(N - 4c)));
- det(dg/dT) over the subset's T is a unit at the point (check 6), so B'
  localized at it is standard smooth and still holds the point.
"""

from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import (ConsistencyError, DomainError, PrecisionError,
                     ResourceError, StructuralError)
from .fields import QQ, SimpleExtension
from .poly import (DEGREVLEX, Polynomial, alpha_polynomial, fold_extension,
                   fresh_name, unfold_extension)
from .series import (MAX_PRECISION, CompletionMorphism, TruncatedSeries,
                     series_eval, series_point)


# ---------------------------------------------------------------------------
# matrices over polynomials or series, and the bordered Jacobian

def matrix_mul(A, B):
    return [[_dot(row, col) for col in zip(*B)] for row in A]


def _dot(u, v, acc=None):
    """acc plus the products u_i·v_i that have no None (zero) factor."""
    for a, b in zip(u, v):
        if a is not None and b is not None:
            acc = a * b if acc is None else acc + a * b
    return acc


def _berkowitz(A, adjugate=False):
    """(det A, adj A or None), from det(Id + t·A) = sum e_i·t^i, e_0 = 1:
    det(Id + t·A_(k+1)) is det(Id + t·A_k) times 1 + a·t - R·C·t^2 +
    R·A_k·C·t^3 - ... mod t^(k+2), where A_k is the leading k x k block,
    a = A[k][k], R = A[k][:k] and C the column above a; det A = e_n and
    adj A = sum e_i·(-A)^(n-1-i).  Zeros are skipped, so series entries are
    first cut to their least precision (Berkowitz, IPL 18, 1984).  Orders 1
    and 2 take the closed forms.
    """
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise StructuralError("determinant of an empty or non-square matrix")
    a = A[0][0]
    if isinstance(a, TruncatedSeries):
        prec = min(x.precision for row in A for x in row)
        A = [[x if x.precision == prec else x.truncate(prec) for x in row]
             for row in A]
        zero = TruncatedSeries.zero(a.variables, a.field, prec)
    else:
        zero = Polynomial.zero(a.variables, a.field)
    M = [[None if x.is_zero() else x for x in row] for row in A]
    if n < 3:       # closed forms: a, adj [[1]]; ad - bc, adj [[d, -b], [-c, a]]
        (a, b), (c, d) = M if n == 2 else ((M[0][0], None), (None, None))
        b, nc = (None if y is None else -y for y in (b, c))
        det = _dot((a, b), (d, c)) if n == 2 else a
        det = zero if det is None else det
        if not adjugate:
            return det, None
        B = [[d, b], [nc, a]] if n == 2 else [[zero ** 0]]
        return det, [[zero if y is None else y for y in row] for row in B]
    e = [None] * n                      # e[i] = e_(i+1); None for zero
    for k, row in enumerate(M):
        col, q = [r[k] for r in M[:k]], [row[k]]
        for j in range(k):
            col = [_dot(r, col) for r in M[:k]] if j else col
            s = _dot(row, col)
            q.append(-s if s is not None and j % 2 == 0 else s)
        # the determinant alone needs only e_n of the last step
        for i in range(k, -1 if adjugate or k < n - 1 else k - 1, -1):
            c = q[i] if e[i] is None else e[i] if q[i] is None else e[i] + q[i]
            e[i] = _dot(e[:i], q[i - 1::-1], c)
    det = zero if e[-1] is None else e[-1]
    if not adjugate:
        return det, None
    minus = [[None if x is None else -x for x in row] for row in M]
    B = [[zero ** 0 if i == j else None for j in range(n)] for i in range(n)]
    for c in e[:-1]:                    # Horner: B·(-A) + e_i·Id
        B = [[_dot(row, col, c if i == j else None) for j, col in
              enumerate(zip(*minus))] for i, row in enumerate(B)]
    return det, [[zero if b is None else b for b in row] for row in B]


def matrix_det(A):
    """det A, for polynomial and series entries alike."""
    return _berkowitz(A)[0]


def matrix_adjugate(A):
    """adj(A) with A·adj(A) = adj(A)·A = det(A)·Id."""
    return _berkowitz(A, adjugate=True)[1]


def identity_matrix(n, variables, fld):
    one = Polynomial.one(variables, fld)
    zero = Polynomial.zero(variables, fld)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matrix_scale(A, p):
    return [[entry * p for entry in row] for row in A]


def matrix_equal(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def jacobian(relations, variables):
    """Rows indexed by relations, columns by the given variables only."""
    return [[f.derivative(v) for v in variables] for f in relations]


def build_H_G(fs, yvars, witness):
    """H = the Jacobian of fs in yvars over (0 | Id), G = N·adj(H), and
    M = det(H), the minor of the first r columns (H's leading block of
    the subset rows).

    GH = HG = M·N·Id.  H = [[A, C], [0, Id]] has
    adj(H) = [[adj A, -adj(A)·C], [0, det(A)·Id]], so only the r x r
    block A needs an adjugate, and the Berkowitz run that gives it gives
    M = det(A) too.
    """
    r, n = len(fs), len(yvars)
    eye = identity_matrix(n, fs[0].variables, fs[0].field)
    H = jacobian(fs, yvars) + eye[r:]
    det_A, adj_A = _berkowitz([row[:r] for row in H[:r]], adjugate=True)
    adj_AC = matrix_mul(adj_A, [row[r:] for row in H[:r]])
    adj = [a + [-e for e in c] for a, c in zip(adj_A, adj_AC)]
    adj += [eye[i][:i] + [det_A] + eye[i][i + 1:] for i in range(r, n)]
    return H, [[witness * entry for entry in row] for row in adj], det_A


# ---------------------------------------------------------------------------
# D and the frame

@dataclass
class DPresentation:
    """The intermediate smooth base: A itself, or A[U]/(mu) localized at
    mu', when the series live over a simple extension of the ground field."""

    base_var: str
    field: object                # coefficient field of all polynomial rings
    series_field: object         # equals field, or a simple extension of it
    ext_var: str = None

    @cached_property
    def mu(self):
        """The minimal polynomial of the series field's generator, in U."""
        return self.ext_var and alpha_polynomial(self.series_field.mu,
                                                 (self.ext_var,))

    def ring_prefix(self):
        if self.ext_var is None:
            return (self.base_var,)
        return (self.base_var, self.ext_var)

    def point(self, precision, images):
        """The series point that sends x to itself, U to the generator of
        the series field and each name of ``images`` to its series, all
        truncated to ``precision``."""
        Fs, x = self.series_field, self.base_var
        out = {name: s.truncate(precision) for name, s in images.items()}
        out[x] = TruncatedSeries.variable((x,), Fs, x, precision)
        if self.ext_var:
            out[self.ext_var] = TruncatedSeries.constant(
                (x,), Fs, Fs.generator(), precision)
        return series_point(out)

    def polynomial(self, terms, ring):
        """The polynomial of ``ring`` over the base field whose terms in x
        [and U] are the series terms ``terms`` over the series field."""
        if self.ext_var:
            terms = unfold_extension(terms)
        return Polynomial(self.ring_prefix(), self.field, terms).embed(ring)

    def series(self, poly, precision):
        """The polynomial ``poly`` in x [and U] as a series over the series
        field, U -> alpha; a term of ``poly`` in another variable is a
        StructuralError."""
        terms = poly.restrict(self.ring_prefix()).terms
        if self.ext_var:
            terms = fold_extension(self.series_field, terms.items())
        return TruncatedSeries((self.base_var,), self.series_field, terms,
                               precision)


class FramePoint:
    """Values at the Artinian frame: the series point x -> x, U -> alpha,
    Y_j -> y'_j, each y'_j a polynomial in x [and U].  A term x^a U^b Y^beta
    has x-degree at most a + sum beta_j deg_x(y'_j) at y', its weighted
    degree, so a value below x^(top + 1), top the largest weighted degree
    of a term, is exact; mu acts at decode.  A value is taken at the least
    power of two above top (or at the precision asked for, if less), so
    that values of nearby degrees share the point's packed powers.  x and
    U shift coefficient rows: a value is one product per Y-monomial."""

    def __init__(self, D, yprime):
        self.D, self.yprime = D, yprime
        self.variables = D.ring_prefix() + tuple(yprime)
        self.weights = ((1,) + (0,) * (len(D.ring_prefix()) - 1)
                        + tuple(max(y.degree_in(D.base_var), 0)
                                for y in yprime.values()))
        self.point = D.point(MAX_PRECISION, {
            name: D.series(y, MAX_PRECISION) for name, y in yprime.items()})

    def series(self, poly, precision=None):
        """poly at y' modulo x^precision, or exactly without one: a series
        in x.  A term of poly in a variable the point does not map is a
        StructuralError, and a value read past MAX_PRECISION a
        ResourceError."""
        poly = poly.restrict(self.variables)
        top = max((sum(e * w for e, w in zip(m, self.weights))
                   for m in poly.terms), default=0)
        n = 1 << top.bit_length()
        n = n if precision is None else min(precision, n)
        if n > MAX_PRECISION:
            raise ResourceError(f"a value at y' of x-degree up to {top} "
                                f"needs precision above {MAX_PRECISION}")
        value = series_eval(poly, self.point, n)
        if precision is None or n == precision:
            return value
        return TruncatedSeries(value.variables, value.field, value.terms,
                               precision)

    def __call__(self, poly):
        """poly at y', exactly: a polynomial in x [and U] of poly's ring."""
        return self.D.polynomial(self.series(poly).terms, poly.variables)


def bound_names(base_var, series_field, yvars):
    """D, which no certificate prints, as gnd and the reader both take it:
    A's field is the base field of the series field; U, over a Q(alpha)
    only, is fresh against x and the yvars (so against B's variables: the
    bordering's Z never starts with U)."""
    if isinstance(series_field, SimpleExtension):
        return DPresentation(base_var, series_field.base, series_field,
                             fresh_name("U", (base_var,) + tuple(yvars)))
    return DPresentation(base_var, series_field, series_field)


def working_ring(D, c, yvars):
    """x, then U (bordered only: a short circuit, c = 0, lives in B's
    ring), then the yvars."""
    prefix = D.ring_prefix()
    return (prefix[:1] if c == 0 else prefix) + tuple(yvars)


def truncate_lift(images, c, D, ring):
    """The frame y': each series of ``images`` truncated below degree
    3*ord(d) = 6c, as a polynomial of ``ring``."""
    cut = 6 * c
    precision = min(s.precision for s in images.values())
    if precision < cut:
        raise PrecisionError(
            f"need precision >= {cut} to truncate, have {precision}")
    return {name: D.polynomial({m: a for m, a in s.terms.items()
                                if m[0] < cut}, ring)
            for name, s in images.items()}


def _x_shift(poly, xvar, k, what="element"):
    """Exact division by xvar^k; fails loudly when not divisible."""
    i = poly.variables.index(xvar)
    if any(m[i] < k for m in poly.terms):
        raise ConsistencyError(f"{what} is not divisible by {xvar}^{k}")
    return Polynomial(poly.variables, poly.field, {
        m[:i] + (m[i] - k,) + m[i + 1:]: c for m, c in poly.terms.items()})


def compute_s_b(P, frame, c, D):
    """s = P(y')/d with s = 1 mod d.  (The b_i = f_i(y')/d^2 of the name
    are not built: check 3 reads I(y').  ``perfbench/tracing.py`` times
    this step by its name.)"""
    x = D.base_var
    s = _x_shift(frame(P), x, 2 * c, "P(y')")
    _x_shift(s - Polynomial.one(s.variables, s.field), x, 2 * c, "s - 1")
    return s


@dataclass
class FrameRecord:
    """What ``derive_frame`` derives, all desingularize hands to verify:
    y' (``frame``), H, G, M, s and the [hat] markers (``hat_precisions``)
    by yvar."""

    frame: FramePoint
    H: list
    G: list
    M: Polynomial
    s: Polynomial
    marks: dict


def derive_frame(images, c, D, ring, fs, yvars, witness, precision):
    """The frame y' (``images`` below x^(6c)), H, G, M, s = P(y')/d for
    P = M*N and the [hat] markers at a point of precision ``precision``:
    what the construction builds, and what verify derives from a
    certificate.  P is bound to the bordering relation before any value
    at y' is taken."""
    H, G, M = build_H_G(fs, yvars, witness)
    P = M * witness
    # the bordering relation R = -x^c + P'Z, last in the subset, puts
    # d - P = -R (x^c + P'Z) in I; P = (R + x^c)^2 binds the witness to it
    if P != (fs[-1] + Polynomial.variable(ring, D.field, D.base_var, c)) ** 2:
        raise ConsistencyError(
            "certificate [data] witness does not give P = M*N = (R + x^c)^2, "
            "R the bordering relation")
    frame = FramePoint(D, truncate_lift(images, c, D, ring))
    return FrameRecord(frame, H, G, M, compute_s_b(P, frame, c, D),
                       hat_precisions(frame, H[:len(fs)], precision, c))


def hat_precisions(frame, jacobian_rows, precision, c):
    """The precision to which check 4 reads each [hat] image, by yvar, at a
    point of precision N = ``precision``: max(N - o_j, 6c), o_j = min(4c,
    the least x-order in column j of J_f(y')), J_f the ``jacobian_rows``
    (the first r rows of H).  A coefficient of yhat_j at x^e first meets
    f(yhat) at x^(e + o_j), so none above the marker reaches check 4
    (module docstring), and y' reads yhat below x^(6c)."""
    cut = 4 * c
    orders = [cut] * len(frame.yprime)
    for row in jacobian_rows:
        for j, entry in enumerate(row):
            o = frame.series(entry, cut).order()
            if o is not None:
                orders[j] = min(orders[j], o)
    return {yv: max(precision - o, 6 * c)
            for yv, o in zip(frame.yprime, orders)}


def build_h_g(fs, D, hat, precision):
    """g of B''s formula at the [hat] point, which check 4 reads;
    ``perfbench/tracing.py`` times this step by its name.  At t =
    H(y')(yhat - y')/d^2, h is 0 and Y* is yhat once check 1 holds, so
    g_i(t) = s^p f_i(yhat)/d^2 (module docstring).  Each image of ``hat``
    is extended by zeros to O(x^N), N = ``precision``.  Returns the values
    f_i(yhat) to O(x^N) of the relations ``fs``, which vanish exactly
    where those of g do to O(x^(N - 4c)), with no t built, no division by
    d^2 and no power of s taken; and the series point at yhat."""
    point = D.point(precision, {yv: TruncatedSeries(s.variables, s.field,
                                                    s.terms, precision)
                                for yv, s in hat.items()})
    ring = D.ring_prefix() + tuple(hat)
    return [series_eval(f.restrict(ring), point) for f in fs], point


# ---------------------------------------------------------------------------
# the certificate and its six checks

# check 2's report name, in bordered and short-circuit certificates alike
CHECK_2 = "g = s^p f(y' + (d/s)G(y')T)/d^2 is a polynomial"


@dataclass
class CheckResult:
    name: str
    passed: bool
    precision: str               # "exact", "vacuous", or "O(x^k)"
    detail: str = ""

    def line(self):
        status = "pass" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name} @ {self.precision}{extra}"


@dataclass
class GndCertificate:
    """What a certificate prints, with D (``bound_names``);
    the short circuit (c = 0), the ring, zvar and the minor's columns (the
    first len(subset) yvars) are derived from it, and h, g and s of B' by
    its formula (module docstring)."""

    D: DPresentation             # from [series-field] and U
    witness: Polynomial          # N
    c: int                       # d = x^(2c); 0 in a short circuit
    yvars: tuple                 # permuted algebra variables (with Z)
    permutation: tuple = ()      # yvars[i] = original_variables[permutation[i]]
    relations: list = dc_field(default_factory=list)   # bordered ideal in ring
    subset: tuple = ()
    hat_images: dict = dc_field(default_factory=dict)   # yvar -> series
    precision: int = 0           # of v; checks 4-6 read precision - 4c
    report: list = dc_field(default_factory=list)

    @property
    def base_var(self):
        return self.D.base_var

    @property
    def field(self):
        return self.D.field

    @property
    def series_field(self):
        return self.D.series_field

    @property
    def short_circuit(self):
        return self.c == 0

    @property
    def ring(self):
        return working_ring(self.D, self.c, self.yvars)

    @property
    def zvar(self):
        """Z, which bordering adjoins last; none in a short circuit."""
        return None if self.short_circuit else self.yvars[
            self.permutation.index(len(self.yvars) - 1)]

    def subset_relations(self):
        return [self.relations[i] for i in self.subset]

    def minor(self):
        """M of a short circuit: the Jacobian minor of the subset relations
        in the leading yvars (det H, from ``derive_frame``, if bordered)."""
        fs = self.subset_relations()
        return matrix_det(jacobian(fs, self.yvars[:len(fs)])) if fs else \
            Polynomial.one(self.ring, self.field)

    def report_lines(self):
        return [r.line() for r in self.report]

    def all_passed(self):
        return all(r.passed for r in self.report)


def verify_certificate(cert, B, v, derived=None):
    """Re-run the six certificate checks; failures become report entries.
    y', H, G, M, s and the [hat] markers (``derive_frame``;
    ``GndCertificate.minor`` in a short circuit) are derived first, unless
    ``derived`` is the record desingularize built, and g is read through
    B''s formula at the [hat] point (``build_h_g``); a [hat] image printed
    to another precision than check 4 reads it to is a ConsistencyError."""
    if cert.short_circuit:
        report = [CheckResult(name, True, "vacuous", detail)
                  for name, detail in (
                      ("GH = HG = P*Id", "smooth short-circuit"),
                      (CHECK_2, "smooth short-circuit"),
                      ("I(y') = 0 mod d^3", "smooth short-circuit"),
                      ("h and g vanish on (yhat, t)", "no h, g"))]
        ok = _hat_is_v(cert, B, v, v.precision) and all(
            v.eval(rel).is_zero() for rel in B.relations)
        report.append(CheckResult("composite factors v", ok,
                                  f"O({v.base_var}^{v.precision})"))
        # v(M*N) is a unit: its order is 0
        ok6 = v.eval(cert.minor() * cert.witness).order() == 0
        report.append(CheckResult("smoothness witness is a unit", ok6,
                                  f"O({v.base_var}^{v.precision})"))
        cert.report = report
        return report

    ring, D, c, x = cert.ring, cert.D, cert.c, cert.base_var
    n, N = len(cert.yvars), cert.precision
    fs = cert.subset_relations()
    rec = derived or derive_frame(
        {yv: cert.hat_images[yv] for yv in cert.yvars}, c, D, ring, fs,
        cert.yvars, cert.witness, N)
    # each [hat] image is printed to the precision check 4 reads it to, and
    # is extended by zeros above that
    for yv, want in rec.marks.items():
        have = cert.hat_images[yv].precision
        if have != want:
            raise ConsistencyError(
                f"certificate [hat] {yv} is printed to O({x}^{have}); "
                f"check 4 reads it to O({x}^{want})")
    report = []
    # (1) exact matrix identity; G*H = P*Id alone gives H*G = P*Id (module
    # docstring)
    target = matrix_scale(identity_matrix(n, ring, cert.field),
                          rec.M * cert.witness)
    ok1 = matrix_equal(matrix_mul(rec.G, rec.H), target)
    report.append(CheckResult("GH = HG = P*Id", ok1, "exact"))

    # (3) the frame solves the ideal modulo d^3, and with (1) it makes g a
    # polynomial, (2): see the module docstring
    ok3 = all(rec.frame.series(rel, 6 * c).is_zero()
              for rel in cert.relations)
    report.append(CheckResult(CHECK_2, ok1 and ok3, "exact",
                              "by checks 1 and 3"))
    report.append(CheckResult("I(y') = 0 mod d^3", ok3, "exact"))

    # (4) at t = H(y')(yhat - y')/d^2, (1) gives h = 0 and
    # g = s^p f(yhat)/d^2
    prec4 = N - 4 * c
    values, at_hat = build_h_g(fs, D, cert.hat_images, N)
    ok4 = ok1 and all(q.is_zero() for q in values)
    report.append(CheckResult("h and g vanish on (yhat, t)", ok4,
                              f"O({x}^{prec4})"))

    # (5) the composite agrees with v
    point = D.point(prec4, cert.hat_images)
    ok5 = _hat_is_v(cert, B, v, prec4) and all(
        series_eval(rel, point).is_zero() for rel in B.relations)
    report.append(CheckResult("composite factors v", ok5, f"O({x}^{prec4})"))

    # (6) dg_i/dT_k = (s^(p-1)/d) (J_f(Y*) G(y'))_ik at Y* = y' + (d/s)
    # G(y')t, which is yhat by (4): det(dg/dT) over the subset's T is a
    # unit exactly when det(J_f(yhat) G(y')[:, :r]) has order 2cr.
    # G(y')[:, :r] is N(y') (adj A(y') over 0), A the minor's block of H,
    # so that determinant is N(y')^r M(yhat) M(y')^(r-1), and M(y') N(y')
    # = s d has order 2c: it has order 2cr exactly when M(yhat) has the
    # order of M(y'), at most 2c
    M = rec.M.restrict(rec.frame.variables)
    order = rec.frame.series(M, 2 * c + 1).order()
    report.append(CheckResult(
        "smoothness witness is a unit", order is not None
        and series_eval(M, at_hat, 2 * c + 1).order() == order,
        f"O({x}^{prec4})"))
    cert.report = report
    return report


def _hat_is_v(cert, B, v, precision):
    """The certificate's image of every variable of B is v's, to precision."""
    try:
        return all(cert.hat_images[y].truncate(precision)
                   == v.images[y].truncate(precision) for y in B.variables)
    except (KeyError, DomainError):         # missing, or known too coarsely
        return False


def _require(ok, what):
    if not ok:
        raise ConsistencyError(f"certificate {what}")


def _check_meta(base, Fs, c, yvars, permutation, subset):
    """What the reader of the values assumes of [meta] and [series-field];
    a mismatch is a ConsistencyError.  U is fresh against x and the
    yvars, so the ring names each variable once when these do."""
    _require(Fs == QQ or isinstance(Fs, SimpleExtension),
             "[series-field] is neither Q nor a Q(alpha)")
    _require(len(set((base,) + yvars)) == len(yvars) + 1,
             "[meta] names a variable twice")
    _require(c >= 0, "[meta] c is negative")
    _require(sorted(permutation) == list(range(len(yvars))),
             "[meta] permutation does not permute the yvars")
    columns = permutation[:len(subset)]
    _require(list(columns) == sorted(columns) and len(columns) == len(subset),
             "[meta] permutation does not start with the minor's columns "
             "in increasing order")


def _check_shape(cert):
    """What the checks assume of the values they read; a mismatch is a
    ConsistencyError."""
    D, Fs, require = cert.D, cert.series_field, _require
    require(sorted(cert.hat_images) == sorted(cert.yvars),
            f"[hat] does not name exactly "
            f"{' '.join(cert.yvars) or 'nothing'}")
    require(list(cert.subset) == sorted(set(cert.subset))
            and all(0 <= i < len(cert.relations) for i in cert.subset),
            "[meta] subset is not increasing within [relations]")
    # no bordering relation fixes a short circuit's N, and B[W]/(W*M*N - 1)
    # depends on it only up to a nonzero scalar: N is printed monic, and
    # is 1 where the subset holds every relation, as ((f):I) is then (1)
    N = cert.witness
    if cert.short_circuit and len(cert.subset) == len(cert.relations):
        require(N == Polynomial.one(N.variables, N.field),
                "[data] witness of a short circuit with every relation in "
                "its subset is not 1")
    require(not cert.short_circuit
            or N.terms and N.leading(DEGREVLEX)[1] == 1,
            "[data] witness of a short circuit is not monic")
    # y' is [hat] below x^(6c); a short circuit prints [hat] to the
    # precision of v, and verify binds each marker of a bordered one to
    # what check 4 reads (hat_precisions)
    x, marks = cert.base_var, [s.precision for s in cert.hat_images.values()]
    require(all(m >= 6 * cert.c for m in marks),
            f"[hat] is printed below O({x}^{6 * cert.c})")
    require(not cert.short_circuit or set(marks) <= {cert.precision},
            f"[hat] is not printed to O({x}^{cert.precision})")
    # Z borders last: original_problem drops it and its relation, which
    # ends the subset
    require(cert.short_circuit
            or cert.subset[-1:] == (len(cert.relations) - 1,),
            "[meta] subset does not end with the bordering relation")
    # every honest value is printed reduced, so no value at a point meets a
    # high power of U
    if D.ext_var in cert.ring:
        require(all(q.degree_in(D.ext_var) < Fs.degree
                    for q in cert.relations + [cert.witness]),
                f"[relations] or [data] witness has {D.ext_var}-degree at or "
                f"above that of mu")


Problem = namedtuple("Problem", "base_var variables relations")


def original_problem(cert):
    """Reconstruct (B, v) for re-verification from a parsed certificate.
    No refusal of a presentation of B can arise: x is no yvar, relations
    are read over A's field, and ``restrict`` refuses one in Z."""
    # yvars[i] is the original variable permutation[i]; Z borders last
    orig_vars = tuple(y for _, y in sorted(zip(cert.permutation, cert.yvars))
                      if y != cert.zvar)
    rels = cert.relations if cert.short_circuit else cert.relations[:-1]
    ring = (cert.base_var,) + orig_vars
    B = Problem(cert.base_var, orig_vars, [r.restrict(ring) for r in rels])
    images = {yv: cert.hat_images[yv] for yv in orig_vars}
    v = CompletionMorphism(base_var=cert.base_var, field=cert.series_field,
                           images=images)
    return B, v
