"""Construction of verified standard-smooth factorizations for a morphism
from a finitely presented algebra over a one-dimensional local base into a
truncated power-series ring.

Pipeline: border the presentation so the square of the local parameter lies
in the right ideal, truncate the series solution to an exact polynomial
frame, and read off the frame everything that fixes B' below.  Every value
at the frame y' (s, check 3's I(y'), check 6's M(y') and the J_f(y') that
sets the [hat] markers) is read off one packed series point
(``FramePoint``), with mu applied at decode; ``derive_frame`` takes y', H,
G, M and s for the construction and verify alike.  Each identity is
checked once, before ``desingularize`` returns (by ``verify_certificate``,
or ``derive_frame`` for the witness): exactly where possible and to a
recorded precision otherwise.  A construction fault shows as a FAIL in the
report (``gnd`` exits 5).

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
either: ``bound_names`` names U and the T's after the yvars, for the
construction and the reader alike.  The point of B' over v is (yhat, t)
with t = H(y')(yhat - y')/d^2, fixed by yhat alone, so t is not printed
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
                     ResourceError)
from .fields import QQ, RationalField, SimpleExtension
from .poly import (DEGREVLEX, Polynomial, alpha_polynomial, fold_extension,
                   fresh_name, unfold_extension)
from .series import (MAX_PRECISION, CompletionMorphism, TruncatedSeries,
                     series_eval, series_point)
from .smooth import (AlgebraPresentation, bordered_jacobian,
                     columns_first, find_desing_data, identity_matrix,
                     jacobian, matrix_det, matrix_equal, matrix_mul,
                     matrix_scale, reduce_until_nonvanishing,
                     DEFAULT_SUBSET_BUDGET)


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


def bound_names(base_var, series_field, yvars, c):
    """D and the tvars, which no certificate prints, as gnd and the reader
    both take them: A's field is the base field of the series field; U,
    over a Q(alpha) only, is fresh against x and the yvars (so against B's
    variables: the bordering's Z never starts with U); each T_j, one per
    yvar and none in a short circuit (c = 0), is fresh against x, the
    yvars and the T's before it."""
    taken = (base_var,) + tuple(yvars)
    tvars = ()
    for j in range(len(yvars) if c else 0):
        tvars += (fresh_name(f"T{j + 1}", taken + tvars),)
    if isinstance(series_field, SimpleExtension):
        return DPresentation(base_var, series_field.base, series_field,
                             fresh_name("U", taken)), tvars
    return DPresentation(base_var, series_field, series_field), tvars


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


# The bordered algebra and morphism, their witness data and the new variable.
BorderStep = namedtuple("BorderStep", "algebra morphism data zvar")
# The bordered witness: the subset and the minor's columns, each with the
# bordering relation and Z last, N*Z^2 and c.
BorderedData = namedtuple("BorderedData", "subset columns witness c")


def border_step(B, v, data):
    """Adjoin Z with -d' + P'Z = 0 so that d = d'^2 lands in the new ideal."""
    if data.c < 1:
        raise DomainError("bordering applies only to the non-smooth case")
    Z = fresh_name("Z", B.ring_variables())
    ring1 = (B.base_var,) + B.variables + (Z,)
    zpoly = Polynomial.variable(ring1, B.field, Z)
    dprime = Polynomial.variable(ring1, B.field, B.base_var, data.c)
    pprime = (data.minor * data.witness).embed(ring1)
    frp1 = -dprime + pprime * zpoly
    B1 = AlgebraPresentation(base_var=B.base_var, variables=B.variables + (Z,),
                             field=B.field, relations=B.relations + [frp1])
    z = data.z
    if z.order() is not None and z.order() > 0:
        raise ConsistencyError("z must be a unit series")
    v1 = CompletionMorphism(base_var=v.base_var, field=v.field,
                            images=dict(v.images, **{Z: z}))
    if not v1.eval(frp1).is_zero():
        raise PrecisionError("bordered relation does not vanish on the images")
    data1 = BorderedData(subset=data.subset + (len(B1.relations) - 1,),
                         columns=data.columns + (len(B.variables),),
                         witness=data.witness.embed(ring1) * zpoly * zpoly,
                         c=data.c)
    return BorderStep(algebra=B1, morphism=v1, data=data1, zvar=Z)


# ---------------------------------------------------------------------------
# the Artinian frame

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


def build_H_G(fs, yvars, witness):
    """H = Jacobian block over (0 | Id), G = N*adj(H) and M = det H, the
    determinant of H's leading block of the subset rows."""
    return bordered_jacobian(fs, yvars, witness)


@dataclass
class FrameRecord:
    """What ``derive_frame`` derives, all desingularize hands to verify:
    y' (``frame``), H, G, M and s."""

    frame: FramePoint
    H: list
    G: list
    M: Polynomial
    s: Polynomial


def derive_frame(images, c, D, ring, fs, yvars, witness):
    """The frame y' (``images`` below x^(6c)), H, G, M and s = P(y')/d for
    P = M*N: what the construction builds, and what verify derives from a
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
    return FrameRecord(frame, H, G, M, compute_s_b(P, frame, c, D))


def hat_precisions(rec, r, precision, c):
    """The precision to which check 4 reads each [hat] image, by yvar, at a
    point of precision N = ``precision``: max(N - o_j, 6c), o_j = min(4c,
    the least x-order in column j of J_f(y')), J_f the first r rows of H.
    A coefficient of yhat_j at x^e first meets f(yhat) at x^(e + o_j), so
    none above the marker reaches check 4 (module docstring), and y' reads
    yhat below x^(6c)."""
    cut = 4 * c
    orders = [cut] * len(rec.H)
    for row in rec.H[:r]:
        for j, entry in enumerate(row):
            o = rec.frame.series(entry, cut).order()
            if o is not None:
                orders[j] = min(orders[j], o)
    return {yv: max(precision - o, 6 * c)
            for yv, o in zip(rec.frame.yprime, orders)}


def build_h_g(fs, D, hat, precision):
    """g of B''s formula at the [hat] point, which check 4 reads on the
    gnd path and the verify path alike; ``perfbench/tracing.py`` times
    this step by its name.  At t = H(y')(yhat - y')/d^2, h is 0 and Y* is
    yhat once check 1 holds, so g_i(t) = s^p f_i(yhat)/d^2 (module
    docstring).  Each image of ``hat`` is extended by zeros to O(x^N), N =
    ``precision``.  Returns the values f_i(yhat) to O(x^N) of the
    relations ``fs``, which vanish exactly where those of g do to
    O(x^(N - 4c)), with no t built, no division by d^2 and no power of s
    taken; and the series point at yhat."""
    point = D.point(precision, {yv: TruncatedSeries(s.variables, s.field,
                                                    s.terms, precision)
                                for yv, s in hat.items()})
    ring = D.ring_prefix() + tuple(hat)
    return [series_eval(f.restrict(ring), point) for f in fs], point


# ---------------------------------------------------------------------------
# the certificate

def working_ring(D, c, yvars, tvars):
    """x, then U (bordered only: a short circuit, c = 0, lives in B's
    ring), then the yvars, then the tvars."""
    prefix = D.ring_prefix()
    return (prefix[:1] if c == 0 else prefix) + tuple(yvars) + tuple(tvars)


@dataclass
class GndCertificate:
    """What a certificate prints, with D and the tvars (``bound_names``);
    the short circuit (c = 0), the ring, zvar and the minor's columns (the
    first len(subset) yvars) are derived from it, and h, g and s of B' by
    its formula (module docstring)."""

    D: DPresentation             # from [series-field] and U
    witness: Polynomial          # N
    c: int                       # d = x^(2c); 0 in a short circuit
    yvars: tuple                 # permuted algebra variables (with Z)
    tvars: tuple
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
        return working_ring(self.D, self.c, self.yvars, self.tvars)

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


def assemble_certificate(step, D, permutation, yvars, tvars, rec):
    """Package the pipeline output.  [hat] keeps of each image of v what
    check 4 reads of it (``hat_precisions``), y' below x^(6c) included."""
    B1, v1, data = step.algebra, step.morphism, step.data
    marks = hat_precisions(rec, len(data.subset), v1.precision, data.c)
    ring = working_ring(D, data.c, yvars, tvars)
    return GndCertificate(
        D=D, witness=data.witness.embed(ring), c=data.c, yvars=yvars,
        tvars=tvars, permutation=permutation,
        relations=[r.embed(ring) for r in B1.relations],
        subset=data.subset,
        hat_images={yv: v1.images[yv].truncate(marks[yv]) for yv in yvars},
        precision=v1.precision)


def verify_certificate(cert, B, v, derived=None):
    """Re-run the six certificate checks; failures become report entries.
    y', H, G, M and s (``derive_frame``; ``GndCertificate.minor`` in a
    short circuit) are derived first, unless ``derived`` is the record
    desingularize built, and g is read through B''s formula at the [hat]
    point (``build_h_g``); a [hat] image printed to another precision than
    check 4 reads it to is a ConsistencyError."""
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
        cert.yvars, cert.witness)
    # each [hat] image is printed to the precision check 4 reads it to, and
    # is extended by zeros above that
    for yv, want in hat_precisions(rec, len(fs), N, c).items():
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


def _short_circuit_certificate(B, v, data):
    permutation = columns_first(data.columns, len(B.variables))
    yvars = tuple(B.variables[j] for j in permutation)
    D, tvars = bound_names(v.base_var, v.field, yvars, 0)
    ring = working_ring(D, 0, yvars, tvars)
    return GndCertificate(
        D=D, witness=data.witness.embed(ring).monic(DEGREVLEX), c=0,
        yvars=yvars, tvars=tvars, permutation=permutation,
        relations=[r.embed(ring) for r in B.relations], subset=data.subset,
        hat_images={yv: v.images[yv].truncate(v.precision) for yv in yvars},
        precision=v.precision)


def desingularize(B, v, subset_budget=DEFAULT_SUBSET_BUDGET):
    """Full pipeline; returns a certificate carrying its own verification."""
    if B.field != QQ or type(v.field) not in (RationalField, SimpleExtension):
        raise DomainError("gnd needs [field] Q, [series-field] Q or Q(alpha)")
    B0 = reduce_until_nonvanishing(B, v, subset_budget=subset_budget)
    data = find_desing_data(B0, v, subset_budget)
    if data.c == 0:
        cert = _short_circuit_certificate(B0, v, data)
        verify_certificate(cert, B0, v)
        return cert
    step = border_step(B0, v, data)
    B1, v1 = step.algebra, step.morphism
    permutation = columns_first(step.data.columns, len(B1.variables))
    yvars = tuple(B1.variables[j] for j in permutation)
    D, tvars = bound_names(v.base_var, v.field, yvars, data.c)
    ring = working_ring(D, data.c, yvars, tvars)
    fs = [B1.relations[i].embed(ring) for i in step.data.subset]
    rec = derive_frame({yv: v1.images[yv] for yv in yvars}, data.c, D, ring,
                       fs, yvars, step.data.witness.embed(ring))
    cert = assemble_certificate(step, D, permutation, yvars, tvars, rec)
    verify_certificate(cert, B0, v, rec)
    return cert
