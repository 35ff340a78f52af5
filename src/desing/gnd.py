"""Construction of verified standard-smooth factorizations for a morphism
from a finitely presented algebra over a one-dimensional local base into a
truncated power-series ring.

Pipeline: border the presentation so the square of the local parameter lies
in the right ideal, truncate the series solution to an exact polynomial
frame, and read off the frame everything that fixes B' below.  Every value
at the frame y' (s, G(y'), H(y') and check 3's I(y')) is read off one
packed series point (``FramePoint``), exactly, with mu applied at decode;
``derive_frame`` takes y', H, G, M, s and G(y') for the construction and
verify alike.  Each identity is checked once, by ``verify_certificate``
before ``desingularize`` returns: exactly where possible and to a recorded
precision otherwise.  A construction fault shows as a FAIL in the report
(``gnd`` exits 5).

The certificate claims that v factors through

    B' = A[Y, T, W]/(mu, I, h, g, W*s - 1),
    h_j = s(Y_j - y'_j) - d (G(y')T)_j,
    g_i = s^p f_i(y' + (d/s) G(y')T) / d^2,

with I its [relations], f the subset relations, p the largest total degree
of I and d = x^(2c) (B[W]/(W*M*N - 1) in a short circuit), standard
smooth where the check-6 determinant is a unit (Pfister-Popescu,
"Constructive General Neron Desingularization for one dimensional local
rings", JSC 80 (2017); Swan (1998) defines standard smooth).  h, g and s
are given by this formula and never printed or expanded: the certificate
fixes B' through y', c, G, s, the subset and p.  The argument rests on
these facts, each with the check that discharges it:

- H is the bordered Jacobian of the subset relations f, G = N*adj(H) and
  M = det H (the Jacobian minor of f in the minor's columns, which come
  first in the permutation in both kinds of certificate, so that they are
  the first len(subset) yvars) from the same Berkowitz run: derived by
  verify, not printed (``build_H_G``; ``GndCertificate.minor`` in a short
  circuit);
- G*H = H*G = P*Id with P = M*N (check 1, exact);
- P = (R + x^c)^2 for the bordering relation R = -x^c + P'Z, last in I,
  so that d - P = -R(x^c + P'Z) lies in I (exact, by verify before the
  checks: a ConsistencyError otherwise);
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
- h and g vanish at (yhat, t), so the point factors through B' (check 4,
  to the precision the certificate records, ``build_h_g``);
- that point restricts to v on B (check 5, to the same precision);
- det(dg/dT) over the subset's T is a unit at the point (check 6), so B'
  localized at it is standard smooth and still holds the point.
"""

from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import (ConsistencyError, DomainError, PrecisionError,
                     ResourceError)
from .fields import QQ, RationalField, SimpleExtension
from .groebner import _fresh_name
from .poly import (Polynomial, alpha_polynomial, fold_extension,
                   unfold_extension)
from .series import (MAX_PRECISION, CompletionMorphism, TruncatedSeries,
                     series_eval, series_point)
from .smooth import (AlgebraPresentation, DesingData, bordered_jacobian,
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


def make_D(v, taken):
    F = v.field
    if isinstance(F, SimpleExtension):
        U = _fresh_name("U", taken)
        return DPresentation(base_var=v.base_var, field=F.base,
                             series_field=F, ext_var=U)
    return DPresentation(base_var=v.base_var, field=F, series_field=F)


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


# The bordered algebra and morphism, their DesingData and the new variable.
BorderStep = namedtuple("BorderStep", "algebra morphism data zvar")


def border_step(B, v, data):
    """Adjoin Z with -d' + P'Z = 0 so that d = d'^2 lands in the new ideal."""
    if data.c < 1:
        raise DomainError("bordering applies only to the non-smooth case")
    Z = _fresh_name("Z", B.ring_variables())
    ring1 = (B.base_var,) + B.variables + (Z,)
    zpoly = Polynomial.variable(ring1, B.field, Z)
    dprime = Polynomial.variable(ring1, B.field, B.base_var, data.c)
    pprime = (data.minor * data.witness).embed(ring1)
    pprime_z = pprime * zpoly
    frp1 = -dprime + pprime_z
    B1 = AlgebraPresentation(base_var=B.base_var, variables=B.variables + (Z,),
                             field=B.field, relations=B.relations + [frp1])
    z = data.z
    if z.order() is not None and z.order() > 0:
        raise ConsistencyError("z must be a unit series")
    v1 = CompletionMorphism(base_var=v.base_var, field=v.field,
                            images=dict(v.images, **{Z: z}))
    if not v1.eval(frp1).is_zero():
        raise PrecisionError("bordered relation does not vanish on the images")
    minor1 = data.minor.embed(ring1) * pprime
    witness1 = data.witness.embed(ring1) * zpoly * zpoly
    d = dprime * dprime
    P = minor1 * witness1
    # d - P = d'^2 - (P'Z)^2 = -frp1·(d' + P'Z) puts d - P in the ideal
    if d - P != -frp1 * (dprime + pprime_z):
        raise ConsistencyError("d - P is not in the bordered ideal")
    data1 = DesingData(subset=data.subset + (len(B1.relations) - 1,),
                       columns=data.columns + (len(B.variables),),
                       minor=minor1, witness=witness1, c=data.c, z=z)
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
    y' (``frame``), H, G, M, s, and G(y') once, when first read."""

    frame: FramePoint
    H: list
    G: list
    M: Polynomial
    s: Polynomial

    @cached_property
    def Gy(self):
        return [[self.frame(entry) for entry in row] for row in self.G]


def derive_frame(images, c, D, ring, fs, yvars, witness):
    """The frame y' (``images`` below x^(6c)), H, G, M and s = P(y')/d for
    P = M*N: what the construction builds, and what verify derives from a
    certificate."""
    frame = FramePoint(D, truncate_lift(images, c, D, ring))
    H, G, M = build_H_G(fs, yvars, witness)
    return FrameRecord(frame, H, G, M, compute_s_b(M * witness, frame, c, D))


def t_precisions(Gy, m, precision, c):
    """The precision to which check 4 reads each T's image, at a point of
    precision ``precision``: all of it for the first m T (the subset's,
    which g reads through the unit Jacobian of check 6).  Any other T_k
    enters h_j = s(Y_j - y'_j) - d (G(y')T)_j linearly, so a coefficient
    of its image at x^e first meets h at x^(e + 2c + o_k), o_k the least
    x-order in column k of G(y'); it reaches g only above the precision
    (from x^(precision + 2c) on when the precision is at least 4c).  Such
    a T is read below precision - 2c - o_k, and at least below x^1."""
    out = []
    for k in range(len(Gy)):
        if k < m:
            out.append(precision)
            continue
        o = min((mono[0] for row in Gy for mono in row[k].terms),
                default=precision)
        out.append(max(1, precision - 2 * c - o))
    return out


def build_h_g(fs, rec, hat, t, c, precision):
    """The values of h and g at the point (yhat, t), from B''s formula;
    checks 4 and 6 read them, on the gnd path and the verify path alike,
    and ``perfbench/tracing.py`` times this step by its name.

    Each image of ``t`` (in tvar order) is extended by zeros, so that
    Y* = y' + (d/s) G(y')t is exact to O(x^N), N = ``precision``, that
    of v.  Returns the values h_j(yhat, t) = s(yhat_j - y'_j) - d (G(y')t)_j
    to O(x^(N - 4c)); the values f_i(Y*) = d^2 g_i(t) / s^p to O(x^N) of
    the relations ``fs``, which vanish exactly where those of g do to
    O(x^(N - 4c)), with no division by d^2 and no power of s taken; and
    the series point at Y*."""
    D, cut, wcut = rec.frame.D, precision - 4 * c, precision - 2 * c
    x, Fs, yprime = D.base_var, D.series_field, rec.frame.point.images
    t = [TruncatedSeries(s.variables, s.field, s.terms, wcut) for s in t]
    zero = TruncatedSeries.zero((x,), Fs, wcut)
    dw = {}                                     # d (G(y')t)_j
    for yv, row in zip(rec.frame.yprime, rec.Gy):
        w = sum((D.series(e, wcut) * tk for e, tk in zip(row, t) if e.terms),
                zero)
        dw[yv] = TruncatedSeries((x,), Fs, {(e + 2 * c,): a for (e,), a
                                           in w.terms.items()}, precision)
    s = D.series(rec.s, precision)
    h = [s.truncate(cut) * (hat[yv].truncate(cut) - yprime[yv].truncate(cut))
         - dw[yv].truncate(cut) for yv in dw]
    inverse = s.invert()
    star = D.point(precision, {yv: yprime[yv].truncate(precision) + e * inverse
                               for yv, e in dw.items()})
    g = [series_eval(f.restrict(rec.frame.variables), star) for f in fs]
    return h, g, star


# ---------------------------------------------------------------------------
# the certificate

def working_ring(D, c, yvars, tvars):
    """x, then U (bordered only: a short circuit, c = 0, lives in B's
    ring), then the yvars, then the tvars."""
    prefix = D.ring_prefix()
    return (prefix[:1] if c == 0 else prefix) + tuple(yvars) + tuple(tvars)


@dataclass
class GndCertificate:
    """What a certificate prints; the short circuit (c = 0), the ring, zvar
    and the minor's columns (the first len(subset) yvars) are derived from
    it, and h, g and s of B' by its formula (module docstring)."""

    D: DPresentation
    witness: Polynomial          # N
    c: int                       # d = x^(2c); 0 in a short circuit
    yvars: tuple                 # permuted algebra variables (with Z)
    tvars: tuple
    permutation: tuple = ()      # yvars[i] = original_variables[permutation[i]]
    relations: list = dc_field(default_factory=list)   # bordered ideal in ring
    subset: tuple = ()
    z: TruncatedSeries = None    # 1/v(M*N), in a short circuit only
    wvar: str = None             # W of B', which inverts s (M*N if short)
    t: dict = dc_field(default_factory=dict)            # tvar -> series
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
    """Package the pipeline output and compute the series images of T.
    [hat] and [t] keep what is read of them: [hat] below x^(N - 4c), N the
    precision of v, for checks 4-6, and below x^(6c) for y'; each T as
    ``t_precisions`` says."""
    B1, v1, c, frame = step.algebra, step.morphism, step.data.c, rec.frame
    N = v1.precision
    hat = {yv: v1.images[yv].truncate(N) for yv in yvars}
    # t = H(y') (yhat - y') / d^2, entrywise exact series division, with
    # y' and H(y') read off the frame's point
    deltas = [hat[yv] - frame.point.images[yv].truncate(N) for yv in yvars]
    Hy = [[frame.series(entry, N) for entry in row] for row in rec.H]
    xF = v1.field
    d2 = TruncatedSeries((v1.base_var,), xF, {(4 * c,): xF.one()}, N)
    precisions = t_precisions(rec.Gy, len(step.data.subset), N - 4 * c, c)
    zero = TruncatedSeries.zero((v1.base_var,), xF, N)
    t = {tv: sum((a * b for a, b in zip(row, deltas)), zero).divide_exact(
        d2).truncate(k) for tv, row, k in zip(tvars, Hy, precisions)}
    ring = working_ring(D, c, yvars, tvars)
    return GndCertificate(
        D=D, witness=step.data.witness.embed(ring), c=c, yvars=yvars,
        tvars=tvars, permutation=permutation,
        relations=[r.embed(ring) for r in B1.relations],
        subset=step.data.subset, wvar=_fresh_name("W", ring), t=t,
        hat_images={yv: x.truncate(max(N - 4 * c, 6 * c))
                    for yv, x in hat.items()},
        precision=N)


def verify_certificate(cert, B, v, derived=None):
    """Re-run the six certificate checks; failures become report entries.
    y', H, G, M and s (``derive_frame``; ``GndCertificate.minor`` in a
    short circuit) are derived first, unless ``derived`` is the record
    desingularize built, and h and g are read through B''s formula
    (``build_h_g``); a [t] image printed to another precision than check 4
    reads it to is a ConsistencyError."""
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
        # z v(M*N) = 1 shows v(M*N) is a unit and binds z, which
        # find_desing_data computes as that inverse
        img = v.eval(cert.minor() * cert.witness)
        one = TruncatedSeries.one((v.base_var,), v.field, v.precision)
        try:
            ok6 = (cert.z * img).truncate(v.precision) == one
        except DomainError:                 # z known too coarsely
            ok6 = False
        report.append(CheckResult("smoothness witness is a unit", ok6,
                                  f"O({v.base_var}^{v.precision})"))
        cert.report = report
        return report

    ring, F, D, c = cert.ring, cert.field, cert.D, cert.c
    n, r, N = len(cert.yvars), len(cert.subset), cert.precision
    fs = cert.subset_relations()
    rec = derived or derive_frame(
        {yv: cert.hat_images[yv] for yv in cert.yvars}, c, D, ring, fs,
        cert.yvars, cert.witness)
    # the bordering relation R = -x^c + P'Z, last in [relations], puts
    # d - P = -R (x^c + P'Z) in I; P = (R + x^c)^2 binds the witness to it
    P = rec.M * cert.witness
    if P != (cert.relations[-1] + Polynomial.variable(ring, F, D.base_var,
                                                      c)) ** 2:
        raise ConsistencyError(
            "certificate [data] witness does not give P = M*N = (R + x^c)^2, "
            "R the bordering relation")
    report = []
    # (1) exact matrix identity
    target = matrix_scale(identity_matrix(n, ring, F), P)
    ok1 = (matrix_equal(matrix_mul(rec.G, rec.H), target)
           and matrix_equal(matrix_mul(rec.H, rec.G), target))
    report.append(CheckResult("GH = HG = P*Id", ok1, "exact"))

    # (3) the frame solves the ideal modulo d^3, and with (1) it makes g a
    # polynomial, (2): see the module docstring
    ok3 = all(rec.frame.series(rel, 6 * c).is_zero()
              for rel in cert.relations)
    report.append(CheckResult(CHECK_2, ok1 and ok3, "exact",
                              "by checks 1 and 3"))
    report.append(CheckResult("I(y') = 0 mod d^3", ok3, "exact"))

    # (4) h and g vanish on the series point (yhat, t); a T image is
    # printed to the precision this check reads it to, and is extended by
    # zeros above that
    prec4 = N - 4 * c
    t = []
    for tv, want in zip(cert.tvars, t_precisions(rec.Gy, r, prec4, c)):
        image = cert.t[tv]
        if image.precision != want:
            raise ConsistencyError(
                f"certificate [t] {tv} is printed to O({cert.base_var}^"
                f"{image.precision}); check 4 reads it to O("
                f"{cert.base_var}^{want})")
        t.append(image)
    h, g, star = build_h_g(fs, rec, cert.hat_images, t, c, N)
    ok4 = all(q.is_zero() for q in h + g)
    report.append(CheckResult("h and g vanish on (yhat, t)", ok4,
                              f"O({cert.base_var}^{prec4})"))

    # (5) the composite agrees with v
    point = D.point(prec4, cert.hat_images)
    ok5 = _hat_is_v(cert, B, v, prec4) and all(
        series_eval(rel, point).is_zero() for rel in B.relations)
    report.append(CheckResult("composite factors v", ok5,
                              f"O({cert.base_var}^{prec4})"))

    # (6) dg_i/dT_k = (s^(p-1)/d) (J_f(Y*) G(y'))_ik at Y* = y' + (d/s)
    # G(y')t, which is yhat to O(x^prec4) by (4): det(dg/dT) over the
    # subset's T is a unit exactly when det(J_f(Y*) G(y')[:, :r]) has order
    # 2cr.  G(y')[:, :r] is N(y') (adj A(y') over 0), A the minor's block
    # of H, so that determinant is N(y')^r M(Y*) M(y')^(r-1), and M(y')
    # N(y') = s d has order 2c: it has order 2cr exactly when M(Y*) has
    # the order of M(y'), at most 2c
    M = rec.M.restrict(rec.frame.variables)
    order = rec.frame.series(M, 2 * c + 1).order()
    report.append(CheckResult(
        "smoothness witness is a unit",
        order is not None and series_eval(M, star, 2 * c + 1).order() == order,
        f"O({cert.base_var}^{prec4})"))
    cert.report = report
    return report


def _hat_is_v(cert, B, v, precision):
    """The certificate's image of every variable of B is v's, to precision."""
    try:
        return all(cert.hat_images[y].truncate(precision)
                   == v.images[y].truncate(precision) for y in B.variables)
    except (KeyError, DomainError):         # missing, or known too coarsely
        return False


def _short_circuit_certificate(B, v, data, D):
    permutation = columns_first(data.columns, len(B.variables))
    yvars = tuple(B.variables[j] for j in permutation)
    ring = working_ring(D, 0, yvars, ())
    return GndCertificate(
        D=D, witness=data.witness.embed(ring), c=0, yvars=yvars, tvars=(),
        permutation=permutation,
        relations=[r.embed(ring) for r in B.relations], subset=data.subset,
        z=data.z, wvar=_fresh_name("W", ring),
        hat_images={yv: v.images[yv] for yv in yvars},
        precision=v.precision)


def desingularize(B, v, subset_budget=DEFAULT_SUBSET_BUDGET):
    """Full pipeline; returns a certificate carrying its own verification."""
    if B.field != QQ or type(v.field) not in (RationalField, SimpleExtension):
        raise DomainError("gnd needs [field] Q, [series-field] Q or Q(alpha)")
    B0 = reduce_until_nonvanishing(B, v, subset_budget=subset_budget)
    data = find_desing_data(B0, v, subset_budget)
    D = make_D(v, B0.ring_variables())
    if data.c == 0:
        cert = _short_circuit_certificate(B0, v, data, D)
        verify_certificate(cert, B0, v)
        return cert
    step = border_step(B0, v, data)
    B1, v1 = step.algebra, step.morphism
    permutation = columns_first(step.data.columns, len(B1.variables))
    yvars = tuple(B1.variables[j] for j in permutation)
    tvars = tuple(_fresh_name(f"T{j + 1}", (B1.base_var,) + yvars)
                  for j in range(len(yvars)))
    ring = working_ring(D, data.c, yvars, tvars)
    fs = [B1.relations[i].embed(ring) for i in step.data.subset]
    rec = derive_frame({yv: v1.images[yv] for yv in yvars}, data.c, D, ring,
                       fs, yvars, step.data.witness.embed(ring))
    if rec.M != step.data.minor.embed(ring):
        raise ConsistencyError("determinant of H differs from the minor")
    cert = assemble_certificate(step, D, permutation, yvars, tvars, rec)
    verify_certificate(cert, B0, v, rec)
    return cert
