"""Construction of verified standard-smooth factorizations for a morphism
from a finitely presented algebra over a one-dimensional local base into a
truncated power-series ring.

Pipeline: border the presentation so the square of the local parameter lies
in the right ideal, truncate the series solution to an exact polynomial
frame, then build the polynomials h and g whose localized quotient is
standard smooth and factors the morphism.  g comes from the identity check
2 reads: s^p f with every s*Y_j replaced by s*y'_j + d*w_j, divided by d^2,
so no partial derivative of f is taken.  Every value at the frame y' (s,
G(y'), H(y') and check 3's I(y')) is read off one packed series point
(``FramePoint``), exactly, with mu applied at decode; ``derive_frame``
takes y', H, G, M, s and G(y') for the construction and verify alike.
Each identity is checked once, by ``verify_certificate`` before
``desingularize`` returns: exactly where possible and to a recorded
precision otherwise.  A construction fault shows as a FAIL in the report
(``gnd`` exits 5).

The certificate claims that v factors through B' = A[Y, T, W]/(mu, I, h,
g, W*s - 1), with I its [relations] and h, g, W*s - 1 its [bprime]
(B[W]/(W*M*N - 1) in a short circuit), standard smooth where the check-6
determinant is a unit (Pfister-Popescu, "Constructive General Neron
Desingularization for one dimensional local rings", JSC 80 (2017); Swan
(1998) defines standard smooth).  The argument rests on these facts,
each with the check that discharges it:

- H is the bordered Jacobian of the subset relations f, G = N*adj(H) and
  M = det H (the Jacobian minor of f in the minor's columns, which come
  first in the permutation in both kinds of certificate, so that they are
  the first len(subset) yvars) from the same Berkowitz run: derived by
  verify, not printed (``build_H_G``; ``GndCertificate.minor`` in a short
  circuit);
- G*H = H*G = P*Id with P = M*N (check 1, exact);
- N*I lies in (f), so that I = (f) where N is a unit: NOT CHECKED yet;
- s^p f_i = d^2 g_i modulo (h), each h_j = s(Y_j - y'_j) - d (G(y')T)_j
  (check 2, exact), so that f = 0 and g = 0 agree in B'; y' is [hat]
  below x^(6c) (``truncate_lift``);
- I(y') = 0 modulo d^3 (check 3, exact);
- s = P(y')/d with s = 1 modulo d, derived by verify (``compute_s_b``)
  and bound to the last [bprime] relation W*s - 1, so s is a unit of B';
  d = x^(2c) with c >= 1 ([meta] c; c = 0 marks a short circuit);
- h and g vanish at (yhat, t), so the point factors through B' (check 4,
  to the precision the certificate records);
- that point restricts to v on B (check 5, to the same precision);
- det(dg/dT) over the subset's T is a unit at the point (check 6), so B'
  localized at it is standard smooth and still holds the point.
"""

from collections import namedtuple
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import (ConsistencyError, DomainError, PrecisionError,
                     ResourceError)
from .fields import QQ, RationalField, SimpleExtension, _integral
from .groebner import _fresh_name
from .poly import (Polynomial, alpha_polynomial, check_power_budget,
                   fold_extension, unfold_extension)
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

    def reduce(self, poly):
        """Normal form with the extension-generator degree below deg(mu):
        the terms that share their U-free monomial form a polynomial in U,
        reduced by mu as the series field reduces its elements."""
        if self.ext_var is None or self.ext_var not in poly.variables:
            return poly
        i, K = poly.variables.index(self.ext_var), self.series_field
        rows, terms = {}, {}
        for m, c in poly.terms.items():
            rows.setdefault(m[:i] + (0,) + m[i + 1:], {})[m[i]] = c
        for m, row in rows.items():
            coeffs = K._reduce(row.get(e, 0) for e in range(max(row) + 1))
            terms.update((m[:i] + (e,) + m[i + 1:], _integral(c))
                         for e, c in enumerate(coeffs) if c)
        return Polynomial._nonzero(poly.variables, poly.field, terms)

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
    y' (``frame``), H, G, M, s, and G(y') once, after verify binds s."""

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


def build_h_g(fs, yprime, yvars, tvars, c, s, Gy, p, D):
    """h = s(Y - y') - d G(y')T; g_i = s^p f_i / d^2 with every s*Y_j
    replaced by s*y'_j + d*w_j, the identity check 2 reads; d = x^(2c)."""
    x = D.base_var
    d = Polynomial.variable(s.variables, s.field, x, 2 * c)
    h, sY = _h_and_sY(yprime, yvars, tvars, s, d, Gy)
    g = []
    for phi in _phis(fs, yvars, sY, s, p, D):
        if phi is None:
            raise ConsistencyError("generator degree exceeds p")
        g.append(_x_shift(D.reduce(phi), x, 4 * c, "s^p f_i"))
    return h, g


def _h_and_sY(yprime, yvars, tvars, s, d, Gy):
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


def _phis(fs, yvars, sY, s, p, D):
    """Phi_i = s^p f_i with every s*Y_j replaced by sY[j], for each f_i of
    ``fs`` in turn (None for one of Y-degree above p); the powers of s
    and of each sY[j] are reduced modulo mu and shared."""
    s_pow = [Polynomial.one(s.variables, s.field)]
    for _ in range(p):
        s_pow.append(D.reduce(s_pow[-1] * s))
    powers = [[s_pow[0]] for _ in sY]
    for f in fs:
        yield _substituted_power(f, yvars, sY, powers, s_pow, D)


def _substituted_power(f, yvars, sY, powers, s_pow, D):
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
                powers[j].append(D.reduce(powers[j][-1] * sY[j]))
            if e:
                part = powers[j][e] * part
        k = sum(beta)
        by_degree[k] = by_degree[k] + part if k in by_degree else part
    phi = Polynomial.zero(ring, F)
    for k, part in by_degree.items():
        phi = phi + part * s_pow[p - k]
    return phi


# ---------------------------------------------------------------------------
# the certificate

def working_ring(D, c, yvars, tvars):
    """x, then U (bordered only: a short circuit, c = 0, lives in B's
    ring), then the yvars, then the tvars."""
    prefix = D.ring_prefix()
    return (prefix[:1] if c == 0 else prefix) + tuple(yvars) + tuple(tvars)


@dataclass
class GndCertificate:
    """What a certificate prints; the short circuit (c = 0), p, the ring,
    zvar and the minor's columns (the first len(subset) yvars) are derived
    from it."""

    D: DPresentation
    witness: Polynomial          # N
    c: int                       # d = x^(2c); 0 in a short circuit
    yvars: tuple                 # permuted algebra variables (with Z)
    tvars: tuple
    permutation: tuple = ()      # yvars[i] = original_variables[permutation[i]]
    relations: list = dc_field(default_factory=list)   # bordered ideal in ring
    subset: tuple = ()
    s: Polynomial = None         # the unit W inverts: s, or M*N if short
    z: TruncatedSeries = None    # 1/v(M*N), in a short circuit only
    h: list = dc_field(default_factory=list)
    g: list = dc_field(default_factory=list)
    wvar: str = None
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

    @property
    def p(self):
        """The power of s that check 2 takes: the largest total degree of
        the relations, 0 in a short circuit."""
        return 0 if self.short_circuit else max(
            (r.total_degree() for r in self.relations), default=0)

    @property
    def d(self):
        """d = d'^2 = x^(2c), 1 in a short circuit."""
        return Polynomial.variable(self.ring, self.field, self.base_var,
                                   2 * self.c)

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
    """Package the pipeline output but h and g, which ``desingularize``
    adds, and compute the series images of T.  [hat] and [t] keep what is
    read of them: [hat] below x^(N - 4c), N the precision of v, for checks
    4-6, and below x^(6c) for y'; each T as ``t_precisions`` says."""
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
        subset=step.data.subset, s=rec.s, wvar=_fresh_name("W", ring), t=t,
        hat_images={yv: x.truncate(max(N - 4 * c, 6 * c))
                    for yv, x in hat.items()},
        precision=N)


def verify_certificate(cert, B, v, derived=None):
    """Re-run the six certificate checks; failures become report entries.
    y', H, G, M and s (``derive_frame``; ``GndCertificate.minor`` in a
    short circuit) are derived first, unless ``derived`` is the record
    desingularize built; the unit W inverts in [bprime] must be s (M*N in
    a short circuit), and a [t] image must be printed to the precision
    check 4 reads it to: either mismatch is a ConsistencyError."""
    if cert.short_circuit:
        P = cert.minor() * cert.witness
        if cert.s != P:
            raise ConsistencyError(
                "certificate [bprime] does not end with W*M*N - 1, M the "
                "Jacobian minor of the subset relations in the leading yvars")
        report = [CheckResult(name, True, "vacuous", detail)
                  for name, detail in (
                      ("GH = HG = P*Id", "smooth short-circuit"),
                      ("s^p f = d^2 g mod (h)", "smooth short-circuit"),
                      ("I(y') = 0 mod d^3", "smooth short-circuit"),
                      ("h and g vanish on (yhat, t)", "no h, g"))]
        ok = _hat_is_v(cert, B, v, v.precision) and all(
            v.eval(rel).is_zero() for rel in B.relations)
        report.append(CheckResult("composite factors v", ok,
                                  f"O({v.base_var}^{v.precision})"))
        # z v(M*N) = 1 shows v(M*N) is a unit and binds z, which
        # find_desing_data computes as that inverse
        img = v.eval(P)
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
    n = len(cert.yvars)
    # p bounds the power of s that check 2 takes: refuse one past the
    # reader's budget before any value is derived
    check_power_budget(cert.s, cert.p, "s^p")
    rec = derived or derive_frame(
        {yv: cert.hat_images[yv] for yv in cert.yvars}, c, D, ring,
        cert.subset_relations(), cert.yvars, cert.witness)
    if cert.s != rec.s:
        raise ConsistencyError("certificate [bprime] does not end with "
                               "W*s - 1, s = P(y')/d")
    report = []
    # (1) exact matrix identity
    target = matrix_scale(identity_matrix(n, ring, F), rec.M * cert.witness)
    ok1 = (matrix_equal(matrix_mul(rec.G, rec.H), target)
           and matrix_equal(matrix_mul(rec.H, rec.G), target))
    report.append(CheckResult("GH = HG = P*Id", ok1, "exact"))

    # (2) membership by substitution
    ok2 = _check_membership(cert, rec.frame.yprime, rec.Gy)
    report.append(CheckResult("s^p f = d^2 g mod (h)", ok2, "exact"))

    # (3) the frame solves the ideal modulo d^3
    ok3 = all(rec.frame.series(rel, 6 * c).is_zero()
              for rel in cert.relations)
    report.append(CheckResult("I(y') = 0 mod d^3", ok3, "exact"))

    # (4) h and g vanish on the series point (yhat, t), which checks 5
    # and 6 share; a T image is printed to the precision this check reads
    # it to, and is extended by zeros above that
    prec4 = cert.precision - 4 * c
    images = dict(cert.hat_images)
    for tv, want in zip(cert.tvars, t_precisions(rec.Gy, len(cert.subset),
                                                 prec4, c)):
        t = cert.t[tv]
        if t.precision != want:
            raise ConsistencyError(
                f"certificate [t] {tv} is printed to O({cert.base_var}^"
                f"{t.precision}); check 4 reads it to O({cert.base_var}^"
                f"{want})")
        images[tv] = TruncatedSeries(t.variables, t.field, t.terms, prec4)
    point = D.point(prec4, images)
    ok4 = all(series_eval(q, point).is_zero() for q in cert.h + cert.g)
    report.append(CheckResult("h and g vanish on (yhat, t)", ok4,
                              f"O({cert.base_var}^{prec4})"))

    # (5) the composite agrees with v
    ok5 = _hat_is_v(cert, B, v, prec4) and all(
        series_eval(rel, point).is_zero() for rel in B.relations)
    report.append(CheckResult("composite factors v", ok5,
                              f"O({cert.base_var}^{prec4})"))

    # (6) det of the leading T-block of the Jacobian of g is a unit
    tvars = cert.tvars[:len(cert.g)]
    mat = [[series_eval(g.derivative(tv), point) for tv in tvars]
           for g in cert.g]
    det = matrix_det(mat) if mat else point.one
    ok6 = det.order() == 0
    report.append(CheckResult("smoothness witness is a unit", ok6,
                              f"O({cert.base_var}^{prec4})"))
    cert.report = report
    return report


def _check_membership(cert, yprime, Gy):
    """Check 2: s^p f_i = d^2 g_i mod (h) for every subset relation f_i.

    Each h_j must be exactly s(Y_j - y'_j) - d w_j with w = G(y')T, so that
    s Y_j = s y'_j + d w_j mod (h).  A term c m Y^beta of f_i (m free of Y)
    has |beta| <= p, so s^p c m Y^beta = c m s^(p-|beta|) (s Y)^beta, and
    s^p f_i - Phi_i lies in (h), where Phi_i replaces every s Y_j by
    s y'_j + d w_j.  The membership then holds when Phi_i - d^2 g_i
    vanishes modulo mu.  A wrong number of h or g fails.  ``yprime`` is the
    frame y' and ``Gy`` G(y'), read off the point at y' that check 3
    shares.
    """
    D, fs = cert.D, cert.subset_relations()
    if len(cert.h) != len(cert.yvars) or len(cert.g) != len(fs):
        return False
    s, d = cert.s, cert.d
    h, sY = _h_and_sY(yprime, cert.yvars, cert.tvars, s, d, Gy)
    if h != cert.h:
        return False
    check_power_budget(s, cert.p, "s^p")
    d2 = d * d
    return all(phi is not None and D.reduce(phi - d2 * g).is_zero()
               for phi, g in zip(_phis(fs, cert.yvars, sY, s, cert.p, D),
                                 cert.g))


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
        s=(data.minor * data.witness).embed(ring), z=data.z,
        wvar=_fresh_name("W", ring),
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
    cert.h, cert.g = build_h_g(fs, rec.frame.yprime, yvars, tvars, data.c,
                               rec.s, rec.Gy, cert.p, D)
    verify_certificate(cert, B0, v, rec)
    return cert
