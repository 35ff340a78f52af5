"""Construction of verified standard-smooth factorizations for a morphism
from a finitely presented algebra over a one-dimensional local base into a
truncated power-series ring.

Pipeline: border the presentation so the square of the local parameter lies
in the right ideal, truncate the series solution to an exact polynomial
frame, then build the polynomials h and g whose localized quotient is
standard smooth and factors the morphism.  g comes from the identity check
2 reads: s^p f with every s*Y_j replaced by s*y'_j + d*w_j, divided by d^2,
so no partial derivative of f is taken.  Every value at the frame y' (s,
b, G(y'), H(y') and check 3's I(y')) is read off one packed series point
(``FramePoint``), exactly, with mu applied at decode.  Each identity is
checked once, by ``verify_certificate`` before ``desingularize`` returns:
exactly where possible and to a recorded precision otherwise.  A
construction fault shows as a FAIL in the report (``gnd`` exits 5).
"""

from dataclasses import dataclass, field as dc_field

from .errors import (ConsistencyError, DomainError, PrecisionError,
                     ResourceError)
from .fields import QQ, RationalField, SimpleExtension
from .groebner import _fresh_name, division
from .poly import (DEGREVLEX, Polynomial, alpha_polynomial,
                   check_power_budget, fold_extension, unfold_extension)
from .series import (MAX_PRECISION, CompletionMorphism, TruncatedSeries,
                     series_eval, series_point)
from .smooth import (AlgebraPresentation, DesingData, bordered_jacobian,
                     find_desing_data, identity_matrix,
                     matrix_det, matrix_equal, matrix_mul, matrix_scale,
                     reduce_until_nonvanishing, DEFAULT_SUBSET_BUDGET)


@dataclass
class DPresentation:
    """The intermediate smooth base: A itself, or A[U]/(mu) localized at
    mu', when the series live over a simple extension of the ground field."""

    base_var: str
    field: object                # coefficient field of all polynomial rings
    series_field: object         # equals field, or a simple extension of it
    ext_var: str = None
    mu: Polynomial = None

    def ring_prefix(self):
        if self.ext_var is None:
            return (self.base_var,)
        return (self.base_var, self.ext_var)

    def reduce(self, poly):
        """Normal form with the extension-generator degree below deg(mu)."""
        if self.ext_var is None or self.ext_var not in poly.variables:
            return poly
        return division(poly, [self.mu.embed(poly.variables)], DEGREVLEX)

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
    that values of nearby degrees share the point's packed powers."""

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
                             series_field=F, ext_var=U,
                             mu=alpha_polynomial(F.mu, (U,)))
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


@dataclass
class BorderStep:
    algebra: AlgebraPresentation
    morphism: CompletionMorphism
    data: DesingData
    zvar: str
    frp1: Polynomial
    d: Polynomial                # the square of d'
    P: Polynomial                # minor * witness of the bordered data


def border_step(B, v, data):
    """Adjoin Z with -d' + P'Z = 0 so that d = d'^2 lands in the new ideal."""
    if data.c < 1:
        raise DomainError("bordering applies only to the non-smooth case")
    Z = _fresh_name("Z", B.ring_variables())
    ring1 = (B.base_var,) + B.variables + (Z,)
    zpoly = Polynomial.variable(ring1, B.field, Z)
    dprime, pprime = data.dprime.embed(ring1), data.pprime.embed(ring1)
    pprime_z = pprime * zpoly
    frp1 = -dprime + pprime_z
    B1 = AlgebraPresentation(base_var=B.base_var,
                             variables=B.variables + (Z,),
                             field=B.field,
                             relations=list(B.relations) + [frp1])
    z = data.z
    if z.order() is not None and z.order() > 0:
        raise ConsistencyError("z must be a unit series")
    images = dict(v.images)
    images[Z] = z
    v1 = CompletionMorphism(base_var=v.base_var, field=v.field, images=images)
    img = v1.eval(frp1)
    if not img.is_zero():
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
                       minor=minor1, witness=witness1, c=data.c,
                       dprime=dprime, z=z, pprime=P)
    return BorderStep(algebra=B1, morphism=v1, data=data1, zvar=Z,
                      frp1=frp1, d=d, P=P)


# ---------------------------------------------------------------------------
# the Artinian frame

def truncate_lift(v, c, D, names, ring):
    """Polynomial truncations of the series images below degree 3*ord(d)."""
    cut = 6 * c
    if v.precision < cut:
        raise PrecisionError(
            f"need precision >= {cut} to truncate, have {v.precision}")
    return {name: D.polynomial({m: c for m, c in v.images[name].terms.items()
                                if m[0] < cut}, ring) for name in names}


def _x_shift(poly, xvar, k, what="element"):
    """Exact division by xvar^k; fails loudly when not divisible."""
    if k == 0:
        return poly
    i = poly.variables.index(xvar)
    terms = {}
    for m, c in poly.terms.items():
        if m[i] < k:
            raise ConsistencyError(f"{what} is not divisible by "
                                   f"{xvar}^{k}")
        mm = list(m)
        mm[i] -= k
        terms[tuple(mm)] = c
    return Polynomial(poly.variables, poly.field, terms)


def compute_s_b(fs, P, frame, c, D):
    """s = P(y')/d with s = 1 mod d; b_i = f_i(y')/d^2 with b_i in (d)."""
    x = D.base_var
    s = _x_shift(frame(P), x, 2 * c, "P(y')")
    one = Polynomial.one(s.variables, s.field)
    _x_shift(s - one, x, 2 * c, "s - 1")
    b = []
    for f in fs:
        bi = _x_shift(frame(f), x, 4 * c, "f_i(y')")
        if not bi.is_zero():
            _x_shift(bi, x, 2 * c, "b_i")
        b.append(bi)
    return s, b


def build_H_G(fs, yvars, witness, minor):
    """H = Jacobian block over (0 | Id), G = N*adj(H); checks det H = M."""
    H, G = bordered_jacobian(fs, yvars, witness)
    if matrix_det(H) != minor:
        raise ConsistencyError("determinant of H differs from the minor")
    return H, G


def build_h_g(fs, frame, yvars, tvars, d, s, b, G, p, D):
    """h = s(Y - y') - d G(y')T; g_i = s^p f_i / d^2 with every s*Y_j
    replaced by s*y'_j + d*w_j, the identity check 2 reads; Q_i = g_i -
    s^p b_i - s^p T_i."""
    ring, F = s.variables, s.field
    tpolys = [Polynomial.variable(ring, F, t) for t in tvars]
    h, sY = _h_and_sY(frame, yvars, tpolys, s, d, G)
    s_pow = _s_powers(s, p, D)
    powers = [[s_pow[0]] for _ in sY]
    x = D.base_var
    k = 2 * d.degree_in(x)                  # d = x^(2c), d^2 = x^k
    g, Q = [], []
    for f, bi, tp in zip(fs, b, tpolys):
        phi = _substituted_power(f, yvars, sY, powers, s_pow, D)
        if phi is None:
            raise ConsistencyError("generator degree exceeds p")
        gi = _x_shift(D.reduce(phi), x, k, "s^p f_i")
        g.append(gi)
        Q.append(D.reduce(gi - s_pow[p] * (bi + tp)))
    return h, g, Q


def _h_and_sY(frame, yvars, tpolys, s, d, G):
    """h_j = s(Y_j - y'_j) - d w_j and s y'_j + d w_j, with w = G(y')T."""
    ring, F = s.variables, s.field
    h, sY = [], []
    for row, yv in zip(G, yvars):
        w = Polynomial.zero(ring, F)
        for entry, tp in zip(row, tpolys):
            w = w + frame(entry) * tp
        yp, dw = frame.yprime[yv], d * w
        h.append(s * (Polynomial.variable(ring, F, yv) - yp) - dw)
        sY.append(s * yp + dw)
    return h, sY


def _s_powers(s, p, D):
    """[1, s, ..., s^p], each reduced modulo mu."""
    s_pow = [Polynomial.one(s.variables, s.field)]
    for _ in range(p):
        s_pow.append(D.reduce(s_pow[-1] * s))
    return s_pow


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

@dataclass
class GndCertificate:
    base_var: str
    field: object
    series_field: object
    D: DPresentation
    data: DesingData
    c: int
    p: int
    short_circuit: bool
    ring: tuple                  # working ring (x [, U], Y permuted, T)
    yvars: tuple                 # permuted algebra variables (with Z)
    tvars: tuple
    zvar: str = None
    permutation: tuple = ()      # yvars[i] = original_variables[permutation[i]]
    relations: list = dc_field(default_factory=list)   # bordered ideal in ring
    subset: tuple = ()
    d: Polynomial = None
    s: Polynomial = None
    b: list = dc_field(default_factory=list)
    yprime: dict = dc_field(default_factory=dict)
    H: list = dc_field(default_factory=list)
    G: list = dc_field(default_factory=list)
    h: list = dc_field(default_factory=list)
    g: list = dc_field(default_factory=list)
    Q: list = dc_field(default_factory=list)
    Bprime: AlgebraPresentation = None
    wvar: str = None
    t: dict = dc_field(default_factory=dict)            # tvar -> series
    hat_images: dict = dc_field(default_factory=dict)   # yvar -> series
    precision: int = 0
    report: list = dc_field(default_factory=list)

    def subset_relations(self):
        return [self.relations[i] for i in self.subset]

    def report_lines(self):
        return [r.line() for r in self.report]

    def all_passed(self):
        return all(r.passed for r in self.report)


def assemble_certificate(step, D, permutation, ring, yvars, tvars, frame,
                         s, b, H, G, h, g, Q, p):
    """Package the pipeline output and compute the series images of T."""
    B1 = step.algebra
    c = step.data.c
    v1 = step.morphism
    N = v1.precision
    hat = {yv: v1.images[yv].truncate(N) for yv in yvars}
    # t = H(y') (yhat - y') / d^2, entrywise exact series division, with
    # y' and H(y') read off the frame's point
    deltas = [hat[yv] - frame.point.images[yv].truncate(N) for yv in yvars]
    Hy = [[frame.series(entry, N) for entry in row] for row in H]
    xF = v1.field
    d2 = TruncatedSeries((v1.base_var,), xF, {(4 * c,): xF.one()}, N)
    t = {}
    for j, tv in enumerate(tvars):
        acc = TruncatedSeries.zero((v1.base_var,), xF, N)
        for k in range(len(yvars)):
            acc = acc + Hy[j][k] * deltas[k]
        t[tv] = acc.divide_exact(d2)
    rels = [r.embed(ring) for r in B1.relations]
    Bprime, W = bprime_presentation(ring, D.field, rels + h + g, s,
                                    D.mu if D.ext_var else None)
    data = DesingData(subset=step.data.subset, columns=step.data.columns,
                      minor=step.data.minor.embed(ring),
                      witness=step.data.witness.embed(ring), c=c,
                      dprime=step.data.dprime.embed(ring), z=step.data.z,
                      pprime=step.data.pprime.embed(ring))
    return GndCertificate(
        base_var=B1.base_var, field=D.field, series_field=v1.field, D=D,
        data=data, c=c, p=p, short_circuit=False, ring=ring,
        yvars=yvars, tvars=tvars, zvar=step.zvar, permutation=permutation,
        relations=rels, subset=step.data.subset, d=step.d.embed(ring),
        s=s, b=b, yprime=frame.yprime, H=H, G=G, h=h, g=g, Q=Q,
        Bprime=Bprime, wvar=W, t=t, hat_images=hat, precision=N)


def verify_certificate(cert, B, v):
    """Re-run the six certificate checks; failures become report entries."""
    report = []
    if cert.short_circuit:
        report.append(CheckResult("GH = HG = P*Id", True, "vacuous",
                                  "smooth short-circuit"))
        report.append(CheckResult("s^p f = d^2 g mod (h)", True, "vacuous",
                                  "smooth short-circuit"))
        report.append(CheckResult("I(y') = 0 mod d^3", True, "vacuous",
                                  "smooth short-circuit"))
        report.append(CheckResult("h and g vanish on (yhat, t)", True,
                                  "vacuous", "no h, g"))
        ok = _hat_is_v(cert, B, v, v.precision) and all(
            v.eval(rel).is_zero() for rel in B.relations)
        report.append(CheckResult("composite factors v", ok,
                                  f"O({v.base_var}^{v.precision})"))
        # z v(pprime) = 1 shows v(pprime) is a unit and binds z, which
        # find_desing_data computes as that inverse
        img = v.eval(cert.data.pprime)
        one = TruncatedSeries.one((v.base_var,), v.field, v.precision)
        try:
            ok6 = (cert.data.z * img).truncate(v.precision) == one
        except DomainError:                 # z known too coarsely
            ok6 = False
        report.append(CheckResult("smoothness witness is a unit", ok6,
                                  f"O({v.base_var}^{v.precision})"))
        cert.report = report
        return report

    ring, F, D = cert.ring, cert.field, cert.D
    n = len(cert.yvars)
    c = cert.c
    # (1) exact matrix identity
    P = (cert.data.minor * cert.data.witness).embed(ring)
    target = matrix_scale(identity_matrix(n, ring, F), P)
    ok1 = (matrix_equal(matrix_mul(cert.G, cert.H), target)
           and matrix_equal(matrix_mul(cert.H, cert.G), target))
    report.append(CheckResult("GH = HG = P*Id", ok1, "exact"))

    # (2) membership by substitution
    frame = FramePoint(D, cert.yprime)
    ok2 = _check_membership(cert, frame)
    report.append(CheckResult("s^p f = d^2 g mod (h)", ok2, "exact"))

    # (3) the frame solves the ideal modulo d^3
    ok3 = all(frame.series(rel, 6 * c).is_zero() for rel in cert.relations)
    report.append(CheckResult("I(y') = 0 mod d^3", ok3, "exact"))

    # (4) h and g vanish on the series point (yhat, t), which checks 5
    # and 6 share
    prec4 = min([cert.precision - 4 * c]
                + [t.precision for t in cert.t.values()])
    point = D.point(prec4, {**cert.hat_images, **cert.t})
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


def _check_membership(cert, frame):
    """Check 2: s^p f_i = d^2 g_i mod (h) for every subset relation f_i.

    Each h_j must be exactly s(Y_j - y'_j) - d w_j with w = G(y')T, so that
    s Y_j = s y'_j + d w_j mod (h).  A term c m Y^beta of f_i (m free of Y)
    has |beta| <= p, so s^p c m Y^beta = c m s^(p-|beta|) (s Y)^beta, and
    s^p f_i - Phi_i lies in (h), where Phi_i replaces every s Y_j by
    s y'_j + d w_j.  The membership then holds when Phi_i - d^2 g_i
    vanishes modulo mu.  A wrong number of h or g, or a missing y', fails.
    ``frame`` is the point at y' that check 3 shares.
    """
    ring, F, D = cert.ring, cert.field, cert.D
    n = len(cert.yvars)
    fs = cert.subset_relations()
    if (len(cert.h) != n or len(cert.g) != len(fs)
            or any(yv not in cert.yprime for yv in cert.yvars)):
        return False
    s, d = cert.s, cert.d
    tpolys = [Polynomial.variable(ring, F, t) for t in cert.tvars]
    h, sY = _h_and_sY(frame, cert.yvars, tpolys, s, d, cert.G)
    if h != cert.h:
        return False
    check_power_budget(s, cert.p, "s^p")
    s_pow = _s_powers(s, cert.p, D)
    powers = [[s_pow[0]] for _ in sY]
    d2 = d * d
    for f, g in zip(fs, cert.g):
        phi = _substituted_power(f, cert.yvars, sY, powers, s_pow, D)
        if phi is None or not D.reduce(phi - d2 * g).is_zero():
            return False
    return True


def _hat_is_v(cert, B, v, precision):
    """The certificate's image of every variable of B is v's, to precision."""
    try:
        return all(cert.hat_images[y].truncate(precision)
                   == v.images[y].truncate(precision) for y in B.variables)
    except (KeyError, DomainError):         # missing, or known too coarsely
        return False


def bprime_presentation(ring, fld, relations, unit, mu=None):
    """(B', W) with B' = k[ring, W]/(mu, relations, W*unit - 1) for a fresh
    W: the relations with ``unit`` inverted; ring[0] is the base variable."""
    W = _fresh_name("W", ring)
    bring = tuple(ring) + (W,)
    rels = [mu.embed(bring)] if mu is not None else []
    rels += [r.embed(bring) for r in relations]
    rels.append(Polynomial.variable(bring, fld, W) * unit.embed(bring)
                - Polynomial.one(bring, fld))
    return AlgebraPresentation(base_var=ring[0], variables=bring[1:],
                               field=fld, relations=rels), W


def _short_circuit_certificate(B, v, data, D):
    ring = B.ring_variables()
    Bprime, W = bprime_presentation(ring, B.field, B.relations, data.pprime)
    cert = GndCertificate(
        base_var=B.base_var, field=B.field, series_field=v.field, D=D,
        data=data, c=0, p=0, short_circuit=True, ring=ring,
        yvars=B.variables, tvars=(), permutation=tuple(range(len(B.variables))),
        relations=[r.embed(ring) for r in B.relations], subset=data.subset,
        d=Polynomial.one(ring, B.field), Bprime=Bprime, wvar=W,
        hat_images={yv: v.images[yv] for yv in B.variables},
        precision=v.precision)
    return cert


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
    # permute the algebra variables so the minor columns come first
    cols = list(step.data.columns)
    rest = [j for j in range(len(B1.variables)) if j not in cols]
    permutation = tuple(cols + rest)
    yvars = tuple(B1.variables[j] for j in permutation)
    tvars = tuple(_fresh_name(f"T{j + 1}", (B1.base_var,) + yvars)
                  for j in range(len(yvars)))
    ring = (B1.base_var,) + D.ring_prefix()[1:] + yvars + tvars
    rels = [r.embed(ring) for r in B1.relations]
    fs = [rels[i] for i in step.data.subset]
    p = max(r.total_degree() for r in rels)
    frame = FramePoint(D, truncate_lift(v1, data.c, D, yvars, ring))
    d = step.d.embed(ring)
    P = step.P.embed(ring)
    s, b = compute_s_b(fs, P, frame, data.c, D)
    H, G = build_H_G(fs, yvars, step.data.witness.embed(ring),
                     step.data.minor.embed(ring))
    h, g, Q = build_h_g(fs, frame, yvars, tvars, d, s, b, G, p, D)
    cert = assemble_certificate(step, D, permutation, ring, yvars, tvars,
                                frame, s, b, H, G, h, g, Q, p)
    verify_certificate(cert, B0, v)
    return cert
