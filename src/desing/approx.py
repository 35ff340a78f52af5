"""Newton lifting of approximate series solutions, linear factorization
through polynomial algebras, and the module-isomorphism equation systems.

The Newton step reuses the bordered-Jacobian trick of ``smooth``: the witness
search (``smooth.best_witness``) picks a subsystem and a minor, and with H its
Jacobian bordered by (0 | Id) and G = N*adj(H), the linearization
H*delta = -f(y) is solved as delta = -G(y) f(y) / P(y), paying a fixed
valuation cost of c per iteration.
"""

from dataclasses import dataclass, field as dc_field

from .errors import (DomainError, PrecisionError, ResourceError,
                     StructuralError)
from .groebner import kernel_basis
from .poly import Polynomial
from .series import TruncatedSeries, series_eval, series_point
from .smooth import (DEFAULT_SUBSET_BUDGET, AlgebraPresentation, best_witness,
                     bordered_jacobian, matrix_det)

MAX_NEWTON_ITERATIONS = 200


# ---------------------------------------------------------------------------
# exact linear algebra over a field (dense, small systems)

def solve_linear(rows, rhs, F):
    """One solution of rows*x = rhs over the field, free unknowns set to 0.

    Returns None when the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        sel = None
        for i in range(row, m):
            if not F.is_zero(A[i][col]):
                sel = i
                break
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
    for i in range(row, m):
        if not F.is_zero(A[i][n]):
            return None
    x = [F.zero()] * n
    for r, col in enumerate(pivots):
        x[col] = A[r][n]
    return x


# ---------------------------------------------------------------------------
# Newton lifting

@dataclass
class LiftRequest:
    system: list                 # polynomials in (x, Y)
    base_var: str
    yvars: tuple
    y0: dict                     # yvar -> TruncatedSeries (terms taken exact)
    c: int
    target: int
    subset_budget: int = DEFAULT_SUBSET_BUDGET

    def __post_init__(self):
        self.yvars = tuple(self.yvars)


@dataclass
class LiftResult:
    values: dict                 # yvar -> TruncatedSeries at target precision
    trace: list                  # min order of f(y_k) per iteration
    iterations: int


def newton_lift(req):
    """Lift y0 to a solution modulo x^target; quadratic convergence up to
    the fixed loss 2c per step."""
    base = (req.base_var,)
    sample = next(iter(req.y0.values()))
    F = sample.field
    # generous working precision: each step costs c, convergence is fast
    iters_bound = req.target.bit_length() + 6
    work = req.target + req.c * (iters_bound + 2)
    xs = TruncatedSeries.variable(base, F, req.base_var, work)
    current = {yv: TruncatedSeries(base, F, dict(req.y0[yv].terms), work)
               for yv in req.yvars}

    # zero relations are dropped, so subset indices refer to B.relations
    B = AlgebraPresentation(
        base_var=req.base_var, variables=req.yvars,
        field=req.system[0].field if req.system else F,
        relations=list(req.system))
    # one point per iterate and one per correction, each shared by all
    at_y = series_point({req.base_var: xs, **current})
    residues = [series_eval(f, at_y) for f in B.relations]
    orders = [s.order() for s in residues]
    start = min((o for o in orders if o is not None), default=None)
    if start is not None and start < 2 * req.c + 1:
        raise DomainError(
            f"f(y0) has order {start}, need >= {2 * req.c + 1}")
    best = best_witness(B, lambda p: series_eval(p, at_y),
                        req.subset_budget)
    if best is None or best[0] > req.c:
        raise DomainError(f"no witness with residue order <= {req.c} at y0")
    _, subset, cols, minor, witness, _ = best
    fs = [B.relations[i] for i in subset]
    r, n = len(fs), len(req.yvars)
    perm = list(cols) + [j for j in range(n) if j not in cols]
    pvars = tuple(req.yvars[j] for j in perm)
    _, G = bordered_jacobian(fs, pvars, witness)
    P = minor * witness

    trace = []
    for it in range(MAX_NEWTON_ITERATIONS):
        if it:
            at_y = series_point({req.base_var: xs, **current})
            residues = [series_eval(f, at_y) for f in B.relations]
        sub_res = [residues[i] for i in subset]
        orders = [s.order() for s in residues]
        finite = [o for o in orders if o is not None]
        cur_ord = min(finite) if finite else None
        trace.append(cur_ord)
        if cur_ord is None or cur_ord >= req.target:
            values = {yv: current[yv].truncate(req.target)
                      for yv in req.yvars}
            return LiftResult(values=values, trace=trace, iterations=it)
        # the correction is only meaningful below twice the residue order;
        # computing it there and padding with zeros keeps the quadratic
        # convergence while avoiding full-precision division early on
        dp = min(work, 2 * cur_ord + 1)
        at_dp = series_point({name: image.truncate(dp)
                              for name, image in at_y.images.items()})
        Pval = series_eval(P, at_dp)
        if Pval.order() is None or Pval.order() > req.c:
            raise DomainError("witness residue degenerated during lifting")
        pad = [s.truncate(dp) for s in sub_res] + \
            [TruncatedSeries.zero(base, F, dp) for _ in range(n - r)]
        for j, yv in enumerate(pvars):
            num = TruncatedSeries.zero(base, F, dp)
            for i in range(n):
                num = num + series_eval(G[j][i], at_dp) * pad[i]
            if num.is_zero():
                continue
            delta = num.divide_exact(Pval)
            padded = TruncatedSeries(base, F, delta.terms,
                                     work - (dp - delta.precision))
            current[yv] = current[yv] - padded
        if min(s.precision for s in current.values()) < req.target:
            raise PrecisionError("working precision exhausted before target")
    raise ResourceError(
        f"no convergence within {MAX_NEWTON_ITERATIONS} iterations")


def strong_approx_check(system, assign, c):
    """True when every residue of the system at the point has order >= c."""
    point = series_point(assign)
    for f in system:
        val = series_eval(f, point)
        ordv = val.order()
        if ordv is None:
            ordv = val.precision
        if ordv < c:
            return False
    return True


# ---------------------------------------------------------------------------
# linear factorization

@dataclass
class LinearFactorization:
    matrix: list                 # r x n over k[x]
    rhs: list                    # length r over k[x]
    particular: list             # length n over k[x]
    kernel: list                 # kernel generators, vectors over k[x]
    z: list                      # series coefficients, one per kernel gen
    precision: int


def _poly_coeff(poly, xvar, d):
    i = poly.variables.index(xvar)
    F = poly.field
    acc = F.zero()
    for m, c in poly.terms.items():
        if m[i] == d and all(e == 0 for k, e in enumerate(m) if k != i):
            acc = F.add(acc, c)
    return acc


def linear_factor(a, b, yprime, base_var, slack=10):
    """Write y' = c_part + sum z_k y^(k) over the truncated series ring.

    c_part is a polynomial particular solution of a*c = b found with a
    degree bound; the y^(k) generate the kernel of a; the z_k solve an
    exact finite linear system, free coordinates set to zero.
    """
    r = len(a)
    n = len(a[0])
    F = a[0][0].field
    prec = min(s.precision for s in yprime)
    base = (base_var,)
    # consistency: a y' = b to precision
    xpoint = series_point({base_var: TruncatedSeries.variable(
        base, F, base_var, prec)})
    for i in range(r):
        acc = TruncatedSeries.zero(base, F, prec)
        for j in range(n):
            acc = acc + series_eval(a[i][j], xpoint) * yprime[j]
        bs = TruncatedSeries.from_polynomial(b[i].restrict(base), prec)
        if not (acc - bs).is_zero():
            raise DomainError("a*y' does not equal b to precision")
    # particular solution with bounded degree
    degs = [p.total_degree() for row in a for p in row if not p.is_zero()]
    degs += [p.total_degree() for p in b if not p.is_zero()]
    bound = max(degs, default=0) + slack
    unknowns = [(j, d) for j in range(n) for d in range(bound + 1)]
    eq_degree = bound + max(degs, default=0) + 1
    rows, rhs = [], []
    for i in range(r):
        for d in range(eq_degree + 1):
            row = []
            for (j, dd) in unknowns:
                if dd > d:
                    row.append(F.zero())
                else:
                    row.append(_poly_coeff(a[i][j], base_var, d - dd))
            rows.append(row)
            rhs.append(_poly_coeff(b[i], base_var, d))
    sol = solve_linear(rows, rhs, F)
    if sol is None:
        raise DomainError("no polynomial particular solution within the "
                          f"degree bound {bound}")
    c_part = []
    for j in range(n):
        terms = {}
        for (jj, d), val in zip(unknowns, sol):
            if jj == j and not F.is_zero(val):
                terms[(d,)] = val
        c_part.append(Polynomial(base, F, terms))
    # kernel of a as a matrix over k[x]
    arow = [[entry.restrict(base) if entry.variables != base else entry
             for entry in row] for row in a]
    kb = kernel_basis(arow)
    gens = kb.basis
    p = len(gens)
    # z coefficients: one exact linear system over all degrees below prec
    targets = []
    for j in range(n):
        cp = TruncatedSeries.from_polynomial(c_part[j], prec)
        targets.append(yprime[j] - cp)
    unknowns_z = [(k, d) for k in range(p) for d in range(prec)]
    rows, rhs = [], []
    for j in range(n):
        for d in range(prec):
            row = []
            for (k, dd) in unknowns_z:
                if dd > d:
                    row.append(F.zero())
                else:
                    row.append(_poly_coeff(gens[k][j], base_var, d - dd))
            rows.append(row)
            rhs.append(targets[j].coefficient((d,)))
    sol = solve_linear(rows, rhs, F)
    if sol is None:
        raise DomainError("coefficient system unsolvable: the truncated "
                          "module is not flat enough")
    z = []
    for k in range(p):
        terms = {}
        for (kk, d), val in zip(unknowns_z, sol):
            if kk == k and not F.is_zero(val):
                terms[(d,)] = val
        z.append(TruncatedSeries(base, F, terms, prec))
    return LinearFactorization(matrix=a, rhs=b, particular=c_part,
                               kernel=gens, z=z, precision=prec)


# ---------------------------------------------------------------------------
# module isomorphism systems

class SeriesPoly:
    """Polynomial in named unknowns with truncated-series coefficients."""

    __slots__ = ("unknowns", "variables", "field", "precision", "terms")

    def __init__(self, unknowns, variables, field, precision, terms):
        self.unknowns = tuple(unknowns)
        self.variables = tuple(variables)
        self.field = field
        self.precision = precision
        self.terms = {m: s for m, s in terms.items() if not s.is_zero()}

    @classmethod
    def constant(cls, unknowns, series):
        mono = (0,) * len(unknowns)
        return cls(unknowns, series.variables, series.field,
                   series.precision, {mono: series})

    @classmethod
    def unknown(cls, unknowns, variables, field, precision, name):
        mono = tuple(int(u == name) for u in unknowns)
        if sum(mono) != 1:
            raise StructuralError(f"unknown name {name!r} not declared")
        one = TruncatedSeries.one(variables, field, precision)
        return cls(unknowns, variables, field, precision, {mono: one})

    def is_zero(self):
        return not self.terms

    def _zero_series(self):
        return TruncatedSeries.zero(self.variables, self.field,
                                    self.precision)

    def __add__(self, other):
        terms = dict(self.terms)
        for m, s in other.terms.items():
            terms[m] = terms[m] + s if m in terms else s
        return SeriesPoly(self.unknowns, self.variables, self.field,
                          min(self.precision, other.precision), terms)

    def __neg__(self):
        return SeriesPoly(self.unknowns, self.variables, self.field,
                          self.precision,
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
        return SeriesPoly(self.unknowns, self.variables, self.field,
                          min(self.precision, other.precision), terms)

    def evaluate(self, assignment):
        acc = self._zero_series()
        for m, s in self.terms.items():
            part = s
            for u, e in zip(self.unknowns, m):
                for _ in range(e):
                    part = part * assignment[u]
            acc = acc + part
        return acc


@dataclass
class ModuleIsoSystem:
    u: list                      # t x n series matrix
    v: list                      # p x n series matrix
    n: int
    t: int
    p: int
    unknowns: tuple
    equations: list = dc_field(default_factory=list)
    detX: SeriesPoly = None
    wname: str = "W"

    def xname(self, i, j):
        return f"X{i + 1}_{j + 1}"

    def yname(self, k, r):
        return f"Y{k + 1}_{r + 1}"

    def zname(self, r, k):
        return f"Z{r + 1}_{k + 1}"


def module_iso_system(u, v):
    """Equations forcing coker(u) and coker(v) to be isomorphic via a basis
    change X: the two substitution families plus the det(X)-unit relation."""
    t, p = len(u), len(v)
    n = len(u[0])
    if any(len(row) != n for row in u) or any(len(row) != n for row in v):
        raise StructuralError("u and v must have the same column count")
    sample = u[0][0]
    variables, F, prec = sample.variables, sample.field, sample.precision
    sys = ModuleIsoSystem(u=u, v=v, n=n, t=t, p=p, unknowns=())
    names = [sys.xname(i, j) for i in range(n) for j in range(n)]
    names += [sys.yname(k, r) for k in range(t) for r in range(p)]
    names += [sys.zname(r, k) for r in range(p) for k in range(t)]
    names.append(sys.wname)
    sys.unknowns = tuple(names)

    def const(series):
        return SeriesPoly.constant(sys.unknowns, series)

    def var(name):
        return SeriesPoly.unknown(sys.unknowns, variables, F, prec, name)

    equations = []
    # family 1: u*X = Y*v, entry (k, j)
    ux = {}
    for k in range(t):
        for j in range(n):
            lhs = None
            for i in range(n):
                term = const(u[k][i]) * var(sys.xname(i, j))
                lhs = term if lhs is None else lhs + term
            ux[(k, j)] = lhs
            rhs = None
            for r in range(p):
                term = var(sys.yname(k, r)) * const(v[r][j])
                rhs = term if rhs is None else rhs + term
            equations.append(lhs - rhs)
    # family 2: Z*(u*X) = v, entry (r, j)
    for r in range(p):
        for j in range(n):
            lhs = None
            for k in range(t):
                term = var(sys.zname(r, k)) * ux[(k, j)]
                lhs = term if lhs is None else lhs + term
            equations.append(lhs - const(v[r][j]))
    # det(X) * W = 1
    xmat = [[var(sys.xname(i, j)) for j in range(n)] for i in range(n)]
    det = matrix_det(xmat)
    sys.detX = det
    one = TruncatedSeries.one(variables, F, prec)
    equations.append(det * var(sys.wname) - const(one))
    sys.equations = equations
    return sys


def check_candidate(sys, candidate, precision):
    """All equations vanish to precision and det(X) is a unit series."""
    assign = {name: candidate[name].truncate(
        min(precision, candidate[name].precision))
        for name in sys.unknowns}
    for eq in sys.equations:
        if not eq.evaluate(assign).is_zero():
            return False
    det = sys.detX.evaluate(assign)
    return det.order() == 0
