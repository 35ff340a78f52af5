"""Newton lifting of approximate series solutions, linear factorization
through polynomial algebras (a polynomial solution and the kernel read off
one syzygy module, with no degree bound), and the module-isomorphism
equation systems, checked at a candidate by matrix arithmetic over
truncated series.

The Newton step reuses the bordered Jacobian of ``check.build_H_G``: the
witness search (``smooth.best_witness``) picks a subsystem and a minor, and
with H its Jacobian bordered by (0 | Id) and G = N*adj(H), the linearization
H*delta = -f(y) is solved as delta = -G(y) f(y) / P(y), paying a fixed
valuation cost of c per iteration.
"""

from dataclasses import dataclass

from .check import build_H_G, matrix_det, matrix_mul
from .errors import (DomainError, PrecisionError, ResourceError,
                     StructuralError)
from .groebner import kernel_basis
from .series import (MAX_PRECISION, TruncatedSeries, series_eval,
                     series_point)
from .smooth import (DEFAULT_SUBSET_BUDGET, AlgebraPresentation, best_witness,
                     columns_first)

MAX_NEWTON_ITERATIONS = 200
# linear_factor solves for its z in one dense system of rows x unknowns
# entries; a larger one is refused before it is built
MAX_DENSE_ENTRIES = 1 << 20


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
        # x - factor*0 = x: only the pivot row's nonzero columns change
        pivot = [(j, y) for j, y in enumerate(A[row]) if not F.is_zero(y)]
        for i in range(m):
            factor = A[i][col]
            if i != row and not F.is_zero(factor):
                target = A[i]
                for j, y in pivot:
                    target[j] = F.sub(target[j], F.mul(factor, y))
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
    the fixed loss 2c per step.  Each step inverts the unit u = P(y)/x^k
    once, to the most any ``divide_exact`` of its corrections reads, going
    on from the last step's inverse below ord(u - u_last), where that
    still inverts u: exact, so every quotient is the one from scratch."""
    if req.target > MAX_PRECISION:
        raise ResourceError(f"lift target {req.target} is above "
                            f"{MAX_PRECISION}")
    if req.c < 0:
        raise DomainError(f"lift option c must be at least 0, found {req.c}")
    # generous working precision: each step costs c, convergence is fast
    work = req.target + req.c * (req.target.bit_length() + 8)
    if work > MAX_PRECISION:
        raise ResourceError(f"lift working precision {work} (target "
                            f"{req.target}, c {req.c}) is above "
                            f"{MAX_PRECISION}")
    base = (req.base_var,)
    sample = next(iter(req.y0.values()))
    F = sample.field
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
    pvars = tuple(req.yvars[j] for j in columns_first(cols, n))
    _, G, _ = build_H_G(fs, pvars, witness)
    P = minor * witness

    trace = []
    inverse = inverted = None
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
        # convergence while avoiding full-precision division early on.
        # dp never exceeds the precision of any image of the point: xs is
        # known to work, and each division by P costs the iterate up to c.
        dp = min([2 * cur_ord + 1]
                 + [s.precision for s in at_y.images.values()])
        at_dp = series_point({name: image.truncate(dp)
                              for name, image in at_y.images.items()})
        Pval = series_eval(P, at_dp)
        k = Pval.order()
        if k is None or k > req.c:
            raise DomainError("witness residue degenerated during lifting")
        pad = [s.truncate(dp) for s in sub_res] + \
            [TruncatedSeries.zero(base, F, dp) for _ in range(n - r)]
        nums = {}
        for j, yv in enumerate(pvars):
            num = TruncatedSeries.zero(base, F, dp)
            for i in range(n):
                num = num + series_eval(G[j][i], at_dp) * pad[i]
            if not num.is_zero():
                nums[yv] = num
        if not nums:
            continue
        # each quotient reads 1/u, u = P(y)/x^k, below dp - ord(num) <= dp - k
        unit = TruncatedSeries(base, F, {(e - k,): c for (e,), c
                                         in Pval.terms.items()}, dp - k)
        need = min(dp - min(num.order() for num in nums.values()), dp - k)
        if inverse is not None:
            gap = unit - inverted
            valid = gap.precision if gap.is_zero() else gap.order()
            inverse = inverse.truncate(valid) if valid else None
        inverted = unit.truncate(need)
        inverse = inverted.invert(inverse)
        for yv, num in nums.items():
            delta = num.divide_exact(Pval, inverse)
            padded = TruncatedSeries(base, F, delta.terms,
                                     work - (dp - delta.precision))
            current[yv] = current[yv] - padded
        if min(s.precision for s in current.values()) < req.target:
            raise PrecisionError("working precision exhausted before target")
    raise ResourceError(
        f"no convergence within {MAX_NEWTON_ITERATIONS} iterations")


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


def _solve_by_degrees(matrix, targets, unknown_degrees, F):
    """Coefficients of a vector c with matrix*c = targets over k[x],
    compared degree by degree: c_j = sum of c_(j,d) x^d for
    d < unknown_degrees, and targets[i] lists the x^0, x^1, ... coefficients
    the i-th row must meet. Returns one term dict per c_j (free coefficients
    0), or None when the system is inconsistent."""
    cols = len(matrix[0])
    size = sum(map(len, targets)), cols * unknown_degrees
    if size[0] * size[1] > MAX_DENSE_ENTRIES:
        raise ResourceError(f"the coefficient system has {size[0]} rows and "
                            f"{size[1]} unknowns, past the budget of "
                            f"{MAX_DENSE_ENTRIES} entries")
    unknowns = [(j, d) for j in range(cols) for d in range(unknown_degrees)]
    rows, rhs = [], []
    for row, target in zip(matrix, targets):
        coeffs = [{m[0]: c for m, c in entry.terms.items()} for entry in row]
        for d, value in enumerate(target):
            rows.append([coeffs[j].get(d - dd, F.zero()) if dd <= d
                         else F.zero() for (j, dd) in unknowns])
            rhs.append(value)
    sol = solve_linear(rows, rhs, F)
    if sol is None:
        return None
    terms = [{} for _ in range(cols)]
    for (j, d), val in zip(unknowns, sol):
        if not F.is_zero(val):
            terms[j][(d,)] = val
    return terms


def linear_factor(a, b, yprime, base_var):
    """Write y' = c_part + sum z_k y^(k) over the truncated series ring.

    The reduced syzygy basis of [-b | a] gives both parts: an element
    (t, c) with t a nonzero constant gives c_part = c/t, the normal form of
    every polynomial solution of a*c = b modulo ker a, and the elements with
    t = 0 are the y^(k), the reduced basis of ker a. Without such a t, a*c = b
    has no polynomial solution (DomainError). The z_k solve an exact finite
    linear system, free coordinates set to zero.
    """
    r, n = len(a), len(a[0])
    if any(len(row) != n for row in a):
        raise StructuralError("the matrix rows must have the same length")
    if len(b) != r:
        raise StructuralError(f"the right-hand side has {len(b)} entries "
                              f"for {r} matrix rows")
    if len(yprime) != n:
        raise StructuralError(f"the solution has {len(yprime)} entries for "
                              f"{n} matrix columns")
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
    # the syzygies (t, c) of [-b | a] have a*c = t*b; -b's tag leads the
    # position-over-term order, so at most one basis element has t != 0, first
    syz = kernel_basis([[entry.restrict(base) for entry in (-bi, *row)]
                        for bi, row in zip(b, a)]).basis
    gens = [v[1:] for v in syz if v[0].is_zero()]
    if not syz or syz[0][0].total_degree() != 0:
        raise DomainError("no polynomial particular solution: a*c = t*b "
                          "holds only for t in a proper ideal")
    inv = F.invert(syz[0][0].constant_coefficient())
    c_part = [entry.scale(inv) for entry in syz[0][1:]]
    # z coefficients: one exact linear system over all degrees below prec
    rests = [y - TruncatedSeries.from_polynomial(cp, prec)
             for y, cp in zip(yprime, c_part)]
    terms = _solve_by_degrees(
        [[g[j] for g in gens] for j in range(n)],
        [[rest.coefficient((d,)) for d in range(prec)] for rest in rests],
        prec, F)
    if terms is None:
        raise DomainError("coefficient system unsolvable: the truncated "
                          "module is not flat enough")
    z = [TruncatedSeries(base, F, t, prec) for t in terms]
    return LinearFactorization(matrix=a, rhs=b, particular=c_part,
                               kernel=gens, z=z, precision=prec)


# ---------------------------------------------------------------------------
# module isomorphism systems

@dataclass
class ModuleIsoSystem:
    """u*X = Y*v, Z*(u*X) = v and det(X)*W = 1 in the unknowns X (n x n),
    Y (t x p), Z (p x t) and W: a solution makes coker(u) and coker(v)
    isomorphic through the basis change X."""
    u: list                      # t x n series matrix
    v: list                      # p x n series matrix
    n: int
    t: int
    p: int
    unknowns: tuple
    equation_count: int


def _names(letter, rows, cols):
    return [[f"{letter}{i + 1}_{j + 1}" for j in range(cols)]
            for i in range(rows)]


def module_iso_system(u, v):
    """The module-isomorphism system of the presentations u and v."""
    t, p = len(u), len(v)
    n = len(u[0])
    if any(len(row) != n for row in u) or any(len(row) != n for row in v):
        raise StructuralError("u and v must have the same column count")
    blocks = _names("X", n, n) + _names("Y", t, p) + _names("Z", p, t)
    unknowns = tuple(name for row in blocks for name in row) + ("W",)
    return ModuleIsoSystem(u=u, v=v, n=n, t=t, p=p, unknowns=unknowns,
                           equation_count=t * n + p * n + 1)


def check_candidate(sys, candidate, precision):
    """All equations vanish to precision and det(X) is a unit series.

    Each candidate entry is truncated to the least of precision, its own
    precision and that of u[0][0]; u and v keep their own precisions.
    """
    prec = min(precision, sys.u[0][0].precision)

    def value(name):
        s = candidate[name]
        return s.truncate(min(prec, s.precision))

    def block(letter, rows, cols):
        return [[value(name) for name in row]
                for row in _names(letter, rows, cols)]

    X = block("X", sys.n, sys.n)
    ux = matrix_mul(sys.u, X)
    for lhs, rhs in ((ux, matrix_mul(block("Y", sys.t, sys.p), sys.v)),
                     (matrix_mul(block("Z", sys.p, sys.t), ux), sys.v)):
        for lrow, rrow in zip(lhs, rhs):
            if any(not (a - b).is_zero() for a, b in zip(lrow, rrow)):
                return False
    det = matrix_det(X)
    W = value("W")
    one = TruncatedSeries.one(W.variables, W.field, prec)
    return (det * W - one).is_zero() and det.order() == 0
