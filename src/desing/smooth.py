"""Jacobian matrices and minors, the smoothing ideal, and the search for
the data (f, M, N, d') that seeds the desingularization pipeline.

The base ring is k[x] localized at (x); localization only shows up through
unit tests on constant terms, so all ideal computations happen in k[x, Y].

Determinants and adjugates (polynomial or series entries) come from one
division-free characteristic polynomial, Berkowitz's, O(n^4) ring operations.

The witness search and the reduction test candidates by evaluation alone:
v factors through B = A[Y]/I, so a member of I has image zero and is
skipped like any candidate whose image vanishes.  Groebner bases appear
only in the subset table's ((f):I) and in a reduction step.  That step
reduces the generators of the smoothing ideal H modulo the reduced basis
of I; none left is H = I (I lies in H), no progress, and otherwise the
basis of I with the remainders, whose reduced basis is that of H,
replaces I.

Generator subsets run up to the number of algebra variables; the subset
budget counts Jacobian minors, C(n, r) for a subset of r relations in n
variables, the work ``jacobian_minors`` does for it.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field as dc_field

from .errors import (DomainError, PrecisionError, ResourceError,
                     StructuralError)
from .groebner import (DEGREVLEX, IdealPresentation, buchberger,
                       ideal_quotient, normal_form)
from .poly import Polynomial
from .series import TruncatedSeries

DEFAULT_SUBSET_BUDGET = 500
MAX_REDUCTIONS = 5


# ---------------------------------------------------------------------------
# matrices over polynomials or series

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
    first cut to their least precision (Berkowitz, IPL 18, 1984).
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


# ---------------------------------------------------------------------------
# presentations

@dataclass
class AlgebraPresentation:
    """B = A[Y]/I with A = k[x]_(x), presented by generators of I."""

    base_var: str
    variables: tuple          # the algebra variables Y
    field: object
    relations: list
    # one SubsetRow per generator subset visited so far, see subset_table
    _rows: list = dc_field(default_factory=list, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        if self.base_var in self.variables:
            raise StructuralError("base variable clashes with algebra variables")
        ring = self.ring_variables()
        rels = []
        for f in self.relations:
            if set(f.variables) - set(ring):
                raise StructuralError(
                    f"relation uses undeclared variables: {f.variables}")
            if f.field != self.field:
                raise StructuralError("relation over the wrong field")
            g = f.embed(ring)
            if not g.is_zero():
                rels.append(g)
        self.relations = rels

    def ring_variables(self):
        return (self.base_var,) + self.variables

    def ideal(self):
        return IdealPresentation(self.ring_variables(), self.field,
                                 list(self.relations))

    def subset_table(self, subset_budget=DEFAULT_SUBSET_BUDGET):
        """Yield one SubsetRow per generator subset f, in search order.

        Rows are computed on first demand and kept on the presentation, so
        the smoothing ideal and the witness search share every minor and
        every ((f):I).  A subset of r relations costs its C(n, r) Jacobian
        minors; reaching one that takes the total past ``subset_budget``
        raises.
        """
        n = len(self.variables)
        spent = 0
        for k, subset in enumerate(_subset_stream(len(self.relations), n)):
            spent += math.comb(n, len(subset))
            if spent > subset_budget:
                raise ResourceError(
                    f"subset budget of {subset_budget} minors exhausted "
                    f"after {k} subsets")
            if k == len(self._rows):
                fs = [self.relations[i] for i in subset]
                minors = jacobian_minors(fs, self.variables)
                quotient = ideal_quotient(
                    IdealPresentation(self.ring_variables(), self.field, fs),
                    self.ideal()).generators if minors else []
                self._rows.append(SubsetRow(subset, minors, quotient))
            yield self._rows[k]


# One generator subset f (indices into the relation list), its nonzero
# Jacobian minors as (columns, minor) pairs, and the generators of ((f):I),
# left empty when no minor is nonzero.
SubsetRow = namedtuple("SubsetRow", "subset minors quotient")


@dataclass
class DesingData:
    """One witness (f, M, N) with d' = x^c and the unit z, d' = v(M·N)·z."""

    subset: tuple             # indices into the relation list
    columns: tuple            # algebra-variable indices of the minor columns
    minor: Polynomial         # M
    witness: Polynomial       # N in ((f):I)
    c: int
    dprime: Polynomial        # x^c in the ambient ring
    z: TruncatedSeries
    pprime: Polynomial = None     # M·N

    def __post_init__(self):
        if self.pprime is None:
            self.pprime = self.minor * self.witness


# ---------------------------------------------------------------------------
# Jacobian data

def jacobian(relations, variables):
    """Rows indexed by relations, columns by the given variables only."""
    return [[f.derivative(v) for v in variables] for f in relations]


def jacobian_minors(relations, variables):
    """(columns, minor) for every nonzero r x r minor of the Jacobian in Y."""
    r = len(relations)
    jac = jacobian(relations, variables)
    out = []
    for cols in itertools.combinations(range(len(variables)), r):
        m = matrix_det([[row[j] for j in cols] for row in jac])
        if not m.is_zero():
            out.append((cols, m))
    return out


def bordered_jacobian(fs, yvars, witness):
    """H = the Jacobian of fs in yvars over (0 | Id), and G = N·adj(H).

    With the first r columns carrying the minor M, det(H) = M and
    GH = HG = M·N·Id.  H = [[A, C], [0, Id]] has
    adj(H) = [[adj A, -adj(A)·C], [0, det(A)·Id]], so only the r x r
    block A needs an adjugate.
    """
    r, n = len(fs), len(yvars)
    eye = identity_matrix(n, fs[0].variables, fs[0].field)
    H = jacobian(fs, yvars) + eye[r:]
    det_A, adj_A = _berkowitz([row[:r] for row in H[:r]], adjugate=True)
    adj_AC = matrix_mul(adj_A, [row[r:] for row in H[:r]])
    adj = [a + [-e for e in c] for a, c in zip(adj_A, adj_AC)]
    adj += [eye[i][:i] + [det_A] + eye[i][i + 1:] for i in range(r, n)]
    return H, [[witness * entry for entry in row] for row in adj]


def _subset_stream(count, n_vars):
    """Generator subsets in lexicographic index order, smallest size first."""
    for r in range(1, min(count, n_vars) + 1):
        for subset in itertools.combinations(range(count), r):
            yield subset


def smoothing_ideal(B, subset_budget=DEFAULT_SUBSET_BUDGET):
    """Sum over generator subsets f of ((f):I)·Δ_f, plus I itself.

    The zero ideal presents a polynomial algebra and yields the unit ideal.
    """
    ring = B.ring_variables()
    if not B.relations:
        return IdealPresentation(ring, B.field, [Polynomial.one(ring, B.field)])
    gens = list(B.relations)
    for row in B.subset_table(subset_budget):
        for q in row.quotient:
            for _, m in row.minors:
                prod = q * m
                if not prod.is_zero():
                    gens.append(prod)
    return IdealPresentation(ring, B.field, gens)


# ---------------------------------------------------------------------------
# the search for desingularization data

def check_morphism(B, v):
    """Every relation must vanish on the series images to precision."""
    for f in B.relations:
        img = v.eval(f)
        if not img.is_zero():
            raise DomainError(
                f"images do not satisfy relation {f} to precision "
                f"{v.precision}")


def best_witness(B, evaluate, subset_budget=DEFAULT_SUBSET_BUDGET):
    """The candidate P' = M·N of least order(evaluate(P')), or None.

    M runs over the nonzero minors of each generator subset f and N over
    the reduced-GB generators of ((f):I); a candidate whose value vanishes
    to precision is skipped, as is every member of I when ``evaluate``
    kills I.  Ties go to the first in search order; order 0 ends the
    search.  Returns (order, subset, columns, M, N, value).
    """
    best = None
    for row in B.subset_table(subset_budget):
        for cols, minor in row.minors:
            for witness in row.quotient:
                value = evaluate(minor * witness)
                c = value.order()
                if c is not None and (best is None or c < best[0]):
                    best = (c, row.subset, cols, minor, witness, value)
        if best is not None and best[0] == 0:
            break
    return best


def find_desing_data(B, v, subset_budget=DEFAULT_SUBSET_BUDGET):
    """Deterministic search for the witness with minimal vanishing order c
    = order(v(M·N)); see best_witness for the candidates and tie-break.
    v must kill I (checked first)."""
    check_morphism(B, v)
    if not B.relations:
        # polynomial algebra: the empty system has unit minor
        return _trivial_data(B, v)
    best = best_witness(B, v.eval, subset_budget)
    if best is None:
        raise DomainError(
            "smoothing ideal vanishes on the images to precision; "
            "try reduce_until_nonvanishing first")
    c, subset, cols, minor, witness, img = best
    if v.precision < 10 * c:
        raise PrecisionError(
            f"need precision >= {10 * c} for c = {c}, have {v.precision}")
    ring = B.ring_variables()
    dprime = Polynomial.variable(ring, B.field, B.base_var, c) if c else \
        Polynomial.one(ring, B.field)
    xc = TruncatedSeries(
        (v.base_var,), v.field,
        {(c,): v.field.one()}, v.precision)
    z = xc.divide_exact(img)
    return DesingData(subset=tuple(subset), columns=tuple(cols), minor=minor,
                      witness=witness, c=c, dprime=dprime, z=z)


def _trivial_data(B, v):
    ring = B.ring_variables()
    one = Polynomial.one(ring, B.field)
    z = TruncatedSeries.one((v.base_var,), v.field, v.precision)
    return DesingData(subset=(), columns=(), minor=one, witness=one, c=0,
                      dprime=one, z=z)


def reduce_until_nonvanishing(B, v, subset_budget=DEFAULT_SUBSET_BUDGET):
    """Replace B by B/(smoothing ideal) while its image under v vanishes.
    v kills I (checked first), so a member of I has image zero and the
    first generator with a nonzero image ends the search.  Otherwise the
    generators of H are reduced modulo the basis of I: none left is H = I,
    no progress; else the basis of I and those remainders, whose reduced
    basis is that of H, present the next algebra."""
    check_morphism(B, v)
    current = B
    for step in itertools.count():
        H = smoothing_ideal(current, subset_budget)
        if any(not v.eval(g).is_zero() for g in H.generators):
            return current
        GI = buchberger(current.ideal(), DEGREVLEX)
        extra = [r for r in (normal_form(g, GI) for g in H.generators)
                 if not r.is_zero()]
        if not extra:
            raise DomainError(
                "smoothing ideal equals I (no progress): I may be "
                "non-reduced")
        if step >= MAX_REDUCTIONS:
            raise ResourceError(f"reduction cap {MAX_REDUCTIONS} reached")
        current = AlgebraPresentation(
            base_var=current.base_var, variables=current.variables,
            field=current.field,
            relations=buchberger(GI.elements + extra, DEGREVLEX).elements)
