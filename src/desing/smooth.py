"""Jacobian matrices and minors, the smoothing ideal, and the search for
the data (f, M, N, d') that seeds the desingularization pipeline.

The base ring is k[x] localized at (x); localization only shows up through
unit tests on constant terms, so all ideal computations happen in k[x, Y].
Jacobians and their minors come from the matrix kernel of ``check``.

The witness search and the reduction test candidates by evaluation alone:
v factors through B = A[Y]/I, so a member of I has image zero and is
skipped like any candidate whose image vanishes.  Groebner bases appear
only in the subset table's ((f):I), in the reduced basis of I, and in a
reduction step.  Each ((f):I) stops at its lower bound (f)
(``ideal_quotient``): for a proper subset the first ((f):h) is most often
(f) itself, and then it takes one elimination.  A proper subset whose
((f):I) lies in I adds only members of I to H and to the witness search,
so its row takes no minor past the first nonzero one and keeps none; the
basis of I for that test is computed on first need and kept on the
presentation.  The reduction step reduces the generators of the smoothing
ideal H modulo that basis; none left is H = I (I lies in H), no progress,
and otherwise the basis of I with the remainders, whose reduced basis is
that of H, replaces I.

Generator subsets run up to the number of algebra variables; the subset
budget counts Jacobian minors, C(n, r) for a subset of r relations in n
variables, the most a row computes.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field as dc_field

from .check import jacobian, matrix_det
from .errors import (DomainError, PrecisionError, ResourceError,
                     StructuralError)
from .groebner import (DEGREVLEX, IdealPresentation, buchberger,
                       ideal_quotient, normal_form)
from .poly import Polynomial
from .series import TruncatedSeries

DEFAULT_SUBSET_BUDGET = 500
MAX_REDUCTIONS = 5


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
    # the reduced degrevlex basis of I, see ideal_basis
    _basis: object = dc_field(default=None, init=False, repr=False,
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

    def ideal_basis(self):
        """The reduced degrevlex Groebner basis of I, computed on first
        need and kept, for the subset table and the reduction step."""
        if self._basis is None:
            self._basis = buchberger(self.ideal(), DEGREVLEX)
        return self._basis

    def subset_table(self, subset_budget=DEFAULT_SUBSET_BUDGET):
        """Yield one SubsetRow per generator subset f, in search order.

        Rows are computed on first demand and kept on the presentation, so
        the smoothing ideal and the witness search share every minor and
        every ((f):I).  A subset of r relations counts its C(n, r) Jacobian
        minors, the most its row computes; reaching one that takes the
        total past ``subset_budget`` raises.  A row stops at its first
        nonzero minor to take ((f):I); where f is a proper subset and
        ((f):I) lies in I, every M·N lies in I, so it computes no further
        minor and keeps none.
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
                self._rows.append(self._row(subset))
            yield self._rows[k]

    def _row(self, subset):
        fs = [self.relations[i] for i in subset]
        minors = jacobian_minors(fs, self.variables)
        first = next(minors, None)
        if first is None:
            return SubsetRow(subset, [], [])
        quotient = ideal_quotient(
            IdealPresentation(self.ring_variables(), self.field, fs),
            self.ideal()).generators
        if len(fs) < len(self.relations) and all(
                normal_form(q, self.ideal_basis()).is_zero()
                for q in quotient):
            return SubsetRow(subset, [], quotient)
        return SubsetRow(subset, [first, *minors], quotient)


# One generator subset f (indices into the relation list), its nonzero
# Jacobian minors as (columns, minor) pairs, and the generators of ((f):I),
# left empty when no minor is nonzero.  The minors are left empty too when
# f is a proper subset and ((f):I) lies in I: each M·N then lies in I, adds
# nothing to H beyond I and has image zero at every point that kills I.
SubsetRow = namedtuple("SubsetRow", "subset minors quotient")


@dataclass
class DesingData:
    """One witness (f, M, N) with d' = x^c and the unit z, d' = v(M·N)·z."""

    subset: tuple             # indices into the relation list
    columns: tuple            # algebra-variable indices of the minor columns
    minor: Polynomial         # M
    witness: Polynomial       # N in ((f):I)
    c: int
    z: TruncatedSeries


# ---------------------------------------------------------------------------
# Jacobian data

def jacobian_minors(relations, variables):
    """(columns, minor) for each nonzero r x r minor of the Jacobian in Y,
    in column order, each computed when it is asked for."""
    r = len(relations)
    jac = jacobian(relations, variables)
    for cols in itertools.combinations(range(len(variables)), r):
        m = matrix_det([[row[j] for j in cols] for row in jac])
        if not m.is_zero():
            yield cols, m


def columns_first(columns, n):
    """The permutation of range(n) that puts a minor's columns first, in
    their order, and the other indices after them, in increasing order."""
    return tuple(columns) + tuple(j for j in range(n) if j not in columns)


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
    xc = TruncatedSeries(
        (v.base_var,), v.field,
        {(c,): v.field.one()}, v.precision)
    z = xc.divide_exact(img)
    return DesingData(subset=tuple(subset), columns=tuple(cols), minor=minor,
                      witness=witness, c=c, z=z)


def _trivial_data(B, v):
    ring = B.ring_variables()
    one = Polynomial.one(ring, B.field)
    z = TruncatedSeries.one((v.base_var,), v.field, v.precision)
    return DesingData(subset=(), columns=(), minor=one, witness=one, c=0, z=z)


def reduce_until_nonvanishing(B, v, subset_budget=DEFAULT_SUBSET_BUDGET):
    """Replace B by B/(smoothing ideal) while its image under v vanishes.
    v kills I (checked first), so a member of I has image zero and the
    first generator with a nonzero image ends the search.  Otherwise the
    generators of H are reduced modulo the basis of I, the one the subset
    table kept: none left is H = I, no progress; else the basis of I and
    those remainders, whose reduced basis is that of H, present the next
    algebra, and that basis is the next step's basis of I."""
    check_morphism(B, v)
    current = B
    for step in itertools.count():
        H = smoothing_ideal(current, subset_budget)
        if any(not v.eval(g).is_zero() for g in H.generators):
            return current
        GI = current.ideal_basis()
        extra = [r for r in (normal_form(g, GI) for g in H.generators)
                 if not r.is_zero()]
        if not extra:
            raise DomainError(
                "smoothing ideal equals I (no progress): I may be "
                "non-reduced")
        if step >= MAX_REDUCTIONS:
            raise ResourceError(f"reduction cap {MAX_REDUCTIONS} reached")
        basis = buchberger(GI.elements + extra, DEGREVLEX)
        current = AlgebraPresentation(
            base_var=current.base_var, variables=current.variables,
            field=current.field, relations=basis.elements)
        current._basis = basis
