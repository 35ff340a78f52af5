"""Groebner bases and the ideal operations the pipeline needs.

Buchberger with the coprime and chain criteria and normal-strategy pair
selection: the open pairs sit in one heap keyed on (order key of the lcm,
i, j), so ties break deterministically.  Division holds the dividend as a
term dict with a max-heap of its monomials and reduces it in place.
Reduced bases are the canonical form for ideal equality.  ``ideal_quotient``
skips the generators of J that already lie in I, whose quotient is (1).
Module Groebner bases come from the same ``buchberger``: a vector is a
polynomial linear in fresh position variables, under a block order that is
position-over-term.  They supply kernels of polynomial matrices via the
syzygy construction.
"""

import heapq
from dataclasses import dataclass, field as dc_field

from .errors import DomainError, ResourceError, StructuralError
from .poly import (DEGREVLEX, LEX, MonomialOrder, Polynomial, block_order,
                   monomial_div, monomial_divides, monomial_lcm, monomial_mul)

DEFAULT_SPAIR_BUDGET = 100000


@dataclass
class IdealPresentation:
    """Finitely generated ideal in an explicit polynomial ring."""

    variables: tuple
    field: object
    generators: list

    def __post_init__(self):
        self.variables = tuple(self.variables)
        gens = []
        for g in self.generators:
            if g.variables != self.variables or g.field != self.field:
                raise StructuralError("generator in wrong ring")
            if not g.is_zero():
                gens.append(g)
        self.generators = gens

    def ring_one(self):
        return Polynomial.one(self.variables, self.field)


@dataclass
class GroebnerBasis:
    order: MonomialOrder
    elements: list
    reduced: bool = True

    @property
    def variables(self):
        return self.elements[0].variables if self.elements else ()


# ---------------------------------------------------------------------------
# division and normal forms

def division(f, basis, order, with_quotients=False):
    """Multivariate division of f by an ordered list of polynomials.

    Returns (quotients, remainder) if requested, else the remainder.  No
    term of the remainder is divisible by any divisor's leading term.  The
    dividend is a term dict with a max-heap of its monomials; a monomial
    cancelled after it was pushed is skipped when popped.  Each step cancels
    the largest term against the first divisor whose leading monomial
    divides it, or moves that term to the remainder.
    """
    F = f.field
    rkey = order.reverse_key
    leads = [g.leading(order) for g in basis]
    tails = {}      # divisor index -> (1/lc, negated tail), on first use
    terms = dict(f.terms)
    heap = [(rkey(m), m) for m in terms]
    heapq.heapify(heap)
    quotients = [{} for _ in basis]
    rem_terms = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = terms.pop(mono, None)
        if coeff is None:
            continue
        for i, (lm, lc) in enumerate(leads):
            if monomial_divides(lm, mono):
                if i not in tails:
                    tails[i] = (F.invert(lc), [(m, F.neg(c)) for m, c
                                               in basis[i].terms.items()
                                               if m != lm])
                inv, tail = tails[i]
                q = monomial_div(mono, lm)
                qc = F.mul(coeff, inv)
                quotients[i][q] = qc
                for m, c in tail:
                    m = monomial_mul(q, m)
                    c = F.mul(qc, c)
                    old = terms.get(m)
                    if old is None:
                        terms[m] = c
                        heapq.heappush(heap, (rkey(m), m))
                    else:
                        c = F.add(old, c)
                        if F.is_zero(c):
                            del terms[m]
                        else:
                            terms[m] = c
                break
        else:
            rem_terms[mono] = coeff
    rem = Polynomial(f.variables, F, rem_terms)
    if with_quotients:
        return [Polynomial(f.variables, F, q) for q in quotients], rem
    return rem


def normal_form(f, gb, order=None):
    """Remainder of f modulo a Groebner basis."""
    if isinstance(gb, GroebnerBasis):
        if order is not None and order != gb.order:
            raise StructuralError("normal form under a different order than the basis")
        order = gb.order
        basis = gb.elements
    else:
        basis = list(gb)
        order = order or DEGREVLEX
    if not basis:
        return f
    if basis[0].variables != f.variables:
        raise StructuralError("polynomial and basis live in different rings")
    return division(f, basis, order)


def s_polynomial(f, g, order):
    (mf, cf), (mg, cg) = f.leading(order), g.leading(order)
    lcm = monomial_lcm(mf, mg)
    F = f.field
    tf = f.term_poly(monomial_div(lcm, mf), F.invert(cf))
    tg = g.term_poly(monomial_div(lcm, mg), F.invert(cg))
    return tf * f - tg * g


def buchberger(ideal, order=DEGREVLEX, budget=DEFAULT_SPAIR_BUDGET):
    """Reduced Groebner basis; deterministic for fixed input."""
    if isinstance(ideal, IdealPresentation):
        gens = ideal.generators
        if not ideal.variables:
            raise StructuralError("empty ambient ring")
    else:
        gens = [g for g in ideal if not g.is_zero()]
    if not gens:
        return GroebnerBasis(order, [])
    G = [g.monic(order) for g in gens]
    leads = [g.leading(order)[0] for g in G]
    pairs = []      # heap of (order key of the lcm, i, j, lcm)

    def add_pairs(k):
        for i in range(k):
            lcm = monomial_lcm(leads[i], leads[k])
            heapq.heappush(pairs, (order.key(lcm), i, k, lcm))

    for k in range(1, len(G)):
        add_pairs(k)
    done = set()
    reductions = 0
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        if lcm == monomial_mul(leads[i], leads[j]):
            continue  # coprime leading terms
        if _chain_criterion(i, j, lcm, leads, done):
            continue
        reductions += 1
        if reductions > budget:
            raise ResourceError(f"S-pair budget {budget} exceeded")
        r = division(s_polynomial(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        r = r.monic(order)
        G.append(r)
        leads.append(r.leading(order)[0])
        add_pairs(len(G) - 1)
    return GroebnerBasis(order, _reduce_basis(G, order))


def _chain_criterion(i, j, lcm, leads, done):
    for k in range(len(leads)):
        if k in (i, j) or not monomial_divides(leads[k], lcm):
            continue
        p1 = (min(i, k), max(i, k))
        p2 = (min(j, k), max(j, k))
        if p1 in done and p2 in done:
            return True
    return False


def _reduce_basis(G, order):
    # minimize: drop elements whose lead is divisible by another kept lead
    leads = [g.leading(order)[0] for g in G]
    minimal = []
    for i, g in enumerate(G):
        redundant = any(
            j != i and monomial_divides(leads[j], leads[i])
            and (leads[j] != leads[i] or j < i)
            for j in range(len(G)))
        if not redundant:
            minimal.append(g)
    # tail-reduce each against the others
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = division(g, others, order) if others else g
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]), reverse=True)
    return reduced


def ideal_member(f, ideal, order=DEGREVLEX):
    gb = ideal if isinstance(ideal, GroebnerBasis) else buchberger(ideal, order)
    return normal_form(f, gb).is_zero()


def ideal_equal(I, J, order=DEGREVLEX):
    a = buchberger(I, order).elements
    b = buchberger(J, order).elements
    return a == b


# ---------------------------------------------------------------------------
# elimination-based ideal operations

def _fresh_name(base, taken):
    name = base
    k = 0
    while name in taken:
        k += 1
        name = f"{base}{k}"
    return name


def eliminate(ideal, drop, order=DEGREVLEX, budget=DEFAULT_SPAIR_BUDGET):
    """Generators of I intersected with the subring without the ``drop`` vars."""
    drop = [v for v in ideal.variables if v in set(drop)]
    keep = tuple(v for v in ideal.variables if v not in set(drop))
    if not drop:
        return IdealPresentation(ideal.variables, ideal.field,
                                 buchberger(ideal, order, budget).elements)
    work_vars = tuple(drop) + keep
    work_order = block_order(len(drop), DEGREVLEX, order)
    gens = [g.embed(work_vars) for g in ideal.generators]
    gb = buchberger(gens, work_order, budget)
    out = []
    for g in gb.elements:
        if all(all(m[i] == 0 for i in range(len(drop))) for m in g.terms):
            out.append(g.restrict(keep))
    return IdealPresentation(keep, ideal.field, out)


def ideal_intersection(I, J, order=DEGREVLEX, budget=DEFAULT_SPAIR_BUDGET):
    """I ∩ J via elimination of t from t·I + (1−t)·J."""
    if I.variables != J.variables or I.field != J.field:
        raise StructuralError("ideals live in different rings")
    t = _fresh_name("t_", I.variables)
    work_vars = (t,) + I.variables
    F = I.field
    tp = Polynomial.variable(work_vars, F, t)
    onem = Polynomial.one(work_vars, F) - tp
    gens = [tp * g.embed(work_vars) for g in I.generators]
    gens += [onem * g.embed(work_vars) for g in J.generators]
    inner = IdealPresentation(work_vars, F, gens)
    elim = eliminate(inner, {t}, order, budget)
    # result already lives in the original ring variables
    return IdealPresentation(I.variables, F,
                             [g.embed(I.variables) for g in elim.generators])


def divide_exact_poly(f, g, order=DEGREVLEX):
    """Exact quotient f/g; raises if g does not divide f."""
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    quotients, rem = division(f, [g], order, with_quotients=True)
    if not rem.is_zero():
        raise DomainError("polynomial division is not exact")
    return quotients[0]


def ideal_quotient(I, J, order=DEGREVLEX, budget=DEFAULT_SPAIR_BUDGET):
    """(I : J) as the intersection of the one-generator quotients (I : h).

    A generator h that already lies in I has (I : h) = (1) and is skipped;
    when every h lies in I, the quotient is (1).
    """
    if not J.generators:
        raise DomainError("quotient by zero ideal is the unit ideal")
    I_gb = buchberger(I, order, budget)
    result = None
    for h in J.generators:
        if ideal_member(h, I_gb):
            continue
        inter = ideal_intersection(
            I, IdealPresentation(I.variables, I.field, [h]), order, budget)
        gens = [divide_exact_poly(g, h, order) for g in inter.generators]
        part = IdealPresentation(I.variables, I.field, gens)
        if result is None:
            result = part
        else:
            result = ideal_intersection(result, part, order, budget)
    if result is None:
        return IdealPresentation(I.variables, I.field, [I.ring_one()])
    gb = buchberger(result, order, budget)
    return IdealPresentation(I.variables, I.field, gb.elements)


def saturate(I, f, order=DEGREVLEX, budget=DEFAULT_SPAIR_BUDGET):
    """(I : f^∞) by eliminating the Rabinowitsch variable from I + (1 − w·f)."""
    if f.is_zero():
        raise DomainError("saturation by zero")
    w = _fresh_name("w_", I.variables)
    work_vars = (w,) + I.variables
    F = I.field
    wp = Polynomial.variable(work_vars, F, w)
    gens = [g.embed(work_vars) for g in I.generators]
    gens.append(Polynomial.one(work_vars, F) - wp * f.embed(work_vars))
    inner = IdealPresentation(work_vars, F, gens)
    elim = eliminate(inner, {w}, order, budget)
    return IdealPresentation(I.variables, F,
                             [g.embed(I.variables) for g in elim.generators])


def radical_member(f, I, order=DEGREVLEX, budget=DEFAULT_SPAIR_BUDGET):
    """f ∈ √I iff 1 ∈ I + (1 − w·f) in the extended ring (Rabinowitsch)."""
    w = _fresh_name("w_", I.variables)
    work_vars = (w,) + I.variables
    F = I.field
    wp = Polynomial.variable(work_vars, F, w)
    gens = [g.embed(work_vars) for g in I.generators]
    gens.append(Polynomial.one(work_vars, F) - wp * f.embed(work_vars))
    gb = buchberger(gens, block_order(1, DEGREVLEX, order), budget)
    return ideal_member(Polynomial.one(work_vars, F), gb)


# ---------------------------------------------------------------------------
# module Groebner bases and kernels of matrices
#
# A vector (v_0, ..., v_{n-1}) over R is the polynomial sum of e_p * v_p in
# R[e_0, ..., e_{n-1}], with fresh position variables e_p ahead of R's
# variables.  Under block_order(n, LEX, order) a term's position dominates
# and position 0 is largest: position-over-term.  The products e_i * e_j
# added as generators make the part of the reduced ideal basis that is
# linear in the e's the reduced module basis.

def vec_is_zero(v):
    return all(c.is_zero() for c in v)


def vec_leading(v, order):
    """(position, monomial, coefficient) under position-over-term, position 0 largest."""
    for pos, c in enumerate(v):
        if not c.is_zero():
            mono, coeff = c.leading(order)
            return pos, mono, coeff
    raise DomainError("zero vector has no leading term")


def _position_ring(n, variables, order):
    # e{p}_ and its fresh variants e{p}_{k} are distinct for distinct p
    evars = tuple(_fresh_name(f"e{p}_", variables) for p in range(n))
    return evars + tuple(variables), block_order(n, LEX, order)


def _encode(v, work_vars):
    n = len(v)
    terms = {}
    for p, c in enumerate(v):
        unit = (0,) * p + (1,) + (0,) * (n - p - 1)
        for m, coeff in c.terms.items():
            terms[unit + m] = coeff
    return Polynomial(work_vars, v[0].field, terms)


def _decode(g, n, variables):
    """The vector of a polynomial linear in the position variables, or None."""
    comps = [{} for _ in range(n)]
    for m, c in g.terms.items():
        if sum(m[:n]) != 1:
            return None
        comps[m.index(1)][m[n:]] = c
    return tuple(Polynomial(variables, g.field, t) for t in comps)


def module_normal_form(v, basis, order):
    """Full reduction of a module element against a list of vectors."""
    work_vars, work_order = _position_ring(len(v), v[0].variables, order)
    rem = division(_encode(v, work_vars),
                   [_encode(b, work_vars) for b in basis], work_order)
    return _decode(rem, len(v), v[0].variables)


def module_groebner(vectors, order=DEGREVLEX, budget=DEFAULT_SPAIR_BUDGET):
    """Reduced Groebner basis of the submodule generated by ``vectors``
    (position-over-term), sorted by position, then leading monomial."""
    vectors = [v for v in vectors if not vec_is_zero(v)]
    if not vectors:
        return []
    n, variables = len(vectors[0]), vectors[0][0].variables
    F = vectors[0][0].field
    work_vars, work_order = _position_ring(n, variables, order)
    e = [Polynomial.variable(work_vars, F, name) for name in work_vars[:n]]
    gens = [e[i] * e[j] for i in range(n) for j in range(i, n)]
    gens += [_encode(v, work_vars) for v in vectors]
    gb = buchberger(gens, work_order, budget)
    basis = [v for v in (_decode(g, n, variables) for g in gb.elements)
             if v is not None]

    def pot_key(v):
        pos, mono, _ = vec_leading(v, order)
        return pos, order.key(mono)

    return sorted(basis, key=pot_key)


@dataclass
class KernelBasis:
    """Generating set of the kernel of a polynomial matrix acting on ring^n."""

    matrix: list
    basis: list = dc_field(default_factory=list)


def kernel_basis(matrix, order=DEGREVLEX, budget=DEFAULT_SPAIR_BUDGET):
    """Generators of {v : M v = 0} via syzygies of the columns of M.

    Augment each column with a unit tag and compute a module Groebner basis
    under position-over-term with the column block dominant; basis elements
    supported entirely on the tag block project to kernel generators.
    """
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        raise StructuralError("empty matrix")
    r, n = len(rows), len(rows[0])
    variables = rows[0][0].variables
    field = rows[0][0].field
    for row in rows:
        if len(row) != n:
            raise StructuralError("ragged matrix")
        for entry in row:
            if entry.variables != variables or entry.field != field:
                raise StructuralError("matrix entries in different rings")
    zero = Polynomial.zero(variables, field)
    one = Polynomial.one(variables, field)
    augmented = []
    for j in range(n):
        col = [rows[i][j] for i in range(r)]
        tag = [one if k == j else zero for k in range(n)]
        augmented.append(tuple(col + tag))
    gb = module_groebner(augmented, order, budget)
    basis = []
    for v in gb:
        if all(c.is_zero() for c in v[:r]):
            basis.append(tuple(v[r:]))
    return KernelBasis(matrix=rows, basis=basis)
