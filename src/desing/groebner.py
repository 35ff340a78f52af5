"""Groebner bases and the ideal operations the pipeline needs.

Buchberger with the coprime and chain criteria and normal-strategy pair
selection: the open pairs sit in one heap keyed on (lcm, i, j), so ties
break deterministically.  Division holds the dividend as a term dict with a
max-heap of its monomials and reduces it in place, on ints over Q (content
form: integer numerators over one denominator) and over GF(p) (each sum
reduced mod p once, when its monomial is popped); see ``_divide``.  Bases,
division and S-polynomials over Q(alpha) = Q[alpha]/(mu) run over Q, alpha
a last variable in a block of its own and mu one more generator
(``_over_q``).  Reduced bases are the canonical form for ideal equality.
``ideal_quotient`` skips the generators of J that already lie in I, whose
quotient is (1).  Module Groebner bases come from the same ``buchberger``:
a vector is a polynomial linear in fresh position variables, under a block
order that is position-over-term.  They supply kernels of polynomial
matrices via the syzygy construction.

Packed monomials (Monagan-Pearce, "Sparse polynomial division using a
heap", JSC 46, 2011).  Inside this module a monomial is one int whose
integer order is the monomial order.  The layout is a list of slots, most
significant first: lex has one slot per variable; degrevlex has a degree
slot, then the variables in reverse order, each stored complemented as
C - e; a block order puts the layouts of its two blocks one after the
other.  Each slot holds ``width`` data bits with a guard bit above them,
and C = 2^width - 1.  A monomial is CM + sum(e_i * W_i), where CM holds C
in every complemented slot and W_i is the signed sum of the slots that
variable i enters.  The product of a and b is a + b - CM; a divides b when
d = (b ^ CM) - (a ^ CM) is nonnegative with no guard bit set; the leading
term is the largest int.  ``buchberger`` packs its generators once and
unpacks the reduced basis once; ``division`` and ``s_polynomial`` pack on
entry and unpack on exit, except inside ``buchberger``, where they take
and return packed polynomials.

Overflow rule: slots start wide enough for the product of two monomials of
the inputs (at least 15 bits).  A product or lcm whose exponent passes C
sets a guard bit; the check runs once per divisor multiple, on the largest
exponent of each slot, and the whole call then starts again on slots twice
as wide.  A wide exponent costs a re-run, never a wrong result.
"""

import functools
import heapq
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd

from .errors import DomainError, ResourceError, StructuralError
from .fields import (QQ, PrimeField, RationalField, SimpleExtension,
                     read_back, scaled_to_ints)
from .poly import (DEGREVLEX, LEX, MonomialOrder, Polynomial, block_order,
                   fold_extension, unfold_extension)

SPAIR_BUDGET = 100000


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

    @property
    def variables(self):
        return self.elements[0].variables if self.elements else ()


# ---------------------------------------------------------------------------
# packed monomials (see the module docstring)

_MIN_WIDTH = 15        # data bits of a slot, at the least


class _Overflow(Exception):
    """A packed exponent passed its slot."""


def _slots(order, first, n):
    """The slots of ``order`` on variables first, ..., first+n-1, most
    significant first, as (variables, complemented)."""
    if order.kind == "lex":
        return [((i,), False) for i in range(first, first + n)]
    if order.kind == "degrevlex":
        return [(tuple(range(first, first + n)), False)] + [
            ((i,), True) for i in reversed(range(first, first + n))]
    if order.kind == "block":
        k = min(order.split, n)
        return (_slots(order.inner[0], first, k)
                + _slots(order.inner[1], first + k, n - k))
    raise StructuralError(f"unknown order kind {order.kind}")


@functools.lru_cache(maxsize=64)
def _layout(order, n, width):
    """(CM, guard bits, weights, shift of each variable's own slot)."""
    cm = guard = 0
    weights, shifts = [0] * n, [0] * n
    for k, (variables, complemented) in enumerate(reversed(_slots(order, 0,
                                                                  n))):
        s = k * (width + 1)
        guard |= 1 << (s + width)
        if complemented:
            cm |= ((1 << width) - 1) << s
        for i in variables:
            weights[i] += -(1 << s) if complemented else 1 << s
        if len(variables) == 1:
            shifts[variables[0]] = s
    return cm, guard, tuple(weights), tuple(shifts)


class _Ring:
    """A layout, and the field of the coefficients."""

    __slots__ = ("field", "width", "cm", "guard", "weights", "shifts")

    def __init__(self, order, n, width, field):
        self.field, self.width = field, width
        self.cm, self.guard, self.weights, self.shifts = _layout(order, n,
                                                                 width)

    def pack_monomial(self, mono):
        return self.cm + sum(map(operator.mul, mono, self.weights))

    def unpack_monomial(self, m):
        x, mask = m ^ self.cm, (1 << self.width) - 1
        return tuple([x >> s & mask for s in self.shifts])

    def pack(self, poly):
        pm = self.pack_monomial
        return _Packed(self, {pm(m): c for m, c in poly.terms.items()})

    def unpack(self, terms, variables):
        um = self.unpack_monomial
        return Polynomial._trusted(variables, self.field,
                                   {um(m): c for m, c in terms.items()})

    def slot_max(self, monos):
        """The largest exponent of ``monos`` in each slot, packed: a bound
        on every slot of them, though not a monomial under a degree slot."""
        cm, guard, width = self.cm, self.guard, self.width
        top = 0
        for m in monos:
            x = m ^ cm
            keep = ((top | guard) - x) & guard     # the slots where top >= x
            keep -= keep >> width
            top = top & keep | x & ~keep
        return top ^ cm


def _on_packed(order, polys, run):
    """run(ring) on slots wide enough for products of two of ``polys``,
    and again on slots twice as wide whenever a slot overflows."""
    variables, field = polys[0].variables, polys[0].field
    if any(p.variables != variables or p.field != field for p in polys):
        raise StructuralError("polynomials live in different rings")
    degree = max((sum(m) for p in polys for m in p.terms), default=0)
    width = max(_MIN_WIDTH, (2 * degree).bit_length())
    while True:
        try:
            return run(_Ring(order, len(variables), width, field))
        except _Overflow:
            width *= 2


class _Packed:
    """A polynomial on packed monomials, whose ``lead`` is its largest."""

    __slots__ = ("ring", "terms", "lead", "_tail")

    def __init__(self, ring, terms):
        self.ring, self.terms = ring, terms
        self.lead = max(terms) if terms else None
        self._tail = None

    def is_zero(self):
        return not self.terms

    def monic(self):
        F = self.ring.field
        inv = F.invert(self.terms[self.lead])
        return _Packed(self.ring, {m: F.mul(c, inv)
                                   for m, c in self.terms.items()})

    def tail(self):
        """(lead, slot_max of the tail, the tail negated), on first use.
        Over Q they are the coprime ints of a multiple of the polynomial
        whose lead is positive (so that ``_divide`` never scales by -1);
        over GF(p) ``lead`` is 1/lc and the tail is in the field."""
        if self._tail is None:
            F, terms = self.ring.field, self.terms
            if type(F) is RationalField:
                terms = dict(zip(terms, scaled_to_ints(terms.values())[1]))
                g = gcd(*terms.values())
                g = g if terms[self.lead] > 0 else -g
                lead = terms.pop(self.lead) // g
                tail = [(m, -c // g) for m, c in terms.items()]
            else:
                lead = F.invert(terms[self.lead])
                tail = [(m, F.neg(c)) for m, c in terms.items()
                        if m != self.lead]
            self._tail = lead, self.ring.slot_max(m for m, _ in tail), tail
        return self._tail


# ---------------------------------------------------------------------------
# division and normal forms

def _divide(ring, terms, divisors, quotients=None):
    """The remainder of the packed term dict ``terms`` by the packed
    ``divisors``.  A max-heap holds the monomials of ``terms``; one cancelled
    after it was pushed is skipped when popped.  Each step cancels the
    largest term against the first divisor whose leading monomial divides
    it, or moves that term to the remainder.  With ``quotients``, a dict for
    each divisor, the quotient terms go there.

    The loop runs on ints.  Over GF(p) a sum stays unreduced until its
    monomial is popped, and a sum that cancels is skipped then like a stale
    entry.  Over Q the terms and the remainder are ints over one
    denominator D (content form): before a popped numerator w is cancelled
    against a divisor's integer lead L, the terms and D are scaled by
    s = L / gcd(w, L), and then divided by the gcd of all of them, so that
    no content builds up.  The remainder is read back once."""
    F = ring.field
    p = F.p if type(F) is PrimeField else None
    den = 1
    if p is None and Fraction in set(map(type, terms.values())):
        den, values = scaled_to_ints(terms.values())
        terms = dict(zip(terms, values))
    push, pop = heapq.heappush, heapq.heappop
    cm, guard = ring.cm, ring.guard
    leads = [(d.lead ^ cm, d, k) for k, d in enumerate(divisors)]
    heap = [-m for m in terms]
    heapq.heapify(heap)
    rem = {}
    while heap:
        mono = -pop(heap)
        w = terms.pop(mono, None)
        if w is None:
            continue
        if p:
            w %= p
        if not w:
            continue
        x = mono ^ cm
        for lx, d, k in leads:
            diff = x - lx
            if diff < 0 or diff & guard:
                continue
            lead, top, tail = d.tail()
            q = mono - d.lead           # the quotient, less the monomial 1
            if (q + top) & guard:
                raise _Overflow
            if p is None:
                if quotients is not None:       # (w / D) / lc
                    lc = d.terms[d.lead]
                    quotients[k].update(read_back(F, [(
                        q + cm, w * lc.denominator)], den * lc.numerator))
                h = gcd(w, lead)
                qc, s = w // h, lead // h
                if s != 1:
                    h = gcd(den, qc)    # a factor of s is none of qc
                    if h != 1:
                        h = gcd(h, *terms.values(), *rem.values())
                    den, qc = den * s // h, qc // h
                    terms = {m: c // h * s for m, c in terms.items()}
                    rem = {m: c // h * s for m, c in rem.items()}
            else:
                qc = w * lead % p
                if quotients is not None:
                    quotients[k][q + cm] = qc
            for m, c in tail:
                m += q
                old = terms.get(m)
                if old is None:
                    terms[m] = qc * c
                    push(heap, -m)
                else:
                    terms[m] = old + qc * c
            break
        else:
            rem[mono] = w
    return read_back(F, rem.items(), den)


def division(f, basis, order, with_quotients=False):
    """Multivariate division of f by an ordered list of polynomials.

    Returns (quotients, remainder) if requested, else the remainder.  No
    term of the remainder is divisible by any divisor's leading term.  f and
    the basis are packed on entry and the results unpacked on exit; inside
    ``buchberger``, f and the basis are already packed and so is the
    remainder.  Over Q(alpha) the divisors are made monic and the division
    runs over Q with mu last (``_over_q``): it reduces each monomial as the
    division over Q(alpha) would; the quotients are then scaled back.
    """
    if isinstance(f, _Packed):
        return _Packed(f.ring, _divide(f.ring, dict(f.terms), basis))
    F = f.field
    if isinstance(F, SimpleExtension):
        (f, *lifted), work_order, fold = _over_q(
            [f] + [g.monic(order) for g in basis], order)
        out = division(f, lifted, work_order, with_quotients)
        if not with_quotients:
            return fold(out)
        return ([fold(q).scale(F.invert(g.leading(order)[1]))
                 for q, g in zip(out[0], basis)], fold(out[1]))

    def run(ring):
        quotients = [{} for _ in basis] if with_quotients else None
        rem = _divide(ring, ring.pack(f).terms,
                      [ring.pack(g) for g in basis], quotients)
        rem = ring.unpack(rem, f.variables)
        if not with_quotients:
            return rem
        return [ring.unpack(q, f.variables) for q in quotients], rem

    return _on_packed(order, [f, *basis], run)


def _over_q(polys, order):
    """The polynomials over Q(alpha) = Q[alpha]/(mu), then mu, over Q with
    alpha a fresh last variable; the order with alpha's block last; and the
    map that folds a result back to Q(alpha)."""
    F, variables = polys[0].field, polys[0].variables
    ring = variables + (_fresh_name(F.gen, variables),)
    terms = [p.terms for p in polys] + [{(0,) * len(variables): F.mu}]
    return ([Polynomial._nonzero(ring, QQ, unfold_extension(t))
             for t in terms], block_order(len(variables), order),
            lambda p: Polynomial._nonzero(variables, F, fold_extension(
                F, p.terms.items())))


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
    """lcm/lt(f) * f - lcm/lt(g) * g for the lcm of the leading monomials.
    Inside ``buchberger`` f and g are packed, and so is the result.  Over
    Q(alpha) it is that of monic f and g over Q (``_over_q``), folded."""
    if not isinstance(f, _Packed):
        if isinstance(f.field, SimpleExtension):
            (f, g, _), work_order, fold = _over_q(
                [f.monic(order), g.monic(order)], order)
            return fold(s_polynomial(f, g, work_order))
        return _on_packed(order, [f, g], lambda ring: ring.unpack(
            s_polynomial(ring.pack(f), ring.pack(g), order).terms,
            f.variables))
    ring, F = f.ring, f.ring.field
    lcm = ring.pack_monomial(map(max, ring.unpack_monomial(f.lead),
                                 ring.unpack_monomial(g.lead)))
    (mf, top_f, tail_f), (mg, top_g, tail_g) = f.tail(), g.tail()
    qf, qg, den = lcm - f.lead, lcm - g.lead, 1
    if (lcm | qf + top_f | qg + top_g) & ring.guard:
        raise _Overflow
    # over Q the tails are integral with leads mf and mg: scale by mf * mg
    if type(F) is RationalField:
        mf, mg, den = mg, mf, mf * mg
    terms = {m + qg: mg * c for m, c in tail_g}
    for m, c in tail_f:
        m += qf
        c *= -mf
        if m in terms:
            c += terms.pop(m)
        terms[m] = c
    return _Packed(ring, read_back(F, terms.items(), den))


def buchberger(ideal, order=DEGREVLEX):
    """Reduced Groebner basis; deterministic for fixed input.

    The generators are packed once; pair selection, reduction and
    interreduction run on packed monomials, and the reduced basis is
    unpacked once.  Over Q(alpha) it is the basis over Q of the generators
    and mu (``_over_q``), which is mu and the basis over Q(alpha), less mu."""
    if isinstance(ideal, IdealPresentation):
        gens = ideal.generators
        if not ideal.variables:
            raise StructuralError("empty ambient ring")
    else:
        gens = [g for g in ideal if not g.is_zero()]
    if not gens:
        return GroebnerBasis(order, [])
    if isinstance(gens[0].field, SimpleExtension):
        lifted, work_order, fold = _over_q(gens, order)
        return GroebnerBasis(order, [fold(g) for g in buchberger(
            lifted, work_order).elements if g != lifted[-1]])

    def run(ring):
        basis = _buchberger([ring.pack(g) for g in gens], order)
        return [ring.unpack(g.terms, gens[0].variables) for g in basis]

    return GroebnerBasis(order, _on_packed(order, gens, run))


def _buchberger(G, order):
    ring = G[0].ring
    cm, guard = ring.cm, ring.guard
    leads, plain, exps = [], [], []
    pairs = []      # heap of (packed lcm, i, j)

    def add(g):
        k = len(leads)
        leads.append(g.lead)
        plain.append(g.lead ^ cm)
        exps.append(ring.unpack_monomial(g.lead))
        for i in range(k):
            lcm = ring.pack_monomial(map(max, exps[i], exps[k]))
            if lcm & guard:
                raise _Overflow
            heapq.heappush(pairs, (lcm, i, k))

    for g in G:
        add(g)
    done = set()
    reductions = 0
    while pairs:
        lcm, i, j = heapq.heappop(pairs)
        done.add((i, j))
        if lcm == leads[i] + leads[j] - cm:
            continue  # coprime leading terms
        if _chain_criterion(i, j, lcm ^ cm, plain, guard, done):
            continue
        reductions += 1
        if reductions > SPAIR_BUDGET:
            raise ResourceError(f"S-pair budget {SPAIR_BUDGET} exceeded")
        r = division(s_polynomial(G[i], G[j], order), G, order)
        if r.is_zero():
            continue
        G.append(r)
        add(r)
    return _reduce_basis(G)


def _chain_criterion(i, j, lcm, plain, guard, done):
    """Whether some third lead divides the lcm and its pairs with i and j
    are done; ``lcm`` and ``plain`` are XORed with CM."""
    for k, lead in enumerate(plain):
        d = lcm - lead
        if d < 0 or d & guard or k == i or k == j:
            continue
        p1 = (min(i, k), max(i, k))
        p2 = (min(j, k), max(j, k))
        if p1 in done and p2 in done:
            return True
    return False


def _reduce_basis(G):
    ring = G[0].ring
    cm, guard = ring.cm, ring.guard
    # minimize: drop elements whose lead is divisible by another kept lead
    plain = [g.lead ^ cm for g in G]
    minimal = []
    for i, g in enumerate(G):
        redundant = any(
            j != i and plain[i] - lx >= 0 and not (plain[i] - lx) & guard
            and (lx != plain[i] or j < i)
            for j, lx in enumerate(plain))
        if not redundant:
            minimal.append(g)
    # tail-reduce each against the others
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        if others:
            g = _Packed(ring, _divide(ring, dict(g.terms), others))
        if not g.is_zero():
            reduced.append(g.monic())
    reduced.sort(key=lambda g: g.lead, reverse=True)
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


def eliminate(ideal, drop, order=DEGREVLEX):
    """Generators of I intersected with the subring without the ``drop`` vars."""
    drop = [v for v in ideal.variables if v in set(drop)]
    keep = tuple(v for v in ideal.variables if v not in set(drop))
    if not drop:
        return IdealPresentation(ideal.variables, ideal.field,
                                 buchberger(ideal, order).elements)
    work_vars = tuple(drop) + keep
    work_order = block_order(len(drop), DEGREVLEX, order)
    gens = [g.embed(work_vars) for g in ideal.generators]
    gb = buchberger(gens, work_order)
    out = []
    for g in gb.elements:
        if all(all(m[i] == 0 for i in range(len(drop))) for m in g.terms):
            out.append(g.restrict(keep))
    return IdealPresentation(keep, ideal.field, out)


def ideal_intersection(I, J, order=DEGREVLEX):
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
    return eliminate(IdealPresentation(work_vars, F, gens), {t}, order)


def divide_exact_poly(f, g, order=DEGREVLEX):
    """Exact quotient f/g; raises if g does not divide f."""
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    quotients, rem = division(f, [g], order, with_quotients=True)
    if not rem.is_zero():
        raise DomainError("polynomial division is not exact")
    return quotients[0]


def ideal_quotient(I, J, order=DEGREVLEX):
    """(I : J) as the intersection of the one-generator quotients (I : h).

    A generator h that already lies in I has (I : h) = (1) and is skipped;
    when every h lies in I, the quotient is (1).
    """
    if not J.generators:
        raise DomainError("quotient by zero ideal is the unit ideal")
    I_gb = buchberger(I, order)
    result = None
    for h in J.generators:
        if ideal_member(h, I_gb):
            continue
        inter = ideal_intersection(
            I, IdealPresentation(I.variables, I.field, [h]), order)
        gens = [divide_exact_poly(g, h, order) for g in inter.generators]
        part = IdealPresentation(I.variables, I.field, gens)
        if result is None:
            result = part
        else:
            result = ideal_intersection(result, part, order)
    if result is None:
        return IdealPresentation(I.variables, I.field, [I.ring_one()])
    gb = buchberger(result, order)
    return IdealPresentation(I.variables, I.field, gb.elements)


def saturate(I, f, order=DEGREVLEX):
    """(I : f^∞) by eliminating the Rabinowitsch variable from I + (1 − w·f)."""
    if f.is_zero():
        raise DomainError("saturation by zero")
    w = _fresh_name("w_", I.variables)
    work_vars = (w,) + I.variables
    F = I.field
    wp = Polynomial.variable(work_vars, F, w)
    gens = [g.embed(work_vars) for g in I.generators]
    gens.append(Polynomial.one(work_vars, F) - wp * f.embed(work_vars))
    return eliminate(IdealPresentation(work_vars, F, gens), {w}, order)


def radical_member(f, I, order=DEGREVLEX):
    """f ∈ √I iff 1 ∈ (I : f^∞) (Rabinowitsch); 0 lies in every radical."""
    return f.is_zero() or ideal_member(I.ring_one(), saturate(I, f, order),
                                       order)


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


def module_groebner(vectors, order=DEGREVLEX):
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
    gb = buchberger(gens, work_order)
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


def kernel_basis(matrix, order=DEGREVLEX):
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
    gb = module_groebner(augmented, order)
    basis = []
    for v in gb:
        if all(c.is_zero() for c in v[:r]):
            basis.append(tuple(v[r:]))
    return KernelBasis(matrix=rows, basis=basis)
