"""Exact multivariate polynomials with explicit variable lists.

Terms are a dict mapping exponent tuples to nonzero field elements.  The
variable list is ordered and explicit; moving a polynomial to a larger ring
is an explicit ``embed``, never implicit.  A polynomial is evaluated only
at a series point (``series.SeriesPoint.eval``); this module has no
substitution routine.

A product runs one loop over the term pairs for every field
(``product_terms``):

- Coefficients are ints.  Each Q factor is scaled once by the lcm of its
  denominators; the sums are read back once, as c // D or Fraction(c, D)
  over Q and c mod p over GF(p).  Over Q(alpha) = Q[alpha]/(mu) a factor
  is unfolded to Q, alpha's exponent one more slot, and each monomial of
  the product is reduced by mu once (``unfold_extension``).
- A monomial is one int key with a slot of w bytes per variable, w the
  fewest bytes that hold max exponent of a + max exponent of b, so the key
  of a product is the sum of the keys.  Keys are packed and unpacked in C:
  one byte per slot is ``bytes(m)``, 2, 4 or 8 bytes an ``array``; wider
  slots, for exponents of 2^64 and more, are written one exponent at a
  time.
- A truncated series product that does not pack runs the same loop with a
  total-degree bound, and forms no pair at or above it.
"""

import operator
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from sys import byteorder

from .errors import DomainError, ParseError, StructuralError
from .fields import (QQ, RationalField, SimpleExtension, _integral,
                     parse_decimal, read_back, scaled_to_ints)


# ---------------------------------------------------------------------------
# monomial orders

@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on monomials.

    kind is "lex", "degrevlex" or "block"; a block order compares the first
    ``split`` exponents under ``inner[0]``, then the rest under ``inner[1]``.
    """

    kind: str
    split: int = 0
    inner: tuple = ()

    def key(self, exps):
        if self.kind == "lex":
            return exps
        if self.kind == "degrevlex":
            return (sum(exps), tuple(map(operator.neg, reversed(exps))))
        if self.kind == "block":
            return (self.inner[0].key(exps[:self.split]),
                    self.inner[1].key(exps[self.split:]))
        raise StructuralError(f"unknown order kind {self.kind}")

    def __str__(self):
        if self.kind == "block":
            return f"block({self.split};{self.inner[0]},{self.inner[1]})"
        return self.kind


LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


def block_order(split, first=DEGREVLEX, second=DEGREVLEX):
    return MonomialOrder("block", split, (first, second))


def order_from_name(name, line=None):
    if name == "lex":
        return LEX
    if name == "degrevlex":
        return DEGREVLEX
    raise ParseError(f"unknown monomial order {name!r}", line, 1)


def compare(m1, m2, order):
    """Three-way comparison of two exponent tuples under ``order``."""
    if len(m1) != len(m2):
        raise StructuralError("monomials live in different rings")
    k1, k2 = order.key(tuple(m1)), order.key(tuple(m2))
    return (k1 > k2) - (k1 < k2)


def monomial_degree(m):
    return sum(m)


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    __slots__ = ("variables", "field", "terms")

    def __init__(self, variables, field, terms):
        self.variables = tuple(variables)
        self.field = field
        n = len(self.variables)
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != n:
                raise StructuralError("exponent tuple has wrong length")
            if not field.is_zero(coeff):
                clean[tuple(mono)] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, variables, field, terms):
        """A polynomial from terms that this module's arithmetic built, with
        distinct exponent tuples of the right length.  Only zero coefficients
        are dropped; ``__init__`` checks terms from outside."""
        is_zero = field.is_zero
        return cls._nonzero(variables, field, {m: c for m, c in terms.items()
                                               if not is_zero(c)})

    @classmethod
    def _nonzero(cls, variables, field, terms):
        """``_trusted`` for terms whose coefficients are all nonzero."""
        p = object.__new__(cls)
        p.variables, p.field, p.terms = variables, field, terms
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables, field):
        return cls(variables, field, {})

    @classmethod
    def constant(cls, variables, field, c):
        return cls(variables, field, {(0,) * len(variables): c})

    @classmethod
    def one(cls, variables, field):
        return cls.constant(variables, field, field.one())

    @classmethod
    def variable(cls, variables, field, name, power=1):
        variables = tuple(variables)
        if name not in variables:
            raise StructuralError(f"unknown variable {name!r}")
        mono = tuple(power if v == name else 0 for v in variables)
        return cls(variables, field, {mono: field.one()})

    # -- predicates and views ----------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_coefficient(self):
        return self.terms.get((0,) * len(self.variables), self.field.zero())

    def total_degree(self):
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def degree_in(self, name):
        i = self._index(name)
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def leading(self, order):
        """(monomial, coefficient) of the order-largest term."""
        if not self.terms:
            raise DomainError("zero polynomial has no leading term")
        mono = max(self.terms, key=order.key)
        return mono, self.terms[mono]

    def sorted_terms(self, order=DEGREVLEX, reverse=True):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]),
                      reverse=reverse)

    def _index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise StructuralError(f"unknown variable {name!r}") from None

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise StructuralError("expected a Polynomial")
        if other.variables != self.variables:
            raise StructuralError(
                f"variable lists differ: {self.variables} vs {other.variables}")
        if other.field != self.field:
            raise StructuralError("coefficient fields differ")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        F = self.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = F.add(terms[m], c) if m in terms else c
        return Polynomial._trusted(self.variables, F, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        return Polynomial._trusted(self.variables, F,
                                   {m: F.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        return Polynomial._nonzero(
            self.variables, self.field,
            product_terms(self.field, self.terms, other.terms))

    def __pow__(self, e):
        if e < 0:
            raise DomainError("negative polynomial power")
        result = Polynomial.one(self.variables, self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c):
        F = self.field
        return Polynomial._trusted(
            self.variables, F,
            {m: F.mul(coeff, c) for m, coeff in self.terms.items()})

    def monic(self, order):
        _, lc = self.leading(order)
        return self.scale(self.field.invert(lc))

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.variables == other.variables
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, self.field,
                     tuple(sorted(self.terms.items()))))

    # -- calculus -----------------------------------------------------------

    def derivative(self, name):
        i = self._index(name)
        F = self.field
        terms = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            new = list(m)
            new[i] -= 1
            terms[tuple(new)] = F.mul(c, F.from_int(m[i]))
        return Polynomial._trusted(self.variables, F, terms)

    # -- ring changes -------------------------------------------------------

    def embed(self, new_variables, field=None):
        """Explicit embedding into a ring with more (or reordered) variables."""
        new_variables, old = tuple(new_variables), self.variables
        field = field or self.field
        for v in old:
            if v not in new_variables:
                raise StructuralError(f"target ring lacks variable {v!r}")
        # the exponent of each new variable in m + (0,): a new variable
        # reads the 0 past the old ones
        src = [old.index(v) if v in old else len(old) for v in new_variables]
        if len(src) > 1:
            get = operator.itemgetter(*src)
        else:       # itemgetter of one index returns the item, not a tuple
            def get(m):
                return tuple(m[i] for i in src)
        coerce = field != self.field
        terms = {}
        for m, c in self.terms.items():
            terms[get(m + (0,))] = field.coerce(self.field, c) if coerce else c
        return Polynomial._trusted(new_variables, field, terms)

    def restrict(self, new_variables):
        """Move to a subring; errors if a dropped variable occurs."""
        new_variables = tuple(new_variables)
        keep = {v: new_variables.index(v) for v in new_variables}
        n = len(new_variables)
        terms = {}
        for m, c in self.terms.items():
            new = [0] * n
            for v, e in zip(self.variables, m):
                if e == 0:
                    continue
                if v not in keep:
                    raise StructuralError(f"polynomial involves dropped variable {v!r}")
                new[keep[v]] = e
            terms[tuple(new)] = c
        return Polynomial._trusted(new_variables, self.field, terms)

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<poly {format_polynomial(self)}>"


def _key_codec(n, top):
    """(pack, unpack) between exponent tuples of length n and int keys.
    Each exponent fills a slot of w bytes, w the fewest bytes that hold
    ``top``, so while no exponent of a product m1*m2 exceeds ``top`` its key
    is key(m1) + key(m2).  Both directions run in C: slots of one byte are
    ``bytes(m)``, slots of 2, 4 or 8 bytes an ``array``; wider slots, for
    exponents of 2^64 and more, are written one exponent at a time."""
    if top < 256:
        return (lambda monos: map(int.from_bytes, map(bytes, monos),
                                  repeat("big")),
                lambda keys: map(tuple, map(int.to_bytes, keys, repeat(n),
                                            repeat("big"))))
    for code in "HIQ":
        w = array(code).itemsize
        if top >> (8 * w) == 0:
            return (lambda monos: map(
                        int.from_bytes,
                        map(array.tobytes, map(array, repeat(code), monos)),
                        repeat(byteorder)),
                    lambda keys: map(tuple, map(
                        array, repeat(code),
                        map(int.to_bytes, keys, repeat(n * w),
                            repeat(byteorder)))))
    w = top.bit_length() // 8 + 1
    return (lambda monos: (int.from_bytes(b"".join([e.to_bytes(w, "big")
                                                    for e in m]), "big")
                           for m in monos),
            lambda keys: (tuple(int.from_bytes(d[i:i + w], "big")
                                for i in range(0, n * w, w))
                          for d in map(int.to_bytes, keys, repeat(n * w),
                                       repeat("big"))))


def product_terms(F, a, b, below=None):
    """The terms of the product of the term dicts ``a`` and ``b`` over F,
    or, with ``below``, its terms of total degree below that bound.

    One loop over the term pairs, ``a`` outer and ``b`` inner, on the int
    keys of ``_key_codec`` with slots sized by max exponent of a + max
    exponent of b, and on int coefficients: each factor over Q is scaled by
    the lcm of its denominators, and every sum is read back once
    (``read_back``).  Over Q(alpha) the factors are unfolded to Q, and the
    product is folded back.  Monomials enter in the order in which they
    first appear, and a sum that cancels keeps its place until the zeros
    are dropped at the end: the terms and their order are those of the
    textbook loop.  With a bound (a truncated series product), b's terms
    are sorted by total degree once, and a term of a of degree d meets only
    those of degree below ``below`` - d: the pairs the bound drops are never
    formed.
    """
    if not a or not b:
        return {}
    K = F
    if type(F) is SimpleExtension:
        F, a, b = QQ, unfold_extension(a), unfold_extension(b)
    n = len(next(iter(a)))
    pack, unpack = _key_codec(n, max(map(max, a)) + max(map(max, b))
                              if n else 0)
    va, vb, den = a.values(), b.values(), 1
    if type(F) is RationalField:
        da, va = scaled_to_ints(va)
        db, vb = scaled_to_ints(vb)
        den = da * db
    rows = list(zip(pack(b), vb))
    if below is None:
        parts = repeat(rows)
    else:               # alpha's slot counts toward no bound
        degree = sum if K is F else lambda m: sum(m) - m[-1]
        ranked = sorted(zip(map(degree, b), rows), key=operator.itemgetter(0))
        degrees = [d for d, _ in ranked]
        rows = [row for _, row in ranked]
        parts = [rows[:bisect_left(degrees, below - degree(m))] for m in a]
    acc = {}
    for ka, ca, part in zip(pack(a), va, parts):
        for kb, cb in part:
            k = ka + kb
            if k in acc:
                acc[k] += ca * cb
            else:
                acc[k] = ca * cb
    items = zip(unpack(acc), acc.values())
    if K is not F:  # fold before zeros drop: a monomial keeps its first place
        return fold_extension(K, ((m, Fraction(c, den)) for m, c in items))
    return read_back(F, items, den)


def unfold_extension(terms):
    """Q(alpha) = Q[alpha]/(mu) as a layout over Q: the terms over Q of the
    ``terms`` over Q(alpha), one for each nonzero c_i of a coefficient sum
    c_i*alpha^i, with the exponent i as one more slot, last."""
    return {m + (i,): _integral(c) for m, cs in terms.items()
            for i, c in enumerate(cs) if c}


def fold_extension(F, items):
    """The terms over F = Q(alpha) of (monomial, c) ``items`` over Q laid
    out as by ``unfold_extension``: the c_i of each monomial, reduced by mu
    once, in the order the monomials first appear."""
    rows = {}
    for m, c in items:
        rows.setdefault(m[:-1], {})[m[-1]] = c
    terms = ((m, F.from_coeffs([row.get(i, 0) for i in range(max(row) + 1)]))
             for m, row in rows.items())
    return {m: c for m, c in terms if not F.is_zero(c)}


def fresh_name(base, taken):
    """``base``, or ``base`` followed by the least k >= 1, not in ``taken``."""
    name = base
    k = 0
    while name in taken:
        k += 1
        name = f"{base}{k}"
    return name


def alpha_polynomial(coeffs, variables):
    """An element of Q(alpha), or mu, as a polynomial over Q in
    ``variables``, alpha the last."""
    return Polynomial._nonzero(variables, QQ, unfold_extension(
        {(0,) * (len(variables) - 1): coeffs}))


def format_monomial(variables, mono):
    parts = []
    for v, e in zip(variables, mono):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def format_polynomial(poly, order=DEGREVLEX, ascending=False):
    if poly.is_zero():
        return "0"
    F = poly.field
    chunks = []
    terms = poly.sorted_terms(order)
    if ascending:
        terms = list(reversed(terms))
    for mono, coeff in terms:
        mstr = format_monomial(poly.variables, mono)
        cstr = F.format(coeff)
        negated = cstr.startswith("-")
        if not F.format_atomic(coeff) and mstr:
            body = f"({cstr})*{mstr}"
            negated = False
        elif not mstr:
            body = cstr[1:] if negated else cstr
        elif cstr == "1":
            body = mstr
        elif cstr == "-1":
            body = mstr
        else:
            body = f"{cstr[1:] if negated else cstr}*{mstr}"
        chunks.append(("-" if negated else "+", body))
    sign, body = chunks[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# parser for the ASCII polynomial syntax
#
#   sum := [+|-] product {(+|-) product}    product := power {* power}
#   power := atom [^ int]     atom := int [/ int] | name | ( sum ) | - atom
# A product is read into one term and a sum into one dict: linear time.
#
# Input from outside must not make the reader run without end.  A literal
# has at most _MAX_DIGITS digits.  A power of a constant or of a factor in
# parentheses, and a product of such factors, is expanded only if its
# coefficients have at most _MAX_BITS bits by the bound of ``_height``; a
# power of a sum also has an exponent of at most _MAX_EXPONENT: (x + y)^e
# has e + 1 terms of up to e bits, and takes about a second at that bound.
# The work of a power is not bounded otherwise: (2/3*x + 5/7*y)^1000 takes
# 20 s, and a sum in many variables or nested powers can take far longer.

_TOKEN = re.compile(r"\d+|[^\W\d]\w*|[-+*^()/]")
_BAD = re.compile(r"[^\w \t+\-*^()/]")      # no token holds these
_MAX_DIGITS = 100_000
_LONG = re.compile(r"(?<!\w)\d{%d}" % (_MAX_DIGITS + 1))
_MAX_EXPONENT = 1000
_MAX_BITS = 1 << 19


class _Text:
    """A text to read: its tokens with "" at the end, and the ring."""

    def __init__(self, text, variables, field, line):
        bad = _BAD.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", line,
                             bad.start() + 1)
        long = _LONG.search(text)
        if long:
            raise ParseError(f"integer literal of more than {_MAX_DIGITS} "
                             "digits", line, long.start() + 1)
        self.text, self.line = text, line
        self.variables, self.field = variables, field
        self.toks = _TOKEN.findall(text) + [""]
        self.slots = {}         # name token -> the exponent slots it names
        for p, v in enumerate(variables):
            if _TOKEN.fullmatch(v) and (v[0].isalpha() or v[0] == "_"):
                self.slots[v] = self.slots.get(v, ()) + (p,)

    def error(self, message, i):
        """A ParseError at token i; columns are found only for errors."""
        starts = [m.start() for m in _TOKEN.finditer(self.text)]
        col = starts[i] + 1 if i < len(starts) else len(self.text) + 1
        return ParseError(message, self.line, col)

    def integer(self, i):
        if not self.toks[i].isdecimal():
            raise self.error(f"expected int, found {self.toks[i]!r}", i)
        return parse_decimal(self.toks[i])


def parse_polynomial(text, variables, field, line=1):
    """Parse the ASCII syntax: identifiers, ^, *, +, -, rationals a/b.
    Over Q(alpha) the text is read over Q with alpha as one more variable,
    so alpha may not be one of ``variables``."""
    variables = tuple(variables)
    ext = isinstance(field, SimpleExtension)
    if ext and field.gen in variables:
        raise ParseError(f"field generator {field.gen!r} is also a variable",
                         line, 1)
    src = _Text(text, variables + (field.gen,) if ext else variables,
                QQ if ext else field, line)
    poly, i = _parse_sum(src, 0)
    if src.toks[i]:
        raise src.error(f"unexpected token {src.toks[i]!r}", i)
    return Polynomial(variables, field, fold_extension(
        field, poly.terms.items())) if ext else poly


def _parse_sum(src, i):
    """The sum from token i, and the token after it.  Its monomials keep the
    order in which they first appear; a cancelled one leaves and re-enters."""
    toks, F = src.toks, src.field
    terms = {}
    while True:
        negate = toks[i] == "-"
        if negate or toks[i] == "+":
            i += 1
        product, i = _parse_product(src, i)
        for mono, c in product:
            if negate:
                c = F.neg(c)
            if mono in terms:
                c = F.add(terms[mono], c)
            if not F.is_zero(c):
                terms[mono] = c
            elif mono in terms:
                del terms[mono]
        if toks[i] != "+" and toks[i] != "-":
            return Polynomial(src.variables, F, terms), i


def _parse_product(src, i):
    """The terms of the product from token i, and the token after it.  A
    variable adds to the exponents of one term and a constant multiplies its
    coefficient; a factor in parentheses or a power of a constant is a
    Polynomial, and a product with one is that Polynomial times the term."""
    toks, F, slots = src.toks, src.field, src.slots
    coeff, sign, exps, poly = None, False, [0] * len(src.variables), None
    while True:
        negate, factor, start = False, None, i
        while toks[i] == "-":                       # atom := - atom
            negate, i = not negate, i + 1
        tok, i = toks[i], i + 1
        if tok in slots:
            e, i = (src.integer(i + 1), i + 2) if toks[i] == "^" else (1, i)
            for p in slots[tok]:
                exps[p] += e
            sign ^= negate and e % 2 == 1           # (-x)^e = (-1)^e x^e
        elif tok.isdecimal():
            if toks[i] != "/":
                c = F.from_int(parse_decimal(tok))
            elif src.integer(i + 1) == 0:
                raise src.error("zero denominator", i + 1)
            else:
                c = F.from_fraction(Fraction(parse_decimal(tok),
                                             parse_decimal(toks[i + 1])))
                i += 2
            c = F.neg(c) if negate else c
            if toks[i] == "^":
                factor = Polynomial.constant(src.variables, F, c)
            else:
                coeff = c if coeff is None else F.mul(coeff, c)
        elif tok == "(":
            factor, i = _parse_sum(src, i)
            if toks[i] != ")":
                raise src.error(f"expected ), found {toks[i]!r}", i)
            factor, i = -factor if negate else factor, i + 1
        elif tok[:1].isalpha() or tok[:1] == "_":
            raise src.error(f"undeclared variable {tok!r}", i - 1)
        else:
            raise src.error(f"unexpected token {tok!r}", i - 1)
        if factor is not None:
            if toks[i] == "^":
                e = src.integer(i + 1)
                n = len(factor.terms)
                if (e * (_height(factor) + (n - 1).bit_length()) > _MAX_BITS
                        or n > 1 and e > _MAX_EXPONENT):
                    raise src.error("power too large to expand", i + 1)
                factor, i = factor ** e, i + 2
            if poly is not None:
                if (_height(poly) + _height(factor) + (min(
                        len(poly.terms), len(factor.terms)) - 1).bit_length()
                        > _MAX_BITS):
                    raise src.error("product too large to expand", start)
                factor = poly * factor
            poly = factor
        if toks[i] != "*":
            break
        i += 1
    coeff = F.one() if coeff is None else coeff
    terms = {tuple(exps): F.neg(coeff) if sign else coeff}
    if poly is not None:
        terms = (poly * Polynomial(src.variables, F, terms)).terms
    return terms.items(), i


def _height(p):
    """The bits of the largest numerator or denominator of p.  A coefficient
    of p^e has at most e*(height + log2 of p's terms) bits, and one of p*q
    at most height(p) + height(q) + log2 of the fewer terms: a bound over
    the integers, and an estimate with denominators."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.terms.values()), default=0)
