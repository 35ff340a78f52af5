"""Truncated formal power series with explicit precision tracking.

A series carries its own precision (all stored monomials have total degree
below it); binary operations take the worst case of the operand precisions,
and exact division lowers precision by the valuation of the divisor (and
inverts the divisor only to the precision its quotient reads).

Series in one variable over Q or GF(p) also compute packed (Kronecker
substitution): the ring map Z[x]/(x^N) -> Z/2^(8wN), x -> 2^(8w), turns
arithmetic in x into big-int arithmetic, with one coefficient in each slot
of w bytes, and one decoding at the end reads the coefficients back as
balanced digits.  The width comes from an a-priori bound on every
coefficient met on the way, plus a sign bit.  Each factor is first scaled
to ints (``_ints``): over Q by the lcm of its denominators, over GF(p) to
balanced residues.

- A product of one-variable series with at least ``PACKED_MIN_PAIRS``
  stored term pairs is one big-int multiply of the two packed factors,
  in slots sized by max|a| * max|b| * min(#a, #b), a bound on every
  coefficient of a*b, decoded once below the precision.  Every other
  product (fewer pairs, several variables, or Q(alpha)) is
  ``poly.product_terms`` bounded by the precision, which never forms a
  pair whose degrees sum to the precision or more.
- ``invert`` is Newton's iteration, e = 1 - ab and b <- b + be, which
  doubles the precision each step on these two products (total-degree
  truncation keeps it valid in several variables), from a partial inverse
  when given one; a unit that is only its constant term inverts at once.
- Weierstrass preparation solves its recurrence on rows: level k maps
  each head of degree k to a row in the last variable, and the products
  by the level-0 unit and its inverse are one-variable products.
- ``series_eval`` at a point (``SeriesPoint.eval``; images in one
  variable) is the one evaluation of polynomials: every series check, the
  Newton lift, ``linear_factor`` and gnd's values at the frame y' run on
  it.  It packs each image once, as integer numerators, but a monomial
  image (x -> x, U -> alpha) shifts the coefficients instead; the terms
  with the same other factors form one row, scaled by D / (its
  denominator), D the lcm of the term denominators, and one big-int
  product modulo 2^(8wSN).  The sum is decoded once and divided by D.
  Over Q(alpha), x -> 2^(8wS) and alpha -> 2^(8w), S - 1 the largest
  alpha-degree of a term, and mu acts at decode.
"""

import re
from dataclasses import dataclass, field as dc_field
from itertools import compress
from math import lcm
from operator import add

from .errors import (ConsistencyError, DivisibilityError, DomainError,
                     NonUnitError, ParseError, StructuralError)
from .fields import (QQ, PrimeField, RationalField, SimpleExtension,
                     read_back, scaled_to_ints)
from .poly import (Polynomial, monomial_degree, parse_polynomial,
                   product_terms, unfold_extension)

# Stored term pairs from which a one-variable product is packed; below it a
# product is bounded ``product_terms``.  A packed product costs 25-60 us
# however small (lcm, byte strings, big-int conversions).  On the 136
# nonempty Q products of a seed-1 certify pass (gnd then verify, 2-vCPU
# host, best of 5), at under 8, 8-23, 24-63 and 64-127 pairs, ``product_terms``
# took 18, 46, 57 and 85 us on average and the packed kernel 33, 62, 66 and
# 88 us; any crossover from 48 to 256 gave the pass 5.8 ms of product time,
# against 7.0 ms at 8.  Dense one-variable factors pack faster from about 64
# pairs (Q 47 against 72 us, GF(p) 26 against 30 us).
PACKED_MIN_PAIRS = 64

# The largest precision a series may be read at, and the largest lift
# target: the packed paths allocate O(N), and a GF(32003) lift this far
# takes about 6 s.
MAX_PRECISION = 1 << 16


class TruncatedSeries:
    __slots__ = ("variables", "field", "terms", "precision")

    def __init__(self, variables, field, terms, precision):
        if precision < 1:
            raise DomainError("precision must be positive")
        self.variables = tuple(variables)
        self.field = field
        self.precision = precision
        clean = {}
        n = len(self.variables)
        for mono, coeff in terms.items():
            if len(mono) != n:
                raise StructuralError("exponent tuple has wrong length")
            if monomial_degree(mono) < precision and not field.is_zero(coeff):
                clean[tuple(mono)] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, variables, field, terms, precision):
        """A series from terms that this module's arithmetic built: exponent
        tuples of the right length, every degree below ``precision`` and no
        zero coefficient (each kernel drops the zeros it makes), taken as
        they are; ``__init__`` checks terms from outside."""
        s = object.__new__(cls)
        s.variables, s.field, s.precision = variables, field, precision
        s.terms = terms
        return s

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables, field, precision):
        return cls(variables, field, {}, precision)

    @classmethod
    def constant(cls, variables, field, c, precision):
        return cls(variables, field, {(0,) * len(variables): c}, precision)

    @classmethod
    def one(cls, variables, field, precision):
        return cls.constant(variables, field, field.one(), precision)

    @classmethod
    def variable(cls, variables, field, name, precision):
        variables = tuple(variables)
        mono = tuple(int(v == name) for v in variables)
        if sum(mono) != 1:
            raise StructuralError(f"unknown variable {name!r}")
        return cls(variables, field, {mono: field.one()}, precision)

    @classmethod
    def from_polynomial(cls, poly, precision):
        return cls(poly.variables, poly.field, dict(poly.terms), precision)

    def to_polynomial(self):
        return Polynomial(self.variables, self.field, dict(self.terms))

    # -- structure ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, TruncatedSeries):
            raise StructuralError("expected a TruncatedSeries")
        if other.variables != self.variables or other.field != self.field:
            raise StructuralError("series live in different rings")

    def is_zero(self):
        """True when every stored coefficient vanishes (i.e. zero to precision)."""
        return not self.terms

    def order(self):
        """Least total degree of a nonzero term; None means >= precision."""
        if not self.terms:
            return None
        if len(self.variables) == 1:
            return min(self.terms)[0]
        return min(monomial_degree(m) for m in self.terms)

    def constant_coefficient(self):
        return self.terms.get((0,) * len(self.variables), self.field.zero())

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), self.field.zero())

    def truncate(self, precision):
        if precision > self.precision:
            raise DomainError("cannot raise precision by truncation")
        if len(self.variables) == 1:
            terms = {m: c for m, c in self.terms.items() if m[0] < precision}
        else:
            terms = {m: c for m, c in self.terms.items()
                     if monomial_degree(m) < precision}
        return TruncatedSeries._trusted(self.variables, self.field, terms,
                                        precision)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        F = self.field
        prec = min(self.precision, other.precision)
        a, b = (s if s.precision == prec else s.truncate(prec)
                for s in (self, other))
        terms = dict(a.terms)
        for m, c in b.terms.items():
            if m not in terms:
                terms[m] = c
            elif F.is_zero(c := F.add(terms[m], c)):
                del terms[m]
            else:
                terms[m] = c
        return TruncatedSeries._trusted(self.variables, F, terms, prec)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        F = self.field
        return TruncatedSeries._trusted(
            self.variables, F, {m: F.neg(c) for m, c in self.terms.items()},
            self.precision)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        prec = min(self.precision, other.precision)
        a, b = self.terms, other.terms
        if (len(a) * len(b) >= PACKED_MIN_PAIRS and len(self.variables) == 1
                and type(F) in (RationalField, PrimeField)):
            terms = _packed_product(F, a, b, prec)
        else:
            terms = product_terms(F, a, b, prec)
        return TruncatedSeries._trusted(self.variables, F, terms, prec)

    def __pow__(self, e):
        if e < 0:
            raise DomainError("negative series power")
        result = TruncatedSeries.one(self.variables, self.field, self.precision)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.variables == other.variables and self.field == other.field
                and self.precision == other.precision and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, self.field, self.precision,
                     tuple(sorted(self.terms.items()))))

    # -- inversion and division --------------------------------------------

    def invert(self, start=None):
        """Multiplicative inverse of a unit series, to the same precision.

        Newton's iteration: if b inverts a modulo degree k, then with
        e = 1 - ab (of order >= k), b + be inverts it modulo degree 2k.
        Total-degree truncation keeps the iteration valid in several
        variables.  It begins at ``start``, taken to invert self modulo its
        own precision, or at the inverse of the constant term; a unit that
        is only its constant term inverts at once."""
        F = self.field
        a0 = self.constant_coefficient()
        if F.is_zero(a0):
            raise NonUnitError("series has zero constant term")
        variables, N = self.variables, self.precision
        if start is not None:
            b = start.truncate(min(start.precision, N))
        else:
            b = TruncatedSeries._trusted(
                variables, F, {(0,) * len(variables): F.invert(a0)},
                N if len(self.terms) == 1 else 1)
        while b.precision < N:
            k = min(2 * b.precision, N)
            b = TruncatedSeries._trusted(variables, F, b.terms, k)
            e = TruncatedSeries.one(variables, F, k) - self.truncate(k) * b
            b = b + b * e
        return b

    def divide_exact(self, other, inverse=None):
        """Exact quotient q with self = other * q; precision drops by ord(other).

        After the valuation monomial of ``other`` is factored out, q is
        a * b^-1 for a unit b, and b is inverted only to the precision the
        quotient reads (``_times_inverse``), from ``inverse`` when given:
        a series that inverts b modulo its own precision."""
        self._check(other)
        k = other.order()
        if k is None:
            raise DivisibilityError("division by a series that is zero to precision")
        if k == 0:
            return _times_inverse(self, other, inverse)
        # factor out the valuation monomial; only a monomial times a unit is
        # supported for multivariate divisors (all the pipeline needs)
        low = [m for m in other.terms if monomial_degree(m) == k]
        if len(low) != 1:
            raise DivisibilityError("divisor valuation part is not a monomial")
        mono = low[0]
        for m in other.terms:
            if not all(a <= b for a, b in zip(mono, m)):
                raise DivisibilityError("divisor is not a monomial times a unit")
        so = self.order()
        if so is not None and so < k:
            raise DivisibilityError(
                f"dividend has order {so} < divisor order {k}")
        if self.precision <= k:
            raise DomainError("precision must be positive")
        num = {}
        for m, c in self.terms.items():
            if not all(a <= b for a, b in zip(mono, m)):
                raise DivisibilityError("dividend not divisible by divisor valuation")
            num[tuple(a - b for a, b in zip(m, mono))] = c
        den = {tuple(a - b for a, b in zip(m, mono)): c
               for m, c in other.terms.items()}
        a = TruncatedSeries._trusted(self.variables, self.field, num,
                                     self.precision - k)
        b = TruncatedSeries._trusted(self.variables, self.field, den,
                                     other.precision - k)
        return _times_inverse(a, b, inverse)

    # -- formatting ---------------------------------------------------------

    def __str__(self):
        return format_series(self)

    def __repr__(self):
        return f"<series {format_series(self)}>"


def _times_inverse(a, b, start=None):
    """a * b^-1 for a unit b, at the lesser precision P of the two.  Every
    term of a has total degree >= s = ord(a), so the terms of b^-1 of
    degree >= P - s only reach degree >= P: b is inverted to precision
    P - s (from ``start``, see ``invert``), and the inverse's terms are
    stamped at P for the product.  A zero dividend (or one of order >= P)
    gives zero at P."""
    prec = min(a.precision, b.precision)
    s = a.order()
    if s is None or s >= prec:
        return TruncatedSeries._trusted(a.variables, a.field, {}, prec)
    inverse = b.truncate(prec - s).invert(start)
    return a * TruncatedSeries._trusted(a.variables, a.field, inverse.terms,
                                        prec)


# ---------------------------------------------------------------------------
# packed coefficients: the ring map Z[x]/(x^N) -> Z/2^(8wN), x -> 2^(8w)
#
# A slot of w bytes holds one coefficient c with |c| < 2^(8w - 1).  The map
# is a ring homomorphism, so sums, products and scalings of packed series
# are big-int sums, products and scalings reduced modulo 2^(8wN); as long
# as every coefficient of every value stays inside its slot, the balanced
# digits of the result are its coefficients.

def _offsets(width, size):
    """The int whose ``size`` slots of ``width`` bytes each hold 2^(8w - 1)."""
    half = 1 << (8 * width - 1)
    return int.from_bytes(half.to_bytes(width, "little") * size, "little")


def _pack(coeffs, width, size):
    """Sum of c*2^(8we) over the (e, c) in ``coeffs``, every e below
    ``size``: each slot is written as bytes, as c + 2^(8w - 1), and the
    offsets are taken off once; below 16 of them, shifts are quicker."""
    if len(coeffs) < 16:
        return sum(c << 8 * width * e for e, c in coeffs)
    half = 1 << (8 * width - 1)
    slots = [half.to_bytes(width, "little")] * size
    for e, c in coeffs:
        slots[e] = (c + half).to_bytes(width, "little")
    return (int.from_bytes(b"".join(slots), "little")
            - _offsets(width, size))


def _unpack(value, width, size):
    """The balanced digits c_0 .. c_(size-1) of ``value`` modulo
    2^(8w*size), each |c| < 2^(8w - 1): read from one byte string, so the
    work is linear in ``size``."""
    n = width * size
    low = (value + _offsets(width, size)) & ((1 << (8 * n)) - 1)
    digits = low.to_bytes(n, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(digits[i:i + width], "little") - half
            for i in range(0, n, width)]


def _packed_product(F, a, b, prec):
    """Terms below ``prec`` of the product of the one-variable term dicts
    ``a`` and ``b`` over Q or GF(p), by one big-integer multiply.

    Each factor is cut to the precision, scaled to ints (``_ints``) and
    packed once.  A coefficient of the product is a sum of at most
    min(#a, #b) products of coefficients, so max|a| * max|b| *
    min(#a, #b), and a sign bit, size the slots.
    """
    A, da = _ints(F, a, prec)
    B, db = _ints(F, b, prec)
    if not A or not B:
        return {}
    bound = (max(map(abs, A.values())) * max(map(abs, B.values()))
             * min(len(A), len(B)))
    width = bound.bit_length() // 8 + 1
    value = (_pack(A.items(), width, max(A) + 1)
             * _pack(B.items(), width, max(B) + 1))
    # a value whose top nonzero slot is k exceeds 2^(8wk - 1) in absolute
    # value, so its bit length bounds the slots to read
    size = min(prec, value.bit_length() // (8 * width) + 1)
    return _decoded(F, _unpack(value, width, size), da * db)


def _ints(F, terms, prec):
    """The terms below x^prec of a one-variable term dict as {e: c}, c an
    int, and a denominator D: over Q the coefficients times D, the lcm of
    their denominators; over GF(p) balanced residues (c - p when 2c > p)
    and D = 1."""
    items = {m[0]: c for m, c in terms.items() if m[0] < prec}
    if type(F) is RationalField:
        den, nums = scaled_to_ints(items.values())
        return dict(zip(items, nums)), den
    p = F.p
    return {e: c if 2 * c <= p else c - p for e, c in items.items()}, 1


def _decoded(F, coeffs, den, stride=1):
    """The term dict of the series sum c_e x^e / den over Q or GF(p); over
    Q(alpha) of sum c_(kS+i) alpha^i x^k / den, S the stride, mu once."""
    if type(F) is not SimpleExtension:
        return read_back(F, [((e,), c) for e, c in enumerate(coeffs) if c],
                         den)
    terms = ((k // stride, F.from_coeffs(coeffs[k:k + stride], den))
             for k in range(0, len(coeffs), stride))
    return {(k,): c for k, c in terms if any(c)}


class SeriesPoint:
    """A point: an image of each variable, a series in one variable, and
    that ring's one.  ``eval`` runs packed: each image is scaled to integer
    numerators and packed once, and the powers of the images stay packed,
    one per (variable, exponent) and precision, for every later call."""

    __slots__ = ("images", "one", "_packed")

    def __init__(self, images, one):
        self.images, self.one = images, one
        self._packed = {}       # precision -> _PackedPowers

    def eval(self, poly, precision):
        """poly at the point modulo x^precision, by packed arithmetic: over
        Q(alpha) x -> 2^(8wS), alpha -> 2^(8w) and S - 1 the largest
        alpha-degree of a term before mu, which acts at decode; a power v^e
        of alpha-degree past 2d - 2 (no product of two field elements gets
        there; d = [F:Q]) is an image of its own, reduced by mu (``**``).

        An image n*alpha^i*x^k of one term (x -> x, U -> alpha) is a shift:
        v^e scales the coefficient by n^e and moves it e*k powers of x and
        e*i of alpha up.  The terms with the same other factors form one
        row and take one product with their powers.  A term whose least
        x-order, sum e*ord(v), reaches the precision is 0: it is skipped
        before any power of it is taken or its slot width sized, and the
        sum is decoded only up to the highest x-degree a row reaches.

        With each image v = A_v / d_v (A_v integral) and each term
        c*prod v^(e_v), D is the lcm of the term denominators
        den(c)*prod d_v^(e_v), and D times the value is the integer series
        sum_t C_t prod A_v^(e_v) with C_t = c*D / (its denominator).  A
        coefficient of a product of factors of heights H_i and lengths L_i
        is at most prod H_i times the product of all L_i but the largest,
        so every coefficient of that sum, and of every partial product, is
        at most sum_t |C_t| L_t prod_v (L_v H_v)^(e_v) / max L_v (L_t the
        alpha-length of C_t, shifts in C_t), and a sign bit more is the
        slot width."""
        F, K = self.one.field, poly.field
        F.coerce(K, K.one())    # Q into Q(alpha) is the one proper coercion
        if not poly.terms:
            return TruncatedSeries._trusted(self.one.variables, F, {},
                                            precision)
        powers = self._packed.get(precision)
        if powers is None:
            powers = self._packed[precision] = _PackedPowers(
                self.images, F, precision)
        rows, d, stride, top, size = {}, powers.degree, 1, 0, 0
        for mono, c in poly.terms.items():
            den, row = _row(K, c)
            key, bits, longest, reach, degree = (), 0, 0, 0, len(row) - 1
            shift = lift = low = 0
            for name, e in compress(zip(poly.variables, mono), mono):
                image = powers.image(name)
                if image is None:           # a zero image: the term is 0
                    break
                low += e * image[6]
                if low >= precision:        # the term is 0 to the precision
                    break
                if e * image[4] > 2 * d - 2:
                    name, e = (name, e), 1          # v^e is its own image
                    image = powers.image(name)
                nums, dv, hbits, lbits, alpha, high, _ = image
                den, degree = den * dv ** e, degree + e * alpha
                if len(nums) == 1:          # n*alpha^i*x^k: a row shift
                    (k, n), = nums.items()
                    row = row if n == 1 else [r * n ** e for r in row]
                    shift, lift = shift + e * (k // d), lift + e * (k % d)
                else:
                    key += ((name, e),)
                    bits += e * (hbits + lbits)
                    longest, reach = max(longest, lbits), reach + e * high
            else:
                rows.setdefault(key, []).append((row, den, shift, lift))
                stride = max(stride, degree + 1)
                size = max(size, shift + reach + 1)
                # |c * D / den| < 2^(bits(c) + bits(D) - bits(den) + 1)
                top = max(top, max(map(abs, row)).bit_length() + bits
                          - longest + (len(row) - 1).bit_length()
                          - den.bit_length())
        D = lcm(*(t[1] for terms in rows.values() for t in terms))
        # every term is below 2^(top + bits(D) + 1), the sum n times that
        top += D.bit_length() + 1 + sum(map(len, rows.values())).bit_length()
        powers.widen(top // 8 + 1, stride)
        width, stride, mask = powers.width, powers.stride, powers.mask
        acc = 0
        for key, terms in rows.items():
            slots = {}
            for row, den, shift, lift in terms:
                m = D // den
                for i, c in enumerate(row, shift * stride + lift):
                    slots[i] = slots.get(i, 0) + c * m
            low = min(slots)
            C = _pack([(i - low, c) for i, c in slots.items()], width,
                      max(slots) - low + 1)
            for power in key:
                C = C * powers.power(power) & mask
            acc += C << 8 * width * low
        coeffs = _unpack(acc, width, min(size, precision) * stride)
        return TruncatedSeries._trusted(self.one.variables, F,
                                        _decoded(F, coeffs, D, stride),
                                        precision)


def _row(F, c):
    """(D, the ints D*c_i) for c = sum c_i alpha^i, none zero at the top
    (over Q, c = c_0); over GF(p), (1, [the balanced residue of c])."""
    if type(F) is PrimeField:
        return 1, [c if 2 * c <= F.p else c - F.p]
    if type(F) is SimpleExtension:
        return scaled_to_ints(c[:max(i for i, ci in enumerate(c) if ci) + 1])
    return c.denominator, [c.numerator]


class _PackedPowers:
    """The packed powers of a point's images at one precision N, in slots
    of ``width`` bytes, ``stride`` slots (alpha's powers) to each power of
    x; a call that needs more of either re-lays them out."""

    __slots__ = ("series", "field", "degree", "size", "width", "stride",
                 "mask", "images", "powers")

    def __init__(self, series, field, size):
        self.series, self.field, self.size = series, field, size
        self.degree = field.degree if type(field) is SimpleExtension else 1
        self.width, self.stride, self.mask = 0, 1, 0
        self.images = {}    # name -> the tuple ``image`` returns
        self.powers = {}    # (name, e) -> packed image^e modulo x^size

    def image(self, name):
        """An image's int numerators below x^size (alpha^i x^k at k*d + i),
        their den, bits of height and number, alpha- and x-degree, and
        x-order; or None."""
        if name in self.images:
            return self.images[name]
        F, d = self.field, self.degree
        v, e = name if isinstance(name, tuple) else (name, 1)   # v^e
        series = self.series[v]
        terms = (series.truncate(self.size) ** e if e > 1 else series).terms
        if d > 1:
            F, terms = QQ, {(k * d + i,): c for (k, i), c
                            in unfold_extension(terms).items()}
        nums, den = _ints(F, terms, self.size * d)
        out = None if not nums else (
            nums, den, max(map(abs, nums.values())).bit_length(),
            len(nums).bit_length(), max(p % d for p in nums), max(nums) // d,
            min(nums) // d)
        self.images[name] = out
        return out

    def widen(self, width, stride):
        """At least ``width`` bytes a slot and ``stride`` slots a power of x:
        digits c + 2^(8w - 1) >= 0 move by byte slices, less the offsets."""
        width, stride = max(width, self.width), max(stride, self.stride)
        w, s, n = self.width, self.stride, self.size

        def spread(value):
            src = value.to_bytes(w * s * n, "little")
            dst = bytearray(width * stride * n)
            for i in range(w * s):
                dst[i // w * width + i % w::width * stride] = src[i::w * s]
            return int.from_bytes(dst, "little")
        if (width, stride) != (w, s) and self.powers:
            off = _offsets(w, n * s)
            shift = spread(off)
            for key, value in self.powers.items():
                self.powers[key] = spread((value + off) & self.mask) - shift
        self.width, self.stride = width, stride
        self.mask = (1 << (8 * width * n * stride)) - 1

    def power(self, key):
        """The packed image^e of key = (name, e), built once."""
        value = self.powers.get(key)
        if value is None:
            value = self.powers[key] = self._build(key)
        return value

    def _build(self, key):
        """image^e from the packed powers e // 2 and 1."""
        name, e = key
        if e == 1:
            d, stride = self.degree, self.stride    # k*d + i to k*S + i
            return _pack([(p // d * stride + p % d, c) for p, c
                          in self.image(name)[0].items()],
                         self.width, self.size * stride)
        value = self.power((name, e // 2))
        value = value * value & self.mask
        return value * self.power((name, 1)) & self.mask if e & 1 else value


def series_point(images):
    """The point sending each variable to its truncated series; the images
    share one ring in one variable, and the point's one has their largest
    precision."""
    first = next(iter(images.values()), None)
    if first is None:
        raise StructuralError("no series assigned")
    for s in images.values():
        if s.variables != first.variables or s.field != first.field:
            raise StructuralError("assigned series live in different rings")
    if len(first.variables) != 1:
        raise StructuralError("a series point takes series in one variable")
    top = max(s.precision for s in images.values())
    return SeriesPoint(images, TruncatedSeries.one(first.variables,
                                                   first.field, top))


def series_eval(poly, assignment, precision=None):
    """Evaluate a polynomial on truncated series in one variable, a dict or
    a ``series_point``, given for each variable, packed (``SeriesPoint``);
    the result has the least precision of their images, capped by
    ``precision``.  Coefficients go into the series field (Q into Q(alpha))."""
    point = assignment if isinstance(assignment, SeriesPoint) else None
    images = assignment if point is None else point.images
    if not poly.variables:
        raise StructuralError("polynomial has no variables")
    for v in poly.variables:
        if v not in images:
            raise StructuralError(f"no series assigned to variable {v!r}")
    prec = min(images[v].precision for v in poly.variables)
    if precision is not None:
        prec = min(prec, precision)
    if point is None:
        point = series_point({v: images[v].truncate(prec)
                              for v in poly.variables})
    return point.eval(poly, prec)


@dataclass
class CompletionMorphism:
    """Morphism into the truncated completion, given by series images of the
    algebra variables over the base variable.  ``eval`` uses one point and
    keeps one value per polynomial, so a polynomial that the witness
    search, the reduction and the checks all read is evaluated once."""

    base_var: str
    field: object
    images: dict
    precision: int = 0
    point: SeriesPoint = dc_field(init=False, repr=False, compare=False)
    _values: dict = dc_field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        for name, s in self.images.items():
            if s.variables != (self.base_var,):
                raise StructuralError(
                    f"image of {name!r} must be a series in {self.base_var!r}")
            if s.field != self.field:
                raise StructuralError("image series over the wrong field")
        if not self.precision:
            if not self.images:
                raise StructuralError("morphism needs at least one image")
            self.precision = min(s.precision for s in self.images.values())
        images = {self.base_var: TruncatedSeries.variable(
            (self.base_var,), self.field, self.base_var, self.precision)}
        for name, s in self.images.items():
            images[name] = s.truncate(min(s.precision, self.precision))
        self.point = series_point(images)

    def eval(self, poly):
        value = self._values.get(poly)
        if value is None:
            value = self._values[poly] = series_eval(poly, self.point)
        return value


# ---------------------------------------------------------------------------
# Weierstrass preparation

@dataclass
class WeierstrassData:
    """f = unit * (x_m^p + sum z_i x_m^i) with z_i(0) = 0, to ``precision``."""

    variables: tuple
    p: int
    unit: TruncatedSeries
    zs: tuple          # z_0 .. z_{p-1}, series in the first m-1 variables
    precision: int

    def wpoly(self):
        """The monic distinguished polynomial as an m-variable series."""
        m = len(self.variables)
        terms = {(0,) * (m - 1) + (self.p,): self.unit.field.one()}
        F = self.unit.field
        for i, z in enumerate(self.zs):
            for mono, c in z.terms.items():
                full = tuple(mono) + (i,)
                if monomial_degree(full) < self.precision:
                    terms[full] = F.add(terms.get(full, F.zero()), c)
        return TruncatedSeries(self.variables, F, terms, self.precision)


def weierstrass_prepare(f):
    """Weierstrass preparation of an x_m-regular truncated series.

    Solves unit and distinguished-polynomial coefficients level by level in
    the degree grading of the first m-1 variables.  Level k maps each head
    of degree k (the exponents of the first m-1 variables) to its row, a
    series in x_m below x_m^(N-k); the product identity is re-checked
    before returning.
    """
    if len(f.variables) < 2:
        raise DomainError("Weierstrass preparation needs at least two "
                          "variables")
    F = f.field
    N = f.precision
    x = f.variables[-1:]
    levels = [{} for _ in range(N)]
    for mono, c in f.terms.items():
        head = mono[:-1]
        levels[monomial_degree(head)].setdefault(head, {})[mono[-1]] = c
    zero = (0,) * (len(f.variables) - 1)
    f0 = levels[0].get(zero)
    if not f0:
        raise DomainError("series is not regular in the last variable")
    p = min(f0)

    def row(terms, length):
        return TruncatedSeries._trusted(x, F, {(e,): c for e, c in
                                               terms.items()
                                               if not F.is_zero(c)}, length)

    # unit part of f(0,..,0,x_m) and its inverse, series in x_m; level k of
    # f is u_k x_m^p + sum_(j=1..k) u_(k-j) z_j, solved for z_k and u_k row
    # by row, where each z_j row has fewer than p terms; only the nonempty
    # levels are kept, in ascending order
    e = row({i - p: c for i, c in f0.items()}, N)
    e_inv = e.invert()
    u_levels = {0: {zero: sorted((m[0], c) for m, c in e.terms.items())}}
    z_levels = {}
    for k in range(1, N):
        length = N - k
        R = {head: dict(r) for head, r in levels[k].items()}
        for j, z_level in z_levels.items():
            for head_z, z in z_level.items():
                for head_u, u in u_levels.get(k - j, {}).items():
                    r = R.setdefault(tuple(map(add, head_u, head_z)), {})
                    for s, c in z.items():
                        c, room = F.neg(c), length - s
                        for i, cu in u:
                            if i >= room:
                                break
                            t, prod = i + s, F.mul(cu, c)
                            r[t] = F.add(r[t], prod) if t in r else prod
        u_level, z_level = {}, {}
        for head, r in R.items():
            w = (row(r, length) * e_inv).terms
            z = {m[0]: c for m, c in w.items() if m[0] < p}
            u = e * row({m[0] - p: c for m, c in w.items() if m[0] >= p},
                        length)
            if z:
                z_level[head] = z
            if u.terms:
                u_level[head] = sorted((m[0], c) for m, c in u.terms.items())
        if u_level:
            u_levels[k] = u_level
        if z_level:
            z_levels[k] = z_level

    unit = TruncatedSeries._trusted(
        f.variables, F, {head + (i,): c for level in u_levels.values()
                         for head, u in level.items() for i, c in u}, N)
    zs = [TruncatedSeries._trusted(
        f.variables[:-1], F, {head: z[i] for level in z_levels.values()
                              for head, z in level.items() if i in z}, N)
          for i in range(p)]
    data = WeierstrassData(variables=f.variables, p=p, unit=unit,
                           zs=tuple(zs), precision=N)
    check = unit * data.wpoly()
    if check.terms != f.terms:
        raise ConsistencyError("Weierstrass recurrence failed to reproduce input")
    return data


# ---------------------------------------------------------------------------
# text syntax: polynomial part plus a mandatory O(x^N) marker

_O_MARKER = re.compile(
    r"^(?P<body>.*?)(?:\+\s*)?O\(\s*(?P<var>[A-Za-z_]\w*)\s*(?:\^\s*(?P<exp>\d+))?\s*\)\s*$",
    re.S)


def parse_series(text, variables, field, line=1):
    m = _O_MARKER.match(text.strip())
    if not m:
        raise ParseError("series needs a trailing O(var^N) precision marker", line, 1)
    variables = tuple(variables)
    if m.group("var") not in variables:
        raise ParseError(f"precision marker uses undeclared variable "
                         f"{m.group('var')!r}", line, 1)
    precision = int(m.group("exp") or 1)
    if precision > MAX_PRECISION:
        raise ParseError(f"precision {precision} is above {MAX_PRECISION}",
                         line, 1)
    body = m.group("body").strip().rstrip("+").strip()
    if not body:
        body = "0"
    poly = parse_polynomial(body, variables, field, line)
    if poly.total_degree() >= precision:
        # canonical text: a term the marker would drop is refused
        raise ParseError(f"a term of degree {poly.total_degree()} is at or "
                         f"above the marker O({m.group('var')}^{precision})",
                         line, 1)
    return TruncatedSeries.from_polynomial(poly, precision)


def format_series(s):
    from .poly import format_polynomial

    marker = f"O({s.variables[0]}^{s.precision})"
    if not s.terms:
        return f"0 + {marker}"
    body = format_polynomial(s.to_polynomial(), ascending=True)
    return f"{body} + {marker}"
