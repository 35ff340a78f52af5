"""Coefficient fields: the rationals, small prime fields, and simple extensions.

Field elements are plain Python values kept in canonical form, so ``==`` is
semantic equality.  The field objects carry the arithmetic.

- Q: an ``int`` when the value is integral, a ``Fraction`` otherwise.  Most
  coefficients are integers, and int arithmetic runs in C where Fraction's
  runs in Python; ``Fraction(3) == 3``, the two hash alike and print alike.
- GF(p): an ``int`` in [0, p).
- Q(alpha): a tuple of Fractions, the coefficients of 1, alpha, alpha^2, ...

Bulk arithmetic over Q and GF(p) runs on plain ints: ``scaled_to_ints``
clears the denominators of a batch of Q values with one lcm, and
``read_back`` turns integer results into field elements once, as a
quotient by that denominator over Q or a residue over GF(p).
"""

from fractions import Fraction
from itertools import product
from math import factorial, lcm
from operator import attrgetter, index

from .errors import DomainError, ResourceError, StructuralError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def _is_prime(n):
    """Deterministic Miller-Rabin; the prime bases 2..37 settle every
    n < 3.3e24, which covers all machine-word moduli."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES[:12]:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SMALL_PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Abstract coefficient field."""

    kind = None

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def from_fraction(self, q):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def is_zero(self, a):
        return a == self.zero()

    def characteristic(self):
        return 0

    def coerce(self, other, a):
        """Map element ``a`` of field ``other`` into this field, if canonical."""
        if other == self:
            return a
        raise StructuralError(f"cannot coerce element of {other} into {self}")

    def format(self, a):
        raise NotImplementedError

    def format_atomic(self, a):
        """True if format(a) needs no parentheses when used as a factor."""
        return True


# Decimal text of any size: CPython refuses int <-> str conversions of more
# than 4300 digits by default, so both directions go 4000 digits at a time.
_CHUNK = 4000
_CHUNK_BASE = 10 ** _CHUNK
_CHUNK_BITS = 13_000            # an int below 2^13000 has under 4000 digits


def parse_decimal(digits):
    """The int of a run of decimal digits, read chunk by chunk."""
    if len(digits) <= _CHUNK:
        return int(digits)
    value = 0
    for k in range(0, len(digits), _CHUNK):
        chunk = digits[k:k + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def format_decimal(n):
    """str(n) for an int of any size, written chunk by chunk."""
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK_BASE:
        n, low = divmod(n, _CHUNK_BASE)
        chunks.append(str(low).zfill(_CHUNK))
    return sign + str(n) + "".join(reversed(chunks))


def _integral(r):
    """The canonical Q element of the Fraction r: its numerator if integral."""
    return r.numerator if r.denominator == 1 else r


class RationalField(Field):
    kind = "rationals"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return index(n)

    def from_fraction(self, q):
        return _integral(Fraction(q))

    def add(self, a, b):
        r = a + b
        return r if type(r) is int else _integral(r)

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int else _integral(r)

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise DomainError("division by zero in Q")
        return _integral(Fraction(1) / a)

    def is_zero(self, a):
        return a == 0

    def format(self, a):
        if a.denominator == 1:
            return format_decimal(a.numerator)
        return (f"{format_decimal(a.numerator)}/"
                f"{format_decimal(a.denominator)}")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField(Field):
    kind = "prime-field"

    def __init__(self, p):
        if p >= 1 << 63:
            raise DomainError("prime-field modulus must fit in a machine word")
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, q):
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise DomainError(f"denominator divisible by {self.p}")
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise DomainError(f"division by zero in F_{self.p}")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def characteristic(self):
        return self.p

    def format(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def scaled_to_ints(values):
    """(D, [c*D for c in values]) for Q values: D is the lcm of their
    denominators, so every c*D is an int."""
    den = lcm(*map(_denominator, values))
    if den == 1:
        return 1, list(map(_numerator, values))
    return den, [c.numerator * (den // c.denominator) for c in values]


def read_back(F, items, den=1):
    """The dict of k: c/den over Q, or of k: c mod p over GF(p), for the
    (k, c) in ``items``, c an int; zero values are left out and an integral
    quotient is an int."""
    if type(F) is PrimeField:
        p = F.p
        return {k: c % p for k, c in items if c % p}
    if den == 1:
        return {k: c for k, c in items if c}
    return {k: c // den if c % den == 0 else Fraction(c, den)
            for k, c in items if c}


# ---------------------------------------------------------------------------
# dense univariate polynomials over a Field F: coefficient lists, low power
# first, with no zero leading coefficient; [] is the zero polynomial

def _poly_trim(F, f):
    while f and F.is_zero(f[-1]):
        f.pop()
    return f


def _poly_sub(F, f, g):
    out = list(f) + [F.zero()] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = F.sub(out[i], c)
    return _poly_trim(F, out)


def _poly_mul(F, f, g):
    out = [F.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not F.is_zero(a):
            for j, b in enumerate(g):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
    return _poly_trim(F, out)


def _poly_divmod(F, f, g):
    """(q, r) with f = q*g + r and deg r < deg g, for g nonzero."""
    r = list(f)
    q = [F.zero()] * max(0, len(f) - len(g) + 1)
    inv = F.invert(g[-1])
    while len(_poly_trim(F, r)) >= len(g):
        c = F.mul(r[-1], inv)
        shift, minus_c = len(r) - len(g), F.neg(c)
        q[shift] = c
        for i, gc in enumerate(g):
            r[shift + i] = F.add(r[shift + i], F.mul(minus_c, gc))
    return q, r


def _poly_gcd(F, f, g):
    while g:
        f, g = g, _poly_divmod(F, f, g)[1]
    return f


def _poly_powmod(F, f, e, m):
    """f^e modulo m."""
    result, base = [F.one()], _poly_divmod(F, f, m)[1]
    while e:
        if e & 1:
            result = _poly_divmod(F, _poly_mul(F, result, base), m)[1]
        base = _poly_divmod(F, _poly_mul(F, base, base), m)[1]
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# irreducibility over Q by modular certificate with Kronecker fallback

# The largest degree of a minimal polynomial; the modular pass over every
# usable prime takes about a second at this degree.
MAX_EXTENSION_DEGREE = 16
# Steps of the Kronecker search, over all factor degrees: one step is one
# candidate factor or one trial divisor while listing divisors.
KRONECKER_BUDGET = 200_000


def _fp_irreducible(f, F):
    """Distinct-degree irreducibility test for monic f over F = GF(p)."""
    p, d = F.p, len(f) - 1
    # squarefree check via gcd with the derivative
    deriv = _poly_trim(F, [F.from_int(i * c) for i, c in enumerate(f)][1:])
    if not deriv or len(_poly_gcd(F, f, deriv)) > 1:
        return False
    x = [F.zero(), F.one()]
    # x^(p^d) == x mod f, and no root of x^(p^(d/l)) - x for prime l | d
    if _poly_sub(F, _poly_powmod(F, x, p ** d, f), x):
        return False
    for ell in range(2, d + 1):
        if d % ell == 0 and _is_prime(ell):
            xq = _poly_powmod(F, x, p ** (d // ell), f)
            if len(_poly_gcd(F, f, _poly_sub(F, xq, x))) > 1:
                return False
    return True


def _spend(left, steps):
    """The Kronecker budget left after ``steps`` more steps."""
    if steps > left:
        raise ResourceError(f"irreducibility trial-factorization budget of "
                            f"{KRONECKER_BUDGET} steps exceeded")
    return left - steps


def _divisors(n, left):
    """The positive divisors of n != 0, by trial division up to the square
    root of what is left of n, and the budget ``left`` after it."""
    n, divisors, q = abs(n), [1], 2
    while q * q <= n:
        left = _spend(left, 1)
        e = 0
        while n % q == 0:
            n, e = n // q, e + 1
        if e:
            divisors = [t * q ** i for i in range(e + 1) for t in divisors]
        q += 1
    if n > 1:
        divisors += [t * n for t in divisors]
    return sorted(divisors), left


def _kronecker_has_factor(coeffs):
    """Search for a nonconstant proper factor of a monic integer polynomial.

    A factor of degree k takes at the points 0..k values that divide the
    polynomial's values there, and is the interpolant of those values:
    k! times the Lagrange basis has integer coefficients, and a candidate
    is tried only when it is an integer multiple of a monic integer
    polynomial, as every monic factor over Q is (Gauss's lemma).
    """
    d, left = len(coeffs) - 1, KRONECKER_BUDGET
    for k in range(1, d // 2 + 1):
        points = range(k + 1)
        values = [sum(c * x ** i for i, c in enumerate(coeffs))
                  for x in points]
        if 0 in values:
            return True  # integer root, hence a linear factor
        choices = []
        for v in values:
            divisors, left = _divisors(v, left)
            choices.append([s * t for t in divisors for s in (1, -1)])
        basis = []
        for i in points:
            num, den = [1], 1
            for j in points:
                if j != i:
                    num, den = _poly_mul(QQ, num, [-j, 1]), den * (i - j)
            basis.append([c * (factorial(k) // den) for c in num])
        for vals in product(*choices):
            left = _spend(left, 1)
            cand = [sum(v * b[t] for v, b in zip(vals, basis))
                    for t in points]
            lead = cand[-1]
            if lead and not any(c % lead for c in cand) and not _poly_divmod(
                    QQ, coeffs, [c // lead for c in cand])[1]:
                return True
    return False


def _least_scaling(coeffs):
    """The least l making every l^(d-i) c_i integral (c_d = 1): each prime
    q of a denominator enters to the largest ceil(v_q(den c_i) / (d - i)).
    Trial division stops below 2^16; a cofactor with no prime factor
    there enters whole, as in the lcm of the denominators."""
    d = len(coeffs) - 1
    rest = [(c.denominator, d - i) for i, c in enumerate(coeffs)
            if c.denominator > 1]
    ell, q = 1, 2
    while rest and q < 1 << 16 and q * q <= max(n for n, _ in rest):
        need = 0
        for j, (n, k) in enumerate(rest):
            e = 0
            while n % q == 0:
                n, e = n // q, e + 1
            need = max(need, -(-e // k))
            rest[j] = (n, k)
        ell *= q ** need
        rest = [(n, k) for n, k in rest if n > 1]
        q += 1
    return ell * lcm(*(n for n, _ in rest))


def is_irreducible_over_q(coeffs):
    """Irreducibility of a monic rational polynomial (coefficients low-first).

    A modular distinct-degree certificate is tried first; trial factorization
    (Kronecker interpolation) decides the remaining cases at desk scale.
    """
    coeffs = [Fraction(c) for c in coeffs]
    if not coeffs or coeffs[-1] != 1:
        raise DomainError("minimal polynomial must be monic")
    d = len(coeffs) - 1
    if d > MAX_EXTENSION_DEGREE:
        raise DomainError(f"minimal polynomial of degree {d} is above the "
                          f"bound {MAX_EXTENSION_DEGREE}")
    if d <= 1:
        return d == 1
    # scale x -> x/l to obtain a monic integer polynomial
    ell = _least_scaling(coeffs)
    iv = [int(c * ell ** (d - i)) for i, c in enumerate(coeffs)]
    if iv[0] == 0:
        return False
    for p in _SMALL_PRIMES:
        if iv[0] % p:
            F = PrimeField(p)
            if _fp_irreducible([F.from_int(c) for c in iv], F):
                return True
    return not _kronecker_has_factor(iv)


class SimpleExtension(Field):
    """k(alpha) with alpha a root of a monic irreducible polynomial over k.

    Only extensions of Q are needed by the pipeline.  Elements are tuples of
    Fractions of length deg(mu), low power first.
    """

    kind = "simple-extension"

    def __init__(self, base, mu, gen="alpha"):
        if not isinstance(base, RationalField):
            raise DomainError("simple extensions are supported over Q only")
        mu = tuple(Fraction(c) for c in mu)
        if len(mu) < 3:
            raise DomainError("extension degree must be at least 2")
        if not is_irreducible_over_q(mu):
            raise DomainError("minimal polynomial is reducible")
        self.base = base
        self.mu = mu
        self.gen = gen
        self.degree = len(mu) - 1
        # mu for ``_reduce``: ints where integral, so int rows stay ints
        self._mu = tuple(map(_integral, mu))

    def zero(self):
        return (Fraction(0),) * self.degree

    def one(self):
        return (Fraction(1),) + (Fraction(0),) * (self.degree - 1)

    def generator(self):
        return tuple(Fraction(int(i == 1)) for i in range(self.degree))

    def from_int(self, n):
        return (Fraction(n),) + (Fraction(0),) * (self.degree - 1)

    def from_fraction(self, q):
        return (Fraction(q),) + (Fraction(0),) * (self.degree - 1)

    def from_coeffs(self, coeffs, den=1):
        """The element sum c_i alpha^i / den for Q values c_i: reduced by
        mu first, in ints when the c_i and mu are integral."""
        if den == 1:
            return tuple(map(Fraction, self._reduce(coeffs)))
        return tuple(Fraction(c, den) for c in self._reduce(coeffs))

    def _reduce(self, coeffs):
        coeffs = list(coeffs)
        d = self.degree
        while len(coeffs) > d:
            top = coeffs.pop()
            if top:
                for i in range(d):
                    coeffs[len(coeffs) - d + i] -= top * self._mu[i]
        coeffs += [Fraction(0)] * (d - len(coeffs))
        return tuple(coeffs)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        out = [Fraction(0)] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._reduce(out)

    def neg(self, a):
        return tuple(-x for x in a)

    def invert(self, a):
        if self.is_zero(a):
            raise DomainError("division by zero in extension field")
        # extended Euclid in Q[alpha] against mu
        r0, r1 = list(self.mu), _poly_trim(QQ, list(a))
        s0, s1 = [], [1]
        while len(r1) > 1:
            q, rem = _poly_divmod(QQ, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(QQ, s0, _poly_mul(QQ, q, s1))
        inv = 1 / Fraction(r1[0])
        return self._reduce([c * inv for c in s1])

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def coerce(self, other, a):
        if other == self:
            return a
        if isinstance(other, RationalField):
            return self.from_fraction(a)
        raise StructuralError(f"cannot coerce element of {other} into {self}")

    def format(self, a):
        from .poly import alpha_polynomial, format_polynomial
        return format_polynomial(alpha_polynomial(a, (self.gen,)),
                                 ascending=True)

    def format_atomic(self, a):
        return sum(1 for c in a if c != 0) <= 1 and all(c >= 0 for c in a)

    def __eq__(self, other):
        return (isinstance(other, SimpleExtension) and other.mu == self.mu
                and other.gen == self.gen)

    def __hash__(self):
        return hash(("simple-extension", self.mu, self.gen))

    def __repr__(self):
        return f"QQ({self.gen})"

