"""Problem-file text and the benchmark's own exact arithmetic.

The output checks must not trust the engine, so this module formats the
generated inputs, parses the engine's textual outputs and multiplies
polynomials and truncated series with nothing but ``Fraction`` and ``int``.
Coefficients live in Q (``p is None``) or in GF(p) as integers in [0, p).
"""

from fractions import Fraction


class CheckFailed(Exception):
    """An engine output that does not pass the benchmark's check."""


def _reduce(c, p):
    if p is None:
        return Fraction(c)
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def fmt_coeff(c, p):
    return str(c % p) if p is not None else str(Fraction(c))


def fmt_poly(terms, names, p=None):
    """Text for ``{exponent tuple: coefficient}``, highest monomial first."""
    chunks = []
    for mono in sorted(terms, reverse=True):
        c = _reduce(terms[mono], p)
        if c == 0:
            continue
        neg = p is None and c < 0
        mag = fmt_coeff(-c if neg else c, p)
        factors = [n if e == 1 else f"{n}^{e}"
                   for n, e in zip(names, mono) if e]
        if mag != "1" or not factors:
            factors.insert(0, mag)
        chunks.append(("-" if neg else "+", "*".join(factors)))
    if not chunks:
        return "0"
    sign, body = chunks[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def fmt_series(coeffs, var, precision, p=None):
    """Univariate series text from a coefficient list, low degree first."""
    terms = {(k,): c for k, c in enumerate(coeffs[:precision]) if c}
    return f"{fmt_poly(terms, (var,), p)} + O({var}^{precision})"


def parse_poly(text, names, p=None):
    """Inverse of the engine's ``format_polynomial`` for Q and GF(p).

    Terms are separated by `` + `` and `` - ``; a term is ``*``-joined
    factors, each an integer, a fraction ``a/b``, a name or ``name^e``.
    """
    text = text.strip()
    if text == "0":
        return {}
    if text.startswith("-"):
        text = "- " + text[1:]
    else:
        text = "+ " + text
    toks = text.split()
    if len(toks) % 2:
        raise CheckFailed(f"unparsable polynomial text {text[:60]!r}")
    index = {n: i for i, n in enumerate(names)}
    out = {}
    for sign, body in zip(toks[0::2], toks[1::2]):
        if sign not in "+-":
            raise CheckFailed(f"unexpected separator {sign!r}")
        coeff = Fraction(1)
        mono = [0] * len(names)
        for factor in body.split("*"):
            name, _, exp = factor.partition("^")
            if name in index:
                mono[index[name]] += int(exp or 1)
            else:
                coeff *= Fraction(factor)
        if sign == "-":
            coeff = -coeff
        key = tuple(mono)
        out[key] = _reduce(out.get(key, 0) + coeff, p)
    return {m: c for m, c in out.items() if c != 0}


def parse_series(text, names, p=None):
    """(terms, precision) from ``<polynomial> + O(v^N)``."""
    body, sep, marker = text.strip().rpartition(" + O(")
    if not sep:
        raise CheckFailed(f"series without precision marker: {text[:60]!r}")
    precision = int(marker.rstrip(")").split("^")[1])
    return parse_poly(body, names, p), precision


# ---------------------------------------------------------------------------
# arithmetic on {exponent tuple: coefficient}

def poly_add(a, b, p=None, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
        if p is not None:
            out[m] %= p
    return {m: c for m, c in out.items() if c != 0}


def poly_mul(a, b, p=None, cut=None):
    """Product, dropping monomials of total degree >= cut when given."""
    out = {}
    for m1, c1 in a.items():
        d1 = sum(m1)
        for m2, c2 in b.items():
            if cut is not None and d1 + sum(m2) >= cut:
                continue
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    if p is not None:
        out = {m: c % p for m, c in out.items()}
    return {m: c for m, c in out.items() if c != 0}


def poly_scale_vars(terms, scales, p=None):
    """Substitute x_i -> scales[i] * x_i."""
    out = {}
    for mono, c in terms.items():
        for s, e in zip(scales, mono):
            c = c * s ** e
        out[mono] = _reduce(c, p)
    return {m: c for m, c in out.items() if c != 0}


def uni_mul(a, b, n, p=None):
    """Truncated product of two dense coefficient lists, length n."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j, y in enumerate(b[:n - i]):
            if y:
                out[i + j] += x * y
    if p is not None:
        out = [c % p for c in out]
    return out


def uni_dense(terms, n):
    """Dense list of length n from univariate ``{(k,): c}`` terms."""
    out = [0] * n
    for (k,), c in terms.items():
        if k < n:
            out[k] = c
    return out
