"""Line-oriented text formats: problem files, Groebner/ideal output,
certificates, and reports.  Section headers in brackets, one item per line,
everything exact rational text; parse(emit(x)) reproduces x.
"""

from dataclasses import dataclass, field as dc_field

from .errors import ConsistencyError, ParseError, StructuralError
from .fields import QQ, PrimeField, SimpleExtension
from .poly import (Polynomial, alpha_polynomial, check_power_budget,
                   format_polynomial, order_from_name, parse_polynomial)
from .series import TruncatedSeries, format_series, parse_series
from .smooth import AlgebraPresentation, DesingData
from . import gnd as _gnd

KNOWN_SECTIONS = {
    "field", "series-field", "variables", "ideal", "ideal2", "morphism",
    "start", "options", "series", "matrix", "rhs", "solution",
    "umatrix", "vmatrix", "candidate",
}


class _Section(list):
    """A section's (line number, stripped payload line) pairs, and the line
    number of its header."""

    def __init__(self, header):
        super().__init__()
        self.header = header


def split_sections(text, known=None):
    """Map section name -> its ``_Section``."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if known is not None and name not in known:
                raise ParseError(f"unknown section [{name}]", lineno, 1)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno, 1)
            sections[name] = _Section(lineno)
            current = name
            continue
        if current is None:
            raise ParseError("content before the first section header",
                             lineno, 1)
        sections[current].append((lineno, line))
    return sections


# ---------------------------------------------------------------------------
# fields

def format_field(F):
    if F == QQ:
        return "Q"
    if isinstance(F, PrimeField):
        return f"GF {F.p}"
    if isinstance(F, SimpleExtension):
        mu = alpha_polynomial(F.mu, (F.gen,))
        return f"Q({F.gen}) {format_polynomial(mu)}"
    raise StructuralError(f"cannot serialize field {F!r}")


def parse_field(text, lineno=1):
    text = text.strip()
    if text == "Q":
        return QQ
    if text.startswith("GF"):
        try:
            return PrimeField(int(text[2:].strip()))
        except ValueError:
            raise ParseError(f"bad prime field {text!r}", lineno, 1)
    if text.startswith("Q(") and ")" in text:
        gen, rest = text[2:].split(")", 1)
        gen = gen.strip()
        mu_poly = parse_polynomial(rest.strip(), (gen,), QQ, lineno)
        deg = mu_poly.degree_in(gen)
        coeffs = [QQ.zero()] * (deg + 1)
        for (e,), c in mu_poly.terms.items():
            coeffs[e] = c
        return SimpleExtension(QQ, tuple(coeffs), gen=gen)
    raise ParseError(f"unknown field {text!r}", lineno, 1)


# ---------------------------------------------------------------------------
# section readers: each takes the section's name, its (line number, text)
# pairs and parse(text, line number) for one value, so that every value is
# read at its own line; a column counts from the start of the value

def _one(section, lines, parse, default=None):
    """The one value of a one-line section, or ``default`` without one."""
    if lines is None:
        return default
    if not lines:
        raise ParseError(f"section [{section}] is empty", lines.header, 1)
    if len(lines) > 1:
        raise ParseError(f"section [{section}] expects one line",
                         lines[1][0], 1)
    lineno, text = lines[0]
    return parse(text, lineno)


def _items(section, lines, parse):
    """One value per line."""
    return [parse(text, lineno) for lineno, text in lines]


def _rows(section, lines, parse):
    """';'-separated values on each line."""
    return [[parse(s, lineno) for s in text.split(";")]
            for lineno, text in lines]


def _named(section, lines, parse):
    """'name = value' lines, each name once."""
    out = {}
    for lineno, text in lines:
        if "=" not in text:
            raise ParseError(f"[{section}] lines look like 'name = value'",
                             lineno, 1)
        name, rest = text.split("=", 1)
        name = name.strip()
        if name in out:
            raise ParseError(f"[{section}] repeats {name!r}", lineno, 1)
        out[name] = parse(rest, lineno)
    return out


def _keyed(section, lines, bare=True):
    """'key value' lines, each key once: key -> (line number, value).  A key
    with no value reads as ''; unless ``bare``, it is refused."""
    out = {}
    for lineno, text in lines:
        key, *rest = text.split(None, 1)
        if key in out:
            raise ParseError(f"[{section}] repeats key {key!r}", lineno, 1)
        if not (rest or bare):
            raise ParseError(f"[{section}] lines look like 'key value'",
                             lineno, 1)
        out[key] = lineno, rest[0] if rest else ""
    return out


def _written(reader, values, fmt):
    """The lines from which ``reader`` reads ``values`` back."""
    if reader is _named:
        return [f"{name} = {fmt(v)}" for name, v in values.items()]
    if reader is _rows:
        return [" ; ".join(fmt(v) for v in row) for row in values]
    return [fmt(v) for v in values]


# ---------------------------------------------------------------------------
# problem files

@dataclass
class ProblemFile:
    field: object = None
    series_field: object = None
    base_var: str = None
    algebra_vars: tuple = ()
    ring: tuple = ()
    ideal: list = dc_field(default_factory=list)
    ideal2: list = dc_field(default_factory=list)
    morphism: dict = dc_field(default_factory=dict)
    start: dict = dc_field(default_factory=dict)
    options: dict = dc_field(default_factory=dict)    # key -> (line, value)
    series: TruncatedSeries = None
    matrix: list = dc_field(default_factory=list)
    rhs: list = dc_field(default_factory=list)
    solution: list = dc_field(default_factory=list)
    umatrix: list = dc_field(default_factory=list)
    vmatrix: list = dc_field(default_factory=list)
    candidate: dict = dc_field(default_factory=dict)

    def option_int(self, key, default):
        if key not in self.options:
            return default
        lineno, text = self.options[key]
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"option {key} must be an integer", lineno,
                             1) from None

    def order(self, override=None):
        lineno, name = self.options.get("order", (None, "degrevlex"))
        return order_from_name(override or name, None if override else lineno)


def parse_problem(text):
    sections = split_sections(text, KNOWN_SECTIONS)
    pf = ProblemFile()
    pf.field = _one("field", sections.get("field"), parse_field, QQ)
    pf.series_field = _one("series-field", sections.get("series-field"),
                           parse_field, pf.field)
    variables = _keyed("variables", sections.get("variables", []))
    unknown = [key for key in variables
               if key not in ("base", "algebra", "ring")]
    if unknown:
        raise ParseError(f"unknown variables line {unknown[0]!r}",
                         variables[unknown[0]][0], 1)
    names = {key: tuple(text.split()) for key, (_, text) in variables.items()}
    if "base" in names:
        if len(names["base"]) != 1:
            raise ParseError("exactly one base variable",
                             variables["base"][0], 1)
        pf.base_var = names["base"][0]
    pf.algebra_vars = names.get("algebra", ())
    pf.ring = names.get("ring") or (
        ((pf.base_var,) if pf.base_var else ()) + pf.algebra_vars)
    pf.options = _keyed("options", sections.get("options", []), bare=False)
    pf.series = _one("series", sections.get("series"), lambda text, lineno:
                     parse_series(text, pf.ring, pf.field, lineno))
    base = (pf.base_var or (pf.ring[0] if pf.ring else "x"),)

    def poly(ring):
        return lambda text, lineno: parse_polynomial(text, ring, pf.field,
                                                     lineno)

    def series(text, lineno):
        return parse_series(text, base, pf.series_field, lineno)

    for tag, reader, parse in (
            ("ideal", _items, poly(pf.ring)), ("ideal2", _items, poly(pf.ring)),
            ("morphism", _named, series), ("start", _named, series),
            ("candidate", _named, series), ("matrix", _rows, poly(base)),
            ("rhs", _items, poly(base)), ("solution", _items, series),
            ("umatrix", _rows, series), ("vmatrix", _rows, series)):
        setattr(pf, tag, reader(tag, sections.get(tag, []), parse))
    return pf


# ---------------------------------------------------------------------------
# ideal / Groebner output

def emit_ideal(generators, variables, F, order=None, header="ideal"):
    lines = ["[field]", format_field(F), "[ring]", " ".join(variables),
             f"[{header}]"]
    if order is not None:
        lines.append(f"order {order.kind}")
    lines += [format_polynomial(g) for g in generators]
    return "\n".join(lines) + "\n"


def emit_groebner(gb, variables, F):
    return emit_ideal(gb.elements, variables, F, order=gb.order,
                      header="groebner")


# ---------------------------------------------------------------------------
# certificates

# The polynomial and series sections, in the order they are written:
# (section, GndCertificate attribute, reader, format of one value).  [t] and
# [hat] hold series in the base variable, the others polynomials in the ring.
CERT_VALUES = (
    ("b", "b", _items, format_polynomial),
    ("relations", "relations", _items, format_polynomial),
    ("yprime", "yprime", _named, format_polynomial),
    ("H", "H", _rows, format_polynomial),
    ("G", "G", _rows, format_polynomial),
    ("hpolys", "h", _items, format_polynomial),
    ("gpolys", "g", _items, format_polynomial),
    ("qpolys", "Q", _items, format_polynomial),
    ("t", "t", _named, format_series),
    ("hat", "hat_images", _named, format_series),
)


def emit_certificate(cert):
    lines = ["[meta]",
             "version 1",
             f"base {cert.base_var}",
             f"c {cert.c}",
             f"p {cert.p}",
             f"precision {cert.precision}",
             f"short-circuit {int(cert.short_circuit)}",
             "permutation " + " ".join(str(i) for i in cert.permutation),
             "ring " + " ".join(cert.ring),
             "yvars " + " ".join(cert.yvars),
             "tvars " + (" ".join(cert.tvars) if cert.tvars else "-"),
             f"zvar {cert.zvar or '-'}",
             f"wvar {cert.wvar or '-'}",
             "subset " + " ".join(str(i) for i in cert.subset),
             "[field]", format_field(cert.field),
             "[series-field]", format_field(cert.series_field),
             "[D]"]
    lines += ([f"ext {cert.D.ext_var}", f"mu {format_polynomial(cert.D.mu)}"]
              if cert.D.ext_var else ["ext -"])
    lines += ["[data]",
              "subset " + " ".join(str(i) for i in cert.data.subset),
              "columns " + " ".join(str(i) for i in cert.data.columns),
              f"minor {format_polynomial(cert.data.minor)}",
              f"witness {format_polynomial(cert.data.witness)}",
              f"c {cert.data.c}",
              f"dprime {format_polynomial(cert.data.dprime)}",
              f"z {format_series(cert.data.z)}",
              f"pprime {format_polynomial(cert.data.pprime)}"]
    for tag, p in (("d", cert.d), ("s", cert.s)):
        lines += [f"[{tag}]", format_polynomial(p) if p is not None else "-"]
    for tag, attr, reader, fmt in CERT_VALUES:
        lines.append(f"[{tag}]")
        lines += _written(reader, getattr(cert, attr), fmt)
    lines += ["[bprime]", "variables " + " ".join(cert.Bprime.variables)]
    lines += [format_polynomial(p) for p in cert.Bprime.relations]
    lines.append("[report]")
    for r in cert.report:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{status};{r.precision};{r.name};{r.detail}")
    return "\n".join(lines) + "\n"


CERT_SECTIONS = {"meta", "field", "series-field", "D", "data", "d", "s",
                 "bprime", "report"} | {tag for tag, *_ in CERT_VALUES}


class _Required(dict):
    """Certificate sections or keys by name; a missing one is a ParseError."""

    def __init__(self, items, what):
        super().__init__(items)
        self.what = what

    def __missing__(self, key):
        raise ParseError(f"certificate has no {self.what} {key!r}")


def _int(text, lineno):
    """An integer certificate value; anything else is a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, found {text!r}", lineno,
                         1) from None


def _ints(text, lineno):
    return tuple(_int(t, lineno) for t in text.split())


def parse_certificate(text):
    sections = _Required(split_sections(text, CERT_SECTIONS), "section")

    def keyed(tag):
        return _Required(_keyed(tag, sections[tag]), f"[{tag}] key")

    def read(keys, key, parse=lambda text, lineno: text):
        lineno, text = keys[key]
        return parse(text, lineno)

    meta = keyed("meta")
    lineno, version = meta["version"]
    if version != "1":
        raise ParseError(f"[meta] version must be 1, found {version!r}",
                         lineno, 1)
    F = _one("field", sections["field"], parse_field)
    Fs = _one("series-field", sections["series-field"], parse_field)
    base = read(meta, "base")
    ring, yvars = (tuple(read(meta, key).split()) for key in ("ring", "yvars"))
    tvars = tuple(read(meta, "tvars").split()) \
        if read(meta, "tvars") != "-" else ()
    zvar, wvar = (None if read(meta, key) == "-" else read(meta, key)
                  for key in ("zvar", "wvar"))
    dkeys, ext = keyed("D"), {}
    if dkeys.get("ext", (0, "-"))[1] != "-":
        U = read(dkeys, "ext")
        ext = dict(ext_var=U, mu=read(dkeys, "mu", lambda text, lineno:
                                      parse_polynomial(text, (U,), QQ, lineno)))
    D = _gnd.DPresentation(base_var=base, field=F, series_field=Fs, **ext)

    def poly(text, lineno):
        return parse_polynomial(text, ring, F, lineno)

    def ser(text, lineno):
        return parse_series(text, (base,), Fs, lineno)

    datakeys = keyed("data")
    data = DesingData(**{key: read(datakeys, key, parse) for key, parse in (
        ("subset", _ints), ("columns", _ints), ("minor", poly),
        ("witness", poly), ("c", _int), ("dprime", poly), ("z", ser),
        ("pprime", poly))})
    d, s = (_one(tag, sections[tag], lambda text, lineno:
                 None if text == "-" else poly(text, lineno))
            for tag in ("d", "s"))
    values = {attr: reader(tag, sections.get(tag, []),
                           ser if fmt is format_series else poly)
              for tag, attr, reader, fmt in CERT_VALUES}
    bprime_lines = sections["bprime"]
    if not bprime_lines:
        raise ParseError("section [bprime] is empty", bprime_lines.header, 1)
    lineno, head = bprime_lines[0]
    keyword, *rest = head.split(None, 1)
    if keyword != "variables":
        raise ParseError("[bprime] must start with a 'variables' line",
                         lineno, 1)
    bvars = tuple(rest[0].split()) if rest else ()
    Bprime = AlgebraPresentation(
        base_var=base, variables=bvars, field=F, relations=_items(
            "bprime", bprime_lines[1:], lambda text, lineno:
            parse_polynomial(text, (base,) + bvars, F, lineno)))
    report = []
    for lineno, line in sections.get("report", []):
        fields = line.split(";", 3)
        if len(fields) != 4:
            raise ParseError("[report] line needs four ';'-separated fields",
                             lineno, 1)
        status, precision, name, detail = fields
        if status not in ("pass", "FAIL"):
            raise ParseError("[report] status must be 'pass' or 'FAIL'",
                             lineno, 1)
        report.append(_gnd.CheckResult(name=name, passed=status == "pass",
                                       precision=precision, detail=detail))
    cert = _gnd.GndCertificate(
        base_var=base, field=F, series_field=Fs, D=D, data=data,
        c=read(meta, "c", _int), p=read(meta, "p", _int),
        short_circuit=bool(read(meta, "short-circuit", _int)),
        ring=ring, yvars=yvars, tvars=tvars, zvar=zvar,
        permutation=read(meta, "permutation", _ints),
        subset=read(meta, "subset", _ints), d=d, s=s, Bprime=Bprime,
        wvar=wvar, precision=read(meta, "precision", _int), report=report,
        **values)
    _check_derived(cert)
    return cert


def _check_derived(cert):
    """Sections that no verify check reads must be what the other sections
    determine: the names of [yprime], [hat] and [t] (the [meta] yvars, or
    none for [yprime] in a short circuit, and tvars), the [data] subset
    (which indexes [relations]), c and columns, p = the degree of
    [relations], square H and G, pprime = minor*witness, dprime = x^c with
    c >= 1 (unless a short circuit), d = dprime^2, z = hat[zvar], g_i =
    s^p b_i + s^p T_i + Q_i and B', [series-field] ([field] itself or a
    Q(alpha) over it), the [D] extension (ext exactly when [series-field]
    is Q(alpha), mu its minimal polynomial in ext), the ext-degree of
    [s], [b], [yprime], [qpolys] and [gpolys], below that of mu, and the
    variables of [yprime] (x [and ext]) and of [H] and [G] (x [, ext] and
    the yvars), the ones the frame point maps. A mismatch is a
    ConsistencyError."""
    data, D, Fs = cert.data, cert.D, cert.series_field

    def require(ok, what):
        if not ok:
            raise ConsistencyError(f"certificate {what}")

    # B' maps to the completion only through U -> alpha, so mu is bound too
    extension = isinstance(Fs, SimpleExtension)
    require(Fs == cert.field or (extension and Fs.base == cert.field),
            "[series-field] is neither [field] nor a Q(alpha) over it")
    require((D.ext_var is not None) == extension,
            "[D] has ext without [series-field] Q(alpha), or the reverse")
    require(not extension or D.mu == alpha_polynomial(Fs.mu, (D.ext_var,)),
            "[D] mu is not the minimal polynomial of [series-field]")
    # every honest value is printed reduced, so no reduction below meets
    # a high power of U
    if extension and D.ext_var in cert.ring:
        values = [cert.s] if cert.s is not None else []
        values += cert.b + list(cert.yprime.values()) + cert.Q + cert.g
        require(all(q.degree_in(D.ext_var) < Fs.degree for q in values),
                f"[s], [b], [yprime], [qpolys] or [gpolys] has "
                f"{D.ext_var}-degree at or above that of mu")

    def within(polys, names):
        return all(v in names for q in polys for m in q.terms
                   for v, e in zip(q.variables, m) if e)

    prefix = D.ring_prefix()
    require(within(cert.yprime.values(), prefix),
            f"[yprime] has a value outside {' '.join(prefix)}")
    require(within([q for mat in (cert.H, cert.G) for row in mat
                    for q in row], prefix + cert.yvars),
            f"[H] or [G] has an entry outside {' '.join(prefix)} "
            f"and the yvars")

    for tag, named, names in (
            ("yprime", cert.yprime, () if cert.short_circuit else cert.yvars),
            ("hat", cert.hat_images, cert.yvars), ("t", cert.t, cert.tvars)):
        require(sorted(named) == sorted(names),
                f"[{tag}] does not name exactly {' '.join(names) or 'nothing'}")

    require(data.subset == cert.subset and data.c == cert.c,
            "[data] subset or c differs from [meta]")
    require(all(0 <= i < len(cert.relations) for i in cert.subset),
            "[meta] subset names a relation that [relations] lacks")
    # p bounds every power of s that verify takes, so bind it before any
    degree = max([0] + [r.total_degree() for r in cert.relations])
    require(cert.p == (0 if cert.short_circuit else degree),
            "[meta] p is not the degree of [relations]")
    require(data.pprime == data.minor * data.witness,
            "[data] pprime is not minor*witness")
    require(cert.d == data.dprime * data.dprime, "[d] is not dprime^2")
    if cert.short_circuit:
        expected = _gnd.bprime_presentation(cert.ring, cert.field,
                                            cert.relations, data.pprime)
    else:
        # checks 3 and 4 read d = x^(2c) through c
        require(cert.c >= 1 and data.dprime == Polynomial.variable(
            cert.ring, cert.field, cert.base_var, cert.c),
            "[data] dprime is not x^c with c at least 1")
        require(cert.permutation[:len(data.columns)] == data.columns,
                "[data] columns do not lead the permutation")
        require(cert.s is not None, "[s] is missing")
        n = len(cert.yvars)
        require(len(cert.tvars) == n and all(
            len(mat) == n and all(len(row) == n for row in mat)
            for mat in (cert.H, cert.G)),
            "[H] or [G] is not square in the yvars and tvars")
        require(cert.hat_images.get(cert.zvar) == data.z,
                "[data] z differs from the image of zvar in [hat]")
        check_power_budget(cert.s, cert.p, "[s]^p")
        sp = cert.s ** cert.p
        g = [D.reduce(sp * b + sp * Polynomial.variable(cert.ring, cert.field,
                                                         t) + q)
             for b, t, q in zip(cert.b, cert.tvars, cert.Q)]
        require(g == cert.g, "[gpolys] is not s^p b + s^p T + Q")
        expected = _gnd.bprime_presentation(
            cert.ring, cert.field, cert.relations + cert.h + cert.g, cert.s,
            D.mu if D.ext_var else None)
    require(expected == (cert.Bprime, cert.wvar),
            "[bprime] is not what the other sections determine")


def original_problem(cert):
    """Reconstruct (B, v) for re-verification from a parsed certificate."""
    if cert.short_circuit:
        orig_vars = cert.yvars
        rels = cert.relations
    else:
        inverse = [0] * len(cert.permutation)
        for new, old in enumerate(cert.permutation):
            inverse[old] = new
        ordered = tuple(cert.yvars[inverse[i]]
                        for i in range(len(cert.permutation)))
        orig_vars = tuple(v for v in ordered if v != cert.zvar)
        rels = cert.relations[:-1]
    ring = (cert.base_var,) + orig_vars
    relations = [r.restrict(ring) for r in rels]
    B = AlgebraPresentation(base_var=cert.base_var, variables=orig_vars,
                            field=cert.field, relations=relations)
    images = {yv: cert.hat_images[yv] for yv in orig_vars}
    v = _gnd.CompletionMorphism(base_var=cert.base_var,
                                field=cert.series_field, images=images)
    return B, v
