"""Line-oriented text formats: problem files, Groebner/ideal output,
certificates, and reports.  Section headers in brackets, one item per line,
everything exact rational text; parse(emit(x)) reproduces x.
"""

from dataclasses import dataclass, field as dc_field

from .check import (CheckResult, GndCertificate, bound_names, working_ring,
                    _check_meta, _check_shape)
from .errors import ParseError, StructuralError
from .fields import QQ, PrimeField, SimpleExtension
from .poly import (alpha_polynomial, format_polynomial, order_from_name,
                   parse_polynomial)
from .series import TruncatedSeries, format_series, parse_series

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
# The polynomial and series sections, in the order they are written:
# (section, GndCertificate attribute, reader, format of one value).  [hat]
# holds series in the base variable, [relations] polynomials in the ring;
# the rest of B' is derived from these (``check``).
CERT_VALUES = (
    ("relations", "relations", _items, format_polynomial),
    ("hat", "hat_images", _named, format_series),
)


def _list(items):
    """A [meta] list: its items, or '-' for none."""
    return " ".join(str(i) for i in items) or "-"


def emit_certificate(cert):
    lines = ["[meta]",
             "version 7",
             f"base {cert.base_var}",
             f"c {cert.c}",
             f"precision {cert.precision}",
             "permutation " + _list(cert.permutation),
             "yvars " + _list(cert.yvars),
             "subset " + _list(cert.subset),
             "[series-field]", format_field(cert.series_field),
             "[data]", f"witness {format_polynomial(cert.witness)}"]
    for tag, attr, reader, fmt in CERT_VALUES:
        lines.append(f"[{tag}]")
        lines += _written(reader, getattr(cert, attr), fmt)
    lines.append("[report]")
    lines += [f"{'pass' if r.passed else 'FAIL'};{r.precision};{r.name};"
              f"{r.detail}" for r in cert.report]
    return "\n".join(lines) + "\n"


CERT_SECTIONS = {"meta", "series-field", "data", "report"} | {
    tag for tag, *_ in CERT_VALUES}


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
    return tuple(_int(t, lineno) for t in _names(text, lineno))


def _names(text, lineno):
    return () if text == "-" else tuple(text.split())


def parse_certificate(text):
    sections = _Required(split_sections(text), "section")

    def keyed(tag, known):
        """[tag]'s keys, each one of ``known`` and with a value, else a
        ParseError."""
        keys = _Required(_keyed(tag, sections[tag]), f"[{tag}] key")
        for key, (lineno, value) in keys.items():
            if key not in known.split():
                raise ParseError(f"[{tag}] has unknown key {key!r}", lineno,
                                 1)
            if not value:
                raise ParseError(f"[{tag}] lines look like 'key value'",
                                 lineno, 1)
        return keys

    def read(keys, key, parse=lambda text, lineno: text):
        lineno, text = keys[key]
        return parse(text, lineno)

    # the version is read first, so that an old certificate is refused by it
    lineno, version = _Required(_keyed("meta", sections["meta"]),
                                "[meta] key")["version"]
    if version != "7":
        raise ParseError(f"[meta] version must be 7, found {version!r}",
                         lineno, 1)
    meta = keyed("meta", "version base c precision permutation yvars subset")
    for name, lines in sections.items():
        if name not in CERT_SECTIONS:
            raise ParseError(f"unknown section [{name}]", lines.header, 1)
    Fs = _one("series-field", sections["series-field"], parse_field)
    base, yvars = read(meta, "base"), read(meta, "yvars", _names)
    c, precision = (read(meta, key, _int) for key in ("c", "precision"))
    subset, permutation = (read(meta, key, _ints)
                           for key in ("subset", "permutation"))
    _check_meta(base, Fs, c, yvars, permutation, subset)
    D = bound_names(base, Fs, yvars)
    ring = working_ring(D, c, yvars)

    def poly(text, lineno):
        return parse_polynomial(text, ring, D.field, lineno)

    def ser(text, lineno):
        return parse_series(text, (base,), Fs, lineno)

    values = {attr: reader(tag, sections[tag],
                           ser if fmt is format_series else poly)
              for tag, attr, reader, fmt in CERT_VALUES}
    # [data] prints the witness, which the checks read; verify derives M
    datakeys = keyed("data", "witness")
    report = []
    for lineno, line in sections["report"]:
        fields = line.split(";", 3)
        if len(fields) != 4 or fields[0] not in ("pass", "FAIL"):
            raise ParseError("[report] lines look like 'pass;precision;"
                             "name;detail' (or 'FAIL;...')", lineno, 1)
        status, where, name, detail = fields
        report.append(CheckResult(name, status == "pass", where, detail))
    cert = GndCertificate(
        D=D, witness=read(datakeys, "witness", poly), c=c, yvars=yvars,
        permutation=permutation, subset=subset,
        precision=precision, report=report, **values)
    _check_shape(cert)
    return cert
