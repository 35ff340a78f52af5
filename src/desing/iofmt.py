"""Line-oriented text formats: problem files, Groebner/ideal output,
certificates, and reports.  Section headers in brackets, one item per line,
everything exact rational text; parse(emit(x)) reproduces x.
"""

from dataclasses import dataclass, field as dc_field

from .errors import ConsistencyError, ParseError, StructuralError
from .fields import QQ, PrimeField, SimpleExtension
from .groebner import GroebnerBasis, IdealPresentation
from .poly import (DEGREVLEX, Polynomial, check_power_budget,
                   format_polynomial, order_from_name, parse_polynomial)
from .series import TruncatedSeries, format_series, parse_series
from .smooth import AlgebraPresentation, DesingData
from . import gnd as _gnd

KNOWN_SECTIONS = {
    "field", "series-field", "variables", "ideal", "ideal2", "morphism",
    "start", "options", "series", "matrix", "rhs", "solution",
    "umatrix", "vmatrix", "candidate",
}


def split_sections(text, known=None):
    """Map section name -> list of (line number, stripped payload line)."""
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
            sections[name] = []
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
        mu = Polynomial((F.gen,), QQ,
                        {(i,): c for i, c in enumerate(F.mu) if c})
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


def _single_line(section, lines, name):
    if not lines:
        raise ParseError(f"section [{section}] is empty", 0, 1)
    if len(lines) > 1:
        raise ParseError(f"section [{section}] expects one line",
                         lines[1][0], 1)
    return lines[0]


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
    options: dict = dc_field(default_factory=dict)
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
        try:
            return int(self.options[key])
        except ValueError:
            raise ParseError(f"option {key} must be an integer")

    def order(self, override=None):
        name = override or self.options.get("order", "degrevlex")
        return order_from_name(name)


def parse_problem(text):
    sections = split_sections(text, KNOWN_SECTIONS)
    pf = ProblemFile()
    if "field" in sections:
        lineno, line = _single_line("field", sections["field"], "field")
        pf.field = parse_field(line, lineno)
    else:
        pf.field = QQ
    if "series-field" in sections:
        lineno, line = _single_line("series-field", sections["series-field"],
                                    "series-field")
        pf.series_field = parse_field(line, lineno)
    else:
        pf.series_field = pf.field
    for lineno, line in sections.get("variables", []):
        parts = line.split()
        key, names = parts[0], tuple(parts[1:])
        if key == "base":
            if len(names) != 1:
                raise ParseError("exactly one base variable", lineno, 1)
            pf.base_var = names[0]
        elif key == "algebra":
            pf.algebra_vars = names
        elif key == "ring":
            pf.ring = names
        else:
            raise ParseError(f"unknown variables line {key!r}", lineno, 1)
    if not pf.ring:
        pf.ring = ((pf.base_var,) if pf.base_var else ()) + pf.algebra_vars
    for key in ("ideal", "ideal2"):
        out = getattr(pf, key)
        for lineno, line in sections.get(key, []):
            out.append(parse_polynomial(line, pf.ring, pf.field, lineno))
    for key, attr in (("morphism", "morphism"), ("start", "start"),
                      ("candidate", "candidate")):
        target = getattr(pf, attr)
        for lineno, line in sections.get(key, []):
            if "=" not in line:
                raise ParseError(f"[{key}] lines look like 'name = series'",
                                 lineno, 1)
            name, rest = line.split("=", 1)
            name = name.strip()
            if name in target:
                raise ParseError(f"[{key}] repeats {name!r}", lineno, 1)
            base = (pf.base_var or (pf.ring[0] if pf.ring else "x"),)
            target[name] = parse_series(rest, base, pf.series_field, lineno)
    for lineno, line in sections.get("options", []):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError("options are 'key value' lines", lineno, 1)
        if parts[0] in pf.options:
            raise ParseError(f"[options] repeats key {parts[0]!r}", lineno, 1)
        pf.options[parts[0]] = parts[1].strip()
    if "series" in sections:
        lineno, line = _single_line("series", sections["series"], "series")
        pf.series = parse_series(line, pf.ring, pf.field, lineno)
    base = (pf.base_var or (pf.ring[0] if pf.ring else "x"),)
    for key in ("matrix",):
        for lineno, line in sections.get(key, []):
            pf.matrix.append([parse_polynomial(s, base, pf.field, lineno)
                              for s in line.split(";")])
    for lineno, line in sections.get("rhs", []):
        pf.rhs.append(parse_polynomial(line, base, pf.field, lineno))
    for lineno, line in sections.get("solution", []):
        pf.solution.append(parse_series(line, base, pf.series_field, lineno))
    for key in ("umatrix", "vmatrix"):
        out = getattr(pf, key)
        for lineno, line in sections.get(key, []):
            out.append([parse_series(s, base, pf.series_field, lineno)
                        for s in line.split(";")])
    return pf


# ---------------------------------------------------------------------------
# ideal / Groebner output

def emit_ideal(generators, variables, F, order=None, header="ideal"):
    lines = ["[field]", format_field(F), "[ring]", " ".join(variables),
             f"[{header}]"]
    if order is not None:
        lines.append(f"order {order.kind}")
    for g in generators:
        lines.append(format_polynomial(g))
    return "\n".join(lines) + "\n"


def emit_groebner(gb, variables, F):
    return emit_ideal(gb.elements, variables, F, order=gb.order,
                      header="groebner")


def parse_ideal_output(text, header="ideal"):
    sections = split_sections(text, {"field", "ring", header})
    lineno, line = _single_line("field", sections["field"], "field")
    F = parse_field(line, lineno)
    _, ringline = _single_line("ring", sections["ring"], "ring")
    ring = tuple(ringline.split())
    order = None
    gens = []
    for lineno, line in sections.get(header, []):
        if line.startswith("order "):
            order = order_from_name(line.split(None, 1)[1])
            continue
        gens.append(parse_polynomial(line, ring, F, lineno))
    if header == "groebner":
        return GroebnerBasis(order=order or DEGREVLEX, elements=gens)
    return IdealPresentation(ring, F, gens)


# ---------------------------------------------------------------------------
# certificates

def _fmt_poly(p):
    return format_polynomial(p)


def _emit_named(lines, tag, mapping, fmt):
    lines.append(f"[{tag}]")
    for name, value in mapping.items():
        lines.append(f"{name} = {fmt(value)}")


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
    if cert.D.ext_var:
        lines.append(f"ext {cert.D.ext_var}")
        lines.append(f"mu {_fmt_poly(cert.D.mu)}")
    else:
        lines.append("ext -")
    lines += ["[data]",
              "subset " + " ".join(str(i) for i in cert.data.subset),
              "columns " + " ".join(str(i) for i in cert.data.columns),
              f"minor {_fmt_poly(cert.data.minor)}",
              f"witness {_fmt_poly(cert.data.witness)}",
              f"c {cert.data.c}",
              f"dprime {_fmt_poly(cert.data.dprime)}",
              f"z {format_series(cert.data.z)}",
              f"pprime {_fmt_poly(cert.data.pprime)}"]
    lines += ["[d]", _fmt_poly(cert.d) if cert.d is not None else "-"]
    lines += ["[s]", _fmt_poly(cert.s) if cert.s is not None else "-"]
    lines.append("[b]")
    lines += [_fmt_poly(p) for p in cert.b]
    lines.append("[relations]")
    lines += [_fmt_poly(p) for p in cert.relations]
    _emit_named(lines, "yprime", cert.yprime, _fmt_poly)
    for tag, mat in (("H", cert.H), ("G", cert.G)):
        lines.append(f"[{tag}]")
        for row in mat:
            lines.append(" ; ".join(_fmt_poly(e) for e in row))
    for tag, seq in (("hpolys", cert.h), ("gpolys", cert.g),
                     ("qpolys", cert.Q)):
        lines.append(f"[{tag}]")
        lines += [_fmt_poly(p) for p in seq]
    _emit_named(lines, "t", cert.t, format_series)
    _emit_named(lines, "hat", cert.hat_images, format_series)
    lines.append("[bprime]")
    lines.append("variables " + " ".join(cert.Bprime.variables))
    lines += [_fmt_poly(p) for p in cert.Bprime.relations]
    lines.append("[report]")
    for r in cert.report:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{status};{r.precision};{r.name};{r.detail}")
    return "\n".join(lines) + "\n"


CERT_SECTIONS = {"meta", "field", "series-field", "D", "data", "d", "s", "b",
                 "relations", "yprime", "H", "G", "hpolys", "gpolys",
                 "qpolys", "t", "hat", "bprime", "report"}


class _Required(dict):
    """Certificate sections or keys by name; a missing one is a ParseError."""

    def __init__(self, items, what):
        super().__init__(items)
        self.what = what

    def __missing__(self, key):
        raise ParseError(f"certificate has no {self.what} {key!r}")


def _meta_map(sections, tag):
    out = {}
    for lineno, line in sections[tag]:
        parts = line.split(None, 1)
        if parts[0] in out:
            raise ParseError(f"[{tag}] repeats key {parts[0]!r}", lineno, 1)
        out[parts[0]] = parts[1] if len(parts) > 1 else ""
    return _Required(out, f"[{tag}] key")


def _int(text, what):
    """An integer certificate value; anything else is a ParseError."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, found {text!r}") \
            from None


def _ints(text, what):
    return tuple(_int(t, what) for t in text.split())


def parse_certificate(text):
    sections = _Required(split_sections(text, CERT_SECTIONS), "section")

    def line_of(tag):
        return _single_line(tag, sections[tag], tag)[1]

    meta = _meta_map(sections, "meta")
    if meta["version"] != "1":
        raise ParseError(f"[meta] version must be 1, found "
                         f"{meta['version']!r}")
    F = parse_field(line_of("field"))
    Fs = parse_field(line_of("series-field"))
    base = meta["base"]
    ring = tuple(meta["ring"].split())
    yvars = tuple(meta["yvars"].split())
    tvars = tuple(meta["tvars"].split()) if meta["tvars"] != "-" else ()
    zvar = meta["zvar"] if meta["zvar"] != "-" else None
    wvar = meta["wvar"] if meta["wvar"] != "-" else None
    dmeta = _meta_map(sections, "D")
    if dmeta.get("ext", "-") != "-":
        U = dmeta["ext"]
        mu = parse_polynomial(dmeta["mu"], (U,), QQ)
        D = _gnd.DPresentation(base_var=base, field=F, series_field=Fs,
                               ext_var=U, mu=mu)
    else:
        D = _gnd.DPresentation(base_var=base, field=F, series_field=Fs)

    def poly(s):
        return parse_polynomial(s, ring, F)

    def ser(s):
        return parse_series(s, (base,), Fs)

    data_meta = _meta_map(sections, "data")
    data = DesingData(
        subset=_ints(data_meta["subset"], "[data] subset"),
        columns=_ints(data_meta["columns"], "[data] columns"),
        minor=poly(data_meta["minor"]), witness=poly(data_meta["witness"]),
        c=_int(data_meta["c"], "[data] c"), dprime=poly(data_meta["dprime"]),
        z=ser(data_meta["z"]), pprime=poly(data_meta["pprime"]))

    def named(tag, parse_one):
        out = {}
        for lineno, line in sections.get(tag, []):
            if "=" not in line:
                raise ParseError(f"[{tag}] line needs 'name = value'",
                                 lineno, 1)
            name, rest = (part.strip() for part in line.split("=", 1))
            if name in out:
                raise ParseError(f"[{tag}] repeats {name!r}", lineno, 1)
            out[name] = parse_one(rest)
        return out

    def matrix(tag):
        return [[poly(s) for s in line.split(";")]
                for _, line in sections.get(tag, [])]

    def polyseq(tag):
        return [poly(line) for _, line in sections.get(tag, [])]

    dline = line_of("d")
    sline = line_of("s")
    bprime_lines = sections["bprime"]
    if not bprime_lines:
        raise ParseError("section [bprime] is empty")
    lineno, head = bprime_lines[0]
    keyword, *rest = head.split(None, 1)
    if keyword != "variables":
        raise ParseError("[bprime] must start with a 'variables' line",
                         lineno, 1)
    bvars = tuple(rest[0].split()) if rest else ()
    brels = [parse_polynomial(line, (base,) + bvars, F)
             for _, line in bprime_lines[1:]]
    Bprime = AlgebraPresentation(base_var=base, variables=bvars, field=F,
                                 relations=brels)
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
        c=_int(meta["c"], "[meta] c"), p=_int(meta["p"], "[meta] p"),
        short_circuit=bool(_int(meta["short-circuit"],
                                "[meta] short-circuit")),
        ring=ring, yvars=yvars, tvars=tvars, zvar=zvar,
        permutation=_ints(meta["permutation"], "[meta] permutation"),
        relations=polyseq("relations"),
        subset=_ints(meta["subset"], "[meta] subset"),
        d=poly(dline) if dline != "-" else None,
        s=poly(sline) if sline != "-" else None,
        b=polyseq("b"), yprime=named("yprime", poly),
        H=matrix("H"), G=matrix("G"), h=polyseq("hpolys"),
        g=polyseq("gpolys"), Q=polyseq("qpolys"), Bprime=Bprime, wvar=wvar,
        t=named("t", ser), hat_images=named("hat", ser),
        precision=_int(meta["precision"], "[meta] precision"),
        report=report)
    _check_derived(cert)
    return cert


def _check_derived(cert):
    """Sections that no verify check reads must be what the other sections
    determine: the names of [yprime], [hat] and [t] (the [meta] yvars, or
    none for [yprime] in a short circuit, and tvars), the [data] subset
    (which indexes [relations]), c and columns, p = the degree of
    [relations], square H and G, pprime = minor*witness, d = dprime^2,
    z = hat[zvar], g_i = s^p b_i + s^p T_i + Q_i and B'.
    A mismatch is a ConsistencyError."""
    data, D = cert.data, cert.D

    def require(ok, what):
        if not ok:
            raise ConsistencyError(f"certificate {what}")

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
