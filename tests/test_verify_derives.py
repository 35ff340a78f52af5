"""Certificate version 5: what ``verify`` derives instead of reading.

A version-5 certificate prints no y', H, G, M or s, no h or g, and no
fact twice.  ``verify`` takes y' from [hat] below x^(6c), H and G from the
subset relations and the witness, M as det H (the Jacobian minor of the
subset relations in the leading yvars; in a short circuit that minor
itself) and s = P(y')/d, and reads h, g and W*s - 1 (W*M*N - 1 in a short
circuit) of B' through their formula; p, the ring, zvar, mu and the
minor's columns come from the rest.  These tests rebuild the seed-1
certify certificates of the benchmark and change what is printed: a
forged witness, a retired section or a stray or retired key must be
refused, and ``verify`` must reach no Groebner code.  The construction hands verify what it derived; verify of the
printed text must derive the same.
"""

import os
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from desing import cli, gnd, groebner
from desing.cli import main
from desing.errors import DesingError
from desing.fields import QQ, SimpleExtension
from desing.gnd import DPresentation, FramePoint, derive_frame, \
    truncate_lift
from desing.groebner import division
from desing.iofmt import emit_certificate, parse_certificate
from desing.poly import DEGREVLEX, Polynomial, format_polynomial
from test_gnd import reduce_mod_mu

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
NAMES = ("node-c1", "node-c2", "node-c3", "chain-k1", "chain-k2", "chain-k3",
         "chain-k4", "sqrt2-node")


@pytest.fixture(scope="module")
def problems(tmp_path_factory):
    """The seed-1 certify problem files of the benchmark, by name."""
    tmp = tmp_path_factory.mktemp("certify")
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
        files = workloads.certify(1, str(tmp)).files
    finally:
        sys.path.remove(PERFBENCH)
    out = {name: tmp / f"{name}.problem" for name in NAMES}
    for name, problem in out.items():
        problem.write_text(files[str(problem)])
    return out


@pytest.fixture(scope="module")
def certificates(problems):
    """The seed-1 certify certificates of the benchmark, by name."""
    out = {}
    for name, problem in problems.items():
        cert = problem.with_suffix(".cert")
        assert main(["gnd", "--input", str(problem),
                     "--output", str(cert)]) == 0
        out[name] = cert.read_text()
    return out


def _verify_exit(text):
    """The exit code of ``desing verify`` on a certificate text; any other
    exception is a traceback and fails the test."""
    try:
        return cli.run_verify(None, None, text)[1]
    except DesingError as exc:
        return exc.exit_code


def _replace_line(text, start, line):
    lines = text.split("\n")
    k = next(i for i, old in enumerate(lines) if old.startswith(start))
    lines[k] = line
    return "\n".join(lines)


def test_verify_reaches_no_groebner_code(certificates):
    # D.reduce takes the remainder by mu with the univariate kit of fields,
    # so no code object of groebner.py runs while a certificate is read
    # and checked, over Q(sqrt 2) too
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    for name, text in certificates.items():
        sys.setprofile(record)
        try:
            code = _verify_exit(text)
        finally:
            sys.setprofile(None)
        assert code == 0, name
    files = {os.path.basename(c.co_filename) for c in reached}
    assert {"gnd.py", "iofmt.py", "series.py", "smooth.py"} <= files
    assert [c.co_name for c in reached
            if c.co_filename == groebner.__file__] == []


@pytest.mark.parametrize("name", ["node-c1", "chain-k2", "sqrt2-node"])
def test_verify_given_the_record_agrees_with_verify_deriving_it(
        problems, name, tmp_path, monkeypatch):
    # desingularize hands its FrameRecord to verify_certificate; verify of
    # the emitted text derives its own, with the same report, and
    # derive_frame on that text gives the record's M, G, G(y') and s
    handed, real = [], gnd.verify_certificate

    def verify(cert, B, v, derived=None):
        handed.append((cert, B, v, derived))
        return real(cert, B, v, derived)

    monkeypatch.setattr(gnd, "verify_certificate", verify)
    assert main(["gnd", "--input", str(problems[name]),
                 "--output", str(tmp_path / "cert.txt")]) == 0
    (cert, B, v, rec), = handed
    assert rec is not None
    parsed = parse_certificate(emit_certificate(cert))
    assert [r.line() for r in real(parsed, B, v)] == \
        [r.line() for r in real(cert, B, v, rec)]
    own = derive_frame({yv: parsed.hat_images[yv] for yv in parsed.yvars},
                       parsed.c, parsed.D, parsed.ring,
                       parsed.subset_relations(), parsed.yvars,
                       parsed.witness)
    assert (own.M, own.G, own.Gy, own.s) == (rec.M, rec.G, rec.Gy, rec.s)


def _polynomial(ring, names):
    """Polynomials in ``names`` (x and the yvars) with small exponents and
    coefficients, as polynomials of ``ring``."""
    index = [ring.index(v) for v in names]
    monomial = st.tuples(*[st.integers(0, 3) for _ in names])
    coeff = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                             Fraction(1, 2), Fraction(-3, 7)])

    def build(terms):
        out = {}
        for exps, c in terms.items():
            m = [0] * len(ring)
            for i, e in zip(index, exps):
                m[i] = e
            out[tuple(m)] = c
        return Polynomial(ring, QQ, out)

    return st.dictionaries(monomial, coeff, max_size=4).map(build)


@pytest.mark.parametrize("name", ["node-c1", "chain-k2", "sqrt2-node"])
def test_a_forged_witness_is_refused(certificates, name):
    # [data] witness swapped for a random polynomial in x and the yvars
    # whose value at y' differs from the honest N's: P = M*N is then not
    # (R + x^c)^2 for the bordering relation R, which binds the witness as
    # W*s - 1 did up to version 4, so verify exits 5 (or 2), never 0 and
    # never with a traceback
    text = certificates[name]
    cert = parse_certificate(text)
    frame = FramePoint(cert.D, truncate_lift(
        {yv: cert.hat_images[yv] for yv in cert.yvars}, cert.c, cert.D,
        cert.ring))
    honest = frame(cert.witness)

    @settings(max_examples=40, deadline=None)
    @given(_polynomial(cert.ring, (cert.base_var,) + cert.yvars))
    def run(witness):
        assume(frame(witness) != honest)
        forged = _replace_line(text, "witness ",
                               f"witness {format_polynomial(witness)}")
        assert _verify_exit(forged) in (5, 2)

    run()


@pytest.mark.parametrize("section", ["yprime", "H", "G", "s"])
def test_a_retired_section_exits_2(certificates, section):
    # version 2 printed y', H, G and s; a version-5 certificate that still
    # has one of these sections is refused at its header
    text = certificates["node-c1"]
    bad = text.replace("[relations]\n", f"[{section}]\nx\n[relations]\n")
    line = bad.split("\n").index(f"[{section}]") + 1
    with pytest.raises(DesingError,
                       match=f"^line {line}, column 1: unknown section"):
        parse_certificate(bad)
    assert _verify_exit(bad) == 2


def test_a_version_2_header_exits_2(certificates):
    bad = certificates["node-c1"].replace("version 5", "version 2")
    with pytest.raises(DesingError, match="version must be 5, found '2'"):
        parse_certificate(bad)
    assert _verify_exit(bad) == 2


# what gnd wrote at version 3 for Y1 - x^2 at Y1 = x^2, Y2 = x
VERSION_3_SHORT_CIRCUIT = """\
[meta]
version 3
base x
c 0
p 0
precision 12
short-circuit 1
permutation 0 1
ring x Y1 Y2
yvars Y1 Y2
tvars -
zvar -
wvar W
subset 0
[field]
Q
[series-field]
Q
[D]
ext -
[data]
columns 0
witness 1
z 1 + O(x^12)
[relations]
-x^2 + Y1
[t]
[hat]
Y1 = x^2 + O(x^12)
Y2 = x + O(x^12)
[bprime]
variables Y1 Y2 W
-x^2 + Y1
W - 1
[report]
pass;vacuous;GH = HG = P*Id;smooth short-circuit
pass;vacuous;s^p f = d^2 g mod (h);smooth short-circuit
pass;vacuous;I(y') = 0 mod d^3;smooth short-circuit
pass;vacuous;h and g vanish on (yhat, t);no h, g
pass;O(x^12);composite factors v;
pass;O(x^12);smoothness witness is a unit;
"""


def test_a_version_3_certificate_exits_2_at_its_version_line():
    with pytest.raises(DesingError, match="^line 2, column 1: \\[meta\\] "
                       "version must be 5, found '3'"):
        parse_certificate(VERSION_3_SHORT_CIRCUIT)
    assert _verify_exit(VERSION_3_SHORT_CIRCUIT) == 2


# the lines version 3 printed and versions 4 and 5 derive, each put back
# into the seed-1 certificate it belongs in (B''s variables, which version
# 3 printed in [bprime], into [meta]): (key, section, line)
RETIRED = {
    "p": ("meta", "p 2"),
    "short-circuit": ("meta", "short-circuit 0"),
    "ring": ("meta", "ring x Y1 Z Y2 T1 T2 T3"),
    "zvar": ("meta", "zvar Z"),
    "mu": ("D", "mu U^2 - 2"),
    "columns": ("data", "columns 0 2"),
    "variables": ("meta", "variables Y1 Z Y2 T1 T2 T3 W"),
}


@pytest.mark.parametrize("key", sorted(RETIRED))
def test_a_retired_key_exits_2_at_its_line(certificates, key):
    section, line = RETIRED[key]
    text = certificates["sqrt2-node" if key == "mu" else "node-c1"]
    bad = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n", 1)
    lineno = bad.split("\n").index(line) + 1
    with pytest.raises(DesingError, match=f"^line {lineno}, column 1: "):
        parse_certificate(bad)
    assert _verify_exit(bad) == 2


@pytest.mark.parametrize("section, before, line", [
    ("meta", "base ", "foo 17"),
    ("D", "ext ", "foo 17"),
    ("data", "witness ", "bogus 3"),
    # a stale version-2 line cannot ride along
    ("data", "witness ", "minor Y2^2"),
    # z is printed in a short circuit only
    ("data", "witness ", "z 2 + O(x^19)"),
], ids=["meta", "D", "data", "data-minor", "data-z"])
def test_an_unknown_key_exits_2(certificates, section, before, line):
    text = certificates["node-c1"]
    lines = text.split("\n")
    k = next(i for i in range(lines.index(f"[{section}]"), len(lines))
             if lines[i].startswith(before))
    bad = "\n".join(lines[:k] + [line] + lines[k:])
    key = line.split()[0]
    with pytest.raises(DesingError, match=f"^line {k + 1}, column 1: "
                       f"\\[{section}\\] has unknown key '{key}'"):
        parse_certificate(bad)
    assert _verify_exit(bad) == 2


SHORT_CIRCUIT = ("[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n[ideal]\n"
                 "Y1 - x^2\n[morphism]\nY1 = x^2 + O(x^12)\n"
                 "Y2 = x + O(x^12)\n")


@pytest.mark.parametrize("case", ["D-without-ext", "bare-tvars"])
def test_every_key_is_printed_in_one_spelling(certificates, tmp_path, case):
    # every key is required, and "none" is spelled "-": a bordered [D]
    # without its "ext -" line, and a short circuit's "tvars -" written as
    # a bare "tvars", are refused with exit 2
    if case == "D-without-ext":
        text, old, new = certificates["node-c1"], "\n[D]\next -\n", "\n[D]\n"
    else:
        problem = tmp_path / "short.problem"
        problem.write_text(SHORT_CIRCUIT)
        cert = tmp_path / "short.cert"
        assert main(["gnd", "--input", str(problem),
                     "--output", str(cert)]) == 0
        text, old, new = cert.read_text(), "\ntvars -\n", "\ntvars\n"
    assert text.count(old) == 1
    bad = text.replace(old, new)
    with pytest.raises(DesingError):
        parse_certificate(bad)
    assert _verify_exit(bad) == 2


def test_w_s_minus_one_is_bound_to_the_derived_s(certificates):
    # the s of W*s - 1 is P(y')/d = 1 + 2x^5 + x^10 by B''s formula, and no
    # line can name another: version 4's [bprime] with W*s' - 1, s' = 1
    # (which is 1 modulo d), is refused at its header, exit 2
    text = certificates["node-c1"]
    cert = parse_certificate(text)
    rec = derive_frame({yv: cert.hat_images[yv] for yv in cert.yvars},
                       cert.c, cert.D, cert.ring, cert.subset_relations(),
                       cert.yvars, cert.witness)
    assert format_polynomial(rec.s) == "x^10 + 2*x^5 + 1"
    bad = text.replace("\n[report]\n", "\n[bprime]\nW - 1\n[report]\n")
    line = bad.split("\n").index("[bprime]") + 1
    with pytest.raises(DesingError, match=f"^line {line}, column 1: "
                       "unknown section \\[bprime\\]"):
        parse_certificate(bad)
    assert _verify_exit(bad) == 2


def _with_u(F):
    """Polynomials in x, U and Y1 with U-degrees past that of mu."""
    ring = ("x", "U", "Y1")
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3 * (F.degree + 1)),
                     st.integers(0, 2))
    coeff = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 7)])
    return st.dictionaries(exps, coeff, max_size=8).map(
        lambda terms: Polynomial(ring, QQ, terms))


CUBIC = SimpleExtension(QQ, (Fraction(1, 3), Fraction(-1, 2), 0, 1), gen="s")
SQRT2 = SimpleExtension(QQ, (-2, 0, 1), gen="r")


@pytest.mark.parametrize("F", [SQRT2, CUBIC], ids=["sqrt2", "cubic"])
def test_reduce_by_mu_matches_the_groebner_division(F):
    D = DPresentation(base_var="x", field=QQ, series_field=F, ext_var="U")

    @settings(max_examples=100, deadline=None)
    @given(_with_u(F))
    def run(poly):
        want = division(poly, [D.mu.embed(poly.variables)], DEGREVLEX)
        got = reduce_mod_mu(D, poly)
        assert got == want
        assert format_polynomial(got) == format_polynomial(want)

    run()
