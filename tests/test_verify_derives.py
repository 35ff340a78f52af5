"""Certificate version 7: what ``verify`` derives instead of reading.

A version-7 certificate prints no y', H, G, M or s, no h or g, no t, no
name that B' binds (U, the T's, W) and no fact twice.  ``verify`` takes y'
from [hat] below x^(6c), H and G from the subset relations and the
witness, M as det H (the Jacobian minor of the subset relations in the
leading yvars; in a short circuit that minor itself), s = P(y')/d and the
point's t = H(y')(yhat - y')/d^2, and reads h, g and W*s - 1 (W*M*N - 1 in
a short circuit) of B' through their formula; p, the ring, zvar, mu, the
minor's columns, A's field, U and the T's come from the rest.  These tests rebuild the seed-1 certify
certificates of the benchmark and change what is printed: a forged
witness, a retired section or a stray or retired key must be refused, and
``verify`` must reach no Groebner code.  The construction hands verify
what it derived; verify of the printed text must derive the same.
"""

import os
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from desing import check, cli, gnd, groebner
from desing.check import (DPresentation, FramePoint, derive_frame,
                          truncate_lift)
from desing.cli import main
from desing.errors import ConsistencyError, DesingError
from desing.fields import QQ, SimpleExtension
from desing.groebner import division
from desing.iofmt import emit_certificate, parse_certificate
from desing.poly import DEGREVLEX, Polynomial, format_polynomial
from test_cli import _cli_subprocess
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
    # and checked, over Q(sqrt 2) too; nor does any of the construction
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
    package = os.path.dirname(check.__file__)
    files = {os.path.basename(c.co_filename) for c in reached
             if os.path.dirname(c.co_filename) == package}
    assert files <= {"cli.py", "iofmt.py", "check.py", "series.py",
                     "poly.py", "fields.py", "errors.py"}
    assert [c.co_name for c in reached
            if c.co_filename == groebner.__file__] == []


@pytest.mark.parametrize("name", ["node-c1", "chain-k2", "sqrt2-node"])
def test_verify_given_the_record_agrees_with_verify_deriving_it(
        problems, name, tmp_path, monkeypatch):
    # desingularize hands its FrameRecord to verify_certificate; verify of
    # the emitted text derives its own, with the same report, and
    # derive_frame on that text gives the record's M, G, s and [hat]
    # markers
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
                       parsed.witness, parsed.precision)
    assert (own.M, own.G, own.s, own.marks) == (rec.M, rec.G, rec.s,
                                                rec.marks)


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
    bad = certificates["node-c1"].replace("version 7", "version 2")
    with pytest.raises(DesingError, match="version must be 7, found '2'"):
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
                       "version must be 7, found '3'"):
        parse_certificate(VERSION_3_SHORT_CIRCUIT)
    assert _verify_exit(VERSION_3_SHORT_CIRCUIT) == 2


# the lines version 3 printed and later versions derive, each put back
# into the seed-1 certificate it belongs in (B''s variables, which version
# 3 printed in [bprime], and mu, which it printed in [D], a section
# version 6 retires, into [meta]): (key, section, line)
RETIRED = {
    "p": ("meta", "p 2"),
    "short-circuit": ("meta", "short-circuit 0"),
    "ring": ("meta", "ring x Y1 Z Y2 T1 T2 T3"),
    "zvar": ("meta", "zvar Z"),
    "mu": ("meta", "mu U^2 - 2"),
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
    ("data", "witness ", "bogus 3"),
    # a stale version-2 line cannot ride along
    ("data", "witness ", "minor Y2^2"),
    # version 5 printed z in a short circuit only, version 6 nowhere
    ("data", "witness ", "z 2 + O(x^19)"),
], ids=["meta", "data", "data-minor", "data-z"])
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


@pytest.fixture(scope="module")
def short_circuit(tmp_path_factory):
    """The certificate of SHORT_CIRCUIT."""
    tmp = tmp_path_factory.mktemp("short")
    problem, cert = tmp / "short.problem", tmp / "short.cert"
    problem.write_text(SHORT_CIRCUIT)
    assert main(["gnd", "--input", str(problem), "--output", str(cert)]) == 0
    return cert.read_text()


@pytest.mark.parametrize("case", ["D-without-ext", "bare-tvars"])
def test_every_key_is_printed_in_one_spelling(certificates, short_circuit,
                                              case):
    # one text per certificate: every key is required, and "none" is
    # spelled "-"; version 5's spellings of none, a bordered [D] without
    # its "ext -" line and a short circuit's "tvars -" written as a bare
    # "tvars", are refused with exit 2, as version 6 prints neither
    if case == "D-without-ext":
        text, old, new = (certificates["node-c1"], "\n[data]\n",
                          "\n[D]\n[data]\n")
    else:
        text, old, new = short_circuit, "\nsubset 0\n", "\ntvars\nsubset 0\n"
    assert text.count(old) == 1
    bad = text.replace(old, new)
    with pytest.raises(DesingError):
        parse_certificate(bad)
    assert _verify_exit(bad) == 2


def test_a_version_5_header_exits_2(certificates):
    bad = certificates["node-c1"].replace("version 7", "version 5")
    with pytest.raises(DesingError, match="^line 2, column 1: \\[meta\\] "
                       "version must be 7, found '5'"):
        parse_certificate(bad)
    assert _verify_exit(bad) == 2


# the lines version 5 printed and version 6 does not, each put back where
# version 5 printed it, in node-c1 (z: in the short circuit): the ground
# field is the base field of [series-field], U and the T's are named after
# the yvars, no polynomial names W, and check 6 of a short circuit reads
# ord v(M*N) = 0 itself; (the text the lines go before, the lines)
VERSION_5_LINES = {
    "field": ("\n[series-field]\n", "[field]\nQ"),
    "D": ("\n[data]\n", "[D]\next -"),
    "tvars": ("\nsubset ", "tvars T1 T2 T3"),
    "wvar": ("\nsubset ", "wvar W"),
    "z": ("\n[relations]\n", "z 1 + O(x^12)"),
}


@pytest.mark.parametrize("name", sorted(VERSION_5_LINES))
def test_a_version_5_line_exits_2_at_its_line(certificates, short_circuit,
                                              name):
    before, lines = VERSION_5_LINES[name]
    text = short_circuit if name == "z" else certificates["node-c1"]
    assert text.count(before) == 1
    bad = text.replace(before, f"\n{lines}{before}")
    lineno = bad.split("\n").index(lines.split("\n")[0]) + 1
    with pytest.raises(DesingError, match=f"^line {lineno}, column 1: "):
        parse_certificate(bad)
    assert _verify_exit(bad) == 2


# what version 6 printed and version 7 derives: the [t] section, as [hat]
# fixes t = H(y')(yhat - y')/d^2, and the version line itself
VERSION_6_LINES = {
    "version": lambda text: text.replace("\nversion 7\n", "\nversion 6\n"),
    "t": lambda text: text.replace(
        "\n[hat]\n", "\n[t]\nT1 = -2*x^3 + O(x^19)\n[hat]\n"),
}


@pytest.mark.parametrize("name", sorted(VERSION_6_LINES))
def test_a_version_6_line_exits_2_at_its_line(certificates, name):
    text = certificates["node-c1"]
    bad = VERSION_6_LINES[name](text)
    assert bad != text
    lineno = 2 if name == "version" else bad.split("\n").index("[t]") + 1
    with pytest.raises(DesingError, match=f"^line {lineno}, column 1: "):
        parse_certificate(bad)
    assert _verify_exit(bad) == 2


@pytest.mark.parametrize("power", [2000, 100000])
def test_a_high_power_off_the_minor_verifies_fast(tmp_path, certificates,
                                                  power):
    # + Y2^k on node-c1's first relation leaves M and P as they were (the
    # minor's columns are Y1 and Z), and v kills it to precision: verify
    # takes no value at y' of G, and every value at a point skips the
    # terms of x-order at or past its precision, so the certificate
    # verifies, exit 0, well within 5 s (Y2^2000 ran past 120 s while
    # verify took G(y'))
    text = certificates["node-c1"]
    bad = text.replace("\n-x^2 + Y1*Y2\n", f"\n-x^2 + Y1*Y2 + Y2^{power}\n")
    assert bad.count(f"Y2^{power}") == 1
    path = tmp_path / "bad.cert"
    path.write_text(bad)
    run = _cli_subprocess(["verify", "--input", str(path)], timeout=5)
    assert run.returncode == 0
    assert "Traceback" not in run.stderr


def test_the_witness_is_bound_before_any_value_at_yprime(certificates,
                                                         monkeypatch):
    # Z^2 + Y1^2000 in place of node-c1's witness Z^2: P = M*N is not
    # (R + x^c)^2, and derive_frame refuses it before it builds the frame
    # or takes s = P(y')/d, where P(y') alone took seconds
    def refuse(*args):
        raise AssertionError("a value at y' before the witness is bound")

    # derive_frame reads both from check, where it is defined: the honest
    # certificate reaches each
    text = certificates["node-c1"]
    for name in ("compute_s_b", "FramePoint"):
        monkeypatch.setattr(check, name, refuse)
        with pytest.raises(AssertionError, match="before the witness"):
            cli.run_verify(None, None, text)
    assert "\nwitness Z^2\n" in text
    bad = text.replace("\nwitness Z^2\n", "\nwitness Z^2 + Y1^2000\n")
    with pytest.raises(ConsistencyError,
                       match="witness does not give P = M\\*N"):
        cli.run_verify(None, None, bad)


def test_check_1_forms_one_product(certificates, monkeypatch):
    # G*H = P*Id with P != 0 gives H*G = P*Id over the domain k[x, U, Y],
    # so check 1 forms G*H alone; on every seed-1 certificate H*G is G*H
    products, real = [], check.matrix_mul

    def mul(a, b):
        # build_H_G's adj(A)*C goes through matrix_mul too
        if sys._getframe(1).f_code is check.verify_certificate.__code__:
            products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(check, "matrix_mul", mul)
    for name, text in certificates.items():
        products.clear()
        assert _verify_exit(text) == 0, name
        (G, H), = products
        assert real(H, G) == real(G, H), name


def test_w_s_minus_one_is_bound_to_the_derived_s(certificates):
    # the s of W*s - 1 is P(y')/d = 1 + 2x^5 + x^10 by B''s formula, and no
    # line can name another: version 4's [bprime] with W*s' - 1, s' = 1
    # (which is 1 modulo d), is refused at its header, exit 2
    text = certificates["node-c1"]
    cert = parse_certificate(text)
    rec = derive_frame({yv: cert.hat_images[yv] for yv in cert.yvars},
                       cert.c, cert.D, cert.ring, cert.subset_relations(),
                       cert.yvars, cert.witness, cert.precision)
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
