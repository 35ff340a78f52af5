import contextlib
import os
import re
import subprocess
import sys
import time

import pytest

import desing

from desing import cli, gnd
from desing.cli import main
from desing.errors import ConsistencyError, ParseError
from desing.fields import QQ, PrimeField
from desing.groebner import GroebnerBasis, IdealPresentation
from desing.iofmt import (emit_certificate, parse_certificate, parse_field,
                          parse_problem, split_sections)
from desing.poly import (DEGREVLEX, Polynomial, order_from_name,
                         parse_polynomial)


def parse_ideal_output(text, header="ideal"):
    """The ideal (or, with header "groebner", the basis) that the groebner,
    quotient and smooth-locus subcommands write: a [field] line, a [ring]
    line, then the generators after an optional order line."""
    sections = split_sections(text, {"field", "ring", header})
    F = parse_field(sections["field"][0][1])
    ring = tuple(sections["ring"][0][1].split())
    lines = sections.get(header, [])
    order = None
    if lines and lines[0][1].startswith("order "):
        order = order_from_name(lines[0][1].split(None, 1)[1], lines[0][0])
        lines = lines[1:]
    gens = [parse_polynomial(text, ring, F, lineno) for lineno, text in lines]
    if header == "groebner":
        return GroebnerBasis(order=order or DEGREVLEX, elements=gens)
    return IdealPresentation(ring, F, gens)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def node_series(precision=24):
    body = " ".join(f"{'-' if k % 2 == 0 else '+'} x^{k}"
                    for k in range(2, precision))
    return f"x {body} + O(x^{precision})"


def node_problem(precision=24):
    return (
        "[field]\n"
        "Q\n"
        "[variables]\n"
        "base x\n"
        "algebra Y1 Y2\n"
        "[ideal]\n"
        "Y1*Y2 - x^2\n"
        "[morphism]\n"
        f"Y1 = x + x^2 + O(x^{precision})\n"
        f"Y2 = {node_series(precision)}\n")


# ---------------------------------------------------------------------------
# problem parsing

def test_parse_problem_basics():
    pf = parse_problem(node_problem())
    assert pf.field == QQ
    assert pf.base_var == "x" and pf.algebra_vars == ("Y1", "Y2")
    assert len(pf.ideal) == 1
    assert set(pf.morphism) == {"Y1", "Y2"}
    assert pf.morphism["Y1"].coefficient((2,)) == 1


def test_parse_problem_refuses_a_term_at_the_marker():
    # the series reader is canonical in problem files too
    text = node_problem().replace("Y1 = x + x^2 + O(x^24)",
                                  "Y1 = x + x^24 + O(x^24)")
    with pytest.raises(ParseError, match="line 9, column 1: .*marker"):
        parse_problem(text)


def test_parse_problem_unknown_section():
    with pytest.raises(ParseError):
        parse_problem("[nonsense]\nfoo\n")


def test_parse_problem_missing_marker():
    text = node_problem().replace(" + O(x^24)\n", "\n", 1)
    with pytest.raises(ParseError):
        parse_problem(text)


def test_split_sections_comments_and_duplicates():
    secs = split_sections("[a]\nfoo # trailing\n# whole line\nbar\n")
    assert secs["a"] == [(2, "foo"), (4, "bar")]
    with pytest.raises(ParseError):
        split_sections("[a]\n[a]\n")
    with pytest.raises(ParseError):
        split_sections("orphan line\n")


# ---------------------------------------------------------------------------
# subcommands, artifacts, exit codes

def test_cli_groebner_round_trip(tmp_path):
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nring x y\n"
                "[ideal]\nx^2 + y^2\nx*y\n")
    out = str(tmp_path / "out.txt")
    assert main(["groebner", "--input", inp, "--output", out]) == 0
    text = open(out).read()
    gb = parse_ideal_output(text, header="groebner")
    assert {str(g) for g in gb.elements} == {"x^2 + y^2", "x*y", "y^3"}
    # an unknown order line is refused at its own line
    bad = text.replace("order degrevlex", "order foo")
    line = bad.splitlines().index("order foo") + 1
    with pytest.raises(ParseError, match=f"^line {line}, column 1: unknown"):
        parse_ideal_output(bad, header="groebner")


def test_cli_quotient(tmp_path):
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nring x y\n"
                "[ideal]\nx^2\nx*y\n[ideal2]\nx\n")
    out = str(tmp_path / "out.txt")
    assert main(["quotient", "--input", inp, "--output", out]) == 0
    I = parse_ideal_output(open(out).read())
    assert {str(g) for g in I.generators} >= {"x", "y"}


def test_cli_smooth_locus(tmp_path):
    inp = write(tmp_path, "in.problem", node_problem())
    out = str(tmp_path / "out.txt")
    assert main(["smooth-locus", "--input", inp, "--output", out]) == 0
    I = parse_ideal_output(open(out).read())
    assert I.generators


def test_cli_smooth_locus_budget_exhausted(tmp_path):
    inp = write(tmp_path, "in.problem",
                node_problem() + "[options]\nsubset-budget 0\n")
    assert main(["smooth-locus", "--input", inp]) == 4


def test_cli_gnd_verify_chain(tmp_path):
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    assert main(["verify", "--input", cert_path]) == 0


def test_cli_gnd_verify_flag(tmp_path):
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path,
                 "--verify"]) == 0
    plain_path = str(tmp_path / "plain.txt")
    assert main(["gnd", "--input", inp, "--output", plain_path]) == 0
    assert open(cert_path).read() == open(plain_path).read()


def test_cli_gnd_verify_checks_emitted_text(tmp_path, monkeypatch):
    # the in-memory certificate is sound; only its text is corrupted
    def corrupt(cert):
        lines = cli_emit(cert).split("\n")
        row = lines.index("[H]") + 1
        entries = lines[row].split(" ; ")
        entries[0] += " + 1"
        lines[row] = " ; ".join(entries)
        return "\n".join(lines)

    cli_emit = cli.emit_certificate
    monkeypatch.setattr(cli, "emit_certificate", corrupt)
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    assert main(["gnd", "--input", inp, "--output", cert_path,
                 "--verify"]) == 5
    assert main(["verify", "--input", cert_path]) == 5


def test_cli_verify_rejects_tampering(tmp_path):
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    text = open(cert_path).read()
    bad = text.replace("2*x^5", "3*x^5")
    assert bad != text
    bad_path = write(tmp_path, "bad.txt", bad)
    assert main(["verify", "--input", bad_path]) == 5


def test_cli_verify_truncated_certificate(tmp_path):
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    meta_only = open(cert_path).read().split("[field]", 1)[0]
    assert meta_only.startswith("[meta]")
    bad_path = write(tmp_path, "meta.txt", meta_only)
    assert main(["verify", "--input", bad_path]) == 2
    with pytest.raises(ParseError, match="section 'field'"):
        parse_certificate(meta_only)


def _edit_line(text, tag, key, edit):
    """Apply ``edit`` to the first line of section [tag] that starts with
    ``key`` (any line when ``key`` is empty)."""
    lines = text.split("\n")
    start = lines.index(f"[{tag}]") + 1
    k = next(i for i in range(start, len(lines)) if lines[i].startswith(key))
    lines[k] = edit(lines[k])
    return "\n".join(lines)


def _empty_bprime(text):
    head, rest = text.split("[bprime]\n", 1)
    return head + "[bprime]\n[report]\n" + rest.split("[report]\n", 1)[1]


def _no_equals(tag):
    return lambda text: _edit_line(text, tag, "", lambda l: l.replace("=", ""))


def _edit_line_to(tag, line):
    return lambda text: _edit_line(text, tag, "", lambda l: line)


def _value(tag, key, value):
    return lambda text: _edit_line(text, tag, key + " ",
                                   lambda l: f"{key} {value}")


MALFORMED_CERTIFICATES = {
    "empty-bprime": _empty_bprime,
    "yprime-without-equals": _no_equals("yprime"),
    "t-without-equals": _no_equals("t"),
    "hat-without-equals": _no_equals("hat"),
    "meta-version": _value("meta", "version", "2"),
    "meta-c": _value("meta", "c", "one"),
    "meta-p": _value("meta", "p", "2.5"),
    "meta-precision": _value("meta", "precision", "x^2"),
    "meta-subset": _value("meta", "subset", "0 a"),
    "meta-permutation": _value("meta", "permutation", "0 2 one"),
    "data-c": _value("data", "c", "1/2"),
    "data-subset": _value("data", "subset", "0 b"),
    "short-report-line": lambda text: _edit_line(
        text, "report", "", lambda l: l.rsplit(";", 2)[0]),
    "report-status": lambda text: _edit_line(
        text, "report", "", lambda l: l.replace("pass", "ok", 1)),
    # T1 = -x^3 + O(x^19) becomes -x^19 + O(x^19): the marker would drop it
    "t-term-above-marker": lambda text: _edit_line(
        text, "t", "T1 ", lambda l: re.sub(
            r"x\^\d+ \+ O\(x\^(\d+)\)", r"x^\1 + O(x^\1)", l)),
    # a [series-field] that is not [field] nor an extension of it parses,
    # and is refused as inconsistent
    "series-field-gf7": (_edit_line_to("series-field", "GF 7"),
                         ConsistencyError),
    "series-field-gf32003": (_edit_line_to("series-field", "GF 32003"),
                             ConsistencyError),
    # the frame point maps x and the yvars only: a [yprime] value in a Y,
    # or a [G] entry in a T, is inconsistent
    "yprime-in-a-yvar": (lambda text: _edit_line(
        text, "yprime", "", lambda l: l + " + Y2"), ConsistencyError),
    "G-in-a-tvar": (lambda text: _edit_line(
        text, "G", "", lambda l: l.replace(" ; ", " + T1 ; ", 1)),
        ConsistencyError),
    # c is bound to dprime = x^c: at c = 0 check 3 would read nothing
    **{f"c-{c}": (lambda text, c=c: _value("data", "c", c)(
        _value("meta", "c", c)(text)), ConsistencyError) for c in (0, 2)},
}


@pytest.fixture(scope="module")
def node_certificate(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cert")
    cert_path = str(tmp / "cert.txt")
    inp = write(tmp, "in.problem", node_problem())
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    return open(cert_path).read()


@pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
def test_cli_verify_malformed_certificate(tmp_path, capsys, node_certificate,
                                          case):
    edit, error = MALFORMED_CERTIFICATES[case], ParseError
    if isinstance(edit, tuple):
        edit, error = edit
    bad = edit(node_certificate)
    assert bad != node_certificate
    with pytest.raises(error):
        parse_certificate(bad)
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == \
        error.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _break_value(tag, key):
    """Put '@' at the start of the value on the first line of [tag] that
    starts with ``key``."""
    def edit(line):
        if key:
            return key + "@" + line[len(key):]
        name, eq, value = line.rpartition(" = ")
        return name + eq + "@" + value
    return lambda text: _edit_line(text, tag, key, edit)


# one value of each kind in every section that holds values
VALUE_LINES = {
    "field": _break_value("field", ""),
    "series-field": _break_value("series-field", ""),
    "D-mu": lambda text: text.replace("[D]\next -", "[D]\next U\nmu U^2 - @"),
    "d": _break_value("d", ""),
    "s": _break_value("s", ""),
    "bprime": _break_value("bprime", "x^10*W"),
    **{f"meta-{key}": _break_value("meta", key + " ")
       for key in ("c", "p", "precision", "short-circuit", "permutation",
                   "subset")},
    **{f"data-{key}": _break_value("data", key + " ")
       for key in ("subset", "columns", "minor", "witness", "c", "dprime",
                   "z", "pprime")},
    **{tag: _break_value(tag, "") for tag in (
        "b", "relations", "yprime", "H", "G", "hpolys", "gpolys", "qpolys",
        "t", "hat")},
}


@pytest.mark.parametrize("case", sorted(VALUE_LINES))
def test_certificate_value_error_names_its_line(tmp_path, capsys,
                                                node_certificate, case):
    bad = VALUE_LINES[case](node_certificate)
    lines = bad.split("\n")
    assert sum("@" in line for line in lines) == 1
    lineno = next(i for i, line in enumerate(lines, 1) if "@" in line)
    with pytest.raises(ParseError) as exc:
        parse_certificate(bad)
    assert exc.value.line == lineno
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {lineno}, ")


def _plus_one(line):
    return line + " + 1"


def _bump_first_coefficient(line):
    key, rest = line.split(" ", 1)
    bumped = re.sub(r"(?<![\w^/])(\d+)(?![\w^/])",
                    lambda m: str(int(m.group(1)) + 1), rest, count=1)
    return f"{key} {bumped}"


def _reversed_ints(line):
    key, *ints = line.split()
    return " ".join([key] + ints[::-1])


# sections that no verify check reads, each bound to the others at parse time
DERIVED_TAMPERING = {
    "bprime": ("bprime", "-x^2", _plus_one),
    "qpolys": ("qpolys", "", _plus_one),
    "b": ("b", "", _plus_one),
    "d": ("d", "", _plus_one),
    "data-z": ("data", "z ", _bump_first_coefficient),
    "data-pprime": ("data", "pprime ", _plus_one),
    "data-dprime": ("data", "dprime ", _plus_one),
    "data-c": ("data", "c ", lambda l: "c 2"),
    "data-subset": ("data", "subset ", _reversed_ints),
    "data-columns": ("data", "columns ", _reversed_ints),
    "G-shape": ("G", "", lambda l: l.rsplit(" ; ", 1)[0]),
}


@pytest.mark.parametrize("case", sorted(DERIVED_TAMPERING))
def test_cli_verify_rejects_inconsistent_sections(tmp_path, node_certificate,
                                                  case):
    tag, key, edit = DERIVED_TAMPERING[case]
    bad = _edit_line(node_certificate, tag, key, edit)
    assert bad != node_certificate
    with pytest.raises(ConsistencyError):
        parse_certificate(bad)
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 5


@pytest.fixture(scope="module")
def sqrt2_node_certificate(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cert")
    cert_path = str(tmp / "cert.txt")
    problem = node_problem().replace(
        "[field]\nQ\n", "[field]\nQ\n[series-field]\nQ(r) r^2 - 2\n", 1)
    inp = write(tmp, "in.problem", problem)
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    return open(cert_path).read()


@pytest.mark.parametrize("forged", ["U^2 - 3", "U^2", "U - 7", "U^3 - 2"])
def test_cli_verify_binds_mu_to_the_series_field(tmp_path, capsys,
                                                 sqrt2_node_certificate,
                                                 forged):
    # B' maps to the completion only through U -> sqrt 2, so a [D] mu (and
    # the [bprime] relation that repeats it) other than U^2 - 2 is refused
    assert main(["verify", "--input", write(tmp_path, "good.txt",
                                            sqrt2_node_certificate)]) == 0
    bad = sqrt2_node_certificate.replace(
        "\nmu U^2 - 2\n", f"\nmu {forged}\n").replace(
        "\nU^2 - 2\n", f"\n{forged}\n")
    assert bad.count(f"\n{forged}\n") == 1
    assert f"\nmu {forged}\n" in bad
    with pytest.raises(ConsistencyError, match="mu is not the minimal"):
        parse_certificate(bad)
    capsys.readouterr()
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 5
    assert "[D] mu is not the minimal polynomial" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["ext-over-Q", "no-ext-over-Q(alpha)"])
def test_cli_verify_binds_ext_to_the_series_field(tmp_path, node_certificate,
                                                  sqrt2_node_certificate,
                                                  case):
    if case == "ext-over-Q":
        bad = _edit_line(node_certificate, "D", "ext ",
                         lambda l: "ext U\nmu U^2 - 2")
    else:
        bad = _edit_line(sqrt2_node_certificate, "D", "ext ",
                         lambda l: "ext -")
    with pytest.raises(ConsistencyError, match="ext"):
        parse_certificate(bad)
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 5


@pytest.mark.parametrize("tags", [("qpolys", "gpolys"), ("yprime",), ("s",),
                                  ("b",)])
def test_cli_verify_refuses_unreduced_values_fast(tmp_path,
                                                  sqrt2_node_certificate,
                                                  tags):
    # every honest certificate prints these values reduced modulo mu; a
    # U^1000000 on the first line of [qpolys] and [gpolys] (so that g =
    # s^p b + s^p T + Q still holds), of [yprime], [s] or [b] is refused
    # before any reduction by mu, exit 5
    bad = sqrt2_node_certificate
    for tag in tags:
        bad = _edit_line(bad, tag, "", lambda l: l + " + U^1000000")
    run = _cli_subprocess(["verify", "--input",
                           write(tmp_path, "bad.txt", bad)], timeout=10)
    assert run.returncode == 5
    assert "U-degree at or above that of mu" in run.stderr
    assert "Traceback" not in run.stderr


def test_cli_verify_refuses_a_value_at_yprime_past_max_precision(
        tmp_path, node_certificate):
    # G(y') with a Y1^100000 on the first [G] entry has x-degree up to
    # 100000*e, past MAX_PRECISION: refused before packing, exit 4
    def huge(line):
        head, sep, rest = line.partition(" ;")
        return head + " + Y1^100000" + sep + rest

    bad = _edit_line(node_certificate, "G", "", huge)
    run = _cli_subprocess(["verify", "--input",
                           write(tmp_path, "bad.txt", bad)], timeout=10)
    assert run.returncode == 4
    assert "needs precision above 65536" in run.stderr
    assert "Traceback" not in run.stderr


def _drop(tag, key):
    # split_sections skips blank lines, so an emptied line is a dropped one
    return lambda text: _edit_line(text, tag, key, lambda l: "")


def _insert(tag, line):
    return lambda text: _edit_line(text, tag, "", lambda l: f"{line}\n{l}")


def _repeat(tag, key):
    return lambda text: _edit_line(text, tag, key, lambda l: f"{l}\n{l}")


# [yprime] and [hat] must name exactly the [meta] yvars and [t] the tvars,
# each once; a key of [meta], [D] or [data] may not repeat
NAMED_SECTION_MUTATIONS = {
    "t-drops-T1": _drop("t", "T1 "),
    "hat-drops-Y2": _drop("hat", "Y2 "),
    "t-extra-name": _insert("t", "Q9 = x + O(x^19)"),
    "hat-extra-name": _insert("hat", "Q9 = x + O(x^19)"),
    "yprime-repeated": _repeat("yprime", ""),
    "yprime-extra-name": _insert("yprime", "Q9 = x"),
    "meta-repeated-key": _repeat("meta", "c "),
    "D-repeated-key": _repeat("D", "ext "),
    "data-repeated-key": _repeat("data", "c "),
}


@pytest.mark.parametrize("case", sorted(NAMED_SECTION_MUTATIONS))
def test_cli_verify_binds_named_sections(tmp_path, capsys, node_certificate,
                                         case):
    bad = NAMED_SECTION_MUTATIONS[case](node_certificate)
    assert bad != node_certificate
    with pytest.raises((ParseError, ConsistencyError)):
        parse_certificate(bad)
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) \
        in (2, 5)
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("old, new", [("O(x^19)", "O(x^29)"),
                                      ("pass", "FAIL")])
def test_cli_verify_binds_report(tmp_path, capsys, node_certificate, old,
                                 new):
    # the [report] a certificate claims must be the one verify computes
    assert main(["verify", "--input",
                 write(tmp_path, "good.txt", node_certificate)]) == 0
    bad = _edit_line(node_certificate, "report", "pass;O(",
                     lambda l: l.replace(old, new))
    assert bad != node_certificate
    capsys.readouterr()
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 5
    assert capsys.readouterr().out.splitlines()[-1] == "failed: [report]"


def test_cli_short_circuit_certificate_sections(tmp_path):
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n"
                "[ideal]\nY1 - x^2\n[morphism]\nY1 = x^2 + O(x^12)\n"
                "Y2 = x + O(x^12)\n")
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    text = open(cert_path).read()
    assert parse_certificate(text).short_circuit
    assert main(["verify", "--input", cert_path]) == 0
    bad = _edit_line(text, "bprime", "W", _plus_one)
    with pytest.raises(ConsistencyError, match="bprime"):
        parse_certificate(bad)
    # a short circuit has no frame: its [yprime] and [t] stay empty
    for tag, entry in (("yprime", "Y1 = x^2"), ("t", "T1 = x + O(x^5)")):
        bad = text.replace(f"\n[{tag}]\n", f"\n[{tag}]\n{entry}\n")
        with pytest.raises(ConsistencyError, match=tag):
            parse_certificate(bad)


def test_cli_verify_huge_p_fails_fast(tmp_path, node_certificate):
    # p is bound to the degree of [relations] before any power of s
    bad = _edit_line(node_certificate, "meta", "p ", lambda l: "p 200000")
    path = write(tmp_path, "bad.txt", bad)
    src = os.path.dirname(os.path.dirname(desing.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "desing.cli", "verify",
                          "--input", path], env=env, capture_output=True,
                         text=True, timeout=10)
    assert run.returncode == 5
    assert "[meta] p" in run.stderr


def test_cli_verify_huge_power_of_s_fails_fast(tmp_path, node_certificate):
    # a relation of degree 200001 makes p = 200001 honest, and s^p would
    # have two million terms: verify refuses to expand it, exit 4
    bad = node_certificate.replace("\n-x^2 + Y1*Y2\n",
                                   "\n-x^2 + Y1*Y2 + x^200000*Y1\n")
    assert bad.count("x^200000*Y1") == 2        # [relations] and [bprime]
    bad = _edit_line(bad, "meta", "p ", lambda l: "p 200001")
    run = _cli_subprocess(["verify", "--input",
                           write(tmp_path, "bad.txt", bad)], timeout=5)
    assert run.returncode == 4
    assert "[s]^p with exponent 200001 is too large to expand" in run.stderr
    assert "Traceback" not in run.stderr


def test_cli_verify_subset_beyond_relations(tmp_path, node_certificate):
    # drop the last relation from [relations] and [bprime] alike
    bad = node_certificate.replace("Z*Y2 - x\n", "")
    assert "Z*Y2 - x" not in bad
    with pytest.raises(ConsistencyError, match="subset"):
        parse_certificate(bad)
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 5


def test_cli_short_circuit_binds_z(tmp_path):
    # z must satisfy z*v(pprime) = 1; the one check reading it is check 6
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n"
                "[ideal]\nY1 - x^2\n[morphism]\nY1 = x^2 + O(x^12)\n"
                "Y2 = x + O(x^12)\n")
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    text = open(cert_path).read()
    assert "\nz 1 + O(x^12)\n" in text
    for z in ("2 + O(x^12)", "1 + x + O(x^12)", "1 + O(x^5)"):
        bad = text.replace("\nz 1 + O(x^12)\n", f"\nz {z}\n")
        report = str(tmp_path / "report.txt")
        assert main(["verify", "--input", write(tmp_path, "bad.txt", bad),
                     "--output", report]) == 5
        last = open(report).read().splitlines()[-1]
        assert last == "failed: smoothness witness is a unit"


def _report(path):
    return open(path).read().split("[report]\n", 1)[1].splitlines()


def test_cli_gnd_reports_wrong_g(tmp_path, monkeypatch):
    # a construction fault is caught once, by the verifier, as a FAIL
    real = gnd.build_h_g

    def wrong_g(*args):
        h, g, Q = real(*args)
        return h, [g[0] + g[0]] + g[1:], Q

    monkeypatch.setattr(gnd, "build_h_g", wrong_g)
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 5
    assert _report(cert_path)[1].startswith("FAIL;exact;s^p f = d^2 g")


def test_cli_gnd_reports_wrong_G(tmp_path, monkeypatch):
    real = gnd.build_H_G

    def wrong_G(*args):
        H, G = real(*args)
        return H, [[G[0][0] + G[0][0]] + G[0][1:]] + G[1:]

    monkeypatch.setattr(gnd, "build_H_G", wrong_G)
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 5
    assert _report(cert_path)[0].startswith("FAIL;exact;GH = HG = P*Id")


def test_cli_gnd_reports_G_that_leaves_d_squared(tmp_path, monkeypatch,
                                                 capsys):
    # g is s^p f (s*Y replaced by s*y' + d*w) over d^2; a G that breaks
    # the divisibility stops the build with one error line, exit 5
    real = gnd.build_H_G

    def wrong_G(*args):
        H, G = real(*args)
        one = Polynomial.one(G[0][0].variables, G[0][0].field)
        return H, [[G[0][0] + one] + G[0][1:]] + G[1:]

    monkeypatch.setattr(gnd, "build_H_G", wrong_G)
    inp = write(tmp_path, "in.problem", node_problem())
    assert main(["gnd", "--input", inp,
                 "--output", str(tmp_path / "cert.txt")]) == 5
    assert capsys.readouterr().err.splitlines() == [
        "error: s^p f_i is not divisible by x^4"]


def test_cli_gnd_deterministic(tmp_path):
    inp = write(tmp_path, "in.problem", node_problem())
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    assert main(["gnd", "--input", inp, "--output", a]) == 0
    assert main(["gnd", "--input", inp, "--output", b]) == 0
    assert open(a).read() == open(b).read()


def test_cli_parse_error_exit(tmp_path):
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nring x y\n[ideal]\nx + w\n")
    assert main(["groebner", "--input", inp]) == 2


def _cli_subprocess(args, timeout):
    src = os.path.dirname(os.path.dirname(desing.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "desing.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


def _ideal_problem(text):
    return f"[field]\nQ\n[variables]\nring x y\n[ideal]\n{text}\n"


@contextlib.contextmanager
def _no_int_digit_limit():
    """Lift CPython's limit on int <-> str conversions, where it has one."""
    get = getattr(sys, "get_int_max_str_digits", None)
    saved = get() if get else None
    if get:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if get:
            sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("text", ["x + " + "7" * 5000, "x + 2^14300"],
                         ids=["5000-digit-literal", "14300-bit-power"])
def test_cli_integers_beyond_str_digit_limit(tmp_path, text):
    inp = write(tmp_path, "in.problem", _ideal_problem(text))
    out = tmp_path / "out.txt"
    run = _cli_subprocess(["groebner", "--input", inp, "--output", str(out)],
                          timeout=30)
    assert run.returncode == 0, run.stderr
    with _no_int_digit_limit():
        constant = "7" * 5000 if "7" in text else str(2 ** 14300)
    assert f"x + {constant}\n" in out.read_text()


def test_cli_literal_above_bound_is_parse_error(tmp_path, capsys):
    inp = write(tmp_path, "in.problem",
                _ideal_problem("x + y - " + "7" * 100_001))
    assert main(["groebner", "--input", inp]) == 2
    err = capsys.readouterr().err
    assert "line 6, column 9: integer literal of more than 100000" in err


def test_cli_minimal_polynomial_scaled_by_its_least_integer(tmp_path):
    # x -> x/16 makes r^4 + 1/65536 the irreducible r^4 + 1; the lcm of
    # the denominators, 65536, left a search past the Kronecker budget
    inp = write(tmp_path, "in.problem", "[field]\nQ(r) r^4 + 1/65536\n"
                "[variables]\nring x y\n[ideal]\nx - y\n")
    assert main(["groebner", "--input", inp,
                 "--output", str(tmp_path / "out.txt")]) == 0


@pytest.mark.parametrize("text", ["(x + y)^3000", "x + 2^10000000000"])
def test_cli_unbounded_power_fails_fast(tmp_path, text):
    inp = write(tmp_path, "in.problem", _ideal_problem(text))
    run = _cli_subprocess(["groebner", "--input", inp], timeout=5)
    assert run.returncode in (2, 4)
    assert "power too large to expand" in run.stderr
    assert "Traceback" not in run.stderr


def test_cli_missing_file():
    assert main(["groebner", "--input", "/nonexistent/path.problem"]) == 2


def test_cli_domain_error_exit(tmp_path):
    inp = write(tmp_path, "in.problem",
                "[field]\nGF 5\n[variables]\nbase x\nalgebra Y1\n"
                "[ideal]\nY1 - x^2\n[morphism]\nY1 = x^2 + O(x^12)\n")
    assert main(["gnd", "--input", inp]) == 3


def test_cli_lift(tmp_path):
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra Y\n"
                "[ideal]\nY^2 - 1 - x\n[start]\nY = 1 + O(x)\n"
                "[options]\ntarget 32\nc 0\n")
    out = str(tmp_path / "out.txt")
    assert main(["lift", "--input", inp, "--output", out]) == 0
    text = open(out).read()
    assert "Y = 1 + 1/2*x - 1/8*x^2" in text
    assert "iterations" in text


def test_cli_lift_subset_budget(tmp_path):
    text = ("[field]\nQ\n[variables]\nbase x\nalgebra Y\n"
            "[ideal]\nY^2 - 1 - x\n[start]\nY = 1 + O(x)\n"
            "[options]\ntarget 8\nc 0\n")
    inp = write(tmp_path, "in.problem", text + "subset-budget 0\n")
    assert main(["lift", "--input", inp]) == 4
    inp = write(tmp_path, "in2.problem", text)
    out = str(tmp_path / "out.txt")
    assert main(["lift", "--input", inp, "--output", out,
                 "--subset-budget", "1"]) == 0


def test_cli_lift_target_above_bound_fails_fast(tmp_path):
    # a target far past what any output can hold is refused before any
    # series is built: exit 4 at once, where it used to run until killed
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra Y\n"
                "[ideal]\nY^2 - (1 + x)\n[start]\nY = 1 + O(x)\n"
                "[options]\ntarget 100000000\nc 0\n")
    run = _cli_subprocess(["lift", "--input", inp], timeout=10)
    assert run.returncode == 4
    assert "lift target 100000000 is above 65536" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("algebra,start,message", [
    ("Y Z", "Y = 1 + O(x)", "[start] lacks the algebra variable Z"),
    ("Y", "Y = 1 + O(x)\nW = 1 + O(x)",
     "[start] names W, which is not an algebra variable"),
], ids=["lacks", "extra"])
def test_cli_lift_start_names(tmp_path, capsys, algebra, start, message):
    # [start] must name exactly the algebra variables: a missing one used
    # to end in a KeyError, an extra one was silently ignored
    inp = write(tmp_path, "in.problem",
                f"[field]\nQ\n[variables]\nbase x\nalgebra {algebra}\n"
                f"[ideal]\nY^2 - (1 + x)\n[start]\n{start}\n"
                "[options]\ntarget 8\nc 0\n")
    assert main(["lift", "--input", inp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("morphism,message", [
    ("Y1 = x + O(x^8)", "[morphism] lacks the algebra variable Y2"),
    ("Y1 = x + O(x^8)\nY2 = x + O(x^8)\nY3 = x + O(x^8)",
     "[morphism] names Y3, which is not an algebra variable"),
], ids=["lacks", "extra"])
def test_cli_gnd_morphism_names(tmp_path, capsys, morphism, message):
    # [morphism] must name exactly the algebra variables: a missing one used
    # to exit 3 (no series assigned), an extra one was silently ignored
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n"
                f"[ideal]\nY1*Y2 - x^2\n[morphism]\n{morphism}\n")
    assert main(["gnd", "--input", inp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("subcommand,flags,code", [
    ("gnd", ["--subset-budget", "0"], 4),
    ("smooth-locus", ["--subset-budget", "0"], 4),
    ("lift", ["--precision", "0"], 2),
])
def test_cli_explicit_zero_flag_is_not_replaced(tmp_path, subcommand, flags,
                                                code):
    # an explicit 0 on the command line is that value, not "use the file's"
    text = {"lift": LIFT_1}.get(subcommand, node_problem())
    inp = write(tmp_path, "in.problem", text)
    assert main([subcommand, "--input", inp]) == 0
    assert main([subcommand, "--input", inp] + flags) == code


def test_cli_weierstrass_one_variable(tmp_path, capsys):
    # the z_i of a series in one variable would be series in no variables,
    # which used to end in an IndexError when formatted
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nring x\n[series]\nx^2 + O(x^5)\n")
    assert main(["weierstrass", "--input", inp]) == 3
    assert "needs at least two variables" in capsys.readouterr().err


def test_cli_weierstrass(tmp_path):
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nring y x\n"
                "[series]\nx^2 + y*x + y*x^2 + y^2*x + O(x^10)\n")
    out = str(tmp_path / "out.txt")
    assert main(["weierstrass", "--input", inp, "--output", out]) == 0
    text = open(out).read()
    assert "p 2" in text


def test_cli_linear_factor(tmp_path):
    sol = " ".join(f"{'-' if k % 2 else '+'} x^{k}" for k in range(1, 12))
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\n"
                "[matrix]\nx ; x^2\n[rhs]\nx\n"
                f"[solution]\n1 {sol} + O(x^12)\n1 {sol} + O(x^12)\n")
    out = str(tmp_path / "out.txt")
    assert main(["linear-factor", "--input", inp, "--output", out]) == 0
    text = open(out).read()
    assert "particular" in text and "kernel" in text


def test_cli_module_iso(tmp_path):
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\n"
                "[umatrix]\nx + O(x^8)\n[vmatrix]\nx + O(x^8)\n"
                "[candidate]\nX1_1 = 1 + O(x^8)\nY1_1 = 1 + O(x^8)\n"
                "Z1_1 = 1 + O(x^8)\nW = 1 + O(x^8)\n")
    out = str(tmp_path / "out.txt")
    assert main(["module-iso", "--input", inp, "--output", out]) == 0
    assert "candidate accepted" in open(out).read()


def dense_module_iso(n):
    """u = v = a row of n ones and the candidate X = Id + x·c·(1, ..., 1)
    with c = (1, ..., 1, -(n - 1)): u·X = u and det X = 1, so Y = Z = W = 1
    complete it, and every entry of X is nonzero."""
    row = " ; ".join(["1 + O(x^8)"] * n)
    lines = ["[field]", "Q", "[variables]", "base x", "[umatrix]", row,
             "[vmatrix]", row, "[candidate]"]
    for i in range(1, n + 1):
        c = 1 if i < n else 1 - n
        lines += [f"X{i}_{j} = {'1 + ' if i == j else ''}{c}*x + O(x^8)"
                  for j in range(1, n + 1)]
    lines += ["Y1_1 = 1 + O(x^8)", "Z1_1 = 1 + O(x^8)", "W = 1 + O(x^8)"]
    return "\n".join(lines) + "\n"


def test_cli_module_iso_large_dense_candidate(tmp_path):
    # det X over a dense 10 x 10 X: a Laplace expansion takes 10! products
    # (about 100 s), the division-free determinant well under a second
    inp = write(tmp_path, "in.problem", dense_module_iso(10))
    out = str(tmp_path / "out.txt")
    start = time.monotonic()
    assert main(["module-iso", "--input", inp, "--output", out]) == 0
    assert time.monotonic() - start < 10
    assert "candidate accepted" in open(out).read()


MODULE_ISO_1X1 = ("[field]\nQ\n[variables]\nbase x\n"
                  "[umatrix]\nx + O(x^8)\n[vmatrix]\nx + O(x^8)\n"
                  "[candidate]\nX1_1 = 1 + O(x^8)\nY1_1 = 1 + O(x^8)\n"
                  "Z1_1 = 1 + O(x^8)\n")


@pytest.mark.parametrize("extra,message", [
    ("", "lacks the unknown W"),
    ("W = 1 + O(x^8)\nV = 1 + O(x^8)\n", "names V"),
])
def test_cli_module_iso_candidate_names(tmp_path, capsys, extra, message):
    inp = write(tmp_path, "in.problem", MODULE_ISO_1X1 + extra)
    assert main(["module-iso", "--input", inp]) == 2
    assert message in capsys.readouterr().err


LIFT_1 = ("[field]\nQ\n[variables]\nbase x\nalgebra Y\n"
          "[ideal]\nY^2 - 1 - x\n[start]\nY = 1 + O(x)\n"
          "[options]\ntarget 8\nc 0\n")


@pytest.mark.parametrize("subcommand,text,repeated", [
    ("gnd", node_problem() + "Y1 = x + O(x^24)\n", "[morphism] repeats 'Y1'"),
    ("lift", LIFT_1.replace("[options]", "Y = 7 + O(x)\n[options]"),
     "[start] repeats 'Y'"),
    ("module-iso", MODULE_ISO_1X1 + "X1_1 = 5 + O(x^8)\nW = 1 + O(x^8)\n",
     "[candidate] repeats 'X1_1'"),
    ("lift", LIFT_1 + "target 16\n", "[options] repeats key 'target'"),
], ids=["morphism", "start", "candidate", "options"])
def test_cli_repeated_name_is_parse_error(tmp_path, capsys, subcommand,
                                          text, repeated):
    inp = write(tmp_path, "in.problem", text)
    assert main([subcommand, "--input", inp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repeated in err


@pytest.mark.parametrize("subcommand,text,message", [
    ("groebner", "[field]\nQ(r) r^2 - 2\n[variables]\nring r y\n"
     "[ideal]\nr^2 - y\n",
     "line 6, column 1: field generator 'r' is also a variable"),
    ("gnd", "[field]\nQ\n[series-field]\nQ(x) x^2 - 2\n[variables]\n"
     "base x\nalgebra Y1\n[ideal]\nY1^2 - 2*x^2\n[morphism]\n"
     "Y1 = x + O(x^8)\n",
     "line 11, column 1: field generator 'x' is also a variable"),
], ids=["field", "series-field"])
def test_cli_field_generator_is_not_a_variable(tmp_path, capsys, subcommand,
                                               text, message):
    # a name read as a variable and as the generator at once would make
    # every answer over the field wrong
    inp = write(tmp_path, "in.problem", text)
    assert main([subcommand, "--input", inp]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("subcommand,text,message", [
    ("lift", LIFT_1.replace("target 8", "target abc"),
     "line 11, column 1: option target must be an integer"),
    ("groebner", "[field]\n[variables]\nring x y\n[ideal]\nx - y\n",
     "line 1, column 1: section [field] is empty"),
    ("groebner", "[field]\nQ\n[variables]\nring x y\n[ideal]\nx - y\n"
     "[options]\norder foo\n",
     "line 8, column 1: unknown monomial order 'foo'"),
], ids=["option", "empty-field", "order"])
def test_cli_problem_error_names_its_line(tmp_path, capsys, subcommand, text,
                                          message):
    inp = write(tmp_path, "in.problem", text)
    assert main([subcommand, "--input", inp]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    "[field]\nQ(r) r^2 - 2\n",
    "[field]\nQ\n[series-field]\nGF 7\n",
    "[field]\nQ(r) r^2 - 2\n[series-field]\nQ(s) s^2 - 3\n",
    "[field]\nQ(r) r^2 - 2\n[series-field]\nQ\n",
], ids=["field-ext", "series-gf", "ext-ext", "ext-q"])
def test_cli_gnd_refuses_unsupported_fields(tmp_path, capsys, fields):
    # B must be over Q and v over Q or Q(alpha); each other pair used to
    # fail deep inside, with a different message each time
    inp = write(tmp_path, "in.problem",
                node_problem().replace("[field]\nQ\n", fields))
    assert main(["gnd", "--input", inp]) == 3
    assert ("error: gnd needs [field] Q, [series-field] Q or Q(alpha)"
            in capsys.readouterr().err)


LINEAR_FACTOR_1X2 = {"matrix": "x ; x^2", "rhs": "x",
                     "solution": "1 + O(x^4)\n1 - x + O(x^4)"}


@pytest.mark.parametrize("section,body,message", [
    ("solution", "1 + O(x^4)", "solution has 1 entries for 2 matrix columns"),
    ("rhs", None, "right-hand side has 0 entries for 1 matrix rows"),
    ("rhs", "x\nx^2", "right-hand side has 2 entries for 1 matrix rows"),
    ("matrix", "x ; x^2\nx", "same length"),
])
def test_cli_linear_factor_shapes(tmp_path, capsys, section, body, message):
    sections = dict(LINEAR_FACTOR_1X2, **{section: body})
    text = "[field]\nQ\n[variables]\nbase x\n" + "".join(
        f"[{name}]\n{lines}\n" for name, lines in sections.items()
        if lines is not None)
    inp = write(tmp_path, "in.problem", text)
    assert main(["linear-factor", "--input", inp]) == 3
    assert message in capsys.readouterr().err


def test_cli_unknown_subcommand():
    assert main(["frobnicate", "--input", "x"]) == 2


# ---------------------------------------------------------------------------
# certificate serialization

def test_certificate_round_trip(tmp_path):
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    text = open(cert_path).read()
    cert = parse_certificate(text)
    assert emit_certificate(cert) == text
    assert cert.c == 1 and not cert.short_circuit
    assert cert.all_passed()


PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("name", ["node-c1", "node-c2", "node-c3",
                                  "chain-k1", "chain-k2", "chain-k3",
                                  "chain-k4", "sqrt2-node"])
def test_certificate_bytes_round_trip_certify_seed_1(tmp_path, monkeypatch,
                                                     name):
    # the benchmark's seed-1 certify problems, whose certificates hold
    # hundreds of polynomial lines: reading one and emitting it again gives
    # back its bytes
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    problem = workloads.certify(1, str(tmp_path)).files[
        f"{tmp_path}/{name}.problem"]
    inp = write(tmp_path, "in.problem", problem)
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    text = open(cert_path).read()
    assert emit_certificate(parse_certificate(text)) == text


def test_prime_field_problem_round_trip():
    pf = parse_problem("[field]\nGF 101\n[variables]\nring x y\n"
                       "[ideal]\nx^2 + 100*y\n")
    assert pf.field == PrimeField(101)
    assert pf.ideal[0].terms[(0, 1)] == 100
