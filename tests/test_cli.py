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
from desing.errors import ConsistencyError, DesingError, ParseError
from desing.fields import QQ, PrimeField
from desing.groebner import GroebnerBasis, IdealPresentation
from desing.iofmt import (emit_certificate, parse_certificate, parse_field,
                          parse_problem, split_sections)
from desing.poly import (DEGREVLEX, Polynomial, format_polynomial,
                         order_from_name, parse_polynomial)


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
    # the in-memory certificate is sound; only its text is corrupted, in
    # the witness N that verify derives G = N*adj(H) and s = M*N(y')/d from
    def corrupt(cert):
        return _edit_line(cli_emit(cert), "data", "witness ", _plus_one)

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
    bad = text.replace(" + x^9 - ", " + 2*x^9 - ")
    assert bad != text
    bad_path = write(tmp_path, "bad.txt", bad)
    assert main(["verify", "--input", bad_path]) == 5


def test_cli_verify_truncated_certificate(tmp_path):
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    meta_only = open(cert_path).read().split("[series-field]", 1)[0]
    assert meta_only.startswith("[meta]")
    bad_path = write(tmp_path, "meta.txt", meta_only)
    assert main(["verify", "--input", bad_path]) == 2
    with pytest.raises(ParseError, match="section 'series-field'"):
        parse_certificate(meta_only)


def _edit_line(text, tag, key, edit):
    """Apply ``edit`` to the first line of section [tag] that starts with
    ``key`` (any line when ``key`` is empty)."""
    lines = text.split("\n")
    start = lines.index(f"[{tag}]") + 1
    k = next(i for i in range(start, len(lines)) if lines[i].startswith(key))
    lines[k] = edit(lines[k])
    return "\n".join(lines)


def _drop(tag, key):
    # split_sections skips blank lines, so an emptied line is a dropped one
    return lambda text: _edit_line(text, tag, key, lambda l: "")


def _insert(tag, line):
    return lambda text: _edit_line(text, tag, "", lambda l: f"{line}\n{l}")


def _repeat(tag, key):
    return lambda text: _edit_line(text, tag, key, lambda l: f"{l}\n{l}")


def _empty_bprime(text):
    # version 4 printed h, g and W*s - 1 in [bprime]; version 5 gives them
    # by their formula, and refuses the section even empty
    return text.replace("\n[report]\n", "\n[bprime]\n[report]\n")


def _no_equals(tag):
    return lambda text: _edit_line(text, tag, "", lambda l: l.replace("=", ""))


def _edit_line_to(tag, line):
    return lambda text: _edit_line(text, tag, "", lambda l: line)


def _value(tag, key, value):
    return lambda text: _edit_line(text, tag, key + " ",
                                   lambda l: f"{key} {value}")


MALFORMED_CERTIFICATES = {
    "empty-bprime": _empty_bprime,
    "hat-without-equals": _no_equals("hat"),
    "meta-version": _value("meta", "version", "4"),
    "meta-c": _value("meta", "c", "one"),
    # p is derived from [relations]; versions 4 and 5 have no p key
    "meta-p": _insert("meta", "p 2.5"),
    "meta-precision": _value("meta", "precision", "x^2"),
    "meta-subset": _value("meta", "subset", "0 a"),
    "meta-permutation": _value("meta", "permutation", "0 2 one"),
    "short-report-line": lambda text: _edit_line(
        text, "report", "", lambda l: l.rsplit(";", 2)[0]),
    "report-status": lambda text: _edit_line(
        text, "report", "", lambda l: l.replace("pass", "ok", 1)),
    # Y2 = x - ... - x^22 + O(x^23) becomes ... - x^23 + O(x^23): the
    # marker would drop it
    "hat-term-above-marker": lambda text: _edit_line(
        text, "hat", "Y2 ", lambda l: re.sub(
            r"x\^\d+ \+ O\(x\^(\d+)\)", r"x^\1 + O(x^\1)", l)),
    # a [series-field] that is not [field] nor an extension of it parses,
    # and is refused as inconsistent
    "series-field-gf7": (_edit_line_to("series-field", "GF 7"),
                         ConsistencyError),
    "series-field-gf32003": (_edit_line_to("series-field", "GF 32003"),
                             ConsistencyError),
    # the ring is x and the yvars, with no T (no check reads one): a T in
    # the witness or in a relation names no variable of it
    "witness-in-a-tvar": lambda text: _edit_line(
        text, "data", "witness ", lambda l: l + " + T1"),
    "relation-in-a-tvar": lambda text: _edit_line(
        text, "relations", "", lambda l: l + " + T1"),
    # c is at least 1: at c = 0 check 3 would read nothing, and the
    # certificate reads as a short circuit, whose [hat] markers and witness
    # the node's are not.  c = 2 parses, and verify refuses it: P = M*N is
    # not (R + x^c)^2 for the bordering relation R
    **{f"c-{c}": (_value("meta", "c", c), ConsistencyError) for c in (0, 2)},
}
# the cases that parse and that verify refuses
REFUSED_BY_VERIFY = {"c-2"}


@pytest.fixture(scope="module")
def node_certificate(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cert")
    cert_path = str(tmp / "cert.txt")
    inp = write(tmp, "in.problem", node_problem())
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    return open(cert_path).read()


@pytest.fixture(scope="module")
def short_circuit_certificate(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cert")
    cert_path = str(tmp / "cert.txt")
    inp = write(tmp, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n"
                "[ideal]\nY1 - x^2\n[morphism]\nY1 = x^2 + O(x^12)\n"
                "Y2 = x + O(x^12)\n")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    return open(cert_path).read()


def _edit_last(tag, edit):
    """Apply ``edit`` to the last line of section [tag]."""
    def apply(text):
        lines = text.split("\n")
        k = lines.index(f"[{tag}]") + 1
        while k + 1 < len(lines) and not lines[k + 1].startswith("["):
            k += 1
        lines[k] = edit(lines[k])
        return "\n".join(lines)
    return apply


@pytest.mark.parametrize("case", sorted(MALFORMED_CERTIFICATES))
def test_cli_verify_malformed_certificate(tmp_path, capsys, node_certificate,
                                          case):
    edit, error = MALFORMED_CERTIFICATES[case], ParseError
    if isinstance(edit, tuple):
        edit, error = edit
    bad = edit(node_certificate)
    assert bad != node_certificate
    with pytest.raises(error):
        if case in REFUSED_BY_VERIFY:
            cli.run_verify(None, None, bad)
        else:
            parse_certificate(bad)
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == \
        error.exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _at_value(line):
    """The line with '@' at the start of its value (after 'name = ')."""
    name, eq, value = line.rpartition(" = ")
    return name + eq + "@" + value


def _break_value(tag, key):
    """Put '@' at the start of the value on the first line of [tag] that
    starts with ``key``."""
    def edit(line):
        return key + "@" + line[len(key):] if key else _at_value(line)
    return lambda text: _edit_line(text, tag, key, edit)


# one value of each kind in every section that holds values, in the node
# certificate, first and last: "hpolys", "b", "gpolys" and "qpolys", which
# named version 4's h and g lines, now break the middle line of [hat] and
# the last line of [hat], [relations] and [report]; version 5 prints no
# [bprime], version 6 no [field] or [D] and version 7 no [t], and a header
# for one ("bprime", "field", "D-mu", "t") is refused at its line, as is a
# key that an earlier version printed (mu, p, short-circuit, columns, and
# z in a short circuit)
VALUE_LINES = {
    "field": lambda text: text.replace("\n[series-field]\n",
                                       "\n[field@]\nQ\n[series-field]\n"),
    "series-field": _break_value("series-field", ""),
    "D-mu": lambda text: text.replace("\n[data]\n",
                                      "\n[D@]\next U\nmu U^2 - 2\n[data]\n"),
    "bprime": lambda text: text.replace("\n[report]\n",
                                        "\n[bprime@]\n[report]\n"),
    **{f"meta-{key}": _break_value("meta", key + " ")
       for key in ("c", "precision", "permutation", "subset")},
    "meta-p": _insert("meta", "p @2"),
    "meta-short-circuit": _insert("meta", "short-circuit @0"),
    "data-columns": _insert("data", "columns @0 2"),
    "data-witness": _break_value("data", "witness "),
    "data-z": ("short", _insert("data", "z @1 + O(x^12)")),
    **{tag: _break_value(tag, "") for tag in ("relations", "hat")},
    "t": lambda text: text.replace("\n[hat]\n",
                                   "\n[t@]\nT1 = -x^3 + O(x^19)\n[hat]\n"),
    "hpolys": lambda text: _edit_line(text, "hat", "Z ", _at_value),
    "b": _edit_last("hat", _at_value),
    "gpolys": _edit_last("relations", _at_value),
    "qpolys": _edit_last("report", _at_value),
}


@pytest.mark.parametrize("case", sorted(VALUE_LINES))
def test_certificate_value_error_names_its_line(tmp_path, capsys,
                                                node_certificate,
                                                short_circuit_certificate,
                                                case):
    edit, text = VALUE_LINES[case], node_certificate
    if isinstance(edit, tuple):
        edit, text = edit[1], short_circuit_certificate
    bad = edit(text)
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


def _reversed_ints(line):
    key, *ints = line.split()
    return " ".join([key] + ints[::-1])


# what no verify check reads, each bound to the rest at parse time
DERIVED_TAMPERING = {
    # version 3 repeated the relations in [bprime]; a relation repeated in
    # [relations] moves the bordering relation off the end of the subset
    "bprime": ("relations", "", lambda l: "-x^2 + Y1*Y2\n" + l),
    # B' has the ring's variables each once: U and the T's are fresh
    # against x and the yvars, which must be distinct
    "bprime-variables": ("meta", "yvars ", lambda l: "yvars Y1 Z Y1"),
    # the minor's columns lead the permutation, in increasing order
    "data-columns": ("meta", "permutation ", lambda l: "permutation 2 0 1"),
    "hat-marker": ("hat", "Y1 ", lambda l: l.replace("O(x^22)", "O(x^23)")),
    # y' is [hat] below x^(6c), so no marker lies below it
    "hat-below-yprime": ("hat", "Y1 ", lambda l: "Y1 = x + x^2 + O(x^5)"),
    "meta-precision": ("meta", "precision ", lambda l: "precision 24"),
    "meta-subset": ("meta", "subset ", _reversed_ints),
    "meta-permutation": ("meta", "permutation ",
                         lambda l: "permutation 0 2 2"),
}


@pytest.mark.parametrize("case", sorted(DERIVED_TAMPERING))
def test_cli_verify_rejects_inconsistent_sections(tmp_path, node_certificate,
                                                  short_circuit_certificate,
                                                  case):
    tag, key, edit, *short = DERIVED_TAMPERING[case]
    text = short_circuit_certificate if short else node_certificate
    bad = _edit_line(text, tag, key, edit)
    assert bad != text
    # verify binds the [hat] markers of a bordered certificate, and with
    # them [meta] precision, to what check 4 reads (gnd.hat_precisions)
    with pytest.raises(ConsistencyError):
        if case in ("hat-marker", "meta-precision"):
            cli.run_verify(None, None, bad)
        else:
            parse_certificate(bad)
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 5


# h and g are given by their formula and read at the point (yhat, t), t =
# H(y')(yhat - y')/d^2, where check 1 makes h = 0 and g = s^p f(yhat)/d^2:
# a coefficient of the first and last [hat] image above y' (x^(6c)), one
# inside the image ("h-") and its top one, just below its marker ("g-"),
# each fails check 4; each edit is (section, key, old, new)
EDITED_H_AND_G = {
    "h-first": ("hat", "Y1 ", " + O(x^22)", " + x^10 + O(x^22)"),
    "h-last": ("hat", "Y2 ", " - x^18 ", " - 2*x^18 "),
    "g-first": ("hat", "Y1 ", " + O(x^22)", " + x^21 + O(x^22)"),
    "g-last": ("hat", "Y2 ", " - x^22 + O(", " - 2*x^22 + O("),
}


@pytest.mark.parametrize("case", sorted(EDITED_H_AND_G))
def test_cli_verify_rejects_edited_h_and_g(tmp_path, node_certificate, case):
    # checks 1-3 read y' alone, so check 4 is the first to fail, exit 5
    tag, key, old, new = EDITED_H_AND_G[case]
    bad = _edit_line(node_certificate, tag, key, lambda l: l.replace(old, new))
    assert bad.count(new) == 1
    report = str(tmp_path / "report.txt")
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad),
                 "--output", report]) == 5
    last = open(report).read().splitlines()[-1]
    assert last.startswith("failed: h and g vanish on (yhat, t)")


@pytest.mark.parametrize("yvar, old, new", [
    ("Y2", " + O(x^23)", " + O(x^24)"),
    ("Y2", " - x^22 + O(x^23)", " + O(x^22)"),
    ("Y1", " + O(x^22)", " + O(x^23)"), ("Y1", " + O(x^22)", " + O(x^21)")])
def test_cli_verify_binds_the_hat_markers(tmp_path, capsys, node_certificate,
                                          yvar, old, new):
    # check 4 reads f(yhat) below x^N, N = 23: Y1 and Z only below x^22, as
    # their columns of J_f(y') have x-order 1, and Y2 below x^23, as Z(y')
    # = 1 + x is in its column; every [hat] marker must say so
    bad = _edit_line(node_certificate, "hat", yvar + " ",
                     lambda l: l.replace(old, new))
    assert bad != node_certificate
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 5
    printed, want = (text.rsplit("+ ", 1)[1] for text in (new, old))
    assert capsys.readouterr().err == (
        f"error: certificate [hat] {yvar} is printed to {printed}; check 4 "
        f"reads it to {want}\n")


def test_cli_verify_refuses_a_version_1_certificate(tmp_path, capsys,
                                                    node_certificate):
    # version 1 printed h and g three times, in [hpolys], [gpolys] (with
    # [qpolys]) and [bprime]; it is refused at its version line, before
    # any of the sections and keys later versions dropped
    old = node_certificate.replace("version 7", "version 1").replace(
        "[relations]\n", "[d]\nx^2\n[relations]\n")
    path = write(tmp_path, "v1.txt", old)
    assert main(["verify", "--input", path]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: line 2, column 1: [meta] version must be 7, found '1'"]


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
    # B' maps to the completion only through U -> sqrt 2: mu is read off
    # [series-field], and a [D] mu line (version 3 printed one; version 6
    # prints no [D]) is refused at its section's header, whatever it says
    assert format_polynomial(
        parse_certificate(sqrt2_node_certificate).D.mu) == "U^2 - 2"
    bad = sqrt2_node_certificate.replace("\n[data]\n",
                                         f"\n[D]\nmu {forged}\n[data]\n")
    line = bad.split("\n").index("[D]") + 1
    capsys.readouterr()
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: line {line}, column 1: unknown section [D]\n")


@pytest.mark.parametrize("case", ["ext-over-Q", "no-ext-over-Q(alpha)"])
def test_cli_verify_binds_ext_to_the_series_field(tmp_path, node_certificate,
                                                  sqrt2_node_certificate,
                                                  case):
    # U is there exactly when [series-field] is a Q(alpha), named by
    # gnd.bound_names; a [D] ext line, which version 5 printed, is refused
    # at its section's header, whatever it says
    if case == "ext-over-Q":
        text, ext, line = node_certificate, None, "ext U"
    else:
        text, ext, line = sqrt2_node_certificate, "U", "ext -"
    assert parse_certificate(text).D.ext_var == ext
    bad = text.replace("\n[data]\n", f"\n[D]\n{line}\n[data]\n")
    with pytest.raises(ParseError, match="unknown section \\[D\\]"):
        parse_certificate(bad)
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 2


@pytest.mark.parametrize("tags", [("relations",), ("witness",),
                                  ("relations", "witness"), ("hat",)])
def test_cli_verify_refuses_unreduced_values_fast(tmp_path,
                                                  sqrt2_node_certificate,
                                                  tags):
    # every honest certificate prints its polynomials reduced modulo mu: a
    # U^1000000 on the first line of [relations] or on [data] witness is
    # refused before any value at a point, exit 5; in the first [hat]
    # image, a series over Q(r), U is no variable at all, exit 2 at its line
    bad = sqrt2_node_certificate
    for tag in tags:
        key, old, new = {"relations": ("", "Y1*Y2", "Y1*Y2 + U^1000000"),
                         "witness": ("witness ", "Z^2", "Z^2 + U^1000000"),
                         "hat": ("Y1 ", " + O(", " + U^1000000 + O(")}[tag]
        bad = _edit_line(bad, tag if tag != "witness" else "data", key,
                         lambda l: l.replace(old, new))
    assert bad.count("U^1000000") == len(tags)
    run = _cli_subprocess(["verify", "--input",
                           write(tmp_path, "bad.txt", bad)], timeout=10)
    if tags == ("hat",):
        line = bad.split("\n").index("[hat]") + 2
        assert run.returncode == 2
        assert run.stderr.startswith(f"error: line {line}, ")
        assert "undeclared variable 'U'" in run.stderr
    else:
        assert run.returncode == 5
        assert "U-degree at or above that of mu" in run.stderr
    assert "Traceback" not in run.stderr


def test_cli_verify_refuses_a_value_at_yprime_past_max_precision(
        tmp_path, node_certificate):
    # the one exact value at y' is P(y'), with P = M*N = (R + x^c)^2 bound
    # to the bordering relation R = Z*Y2 - x: R + Y2^7000 with witness
    # (Z + Y2^6999)^2 keeps M = Y2^2 (the minor's columns are Y1 and Z)
    # and the binding, and puts Y2^14000 into P, so P(y') has x-degree up
    # to 70000 (y'_Y2 has degree 5), past MAX_PRECISION: refused before
    # packing, exit 4.  A Y1^100000 added to [data] witness N changes
    # P = M*N, and is refused by the binding before any value at y', exit 5
    big = node_certificate.replace("\nZ*Y2 - x\n", "\nZ*Y2 - x + Y2^7000\n")
    for bad, code, message in (
            (big.replace("\nwitness Z^2\n",
                         "\nwitness Z^2 + 2*Z*Y2^6999 + Y2^13998\n"),
             4, "needs precision above 65536"),
            (node_certificate.replace("\nwitness Z^2\n",
                                      "\nwitness Z^2 + Y1^100000\n"),
             5, "does not give P = M*N")):
        assert bad != node_certificate
        run = _cli_subprocess(["verify", "--input",
                               write(tmp_path, "bad.txt", bad)], timeout=10)
        assert run.returncode == code
        assert message in run.stderr
        assert "Traceback" not in run.stderr


# [hat] must name exactly the [meta] yvars, each once; a key of [meta] or
# [data] may not repeat, and a [D] section that repeats version 5's key is
# refused as the retired section it is
NAMED_SECTION_MUTATIONS = {
    "hat-drops-Y2": _drop("hat", "Y2 "),
    "hat-extra-name": _insert("hat", "Q9 = x + O(x^19)"),
    "meta-repeated-key": _repeat("meta", "c "),
    "D-repeated-key": lambda text: text.replace(
        "\n[data]\n", "\n[D]\next -\next -\n[data]\n"),
    "data-repeated-key": _repeat("data", "witness "),
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


def test_cli_short_circuit_certificate_sections(tmp_path,
                                               short_circuit_certificate):
    text = short_circuit_certificate
    cert_path = write(tmp_path, "cert.txt", text)
    assert parse_certificate(text).short_circuit
    assert main(["verify", "--input", cert_path]) == 0
    # version 4 printed W*M*N - 1 in [bprime]; version 5 refuses the section
    bad = text.replace("\n[report]\n", "\n[bprime]\nW - 1\n[report]\n")
    with pytest.raises(ParseError, match="unknown section \\[bprime\\]"):
        parse_certificate(bad)
    # no certificate prints t, which [hat] fixes (version 6 printed an
    # empty [t] in a short circuit): the section is refused at its header
    bad = text.replace("\n[hat]\n", "\n[t]\n[hat]\n")
    line = bad.split("\n").index("[t]") + 1
    with pytest.raises(ParseError, match=f"^line {line}, column 1: unknown "
                       "section \\[t\\]"):
        parse_certificate(bad)


def test_cli_short_circuit_prints_hat_to_the_precision_of_v(tmp_path):
    # v's precision is the least of its images': Y1 known to O(x^30) is
    # printed to O(x^20), that of Y2, as the reader requires
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n"
                "[ideal]\nY1 - x^2\n[morphism]\nY1 = x^2 + O(x^30)\n"
                "Y2 = x + O(x^20)\n")
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--verify", "--input", inp,
                 "--output", cert_path]) == 0
    text = open(cert_path).read()
    assert "\nY1 = x^2 + O(x^20)\nY2 = x + O(x^20)\n" in text
    assert main(["verify", "--input", cert_path]) == 0


def test_cli_verify_huge_p_fails_fast(tmp_path, node_certificate):
    # p is derived from the degree of [relations]: a [meta] p line, which
    # version 3 printed, is refused at its line before any power of s
    bad = _insert("meta", "p 200000")(node_certificate)
    line = bad.split("\n").index("p 200000") + 1
    run = _cli_subprocess(["verify", "--input",
                           write(tmp_path, "bad.txt", bad)], timeout=10)
    assert run.returncode == 2
    assert run.stderr == (f"error: line {line}, column 1: [meta] has "
                          "unknown key 'p'\n")


def test_cli_verify_huge_power_of_s_fails_fast(tmp_path, node_certificate):
    # a relation of degree 200001 makes p = 200001, and verify takes no
    # power of s.  x^200000*Y2 puts x^200000 into H and G but not into M
    # (the minor's columns are Y1 and Z), and no value at y' of G is
    # taken: every value that meets it reads it at or past its precision,
    # and verify certifies the relations, which v kills, exit 0.
    # x^200000*Y1 puts it into M and P, which the binding refuses before
    # any value at y', exit 5
    for term, code, message in (
            ("x^200000*Y2", 0, ""),
            ("x^200000*Y1", 5, "does not give P = M*N")):
        bad = node_certificate.replace("\n-x^2 + Y1*Y2\n",
                                       f"\n-x^2 + Y1*Y2 + {term}\n")
        assert bad.count(term) == 1             # in [relations] alone
        run = _cli_subprocess(["verify", "--input",
                               write(tmp_path, "bad.txt", bad)], timeout=5)
        assert run.returncode == code
        assert message in run.stderr
        assert "Traceback" not in run.stderr


def test_cli_verify_subset_beyond_relations(tmp_path, node_certificate):
    # drop the last relation from [relations]
    bad = node_certificate.replace("Z*Y2 - x\n", "")
    assert "Z*Y2 - x" not in bad
    with pytest.raises(ConsistencyError, match="subset"):
        parse_certificate(bad)
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 5


def test_cli_short_circuit_reads_the_unit_at_v(tmp_path,
                                               short_circuit_certificate):
    # check 6 reads ord v(M*N) = 0 itself (SHORT_CIRCUIT_FORGERIES below
    # fail it): the z = 1/v(M*N) that version 5 printed is refused at its
    # line, exit 2.  z also fixed N, which nothing else fixes in a short
    # circuit: N is 1 where the subset holds every relation, as here, and
    # monic otherwise (as beside Y1*Y2 - x^2*Y2, which the subset leaves
    # out), so witness 2 and witness Y1 + 1, whose values at v are units,
    # are inconsistent, exit 5, and so is witness 2 in the second case
    text = short_circuit_certificate
    bad = _insert("data", "z 1 + O(x^12)")(text)
    line = bad.split("\n").index("z 1 + O(x^12)") + 1
    with pytest.raises(ParseError, match=f"^line {line}, column 1: \\[data\\] "
                       "has unknown key 'z'"):
        parse_certificate(bad)
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 2
    assert "\nwitness 1\n" in text
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n[ideal]\n"
                "Y1 - x^2\nY1*Y2 - x^2*Y2\n[morphism]\nY1 = x^2 + O(x^12)\n"
                "Y2 = x + O(x^12)\n")
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    proper = open(cert_path).read()
    assert "\nsubset 0\n" in proper and "\nwitness 1\n" in proper
    for cert, witness, message in ((text, "2", "is not 1"),
                                   (text, "Y1 + 1", "is not 1"),
                                   (proper, "2", "is not monic")):
        bad = cert.replace("\nwitness 1\n", f"\nwitness {witness}\n")
        with pytest.raises(ConsistencyError, match=message):
            parse_certificate(bad)
        assert main(["verify", "--input",
                     write(tmp_path, "bad.txt", bad)]) == 5


# verify derives M as the Jacobian minor of the subset relations in the
# leading yvars, and check 6 reads ord v(M*N) = 0: with Y2 swapped to the
# front, d(Y1 - x^2)/dY2 = 0 is not the minor 1; and (Y2, Y1^2) reduces to
# the short circuit (Y1, Y2) with minor 1, which Y1 -> Y1^2 in [relations]
# turns into (Y1^2, Y2), of minor 2*Y1, which vanishes at v
SHORT_CIRCUIT_FORGERIES = {
    "columns": ("Y1 - x^2", "Y1 = x^2 + O(x^12)\nY2 = x + O(x^12)",
                "\nyvars Y1 Y2\n", "\nyvars Y2 Y1\n", 1),
    "relation": ("Y2\nY1^2", "Y1 = 0 + O(x^30)\nY2 = 0 + O(x^30)",
                 "\nY1\n", "\nY1^2\n", 1),
}


@pytest.mark.parametrize("case", sorted(SHORT_CIRCUIT_FORGERIES))
def test_cli_verify_binds_the_short_circuit_minor(tmp_path, capsys, case):
    ideal, morphism, old, new, count = SHORT_CIRCUIT_FORGERIES[case]
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n"
                f"[ideal]\n{ideal}\n[morphism]\n{morphism}\n")
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 0
    text = open(cert_path).read()
    assert parse_certificate(text).short_circuit and text.count(old) == count
    bad = text.replace(old, new)
    capsys.readouterr()
    assert main(["verify", "--input", write(tmp_path, "bad.txt", bad)]) == 5
    assert capsys.readouterr().out.splitlines()[-1] == \
        "failed: smoothness witness is a unit"


def _report(path):
    return open(path).read().split("[report]\n", 1)[1].splitlines()


def test_cli_gnd_reports_wrong_g(tmp_path, monkeypatch):
    # a construction fault is caught once, by the verifier, as a FAIL: a
    # wrong value of g at the point fails check 4
    real = gnd.build_h_g

    def wrong_g(*args):
        g, point = real(*args)
        return [g[0] + point.one.truncate(g[0].precision)] + g[1:], point

    monkeypatch.setattr(gnd, "build_h_g", wrong_g)
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 5
    assert _report(cert_path)[3].startswith(
        "FAIL;O(x^19);h and g vanish on (yhat, t)")


def test_cli_gnd_reports_wrong_G(tmp_path, monkeypatch):
    real = gnd.build_H_G

    def wrong_G(*args):
        H, G, M = real(*args)
        return H, [[G[0][0] + G[0][0]] + G[0][1:]] + G[1:], M

    monkeypatch.setattr(gnd, "build_H_G", wrong_G)
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 5
    assert _report(cert_path)[0].startswith("FAIL;exact;GH = HG = P*Id")


def test_cli_gnd_reports_G_that_leaves_d_squared(tmp_path, monkeypatch,
                                                 capsys):
    # g is s^p f(y' + (d/s)G(y')T)/d^2; a G that breaks the divisibility
    # fails check 1, and with it check 2, exit 5
    real = gnd.build_H_G

    def wrong_G(*args):
        H, G, M = real(*args)
        one = Polynomial.one(G[0][0].variables, G[0][0].field)
        return H, [[G[0][0] + one] + G[0][1:]] + G[1:], M

    monkeypatch.setattr(gnd, "build_H_G", wrong_G)
    inp = write(tmp_path, "in.problem", node_problem())
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", inp, "--output", cert_path]) == 5
    assert "error" not in capsys.readouterr().err
    assert [line.split(";")[:3] for line in _report(cert_path)[:2]] == [
        ["FAIL", "exact", "GH = HG = P*Id"], ["FAIL", "exact", gnd.CHECK_2]]


def test_cli_gnd_ring_holds_no_t(tmp_path):
    # no check reads a T, so the working ring is x and the yvars alone;
    # an algebra variable named T1 is one of the yvars, and no other
    # variable of the ring starts with T
    names = ["T1"] + [f"Y{i}" for i in range(2, 11)]
    images = {"T1": "x", "Y2": "x"}
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra " + " ".join(names)
                + "\n[ideal]\nT1*Y2 - x^2\n[morphism]\n" + "".join(
                    f"{n} = {images.get(n, '0')} + O(x^24)\n" for n in names))
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--verify", "--input", inp, "--output", cert_path]) \
        == 0
    assert main(["verify", "--input", cert_path]) == 0
    cert = parse_certificate(open(cert_path).read())
    assert not cert.short_circuit
    assert cert.ring == ("x",) + cert.yvars
    assert [v for v in cert.ring if v.startswith("T")] == ["T1"]


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


def _cli_subprocess(args, timeout, address_space=None):
    """Run the CLI in a child process; ``address_space`` caps the child's
    virtual memory in bytes, so that a runaway allocation fails there with
    a MemoryError rather than exhausting the host."""
    src = os.path.dirname(os.path.dirname(desing.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def cap():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "desing.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=timeout,
                          preexec_fn=cap if address_space else None)


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


@pytest.mark.parametrize("c, code, message", [
    ("100000000", 4, "lift working precision 1200000008 (target 8, c "
                     "100000000) is above 65536"),
    ("-1", 3, "lift option c must be at least 0, found -1")])
def test_cli_lift_working_precision_is_bounded(tmp_path, c, code, message):
    # the point is built at target + c*(bit length of target + 8): a c
    # that puts it past MAX_PRECISION, or a negative c, is refused before
    # any series is built, with one error line
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\nalgebra Y\n"
                "[ideal]\nY^2 - (1 + x)\n[start]\nY = 1 + O(x)\n"
                f"[options]\ntarget 8\nc {c}\n")
    run = _cli_subprocess(["lift", "--input", inp], timeout=20,
                          address_space=2 << 30)
    assert run.returncode == code
    assert run.stderr == f"error: {message}\n"


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


def test_cli_linear_factor_budget(tmp_path):
    # the z of a linear factorization solve one dense system of 2N rows
    # and N unknowns here (one kernel generator, (1, 1)); at N = 12000 it
    # is refused before it is built, exit 4 with one error line
    series = " + ".join(f"x^{k}" for k in range(1, 40)) + " + O(x^12000)"
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nbase x\n[matrix]\n1 ; -1\n"
                f"[rhs]\n0\n[solution]\n{series}\n{series}\n")
    run = _cli_subprocess(["linear-factor", "--input", inp], timeout=20,
                          address_space=2 << 30)
    assert run.returncode == 4
    assert run.stderr == (
        "error: the coefficient system has 24000 rows and 12000 unknowns, "
        "past the budget of 1048576 entries\n")


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


def test_cli_parser_is_built_once_and_reused(tmp_path, capsys):
    # usage errors, a valid call between them and --version give the exit
    # codes and messages of a parser built afresh for each call
    assert cli.build_parser() is cli.build_parser()
    inp = write(tmp_path, "in.problem",
                "[field]\nQ\n[variables]\nring x y\n[ideal]\nx*y - 1\n")
    bad = (["frobnicate", "--input", inp], ["groebner"],
           ["groebner", "--input", inp, "--precision", "two"])
    wants = ["desing: error: argument subcommand: invalid choice: "
             "'frobnicate'",
             "desing: error: the following arguments are required: --input",
             "desing: error: argument --precision: invalid int value: "
             "'two'"]
    for _ in range(2):
        for argv, want in zip(bad, wants):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage: desing ")
            assert want in err
        assert main(["groebner", "--input", inp]) == 0
        out, err = capsys.readouterr()
        assert "x*y - 1" in out and "subcommand: groebner" in err
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == desing.__version__ + "\n"


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


def _verify_exit(text):
    """The exit code of ``desing verify`` on a certificate text."""
    try:
        return cli.run_verify(None, None, text)[1]
    except DesingError as exc:
        return exc.exit_code


EXPONENT = re.compile(r"(?<=\^)(\d+)")


# two short circuits besides: the CI problem Y1 - x^2, and Y1*Y2 - 1 - x
# over Q(sqrt 2), whose minor Y2 is a unit at v
SHORT_CIRCUITS = {
    "short-Y1-x2": "[field]\nQ\n[variables]\nbase x\nalgebra Y1 Y2\n"
                   "[ideal]\nY1 - x^2\n[morphism]\nY1 = x^2 + O(x^12)\n"
                   "Y2 = x + O(x^12)\n",
    "short-sqrt2": "[field]\nQ\n[series-field]\nQ(r) r^2 - 2\n[variables]\n"
                   "base x\nalgebra Y1 Y2\n[ideal]\nY1*Y2 - 1 - x\n"
                   "[morphism]\nY1 = r + O(x^12)\n"
                   "Y2 = 1/2*r + 1/2*r*x + O(x^12)\n",
}


# the number of integers each certificate holds, at least (version 5
# prints no [bprime], version 6 no short-circuit z, version 7 no [t])
MUTANT_FLOORS = {"node-c1": 69, "chain-k2": 114, "sqrt2-node": 73,
                 "short-Y1-x2": 16, "short-sqrt2": 19}


def integer_sweep(text):
    """Raise every integer of a certificate by 1, one at a time, in every
    section: each coefficient the benchmark's tamper picks from
    (``workloads.COEFF``, with ``perfbench`` on the path), and each
    exponent and precision marker besides.  Returns the number of mutants
    and the (line, exit code) of each that verify does not refuse with
    exit 5 or 2."""
    from workloads import COEFF
    spans, offset = [], 0
    for line in text.splitlines(keepends=True):
        if not line.startswith("["):
            spans += [(offset + m.start(1), offset + m.end(1))
                      for pattern in (COEFF, EXPONENT)
                      for m in pattern.finditer(line)]
        offset += len(line)
    accepted = []
    for start, end in spans:
        mutant = text[:start] + str(int(text[start:end]) + 1) + text[end:]
        code = _verify_exit(mutant)
        if code not in (2, 5):
            accepted.append((text.count("\n", 0, start) + 1, code))
    return len(spans), accepted


@pytest.mark.parametrize("name", sorted(MUTANT_FLOORS))
def test_certificate_mutants_are_refused(tmp_path, monkeypatch, name):
    # verify must refuse every integer mutant with exit 5 or 2, with no
    # exception list
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    problem = SHORT_CIRCUITS.get(name) or workloads.certify(
        1, str(tmp_path)).files[f"{tmp_path}/{name}.problem"]
    cert_path = str(tmp_path / "cert.txt")
    assert main(["gnd", "--input", write(tmp_path, "in.problem", problem),
                 "--output", cert_path]) == 0
    text = open(cert_path).read()
    assert _verify_exit(text) == 0
    count, accepted = integer_sweep(text)
    assert count >= MUTANT_FLOORS[name]
    assert accepted == []


def test_prime_field_problem_round_trip():
    pf = parse_problem("[field]\nGF 101\n[variables]\nring x y\n"
                       "[ideal]\nx^2 + 100*y\n")
    assert pf.field == PrimeField(101)
    assert pf.ideal[0].terms[(0, 1)] == 100
