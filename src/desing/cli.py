"""Command-line driver: batch subcommands over line-oriented problem files.

Exit codes: 0 success, 2 parse error, 3 precondition violated, 4 resource
budget exceeded, 5 internal consistency failure.
"""

import argparse
import functools
import hashlib
import sys
import time

from . import __version__
from .approx import (LiftRequest, check_candidate, linear_factor,
                     module_iso_system, newton_lift)
from .check import original_problem, verify_certificate
from .errors import ConsistencyError, DesingError, ParseError
from .gnd import desingularize
from .groebner import IdealPresentation, buchberger, ideal_quotient
from .iofmt import (emit_certificate, emit_groebner, emit_ideal,
                    format_series, parse_certificate, parse_problem)
from .poly import format_polynomial
from .series import CompletionMorphism, weierstrass_prepare
from .smooth import AlgebraPresentation, smoothing_ideal, DEFAULT_SUBSET_BUDGET

SUBCOMMANDS = ("groebner", "quotient", "smooth-locus", "gnd", "lift",
               "weierstrass", "linear-factor", "module-iso", "verify")


def _algebra(pf):
    if pf.base_var is None:
        raise ParseError("this subcommand needs a 'base' variables line")
    return AlgebraPresentation(base_var=pf.base_var,
                               variables=pf.algebra_vars, field=pf.field,
                               relations=list(pf.ideal))


def _morphism(pf):
    if not pf.morphism:
        raise ParseError("this subcommand needs a [morphism] section")
    _names_exactly("morphism", pf.morphism, pf.algebra_vars,
                   "algebra variable")
    return CompletionMorphism(base_var=pf.base_var, field=pf.series_field,
                              images=dict(pf.morphism))


def _names_exactly(section, names, wanted, what):
    """[section] must name every one of ``wanted`` and nothing else."""
    for name in wanted:
        if name not in names:
            raise ParseError(f"[{section}] lacks the {what} {name}")
    for name in names:
        if name not in wanted:
            raise ParseError(f"[{section}] names {name}, which is not an "
                             f"{what}")


def _flag_or_option(flag, pf, key, default):
    """A value given on the command line, even 0, wins over [options]."""
    return pf.option_int(key, default) if flag is None else flag


def run_groebner(pf, args):
    ideal = IdealPresentation(pf.ring, pf.field, list(pf.ideal))
    order = pf.order(args.order)
    gb = buchberger(ideal, order)
    return emit_groebner(gb, pf.ring, pf.field), 0


def run_quotient(pf, args):
    I = IdealPresentation(pf.ring, pf.field, list(pf.ideal))
    J = IdealPresentation(pf.ring, pf.field, list(pf.ideal2))
    order = pf.order(args.order)
    result = ideal_quotient(I, J, order)
    return emit_ideal(result.generators, pf.ring, pf.field, order), 0


def run_smooth_locus(pf, args):
    B = _algebra(pf)
    budget = _flag_or_option(args.subset_budget, pf, "subset-budget",
                             DEFAULT_SUBSET_BUDGET)
    H = smoothing_ideal(B, budget)
    return emit_ideal(H.generators, B.ring_variables(), pf.field), 0


def run_gnd(pf, args):
    B = _algebra(pf)
    v = _morphism(pf)
    budget = _flag_or_option(args.subset_budget, pf, "subset-budget",
                             DEFAULT_SUBSET_BUDGET)
    cert = desingularize(B, v, budget)
    text = emit_certificate(cert)
    code = 0 if cert.all_passed() else 5
    if args.verify:
        # check the text as emitted, against the problem as given
        try:
            emitted = parse_certificate(text)
        except ParseError as exc:
            raise ConsistencyError(
                f"emitted certificate does not parse: {exc}") from exc
        failed = [r.name for r in verify_certificate(emitted, B, v)
                  if not r.passed]
        if failed:
            print("verify failed: " + ", ".join(failed), file=sys.stderr)
            code = 5
    return text, code


def run_verify(pf, args, raw_text):
    cert = parse_certificate(raw_text)
    claimed = cert.report_lines()
    B, v = original_problem(cert)
    report = verify_certificate(cert, B, v)
    lines = [r.line() for r in report]
    failed = [r.name for r in report if not r.passed]
    if not failed and claimed != lines:
        # every check passed, yet the certificate claims another report
        failed.append("[report]")
    if failed:
        lines.append("failed: " + ", ".join(failed))
    return "\n".join(lines) + "\n", 0 if not failed else 5


def run_lift(pf, args):
    if pf.base_var is None:
        raise ParseError("lift needs a 'base' variables line")
    if not pf.start:
        raise ParseError("lift needs a [start] section")
    _names_exactly("start", pf.start, pf.algebra_vars, "algebra variable")
    target = _flag_or_option(args.precision, pf, "target", 0)
    if not target:
        raise ParseError("lift needs a target precision "
                         "(option 'target' or --precision)")
    budget = _flag_or_option(args.subset_budget, pf, "subset-budget",
                             DEFAULT_SUBSET_BUDGET)
    req = LiftRequest(system=list(pf.ideal), base_var=pf.base_var,
                      yvars=pf.algebra_vars, y0=dict(pf.start),
                      c=pf.option_int("c", 0), target=target,
                      subset_budget=budget)
    res = newton_lift(req)
    lines = ["[lift]"]
    for yv in req.yvars:
        lines.append(f"{yv} = {format_series(res.values[yv])}")
    lines.append("iterations " + str(res.iterations))
    lines.append("trace " + " ".join("-" if o is None else str(o)
                                     for o in res.trace))
    return "\n".join(lines) + "\n", 0


def run_weierstrass(pf, args):
    if pf.series is None:
        raise ParseError("weierstrass needs a [series] section")
    data = weierstrass_prepare(pf.series)
    lines = ["[weierstrass]", f"p {data.p}",
             f"unit {format_series(data.unit)}"]
    for i, z in enumerate(data.zs):
        lines.append(f"z{i} {format_series(z)}")
    return "\n".join(lines) + "\n", 0


def run_linear_factor(pf, args):
    if not pf.matrix or not pf.solution:
        raise ParseError("linear-factor needs [matrix], [rhs], [solution]")
    base = pf.base_var or pf.ring[0]
    lf = linear_factor(pf.matrix, pf.rhs, pf.solution, base)
    lines = ["[linear-factor]"]
    lines.append("particular " + " ; ".join(format_polynomial(p)
                                            for p in lf.particular))
    for gen in lf.kernel:
        lines.append("kernel " + " ; ".join(format_polynomial(p)
                                            for p in gen))
    for z in lf.z:
        lines.append(f"z {format_series(z)}")
    return "\n".join(lines) + "\n", 0


def run_module_iso(pf, args):
    if not pf.umatrix or not pf.vmatrix:
        raise ParseError("module-iso needs [umatrix] and [vmatrix]")
    sys_ = module_iso_system(pf.umatrix, pf.vmatrix)
    lines = ["[module-iso]",
             f"unknowns {len(sys_.unknowns)}",
             f"equations {sys_.equation_count}"]
    if pf.candidate:
        _names_exactly("candidate", pf.candidate, sys_.unknowns, "unknown")
        prec = args.precision if args.precision is not None else min(
            s.precision for s in pf.candidate.values())
        ok = check_candidate(sys_, pf.candidate, prec)
        lines.append(f"candidate {'accepted' if ok else 'rejected'}")
    return "\n".join(lines) + "\n", 0


@functools.cache
def build_parser():
    """One parser a process: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="desing",
        description="exact commutative-algebra engine with "
                    "desingularization certificates")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--input", required=True, help="problem file path")
    parser.add_argument("--output", help="write the artifact here "
                                         "(default: stdout)")
    parser.add_argument("--order", choices=("lex", "degrevlex"))
    parser.add_argument("--precision", type=int)
    parser.add_argument("--subset-budget", type=int, dest="subset_budget")
    parser.add_argument("--verify", action="store_true",
                        help="after gnd, verify the emitted certificate "
                             "against the input problem")
    return parser


def main(argv=None):
    # CPython refuses str <-> int conversions of more than 4300 digits (3.11
    # and patched 3.10); the reader bounds literals itself, output
    # coefficients may be longer, and the limit is restored for in-process
    # callers
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        return _main(argv)
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _main(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    try:
        if args.subcommand == "verify":
            text, code = run_verify(None, args, raw)
        else:
            pf = parse_problem(raw)
            runner = {
                "groebner": run_groebner,
                "quotient": run_quotient,
                "smooth-locus": run_smooth_locus,
                "gnd": run_gnd,
                "lift": run_lift,
                "weierstrass": run_weierstrass,
                "linear-factor": run_linear_factor,
                "module-iso": run_module_iso,
            }[args.subcommand]
            text, code = runner(pf, args)
    except DesingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    elapsed = time.monotonic() - started
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        where = args.output
    else:
        sys.stdout.write(text)
        where = "-"
    print(f"subcommand: {args.subcommand}", file=sys.stderr)
    print(f"input-sha256: {digest}", file=sys.stderr)
    print(f"output: {where}", file=sys.stderr)
    print(f"time: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
