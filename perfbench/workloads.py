"""Seeded problem files, job lists and output checks for each workload.

The seed sets coefficients only (and, for ``groebner``, the prime from a
fixed list).  Degrees, variables, precisions and the parameter order c are
fixed per problem, so the work is nearly the same across seeds.  The engine
sees nothing but the problem files written here.
"""

import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from textfmt import (CheckFailed, fmt_poly, fmt_series, parse_poly,
                     parse_series, poly_add, poly_mul, poly_scale_vars,
                     uni_dense, uni_mul)

JOB_BUDGET_S = 30.0      # per timed job; the largest takes about 3 s
PROBE_BUDGET_S = 5.0     # per known-defect probe
PRIMES = (32003, 32009, 32027, 32029, 32051, 32057, 32059, 32063)
LIFT_PRIME = 32003
BIG_PRIME = 2305843009213693951          # 2^61 - 1


@dataclass
class Job:
    name: str
    subcommand: str
    input: str
    output: str
    check: object                # check(text) raises CheckFailed
    args: tuple = ()
    expect: tuple = (0,)         # accepted exit codes
    budget: float = JOB_BUDGET_S
    deterministic: bool = False  # output must repeat byte for byte
    repeats: int = 1             # runs in each pass of the timed loop

    def argv(self):
        return [self.subcommand, "--input", self.input,
                "--output", self.output, *self.args]


@dataclass
class Workload:
    name: str
    files: dict                  # path -> text, written at set-up
    jobs: list                   # one pass of the closed loop
    probes: list = field(default_factory=list)
    rng: random.Random = None    # seeded draws made after the timed run

    def write(self):
        for path, text in self.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

    def one_pass(self):
        """The jobs of one timed pass, in rounds: round k runs every job
        with more than k repeats."""
        return [job for k in range(max(j.repeats for j in self.jobs))
                for job in self.jobs if job.repeats > k]


def _pick(rng, choices):
    return choices[rng.randrange(len(choices))]


def _sign(rng):
    return _pick(rng, (1, -1))


def _signed(rng, magnitudes):
    return _pick(rng, magnitudes) * _sign(rng)


def _problem(field_line, variables, ideal, sections=()):
    lines = ["[field]", field_line, "[variables]", *variables, "[ideal]",
             *ideal]
    for header, body in sections:
        lines.append(f"[{header}]")
        lines.extend(body)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certify: gnd then verify, over Q and Q(sqrt 2)

CERT_SECTIONS = {"D", "data", "d", "s", "b", "relations", "yprime", "H",
                 "G", "hpolys", "gpolys", "qpolys", "t", "hat", "bprime"}
CERT_DATA_KEYS = ("minor", "witness", "dprime", "z", "pprime", "mu")
COEFF = re.compile(r"(?<![\w^/])(\d+)(/\d+)?(?![\w/])")


def _chain_images(c, k, a, b, N):
    """Y1 = a x^c (1 + b x), Y2 = x^c / (a (1 + b x)), Y_j = Y_(j-1)^2."""
    y1 = [0] * N
    y1[c] = Fraction(a)
    y1[c + 1] = Fraction(a * b)
    y2 = [0] * N
    for j in range(N - c):
        y2[c + j] = Fraction((-b) ** j) / a
    ys = [y1, y2]
    for _ in range(k - 1):
        ys.append(uni_mul(ys[-1], ys[-1], N))
    return ys


def _chain_problem(c, k, a, b, N):
    ys = _chain_images(c, k, a, b, N)
    names = [f"Y{i + 1}" for i in range(len(ys))]
    ideal = [f"Y1*Y2 - x^{2 * c}"]
    ideal += [f"Y{j} - Y{j - 1}^2" for j in range(3, k + 2)]
    morphism = [f"{n} = {fmt_series(y, 'x', N)}" for n, y in zip(names, ys)]
    return _problem("Q", ["base x", "algebra " + " ".join(names)], ideal,
                    [("morphism", morphism)])


def _sqrt2_problem(a, b, N):
    """Y^2 - 2 a^2 x^2 (1 + b x)^2 with Y = r a x (1 + b x), r^2 = 2."""
    rhs = {(2,): 2 * a * a, (3,): 4 * a * a * b, (4,): 2 * a * a * b * b}
    image = (f"{fmt_poly({(1,): a, (2,): a * b}, ('x',))}"
             .replace("x", "r*x") + f" + O(x^{N})")
    return ("[field]\nQ\n[series-field]\nQ(r) r^2 - 2\n[variables]\n"
            "base x\nalgebra Y1\n[ideal]\n"
            f"Y1^2 - ({fmt_poly(rhs, ('x',))})\n[morphism]\nY1 = {image}\n")


def check_certificate(text):
    lines = [ln for ln in text.split("[report]", 1)[-1].splitlines() if ln]
    if len(lines) != 6 or not all(ln.startswith("pass;") for ln in lines):
        raise CheckFailed("certificate report is not six passing checks")


def check_verify(text):
    lines = text.splitlines()
    if len(lines) != 6 or not all(ln.startswith("[pass]") for ln in lines):
        raise CheckFailed("verify did not report six passing checks")


def check_rejected(text):
    """Probe outputs that get here carry exit 0; accepting them is wrong."""
    raise CheckFailed("a tampered certificate was accepted")


def tamper(text, rng):
    """Change one coefficient of the certificate, chosen by ``rng``."""
    spans = []
    section = None
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1]
        elif section in CERT_SECTIONS and (
                section not in ("data", "D")
                or stripped.split(" ", 1)[0] in CERT_DATA_KEYS):
            spans += [(offset + m.start(), offset + m.end(), m)
                      for m in COEFF.finditer(line)]
        offset += len(line)
    start, end, m = _pick(rng, spans)
    bumped = str(int(m.group(1)) + 1) + (m.group(2) or "")
    return text[:start] + bumped + text[end:], f"offset {start}"


def _ab(rng):
    """Signs only: the magnitudes fix the coefficient heights, and with
    them the work, while x -> -x and Y -> -Y make all four sign choices
    equally hard."""
    return 2 * _sign(rng), _sign(rng)


def certify(seed, work):
    rng = random.Random(seed)
    files, jobs = {}, []
    specs = [(f"node-c{c}", c, 1, N) for c, N in ((1, 24), (2, 30), (3, 36))]
    specs += [(f"chain-k{k}", 1, k, 24) for k in (1, 2, 3, 4)]
    for name, c, k, N in specs:
        files[f"{work}/{name}.problem"] = _chain_problem(c, k, *_ab(rng), N)
    files[f"{work}/sqrt2-node.problem"] = _sqrt2_problem(*_ab(rng), 24)
    for path in list(files):
        name = os.path.basename(path).rsplit(".", 1)[0]
        cert = f"{work}/{name}.cert"
        jobs.append(Job(f"gnd:{name}", "gnd", path, cert, check_certificate,
                        deterministic=True))
        jobs.append(Job(f"verify:{name}", "verify", cert,
                        f"{work}/{name}.report", check_verify))
    probe = f"{work}/chain-k5.problem"
    files[probe] = _chain_problem(1, 5, *_ab(rng), 24)
    probes = [Job("probe:gnd:chain-k5", "gnd", probe, f"{work}/chain-k5.cert",
                  check_certificate, expect=(0, 2, 3, 4, 5),
                  budget=PROBE_BUDGET_S)]
    return Workload("certify", files, jobs, probes, rng)


def tamper_probes(wl, outputs):
    """One verify of a one-coefficient-changed copy of each certificate
    that the run's ``gnd`` jobs emitted."""
    probes = []
    for job in wl.jobs:
        if job.subcommand != "gnd" or not outputs.get(job.name):
            continue
        text = next(iter(outputs[job.name]))
        bad, where = tamper(text, wl.rng)
        path = job.output + ".tampered"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bad)
        probes.append(Job(f"probe:tamper:{job.name[4:]} ({where})", "verify",
                          path, path + ".report", check_rejected,
                          expect=(0, 2, 5), budget=PROBE_BUDGET_S))
    return probes


# ---------------------------------------------------------------------------
# lift: Newton lifting and Weierstrass preparation

def _lift_problem(field_line, names, ideal, start, target, c):
    return _problem(field_line, ["base x", "algebra " + " ".join(names)],
                    ideal, [("start", start),
                            ("options", [f"target {target}", f"c {c}"])])


def check_lift(equations, target, p=None):
    """equations: (name, minus, rhs, start) for name^2 - minus = rhs, with
    ``minus`` a variable name or None, ``rhs`` a coefficient list and
    ``start`` the leading coefficients the lifted series must keep."""

    def check(text):
        values = {}
        for line in text.splitlines():
            if " = " in line:
                name, series = line.split(" = ", 1)
                terms, prec = parse_series(series, ("x",), p)
                if prec != target:
                    raise CheckFailed(f"{name} has precision {prec}")
                values[name] = uni_dense(terms, target)
        for name, minus, rhs, start in equations:
            y = values[name]
            if y[:len(start)] != start:
                raise CheckFailed(f"{name} left its starting branch")
            lhs = uni_mul(y, y, target, p)
            if minus is not None:
                lhs = [u - v for u, v in zip(lhs, values[minus])]
            want = uni_dense(_uni(rhs), target)
            if p is not None:
                lhs = [u % p for u in lhs]
            if lhs != want:
                raise CheckFailed(f"{name}^2 does not match to x^{target}")
    return check


def _weierstrass_series(rng, N):
    """Dense f(y, x) over Q with coefficients +-1, x-regular of order 2.

    The +-1 pattern is fixed per precision; the seed only flips the signs
    of y, x and f.  That maps every coefficient of the result to +-itself,
    so the heights, and with them the work, are the same for every seed.
    """
    pattern = random.Random(N)
    e, s, t = _sign(rng), _sign(rng), _sign(rng)
    terms = {}
    for i in range(N):
        for j in range(N - i):
            if i == 0 and j < 2:
                continue
            terms[(i, j)] = e * s ** i * t ** j * _sign(pattern)
    return terms


def check_weierstrass(f, N):
    def check(text):
        lines = dict(ln.split(" ", 1) for ln in text.splitlines()[1:])
        deg = int(lines["p"])
        unit, prec = parse_series(lines["unit"], ("y", "x"))
        if prec != N:
            raise CheckFailed(f"unit has precision {prec}")
        wpoly = {(0, deg): 1}
        for i in range(deg):
            zi, _ = parse_series(lines[f"z{i}"], ("y",))
            if zi.get((0,)):
                raise CheckFailed(f"z{i} is not in the maximal ideal")
            wpoly = poly_add(wpoly, {(m[0], i): c for m, c in zi.items()})
        if not unit.get((0, 0)):
            raise CheckFailed("unit has zero constant term")
        if poly_mul(unit, wpoly, cut=N) != f:
            raise CheckFailed("unit * distinguished polynomial != input")
    return check


def lift(seed, work):
    rng = random.Random(seed)
    files, jobs = {}, []

    def add(name, subcommand, text, check, repeats=1):
        path = f"{work}/{name}.problem"
        files[path] = text
        jobs.append(Job(f"{subcommand}:{name}", subcommand, path,
                        f"{work}/{name}.out", check, repeats=repeats))

    # Over Q the seed picks signs only, so coefficient heights (and the
    # work) stay fixed; the x^2 coefficient keeps u from being a square,
    # whose lift would stop after one step.  The two jobs around the median
    # run twice a pass, so that several ops of each sit at the percentiles;
    # at --seconds 15 job_p50_ms falls between node-c1-128 and
    # weierstrass-32, and job_tail_ms on weierstrass-32.
    u = [1, _sign(rng), -2]
    add("sqrt-q-256", "lift",
        _lift_problem("Q", ["Y"], [f"Y^2 - ({fmt_poly(_uni(u), ('x',))})"],
                      ["Y = 1 + O(x)"], 256, 0),
        check_lift([("Y", None, u, [1])], 256))
    p = LIFT_PRIME
    u = [1] + [rng.randrange(1, p) for _ in range(3)]
    add("sqrt-gf-1024", "lift",
        _lift_problem(f"GF {p}", ["Y"],
                      [f"Y^2 - ({fmt_poly(_uni(u), ('x',), p)})"],
                      ["Y = 1 + O(x)"], 1024, 0),
        check_lift([("Y", None, u, [1])], 1024, p))
    u = [1, 2 * _sign(rng), -2]
    x2u = [0, 0] + u
    y0 = [0, 1, u[1] // 2]
    add("node-c1-128", "lift",
        _lift_problem("Q", ["Y"], [f"Y^2 - ({fmt_poly(_uni(x2u), ('x',))})"],
                      [f"Y = {fmt_series(y0, 'x', 3)}"], 128, 1),
        check_lift([("Y", None, x2u, y0)], 128), repeats=2)
    u = [1, _sign(rng), -2]
    v = [0, _sign(rng), -1]
    add("system-64", "lift",
        _lift_problem("Q", ["Y1", "Y2"],
                      [f"Y1^2 - ({fmt_poly(_uni(u), ('x',))})",
                       f"Y2^2 - Y1 - ({fmt_poly(_uni(v), ('x',))})"],
                      ["Y1 = 1 + O(x)", "Y2 = 1 + O(x)"], 64, 0),
        check_lift([("Y1", None, u, [1]), ("Y2", "Y1", v, [1])], 64))
    for N, repeats in ((24, 1), (32, 2)):
        f = _weierstrass_series(rng, N)
        add(f"weierstrass-{N}", "weierstrass",
            f"[field]\nQ\n[variables]\nring y x\n[series]\n"
            f"{fmt_poly(f, ('y', 'x'))} + O(y^{N})\n",
            check_weierstrass(f, N), repeats=repeats)
    return Workload("lift", files, jobs)


def _uni(coeffs):
    return {(k,): c for k, c in enumerate(coeffs) if c}


# ---------------------------------------------------------------------------
# groebner: a few large bases, a quotient and a module basis

def _cyclic(n):
    polys = []
    for k in range(1, n):
        terms = {}
        for i in range(n):
            mono = [0] * n
            for j in range(k):
                mono[(i + j) % n] += 1
            terms[tuple(mono)] = 1
        polys.append(terms)
    polys.append({(1,) * n: 1, (0,) * n: -1})
    return polys


def _katsura(n):
    """Variables u0..un; u_(-l) = u_l and u_l = 0 for l > n."""
    def idx(l):
        return abs(l) if abs(l) <= n else None

    polys = []
    for m in range(n):
        terms = {}
        for l in range(-n, n + 1):
            a, b = idx(l), idx(m - l)
            if a is None or b is None:
                continue
            mono = [0] * (n + 1)
            mono[a] += 1
            mono[b] += 1
            terms[tuple(mono)] = terms.get(tuple(mono), 0) + 1
        mono = [0] * (n + 1)
        mono[m] = 1
        terms[tuple(mono)] = terms.get(tuple(mono), 0) - 1
        polys.append(terms)
    terms = {}
    for l in range(-n, n + 1):
        mono = [0] * (n + 1)
        mono[abs(l)] = 1
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + 1
    terms[(0,) * (n + 1)] = -1
    polys.append(terms)
    return polys


def _to_sympy(terms, syms):
    from sympy import Integer, Mul, Rational
    out = Integer(0)
    for mono, c in terms.items():
        c = Fraction(c)
        out += Mul(Rational(c.numerator, c.denominator),
                   *[s ** e for s, e in zip(syms, mono)])
    return out


def _grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _monic(terms, p):
    lead = max(terms, key=_grevlex_key)
    inv = (pow(terms[lead], -1, p) if p is not None
           else 1 / Fraction(terms[lead]))
    return tuple(sorted((m, (c * inv) % p if p is not None else c * inv)
                        for m, c in terms.items()))


def _sympy_basis(exprs, syms, p):
    """Reduced degrevlex basis from sympy, as a set of monic term tuples."""
    import sympy
    opts = {"modulus": p} if p is not None else {}
    gb = sympy.groebner(exprs, *syms, order="grevlex", **opts)
    out = set()
    for g in gb.exprs:
        poly = sympy.Poly(g, *syms, **opts)
        terms = {m: (int(c) % p if p is not None else
                     Fraction(int(c.p), int(c.q)))
                 for m, c in poly.terms()}
        out.add(_monic(terms, p))
    return out


def _output_basis(text, names, p, header):
    body = text.split(f"[{header}]", 1)[1].splitlines()
    polys = [parse_poly(ln, names, p) for ln in body
             if ln and not ln.startswith("order ")]
    return [t for t in polys if t]


def check_groebner(polys, names, p):
    def check(text):
        import sympy
        syms = sympy.symbols(names)
        ref = _sympy_basis([_to_sympy(t, syms) for t in polys], syms, p)
        got = {_monic(t, p) for t in _output_basis(text, names, p,
                                                   "groebner")}
        if got != ref:
            raise CheckFailed("basis differs from sympy's reduced basis")
    return check


def _sympy_intersection(A, B, syms, p):
    import sympy
    t = sympy.Symbol("t_elim")
    gb = sympy.groebner([t * a for a in A] + [(1 - t) * b for b in B],
                        t, *syms, order="lex", modulus=p)
    return [g for g in gb.exprs if not g.has(t)]


def check_quotient(I, J, names, p):
    """(I : J) = intersection over h in J of (I cap (h)) / h, via sympy."""
    def check(text):
        import sympy
        syms = sympy.symbols(names)
        Is = [_to_sympy(t, syms) for t in I]
        result = None
        for h in J:
            hs = _to_sympy(h, syms)
            part = []
            for g in _sympy_intersection(Is, [hs], syms, p):
                q, r = sympy.div(g, hs, *syms, modulus=p)
                if r != 0:
                    raise CheckFailed("reference intersection not in (h)")
                part.append(q)
            result = part if result is None else \
                _sympy_intersection(result, part, syms, p)
        ref = _sympy_basis(result, syms, p)
        got = _output_basis(text, names, p, "ideal")
        if _sympy_basis([_to_sympy(t, syms) for t in got], syms, p) != ref:
            raise CheckFailed("quotient differs from the sympy reference")
    return check


def _minor(a, i, j):
    return poly_add(poly_mul(a[0][i], a[1][j]), poly_mul(a[0][j], a[1][i]),
                    sign=-1)


def _kernel_vector(a, cols):
    """Laplace-expansion kernel vector of a 2 x n matrix on three columns."""
    i, j, l = cols
    v = [{} for _ in a[0]]
    v[i] = _minor(a, j, l)
    v[j] = {m: -c for m, c in _minor(a, i, l).items()}
    v[l] = _minor(a, i, j)
    return v


def _apply(a, vec):
    """Matrix times vector over k[x]."""
    out = []
    for row in a:
        acc = {}
        for entry, v in zip(row, vec):
            acc = poly_add(acc, poly_mul(entry, v))
        out.append(acc)
    return out


def check_linear_factor(a, b, yprime, N):
    """a * particular = b, a * kernel = 0, particular + sum z_k kernel_k
    = y' to x^N, all with the benchmark's own arithmetic."""
    def check(text):
        part, kernel, zs = None, [], []
        for line in text.splitlines()[1:]:
            key, rest = line.split(" ", 1)
            if key == "z":
                zs.append(parse_series(rest, ("x",))[0])
                continue
            vec = [parse_poly(s, ("x",)) for s in rest.split(" ; ")]
            if key == "particular":
                part = vec
            else:
                kernel.append(vec)
        if _apply(a, part) != b:
            raise CheckFailed("a * particular != b")
        if any(any(r) for k in kernel for r in _apply(a, k)):
            raise CheckFailed("a kernel generator is not in the kernel")
        if len(zs) != len(kernel) or not kernel:
            raise CheckFailed("one z per kernel generator expected")
        for j in range(4):
            acc = dict(part[j])
            for z, k in zip(zs, kernel):
                acc = poly_add(acc, poly_mul(z, k[j], cut=N))
            acc = {m: c for m, c in acc.items() if m[0] < N}
            if acc != yprime[j]:
                raise CheckFailed(f"reconstruction of y'_{j} fails")
    return check


def groebner(seed, work):
    rng = random.Random(seed)
    files, jobs = {}, []

    def add(name, subcommand, text, check, args=("--order", "degrevlex"),
            repeats=1):
        path = f"{work}/{name}.problem"
        files[path] = text
        jobs.append(Job(f"{subcommand}:{name}", subcommand, path,
                        f"{work}/{name}.out", check, args, repeats=repeats))

    def basis_problem(name, polys, names, p, repeats=1):
        scales = ([rng.randrange(1, p) for _ in names] if p is not None
                  else [_pick(rng, (1, -1)) for _ in names])
        polys = [poly_scale_vars(t, scales, p) for t in polys]
        add(name, "groebner",
            _problem(f"GF {p}" if p else "Q", ["ring " + " ".join(names)],
                     [fmt_poly(t, names, p) for t in polys]),
            check_groebner(polys, names, p), repeats=repeats)

    # The quotient and katsura-5 run three and two times a pass, so that
    # several ops of each sit at the percentiles; at --seconds 15
    # job_p50_ms falls on the quotient and job_tail_ms on katsura-5.

    p = _pick(rng, PRIMES)
    basis_problem("cyclic5", _cyclic(5), tuple(f"x{i}" for i in range(1, 6)),
                  p)
    p = _pick(rng, PRIMES)
    basis_problem("katsura5", _katsura(5), tuple(f"u{i}" for i in range(6)),
                  p, repeats=2)
    basis_problem("katsura4-q", _katsura(4), tuple(f"u{i}" for i in range(5)),
                  None)

    p = _pick(rng, PRIMES)
    names = ("x", "y", "z")
    c = [rng.randrange(1, p) for _ in range(5)]
    I = [{(2, 1, 0): 1, (0, 0, 2): c[0]}, {(1, 0, 1): 1, (0, 2, 0): c[1]},
         {(0, 1, 2): 1, (3, 0, 0): c[2]}]
    J = [{(1, 0, 0): 1, (0, 1, 0): c[3]}, {(0, 0, 1): 1, (0, 1, 0): c[4]}]
    add("quotient-gf", "quotient",
        _problem(f"GF {p}", ["ring x y z"], [fmt_poly(t, names, p) for t in I],
                 [("ideal2", [fmt_poly(t, names, p) for t in J])]),
        check_quotient(I, J, names, p), repeats=3)

    N = 12

    def entry(*coeffs):
        return _uni([_signed(rng, (1, 2)) if c is None else c
                     for c in coeffs])

    a = [[entry(None), entry(None, None), entry(None, None), entry(None)],
         [entry(0, None), entry(None), entry(0, 0, 1), entry(None, 1)]]
    kernel = [_kernel_vector(a, (0, 1, 2)), _kernel_vector(a, (1, 2, 3))]
    part = [_uni([_signed(rng, (1, 2))]) for _ in range(4)]
    z = [[_signed(rng, (1, 2)) for _ in range(N)] for _ in kernel]
    yprime = []
    for j in range(4):
        acc = dict(part[j])
        for zk, k in zip(z, kernel):
            acc = poly_add(acc, poly_mul(_uni(zk), k[j], cut=N))
        yprime.append({m: c for m, c in acc.items() if m[0] < N})
    b = _apply(a, part)
    add("linear-factor-2x4", "linear-factor",
        _problem("Q", ["base x"], [], [
            ("matrix", [" ; ".join(fmt_poly(e, ("x",)) for e in row)
                        for row in a]),
            ("rhs", [fmt_poly(t, ("x",)) for t in b]),
            ("solution", [fmt_poly(y, ("x",)) + f" + O(x^{N})"
                          for y in yprime])]),
        check_linear_factor(a, b, yprime, N), args=())

    probe = f"{work}/big-prime.problem"
    names = ("x", "y")
    polys = [{(2, 0): 1, (0, 1): rng.randrange(1, 1000)},
             {(1, 1): 1, (0, 0): -1}]
    files[probe] = _problem(f"GF {BIG_PRIME}", ["ring x y"],
                            [fmt_poly(t, names, BIG_PRIME) for t in polys])
    probes = [Job("probe:groebner:big-prime", "groebner", probe,
                  f"{work}/big-prime.out",
                  check_groebner(polys, names, BIG_PRIME),
                  ("--order", "degrevlex"), expect=(0, 2, 3, 4, 5),
                  budget=PROBE_BUDGET_S)]
    return Workload("groebner", files, jobs, probes)


BUILDERS = {"certify": certify, "lift": lift, "groebner": groebner}
