from fractions import Fraction

import random

import pytest
from hypothesis import given, settings, strategies as st

from desing import groebner, smooth
from desing.errors import (DomainError, PrecisionError, ResourceError,
                           StructuralError)
from desing.fields import QQ, PrimeField
from desing.groebner import ideal_member
from desing.poly import Polynomial, parse_polynomial
from desing.gnd import border_step
from desing.series import (CompletionMorphism, TruncatedSeries, parse_series,
                           series_eval, series_point)
from desing.smooth import (AlgebraPresentation, best_witness,
                           bordered_jacobian, check_morphism, find_desing_data, identity_matrix,
                           jacobian, matrix_adjugate, matrix_det, matrix_equal,
                           matrix_mul, matrix_scale,
                           reduce_until_nonvanishing, smoothing_ideal)

RING = ("x", "Y1", "Y2")


def pp(text, variables=RING):
    return parse_polynomial(text, variables, QQ)


def node_algebra():
    return AlgebraPresentation(base_var="x", variables=("Y1", "Y2"),
                               field=QQ, relations=[pp("Y1*Y2 - x^2")])


def node_morphism(precision=24):
    marker = f"O(x^{precision})"
    return CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series(f"x + x^2 + {marker}", ("x",), QQ),
                "Y2": parse_series(f"x - x^2 + x^3 - x^4"
                                   + "".join(f" {'+' if k % 2 else '-'} x^{k}"
                                             for k in range(5, precision))
                                   + f" + {marker}", ("x",), QQ)})


# ---------------------------------------------------------------------------
# matrices

def laplace_det(A):
    """Reference determinant: Laplace expansion along the first row, with
    no entry skipped, so over series its precision is the least of all
    the entries."""
    if len(A) == 1:
        return A[0][0]
    det = None
    for j, a in enumerate(A[0]):
        term = a * laplace_det([row[:j] + row[j + 1:] for row in A[1:]])
        term = -term if j % 2 else term
        det = term if det is None else det + term
    return det


def cofactor_adjugate(A):
    """Reference adjugate: the transposed matrix of signed cofactors."""
    n = len(A)
    if n == 1:
        a = A[0][0]
        if isinstance(a, TruncatedSeries):
            return [[TruncatedSeries.one(a.variables, a.field, a.precision)]]
        return [[Polynomial.one(a.variables, a.field)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = laplace_det([row[:j] + row[j + 1:]
                               for r, row in enumerate(A) if r != i])
            adj[j][i] = -cof if (i + j) % 2 else cof
    return adj


GF = PrimeField(32003)


@st.composite
def _square_matrices(draw):
    """An n x n matrix, n = 1..5, over Q[x, y], GF(32003)[x, y] or Q[[x]]
    (each series at its own precision 1..8), with entries of up to three
    terms; a sparse matrix has about three zeros in four entries, like the
    Jacobians the engine takes minors of."""
    kind = draw(st.sampled_from(("Q", "GF", "series")))
    n = draw(st.integers(1, 5))
    sparse = draw(st.booleans())
    field = GF if kind == "GF" else QQ
    coeff = (st.integers(1, field.p - 1) if kind == "GF" else
             st.builds(Fraction, st.integers(-9, 9).filter(bool),
                       st.integers(1, 4)))
    variables = ("x",) if kind == "series" else ("x", "y")
    monos = st.tuples(*[st.integers(0, 2)] * len(variables))

    def entry():
        size = 0 if sparse and draw(st.integers(0, 3)) else 3
        terms = draw(st.dictionaries(monos, coeff, max_size=size))
        if kind == "series":
            return TruncatedSeries(variables, field, terms,
                                   draw(st.integers(1, 8)))
        return Polynomial(variables, field, terms)

    return [[entry() for _ in range(n)] for _ in range(n)]


def _same_to_precision(got, want):
    """Equal polynomials, or a series no more precise than every entry of
    the matrix had (``got.precision`` is checked by the caller) whose
    terms are those of ``want`` below that precision."""
    if isinstance(got, TruncatedSeries):
        return got == want.truncate(got.precision)
    return got == want


@settings(max_examples=250, deadline=None)
@given(_square_matrices())
def test_det_and_adjugate_match_the_cofactor_reference(A):
    n = len(A)
    det, adj = matrix_det(A), matrix_adjugate(A)
    ref_det, ref_adj = laplace_det(A), cofactor_adjugate(A)
    if isinstance(det, TruncatedSeries):
        least = min(a.precision for row in A for a in row)
        assert det.precision <= least
        assert all(e.precision <= least for row in adj for e in row)
    assert _same_to_precision(det, ref_det)
    assert all(_same_to_precision(e, ref) for row, ref_row in zip(adj, ref_adj)
               for e, ref in zip(row, ref_row))
    # A·adj(A) = adj(A)·A = det(A)·Id
    for prod in (matrix_mul(A, adj), matrix_mul(adj, A)):
        for i in range(n):
            for j in range(n):
                want = det if i == j else det - det
                assert (prod[i][j] - want).is_zero()


def test_matrix_algebra():
    A = [[pp("x"), pp("Y1")], [pp("0"), pp("Y2")]]
    assert matrix_det(A) == pp("x*Y2")
    adj = matrix_adjugate(A)
    prod = matrix_mul(A, adj)
    expect = matrix_scale(identity_matrix(2, RING, QQ), pp("x*Y2"))
    assert matrix_equal(prod, expect)
    assert matrix_equal(matrix_mul(adj, A), expect)


def test_bordered_jacobian_block_adjugate():
    # G from the r x r block adjugate equals N·adj(H) over the whole of H,
    # with adj(H) from the cofactor reference, and det(H) is the minor M
    # of the first r columns
    rng = random.Random(7)
    for n in range(2, 5):
        ring = ("x",) + tuple(f"Y{i + 1}" for i in range(n))
        for r in range(1, n):
            for _ in range(2):
                fs = [Polynomial(ring, QQ, {
                    tuple(rng.randrange(3) for _ in ring):
                    Fraction(rng.randrange(-3, 4) or 1) for _ in range(3)})
                    for _ in range(r)]
                witness = Polynomial(ring, QQ, {
                    tuple(rng.randrange(2) for _ in ring): Fraction(2)})
                H, G = bordered_jacobian(fs, ring[1:], witness)
                assert len(H) == n and all(len(row) == n for row in H)
                full = matrix_scale(cofactor_adjugate(H), witness)
                assert matrix_equal(G, full)
                assert matrix_det(H) == laplace_det([row[:r]
                                                     for row in H[:r]])


def test_matrix_det_truncated_series():
    def ser(*coeffs):
        return TruncatedSeries(("x",), QQ, {(k,): Fraction(c)
                                            for k, c in enumerate(coeffs)}, 6)

    A = [[ser(1, 1), ser(2), ser(0, 1)],
         [ser(0), ser(1, 0, 1), ser(3)],
         [ser(1), ser(0), ser(2, 1)]]
    # (1+x)((1+x^2)(2+x) - 0) - 2(0 - 3) + x(0 - (1+x^2))
    #   = 2 + 3x + 3x^2 + 3x^3 + x^4 + 6 - x - x^3 = 8 + 2x + 3x^2 + 2x^3 + x^4
    assert matrix_det(A) == ser(8, 2, 3, 2, 1)
    assert matrix_det([[ser(0), ser(1)], [ser(0), ser(2)]]).is_zero()


def test_matrix_det_shape_errors():
    with pytest.raises(StructuralError):
        matrix_det([])
    with pytest.raises(StructuralError):
        matrix_det([[pp("x"), pp("Y1")]])


# ---------------------------------------------------------------------------
# jacobians and ideals

def test_jacobian_entries():
    jac = jacobian([pp("Y1*Y2 - x^2")], ("Y1", "Y2"))
    assert jac == [[pp("Y2"), pp("Y1")]]


def test_smoothing_ideal_node():
    H = smoothing_ideal(node_algebra())
    # singular exactly at the origin of the cone: radical is (x, Y1, Y2)
    for g in (pp("x^2"), pp("Y1*Y2")):
        assert ideal_member(g, H)
    assert not ideal_member(pp("1"), H)


def test_smoothing_ideal_polynomial_algebra():
    B = AlgebraPresentation(base_var="x", variables=("Y1",), field=QQ,
                            relations=[])
    H = smoothing_ideal(B)
    assert ideal_member(parse_polynomial("1", ("x", "Y1"), QQ), H)


def test_smoothing_ideal_budget():
    B = node_algebra()
    with pytest.raises(ResourceError):
        smoothing_ideal(B, subset_budget=0)


# ---------------------------------------------------------------------------
# morphism checks and witness search

def test_check_morphism_accepts_node():
    check_morphism(node_algebra(), node_morphism())


def test_check_morphism_rejects():
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series("x + O(x^12)", ("x",), QQ),
                "Y2": parse_series("x + x^2 + O(x^12)", ("x",), QQ)})
    with pytest.raises(DomainError):
        check_morphism(node_algebra(), v)


def test_find_desing_data_node():
    B = node_algebra()
    v = node_morphism()
    data = find_desing_data(B, v)
    assert data.c == 1
    assert data.subset == (0,)
    assert data.minor == pp("Y2")
    assert data.witness == pp("1")
    assert data.dprime == pp("x")
    # z = x / v(Y2) = 1 / (1 - x + x^2 - ...) = 1 + x
    z = data.z
    assert z.coefficient((0,)) == 1 and z.coefficient((1,)) == 1
    assert all(z.coefficient((k,)) == 0 for k in range(2, z.precision))


def test_find_desing_data_deterministic():
    B = node_algebra()
    v = node_morphism()
    a = find_desing_data(B, v)
    b = find_desing_data(B, v)
    assert (a.subset, a.columns, a.minor, a.witness, a.c) == \
        (b.subset, b.columns, b.minor, b.witness, b.c)
    assert a.z == b.z


def test_find_desing_data_precision_guard():
    B = node_algebra()
    v = node_morphism(precision=8)     # below 10*c for c = 1
    with pytest.raises(PrecisionError):
        find_desing_data(B, v)


def test_find_desing_data_budget():
    with pytest.raises(ResourceError):
        find_desing_data(node_algebra(), node_morphism(), subset_budget=0)


def test_find_desing_data_smooth_case():
    B = AlgebraPresentation(base_var="x", variables=("Y1",), field=QQ,
                            relations=[parse_polynomial("Y1 - x^2",
                                                        ("x", "Y1"), QQ)])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series("x^2 + O(x^12)", ("x",), QQ)})
    data = find_desing_data(B, v)
    assert data.c == 0
    assert data.dprime == parse_polynomial("1", ("x", "Y1"), QQ)


def test_trivial_data_polynomial_algebra():
    B = AlgebraPresentation(base_var="x", variables=("Y1",), field=QQ,
                            relations=[])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series("x + O(x^12)", ("x",), QQ)})
    data = find_desing_data(B, v)
    assert data.c == 0 and data.subset == ()


def test_reduce_until_nonvanishing_unchanged():
    B = node_algebra()
    v = node_morphism()
    assert reduce_until_nonvanishing(B, v) is B


def test_reduce_until_nonvanishing_one_step(monkeypatch):
    # the smoothing ideal of (Y1^2) is (Y1); one reduction step reaches the
    # smooth algebra k[x, Y1]/(Y1) containing the image
    B = AlgebraPresentation(base_var="x", variables=("Y1",), field=QQ,
                            relations=[parse_polynomial("Y1^2", ("x", "Y1"),
                                                        QQ)])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series("O(x^12)", ("x",), QQ)})
    monkeypatch.setattr(smooth, "MAX_REDUCTIONS", 2)
    reduced = reduce_until_nonvanishing(B, v)
    assert reduced is not B
    assert ideal_member(parse_polynomial("Y1", ("x", "Y1"), QQ),
                        reduced.ideal())
    monkeypatch.setattr(smooth, "MAX_REDUCTIONS", 0)
    with pytest.raises(ResourceError):
        reduce_until_nonvanishing(B, v)


def test_reduce_until_nonvanishing_codimension_above_cap():
    # Y1^2, ..., Y5^2 has codimension 5, so subsets run to five rows; one
    # step adds Y1*...*Y5, and on that fat point every minor times ((f):I)
    # lies in I, so B/H = B
    ring = ("x", "Y1", "Y2", "Y3", "Y4", "Y5")
    B = AlgebraPresentation(
        base_var="x", variables=ring[1:], field=QQ,
        relations=[parse_polynomial(f"{y}^2", ring, QQ) for y in ring[1:]])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={y: parse_series("O(x^12)", ("x",), QQ) for y in ring[1:]})
    with pytest.raises(DomainError, match="no progress"):
        reduce_until_nonvanishing(B, v)


def test_reduce_until_nonvanishing_fat_point():
    # the fat point (Y1^2, Y1*Y2, Y2^2) has codimension 2, below the cap,
    # but is non-reduced: every minor times ((f):I) still lies in I
    ring = ("x", "Y1", "Y2")
    B = AlgebraPresentation(
        base_var="x", variables=ring[1:], field=QQ,
        relations=[parse_polynomial(f, ring, QQ)
                   for f in ("Y1^2", "Y1*Y2", "Y2^2")])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={y: parse_series("O(x^12)", ("x",), QQ) for y in ring[1:]})
    with pytest.raises(DomainError, match="non-reduced"):
        reduce_until_nonvanishing(B, v)


def test_reduce_until_nonvanishing_three_planes():
    # Y1*Y2*Y3 at the origin: one step reaches the three axes (Y1*Y2,
    # Y1*Y3, Y2*Y3), the next a fat point at the origin, whose smoothing
    # ideal is its own ideal; each step's relations are a reduced basis
    ring = ("x", "Y1", "Y2", "Y3")
    B = AlgebraPresentation(base_var="x", variables=ring[1:], field=QQ,
                            relations=[parse_polynomial("Y1*Y2*Y3", ring, QQ)])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={y: parse_series("O(x^12)", ("x",), QQ) for y in ring[1:]})
    with pytest.raises(DomainError, match="no progress"):
        reduce_until_nonvanishing(B, v)


def chain_k3_algebra():
    ring = ("x", "Y1", "Y2", "Y3", "Y4")
    return AlgebraPresentation(
        base_var="x", variables=ring[1:], field=QQ,
        relations=[parse_polynomial(f, ring, QQ)
                   for f in ("Y1*Y2 - x^2", "Y3 - Y1^2", "Y4 - Y3^2")])


def test_subset_budget_counts_minors():
    # three relations in four variables: C(4, 1) = 4 minors for each of the
    # three one-relation subsets, 6 for each pair and 4 for all three, 34 in
    # all; one minor short of the first size stops before any pair is built
    B = chain_k3_algebra()
    with pytest.raises(ResourceError, match="11 minors"):
        smoothing_ideal(B, subset_budget=3 * 4 - 1)
    assert [row.subset for row in B._rows] == [(0,), (1,)]
    with pytest.raises(ResourceError):
        smoothing_ideal(B, subset_budget=33)
    assert len(B._rows) == 6
    smoothing_ideal(B, subset_budget=34)
    assert len(B._rows) == 7


def test_witness_search_makes_no_groebner_call(monkeypatch):
    # chain k = 3.  Once the subset table holds every minor and ((f):I),
    # nothing on the success path computes a basis or tests membership: v
    # kills I, so a member of I evaluates to zero and is skipped, and the
    # bordering checks d - P by its cofactor identity
    B = chain_k3_algebra()
    v = node_morphism()
    y1 = v.images["Y1"]
    v = CompletionMorphism(base_var="x", field=QQ,
                           images=dict(v.images, Y3=y1 ** 2, Y4=y1 ** 4))
    H = smoothing_ideal(B)

    def refuse(*args, **kwargs):
        raise AssertionError("Groebner call on the witness search path")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    monkeypatch.setattr(groebner, "ideal_member", refuse)
    monkeypatch.setattr(smooth, "buchberger", refuse)
    assert reduce_until_nonvanishing(B, v) is B
    best = best_witness(B, v.eval)
    data = find_desing_data(B, v)
    assert (best[0], best[3], best[4]) == (data.c, data.minor, data.witness)
    assert data.c == 1
    step = border_step(B, v, data)
    assert step.algebra.relations[-1] == step.frp1
    monkeypatch.undo()
    # H has members of I, which the reduction skipped by their zero images
    assert any(ideal_member(g, B.ideal()) for g in H.generators)


def reference_best_witness(B, evaluate, subset_budget=500):
    """The witness search that tests every candidate for membership in I
    before evaluating it, as the reference for best_witness."""
    ideal_gb = groebner.buchberger(B.ideal(), groebner.DEGREVLEX)
    best = None
    for row in B.subset_table(subset_budget):
        for cols, minor in row.minors:
            for witness in row.quotient:
                pprime = minor * witness
                if ideal_member(pprime, ideal_gb):
                    continue
                value = evaluate(pprime)
                c = value.order()
                if c is None:
                    continue
                if best is None or c < best[0]:
                    best = (c, row.subset, cols, minor, witness, value)
        if best is not None and best[0] == 0:
            break
    return best


@st.composite
def _witness_problems(draw):
    """(B, point, newton): relations in the ideal (Y1 - p1, Y2 - p2) of a
    polynomial solution, and the point p + O(x^12) (which kills I), or with
    newton, p + x^s·e + O(x^12), where every relation and so every member
    of I has a residue of order at least s."""
    coeff = st.integers(-2, 2)
    ps = [pp(" + ".join(f"{draw(coeff)}*x^{k}" for k in range(3)))
          for _ in range(2)]
    lin = [pp(y) - p for y, p in zip(("Y1", "Y2"), ps)]
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        f = pp("0")
        for _ in range(draw(st.integers(1, 2))):
            i, j = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0),
                                         (0, 2), (2, 1)]))
            f = f + pp(f"{draw(coeff)}*x^{draw(st.integers(0, 2))}") * \
                lin[0] ** i * lin[1] ** j
        relations.append(f)
    B = AlgebraPresentation(base_var="x", variables=("Y1", "Y2"), field=QQ,
                            relations=relations)
    newton = draw(st.booleans())
    images = {"x": parse_series("x + O(x^12)", ("x",), QQ)}
    for y, p in zip(("Y1", "Y2"), ps):
        e = f" + {draw(st.integers(1, 3))}*x^{draw(st.integers(3, 6))}" \
            if newton else ""
        images[y] = parse_series(f"{p}{e} + O(x^12)", ("x",), QQ)
    return B, series_point(images), newton


@settings(max_examples=150, deadline=None)
@given(_witness_problems())
def test_best_witness_matches_the_membership_filtered_reference(problem):
    B, point, newton = problem
    evaluate = lambda p: series_eval(p, point)
    want = reference_best_witness(B, evaluate)
    got = best_witness(B, evaluate)
    if not newton:
        assert got == want
        return
    # newton_lift searches only when every residue has order >= 2c + 1 and
    # takes a witness only of order <= c
    orders = [o for o in (evaluate(f).order() for f in B.relations)
              if o is not None]
    c = (min(orders) - 1) // 2 if orders else 12
    if want is not None and want[0] <= c:
        assert got == want
    else:
        assert got is None or got[0] > c


def test_reduce_until_nonvanishing_checks_morphism():
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={"Y1": parse_series("x + O(x^12)", ("x",), QQ),
                "Y2": parse_series("x^2 + O(x^12)", ("x",), QQ)})
    with pytest.raises(DomainError, match="images do not satisfy"):
        reduce_until_nonvanishing(node_algebra(), v)


def test_algebra_presentation_validation():
    with pytest.raises(StructuralError):
        AlgebraPresentation(base_var="Y1", variables=("Y1",), field=QQ,
                            relations=[])
    with pytest.raises(StructuralError):
        AlgebraPresentation(base_var="x", variables=("Y1",), field=QQ,
                            relations=[parse_polynomial("z", ("z",), QQ)])


def test_reduction_never_bases_the_smoothing_ideal(monkeypatch):
    # a step reduces H's generators modulo the basis of I and bases I and
    # the remainders; buchberger never sees the generator list of H
    ring = ("x", "Y1", "Y2", "Y3", "Y4", "Y5")
    B = AlgebraPresentation(
        base_var="x", variables=ring[1:], field=QQ,
        relations=[parse_polynomial(f"{y}^2", ring, QQ) for y in ring[1:]])
    v = CompletionMorphism(
        base_var="x", field=QQ,
        images={y: parse_series("O(x^12)", ("x",), QQ) for y in ring[1:]})
    H_sizes, handed = [], []
    real_H, real_bb = smooth.smoothing_ideal, smooth.buchberger

    def counted_H(*args):
        H = real_H(*args)
        H_sizes.append(len(H.generators))
        return H

    def counted_bb(ideal, *args):
        gens = ideal.generators if hasattr(ideal, "generators") else ideal
        handed.append(len(gens))
        return real_bb(ideal, *args)

    monkeypatch.setattr(smooth, "smoothing_ideal", counted_H)
    monkeypatch.setattr(smooth, "buchberger", counted_bb)
    with pytest.raises(DomainError, match="no progress"):
        reduce_until_nonvanishing(B, v)
    assert 326 in H_sizes
    assert max(handed) < min(H_sizes)
