"""Construction of verified standard-smooth factorizations for a morphism
from a finitely presented algebra over a one-dimensional local base into a
truncated power-series ring.

Pipeline: border the presentation so the square of the local parameter lies
in the right ideal, truncate the series solution to an exact polynomial
frame and read off it everything that fixes B' (``check.derive_frame``,
which verify runs too).  Each identity is checked once, by
``check.verify_certificate`` before ``desingularize`` returns, so a
construction fault shows as a FAIL in the report (``gnd`` exits 5).
``check``'s docstring gives B' and the argument that it is smooth.
"""

from collections import namedtuple

from .check import (GndCertificate, bound_names, derive_frame,
                    verify_certificate, working_ring)
# perfbench/tracing.py times these steps by their gnd names
from .check import build_H_G, build_h_g, compute_s_b, truncate_lift
from .errors import ConsistencyError, DomainError, PrecisionError
from .fields import QQ, RationalField, SimpleExtension
from .poly import DEGREVLEX, Polynomial, fresh_name
from .series import CompletionMorphism
from .smooth import (AlgebraPresentation, columns_first, find_desing_data,
                     reduce_until_nonvanishing, DEFAULT_SUBSET_BUDGET)


# The bordered algebra and morphism, their witness data and the new variable.
BorderStep = namedtuple("BorderStep", "algebra morphism data zvar")
# The bordered witness: the subset and the minor's columns, each with the
# bordering relation and Z last, N*Z^2 and c.
BorderedData = namedtuple("BorderedData", "subset columns witness c")


def border_step(B, v, data):
    """Adjoin Z with -d' + P'Z = 0 so that d = d'^2 lands in the new ideal."""
    if data.c < 1:
        raise DomainError("bordering applies only to the non-smooth case")
    Z = fresh_name("Z", B.ring_variables())
    ring1 = (B.base_var,) + B.variables + (Z,)
    zpoly = Polynomial.variable(ring1, B.field, Z)
    dprime = Polynomial.variable(ring1, B.field, B.base_var, data.c)
    pprime = (data.minor * data.witness).embed(ring1)
    frp1 = -dprime + pprime * zpoly
    B1 = AlgebraPresentation(base_var=B.base_var, variables=B.variables + (Z,),
                             field=B.field, relations=B.relations + [frp1])
    z = data.z
    if z.order() is not None and z.order() > 0:
        raise ConsistencyError("z must be a unit series")
    v1 = CompletionMorphism(base_var=v.base_var, field=v.field,
                            images=dict(v.images, **{Z: z}))
    if not v1.eval(frp1).is_zero():
        raise PrecisionError("bordered relation does not vanish on the images")
    data1 = BorderedData(subset=data.subset + (len(B1.relations) - 1,),
                         columns=data.columns + (len(B.variables),),
                         witness=data.witness.embed(ring1) * zpoly * zpoly,
                         c=data.c)
    return BorderStep(algebra=B1, morphism=v1, data=data1, zvar=Z)


def assemble_certificate(step, D, permutation, yvars, rec):
    """Package the pipeline output.  [hat] keeps of each image of v what
    check 4 reads of it (``rec.marks``), y' below x^(6c) included."""
    B1, v1, data = step.algebra, step.morphism, step.data
    ring = working_ring(D, data.c, yvars)
    return GndCertificate(
        D=D, witness=data.witness.embed(ring), c=data.c, yvars=yvars,
        permutation=permutation,
        relations=[r.embed(ring) for r in B1.relations],
        subset=data.subset,
        hat_images={yv: v1.images[yv].truncate(rec.marks[yv])
                    for yv in yvars},
        precision=v1.precision)


def _short_circuit_certificate(B, v, data):
    permutation = columns_first(data.columns, len(B.variables))
    yvars = tuple(B.variables[j] for j in permutation)
    D = bound_names(v.base_var, v.field, yvars)
    ring = working_ring(D, 0, yvars)
    return GndCertificate(
        D=D, witness=data.witness.embed(ring).monic(DEGREVLEX), c=0,
        yvars=yvars, permutation=permutation,
        relations=[r.embed(ring) for r in B.relations], subset=data.subset,
        hat_images={yv: v.images[yv].truncate(v.precision) for yv in yvars},
        precision=v.precision)


def desingularize(B, v, subset_budget=DEFAULT_SUBSET_BUDGET):
    """Full pipeline; returns a certificate carrying its own verification."""
    if B.field != QQ or type(v.field) not in (RationalField, SimpleExtension):
        raise DomainError("gnd needs [field] Q, [series-field] Q or Q(alpha)")
    B0 = reduce_until_nonvanishing(B, v, subset_budget=subset_budget)
    data = find_desing_data(B0, v, subset_budget)
    if data.c == 0:
        cert = _short_circuit_certificate(B0, v, data)
        verify_certificate(cert, B0, v)
        return cert
    step = border_step(B0, v, data)
    B1, v1 = step.algebra, step.morphism
    permutation = columns_first(step.data.columns, len(B1.variables))
    yvars = tuple(B1.variables[j] for j in permutation)
    D = bound_names(v.base_var, v.field, yvars)
    ring = working_ring(D, data.c, yvars)
    fs = [B1.relations[i].embed(ring) for i in step.data.subset]
    rec = derive_frame({yv: v1.images[yv] for yv in yvars}, data.c, D, ring,
                       fs, yvars, step.data.witness.embed(ring), v1.precision)
    cert = assemble_certificate(step, D, permutation, yvars, rec)
    verify_certificate(cert, B0, v, rec)
    return cert
