"""Decomposability tests and interval replacement on commutative ladders.

Three ingredients tie together here:

 - decomposability: M is interval-decomposable exactly when its minimal
   right approximation by interval modules (`approx`) is an isomorphism,
   and the summands of that approximation are the certificate.
 - compression: the multiplicity c(I) is the rank of the canonical map
   from the limit to the colimit of M restricted to the interval I, read
   at one vertex of I as a pairing with the limit of DM|_I, which is
   taken from M's own maps along the arrows inside I.
 - replacement: the signed interval vector delta, the Euler characteristic
   of the Koszul complex of M at each interval, must agree with the
   compressed multiplicities under Mobius inversion over the containment
   order; disagreement is reported as an internal error, never silently.
   The containment order is the family's (`repmod.IntervalFamily`): each
   member's up-set and cover-set plan are built once per family from the
   vertex bitmasks and read by every replacement.  The covers of J are the
   minimal members strictly containing J, and the join of a set of members
   is the minimal member containing the union of their vertices.

Every entry point takes its interval family as `cat=`, a
`repmod.IntervalFamily` or a plain list (`IntervalFamily.wrap`); without
one it reads the family that the quiver holds, whose coresolutions the
Koszul route computes once and every later call reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from intres.approx import minimal_right_approximation
from intres.exactla import Mat
from intres.koszul import koszul_coresolution
from intres.poset import ladder_length
from intres.repmod import IntervalFamily, hom_dim_from_interval


class RouteMismatchError(RuntimeError):
    """Two independent computation routes disagreed; indicates a defect."""


def _require_ladder(quiver):
    if ladder_length(quiver) is None:
        raise ValueError("operation requires a commutative-ladder quiver")


# ---- compression ------------------------------------------------------------------


def _limit_at(field, dims, arrows, vertices, v):
    """The values at v of a basis of lim N, N the representation of the
    given vertices with a matrix along each of `arrows`, triples (u, w,
    N(a)) for the arrows a: u -> w among them.

    lim N is the space of families (x_u), u in the vertices, with
    N(a) x_u = x_w along every arrow: the kernel of the map sending x to
    (N(a) x_u - x_w) over the arrows.  The basis vectors' entries at v are
    the columns of the returned dims[v] x (dim lim) matrix.
    """
    offs = {}
    total = 0
    for u in vertices:
        offs[u] = total
        total += dims[u]
    zero, minus_one = field.zero(), field.coerce(-1)
    data = []
    nrows = 0
    for u, w, m in arrows:
        for r in range(m.nrows):
            row = [zero] * total
            row[offs[u] : offs[u] + m.ncols] = m.row(r)
            row[offs[w] + r] = minus_one
            data.extend(row)
        nrows += m.nrows
    kernel = Mat(field, nrows, total, data).kernel_basis()
    at_v = [x[offs[v] : offs[v] + dims[v]] for x in kernel]
    return Mat.from_columns(field, at_v, dims[v])


def compressed_multiplicity(module, interval):
    """c(I): the rank of the canonical map lim M|_I -> colim M|_I.

    A family x in lim M|_I goes to the class of x_v in colim M|_I, for any
    vertex v of I.  colim M|_I is dual to lim DM|_I over the opposite
    quiver, and a family phi there pairs with x as phi_v(x_v), which does
    not depend on v since I is connected.  So c(I) is the rank of that
    pairing at one vertex v, taken of least dimension: the map factors
    through M(v), so c(I) = 0 when M(v) = 0.  DM|_I is read off M's own
    maps, each arrow inside I reversed and its matrix transposed; no dual
    module is built.

    This is the generalized rank invariant of M at I, whose Moebius
    inversion over the containment order is a signed barcode
    (Botnan-Oppermann-Oudot, "Signed barcodes for multi-parameter
    persistence via rank decompositions").  On a ladder it equals the
    multiplicity of the full-support summand of the 5-vertex zigzag
    restriction xi of M at I: the corners t_l <- t_k -> t_i <- b_i -> b_j
    of a staircase I with rows [k, l] and [i, j], each arrow the path map
    of M (Dey-Kim-Memoli, "Computing generalized rank invariants of
    2-parameter persistence modules via zigzag persistence").  An interval
    over another quiver raises ValueError.
    """
    _require_ladder(module.quiver)
    if interval.quiver != module.quiver:
        raise ValueError(
            f"the interval is over {interval.quiver!r} but the module is over "
            f"{module.quiver!r}"
        )
    v = min(interval.vertices, key=module.dims.__getitem__)
    if module.dims[v] == 0:
        return 0
    inside = interval.vertex_set
    arrows = [
        (u, w, module.maps[a])
        for a, (u, w) in module.quiver.arrows.items()
        if u in inside and w in inside
    ]
    field, dims, vertices = module.field, module.dims, interval.vertices
    x = _limit_at(field, dims, arrows, vertices, v)
    dual = [(w, u, m.transpose()) for u, w, m in arrows]
    phi = _limit_at(field, dims, dual, vertices, v)
    return (phi.transpose() * x).rank()


# ---- decomposability ------------------------------------------------------------


@dataclass
class DecompositionResult:
    decomposable: bool
    certificate: dict | None  # Interval -> positive multiplicity

    def __bool__(self):
        return self.decomposable


def is_interval_decomposable(module, cat=None):
    """Test whether M is a direct sum of interval modules.

    The minimal right approximation f: X -> M by the interval family is
    onto, and X is a sum of interval modules with the degree-0 Betti
    numbers as multiplicities.  If M is interval-decomposable then M itself
    is such an approximation, so f is an isomorphism by minimality; hence M
    is decomposable exactly when f is bijective at every vertex, and the
    certificate lists the summands of X with multiplicity.  The family is
    `cat` (see `IntervalFamily.wrap`), whose table of irreducible maps
    spans the radical; a `cat` over another quiver or field raises
    ValueError.
    """
    family = IntervalFamily.wrap(cat, module.quiver, module.field)
    if module.total_dim() == 0:
        return DecompositionResult(True, {})
    approx = minimal_right_approximation(module, family)
    if approx.morphism.is_iso():
        return DecompositionResult(True, approx.interval_multiset())
    return DecompositionResult(False, None)


# ---- interval replacement ----------------------------------------------------------


@dataclass
class ReplacementVector:
    delta: dict  # Interval -> signed integer
    compressed: dict  # Interval -> nonnegative integer

    def sorted_items(self):
        return sorted(
            self.delta.items(), key=lambda kv: (len(kv[0]), kv[0].vertices)
        )


def _euler_characteristic(module, interval, family, dims):
    """Sum of (-1)^i dim Hom(V_J, M) over the summands V_J of the i-th term
    of the coresolution of V_I in `family`; `dims` {J: dim} is filled as J
    are met."""
    terms = koszul_coresolution(module.quiver, interval, cat=family).terms
    for j in set().union(*terms) - dims.keys():
        dims[j] = hom_dim_from_interval(j, module)
    return sum((-1) ** i * dims[j] for i, tags in enumerate(terms) for j in tags)


def replacement_at(module, interval, cat=None):
    """delta(I), the Euler characteristic of the Koszul complex of M at I:
    sum of (-1)^i dim Hom(X^i, M), by Euler-Poincare that of its homology.
    The coresolution is that of I in the interval family `cat` (see
    `IntervalFamily.wrap`); one over another quiver or field raises
    ValueError."""
    family = IntervalFamily.wrap(cat, module.quiver, module.field)
    return _euler_characteristic(module, interval, family, {})


def _cover_set_sums(family, values):
    """{J: alternating sum of `values` over the joins of sets of covers of J}
    for the members J of an `IntervalFamily`, read off its cover-set plans.

    The empty set contributes values[J]; a set S of covers contributes
    (-1)^|S| values[join S], or 0 when no member contains them all.  A J
    with an ambiguous join (several minimal candidates) is left out.
    """
    members = family.objects
    return {
        j: values[j] + sum(sign * values[members[t]] for sign, t in plan)
        for j, plan in zip(members, family.cover_plans())
        if plan is not None
    }


def interval_replacement(module, cat=None):
    """The signed interval-replacement vector of a ladder module.

    delta is `replacement_at` per interval; the compressed table c(I) is
    the limit-to-colimit rank over I; the two must satisfy the inversion
    identity c(I) = sum of delta(J) over J containing I, and, where joins
    of cover sets exist unambiguously, the cover-set alternating identity.
    The family is `cat` (see `IntervalFamily.wrap`).  Any violation raises
    RouteMismatchError, and a `cat` over another quiver or field
    ValueError.  dim Hom(V_J, M) is read once per member J, as a nullity
    (`hom_dim_from_interval`).
    """
    _require_ladder(module.quiver)
    family = IntervalFamily.wrap(cat, module.quiver, module.field)
    intervals = family.objects
    dims = {}
    delta = {i: _euler_characteristic(module, i, family, dims) for i in intervals}
    compressed = {i: compressed_multiplicity(module, i) for i in intervals}
    # inversion gate: summing delta over containing intervals reproduces c
    for i, up in zip(intervals, family.up_sets()):
        total = sum(delta[intervals[t]] for t in up)
        if total != compressed[i]:
            raise RouteMismatchError(
                f"replacement inversion failed at {i!r}: "
                f"sum(delta)={total}, compressed={compressed[i]}"
            )
    # cover-set alternating cross-check, where joins are unambiguous
    for j, total in _cover_set_sums(family, compressed).items():
        if total != delta[j]:
            raise RouteMismatchError(
                f"cover-set identity failed at {j!r}: {total} != {delta[j]}"
            )
    return ReplacementVector(delta, compressed)
