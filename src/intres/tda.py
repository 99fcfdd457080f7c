"""Decomposability tests and interval replacement over any finite poset.

Three ingredients tie together here:

 - decomposability: M is interval-decomposable exactly when its minimal
   right approximation by interval modules (`approx`) is an isomorphism,
   and the summands of that approximation are the certificate.
 - compression: the multiplicity c(I) is the rank of the canonical map
   from the limit to the colimit of M restricted to the interval I, read
   at one vertex of I as a pairing with the limit of DM|_I, which is
   taken from M's own maps along the arrows inside I.
 - replacement: delta, the Euler characteristic of the Koszul complex of M
   at each interval, is the Moebius inversion of c over the containment
   order of the intervals, read off the family's up-sets
   (`repmod.IntervalFamily.up_sets`), largest member first.  It is gated
   by H delta = h, H(K, L) = dim Hom(V_K, V_L) counted off the family's
   hom table and h(K) = dim Hom(V_K, M); disagreement is reported as an
   internal error, never silently.  Containment is a partial order on
   every poset, so the replacement answers on any finite poset, grids
   included.

Every entry point takes its interval family as `cat=`, a
`repmod.IntervalFamily` or a plain list (`IntervalFamily.wrap`); without
one it reads the family that the quiver holds, hom table and all.
"""

from __future__ import annotations

from dataclasses import dataclass

from intres.approx import minimal_right_approximation
from intres.exactla import Mat
from intres.repmod import IntervalFamily, hom_dim_from_interval, restriction, source_system


class RouteMismatchError(RuntimeError):
    """Two independent computation routes disagreed; indicates a defect."""


# ---- compression ------------------------------------------------------------------


def compressed_multiplicity(module, interval):
    """c(I): the rank of the canonical map lim M|_I -> colim M|_I.

    A family x in lim M|_I goes to the class of x_v in colim M|_I, for any
    vertex v of I.  colim M|_I is dual to lim DM|_I over the opposite
    quiver, and a family phi there pairs with x as phi_v(x_v), which does
    not depend on v since I is connected.  So c(I) is the rank of that
    pairing at one vertex v, taken of least dimension: the map factors
    through M(v), so c(I) = 0 when M(v) = 0.  Both limits are solved from
    the sources of I (`repmod.source_system`): lim M|_I in the values at the
    minimal vertices of I, and lim DM|_I in the values at the maximal ones,
    walking I in reverse with each matrix transposed, so no dual module is
    built.

    This is the generalized rank invariant of M at I (Kim-Memoli), defined
    on any finite poset, whose Moebius inversion over the containment order
    is a signed barcode (Botnan-Oppermann-Oudot, "Signed barcodes for
    multi-parameter persistence via rank decompositions").  On a ladder it
    equals the multiplicity of the full-support summand of the 5-vertex
    zigzag restriction xi of M at I: the corners t_l <- t_k -> t_i <- b_i
    -> b_j of a staircase I with rows [k, l] and [i, j], each arrow the path
    map of M (Dey-Kim-Memoli, "Computing generalized rank invariants of
    2-parameter persistence modules via zigzag persistence").  An interval
    over another quiver raises ValueError.
    """
    order, into = restriction(interval, module)
    field, dims = module.field, module.dims
    v = min(order, key=dims.__getitem__)
    if dims[v] == 0:
        return 0
    out = {u: [] for u in order}
    for w in order:
        for u, m in into[w]:
            out[u].append((w, m.transpose()))
    ends = []
    for walk, arrows in ((order, into), (order[::-1], out)):
        solved = source_system(field, dims, walk, arrows)
        if solved is None:
            return 0
        rows, values = solved
        n = values[v].ncols
        kernel = Mat.vstack(field, rows, ncols=n).kernel_basis()
        if not kernel:
            return 0
        ends.append(values[v] * Mat.from_columns(field, kernel, n))
    x, phi = ends
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


def _require_every_interval(module, family):
    """Refuse a `family` short of an interval of the module's quiver: the
    containment order that delta inverts c over is that of every interval."""
    full = IntervalFamily.of(module.quiver, module.field)
    if family is not full and family.index.keys() != full.index.keys():
        raise ValueError("interval replacement needs every interval of the quiver")


def _replacement(module, family, targets):
    """({t: delta(I_t)}, {t: c(I_t)}) over the up-sets of the members at the
    positions `targets` and of the members in their hom rows, gated by H
    delta = h at every target.

    delta is the Moebius inversion of c over containment: c(I) is the sum
    of delta(J) over the members J containing I, a unitriangular system on
    any poset, read off largest member first.  The gate sums H(I, L)
    delta(L) over the hom row of I, H(I, L) = dim Hom(V_I, V_L) counted off
    the hom table, against h(I) = dim Hom(V_I, M), a nullity; a failure
    raises RouteMismatchError naming I.
    """
    members, hom, up_sets = family.objects, family.hom_table(), family.up_sets()
    reached = {u for s in targets for t, _ in hom[s] for u in up_sets[t]}
    compressed = {t: compressed_multiplicity(module, members[t]) for t in reached}
    delta = {}
    for t in sorted(reached, key=lambda t: -len(members[t])):
        delta[t] = compressed[t] - sum(delta[u] for u in up_sets[t] if u != t)
    for s in targets:
        h = hom_dim_from_interval(members[s], module)
        total = sum(len(comps) * delta[t] for t, comps in hom[s])
        if total != h:
            raise RouteMismatchError(
                f"replacement gate H.delta = h failed at {members[s]!r}: "
                f"H.delta={total}, h={h}"
            )
    return delta, compressed


def replacement_at(module, interval, cat=None):
    """delta(I), the Euler characteristic of the Koszul complex of M at I.

    delta is the Moebius inversion of the compressed multiplicities c over
    the containment order of the intervals (Asashiba-Gauthier-Liu,
    "Interval replacements of persistence modules"), read over the up-sets
    of I and of the members that V_I maps to, building no coresolution.  It
    is gated by H delta = h at I, H(K, L) = dim Hom(V_K, V_L) and h(K) =
    dim Hom(V_K, M): the interval classes form a basis of the relative
    Grothendieck group, on which dim Hom(V_K, -) is additive
    (Blanchette-Bruestle-Hanson, "Homological approximations in persistence
    theory"), so the alternating multiplicities of the coresolution of V_I
    are row I of H^-1.  A failed gate raises RouteMismatchError.  The family
    is `cat` (see `IntervalFamily.wrap`); a `cat` over another quiver or
    field, an I outside it, or a `cat` short of an interval of the quiver
    raises ValueError, in that order."""
    family = IntervalFamily.wrap(cat, module.quiver, module.field)
    s = family.index.get(interval)
    if s is None:
        raise ValueError("interval is not an object of the chosen family")
    _require_every_interval(module, family)
    return _replacement(module, family, [s])[0][s]


def interval_replacement(module, cat=None):
    """The signed interval-replacement vector of M.

    c(I) is the limit-to-colimit rank over I, and delta its Moebius
    inversion over containment, gated by H delta = h at every interval, as
    `replacement_at` is: c and the hom nullities h share nothing but
    `repmod.source_system` and `exactla`, and a failed gate raises
    RouteMismatchError.  dim Hom(V_J, M) is read once per member J, as a
    nullity (`hom_dim_from_interval`).  The family is `cat` (see
    `IntervalFamily.wrap`), which must hold every interval of the quiver; a
    `cat` over another quiver or field or short of an interval raises
    ValueError.
    """
    family = IntervalFamily.wrap(cat, module.quiver, module.field)
    _require_every_interval(module, family)
    intervals = family.objects
    delta, compressed = _replacement(module, family, range(len(intervals)))
    return ReplacementVector(
        {i: delta[s] for s, i in enumerate(intervals)},
        {i: compressed[s] for s, i in enumerate(intervals)},
    )
