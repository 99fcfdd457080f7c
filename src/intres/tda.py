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
   at each interval, is H^-1 h (`replacement_at`) and must agree with the
   compressed multiplicities under Mobius inversion over the containment
   order; disagreement is reported as an internal error, never silently.
   The containment order is the family's (`repmod.IntervalFamily`): each
   member's up-set and cover-set plan are built once per family from the
   vertex bitmasks and read by every replacement.  The covers of J are the
   minimal members strictly containing J, and the join of a set of members
   is the minimal member containing the union of their vertices.

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


def _replacement(module, family, root, delta):
    """delta(I) for I at `root`, filling `delta` {s: delta(I_s)} in post-order
    along the nonzero hom spaces of `family` from I: H(I, I) = 1, so delta(I)
    = h(I) - sum of H(I, L) delta(L) over L != I.  A cycle raises ValueError."""
    members, table = family.objects, family.hom_table()
    path, stack = {root}, [] if root in delta else [(root, iter(table[root]))]
    while stack:
        s, out = stack[-1]
        t = next((t for t, _ in out if t != s and t not in delta), None)
        if t is None:
            stack.pop()
            path.discard(s)
            h = hom_dim_from_interval(members[s], module)
            delta[s] = h - sum(len(c) * delta[t] for t, c in table[s] if t != s)
        elif t in path:
            cycle = f"a cycle of nonzero hom spaces through {members[t]!r}"
            raise ValueError(f"{cycle}, reached from {members[root]!r}")
        else:
            path.add(t)
            stack.append((t, iter(table[t])))
    return delta[root]


def replacement_at(module, interval, cat=None):
    """delta(I), the Euler characteristic of the Koszul complex of M at I:
    entry I of H^-1 h, H(K, L) = dim Hom(V_K, V_L) and h(K) = dim Hom(V_K,
    M).  The interval classes form a basis of the relative Grothendieck
    group (Blanchette-Bruestle-Hanson, "Homological approximations in
    persistence theory"; Asashiba-Gauthier-Liu), so the alternating
    multiplicities of the coresolution of V_I are row I of H^-1.  Solved by
    back-substitution over the hom table of the family `cat` (see
    `IntervalFamily.wrap`) from the members reachable from I, building no
    coresolution.  A `cat` over another quiver or field, an I outside it,
    or a cycle of nonzero hom spaces reachable from I raises ValueError."""
    family = IntervalFamily.wrap(cat, module.quiver, module.field)
    s = family.index.get(interval)
    if s is None:
        raise ValueError("interval is not an object of the chosen family")
    return _replacement(module, family, s, {})


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
    """The signed interval-replacement vector of M.

    delta is `replacement_at` per interval, solved once over the family,
    and c(I) is the limit-to-colimit rank over I; the two share nothing but
    `exactla` and must satisfy the inversion identity c(I) = sum of
    delta(J) over J containing I, and, where joins of cover sets exist
    unambiguously, the cover-set alternating identity.  The family is `cat`
    (see `IntervalFamily.wrap`), which must hold every interval of the
    quiver: the identities hold over that family only.  Any violation
    raises RouteMismatchError; a `cat` over another quiver or field or short
    of an interval, or a cycle of nonzero hom spaces, ValueError.  dim
    Hom(V_J, M) is read once per member J, as a nullity (`hom_dim_from_interval`).
    """
    family = IntervalFamily.wrap(cat, module.quiver, module.field)
    full = IntervalFamily.of(module.quiver, module.field)
    if family is not full and family.index.keys() != full.index.keys():
        raise ValueError("interval replacement needs every interval of the quiver")
    intervals = family.objects
    known = {}
    delta = {i: _replacement(module, family, s, known) for s, i in enumerate(intervals)}
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
