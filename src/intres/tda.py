"""Decomposability tests and interval replacement over any finite poset.

Three ingredients tie together here:

 - decomposability: M is interval-decomposable exactly when its minimal
   right approximation by interval modules (`approx`) is an isomorphism,
   and the summands of that approximation are the certificate.
 - compression: the multiplicity c(I) is the rank of the canonical map
   from the limit to the colimit of M restricted to the interval I, read
   at one vertex of I as a pairing with the limit of DM|_I, which is
   taken from M's own path maps, transposed.
 - replacement: delta, the Euler characteristic of the Koszul complex of M
   at each interval, is the Moebius inversion of c over the containment
   order of the intervals, read off the family's up-sets
   (`repmod.IntervalFamily.up_sets`), largest member first.  It is gated
   by H delta = h, H(K, L) = dim Hom(V_K, V_L) counted off the family's
   hom table and h(K) = dim Hom(V_K, M); disagreement is reported as an
   internal error, never silently.  Containment is a partial order on
   every poset, so the replacement answers on any finite poset, grids
   included.  One table of the module's path maps per call
   (`repmod.SourceSolves`) gives both the limits behind c and the hom
   dimensions h.

Every entry point takes its interval family as `cat=`, a
`repmod.IntervalFamily` or a plain list (`IntervalFamily.wrap`); without
one it reads the family that the quiver holds, hom table and all.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from intres.approx import minimal_right_approximation
from intres.repmod import IntervalFamily, SourceSolves


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
    through M(v), so c(I) = 0 when M(v) = 0.  Both limits are read off a
    table of path maps (`repmod.SourceSolves.limits`): lim M|_I in the
    values at the minimal vertices of I, and lim DM|_I in the values at the
    maximal ones, through M's transposed path maps, so no dual module is
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
    return _compressed(SourceSolves(module), interval)


def _compressed(solves, interval):
    """c(I) from the path maps of `solves` (see `compressed_multiplicity`)."""
    ends = solves.limits(interval)
    if ends is None:
        return 0
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


class _ByMember(Mapping):
    """{member: value} over an interval family, read-only: one tuple of
    values in family order beside the family's own `index`, so that a held
    replacement vector costs a tuple per field, not a dict."""

    __slots__ = ("_index", "_values")

    def __init__(self, index, values):
        self._index, self._values = index, values

    def __getitem__(self, interval):
        return self._values[self._index[interval]]

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._values)

    def __repr__(self):
        return repr(dict(self))


@dataclass
class ReplacementVector:
    delta: Mapping  # Interval -> signed integer
    compressed: Mapping  # Interval -> nonnegative integer


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
    raises RouteMismatchError naming I.  c and h are read off one table of
    path maps (`repmod.SourceSolves`), built for this call alone.
    """
    members, hom, up_sets = family.objects, family.hom_table(), family.up_sets()
    solves = SourceSolves(module)
    rows = {t for s in targets for t, _ in hom[s]}
    reached = set().union(*(up_sets[t] for t in rows))
    compressed = {t: _compressed(solves, members[t]) for t in reached}
    delta = {}
    for t in sorted(reached, key=lambda t: -len(members[t])):
        delta[t] = compressed[t] - sum(delta[u] for u in up_sets[t] if u != t)
    for s in targets:
        h = solves.hom_dim(members[s])
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
    `replacement_at` is: c and the hom nullities h share nothing but the
    call's table of path maps (`repmod.SourceSolves`) and `exactla`, and a
    failed gate raises RouteMismatchError.  dim Hom(V_J, M) is read once
    per member J, as a nullity (`SourceSolves.hom_dim`).  The family is
    `cat` (see `IntervalFamily.wrap`), which must hold every interval of
    the quiver; a `cat` over another quiver or field or short of an
    interval raises ValueError.
    """
    family = IntervalFamily.wrap(cat, module.quiver, module.field)
    _require_every_interval(module, family)
    members = range(len(family.objects))
    delta, compressed = _replacement(module, family, members)
    return ReplacementVector(
        _ByMember(family.index, tuple(delta[s] for s in members)),
        _ByMember(family.index, tuple(compressed[s] for s in members)),
    )
