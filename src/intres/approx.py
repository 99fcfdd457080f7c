"""Right approximations by sums of interval modules.

Everything is relative to a family of intervals, a `repmod.IntervalFamily`
over the module's quiver and field: `None` means the family of all
intervals that the quiver holds (`IntervalFamily.of`), and a plain list
(an empty one is an empty family) is wrapped for the one call.  Each call
builds Hom(V_J, M) once per member J, solved from the sources of J off one
table of the module's path maps (`repmod.SourceSolves`), built for that
call alone, and drops the members where it is zero.  A caller that knows
the dimensions passes them (`hom_dims=`), and only the members where
they are nonzero are solved, each checked against its dimension: a right
approximation f: X -> M makes 0 -> Hom(V_J, ker f) -> Hom(V_J, X) ->
Hom(V_J, M) -> 0 exact, so every approximation gives its kernel's
(`ApproxMorphism.kernel_hom_dims`), which is how each step of `resolve`
after the first is solved.  The
hom bases stay flat vectors (`repmod.flat_offsets` gives their layout):
composites and ranks read them directly, and a morphism V_I -> M is built
only for a basis element that the approximation keeps.  A
right approximation of M is a morphism f from a sum of family interval
modules such that post-composition with f is onto Hom(V_I, M) for every
member I.  Left approximations are not computed here: a left
approximation of M is D of a right approximation of DM = Hom_k(M, k) over
the opposite quiver (`PersModule.dual`), which is how `resolve` builds
coresolutions.

A minimal right approximation is the projective cover of the functor
Hom(V_-, M) on the family.  End(V_I) = k and every map between distinct
interval modules is radical, so the multiplicity of V_I is
dim Hom(V_I, M) - dim rad(V_I, M).  The radical of the family's category
is nilpotent, so every map between distinct members is a sum of composites
of irreducible maps, and rad(V_I, M) is spanned by the composites h o g
with g: V_I -> V_J irreducible and h: V_J -> M alone.  The irreducible
maps are the family's table (`IntervalFamily.irreducible_maps`), built
once per family and read by every approximation over it.  Each g is the
indicator of a good component C of I & J, which the family's hom table
holds as a vertex bitmask (`IntervalFamily.hom_rows`), so h o g is h cut
down to C.  It lies in Hom(V_I, M), so it is read in the coordinates of
the hom basis at I, its entries at the basis's free columns: h's entries
there inside C, zero outside.  One elimination per interval, over those
dim Hom(V_I, M) coordinates, picks the hom-basis elements that span a
complement of the radical.  `is_right_interval_approximation` splits the
components afresh (`good_components`), independently of that table.  The
multiplicities of the retained summands are the degree-0 Betti data used
by `resolve`.
"""

from __future__ import annotations

from dataclasses import dataclass

from intres.exactla import Mat
from intres.repmod import (
    IntervalFamily,
    ModMorphism,
    SourceSolves,
    direct_sum,
    flat_offsets,
    good_components,
    interval_module,
    morphism_from_columns,
    zero_module,
)


@dataclass
class ApproxMorphism:
    """A right approximation with its direct-sum bookkeeping.

    `summand_index[t]` names the interval of the t-th block; `parts[t]` is
    the component morphism V_I -> M; `morphism` is the assembled map from
    the direct sum of the blocks, in order; `hom_dims` is {J: dim
    Hom(V_J, M)} over the family members where it is nonzero, in family
    order, when the approximation was computed.
    """

    module: object
    summand_index: list
    parts: list
    morphism: ModMorphism = None
    hom_dims: dict = None

    def interval_multiset(self):
        out = {}
        for i in self.summand_index:
            out[i] = out.get(i, 0) + 1
        return out

    def kernel_hom_dims(self, family):
        """{J: dim Hom(V_J, ker f)} over the members J of `family` where it
        is nonzero, in family order, for this right approximation f: X -> M
        over the IntervalFamily `family`.  Post-composition with f is onto
        Hom(V_J, M), so 0 -> Hom(V_J, ker f) -> Hom(V_J, X) -> Hom(V_J, M)
        -> 0 is exact, and the dimension is sum_u dim hom(J, I_u) -
        dim Hom(V_J, M) over the summands V_{I_u} of X, read off the
        family's hom table (`IntervalFamily.hom_sums`) and `hom_dims`.  A
        negative one raises AssertionError."""
        sums = family.hom_sums(self.interval_multiset())
        out = {}
        for j, total in zip(family.objects, sums):
            e = total - self.hom_dims.get(j, 0)
            if e < 0:
                raise AssertionError(f"dim Hom(V_J, ker f) would be {e} at {j!r}")
            if e:
                out[j] = e
        return out


def _assemble(module, parts):
    """The morphism from the direct sum of the parts' sources, in order."""
    if not parts:
        zm = zero_module(module.quiver, module.field)
        return ModMorphism(zm, module, {}, check=False)
    return morphism_from_columns(direct_sum([p.src for p in parts]), module, parts)


# ---- composites through interval modules ----------------------------------------


def _homs(module, members, dims=None):
    """Basis of Hom(V_J, M), as flat vectors (`SourceSolves.hom_basis`),
    and `flat_offsets` for every member J with a nonzero one, in family
    order, all read off one table of path maps.  With `dims`, {J: dim
    Hom(V_J, M)} over the members where it is nonzero, only those members
    are solved, and a space of another dimension raises AssertionError."""
    solves = SourceSolves(module)
    homs = {}
    for j in members:
        want = None if dims is None else dims.get(j, 0)
        if want == 0:
            continue
        basis = solves.hom_basis(j)
        if want is not None and len(basis) != want:
            raise AssertionError(
                f"dim Hom(V_J, M) is {len(basis)}, not {want} as exactness "
                f"gives, at {j!r}"
            )
        if basis:
            homs[j] = basis, flat_offsets(j, module.dims)[0]
    return homs


def _composites(module, i, pieces):
    """Flat vectors, in the coordinates of Hom(V_I, M), of every h o g with
    (C, h, offsets) in `pieces`: g: V_I -> V_J is the indicator of a good
    component C of I & J, a vertex bitmask (bit n for the n-th vertex of
    the quiver), and h: V_J -> M is a flat vector of Hom(V_J, M) whose
    vertex v starts at offsets[v].

    The composite agrees with h on C and vanishes off it, so it copies h's
    entries at the bits of C.  Returns (vectors, width).
    """
    dims, vertices = module.dims, module.quiver.vertices
    at, width = flat_offsets(i, dims)
    zero = module.field.zero()
    out = []
    for comp, h, offsets in pieces:
        vec = [zero] * width
        while comp:
            low = comp & -comp
            v = vertices[low.bit_length() - 1]
            a, b = at[v], offsets[v]
            vec[a : a + dims[v]] = h[b : b + dims[v]]
            comp ^= low
        out.append(vec)
    return out, width


def is_right_interval_approximation(approx, family=None):
    """Does every morphism from a family interval into M factor through it?

    Accepts an ApproxMorphism (the summand tags are needed) and checks that
    post-composition with it is onto Hom(V_I, M) for each member I of the
    family (all intervals when `family` is None).
    """
    module = approx.module
    quiver = module.quiver
    family = IntervalFamily.wrap(family, quiver, module.field)
    pairs = [
        (j, part.flat(), flat_offsets(j, module.dims)[0])
        for j, part in zip(approx.summand_index, approx.parts)
    ]
    for i, (basis, _) in _homs(module, family.objects).items():
        comps = {
            j: [sum(family.bits[v] for v in c) for c in good_components(quiver, i, j)]
            for j in set(approx.summand_index)
        }
        pieces = [(c, h, offsets) for j, h, offsets in pairs for c in comps[j]]
        image, width = _composites(module, i, pieces)
        if Mat.from_columns(module.field, image, width).rank() != len(basis):
            return False
    return True


# ---- construction ------------------------------------------------------------


def _top(module, i, homs, maps, bit):
    """Hom-basis elements at I spanning a complement of the radical, which
    is spanned by h o g over the irreducible maps g: V_I -> V_J, given in
    `maps` as (J, C) for the indicator of the good component C of I & J,
    a vertex bitmask (`bit`, the family's `bits`, gives each vertex's
    bit), and the basis maps h of Hom(V_J, M).  All are flat vectors.

    Each h o g lies in Hom(V_I, M), whose basis is the identity at its free
    columns (`Mat.free_columns`), so its coordinates are its entries there:
    h's entry at a free column whose vertex lies in C, zero off C.  The
    pivots of [rad | I_d] over the d = dim Hom(V_I, M) coordinate rows are
    those of [rad | basis] over the full vectors."""
    basis, at = homs[i]
    pieces = [
        (comp, h, offsets)
        for j, comp in maps
        if j in homs
        for hs, offsets in (homs[j],)
        for h in hs
    ]
    if not pieces:
        return basis
    field, dims = module.field, module.dims
    place = [(bit[v], v, k) for v in i.vertices for k in range(dims[v])]
    zero, one = field.zero(), field.one()
    d, data = len(basis), []
    for c, f in enumerate(Mat.free_columns(basis)):
        b, v, k = place[f]
        data.extend(h[offsets[v] + k] if comp & b else zero
                    for comp, h, offsets in pieces)
        data.extend(one if c == x else zero for x in range(d))
    r = len(pieces)
    _, pivots = Mat(field, d, r + d, data).rref()
    return [basis[p - r] for p in pivots if p >= r]


def minimal_right_approximation(module, family=None, *, hom_dims=None):
    """The projective cover of Hom(V_-, M) over the family, as a minimal
    right approximation of M.

    The radical is spanned along the family's table of irreducible maps,
    with their components read off its hom table, both of which an
    `IntervalFamily` builds once and every call over it reads.
    Only the kept hom-basis elements become morphisms, one interval module
    per member that keeps any.

    `hom_dims`, keyword-only, is {J: dim Hom(V_J, M)} over the members
    where it is nonzero, for a caller that knows it already, as `resolve`
    does for a kernel (`ApproxMorphism.kernel_hom_dims`): only those
    members are solved, and a solved space of another dimension raises
    AssertionError.  Without it every member is solved.
    """
    family = IntervalFamily.wrap(family, module.quiver, module.field)
    members = family.objects
    irreducible, rows = family.irreducible_maps(), family.hom_rows()
    homs = _homs(module, members, hom_dims)
    summand_index = []
    parts = []
    for i in homs:
        s = family.index[i]
        maps = [(members[t], rows[s][t][k]) for t, k in irreducible[s]]
        kept = _top(module, i, homs, maps, family.bits)
        if kept:
            src = interval_module(module.quiver, i, module.field)
            summand_index.extend([i] * len(kept))
            parts.extend(ModMorphism.from_flat(src, module, h) for h in kept)
    f = _assemble(module, parts)
    dims = {j: len(basis) for j, (basis, _) in homs.items()}
    return ApproxMorphism(module, summand_index, parts, f, dims)
