"""Right approximations by sums of interval modules.

Everything is relative to a family of intervals (default: all intervals of
the quiver).  A right approximation of M is a morphism f from a sum of
family interval modules such that post-composition with f is onto
Hom(V_I, M) for every member I.  Left approximations are not computed
here: a left approximation of M is D of a right approximation of
DM = Hom_k(M, k) over the opposite quiver (`PersModule.dual`), which is how
`resolve` builds coresolutions.

A minimal right approximation is the projective cover of the functor
Hom(V_-, M) on the family.  End(V_I) = k and every map between distinct
interval modules is radical, so the multiplicity of V_I is
dim Hom(V_I, M) - dim rad(V_I, M), where rad(V_I, M) is spanned by the
composites h o g with g: V_I -> V_J, h: V_J -> M and J != I.  Each g is the
indicator of a good component C (`good_components`), so h o g is h cut down
to C, and one elimination per interval picks the hom-basis elements that
span a complement of the radical.  The multiplicities of the retained
summands are the degree-0 Betti data used by `resolve`.
"""

from __future__ import annotations

from dataclasses import dataclass

from intres.exactla import Mat
from intres.poset import enumerate_intervals
from intres.repmod import (
    ModMorphism,
    direct_sum,
    good_components,
    hom_basis,
    interval_module,
    morphism_from_columns,
    zero_module,
)


class ApproxContext:
    """Shared caches for one module M: interval modules and hom bases."""

    def __init__(self, module, intervals=None):
        self.module = module
        self.quiver = module.quiver
        self.field = module.field
        if intervals is None:
            intervals = enumerate_intervals(self.quiver)
        self.intervals = list(intervals)
        self._vmod = {}
        self._hom_to = {}

    def interval_module(self, i):
        if i not in self._vmod:
            self._vmod[i] = interval_module(self.quiver, i, self.field)
        return self._vmod[i]

    def hom_to_module(self, i):
        """Basis of Hom(V_I, M)."""
        if i not in self._hom_to:
            self._hom_to[i] = hom_basis(self.interval_module(i), self.module)
        return self._hom_to[i]


@dataclass
class ApproxMorphism:
    """A right approximation with its direct-sum bookkeeping.

    `summand_index[t]` names the interval of the t-th block; `parts[t]` is
    the component morphism V_I -> M; `morphism` is the assembled map from
    the direct sum of the blocks, in order.
    """

    module: object
    summand_index: list
    parts: list
    morphism: ModMorphism = None

    def interval_multiset(self):
        out = {}
        for i in self.summand_index:
            out[i] = out.get(i, 0) + 1
        return out


def _assemble(module, summand_index, parts):
    """The morphism from the direct sum of the tagged interval modules."""
    if not summand_index:
        zm = zero_module(module.quiver, module.field)
        return ModMorphism(zm, module, {}, check=False)
    mods = [interval_module(module.quiver, i, module.field) for i in summand_index]
    return morphism_from_columns(direct_sum(mods), module, parts)


# ---- composites through interval modules ----------------------------------------


def _composites(ctx, i, pairs):
    """Flat vectors, in the coordinates of Hom(V_I, M), of every h o g with
    (J, h) in `pairs` and g in the good-component basis of Hom(V_I, V_J).

    g is 1 on its component C and 0 elsewhere, so the composite agrees with
    h on C and vanishes off it.  At each vertex v of I the hom space has
    dim M_v coordinates, which `ModMorphism.flat` lists in quiver order.
    Returns (vectors, width).
    """
    dims = ctx.module.dims
    offsets = {}
    width = 0
    for v in i.vertices:
        offsets[v] = width
        width += dims[v]
    zero = ctx.field.zero()
    components = {}
    out = []
    for j, h in pairs:
        if j not in components:
            components[j] = good_components(ctx.quiver, i, j)
        for comp in components[j]:
            vec = [zero] * width
            for v in comp:
                vec[offsets[v] : offsets[v] + dims[v]] = h.comps[v].data
            out.append(vec)
    return out, width


def _criterion(ctx, pairs, family):
    """Is Hom(V_I, f) onto for every member I?"""
    for i in ctx.intervals if family is None else family:
        target_dim = len(ctx.hom_to_module(i))
        if target_dim == 0:
            continue
        image, width = _composites(ctx, i, pairs)
        if Mat.from_columns(ctx.field, image, width).rank() != target_dim:
            return False
    return True


def is_right_interval_approximation(approx, module=None, family=None, ctx=None):
    """Does every morphism from a family interval into M factor through it?

    Accepts an ApproxMorphism (the summand tags are needed) and checks that
    post-composition with it is onto Hom(V_I, M) for each member I of the
    family (all intervals when `family` is None).
    """
    module = module or approx.module
    ctx = ctx or ApproxContext(module)
    pairs = list(zip(approx.summand_index, approx.parts))
    return _criterion(ctx, pairs, family)


# ---- construction ------------------------------------------------------------


def _top(ctx, i, members):
    """Hom-basis elements at I spanning a complement of the radical."""
    basis = ctx.hom_to_module(i)
    rad_pairs = [(j, h) for j in members if j != i for h in ctx.hom_to_module(j)]
    rad, width = _composites(ctx, i, rad_pairs)
    if not rad:
        return basis
    cols = rad + [h.flat() for h in basis]
    _, pivots = Mat.from_columns(ctx.field, cols, width).rref()
    return [basis[p - len(rad)] for p in pivots if p >= len(rad)]


def _approximation(module, family, ctx, minimal):
    ctx = ctx or ApproxContext(module)
    homs = ctx.hom_to_module
    members = [j for j in (ctx.intervals if family is None else family) if homs(j)]
    summand_index = []
    parts = []
    for i in members:
        kept = _top(ctx, i, members) if minimal else homs(i)
        summand_index.extend([i] * len(kept))
        parts.extend(kept)
    f = _assemble(module, summand_index, parts)
    return ApproxMorphism(module, summand_index, parts, f)


def right_interval_approximation(module, family=None, ctx=None):
    """A right approximation of M by a sum of family interval modules: one
    summand per hom-basis element of every member (not minimal)."""
    return _approximation(module, family, ctx, minimal=False)


def minimal_right_approximation(module, family=None, ctx=None):
    """The projective cover of Hom(V_-, M) over the family, as a minimal
    right approximation of M."""
    return _approximation(module, family, ctx, minimal=True)
