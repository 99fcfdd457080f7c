"""Koszul-type coresolutions of interval modules and their complexes.

The category of interest has one object per member of an interval family,
with hom spaces the (combinatorial) morphism spaces between the thin
interval modules.  That category is the family itself, a
`repmod.IntervalFamily`, the workspace the resolve route reads as well:
its hom table holds the good components of every hom space as vertex
bitmasks, split once per family, and the cover steps read the action of
a basis map off those bitmasks.  Every function here that takes `cat=` takes such a
family (`IntervalFamily.wrap`): None means the family of all intervals
that the quiver holds, so calls without `cat` share its coresolutions.

The minimal projective resolution of the one-dimensional simple at an
interval I is built from syzygies: each is a submodule K of a sum P of
representables hom(J, -), kept only as a kernel basis of K(t) inside P(t)
at every object t where P is nonzero, and acted on at one vertex per good
component (`_act`).  Each cover reads the top K/rad K, and rad K is
spanned by the images of K under the irreducible maps alone (the arrows of
the category's Gabriel quiver, a basis of rad/rad^2): the family's table
of irreducible maps.  The check of a finished cochain splits the good
components afresh (`repmod.good_components`), independently of that
table.  The resolution pulls back, along the Yoneda correspondence for
maps between representables, to a cochain

    0 -> V_I -> X^1 -> X^2 -> ...

of interval-decomposable persistence modules (the coresolution of V_I).
Such a cochain is the resolution data itself (`IntervalCochain`), and the
cover steps build it directly, one degree each: the interval summands of
the term are the top's objects, and per pair of summands the coefficients
of the differential's block over the good-component basis of Hom(V_J,
V_K) are the top vector's slice.  A cochain is laid out by vertex only by
its check (`_checked`), so no complex is built over blocks that do not
form a cochain.  Applying Hom(-, M) to it yields a chain of vector spaces
whose homology computes the interval Betti numbers of M — the second,
independent route beside `intres.resolve`.  One precomposition builder
(`_precomposed`) reads every composite h o b in the chart of Hom(V_J, M),
for the complexes, the lattice bridge and the validator, which is the
Koszul complex of each V_K, whose homology must be δ_IK in degree 0.
What does not change from one complex to the next is computed once: each
cochain holds the layout of its blocks (the coefficient at each vertex),
and the complexes of one Betti table share one table of the module's path
maps (`repmod.SourceSolves`), and one basis and chart per Hom(V_J, M).

A lattice-indexed variant is included: for a family of intervals whose hom
pattern matches the incidence category of a finite lattice L, the cochain
can be written down in closed form from cover subsets and joins, with signs
from the position of the removed cover; and for modules over L given by
spaces and down-maps, the corresponding complex is built directly.  Each
hom space of such a family is spanned by the indicator of one good
component, so its gauge is a table of vertex sets (`build_lattice_gauge`).
This module imports only `exactla`, `poset` and `repmod`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import accumulate, combinations

from intres.exactla import QQ, Mat
from intres.poset import BoundQuiver
from intres.repmod import (
    BettiTable,
    IntervalFamily,
    MaxLengthExceeded,
    PersModule,
    SourceSolves,
    dimension_vector,
    flat_offsets,
    good_components,
    interval_module,
)


def build_end_category(quiver, intervals=None, field=None):
    """The interval family that the Koszul route resolves in, over `field`
    or Q: `IntervalFamily.wrap(intervals, quiver, field)`, so without
    `intervals` the family of all intervals that the quiver holds."""
    return IntervalFamily.wrap(intervals, quiver, field or QQ)


# ---- minimal projective resolutions --------------------------------------------


def _act(family, tags, offsets, vec, s, t, k):
    """The image in P(t) of a vector of P(s) under x_k, the k-th basis map
    of hom(s, t), the indicator of c2.  After the indicator of c1, the a-th
    good component of I_{tags[u]} & I_s, x_k is the indicator of c1 & c2, a
    morphism, so a union of good components of I_{tags[u]} & I_t (both lists
    are the row of tags[u] in the hom table): the entry (u, c) is the vector's
    entry (u, a) when c1 & c2 holds the c-th one's lowest vertex, else zero."""
    hom, zero = family.hom_rows(), family.field.zero()
    c2 = hom[s][t][k]
    out = []
    for tag, start in zip(tags, offsets[s]):
        row = hom[tag]
        sources = row.get(s, ())
        for comp in row.get(t, ()):
            low, a = comp & -comp & c2, start
            for c1 in sources:
                if c1 & low:
                    out.append(vec[a])
                    break
                a += 1
            else:
                out.append(zero)
    return out


def _offsets(rows):
    """Per object t where the sum of the representables hom(s, -), whose
    `hom_rows` entries are `rows`, is nonzero, in increasing t: where each
    summand's coordinates start at t, then the dimension of the sum at t.
    The dimension of hom(s, t) is the number of its good components."""
    objects = sorted(set().union(*rows))
    return {
        t: list(accumulate((len(row.get(t, ())) for row in rows), initial=0))
        for t in objects
    }


def projective_cover_step(family, tags, syzygy):
    """Cover a submodule K of P = sum_u hom(tags[u], -) by its top.

    K is given by `syzygy`: per object t, a `kernel_basis` of K(t) in the
    coordinates (u, k) of P(t), summand u and k-th element of
    hom(tags[u], t); objects where K is zero may be absent.  The top at t
    is the basis vectors on pivots of [rad K(t) | K(t)], where rad K(t)
    spans the images of the K(s) under the irreducible maps s -> t
    (`IntervalFamily.irreducible_maps`); the same elimination checks that K is
    invariant under them, hence a submodule.  Returns (tags, blocks,
    kernel): the top's objects, one per summand of the cover; each top
    vector sliced per summand of P, the `IntervalCochain.blocks` of one
    degree; and the kernel of the cover, the next syzygy, in the same form
    as `syzygy`.
    """
    field, hom = family.field, family.hom_rows()
    irreducible = family.irreducible_maps()
    offsets = _offsets([hom[tag] for tag in tags])
    rad = {}
    for s, vecs in syzygy.items():
        for t, k in irreducible[s]:
            if t not in offsets:
                continue
            for vec in vecs:
                img = _act(family, tags, offsets, vec, s, t, k)
                if any(img):
                    rad.setdefault(t, []).append(img)
    gens = []
    for t in offsets:
        basis = syzygy.get(t, [])
        images = rad.get(t)
        if not images:
            gens.extend((t, vec) for vec in basis)
            continue
        _, pivots = Mat.from_columns(field, images + basis, offsets[t][-1]).rref()
        if len(pivots) != len(basis):
            raise AssertionError("kernel not invariant under action")
        gens.extend((t, basis[p - len(images)]) for p in pivots if p >= len(images))
    new_tags = [t for t, _ in gens]
    blocks = [
        [vec[start:end] for start, end in zip(offsets[t], offsets[t][1:])]
        for t, vec in gens
    ]
    new_rows = [hom[t] for t in new_tags]
    # the cover P' -> K is visited wherever P' or K is nonzero; where K is
    # zero (P itself may be), the kernel is all of P'
    new_dims = {t: offs[-1] for t, offs in _offsets(new_rows).items()}
    kernel = {}
    for t in sorted(new_dims.keys() | syzygy.keys()):
        basis = syzygy.get(t, [])
        if not basis:
            kernel[t] = Mat.identity(field, new_dims[t]).rows()
            continue
        free = Mat.free_columns(basis)
        cols = []
        for (tag, vec), row in zip(gens, new_rows):
            for k in range(len(row.get(t, ()))):
                img = _act(family, tags, offsets, vec, tag, t, k)
                cols.append([img[r] for r in free])
        cover = Mat.from_columns(field, cols, len(basis))
        kernel_basis = cover.kernel_basis()
        if cover.ncols - len(kernel_basis) != len(basis):
            raise AssertionError("projective cover is not surjective")
        if kernel_basis:
            kernel[t] = kernel_basis
    return new_tags, blocks, kernel


def _require_minimal(prev_tags, tags, blocks):
    """Raise unless a cover step maps into the radical: no block between
    two summands with the same tag has a nonzero coefficient, which would
    be an isomorphism component (hom(s, s) = k is spanned by the identity)."""
    for tag, row in zip(tags, blocks):
        for prev, coeffs in zip(prev_tags, row):
            if tag == prev and any(coeffs):
                raise AssertionError("resolution is not minimal")


def min_proj_resolution(family, s, max_len=None):
    """Minimal projective resolution of the simple module at object s of
    `family`, as the `IntervalCochain` it pulls back to through Yoneda, the
    coresolution of V_I, I = family.objects[s], not yet checked.

    Term 0 is hom(s, -), that is [I]; the first syzygy is its radical, the
    identity basis at every t != s.  Each cover step
    (`projective_cover_step`) gives the next term, the members at its tags,
    and the blocks of the differential into it, and is checked to be
    minimal (`_require_minimal`).
    """
    if max_len is None:
        max_len = 4 * len(family.objects) + 4
    row = family.hom_rows()[s]
    if len(row.get(s, ())) != 1:
        raise AssertionError("endomorphism space of a thin module must be k")
    syzygy = {
        t: Mat.identity(family.field, len(comps)).rows()
        for t, comps in row.items()
        if t != s
    }
    objects = family.objects
    tags, terms, blocks = [s], [[objects[s]]], []
    while syzygy:
        new_tags, coeffs, syzygy = projective_cover_step(family, tags, syzygy)
        _require_minimal(tags, new_tags, coeffs)
        if len(terms) > max_len:
            raise MaxLengthExceeded(f"resolution exceeded {max_len} steps")
        tags = new_tags
        terms.append([objects[t] for t in tags])
        blocks.append(coeffs)
    return IntervalCochain(objects[s], terms, blocks, family.field)


# ---- interval cochains ----------------------------------------------------------


@dataclass
class IntervalCochain:
    """0 -> V_I -> X^1 -> X^2 -> ... with tagged interval terms.

    terms[i] lists the interval summands of X^i; terms[0] = [I].
    blocks[i][u_new][u_prev] is the block of the differential X^i -> X^{i+1}
    from V_J, J = terms[i][u_prev], to V_K, K = terms[i+1][u_new]: a list of
    coefficients over good_components(J, K), which is the `hom_table`
    order of `repmod.IntervalFamily` that the cover steps write.  The block
    is the morphism equal to the k-th coefficient on the k-th component and
    zero off them.  The coefficients are elements of `field`.

    `layout()` gives each block's values by vertex, in the nesting of
    `blocks`.  A layout comes only from a check: `_checked` and the
    validator keep the one their check computes, and a cochain made by
    hand is checked on first use (`AssertionError` on a defect).  It is
    held, so the blocks are not to be changed once the cochain is in use.
    """

    interval: object
    terms: list
    blocks: list
    field: object
    _layout: tuple = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def length(self):
        return len(self.terms) - 1

    def layout(self):
        """layout()[i][u_new][u_prev]: the vertex -> coefficient map of
        blocks[i][u_new][u_prev] (`_block_values`), held from the check."""
        if self._layout is None:
            _checked(self.interval.quiver, self)
        return self._layout


def _block_values(quiver, source, target, coeffs):
    """Vertex values of a block V_source -> V_target: each (disjoint) good
    component carries its coefficient; vertices off them are absent (zero)."""
    comps = good_components(quiver, source, target)
    if len(comps) != len(coeffs):
        raise AssertionError("block has the wrong number of coefficients")
    return {v: c for comp, c in zip(comps, coeffs) for v in comp}


def _cochain_defect(quiver, cochain):
    """The pair (why the blocks do not form a cochain of module morphisms,
    or None; the layout that was checked, every block's `_block_values` in
    the nesting of `blocks`, as tuples), computed afresh from the blocks.
    The layout is None when the blocks do not match the terms.

    A block is natural when, along every arrow u -> v with u in its source
    and v in its target, its values at u and v agree.  Consecutive
    differentials compose to zero when, at every vertex, the products of
    block values summed over the middle summands vanish.
    """
    field, terms, blocks = cochain.field, cochain.terms, cochain.blocks
    if len(blocks) != len(terms) - 1 or any(
        len(rows) != len(terms[i + 1]) or any(len(r) != len(terms[i]) for r in rows)
        for i, rows in enumerate(blocks)
    ):
        return "the blocks do not match the terms", None
    values = tuple(
        tuple(
            tuple(_block_values(quiver, j, k, c) for j, c in zip(terms[i], row))
            for k, row in zip(terms[i + 1], rows)
        )
        for i, rows in enumerate(blocks)
    )
    for i, rows in enumerate(values):
        for k, row in zip(terms[i + 1], rows):
            for j, val in zip(terms[i], row):
                for u, v in quiver.arrows.values():
                    if u in j and v in k and field.coerce(val.get(u, 0) - val.get(v, 0)):
                        return (
                            f"block {j!r} -> {k!r} is not natural along {u} -> {v}",
                            values,
                        )
    for i, (first, second) in enumerate(zip(values, values[1:])):
        for row in second:
            for u_prev in range(len(terms[i])):
                for v in quiver.vertices:
                    total = sum(
                        x.get(v, 0) * first[m][u_prev].get(v, 0)
                        for m, x in enumerate(row)
                    )
                    if field.coerce(total):
                        return "cochain differentials do not compose to zero", values
    return None, values


def _checked(quiver, cochain):
    """The cochain, holding the layout that was checked; AssertionError on
    a defect."""
    defect, layout = _cochain_defect(quiver, cochain)
    if defect:
        raise AssertionError(defect)
    cochain._layout = layout
    return cochain


def koszul_coresolution(quiver, interval, field=None, cat=None, max_len=None):
    """Minimal coresolution of V_I in the interval family `cat` (see
    `IntervalFamily.wrap`) over `field`: by default the family's field, or
    Q when `cat` is not an `IntervalFamily`.

    Computed as the minimal projective resolution of the simple module at I
    over the family's category, which `min_proj_resolution` writes as the
    cochain pulled back through Yoneda, and checked (`_checked`) before it
    is held in the family's `coresolutions`; a held cochain longer than
    `max_len` raises as a fresh resolution would.
    """
    if field is None:
        field = cat.field if isinstance(cat, IntervalFamily) else QQ
    family = IntervalFamily.wrap(cat, quiver, field)
    cochain = family.coresolutions.get(interval)
    if cochain is None:
        s = family.index.get(interval)
        if s is None:
            raise ValueError("interval is not an object of the chosen family")
        cochain = _checked(family.quiver, min_proj_resolution(family, s, max_len))
        family.coresolutions[interval] = cochain
    if max_len is not None and cochain.length > max_len:
        raise MaxLengthExceeded(f"resolution exceeded {max_len} steps")
    return cochain


def validate_koszul_coresolution(cochain, interval, cat=None):
    """Check the defining property, independently of how the cochain arose.

    The validator is the Koszul complex of each V_K, whose homology must be
    δ_IK in degree 0, since the Betti numbers of V_K are 1 at (0, K) and 0
    elsewhere: for every member K of the family `cat` (see
    `IntervalFamily.wrap`), Hom(X^•, V_K) must compose to zero and have
    homology [δ_IK, 0, ...].  `cat` must be over the cochain's quiver and
    field; otherwise ValueError names both.  The blocks are checked and laid
    out afresh, and the cochain holds that layout.
    """
    if cochain.terms[0] != [interval]:
        return False
    family = IntervalFamily.wrap(cat, interval.quiver, cochain.field)
    defect, layout = _cochain_defect(family.quiver, cochain)
    if defect:
        return False
    cochain._layout = layout
    for k_int in family.objects:
        target = interval_module(family.quiver, k_int, cochain.field)
        chain = koszul_complex(target, interval, family, cochain=cochain)
        mats = chain.mats
        if any(not (a * b).is_zero() for a, b in zip(mats, mats[1:])):
            return False
        expect = [1 if k_int == interval else 0] + [0] * cochain.length
        if chain.homology_dims() != expect:
            return False
    return True


# ---- Koszul complexes of a module ------------------------------------------------


@dataclass
class VecChain:
    """A chain of vector spaces ... -> K_1 -> K_0 (matrices per degree)."""

    dims: list
    mats: list  # mats[i]: K_{i+1} -> K_i  (so mats[0]: K_1 -> K_0)

    def homology_dims(self):
        """dim H_i = dims[i] - r_i - r_{i+1}, r_i the rank of mats[i-1]:
        K_i -> K_{i-1} (0 at both ends), so each matrix is ranked once."""
        ranks = [0] + [m.rank() for m in self.mats] + [0]
        return [n - ranks[i] - ranks[i + 1] for i, n in enumerate(self.dims)]


def koszul_complex(module, interval, cat=None, max_len=None, cochain=None):
    """Hom(K(V_I), M): spaces Hom(X^i, M), maps = precomposition with d.

    The coresolution is `cochain` if given, which must begin at V_I, else
    the one of I in the interval family `cat` (see `IntervalFamily.wrap`),
    which must be over the module's quiver and field."""
    quiver = module.quiver
    family = IntervalFamily.wrap(cat, quiver, module.field)
    if cochain is None:
        cochain = koszul_coresolution(quiver, interval, cat=family, max_len=max_len)
    elif cochain.terms[0] != [interval]:
        raise ValueError(f"the cochain begins at {cochain.terms[0]}, not at {interval!r}")
    if cochain.field != module.field:
        raise ValueError(
            f"the cochain is over {cochain.field!r} but the module is over "
            f"{module.field!r}"
        )
    summands = dict.fromkeys(j for tags in cochain.terms for j in tags)
    return _complex(module, cochain, _solved(module, summands))


def _solved(module, intervals):
    """{J: (basis of Hom(V_J, M) as flat vectors, its chart, its
    `flat_offsets`)} over the `intervals`, each solved once off one table of
    M's path maps (`SourceSolves`).  The chart, None for an empty basis, is
    the basis as columns with its free columns, read by `_precomposed`."""
    solves, field, dims = SourceSolves(module), module.field, module.dims
    homs = {}
    for j in intervals:
        basis = solves.hom_basis(j)
        chart = None
        if basis:
            chart = Mat.from_columns(field, basis, len(basis[0])), Mat.free_columns(basis)
        homs[j] = basis, chart, flat_offsets(j, dims)[0]
    return homs


def _complex(module, cochain, homs):
    """Hom(cochain, M), reading each space Hom(V_J, M) in `homs` (see
    `_solved`), which holds every summand V_J of the cochain; complexes of
    one module that share the dict share its solves and charts."""
    dims = [sum(len(homs[j][0]) for j in tags) for tags in cochain.terms]
    mats = [
        _precompose_matrix_module(module, cochain, i, homs)
        for i in range(1, len(cochain.terms))
    ]
    return VecChain(dims, mats)


def _precomposed(module, source, blocks):
    """The coordinates of composites h o b in the chart of Hom(V_J, M), one
    column each: the one place where composites are built and read in a
    chart.  `source` is the `_solved` entry of J, with a nonempty basis;
    `blocks` pairs each block b: V_J -> V_K, a vertex -> coefficient map,
    with the `_solved` entry of K, whose basis elements h run in order.

    h o b is h times b's coefficient at each vertex of b, zero off them,
    written as a flat vector of Hom(V_J, M) (`flat_offsets`): at a vertex,
    a coefficient 1 copies h's entries and any other multiplies them.
    """
    field, dims = module.field, module.dims
    zero, one = field.zero(), field.one()
    p = field.p if field.kind == "GF" else None
    basis, (basis_mat, free), at = source
    width = len(basis[0])
    composites = []
    for values, (hs, _, offsets) in blocks:
        for h in hs:
            vec = [zero] * width
            for v, c in values.items():
                if not c:
                    continue
                a, b = at[v], offsets[v]
                block = h[b : b + dims[v]]
                if c != one:
                    block = ([x * c for x in block] if p is None
                             else [x * c % p for x in block])
                vec[a : a + dims[v]] = block
            composites.append(vec)
    x = basis_mat.coordinates(free, Mat.from_columns(field, composites, width))
    if x is None:
        raise AssertionError("precomposition left the hom space")
    return x


def _precompose_matrix_module(module, cochain, i, homs):
    """Matrix of Hom(X^i, M) -> Hom(X^{i-1}, M), h -> h o d^{i-1}: per
    summand V_J of X^{i-1} with Hom(V_J, M) nonzero, the rows of the
    composites with its blocks (the cochain's `layout`), `_precomposed`."""
    layout = cochain.layout()[i - 1]
    targets = [homs[k] for k in cochain.terms[i]]
    row_blocks = [
        _precomposed(module, homs[j], zip([row[u] for row in layout], targets))
        for u, j in enumerate(cochain.terms[i - 1])
        if homs[j][0]
    ]
    ncols = sum(len(target[0]) for target in targets)
    return Mat.vstack(module.field, row_blocks, ncols=ncols)


def betti_table_via_koszul(module, cat=None, max_len=None):
    """Full Betti table of M, one Koszul complex per member of the interval
    family `cat` (see `IntervalFamily.wrap`).

    Every summand of a coresolution is a member, so Hom(V_J, M) is solved
    once per member J of the family, off one table of path maps, before
    any complex is built, and the complexes share those spaces.
    `max_len` bounds each coresolution K(V_I), which depends on the
    family, not on M: a bound that M's own resolution meets may still
    raise here.  The table is checked against those dimensions, H chi = h
    at every member (`IntervalFamily.require_hom_identity`)."""
    quiver = module.quiver
    family = IntervalFamily.wrap(cat, quiver, module.field)
    table = BettiTable()
    homs = _solved(module, family.objects)
    for interval in family.objects:
        cochain = koszul_coresolution(quiver, interval, cat=family, max_len=max_len)
        for i, h in enumerate(_complex(module, cochain, homs).homology_dims()):
            if h:
                table.add(i, interval, h)
    family.require_hom_identity(table, {j: len(hom[0]) for j, hom in homs.items()})
    return table


# ---- lattice-indexed constructions -----------------------------------------------


class LatticeModule:
    """Spaces over a poset's elements with maps going DOWN along covers.

    `down[(a, b)]`: matrix M(b) -> M(a) for each cover a < b.  Functoriality
    (path independence) is validated by reusing the quiver machinery on the
    opposite Hasse diagram.
    """

    def __init__(self, poset, dims, down, field):
        self.poset = poset
        self.field = field
        self.dims = dimension_vector(dims, poset.elements, "element")
        covers = poset.covers()
        self.down = {}
        for (a, b) in covers:
            want = (self.dims[a], self.dims[b])
            m = down.get((a, b))
            if m is None:
                m = Mat.zeros(field, *want)
            elif not isinstance(m, Mat):
                m = Mat.from_rows(field, m, ncols=want[1])
            if m.shape != want:
                raise ValueError(
                    f"down map for cover {a!r} < {b!r} has shape {m.shape}, "
                    f"expected {want}"
                )
            self.down[(a, b)] = m
        for key in down:
            if key not in self.down:
                raise ValueError(f"matrix given for non-cover pair {key!r}")
        arrows = {f"d{idx}": (b, a) for idx, (a, b) in enumerate(self.down)}
        maps = dict(zip(arrows, self.down.values()))
        quiver = BoundQuiver(poset.elements, arrows)
        self._op_module = PersModule(quiver, field, self.dims, maps)

    def dim(self, a):
        return self.dims[a]

    def path_down(self, top, bottom):
        """Composite of down maps along any path top -> ... -> bottom."""
        return self._op_module.path_map(top, bottom)


def _cover_subsets(poset, a):
    """Per degree i, the size-i subsets S of the covers of a that have an
    upper bound, with their joins (the empty subset's join is a); up to the
    last nonempty degree."""
    covers = poset.covers_of(a)
    subsets, joins = [[()]], [[a]]
    for size in range(1, len(covers) + 1):
        subs = [s for s in combinations(covers, size) if poset.upper_bounds(s)]
        if not subs:
            break
        subsets.append(subs)
        joins.append([poset.join(list(s)) for s in subs])
        if None in joins[-1]:
            raise ValueError(
                f"a bounded subset of the covers of {a!r} has no join; "
                "the poset is not a lower semilattice in the needed sense"
            )
    return subsets, joins


def _facet_sign(s, t):
    """(-1)^(position in S of the removed cover) when T is S minus one
    cover, else 0."""
    removed = [x for x in s if x not in t]
    if len(removed) != 1 or not set(t) <= set(s):
        return 0
    return (-1) ** s.index(removed[0])


def semilattice_koszul_complex(poset, a, lat_module):
    """The cover-subset complex of a lattice module at element a.

    Degree i sums M(join(S)) over size-i bounded subsets S of the covers of
    a (with join(empty) = a); the differential entry from S to T = S minus
    one element carries the sign (-1)^(position of the removed element) and
    the down map from join(S) to join(T).
    """
    field = lat_module.field
    subsets, joins = _cover_subsets(poset, a)
    dims = [sum(lat_module.dim(j) for j in js) for js in joins]
    mats = []
    for i in range(1, len(subsets)):
        grid = []
        for t, t_join in zip(subsets[i - 1], joins[i - 1]):
            row = []
            for s, s_join in zip(subsets[i], joins[i]):
                sign = _facet_sign(s, t)
                if not sign:
                    row.append(Mat.zeros(
                        field, lat_module.dim(t_join), lat_module.dim(s_join)
                    ))
                    continue
                pathm = lat_module.path_down(s_join, t_join)
                if pathm is None:
                    raise AssertionError("join of a subset not above join of sub-subset")
                row.append(pathm if sign > 0 else -pathm)
            grid.append(row)
        mats.append(Mat.block(field, grid))
    # trim trailing zero degrees for a tidy chain (keep degree 0 always)
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
        mats.pop()
    return VecChain(dims, mats)


@dataclass
class LatticeGauge:
    """Fixed isomorphism between a lattice's incidence category and the full
    subcategory on a family of interval modules: per related pair a <= b,
    the one good component C_ab of Hom(V_{I_a}, V_{I_b}), whose indicator
    p_ab is the basis morphism; these compose like the lattice."""

    poset: object
    labelling: dict  # lattice element -> Interval
    p: dict  # (a, b) -> C_ab, a frozenset of vertices


def build_lattice_gauge(poset, labelling):
    """Check that the hom pattern matches the lattice and composes like it.

    dim Hom(V_{I_a}, V_{I_b}) must be 1 when a <= b and 0 otherwise, the
    span of the indicator p_ab of one good component C_ab.  Indicators
    compose by intersecting their components, so with bottom z the family
    composes like the lattice exactly when C_ab & C_za = C_zb for all a <= b:
    then p_bc o p_ab o p_za = p_zc, so p_bc o p_ab is a nonzero indicator in
    the span of p_ac, which is p_ac.
    """
    elements = poset.elements
    if len(set(labelling[a] for a in elements)) != len(elements):
        raise ValueError("labelling must be injective")
    quiver = labelling[elements[0]].quiver
    p = {}
    for a in elements:
        for b in elements:
            comps = good_components(quiver, labelling[a], labelling[b])
            want = 1 if poset.leq(a, b) else 0
            if len(comps) != want:
                raise ValueError(
                    "hom pattern does not match the lattice: "
                    f"dim Hom at ({a!r}, {b!r}) is {len(comps)}, expected {want}"
                )
            if comps:
                p[(a, b)] = comps[0]
    bottom = poset.bottom()
    if bottom is None:
        raise ValueError("the poset has no bottom element")
    for (a, b), comp in p.items():
        if comp & p[(bottom, a)] != p[(bottom, b)]:
            raise ValueError(
                "hom pattern does not compose like the lattice: the basis "
                f"morphism at ({a!r}, {b!r}) after the one at ({bottom!r}, "
                f"{a!r}) is not the one at ({bottom!r}, {b!r})"
            )
    return LatticeGauge(poset, dict(labelling), p)


def formal_koszul_coresolution(poset, a, embedding, field=None):
    """Closed-form coresolution of V_{I_a} from cover subsets and joins.

    `embedding` maps lattice elements to intervals; degree i sums V at the
    joins of size-i bounded subsets of covers of a; the block from T to
    S is (-1)^(removed position) times the one basis morphism when T is S
    minus one cover, and zero otherwise.  Requires the hom pattern of the
    embedded family to match the lattice, which `build_lattice_gauge`
    checks.
    """
    if field is None:
        field = QQ
    build_lattice_gauge(poset, embedding)
    quiver = embedding[a].quiver
    subsets, joins = _cover_subsets(poset, a)
    terms = [[embedding[j] for j in js] for js in joins]
    blocks = []
    for i in range(1, len(terms)):
        rows = []
        for s, k in zip(subsets[i], terms[i]):
            row = []
            for t, j in zip(subsets[i - 1], terms[i - 1]):
                sign = _facet_sign(s, t)
                if sign:
                    row.append([field.coerce(sign)])
                else:
                    row.append([field.zero()] * len(good_components(quiver, j, k)))
            rows.append(row)
        blocks.append(rows)
    return _checked(quiver, IntervalCochain(embedding[a], terms, blocks, field))


def lattice_module_from_persistence(gauge, module):
    """Spaces Hom(V_{I_a}, M) with down-maps by precomposition with p.

    For h: V_{I_b} -> M, h o p_ab agrees with h on C_ab and vanishes off
    it: each down map is one call of the precomposition builder
    (`_precomposed`) with the single block {v: 1 for v in C_ab}.
    This is the bridge along which lattice-level homology computes the
    family-relative Betti numbers of the persistence module."""
    poset, labelling, field = gauge.poset, gauge.labelling, module.field
    homs = _solved(module, labelling.values())
    down = {}
    for (a, b) in poset.covers():
        source, target = homs[labelling[a]], homs[labelling[b]]
        if source[0] and target[0]:
            block = dict.fromkeys(gauge.p[(a, b)], field.one())
            down[(a, b)] = _precomposed(module, source, [(block, target)])
    dims = {a: len(homs[labelling[a]][0]) for a in poset.elements}
    return LatticeModule(poset, dims, down, field)
