"""Koszul-type coresolutions of interval modules and their complexes.

The category of interest has one object per interval, with hom spaces the
(combinatorial) morphism spaces between the thin interval modules.  Modules
over this category are handled explicitly; minimal projective resolutions of
the one-dimensional simple at an interval I pull back, along the Yoneda
correspondence for maps between representables, to a cochain

    0 -> V_I -> X^1 -> X^2 -> ...

of interval-decomposable persistence modules (the coresolution of V_I).
Applying Hom(-, M) to it yields a chain of vector spaces whose homology
computes the interval Betti numbers of M — the second, independent route
beside `intres.resolve`.

A lattice-indexed variant is included: for a family of intervals whose hom
pattern matches the incidence category of a finite lattice L, the cochain
can be written down in closed form from cover subsets and joins, with signs
from the position of the removed cover; and for modules over L given by
spaces and down-maps, the corresponding complex is built directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from intres.exactla import Mat
from intres.poset import BoundQuiver, enumerate_intervals
from intres.repmod import (
    ModMorphism,
    PersModule,
    component_morphism,
    direct_sum,
    good_components,
    hom_basis,
    interval_module,
    zero_module,
)
from intres.resolve import MaxLengthExceeded


# ---- the endomorphism category ------------------------------------------------


class EndCategory:
    """Objects: intervals; hom(s, t) = basis of Hom(V_{I_s}, V_{I_t}).

    Basis elements are indicator morphisms of good components, so all
    composition structure constants are 0 or 1 and are independent of the
    field.  Composition tensors are cached per object triple.
    """

    def __init__(self, quiver, intervals=None, field=None):
        from intres.exactla import QQ

        self.quiver = quiver
        self.field = field or QQ
        if intervals is None:
            intervals = enumerate_intervals(quiver)
        self.objects = list(intervals)
        self.obj_index = {i: t for t, i in enumerate(self.objects)}
        self._hom = {}
        self._tensor = {}
        self._vmod = {}
        self._coresolutions = {}

    def interval(self, s):
        return self.objects[s]

    def interval_module(self, s):
        if s not in self._vmod:
            self._vmod[s] = interval_module(
                self.quiver, self.objects[s], self.field
            )
        return self._vmod[s]

    def hom(self, s, t):
        """Good components forming the basis of hom(s, t)."""
        key = (s, t)
        if key not in self._hom:
            self._hom[key] = good_components(
                self.quiver, self.objects[s], self.objects[t]
            )
        return self._hom[key]

    def hom_dim(self, s, t):
        return len(self.hom(s, t))

    def identity_index(self, s):
        comps = self.hom(s, s)
        if len(comps) != 1:
            raise AssertionError("endomorphism space of a thin module must be k")
        return 0

    def basis_morphism(self, s, t, k):
        """The k-th basis element of hom(s, t) as a ModMorphism."""
        return component_morphism(
            self.quiver,
            self.objects[s],
            self.objects[t],
            self.hom(s, t)[k],
            self.field,
        )

    def compose_coeffs(self, s, t, u):
        """Structure constants: (a, b) -> indices c with x_b o x_a = sum x_c.

        a indexes hom(s, t), b indexes hom(t, u), c indexes hom(s, u); the
        composite of two component indicators is the sum of the good
        components of I_s & I_u contained in both.
        """
        key = (s, t, u)
        if key not in self._tensor:
            left = self.hom(s, t)
            right = self.hom(t, u)
            target = self.hom(s, u)
            table = {}
            for a, c1 in enumerate(left):
                for b, c2 in enumerate(right):
                    meet = c1 & c2
                    table[(a, b)] = [
                        c for c, comp in enumerate(target) if comp <= meet
                    ]
            self._tensor[key] = table
        return self._tensor[key]

    def op(self):
        """The opposite category view (hom(s,t) = this hom(t,s))."""
        return _OpCategory(self)

    def check_associativity(self):
        """Exhaustively verify associativity of the composition tensors.

        Intended for tests on small categories; cost grows with the fourth
        power of the object count.
        """
        n = len(self.objects)
        for s in range(n):
            for t in range(n):
                if not self.hom(s, t):
                    continue
                for u in range(n):
                    if not self.hom(t, u):
                        continue
                    for w in range(n):
                        if not self.hom(u, w):
                            continue
                        self._check_assoc_triple(s, t, u, w)
        return True

    def _check_assoc_triple(self, s, t, u, w):
        st = len(self.hom(s, t))
        tu = len(self.hom(t, u))
        uw = len(self.hom(u, w))
        t_stu = self.compose_coeffs(s, t, u)
        t_suw = self.compose_coeffs(s, u, w)
        t_tuw = self.compose_coeffs(t, u, w)
        t_stw = self.compose_coeffs(s, t, w)
        for a in range(st):
            for b in range(tu):
                for c in range(uw):
                    # (c o b) o a
                    lhs = {}
                    for d in t_stu[(a, b)]:
                        for e in t_suw[(d, c)]:
                            lhs[e] = lhs.get(e, 0) + 1
                    # c o (b o a)
                    rhs = {}
                    for d in t_tuw[(b, c)]:
                        for e in t_stw[(a, d)]:
                            rhs[e] = rhs.get(e, 0) + 1
                    if lhs != rhs:
                        raise AssertionError(
                            f"associativity fails at objects {(s, t, u, w)}"
                        )


class _OpCategory:
    """Opposite-category adapter sharing the underlying caches."""

    def __init__(self, base):
        self.base = base
        self.quiver = base.quiver
        self.field = base.field
        self.objects = base.objects
        self.obj_index = base.obj_index

    def interval(self, s):
        return self.base.interval(s)

    def hom(self, s, t):
        return self.base.hom(t, s)

    def hom_dim(self, s, t):
        return self.base.hom_dim(t, s)

    def identity_index(self, s):
        return self.base.identity_index(s)

    def compose_coeffs(self, s, t, u):
        # x_b o x_a in the op category is x_a o x_b in the base category
        table = self.base.compose_coeffs(u, t, s)
        return {(a, b): table[(b, a)] for (b, a) in table}

    def op(self):
        return self.base


def build_end_category(quiver, intervals=None, field=None):
    return EndCategory(quiver, intervals, field)


_END_CACHE = {}


def _shared_end_category(quiver, intervals, field):
    key = (
        quiver,
        field,
        None
        if intervals is None
        else tuple(sorted((i.vertex_set for i in intervals), key=sorted)),
    )
    if key not in _END_CACHE:
        _END_CACHE[key] = EndCategory(quiver, intervals, field)
    return _END_CACHE[key]


# ---- modules over the category -------------------------------------------------


class FunctorModule:
    """A covariant module over an EndCategory (or its op view).

    `dims[t]` is the dimension at object t; `action[(s, t, k)]` the matrix
    of the k-th hom basis element (shape dims[t] x dims[s]); missing keys
    act by zero.
    """

    def __init__(self, cat, dims, action):
        self.cat = cat
        self.dims = dict(dims)
        self.action = dict(action)

    def dim(self, t):
        return self.dims.get(t, 0)

    def total_dim(self):
        return sum(self.dims.values())

    def act(self, s, t, k):
        key = (s, t, k)
        m = self.action.get(key)
        if m is None:
            m = Mat.zeros(self.cat.field, self.dim(t), self.dim(s))
        return m

    def validate(self):
        """Functoriality on all composable basis pairs (test-sized inputs)."""
        n = len(self.cat.objects)
        for s in range(n):
            if not self.dim(s):
                continue
            ident = self.cat.identity_index(s)
            if self.act(s, s, ident) != Mat.identity(self.cat.field, self.dim(s)):
                raise AssertionError(f"identity does not act as identity at {s}")
        for s in range(n):
            for t in range(n):
                for u in range(n):
                    homs_st = self.cat.hom(s, t)
                    homs_tu = self.cat.hom(t, u)
                    if not homs_st or not homs_tu:
                        continue
                    tensor = self.cat.compose_coeffs(s, t, u)
                    for a in range(len(homs_st)):
                        for b in range(len(homs_tu)):
                            lhs = self.act(t, u, b) * self.act(s, t, a)
                            rhs = Mat.zeros(
                                self.cat.field, self.dim(u), self.dim(s)
                            )
                            for c in tensor[(a, b)]:
                                rhs = rhs + self.act(s, u, c)
                            if lhs != rhs:
                                raise AssertionError(
                                    f"functoriality fails on ({s},{t},{u})"
                                )
        return True


def simple_module(cat, s):
    """One-dimensional at object s; every non-identity basis element acts 0."""
    field = cat.field
    ident = cat.identity_index(s)
    return FunctorModule(
        cat, {s: 1}, {(s, s, ident): Mat.identity(field, 1)}
    )


def representable_module(cat, s):
    """The covariant representable hom(s, -): projective with top at s."""
    field = cat.field
    dims = {}
    for t in range(len(cat.objects)):
        d = cat.hom_dim(s, t)
        if d:
            dims[t] = d
    action = {}
    for t in dims:
        for u in range(len(cat.objects)):
            if cat.hom_dim(t, u) == 0 or cat.hom_dim(s, u) == 0:
                continue
            tensor = cat.compose_coeffs(s, t, u)
            for k in range(cat.hom_dim(t, u)):
                m = Mat.zeros(field, cat.hom_dim(s, u), dims[t])
                for a in range(dims[t]):
                    for c in tensor[(a, k)]:
                        m.data[c * dims[t] + a] = field.one()
                if not m.is_zero():
                    action[(t, u, k)] = m
    ident = cat.identity_index(s)
    action.setdefault((s, s, ident), Mat.identity(field, dims[s]))
    return FunctorModule(cat, dims, action)


def _hom_chart(field, basis):
    """The hom basis as columns of flat vectors, with their free columns
    (`hom_basis` returns the kernel basis of the naturality system)."""
    flats = [b.flat() for b in basis]
    return Mat.from_columns(field, flats, len(flats[0])), Mat.free_columns(flats)


def _hom_coordinates(chart, morphisms):
    """Coordinates of morphisms in a `_hom_chart`, one column each; None if
    one of them is not in the span."""
    basis_mat, free = chart
    block = Mat.from_columns(
        basis_mat.field, [f.flat() for f in morphisms], basis_mat.nrows
    )
    return basis_mat.coordinates(free, block)


def lambda_module_of(module, side="left", cat=None, intervals=None):
    """The category module induced by a persistence module M.

    side="left": spaces Hom(V_I, M), hom basis elements act contravariantly
    by precomposition (returned as a covariant module over cat.op()).
    side="right": spaces Hom(M, V_I), acting covariantly by postcomposition.
    """
    if cat is None:
        cat = _shared_end_category(module.quiver, intervals, module.field)
    field = cat.field
    homs = {
        t: hom_basis(cat.interval_module(t), module)
        if side == "left"
        else hom_basis(module, cat.interval_module(t))
        for t in range(len(cat.objects))
    }
    dims = {t: len(hs) for t, hs in homs.items() if hs}

    charts = {t: _hom_chart(field, hs) for t, hs in homs.items() if hs}

    def expand(t, composites):
        """Coordinates in the hom basis at t, one column per composite."""
        x = _hom_coordinates(charts[t], composites)
        if x is None:
            raise AssertionError("hom expansion failed; basis inconsistent")
        return x

    action = {}
    if side == "left":
        opcat = cat.op()
        for s in dims:
            for t in dims:
                for k in range(opcat.hom_dim(s, t)):
                    # op hom(s,t) = hom(t,s): morphism V_{I_t} -> V_{I_s}
                    phi = cat.basis_morphism(t, s, k)
                    m = expand(t, [h.compose(phi) for h in homs[s]])
                    if not m.is_zero():
                        action[(s, t, k)] = m
        return FunctorModule(opcat, dims, action)
    for s in dims:
        for t in dims:
            for k in range(cat.hom_dim(s, t)):
                phi = cat.basis_morphism(s, t, k)
                m = expand(t, [phi.compose(h) for h in homs[s]])
                if not m.is_zero():
                    action[(s, t, k)] = m
    return FunctorModule(cat, dims, action)


# ---- minimal projective resolutions --------------------------------------------


@dataclass
class ResolutionStep:
    tags: list  # object indices, one per projective summand
    blocks: list  # blocks[u_new][u_prev] = coefficient list over hom basis
    # hom basis in question: hom(tags_prev[u_prev], tags_new[u_new])


@dataclass
class ProjResolution:
    steps: list  # ResolutionStep per degree (degree 0 blocks = None)


def _radical_span(cat, mod, t):
    """Columns spanning rad(mod)(t) = sum of images from other objects."""
    cols = []
    for s in mod.dims:
        if s == t:
            continue
        for k in range(cat.hom_dim(s, t)):
            m = mod.action.get((s, t, k))
            if m is not None and not m.is_zero():
                for j in range(m.ncols):
                    cols.append(m.col(j))
    return cols


def _top_generators(cat, mod):
    """Per object, standard-basis vectors of mod(t) completing the radical:
    the identity columns that fall on pivots of [radical columns | I]."""
    field = cat.field
    gens = []
    for t in sorted(mod.dims):
        d = mod.dim(t)
        if d == 0:
            continue
        rad_cols = _radical_span(cat, mod, t)
        ident = Mat.identity(field, d).rows()
        if rad_cols:
            _, pivots = Mat.from_columns(field, rad_cols + ident, d).rref()
            chosen = [p - len(rad_cols) for p in pivots if p >= len(rad_cols)]
        else:
            chosen = range(d)
        gens.extend((t, ident[i]) for i in chosen)
    return gens


def projective_cover_step(cat, mod):
    """One step: tags + generators + kernel (with its ambient embedding).

    Returns (tags, gens, cover_cols, kernel_module, kernel_embeddings) where
    cover_cols[t] is the matrix of the cover at object t (columns indexed by
    (summand u, hom basis element of hom(tags[u], t))), and the kernel
    embedding at t expresses kernel coordinates in those same columns.
    """
    field = cat.field
    pairs = _top_generators(cat, mod)
    tags = [t for t, _ in pairs]
    gens = [g for _, g in pairs]
    nobj = len(cat.objects)
    cover_cols = {}
    col_layout = {}  # t -> list of (u, k) in column order
    for t in range(nobj):
        layout = []
        cols = []
        for u, (src, gen) in enumerate(pairs):
            hd = cat.hom_dim(src, t)
            for k in range(hd):
                act = mod.act(src, t, k)
                col = act * Mat(field, len(gen), 1, list(gen))
                cols.append(col.data)
                layout.append((u, k))
        if cols or mod.dim(t):
            cover_cols[t] = Mat.from_columns(field, cols, mod.dim(t))
            col_layout[t] = layout
    # surjectivity of the cover (Nakayama guarantees it; verify cheaply)
    for t, m in cover_cols.items():
        if mod.dim(t) and m.rank() != mod.dim(t):
            raise AssertionError("projective cover is not surjective")
    # kernel spaces and embeddings
    kdims = {}
    kembed = {}
    kfree = {}
    for t, m in cover_cols.items():
        basis = m.kernel_basis()
        if basis:
            kdims[t] = len(basis)
            kembed[t] = Mat.from_columns(field, basis, m.ncols)
            kfree[t] = Mat.free_columns(basis)
    # kernel action matrices via the ambient projective-sum action
    kaction = {}
    for s in kdims:
        for t in range(nobj):
            for k in range(cat.hom_dim(s, t)):
                amb = _projsum_action(cat, pairs, col_layout, s, t, k)
                if amb is None:
                    continue
                rhs = amb * kembed[s]
                if rhs.is_zero():
                    continue
                if t not in kdims:
                    raise AssertionError("kernel not invariant under action")
                sol = kembed[t].coordinates(kfree[t], rhs)
                if sol is None:
                    raise AssertionError("kernel embedding solve failed")
                kaction[(s, t, k)] = sol
    kernel_mod = FunctorModule(cat, kdims, kaction)
    return tags, gens, cover_cols, col_layout, kernel_mod, kembed


def _projsum_action(cat, pairs, col_layout, s, t, k):
    """Action of hom-basis element k: s->t on (sum of representables at tags),
    in the column coordinates of col_layout."""
    field = cat.field
    src_layout = col_layout.get(s, [])
    tgt_layout = col_layout.get(t, [])
    if not src_layout or not tgt_layout:
        return None
    tgt_pos = {(u, c): row for row, (u, c) in enumerate(tgt_layout)}
    m = Mat.zeros(field, len(tgt_layout), len(src_layout))
    one = field.one()
    for col, (u, a) in enumerate(src_layout):
        src_obj = pairs[u][0]
        tensor = cat.compose_coeffs(src_obj, s, t)
        for c in tensor[(a, k)]:
            m.data[tgt_pos[(u, c)] * len(src_layout) + col] = one
    return m


def min_proj_resolution(cat, mod, max_len=None):
    """Minimal projective resolution of a covariant module by iterated covers.

    steps[i].tags are the projective summands of the i-th term;
    steps[i].blocks (i >= 1) give the differential into term i-1 as
    coefficient lists over hom(tags_{i-1}[u_prev], tags_i[u_new]).
    """
    if max_len is None:
        max_len = 4 * len(cat.objects) + 4
    steps = []
    current = mod
    prev_embed = None
    prev_layout = None
    prev_tags = None
    while current.total_dim() > 0:
        if len(steps) > max_len:
            raise MaxLengthExceeded(f"resolution exceeded {max_len} steps")
        tags, gens, _cols, layout, kernel_mod, kembed = projective_cover_step(
            cat, current
        )
        blocks = None
        if prev_embed is not None:
            blocks = []
            for u_new, (tag, gen) in enumerate(zip(tags, gens)):
                amb = prev_embed[tag] * Mat(
                    cat.field, len(gen), 1, list(gen)
                )
                row = []
                for u_prev, prev_tag in enumerate(prev_tags):
                    hd = cat.hom_dim(prev_tag, tag)
                    coeffs = [cat.field.zero()] * hd
                    for pos, (u, k) in enumerate(prev_layout[tag]):
                        if u == u_prev:
                            coeffs[k] = amb.data[pos]
                    row.append(coeffs)
                blocks.append(row)
        steps.append(ResolutionStep(tags, blocks))
        current = kernel_mod
        prev_embed = kembed
        prev_layout = layout
        prev_tags = tags
    return ProjResolution(steps)


# ---- interval cochains ----------------------------------------------------------


@dataclass
class IntervalCochain:
    """0 -> V_I -> X^1 -> X^2 -> ... with tagged interval terms."""

    interval: object
    terms: list  # terms[i]: list of Interval (degree i summands); terms[0] = [I]
    term_modules: list  # PersModule per degree
    diffs: list  # diffs[i]: term_modules[i] -> term_modules[i+1]

    @property
    def length(self):
        return len(self.terms) - 1


def _assemble_cochain(quiver, field, interval, steps):
    """Materialize the cochain from resolution steps via the Yoneda flip."""
    terms = []
    term_modules = []
    summand_mods = []
    for step in steps:
        tags = [step_tag for step_tag in step.tags]
        ivs = tags
        terms.append(ivs)
        mods = [interval_module(quiver, i, field) for i in ivs]
        summand_mods.append(mods)
        if len(mods) == 1:
            term_modules.append(mods[0])
        elif mods:
            term_modules.append(direct_sum(mods).module)
        else:
            term_modules.append(zero_module(quiver, field))
    diffs = []
    for i in range(1, len(steps)):
        src_mod = term_modules[i - 1]
        tgt_mod = term_modules[i]
        comps = {}
        for v in quiver.vertices:
            grid = []
            for u_new, i_new in enumerate(terms[i]):
                row = []
                new_d = summand_mods[i][u_new].dims[v]
                for u_prev, i_prev in enumerate(terms[i - 1]):
                    prev_d = summand_mods[i - 1][u_prev].dims[v]
                    block = Mat.zeros(field, new_d, prev_d)
                    coeffs = steps[i].blocks[u_new][u_prev]
                    if new_d and prev_d:
                        comps_basis = good_components(quiver, i_prev, i_new)
                        val = field.zero()
                        for k, c in enumerate(coeffs):
                            if c and v in comps_basis[k]:
                                val = val + c if field.kind == "Q" else (val + c) % field.p
                        block = Mat(field, 1, 1, [val])
                    row.append(block)
                grid.append(row)
            if grid and any(len(r) for r in grid):
                comps[v] = Mat.block(field, grid)
            else:
                comps[v] = Mat.zeros(field, tgt_mod.dims[v], src_mod.dims[v])
        diffs.append(ModMorphism(src_mod, tgt_mod, comps, check=True))
    return IntervalCochain(interval, terms, term_modules, diffs)


def koszul_coresolution(quiver, interval, field=None, intervals=None, cat=None,
                        max_len=None):
    """Minimal coresolution of V_I in the chosen interval family.

    Computed as the minimal projective resolution of the simple module at I
    over the endomorphism category, pulled back through Yoneda.  Results are
    cached on the category object.
    """
    if cat is None:
        from intres.exactla import QQ

        cat = _shared_end_category(quiver, intervals, field or QQ)
    if interval not in cat.obj_index:
        raise ValueError("interval is not an object of the chosen family")
    s = cat.obj_index[interval]
    if s in cat._coresolutions:
        return cat._coresolutions[s]
    res = min_proj_resolution(cat, simple_module(cat, s), max_len)
    if res.steps[0].tags != [s]:
        raise AssertionError("cover of the simple is not the expected stalk")
    steps = [
        ResolutionStep([cat.interval(t) for t in st.tags], st.blocks)
        for st in res.steps
    ]
    cochain = _assemble_cochain(cat.quiver, cat.field, interval, steps)
    for d in range(len(cochain.diffs) - 1):
        composite = cochain.diffs[d + 1].compose(cochain.diffs[d])
        if not composite.is_zero():
            raise AssertionError("cochain differentials do not compose to zero")
    cat._coresolutions[s] = cochain
    return cochain


def validate_koszul_coresolution(cochain, interval, cat=None, intervals=None,
                                 field=None):
    """Check the defining property, independently of how the cochain arose.

    Applying Hom(-, V_K) for every family interval K must give an exact
    sequence whose end cokernel is one-dimensional for K = I and zero
    otherwise (this is exactness of the dual projective resolution of the
    simple at I, checked one graded piece at a time).
    """
    if cochain.terms[0] != [interval]:
        return False
    if cat is None:
        from intres.exactla import QQ

        quiver = interval.quiver
        cat = _shared_end_category(quiver, intervals, field or QQ)
    quiver = cat.quiver
    field = cat.field
    for d in range(len(cochain.diffs) - 1):
        if not cochain.diffs[d + 1].compose(cochain.diffs[d]).is_zero():
            return False
    for kobj in range(len(cat.objects)):
        k_int = cat.interval(kobj)
        # chain of matrices: D_i: Hom(X^i, V_K) -> Hom(X^{i-1}, V_K)
        dims = []
        for tags in cochain.terms:
            dims.append(sum(len(good_components(quiver, j, k_int)) for j in tags))
        mats = []
        for i in range(1, len(cochain.terms)):
            mats.append(
                _precompose_matrix_interval(cat, cochain, i, k_int)
            )
        # composites vanish
        for i in range(len(mats) - 1):
            if not (mats[i] * mats[i + 1]).is_zero():
                return False
        # exactness in middle degrees, injectivity at the top
        for i in range(1, len(cochain.terms)):
            d_i = mats[i - 1]
            rank_i = d_i.rank()
            ker_i = dims[i] - rank_i
            rank_next = mats[i].rank() if i < len(mats) else 0
            if ker_i != rank_next:
                return False
        # cokernel at degree 0
        rank_1 = mats[0].rank() if mats else 0
        expect = 1 if k_int == interval else 0
        if dims[0] - rank_1 != expect:
            return False
    return True


def _precompose_matrix_interval(cat, cochain, i, k_int):
    """Matrix of Hom(X^i, V_K) -> Hom(X^{i-1}, V_K), g -> g o d^{i-1}.

    Bases: per summand, good components into K; coefficients are read off
    at a representative vertex of each component, exploiting thinness.
    """
    quiver = cat.quiver
    field = cat.field
    prev_tags = cochain.terms[i - 1]
    cur_tags = cochain.terms[i]
    d = cochain.diffs[i - 1]
    prev_basis = []  # (summand index, component, morphism X^{i-1} -> V_K)
    vk = interval_module(quiver, k_int, field)
    prev_mods = [interval_module(quiver, j, field) for j in prev_tags]
    cur_mods = [interval_module(quiver, j, field) for j in cur_tags]
    # offsets of each summand inside the direct-sum modules
    prev_off = {}
    acc = {v: 0 for v in quiver.vertices}
    for u, m in enumerate(prev_mods):
        prev_off[u] = dict(acc)
        for v in quiver.vertices:
            acc[v] += m.dims[v]
    cur_off = {}
    acc = {v: 0 for v in quiver.vertices}
    for u, m in enumerate(cur_mods):
        cur_off[u] = dict(acc)
        for v in quiver.vertices:
            acc[v] += m.dims[v]
    rows = []  # row index: (u_prev, component index)
    for u, j in enumerate(prev_tags):
        for c_idx, _ in enumerate(good_components(quiver, j, k_int)):
            rows.append((u, c_idx))
    cols = []
    for u, j in enumerate(cur_tags):
        for c_idx, _ in enumerate(good_components(quiver, j, k_int)):
            cols.append((u, c_idx))
    out = Mat.zeros(field, len(rows), len(cols))
    for col, (u_cur, c_cur) in enumerate(cols):
        comp_cur = good_components(quiver, cur_tags[u_cur], k_int)[c_cur]
        # g: X^i -> V_K supported on summand u_cur with component comp_cur
        # composite g o d^{i-1}: X^{i-1} -> V_K; its restriction to summand
        # u_prev is (indicator comp_cur) o (block of d from u_prev to u_cur)
        for row, (u_prev, c_prev) in enumerate(rows):
            comp_prev = good_components(quiver, prev_tags[u_prev], k_int)[c_prev]
            # the composite is natural, hence constant on comp_prev: its
            # coefficient equals the value at any single vertex of it
            v0 = next(iter(comp_prev))
            val = field.zero()
            if v0 in comp_cur:
                dmat = d.comps[v0]
                r = cur_off[u_cur][v0]
                c = prev_off[u_prev][v0]
                val = dmat[r, c]
            out.data[row * len(cols) + col] = val
    return out


# ---- Koszul complexes of a module ------------------------------------------------


@dataclass
class VecChain:
    """A chain of vector spaces ... -> K_1 -> K_0 (matrices per degree)."""

    dims: list
    mats: list  # mats[i]: K_{i+1} -> K_i  (so mats[0]: K_1 -> K_0)

    def homology_dims(self):
        """dim H_i for i = 0..len(dims)-1, exact kernel/image arithmetic."""
        out = []
        for i in range(len(self.dims)):
            d_i = self.mats[i - 1] if i >= 1 else None
            rank_i = d_i.rank() if d_i is not None else 0
            ker = self.dims[i] - rank_i
            d_next = self.mats[i] if i < len(self.mats) else None
            rank_next = d_next.rank() if d_next is not None else 0
            out.append(ker - rank_next)
        return out


def koszul_complex(quiver, interval, module, field=None, intervals=None,
                   cat=None, max_len=None, cochain=None):
    """Hom(K(V_I), M): spaces Hom(X^i, M), maps = precomposition with d."""
    if cat is None:
        cat = _shared_end_category(quiver, intervals, field or module.field)
    if cochain is None:
        cochain = koszul_coresolution(
            quiver, interval, cat.field, intervals, cat, max_len
        )
    hom_cache = {}

    def homs_to_m(j):
        if j not in hom_cache:
            hom_cache[j] = hom_basis(
                interval_module(quiver, j, module.field), module
            )
        return hom_cache[j]

    dims = [sum(len(homs_to_m(j)) for j in tags) for tags in cochain.terms]
    mats = [
        _precompose_matrix_module(quiver, module, cochain, i, homs_to_m)
        for i in range(1, len(cochain.terms))
    ]
    return VecChain(dims, mats)


def _precompose_matrix_module(quiver, module, cochain, i, homs_to_m):
    """Matrix of Hom(X^i, M) -> Hom(X^{i-1}, M)."""
    field = module.field
    prev_tags = cochain.terms[i - 1]
    cur_tags = cochain.terms[i]
    d = cochain.diffs[i - 1]
    prev_mods = [interval_module(quiver, j, field) for j in prev_tags]
    cur_mods = [interval_module(quiver, j, field) for j in cur_tags]
    prev_off = {}
    acc = {v: 0 for v in quiver.vertices}
    for u, m in enumerate(prev_mods):
        prev_off[u] = dict(acc)
        for v in quiver.vertices:
            acc[v] += m.dims[v]
    cur_off = {}
    acc = {v: 0 for v in quiver.vertices}
    for u, m in enumerate(cur_mods):
        cur_off[u] = dict(acc)
        for v in quiver.vertices:
            acc[v] += m.dims[v]
    ncols = sum(len(homs_to_m(j)) for j in cur_tags)
    charts = {}
    row_blocks = []
    for u_prev, j_prev in enumerate(prev_tags):
        if not homs_to_m(j_prev):
            continue
        if j_prev not in charts:
            charts[j_prev] = _hom_chart(field, homs_to_m(j_prev))
        vprev = prev_mods[u_prev]
        composites = []
        for u_cur, j_cur in enumerate(cur_tags):
            vj = cur_mods[u_cur]
            # block of d from summand u_prev to summand u_cur, as a
            # morphism V_{j_prev} -> V_{j_cur}
            comps = {}
            for v in quiver.vertices:
                pd = vprev.dims[v]
                cd = vj.dims[v]
                if pd and cd:
                    comps[v] = Mat(
                        field,
                        cd,
                        pd,
                        [d.comps[v][cur_off[u_cur][v], prev_off[u_prev][v]]],
                    )
            block = ModMorphism(vprev, vj, comps, check=False)
            # h: V_{j_cur} -> M; one column per h
            composites.extend(h.compose(block) for h in homs_to_m(j_cur))
        x = _hom_coordinates(charts[j_prev], composites)
        if x is None:
            raise AssertionError("hom expansion failed in complex")
        row_blocks.append(x)
    return Mat.vstack(field, row_blocks, ncols=ncols)


def betti_via_koszul(module, interval, intervals=None, cat=None, max_len=None):
    """Betti numbers of M at I as homology dimensions of the Koszul complex."""
    if cat is None:
        cat = _shared_end_category(module.quiver, intervals, module.field)
    chain = koszul_complex(
        module.quiver, interval, module, cat.field, intervals, cat, max_len
    )
    return chain.homology_dims()


def betti_table_via_koszul(module, intervals=None, cat=None, max_len=None):
    """Full Betti table of M, one Koszul complex per family interval."""
    from intres.resolve import BettiTable

    if cat is None:
        cat = _shared_end_category(module.quiver, intervals, module.field)
    table = BettiTable()
    for interval in cat.objects:
        chain = koszul_complex(
            module.quiver, interval, module, cat.field, cat=cat, max_len=max_len
        )
        for i, h in enumerate(chain.homology_dims()):
            if h:
                table.add(i, interval, h)
    return table


def with_cancelling_pair(cochain, degree, interval, field):
    """A homotopy-equivalent cochain with V_J added in degrees d and d+1 and
    an identity block between the copies (for invariance tests)."""
    quiver = interval.quiver
    terms = [list(t) for t in cochain.terms]
    while len(terms) <= degree + 1:
        terms.append([])
    terms[degree] = terms[degree] + [interval]
    terms[degree + 1] = terms[degree + 1] + [interval]
    vj = interval_module(quiver, interval, field)
    term_modules = []
    for tags in terms:
        mods = [interval_module(quiver, j, field) for j in tags]
        if len(mods) == 1:
            term_modules.append(mods[0])
        elif mods:
            term_modules.append(direct_sum(mods).module)
        else:
            term_modules.append(zero_module(quiver, field))
    diffs = []
    ndiff = len(terms) - 1
    for i in range(ndiff):
        comps = {}
        for v in quiver.vertices:
            rows = term_modules[i + 1].dims[v]
            cols = term_modules[i].dims[v]
            m = Mat.zeros(field, rows, cols)
            # copy old block
            if i < len(cochain.diffs):
                old = cochain.diffs[i].comps[v]
                for r in range(old.nrows):
                    for c in range(old.ncols):
                        m.data[r * cols + c] = old[r, c]
            # identity between the added copies: last column block of source
            # at degree `degree` maps to last row block at degree+1
            if i == degree and vj.dims[v]:
                m.data[(rows - 1) * cols + (cols - 1)] = field.one()
            comps[v] = m
        diffs.append(
            ModMorphism(term_modules[i], term_modules[i + 1], comps, check=True)
        )
    return IntervalCochain(cochain.interval, terms, term_modules, diffs)


# ---- lattice-indexed constructions -----------------------------------------------


class LatticeModule:
    """Spaces over a poset's elements with maps going DOWN along covers.

    `down[(a, b)]`: matrix M(b) -> M(a) for each cover a < b.  Functoriality
    (path independence) is validated by reusing the quiver machinery on the
    opposite Hasse diagram.
    """

    def __init__(self, poset, dims, down, field, check=True):
        self.poset = poset
        self.field = field
        self.dims = {a: int(dims.get(a, 0)) for a in poset.elements}
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
        self._op_module = self._as_op_representation(check)

    def _as_op_representation(self, check):
        names = {a: f"x{idx}" for idx, a in enumerate(self.poset.elements)}
        arrows = []
        arrow_of = {}
        for idx, (a, b) in enumerate(self.poset.covers()):
            arrows.append((f"d{idx}", names[b], names[a]))
            arrow_of[(a, b)] = f"d{idx}"
        q = BoundQuiver([names[a] for a in self.poset.elements], arrows)
        dims = {names[a]: self.dims[a] for a in self.poset.elements}
        maps = {arrow_of[(a, b)]: self.down[(a, b)] for (a, b) in self.down}
        self._names = names
        return PersModule(q, self.field, dims, maps, check=check)

    def dim(self, a):
        return self.dims[a]

    def path_down(self, top, bottom):
        """Composite of down maps along any path top -> ... -> bottom."""
        return self._op_module.path_map(self._names[top], self._names[bottom])


def _bounded_cover_subsets(poset, a, size):
    from itertools import combinations

    covers = poset.covers_of(a)
    out = []
    for s in combinations(covers, size):
        if poset.upper_bounds(s):
            out.append(tuple(s))
    return out


def semilattice_koszul_complex(poset, a, lat_module):
    """The cover-subset complex of a lattice module at element a.

    Degree i sums M(join(S)) over size-i bounded subsets S of the covers of
    a (with join(empty) = a); the differential entry from S to T = S minus
    one element carries the sign (-1)^(position of the removed element) and
    the down map from join(S) to join(T).
    """
    field = lat_module.field
    covers = poset.covers_of(a)
    max_deg = len(covers)
    subsets_by_deg = []
    joins_by_deg = []
    for i in range(0, max_deg + 1):
        if i == 0:
            subsets_by_deg.append([()])
            joins_by_deg.append([a])
            continue
        subs = _bounded_cover_subsets(poset, a, i)
        joins = []
        for s in subs:
            j = poset.join(list(s))
            if j is None:
                raise ValueError(
                    f"cover subset {s!r} of {a!r} is bounded but has no join; "
                    "the poset is not a lower semilattice in the needed sense"
                )
            joins.append(j)
        subsets_by_deg.append(subs)
        joins_by_deg.append(joins)
    dims = [
        sum(lat_module.dim(j) for j in joins)
        for joins in joins_by_deg
    ]
    mats = []
    for i in range(1, max_deg + 1):
        rows = sum(lat_module.dim(j) for j in joins_by_deg[i - 1])
        cols = sum(lat_module.dim(j) for j in joins_by_deg[i])
        m = Mat.zeros(field, rows, cols)
        row_off = []
        acc = 0
        for j in joins_by_deg[i - 1]:
            row_off.append(acc)
            acc += lat_module.dim(j)
        col_off = []
        acc = 0
        for j in joins_by_deg[i]:
            col_off.append(acc)
            acc += lat_module.dim(j)
        for ci, s in enumerate(subsets_by_deg[i]):
            s_join = joins_by_deg[i][ci]
            for ri, t in enumerate(subsets_by_deg[i - 1]):
                if not set(t) <= set(s):
                    continue
                removed = [x for x in s if x not in t]
                if len(removed) != 1:
                    continue
                sign = (-1) ** list(s).index(removed[0])
                t_join = joins_by_deg[i - 1][ri]
                pathm = lat_module.path_down(s_join, t_join)
                if pathm is None:
                    raise AssertionError("join of a subset not above join of sub-subset")
                block = pathm if sign > 0 else -pathm
                for r in range(block.nrows):
                    for c in range(block.ncols):
                        m.data[(row_off[ri] + r) * cols + (col_off[ci] + c)] = block[
                            r, c
                        ]
        mats.append(m)
    # trim trailing zero degrees for a tidy chain (keep degree 0 always)
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
        mats.pop()
    return VecChain(dims, mats)


@dataclass
class LatticeGauge:
    """Fixed isomorphism between a lattice's incidence category and the full
    subcategory on a family of interval modules: one morphism p[a][b] per
    related pair a <= b, compatible with composition."""

    poset: object
    labelling: dict  # lattice element -> Interval
    p: dict  # (a, b) -> ModMorphism V_{I_a} -> V_{I_b}


def build_lattice_gauge(poset, labelling, field):
    """Check the hom pattern matches the lattice and fix reference morphisms.

    dim Hom(V_{I_a}, V_{I_b}) must be 1 when a <= b and 0 otherwise; the
    bottom element provides reference morphisms along which all p_{a,b} are
    normalized, making compatibility with composition automatic.
    """
    elements = poset.elements
    if len(set(labelling[a] for a in elements)) != len(elements):
        raise ValueError("labelling must be injective")
    sample = labelling[elements[0]]
    quiver = sample.quiver
    comp_cache = {}

    def comps(a, b):
        key = (a, b)
        if key not in comp_cache:
            comp_cache[key] = good_components(quiver, labelling[a], labelling[b])
        return comp_cache[key]

    for a in elements:
        for b in elements:
            want = 1 if poset.leq(a, b) else 0
            if len(comps(a, b)) != want:
                raise ValueError(
                    "hom pattern does not match the lattice: "
                    f"dim Hom at ({a!r}, {b!r}) is {len(comps(a, b))}, "
                    f"expected {want}"
                )
    bottom = poset.bottom()
    if bottom is None:
        raise ValueError("the poset has no bottom element")

    def basis_morphism(a, b):
        return component_morphism(
            quiver, labelling[a], labelling[b], comps(a, b)[0], field
        )

    # reference morphisms from the bottom, along arbitrary cover chains
    r = {bottom: basis_morphism(bottom, bottom)}
    order = sorted(
        elements, key=lambda e: (sum(1 for x in elements if poset.lt(x, e)),
                                 poset.index(e))
    )
    for e in order:
        if e == bottom:
            continue
        below = [x for x in elements if poset.lt(x, e) and x in r]
        if not below:
            raise ValueError(f"element {e!r} is not above the bottom")
        x = below[-1]
        cand = basis_morphism(x, e).compose(r[x])
        if cand.is_zero():
            raise ValueError(
                "reference morphism vanishes; hom pattern does not compose "
                "like the lattice"
            )
        r[e] = cand
    p = {}
    for a in elements:
        for b in elements:
            if not poset.leq(a, b):
                continue
            cand = basis_morphism(a, b)
            if cand.compose(r[a]) != r[b]:
                raise ValueError(
                    f"basis morphism at ({a!r}, {b!r}) is not compatible "
                    "with the reference normalization"
                )
            p[(a, b)] = cand
    return LatticeGauge(poset, dict(labelling), p)


def formal_koszul_coresolution(poset, a, embedding, field=None, gauge=None):
    """Closed-form coresolution of V_{I_a} from cover subsets and joins.

    `embedding` maps lattice elements to intervals; degree i sums V at the
    joins of size-i bounded subsets of covers of a; differential entries
    chi(T subset S) * (-1)^(removed position) * p.  Requires the hom
    pattern of the embedded family to match the lattice.
    """
    if field is None:
        from intres.exactla import QQ

        field = QQ
    if gauge is None:
        gauge = build_lattice_gauge(poset, embedding, field)
    covers = poset.covers_of(a)
    quiver = embedding[a].quiver

    subsets_by_deg = [[()]]
    joins_by_deg = [[a]]
    for i in range(1, len(covers) + 1):
        subs = _bounded_cover_subsets(poset, a, i)
        joins = []
        for s in subs:
            j = poset.join(list(s))
            if j is None:
                raise ValueError(
                    f"cover subset {s!r} has no join in the lattice"
                )
            joins.append(j)
        if not subs:
            break
        subsets_by_deg.append(subs)
        joins_by_deg.append(joins)
    terms = [[embedding[j] for j in joins] for joins in joins_by_deg]
    term_modules = []
    for tags in terms:
        mods = [interval_module(quiver, j, field) for j in tags]
        if len(mods) == 1:
            term_modules.append(mods[0])
        else:
            term_modules.append(direct_sum(mods).module)
    diffs = []
    for i in range(1, len(terms)):
        src = term_modules[i - 1]
        tgt = term_modules[i]
        comps = {}
        prev_mods = [interval_module(quiver, j, field) for j in terms[i - 1]]
        cur_mods = [interval_module(quiver, j, field) for j in terms[i]]
        for v in quiver.vertices:
            grid = []
            for ci_new, s in enumerate(subsets_by_deg[i]):
                row = []
                for ci_prev, t in enumerate(subsets_by_deg[i - 1]):
                    new_d = cur_mods[ci_new].dims[v]
                    prev_d = prev_mods[ci_prev].dims[v]
                    block = Mat.zeros(field, new_d, prev_d)
                    if set(t) <= set(s) and len(s) - len(t) == 1:
                        removed = [x for x in s if x not in t][0]
                        sign = (-1) ** list(s).index(removed)
                        pm = gauge.p[
                            (joins_by_deg[i - 1][ci_prev], joins_by_deg[i][ci_new])
                        ]
                        if new_d and prev_d:
                            val = pm.comps[v][0, 0]
                            if sign < 0:
                                val = -val if field.kind == "Q" else (-val) % field.p
                            block = Mat(field, 1, 1, [val])
                    row.append(block)
                grid.append(row)
            comps[v] = Mat.block(field, grid)
        diffs.append(ModMorphism(src, tgt, comps, check=True))
    cochain = IntervalCochain(embedding[a], terms, term_modules, diffs)
    for d in range(len(cochain.diffs) - 1):
        if not cochain.diffs[d + 1].compose(cochain.diffs[d]).is_zero():
            raise AssertionError("formal cochain differentials do not square to zero")
    return cochain


def lattice_module_from_persistence(gauge, module):
    """Spaces Hom(V_{I_a}, M) with down-maps by precomposition with p.

    This is the bridge along which lattice-level homology computes the
    family-relative Betti numbers of the persistence module."""
    poset = gauge.poset
    field = module.field
    quiver = module.quiver
    homs = {
        a: hom_basis(
            interval_module(quiver, gauge.labelling[a], field), module
        )
        for a in poset.elements
    }
    dims = {a: len(homs[a]) for a in poset.elements}
    down = {}
    for (a, b) in poset.covers():
        if dims[a] == 0 or dims[b] == 0:
            continue
        composites = [h.compose(gauge.p[(a, b)]) for h in homs[b]]
        x = _hom_coordinates(_hom_chart(field, homs[a]), composites)
        if x is None:
            raise AssertionError("precomposition left the hom space")
        down[(a, b)] = x
    return LatticeModule(poset, dims, down, field)
