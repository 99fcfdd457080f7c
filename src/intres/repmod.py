"""Pointwise finite-dimensional representations of a Hasse quiver.

A `PersModule` assigns a finite-dimensional space to every vertex and a
matrix to every arrow, with all parallel paths agreeing (full commutativity).
A `ModMorphism` is a vertex-indexed family of matrices natural in the arrows.

Thin indecomposables supported on intervals (`interval_module`) have hom
spaces with a purely combinatorial basis (`good_components`), which the
resolution and Koszul machinery exploit heavily.  A space Hom(V_J, M) is
solved from the sources of J alone, off a table of the module's path maps
that one call builds and reads for every interval it asks about
(`SourceSolves`): both routes compute their hom spaces that way, and
`tda` its hom dimensions and limits.  A lone space is solved on a table
of its own, `SourceSolves(M).hom_basis(J)`.  The general `hom_basis`
solves the full naturality system and is kept as the reference it is
tested against.

An `IntervalFamily` is the combinatorial workspace of a family of
intervals over one field: its members, their vertex bitmasks, its hom
table (the good components of every pair, as bitmasks), its table of
irreducible maps and its containment structure.  Both routes and `tda`
read it, and it is the category the Koszul route resolves in, holding
that route's coresolutions; the family of all intervals of a quiver is
held by the quiver, once per field.
Both routes report in a `BettiTable` and raise `MaxLengthExceeded`, kept
here so that neither route imports the other.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType

from intres.exactla import Mat
from intres.poset import Interval, enumerate_intervals


class CommutativityError(ValueError):
    """Two parallel paths of the quiver act differently."""


def dimension_vector(dims, keys, noun):
    """{key: dims.get(key, 0)} over `keys`.  ValueError, naming the `noun`
    and the key, on a dimension that is not an int (1.7 or "2" is not
    truncated or parsed), on a negative one, and on one given for a key
    outside `keys`."""
    out = {}
    for key in keys:
        d = dims.get(key, 0)
        if not isinstance(d, int):
            raise ValueError(f"dimension at {noun} {key!r} is {d!r}, not an int")
        if d < 0:
            raise ValueError(f"negative dimension at {noun} {key!r}")
        out[key] = d
    for key in dims:
        if key not in out:
            raise ValueError(f"dimension given for unknown {noun} {key!r}")
    return out


class PersModule:
    """A representation: spaces over vertices, matrices along arrows.

    `maps[a]` has shape dims[tgt] x dims[src] for an arrow a: src -> tgt and
    sends column vectors at src to column vectors at tgt.  Omitted arrows get
    zero matrices.
    """

    __slots__ = ("quiver", "field", "dims", "maps")

    def __init__(self, quiver, field, dims, maps=None, check=True):
        self.quiver = quiver
        self.field = field
        self.dims = dimension_vector(dims, quiver.vertices, "vertex")
        maps = maps or {}
        for a in maps:
            if a not in quiver.arrows:
                raise ValueError(f"matrix given for unknown arrow {a!r}")
        self.maps = {}
        for a, (src, tgt) in quiver.arrows.items():
            want = (self.dims[tgt], self.dims[src])
            m = maps.get(a)
            if m is None:
                m = Mat.zeros(field, *want)
            elif not isinstance(m, Mat):
                m = Mat.from_rows(field, m, ncols=want[1])
            if m.shape != want:
                raise ValueError(
                    f"matrix for arrow {a!r} has shape {m.shape}, expected {want}"
                )
            if m.field != field:
                raise ValueError(f"matrix for arrow {a!r} is over the wrong field")
            self.maps[a] = m
        if check:
            self.validate_commutativity()

    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return self.total_dim() == 0

    def validate_commutativity(self):
        """Check every pair of parallel paths acts identically.

        Walks vertices in topological order from each start vertex
        (`_paths_from`), keeping the matrix of the first path found; every
        additional arrow into an already-reached vertex must reproduce the
        stored matrix.
        """
        for u in self.quiver.topological_order():
            _paths_from(self, u, check=True)
        return True

    def path_map(self, u, v):
        """Matrix of any directed path u -> v (all agree); None if u !<= v."""
        return _paths_from(self, u).get(v)

    def dual(self):
        """D = Hom_k(-, k): the same spaces over the opposite quiver, every
        map transposed."""
        maps = {a: m.transpose() for a, m in self.maps.items()}
        return PersModule(
            self.quiver.opposite(), self.field, self.dims, maps, check=False
        )

    def __eq__(self, other):
        return (
            isinstance(other, PersModule)
            and self.quiver == other.quiver
            and self.field == other.field
            and self.dims == other.dims
            and all(self.maps[a] == other.maps[a] for a in self.maps)
        )

    def __repr__(self):
        dims = " ".join(f"{v}:{self.dims[v]}" for v in self.quiver.vertices)
        return f"PersModule({dims})"


def _paths_from(module, u, check=False):
    """{v: M(u -> v)} over the vertices v >= u, a fresh dict: walking the
    quiver in topological order, each vertex gets the product along the
    first arrow found into it.  With `check`, every further arrow into a
    reached vertex must give the same product, else CommutativityError."""
    q, maps = module.quiver, module.maps
    paths = {u: Mat.identity(module.field, module.dims[u])}
    for w in q.topological_order():
        pw = paths.get(w)
        if pw is None:
            continue
        for a, x in q._succ[w]:
            if x not in paths:
                paths[x] = maps[a] * pw
            elif check and paths[x] != maps[a] * pw:
                raise CommutativityError(f"paths from {u!r} to {x!r} do not commute")
    return paths


def zero_module(quiver, field):
    return PersModule(quiver, field, {}, {}, check=False)


def interval_module(quiver, interval, field):
    """The thin representation: k on the interval, identity inner arrows."""
    if not isinstance(interval, Interval):
        interval = Interval(quiver, interval)
    dims = {v: 1 for v in interval.vertices}
    one = field.one()
    maps = {}
    for a in interval.arrows():
        maps[a] = Mat(field, 1, 1, [one])
    return PersModule(quiver, field, dims, maps, check=False)


class ModMorphism:
    """A morphism of representations: one matrix per vertex, natural in arrows."""

    __slots__ = ("src", "tgt", "comps")

    def __init__(self, src, tgt, comps=None, check=True):
        if src.quiver != tgt.quiver:
            raise ValueError("morphism endpoints live on different quivers")
        if src.field != tgt.field:
            raise ValueError("morphism endpoints live over different fields")
        self.src = src
        self.tgt = tgt
        comps = comps or {}
        self.comps = {}
        for v in src.quiver.vertices:
            want = (tgt.dims[v], src.dims[v])
            m = comps.get(v)
            if m is None:
                m = Mat.zeros(src.field, *want)
            elif not isinstance(m, Mat):
                m = Mat.from_rows(src.field, m, ncols=want[1])
            if m.shape != want:
                raise ValueError(
                    f"component at {v!r} has shape {m.shape}, expected {want}"
                )
            self.comps[v] = m
        if check:
            self.validate_naturality()

    @property
    def field(self):
        return self.src.field

    def validate_naturality(self):
        for a, (u, v) in self.src.quiver.arrows.items():
            lhs = self.tgt.maps[a] * self.comps[u]
            rhs = self.comps[v] * self.src.maps[a]
            if lhs != rhs:
                raise ValueError(f"naturality fails along arrow {a!r}")
        return True

    # ---- algebra ---------------------------------------------------------

    def __add__(self, other):
        self._check_parallel(other)
        return ModMorphism(
            self.src,
            self.tgt,
            {v: self.comps[v] + other.comps[v] for v in self.comps},
            check=False,
        )

    def scale(self, c):
        return ModMorphism(
            self.src,
            self.tgt,
            {v: self.comps[v].scale(c) for v in self.comps},
            check=False,
        )

    def compose(self, first):
        """self o first, where first: A -> self.src."""
        if first.tgt is not self.src and first.tgt != self.src:
            raise ValueError("composition endpoints do not match")
        return ModMorphism(
            first.src,
            self.tgt,
            {v: self.comps[v] * first.comps[v] for v in self.comps},
            check=False,
        )

    def is_zero(self):
        return all(m.is_zero() for m in self.comps.values())

    def is_mono(self):
        return all(
            self.comps[v].rank() == self.src.dims[v] for v in self.comps
        )

    def is_epi(self):
        return all(
            self.comps[v].rank() == self.tgt.dims[v] for v in self.comps
        )

    def is_iso(self):
        """Square at every vertex, and mono: one rank per vertex, if any."""
        return self.src.dims == self.tgt.dims and self.is_mono()

    def dual(self):
        """Df: D(tgt) -> D(src), every component transposed."""
        comps = {v: m.transpose() for v, m in self.comps.items()}
        return ModMorphism(self.tgt.dual(), self.src.dual(), comps, check=False)

    def flat(self):
        """All entries as one list: vertices in quiver order, row-major."""
        out = []
        for v in self.src.quiver.vertices:
            out.extend(self.comps[v].data)
        return out

    @classmethod
    def from_flat(cls, src, tgt, coords):
        comps = {}
        pos = 0
        for v in src.quiver.vertices:
            n = tgt.dims[v] * src.dims[v]
            comps[v] = Mat(src.field, tgt.dims[v], src.dims[v], list(coords[pos : pos + n]))
            pos += n
        if pos != len(coords):
            raise ValueError("flat coordinate vector has wrong length")
        return cls(src, tgt, comps, check=False)

    def _check_parallel(self, other):
        if self.src != other.src or self.tgt != other.tgt:
            raise ValueError("morphisms are not parallel")

    def __eq__(self, other):
        return (
            isinstance(other, ModMorphism)
            and self.src == other.src
            and self.tgt == other.tgt
            and all(self.comps[v] == other.comps[v] for v in self.comps)
        )

    def __repr__(self):
        return f"ModMorphism({self.src!r} -> {self.tgt!r})"


def identity_morphism(m):
    return ModMorphism(
        m,
        m,
        {v: Mat.identity(m.field, m.dims[v]) for v in m.quiver.vertices},
        check=False,
    )


# ---- hom spaces -------------------------------------------------------------


def hom_basis(m, n):
    """Basis of the space of morphisms m -> n, by exact linear algebra.

    Unknowns are all component entries; one linear block per arrow encodes
    naturality.  Returns ModMorphisms in the canonical kernel-basis order;
    their `flat()` vectors are that kernel basis, so `Mat.free_columns` and
    `Mat.coordinates` read coordinates in it.  The library solves the
    spaces Hom(V_J, M) with `SourceSolves.hom_basis`; this general solver
    is the reference that it must reproduce.
    """
    if m.quiver != n.quiver or m.field != n.field:
        raise ValueError("hom endpoints do not match")
    field = m.field
    q = m.quiver
    offsets = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    if total == 0:
        return []
    rows = []
    zero = field.zero()
    for a, (u, v) in q.arrows.items():
        na = n.maps[a]
        ma = m.maps[a]
        # equation block: n(a) * f_u - f_v * m(a) = 0, entrywise (i, j)
        for i in range(n.dims[v]):
            for j in range(m.dims[u]):
                row = [zero] * total
                # (n(a) f_u)[i, j] = sum_s n(a)[i, s] f_u[s, j]
                for s in range(n.dims[u]):
                    c = na[i, s]
                    if c:
                        row[offsets[u] + s * m.dims[u] + j] = c
                # (f_v m(a))[i, j] = sum_t f_v[i, t] m(a)[t, j]
                for t in range(m.dims[v]):
                    c = ma[t, j]
                    if c:
                        idx = offsets[v] + i * m.dims[v] + t
                        row[idx] = row[idx] - c if field.kind == "Q" else (row[idx] - c) % field.p
                if any(row):
                    rows.append(row)
    if not rows:
        sys = Mat.zeros(field, 0, total)
    else:
        sys = Mat(field, len(rows), total, [x for r in rows for x in r])
    basis = sys.kernel_basis()
    return [ModMorphism.from_flat(m, n, vec) for vec in basis]


class SourceSolves:
    """One call's table of the path maps of a module, and every hom space
    Hom(V_J, M), hom dimension and limit over an interval that the call
    asks for, solved from it.

    Every PersModule commutes (it is checked on construction, and kernels,
    cokernels, duals and sums keep that), so a family (x_v) over an
    interval J compatible along the arrows inside J is fixed by its values
    y_s at the sources s of J, the vertices with no arrow into them from
    inside J: x_v = P(s, v) y_s, P(s, v) = M(s -> v) the path map, for the
    source s = root(v) that the first arrow into v from inside J leads back
    to.  That value depends on (s, v) alone, not on J, so the table holds
    the path maps from a vertex s, built in one walk (`_paths_from`) the
    first time s is read, and every interval of the call reads them.  A
    table belongs to one call: nothing is held on the module, and two
    calls never share one.

    The families are the kernel of a small system in y: per further arrow
    u -> v inside J with root(u) != root(v), the rows [P(root(u), v) |
    -P(root(v), v)] (when the roots agree the rows vanish, by
    commutativity), once per (root(u), v).  Hom(V_J, M) adds, per arrow
    v -> w leaving J, the rows P(root(v), w), once per (root(v), w).  The
    limit of DM|_J over the opposite quiver is the mirror: unknowns at the
    sinks of J, values P(v, t)^T for the sink t that the first arrow out of
    v leads to.
    """

    __slots__ = ("module", "_paths")

    def __init__(self, module):
        self.module = module
        self._paths = {}

    def path(self, s, v):
        """P(s, v) = M(s -> v) for s <= v, from the walk from s."""
        paths = self._paths.get(s)
        if paths is None:
            paths = self._paths[s] = _paths_from(self.module, s)
        return paths[v]

    def _co_path(self, t, v):
        """DM(t -> v) = P(v, t)^T over the opposite quiver, for v <= t."""
        return self.path(v, t).transpose()

    def _order(self, interval):
        """The vertices of J in topological order.  An interval over
        another quiver raises ValueError, naming both (`_quiver_names`)."""
        q = self.module.quiver
        if interval.quiver is not q and interval.quiver != q:
            this, that = _quiver_names(interval.quiver, q)
            raise ValueError(
                f"the interval is over {this} but the module is over {that}"
            )
        inside = interval.vertex_set
        return [v for v in q.topological_order() if v in inside]

    def _system(self, interval, order, leaving=False, dual=False):
        """(system, root, start) for the families over J, whose vertices in
        topological order are `order`: the rows above in the values at J's
        sources (at its sinks if `dual`), with the rows of the arrows
        leaving J if `leaving`; root[v] the source (sink) that v's value is
        read from, start[s] where the unknowns of s begin.  None when the
        sources (sinks) carry no unknown."""
        module = self.module
        q, dims = module.quiver, module.dims
        inside = interval.vertex_set
        if dual:
            order = order[::-1]
            before, path = q._succ, self._co_path
        else:
            before, path = q._pred, self.path
        root, start, n, blocks = {}, {}, 0, {}
        for v in order:
            prior = [u for _, u in before[v] if u in inside]
            if not prior:
                root[v], start[v] = v, n
                n += dims[v]
                continue
            s = root[v] = root[prior[0]]
            for u in prior[1:]:
                r = root[u]
                if r != s and (r, v) not in blocks:
                    blocks[r, v] = ((r, path(r, v)), (s, -path(s, v)))
        if n == 0:
            return None
        if leaving:
            for v in order:
                s = root[v]
                for _, w in q._succ[v]:
                    if w not in inside and (s, w) not in blocks:
                        blocks[s, w] = ((s, path(s, w)),)
        zero, data, nrows = module.field.zero(), [], 0
        for parts in blocks.values():
            height = parts[0][1].nrows
            for i in range(height):
                row = [zero] * n
                for r, m in parts:
                    row[start[r] : start[r] + m.ncols] = m.row(i)
                data.extend(row)
            nrows += height
        return Mat(module.field, nrows, n, data), root, start

    def hom_basis(self, interval):
        """Basis of Hom(V_J, M) for an interval J, as flat vectors: the
        dim M_v entries of each vertex v of J, vertices in quiver order
        (`flat_offsets`), the layout of `ModMorphism.flat`.

        A morphism V_J -> M is a family (x_v) over J compatible along the
        arrows inside J with M(a) x_v = 0 along each arrow a leaving J.  The
        kernel of the system in the values at the sources is carried to
        every vertex v with one product P(root(v), v), and brought into
        `kernel_basis`'s canonical form (the RREF of the flat vectors with
        the column order reversed, read back in reverse), which depends
        only on the space.  The result therefore equals the `flat()`
        vectors of `hom_basis(interval_module(q, J, k), M)`, in order, and
        `Mat.free_columns` reads coordinates in it.  No morphism is built:
        `ModMorphism.from_flat(interval_module(q, J, k), M, vec)` recovers
        one.

        Over the opposite quiver, as for the dual module of a coresolution,
        the sources of J are its sinks in the original quiver.
        """
        solved = self._system(interval, self._order(interval), leaving=True)
        if solved is None:
            return []
        system, root, start = solved
        kernel = system.kernel_basis()
        if not kernel:
            return []
        field, dims = self.module.field, self.module.dims
        at = {s: _rows_of(field, kernel, a, dims[s]) for s, a in start.items()}
        blocks = [
            at[v] if root[v] == v else self.path(root[v], v) * at[root[v]]
            for v in reversed(interval.vertices)
        ]
        width = sum(b.nrows for b in blocks)
        flipped = [
            x
            for j in range(len(kernel))
            for b in blocks
            for x in reversed(b.col(j))
        ]
        red, _ = Mat(field, len(kernel), width, flipped).rref()
        return [red.row(i)[::-1] for i in reversed(range(red.nrows))]

    def hom_dim(self, interval):
        """dim Hom(V_J, M): the nullity of `hom_basis`'s system, with no
        basis built."""
        solved = self._system(interval, self._order(interval), leaving=True)
        if solved is None:
            return 0
        system = solved[0]
        return system.ncols - system.rank()

    def limits(self, interval):
        """(x, phi): the values at one vertex v of I, of least dim M_v, of
        a basis of lim M|_I and of one of lim DM|_I over the opposite
        quiver, each as the columns of a matrix; None when either limit is
        zero, as it is when M_v = 0.  No dual module is built."""
        order = self._order(interval)
        field, dims = self.module.field, self.module.dims
        v = min(order, key=dims.__getitem__)
        if dims[v] == 0:
            return None
        ends = []
        for dual, path in ((False, self.path), (True, self._co_path)):
            system, root, start = self._system(interval, order, dual=dual)
            kernel = system.kernel_basis()
            if not kernel:
                return None
            s = root[v]
            at = _rows_of(field, kernel, start[s], dims[s])
            ends.append(at if s == v else path(s, v) * at)
        return tuple(ends)


def _quiver_names(mine, theirs):
    """The reprs of two quivers (or fields) that differ; where two quivers'
    read alike (a repr counts vertices and arrows), one is marked as the
    opposite quiver, else by the first arrow the other lacks, else by vertices."""
    names = [repr(mine), repr(theirs)]
    if names[0] != names[1]:
        return names
    if mine == theirs.opposite():
        return [f"{names[0]} (the opposite quiver)", names[1]]
    for side, (q, other) in enumerate(((mine, theirs), (theirs, mine))):
        for a, (src, tgt) in q.arrows.items():
            if other.arrows.get(a) != (src, tgt):
                names[side] += f" (which has arrow {a!r}: {src!r} -> {tgt!r})"
                return names
    return [f"{n} (on vertices {q.vertices!r})" for n, q in zip(names, (mine, theirs))]


def _rows_of(field, vectors, start, count):
    """The rows start .. start + count - 1 of the matrix whose columns are
    `vectors`."""
    return Mat.from_columns(field, [x[start : start + count] for x in vectors], count)


def flat_offsets(interval, dims):
    """Where the entries of each vertex v of J start in a flat vector of
    Hom(V_J, M) (`SourceSolves.hom_basis`), with `dims` those of M, and
    the vector's length."""
    offsets, width = {}, 0
    for v in interval.vertices:
        offsets[v] = width
        width += dims[v]
    return offsets, width


def good_components(quiver, i_interval, j_interval):
    """Combinatorial basis of Hom(V_I, V_J) for intervals I, J.

    Returns the connected components C of I&J (connectivity through cover
    arrows inside I&J) such that no cover leaves C into J\\I and no cover
    enters C from I\\J; the indicator of each such C is a morphism, and
    together they form a basis.  Components are returned as frozensets,
    sorted by their vertex index tuples.
    """
    iset = i_interval.vertex_set
    jset = j_interval.vertex_set
    meet = iset & jset
    if not meet:
        return []
    # split meet into components
    comps = []
    todo = set(meet)
    while todo:
        start = next(iter(todo))
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for _, w in quiver.arrows_from(v):
                if w in meet and w not in comp:
                    comp.add(w)
                    stack.append(w)
            for _, w in quiver.arrows_into(v):
                if w in meet and w not in comp:
                    comp.add(w)
                    stack.append(w)
        todo -= comp
        comps.append(frozenset(comp))
    good = []
    for comp in comps:
        ok = True
        for v in comp:
            for _, w in quiver.arrows_from(v):
                if w in jset and w not in iset:
                    ok = False
                    break
            if not ok:
                break
            for _, w in quiver.arrows_into(v):
                if w in iset and w not in jset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            good.append(comp)
    vindex = quiver._vindex
    good.sort(key=lambda c: tuple(sorted(vindex[v] for v in c)))
    return good


def component_morphism(quiver, i_interval, j_interval, component, field):
    """The hom-basis morphism V_I -> V_J that is 1 on a good component."""
    vi = interval_module(quiver, i_interval, field)
    vj = interval_module(quiver, j_interval, field)
    one = field.one()
    comps = {v: Mat(field, 1, 1, [one]) for v in component}
    return ModMorphism(vi, vj, comps, check=False)


def _bits(mask):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _hom_table(quiver, masks):
    """The hom spaces of the family whose members have the vertex bitmasks
    `masks`, as out-adjacency: row s is a read-only mapping {t: components},
    t increasing, over every t with Hom(V_{I_s}, V_{I_t}) != 0, s included;
    the components are the good components of I_s & I_t (see
    `good_components`) as vertex bitmasks, in `good_components` order.

    Each distinct meet I_s & I_t is split into components once; a component
    C is good (a basis map) when no arrow leaves it into I_t \\ I_s and none
    enters it from I_s \\ I_t.  Components are disjoint, so ordering them by
    lowest bit is `good_components`' order.
    """
    index = quiver._vindex
    succ = [sum(1 << index[w] for _, w in quiver._succ[v]) for v in quiver.vertices]
    pred = [sum(1 << index[w] for _, w in quiver._pred[v]) for v in quiver.vertices]

    split = {}  # meet -> [(component, arrow targets, arrow sources)]

    def components(meet):
        parts = []
        rest = meet
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                reach = 0
                for i in _bits(frontier):
                    reach |= succ[i] | pred[i]
                frontier = reach & meet & ~comp
                comp |= frontier
            out = into = 0
            for i in _bits(comp):
                out |= succ[i]
                into |= pred[i]
            parts.append((comp, out, into))
            rest &= ~comp
        split[meet] = parts
        return parts

    containing = _containing(len(quiver.vertices), masks)
    table = []
    for ms in masks:
        meeting = 0
        for i in _bits(ms):
            meeting |= containing[i]
        row = {}
        for t in _bits(meeting):
            mt = masks[t]
            meet = ms & mt
            good = tuple(
                comp
                for comp, out, into in split.get(meet) or components(meet)
                if not out & mt & ~ms and not into & ms & ~mt
            )
            if good:
                row[t] = good
        table.append(MappingProxyType(row))
    return tuple(table)


def _containing(nvertices, masks):
    """Per vertex i, the members containing it: bit r is set when bit i of
    masks[r] is."""
    containing = [0] * nvertices
    for r, mr in enumerate(masks):
        for i in _bits(mr):
            containing[i] |= 1 << r
    return containing


def _irreducible_table(quiver, hom, field):
    """The irreducible maps of the family whose hom spaces are `hom` (the
    family's `hom_table` over `quiver`), as out-adjacency: entry s lists
    the pairs (t, k), t increasing, see `IntervalFamily.irreducible_maps`.

    The composite of the basis maps on C1 (s -> r) and C2 (r -> t) is the
    sum of the basis maps of hom(s, t) on the components inside C1 & C2, so
    these sums span rad^2(s, t).  The basis map on a component that is a
    member is one of them.  Let C be a good component of I_s & I_t that is
    a member I_r, r != s, t:
    - I_s & I_r = C is connected;
    - no arrow enters C from I_s \\ I_r: goodness for (s, t) rules out
      I_s \\ I_t, and C is a whole component of I_s & I_t; no arrow leaves
      C into I_r \\ I_s, which is empty;
    - so C is the good component of hom(s, r), and in the same way of
      hom(r, t);
    - the composite of those two basis maps is the indicator of C, so the
      basis map on C lies in rad^2(s, t).
    A hom space of dimension >= 2 has no component equal to I_s or I_t:
    either would make I_s & I_t that one connected set.  Every good
    component is an interval, so over the family of all intervals every
    multi-dimensional pair is settled without a search.

    Per pair s != t the composites start as the unit vectors of the
    components that are members other than I_s and I_t.  The members r
    with hom(s, r) and hom(r, t) nonzero add their sums until every unit
    vector is a composite.  The listed maps complete the composites to a
    basis: none when every unit is one, all when there is no composite,
    and the unit columns that are pivots of [composites | I] otherwise.
    """
    # I_s is connected, so hom(s, s) has one good component: I_s itself
    position = {row[s][0]: s for s, row in enumerate(hom)}
    into_members = [0] * len(hom)  # bit s of into_members[t]: hom(s, t) != 0
    for s, row in enumerate(hom):
        for t in row:
            into_members[t] |= 1 << s
    table = []
    for s, hom_s in enumerate(hom):
        maps = []
        table.append(maps)
        out_members = sum(1 << t for t in hom_s)
        for t, target in hom_s.items():
            if t == s:
                continue
            dim = len(target)
            units = [(k,) for k in range(dim)]
            composites = {
                (k,)
                for k, c in enumerate(target)
                if position.get(c) not in (None, s, t)
            }
            for r in _bits(out_members & into_members[t] & ~(1 << s | 1 << t)):
                if composites.issuperset(units):
                    break
                for c1 in hom_s[r]:
                    for c2 in hom[r][t]:
                        meet = c1 & c2
                        composites.add(
                            tuple(k for k, c in enumerate(target) if not c & ~meet)
                        )
            composites.discard(())
            if composites.issuperset(units):
                continue
            if not composites:
                maps.extend((t, k) for k in range(dim))
                continue
            cols = [
                [field.one() if k in cs else field.zero() for k in range(dim)]
                for cs in composites
            ]
            unit = Mat.identity(field, dim).rows()
            _, pivots = Mat.from_columns(field, cols + unit, dim).rref()
            maps.extend((t, p - len(cols)) for p in pivots if p >= len(cols))
    return tuple(map(tuple, table))


def _containment_table(masks):
    """The containment structure of the family whose members have the
    vertex bitmasks `masks`: per member s, its up-set, see
    `IntervalFamily.up_sets`."""
    return tuple(
        tuple(t for t, mt in enumerate(masks) if not ms & ~mt) for ms in masks
    )


def _transpose(table):
    """The out-adjacency of the reversed pairs, in the form of `table`: x at
    s in row t for every x at t in row s, s increasing.  The rows of a hom
    table are read-only mappings {t: components}, and so are those of its
    transpose; the rows of a table of irreducible maps are tuples of pairs
    (t, k), in which t repeats."""
    if table and isinstance(table[0], MappingProxyType):
        rows = [{} for _ in table]
        for s, row in enumerate(table):
            for t, x in row.items():
                rows[t][s] = x
        return tuple(map(MappingProxyType, rows))
    out = [[] for _ in table]
    for s, pairs in enumerate(table):
        for t, x in pairs:
            out[t].append((s, x))
    return tuple(map(tuple, out))


class IntervalFamily:
    """A family of intervals of one quiver over one field, the workspace
    that both Betti routes and `tda` read: the members in order (`objects`),
    each over `quiver` and no member twice, their vertex bitmasks (`masks`,
    sums of `bits`, bit i for the i-th vertex of the quiver), each member's
    position (`index`), and, each built on first use, the family's hom table
    (the good components of every nonzero hom space), its table of
    irreducible maps, read off the hom table, and its containment structure
    (the up-set of every member).  Members, bitmasks, tables and structure
    are tuples, the hom table's rows read-only mappings, so no caller can
    change what the next one reads.

    The family is also the endomorphism category that the Koszul route
    resolves in: one object per member, with hom(s, t) = Hom(V_{I_s},
    V_{I_t}) spanned by the indicators of its good components.  Both
    routes and `tda` read the one hom table (`hom_table`: its entries'
    lengths are the hom dimensions, and both routes read their bitmasks).
    The family also holds `coresolutions`, {member: its coresolution},
    which `koszul.koszul_coresolution` fills.

    The family of all intervals of a quiver comes from `of`, which the
    quiver holds per field, so every call over one quiver shares one
    enumeration, one table and one coresolution per member.  A family built
    from a plain list is held by whoever built it.

    `opposite` is the same family over the opposite quiver, the family
    that a coresolution resolves DM by: the same vertex sets in the same
    order.  Hom over the opposite quiver from V_J to V_I is
    Hom(V_I, V_J) on the same good components, so the two tables are
    transposes, and so are the two hom tables: whichever of the two
    families is asked first builds a table, and the other reads its
    transpose.
    """

    __slots__ = (
        "quiver", "field", "objects", "bits", "masks", "index", "coresolutions",
        "_hom", "_table", "_containment", "_op",
    )

    def __init__(self, quiver, intervals, field):
        self.quiver = quiver
        self.field = field
        self.objects = tuple(intervals)
        for iv in self.objects:
            if iv.quiver is not quiver and iv.quiver != quiver:
                raise ValueError(
                    f"the interval family member {iv!r} is over another quiver"
                )
        self.index = MappingProxyType({iv: s for s, iv in enumerate(self.objects)})
        if len(self.index) != len(self.objects):
            repeated = next(
                iv for s, iv in enumerate(self.objects) if self.index[iv] != s
            )
            raise ValueError(f"the interval family lists {repeated!r} more than once")
        bits = {v: 1 << i for i, v in enumerate(quiver.vertices)}
        self.bits = MappingProxyType(bits)
        self.masks = tuple(sum(bits[v] for v in iv.vertex_set) for iv in self.objects)
        self.coresolutions = {}
        self._hom = None
        self._table = None
        self._containment = None
        self._op = None

    @classmethod
    def of(cls, quiver, field):
        """All intervals of the quiver, as `enumerate_intervals` orders
        them, held by the quiver per field; when the opposite quiver holds
        its family already, this is that family's opposite."""
        held = quiver._families
        if field not in held:
            op = quiver.opposite()._families.get(field)
            if op is not None:
                held[field] = op.opposite()
            else:
                held[field] = cls(quiver, enumerate_intervals(quiver), field)
        return held[field]

    @classmethod
    def wrap(cls, family, quiver, field):
        """The family a call works over: `of(quiver, field)` when `family`
        is None, a plain list of intervals wrapped for this call alone, or
        an IntervalFamily, which must be over `quiver` and `field`."""
        if family is None:
            return cls.of(quiver, field)
        if not isinstance(family, cls):
            return cls(quiver, family, field)
        for mine, theirs in ((family.quiver, quiver), (family.field, field)):
            if mine is not theirs and mine != theirs:
                this, that = _quiver_names(mine, theirs)
                raise ValueError(f"the interval family is over {this}, not over {that}")
        return family

    def opposite(self):
        """The family over `quiver.opposite()`: each member rebound to the
        opposite quiver (`Interval.opposite`), in the same order.  Built
        once; its opposite is this family."""
        if self._op is None:
            op = IntervalFamily(
                self.quiver.opposite(),
                (iv.opposite() for iv in self.objects),
                self.field,
            )
            op._op = self
            self._op = op
        return self._op

    def hom_table(self):
        """The hom spaces of the family, as out-adjacency: row s is a
        read-only mapping {t: components}, t increasing, over every member
        t with hom(s, t) = Hom(V_{I_s}, V_{I_t}) nonzero, s included.  The
        components are the good components of I_s & I_t, a basis of
        hom(s, t), as a tuple of vertex bitmasks (`masks`) in
        `good_components` order.  Built on first use, as the transpose of
        the opposite family's table when that one is built already."""
        if self._hom is None:
            op = self._op
            if op is not None and op._hom is not None:
                self._hom = _transpose(op._hom)
            else:
                self._hom = _hom_table(self.quiver, self.masks)
        return self._hom

    def irreducible_maps(self):
        """The irreducible maps of the family, as out-adjacency: entry s
        lists the pairs (t, k), s != t indexing `objects` and t increasing.

        The listed k index basis maps of hom(s, t) =
        Hom(V_{I_s}, V_{I_t}), in `good_components` order, spanning a
        complement of rad^2(s, t): the span, over the field, of the
        composites of basis maps through every other member r.  End(V_I) =
        k and the radical is nilpotent, so every map between distinct
        members is a sum of composites of these: they are the arrows of the
        Gabriel quiver of the family (Auslander-Reiten-Smalo), and they
        alone span rad(V_I, M).

        A basis map whose component is a member other than I_s and I_t is
        a composite through that member (see `_irreducible_table`), so over
        the family of all intervals the members settle every pair with no
        elimination, and a rank is taken only where members are missing.
        Built on first use from `hom_table`, or as the transpose of the
        opposite family's table when that one is built already.
        """
        if self._table is None:
            op = self._op
            if op is not None and op._table is not None:
                self._table = _transpose(op._table)
            else:
                self._table = _irreducible_table(
                    self.quiver, self.hom_table(), self.field
                )
        return self._table

    def up_sets(self):
        """Per member s, the positions t of the members containing it, s
        included, t increasing: read off the bitmasks.  Built on first
        use."""
        if self._containment is None:
            self._containment = _containment_table(self.masks)
        return self._containment

    def hom_sums(self, weights):
        """H w: per member I, in family order, the sum over the members J
        of weights[J] dim hom(I, J), read off the hom table, for `weights`
        {member: weight}."""
        at = [(self.index[j], w) for j, w in weights.items() if w]
        return [
            sum(w * len(row[t]) for t, w in at if t in row)
            for row in self.hom_table()
        ]

    def require_hom_identity(self, table, hom_dims):
        """Raise AssertionError unless H chi = h at every member I, naming
        the first one, in family order, where it fails: chi(J) = sum_i
        (-1)^i table[i, J] for a `BettiTable` over the family, H(I, J) =
        dim hom(I, J) (`hom_sums`), and h(I) = hom_dims.get(I, 0), with
        `hom_dims` {J: dim Hom(V_J, M)}.  A relative resolution of M stays
        exact under Hom(V_I, -) for every member I (Auslander-Solberg), so
        its Betti table satisfies this."""
        chi = {}
        for (degree, j), mult in table.entries.items():
            chi[j] = chi.get(j, 0) + (-mult if degree % 2 else mult)
        for i, total in zip(self.objects, self.hom_sums(chi)):
            want = hom_dims.get(i, 0)
            if total != want:
                raise AssertionError(
                    f"H chi = h fails at {i!r}: H chi is {total}, "
                    f"dim Hom(V_I, M) is {want}"
                )


# ---- kernels and cokernels ---------------------------------------------------


@dataclass
class KernelResult:
    module: PersModule
    inclusion: ModMorphism


@dataclass
class CokernelResult:
    module: PersModule
    projection: ModMorphism


def kernel(f):
    """Kernel submodule of f: M -> N with its inclusion into M."""
    m = f.src
    field = f.field
    incls = {}
    free = {}
    dims = {}
    for v in m.quiver.vertices:
        basis = f.comps[v].kernel_basis()
        dims[v] = len(basis)
        incls[v] = Mat.from_columns(field, basis, m.dims[v])
        free[v] = Mat.free_columns(basis)
    maps = {}
    for a, (u, v) in m.quiver.arrows.items():
        sol = incls[v].coordinates(free[v], m.maps[a] * incls[u])
        if sol is None:
            raise AssertionError("kernel is not invariant; morphism not natural?")
        maps[a] = sol
    k = PersModule(m.quiver, field, dims, maps, check=False)
    incl = ModMorphism(k, m, incls, check=False)
    return KernelResult(k, incl)


def cokernel(f):
    """Cokernel quotient of f: M -> N with the projection from N, as the dual
    of the kernel of Df: DN -> DM."""
    ker = kernel(f.dual())
    return CokernelResult(ker.module.dual(), ker.inclusion.dual())


# ---- direct sums -------------------------------------------------------------


def direct_sum(mods):
    """The block-diagonal direct sum of modules, in the order given: each
    summand's map along an arrow is written once at its offsets, into a
    matrix of zeros."""
    mods = list(mods)
    if not mods:
        raise ValueError("direct sum needs at least the quiver; pass summands")
    q = mods[0].quiver
    field = mods[0].field
    for m in mods:
        if m.quiver != q or m.field != field:
            raise ValueError("summands live on different quivers or fields")
    dims = {v: sum(m.dims[v] for m in mods) for v in q.vertices}
    zero = field.zero()
    maps = {}
    for a, (u, v) in q.arrows.items():
        width = dims[u]
        data = [zero] * (dims[v] * width)
        row = col = 0
        for m in mods:
            block = m.maps[a]
            for r in range(block.nrows):
                at = (row + r) * width + col
                data[at : at + block.ncols] = block.row(r)
            row += block.nrows
            col += block.ncols
        maps[a] = Mat(field, dims[v], width, data)
    return PersModule(q, field, dims, maps, check=False)


def morphism_from_columns(source, target, parts):
    """Assemble f: source -> target from its restrictions to the summands of
    the direct sum `source`, in order: the t-th column block of f is parts[t]."""
    comps = {}
    q = target.quiver
    for v in q.vertices:
        comps[v] = Mat.hstack(
            target.field, [p.comps[v] for p in parts], nrows=target.dims[v]
        ) if parts else Mat.zeros(target.field, target.dims[v], 0)
    return ModMorphism(source, target, comps, check=False)


# ---- results shared by both routes ---------------------------------------------


class MaxLengthExceeded(RuntimeError):
    """The iteration did not terminate within the allowed number of steps."""


@dataclass
class BettiTable:
    """Finitely supported table (degree, Interval) -> multiplicity."""

    entries: dict = dataclasses.field(default_factory=dict)

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def add(self, degree, interval, mult=1):
        if mult:
            key = (degree, interval)
            self.entries[key] = self.entries.get(key, 0) + mult

    def degree(self, i):
        return {
            interval: m for (d, interval), m in self.entries.items() if d == i
        }

    def max_degree(self):
        return max((d for (d, _) in self.entries), default=-1)

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        keys = set(self.entries) | set(other.entries)
        return all(self[k] == other[k] for k in keys)
