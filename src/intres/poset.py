"""Finite posets, Hasse-diagram quivers, and interval subsets.

A `BoundQuiver` is the Hasse diagram of a finite poset: vertices plus named
cover arrows.  Representations of the quiver with all squares commuting are
handled in `intres.repmod`; this module is purely combinatorial.

An `Interval` is a nonempty, connected, convex set of vertices.  These are
the supports of the thin indecomposables used throughout the package.
"""

from __future__ import annotations

_UNKNOWN = object()


class BoundQuiver:
    """Hasse diagram of a finite poset, with named arrows.

    Arrows must be exactly the cover relations: the graph must be acyclic,
    without parallel arrows, and no arrow may be implied by a longer path.
    """

    __slots__ = (
        "vertices",
        "arrows",
        "_vindex",
        "_succ",
        "_pred",
        "_reach",
        "_topo",
        "_op",
        "_families",
        "_ladder",
    )

    def __init__(self, vertices, arrows):
        """vertices: iterable of names; arrows: {name: (src, tgt)} or
        iterable of (name, src, tgt)."""
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        if isinstance(arrows, dict):
            items = [(a, st[0], st[1]) for a, st in arrows.items()]
        else:
            items = [(a, s, t) for a, s, t in arrows]
        self.arrows = {}
        seen_pairs = set()
        for name, src, tgt in items:
            if name in self.arrows:
                raise ValueError(f"duplicate arrow name {name!r}")
            if src not in self._vindex or tgt not in self._vindex:
                raise ValueError(f"arrow {name!r} has unknown endpoint")
            if src == tgt:
                raise ValueError(f"arrow {name!r} is a loop")
            if (src, tgt) in seen_pairs:
                raise ValueError(f"parallel arrow {name!r} from {src!r} to {tgt!r}")
            seen_pairs.add((src, tgt))
            self.arrows[name] = (src, tgt)
        self._succ = {v: [] for v in self.vertices}
        self._pred = {v: [] for v in self.vertices}
        for name, (src, tgt) in self.arrows.items():
            self._succ[src].append((name, tgt))
            self._pred[tgt].append((name, src))
        self._topo = self._topological_order()
        self._reach = self._reachability()
        self._check_hasse()
        self._op = None
        self._families = {}  # field -> all intervals, see repmod.IntervalFamily.of
        self._ladder = _UNKNOWN  # see ladder_length

    def opposite(self):
        """The Hasse quiver of the opposite poset: the same vertex tuple and
        arrow names, each arrow reversed.  Built once; the opposite of the
        opposite is this quiver itself."""
        if self._op is None:
            reversed_arrows = {a: (t, s) for a, (s, t) in self.arrows.items()}
            op = BoundQuiver(self.vertices, reversed_arrows)
            op._op = self
            self._op = op
        return self._op

    def _topological_order(self):
        indeg = {v: len(self._pred[v]) for v in self.vertices}
        ready = [v for v in self.vertices if indeg[v] == 0]
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for _, w in self._succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != len(self.vertices):
            raise ValueError("quiver has a directed cycle")
        return tuple(order)

    def _reachability(self):
        reach = {v: set() for v in self.vertices}
        for v in reversed(self._topo):
            for _, w in self._succ[v]:
                reach[v].add(w)
                reach[v] |= reach[w]
        return reach

    def _check_hasse(self):
        for name, (src, tgt) in self.arrows.items():
            for _, w in self._succ[src]:
                if w != tgt and tgt in self._reach[w]:
                    raise ValueError(
                        f"arrow {name!r} from {src!r} to {tgt!r} is implied by a "
                        "longer path; the quiver is not a Hasse diagram"
                    )

    # ---- order structure -------------------------------------------------

    def leq(self, u, v):
        return u == v or v in self._reach[u]

    def lt(self, u, v):
        return v in self._reach[u]

    def topological_order(self):
        return self._topo

    def arrows_from(self, v):
        return list(self._succ[v])

    def arrows_into(self, v):
        return list(self._pred[v])

    def sorted_vertices(self, vs):
        return sorted(vs, key=self._vindex.__getitem__)

    def __eq__(self, other):
        return (
            isinstance(other, BoundQuiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, tuple(sorted(self.arrows.items()))))

    def __repr__(self):
        return f"BoundQuiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class Interval:
    """A nonempty connected convex set of vertices of a BoundQuiver."""

    __slots__ = ("quiver", "vertices", "_vset")

    def __init__(self, quiver, vertices):
        vertices = tuple(vertices)
        vset = frozenset(vertices)
        if not vset:
            raise ValueError("interval must be nonempty")
        for v in vertices:  # in the given order, so the error is reproducible
            if v not in quiver._vindex:
                raise ValueError(f"unknown vertex {v!r}")
        if not is_connected(quiver, vset):
            raise ValueError(f"vertex set {sorted(map(str, vset))} is not connected")
        if not is_convex(quiver, vset):
            raise ValueError(f"vertex set {sorted(map(str, vset))} is not convex")
        self.quiver = quiver
        self._vset = vset
        self.vertices = tuple(quiver.sorted_vertices(vset))

    def __contains__(self, v):
        return v in self._vset

    def __len__(self):
        return len(self._vset)

    def __iter__(self):
        return iter(self.vertices)

    @property
    def vertex_set(self):
        return self._vset

    def opposite(self):
        """The same vertex set as an interval of the opposite quiver, with
        the same vertex tuple and frozenset: connectivity and convexity do
        not depend on the direction of the arrows, so nothing is checked."""
        iv = object.__new__(Interval)
        iv.quiver = self.quiver.opposite()
        iv._vset = self._vset
        iv.vertices = self.vertices
        return iv

    def arrows(self):
        """Names of quiver arrows with both endpoints in the interval."""
        return [
            name
            for name, (src, tgt) in self.quiver.arrows.items()
            if src in self._vset and tgt in self._vset
        ]

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self._vset == other._vset
            and self.quiver == other.quiver
        )

    def __hash__(self):
        return hash(self._vset)

    def __repr__(self):
        return "Interval{" + ",".join(str(v) for v in self.vertices) + "}"


def is_connected(quiver, vset):
    """Connectivity of a vertex set in the underlying undirected graph."""
    vset = set(vset)
    if not vset:
        return False
    start = next(iter(vset))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for _, w in quiver.arrows_from(v):
            if w in vset and w not in seen:
                seen.add(w)
                stack.append(w)
        for _, w in quiver.arrows_into(v):
            if w in vset and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vset


def is_convex(quiver, vset):
    """True when x <= z <= y with x, y in the set forces z into the set:
    the set is its own `convex_closure`."""
    return convex_closure(quiver, vset) == set(vset)


def convex_closure(quiver, vset):
    """Smallest convex superset of a vertex set S: the z with x <= z <= y
    for some x, y in S, that is, z in S or above S with reach[z] meeting S.
    That set is convex already (x <= a <= z <= b <= y for a, b in it), so
    one pass over the quiver's reachability sets is final."""
    vset = frozenset(vset)
    reach = quiver._reach
    above = vset.union(*(reach[x] for x in vset))
    return frozenset(z for z in above if z in vset or not reach[z].isdisjoint(vset))


def enumerate_intervals(quiver):
    """All intervals of the quiver, smallest first, deterministically ordered.

    Grows connected convex sets one adjacent vertex at a time, taking the
    convex closure after each step; every interval is reached this way.
    """
    vindex = quiver._vindex
    seen = set()
    frontier = []
    for v in quiver.vertices:
        s = frozenset([v])
        seen.add(s)
        frontier.append(s)
    while frontier:
        nxt = []
        for s in frontier:
            adjacent = set()
            for v in s:
                for _, w in quiver.arrows_from(v):
                    if w not in s:
                        adjacent.add(w)
                for _, w in quiver.arrows_into(v):
                    if w not in s:
                        adjacent.add(w)
            for w in adjacent:
                grown = convex_closure(quiver, s | {w})
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    result = [Interval(quiver, s) for s in seen]
    result.sort(key=lambda i: (len(i), tuple(vindex[v] for v in i.vertices)))
    return result


class Poset:
    """A finite poset given by its full order relation.

    Element order is preserved from construction and used for deterministic
    iteration; it must refine the partial order for `from_leq` inputs that
    are already topologically sorted, but no such assumption is made here.
    """

    __slots__ = ("elements", "_eindex", "_leq", "_covers")

    def __init__(self, elements, leq_pairs):
        """elements: iterable; leq_pairs: set of (a, b) with a <= b, assumed
        reflexive-transitively closed (use from_covers otherwise)."""
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements")
        self._eindex = {e: i for i, e in enumerate(self.elements)}
        self._covers = None
        self._leq = set(leq_pairs)
        for e in self.elements:
            self._leq.add((e, e))
        # antisymmetry
        for a, b in self._leq:
            if a != b and (b, a) in self._leq:
                raise ValueError(f"elements {a!r} and {b!r} violate antisymmetry")
        # transitivity closure check (inputs must already be closed)
        for a, b in self._leq:
            for c in self.elements:
                if (b, c) in self._leq and (a, c) not in self._leq:
                    raise ValueError("relation is not transitively closed")

    @classmethod
    def from_covers(cls, elements, covers):
        """Build from cover pairs (a, b) meaning a < b with nothing between."""
        elements = tuple(elements)
        succ = {e: [] for e in elements}
        for a, b in covers:
            succ[a].append(b)
        leq = set()
        for a in elements:
            stack = [a]
            reach = set()
            while stack:
                x = stack.pop()
                for y in succ[x]:
                    if y not in reach:
                        reach.add(y)
                        stack.append(y)
            if a in reach:
                raise ValueError("cover relation has a cycle")
            for b in reach:
                leq.add((a, b))
        return cls(elements, leq)

    @classmethod
    def from_leq(cls, elements, leq):
        """Build from a comparison callable leq(a, b) -> bool."""
        elements = tuple(elements)
        pairs = {
            (a, b) for a in elements for b in elements if leq(a, b)
        }
        return cls(elements, pairs)

    def leq(self, a, b):
        return (a, b) in self._leq

    def lt(self, a, b):
        return a != b and (a, b) in self._leq

    def index(self, e):
        return self._eindex[e]

    def covers(self):
        """All cover pairs (a, b): a < b with no element strictly between."""
        if self._covers is None:
            out = []
            for a in self.elements:
                for b in self.elements:
                    if not self.lt(a, b):
                        continue
                    if any(self.lt(a, c) and self.lt(c, b) for c in self.elements):
                        continue
                    out.append((a, b))
            self._covers = tuple(out)
        return list(self._covers)

    def covers_of(self, a):
        """Elements covering a, in element order."""
        return [b for x, b in self.covers() if x == a]

    def upper_bounds(self, subset):
        subset = list(subset)
        return [x for x in self.elements if all(self.leq(s, x) for s in subset)]

    def join(self, subset):
        """Least upper bound of a nonempty subset, or None."""
        ubs = self.upper_bounds(subset)
        least = [x for x in ubs if all(self.leq(x, y) for y in ubs)]
        return least[0] if least else None

    def meet(self, subset):
        subset = list(subset)
        lbs = [x for x in self.elements if all(self.leq(x, s) for s in subset)]
        greatest = [x for x in lbs if all(self.leq(y, x) for y in lbs)]
        return greatest[0] if greatest else None

    def bottom(self):
        return self.meet(self.elements)

    def top(self):
        return self.join(self.elements)

    def mobius(self):
        """Moebius function as a dict {(a, b): mu} on pairs with a <= b."""
        # order elements by a linear extension so mu(a, c) is known before use
        ext = sorted(
            self.elements,
            key=lambda e: (sum(1 for x in self.elements if self.lt(x, e)),
                           self._eindex[e]),
        )
        mu = {}
        for a in ext:
            mu[(a, a)] = 1
            for b in ext:
                if not self.lt(a, b):
                    continue
                s = 0
                for c in self.elements:
                    if self.leq(a, c) and self.lt(c, b):
                        s += mu[(a, c)]
                mu[(a, b)] = -s
        return mu

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Poset({len(self.elements)} elements)"


def containment_poset(intervals):
    """Poset of intervals ordered by inclusion of vertex sets."""
    return Poset.from_leq(
        tuple(intervals), lambda a, b: a.vertex_set <= b.vertex_set
    )


# ---- commutative ladders ---------------------------------------------------


def commutative_ladder(n):
    """Two parallel chains of length n joined by upward rungs.

    Vertices: b1..bn on the bottom row, t1..tn on the top row.
    Arrows: a{i}: b{i} -> b{i+1}, ta{i}: t{i} -> t{i+1}, v{i}: b{i} -> t{i}.
    """
    if n < 1:
        raise ValueError("ladder length must be >= 1")
    vertices = [f"b{i}" for i in range(1, n + 1)] + [
        f"t{i}" for i in range(1, n + 1)
    ]
    arrows = []
    for i in range(1, n):
        arrows.append((f"a{i}", f"b{i}", f"b{i + 1}"))
    for i in range(1, n):
        arrows.append((f"ta{i}", f"t{i}", f"t{i + 1}"))
    for i in range(1, n + 1):
        arrows.append((f"v{i}", f"b{i}", f"t{i}"))
    return BoundQuiver(vertices, arrows)


def ladder_length(quiver):
    """Recover n from a quiver built by commutative_ladder, else None; the
    quiver holds the answer once it is found."""
    if quiver._ladder is _UNKNOWN:
        n, odd = divmod(len(quiver.vertices), 2)
        quiver._ladder = None if odd or quiver != commutative_ladder(n) else n
    return quiver._ladder


def cl_interval(quiver, top=None, bot=None):
    """Interval of a commutative ladder from row segments.

    top=(k, l) selects t{k}..t{l}; bot=(i, j) selects b{i}..b{j}; both
    1-based inclusive.  Mixed shapes require k <= i <= l <= j.
    """
    vs = []
    if top is not None:
        k, l = top
        vs += [f"t{m}" for m in range(k, l + 1)]
    if bot is not None:
        i, j = bot
        vs += [f"b{m}" for m in range(i, j + 1)]
    return Interval(quiver, vs)


def cl_describe(interval):
    """Row segments (top, bot) of a commutative-ladder interval; each is an
    inclusive 1-based pair or None."""
    tops = sorted(int(v[1:]) for v in interval.vertices if v.startswith("t"))
    bots = sorted(int(v[1:]) for v in interval.vertices if v.startswith("b"))
    top = (tops[0], tops[-1]) if tops else None
    bot = (bots[0], bots[-1]) if bots else None
    return top, bot


def cl_intervals(n, quiver=None):
    """All intervals of the length-n commutative ladder, by explicit shape:
    pure top segments, pure bottom segments, and staircases with
    k <= i <= l <= j.  Matches enumerate_intervals as a set."""
    if quiver is None:
        quiver = commutative_ladder(n)
    out = []
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            out.append(cl_interval(quiver, top=(k, l)))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            out.append(cl_interval(quiver, bot=(i, j)))
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            for l in range(i, n + 1):
                for j in range(l, n + 1):
                    out.append(cl_interval(quiver, top=(k, l), bot=(i, j)))
    return out
