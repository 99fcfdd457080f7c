"""Seeded ladder modules, written in the module text format.

Everything here is self-contained exact arithmetic (integers and
`fractions.Fraction`, or residues mod p); nothing imports intres, so the
program under test only ever reads the files this writes.

A *hard* module is P_k (+) V_{I_1} (+) ... (+) V_{I_r} under a random change
of basis at every vertex, where P_k is the non-interval-decomposable module
of the cl3 fixture placed on columns k..k+2.  A *pure sum* is the same
construction without P_k.  Intervals are pairs (top, bot) of inclusive
1-based row segments, either of which may be None.
"""

from __future__ import annotations

import random
from fractions import Fraction


# ---- the ladder ------------------------------------------------------------------


def ladder_vertices(n):
    return [f"b{i}" for i in range(1, n + 1)] + [f"t{i}" for i in range(1, n + 1)]


def ladder_arrows(n):
    """(name, src, tgt) in the order the ladder quiver declares them."""
    out = [(f"a{i}", f"b{i}", f"b{i + 1}") for i in range(1, n)]
    out += [(f"ta{i}", f"t{i}", f"t{i + 1}") for i in range(1, n)]
    out += [(f"v{i}", f"b{i}", f"t{i}") for i in range(1, n + 1)]
    return out


def ladder_intervals(n):
    """All intervals of the length-n ladder: C(n+3, 4) + n(n+1) of them."""
    out = []
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            out.append(((k, l), None))
            out.append((None, (k, l)))
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            for l in range(i, n + 1):
                for j in range(l, n + 1):
                    out.append(((k, l), (i, j)))
    return sorted(out, key=interval_name)


def interval_vertices(iv):
    top, bot = iv
    vs = set()
    if top:
        vs |= {f"t{m}" for m in range(top[0], top[1] + 1)}
    if bot:
        vs |= {f"b{m}" for m in range(bot[0], bot[1] + 1)}
    return frozenset(vs)


def interval_from_vertices(vs):
    tops = sorted(int(v[1:]) for v in vs if v[0] == "t")
    bots = sorted(int(v[1:]) for v in vs if v[0] == "b")
    return (
        (tops[0], tops[-1]) if tops else None,
        (bots[0], bots[-1]) if bots else None,
    )


def interval_name(iv):
    top, bot = iv
    parts = []
    if top:
        parts.append(f"top=[{top[0]},{top[1]}]")
    if bot:
        parts.append(f"bot=[{bot[0]},{bot[1]}]")
    return " ".join(parts)


def interval_from_name(name):
    top = bot = None
    for part in name.split():
        which, seg = part.split("=")
        lo, hi = seg.strip("[]").split(",")
        if which == "top":
            top = (int(lo), int(hi))
        elif which == "bot":
            bot = (int(lo), int(hi))
        else:
            raise ValueError(f"bad interval name {name!r}")
    return (top, bot)


# ---- the field -----------------------------------------------------------------


class Arith:
    """Exact scalars: Fraction for Q (p = 0), residues for GF(p)."""

    def __init__(self, p=0):
        self.p = p

    @property
    def name(self):
        return "Q" if self.p == 0 else f"GF({self.p})"

    def norm(self, x):
        return Fraction(x) if self.p == 0 else x % self.p

    def matmul(self, a, b):
        """a: r x s, b: s x c, as lists of rows."""
        cols = len(b[0]) if b else 0
        out = [[0] * cols for _ in a]
        for i, row in enumerate(a):
            for s, x in enumerate(row):
                if x:
                    for j, y in enumerate(b[s]):
                        if y:
                            out[i][j] += x * y
        return [[self.norm(x) for x in row] for row in out]


def identity(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def random_unimodular(arith, d, rng):
    """(g, g^-1): a random permutation times d elementary operations with
    coefficient +-1, so both stay integral over Q."""
    perm = list(range(d))
    rng.shuffle(perm)
    g = [identity(d)[p] for p in perm]
    ginv = [list(col) for col in zip(*g)] if d else []
    if d >= 2:
        for _ in range(d):
            i, j = rng.sample(range(d), 2)
            c = rng.choice((-1, 1))
            # row_i += c * row_j on g; the inverse is column_j -= c * column_i
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
            for row in ginv:
                row[j] -= c * row[i]
    return [[arith.norm(x) for x in r] for r in g], [[arith.norm(x) for x in r] for r in ginv]


# ---- modules as plain data ----------------------------------------------------


class Module:
    """dims: vertex -> int; maps: arrow -> rows (dims[tgt] x dims[src])."""

    def __init__(self, n, dims, maps):
        self.n = n
        self.dims = {v: dims.get(v, 0) for v in ladder_vertices(n)}
        self.maps = maps


def interval_module(n, iv):
    vs = interval_vertices(iv)
    dims = {v: (1 if v in vs else 0) for v in ladder_vertices(n)}
    maps = {}
    for a, s, t in ladder_arrows(n):
        maps[a] = [[1 if (s in vs and t in vs) else 0] * dims[s] for _ in range(dims[t])]
    return Module(n, dims, maps)


def p_module(n, k):
    """The cl3 fixture's indecomposable, dims (1 2 1 / 0 1 1), on columns k..k+2."""
    if not 1 <= k <= n - 2:
        raise ValueError(f"offset {k} does not fit a ladder of length {n}")
    dims = {f"t{k}": 1, f"t{k + 1}": 2, f"t{k + 2}": 1, f"b{k + 1}": 1, f"b{k + 2}": 1}
    given = {
        f"ta{k}": [[1], [1]],
        f"ta{k + 1}": [[0, 1]],
        f"a{k + 1}": [[1]],
        f"v{k + 1}": [[0], [1]],
        f"v{k + 2}": [[1]],
    }
    full = {v: dims.get(v, 0) for v in ladder_vertices(n)}
    maps = {}
    for a, s, t in ladder_arrows(n):
        maps[a] = given.get(a, [[0] * full[s] for _ in range(full[t])])
    return Module(n, full, maps)


def direct_sum(mods):
    n = mods[0].n
    dims = {v: sum(m.dims[v] for m in mods) for v in ladder_vertices(n)}
    maps = {}
    for a, s, t in ladder_arrows(n):
        rows = [[0] * dims[s] for _ in range(dims[t])]
        ro = co = 0
        for m in mods:
            for i, row in enumerate(m.maps[a]):
                for j, x in enumerate(row):
                    rows[ro + i][co + j] = x
            ro += m.dims[t]
            co += m.dims[s]
        maps[a] = rows
    return Module(n, dims, maps)


def change_basis(arith, m, rng):
    """M(a: x -> y) -> g_y M(a) g_x^-1 with random unimodular g per vertex."""
    gs = {v: random_unimodular(arith, m.dims[v], rng) for v in ladder_vertices(m.n)}
    maps = {}
    for a, s, t in ladder_arrows(m.n):
        if m.dims[s] and m.dims[t]:
            maps[a] = arith.matmul(arith.matmul(gs[t][0], m.maps[a]), gs[s][1])
        else:
            maps[a] = [[0] * m.dims[s] for _ in range(m.dims[t])]
    return Module(m.n, dict(m.dims), maps)


def serialize(arith, m, comment=""):
    lines = [f"# {comment}"] if comment else []
    lines += [f"field {arith.name}", f"quiver ladder {m.n}"]
    for v in ladder_vertices(m.n):
        if m.dims[v]:
            lines.append(f"dim {v} {m.dims[v]}")
    for a, s, t in ladder_arrows(m.n):
        if m.dims[s] and m.dims[t]:
            lines.append(f"map {a}")
            for row in m.maps[a]:
                lines.append(" ".join(str(arith.norm(x)) for x in row))
    return "\n".join(lines) + "\n"


# ---- duality ---------------------------------------------------------------------


def dual_vertex(n, v):
    """The ladder is anti-isomorphic to itself: b_i <-> t_(n+1-i)."""
    return ("t" if v[0] == "b" else "b") + str(n + 1 - int(v[1:]))


def dual_interval(n, iv):
    top, bot = iv
    flip = lambda seg: (n + 1 - seg[1], n + 1 - seg[0]) if seg else None  # noqa: E731
    return (flip(bot), flip(top))


def dual_module(m):
    """DM(phi(x)) = M(x)^*, with transposed maps along reversed arrows.

    Co-Betti numbers of M at I are Betti numbers of DM at phi(I)."""
    n = m.n
    dims = {dual_vertex(n, v): d for v, d in m.dims.items()}
    by_ends = {(s, t): a for a, s, t in ladder_arrows(n)}
    maps = {}
    for a, s, t in ladder_arrows(n):
        rows = m.maps[a]
        transposed = [[rows[i][j] for i in range(m.dims[t])] for j in range(m.dims[s])]
        maps[by_ends[(dual_vertex(n, t), dual_vertex(n, s))]] = transposed
    return Module(n, dims, maps)


# ---- drawing the inputs ------------------------------------------------------------


def draw_barcode(rng, n, total):
    """Random intervals of the length-n ladder whose sizes sum to `total`."""
    ivs = ladder_intervals(n)
    barcode = []
    left = total
    while left:
        iv = rng.choice(ivs)
        size = len(interval_vertices(iv))
        if size <= left:
            barcode.append(iv)
            left -= size
    return sorted(barcode, key=interval_name)


def build_module(arith, n, k, barcode, rng):
    """P_k (+) the barcode (P_k left out when k is None), summands in random
    order, under a random change of basis at every vertex."""
    parts = ([p_module(n, k)] if k is not None else []) + [
        interval_module(n, iv) for iv in barcode
    ]
    rng.shuffle(parts)
    return change_basis(arith, direct_sum(parts), rng)


def make_rng(*tags):
    return random.Random(":".join(str(t) for t in tags))
