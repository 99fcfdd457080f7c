"""Shared helpers: fixture loading and seeded random module generators."""

import hashlib
import importlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from intres import (
    QQ,
    Mat,
    ModMorphism,
    PersModule,
    cokernel,
    commutative_ladder,
    direct_sum,
    enumerate_intervals,
    good_components,
    hom_basis,
    interval_module,
    parse_module_file,
    zero_module,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name, field=None):
    """A fixture module, over its own field unless `field` is given."""
    return parse_module_file(FIXTURES / name, field)


@pytest.fixture(scope="session")
def cl3_m45():
    return load_fixture("cl3_m45.mod")


@pytest.fixture(scope="session")
def cl5_m():
    return load_fixture("cl5_m.mod")


# ---- digests of exact data ----------------------------------------------------


def module_data(m):
    """Dimension vector and every arrow's entries, as JSON-ready strings."""
    return [[m.dims[v] for v in m.quiver.vertices],
            [[str(x) for x in m.maps[a].data] for a in sorted(m.maps)]]


def morphism_data(f):
    """Every component's entries, vertices in quiver order."""
    return [[str(x) for x in f.comps[v].data] for v in f.src.quiver.vertices]


def digest(data):
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


# ---- randomized module constructions ----------------------------------------


def rand_scalar(field, rng):
    if field.kind == "Q":
        return field.coerce(rng.randrange(-2, 3))
    return field.coerce(rng.randrange(field.p))


def random_invertible(field, n, rng):
    if n == 0:
        return Mat.identity(field, 0)
    while True:
        m = Mat(field, n, n, [rand_scalar(field, rng) for _ in range(n * n)])
        if m.rank() == n:
            return m


def inverse(m):
    """The inverse of an invertible matrix: the right block of the RREF of
    [m | I], which is [I | m^-1]."""
    n = m.nrows
    red, _ = Mat.hstack(m.field, [m, Mat.identity(m.field, n)]).rref()
    return Mat(m.field, n, n, [x for row in red.rows() for x in row[n:]])


def shuffle_basis(module, rng):
    """An isomorphic copy: random invertible change of basis at every vertex."""
    field = module.field
    u = {}
    uinv = {}
    for v in module.quiver.vertices:
        m = random_invertible(field, module.dims[v], rng)
        u[v] = m
        uinv[v] = inverse(m)
    maps = {}
    for a, (s, t) in module.quiver.arrows.items():
        maps[a] = u[t] * module.maps[a] * uinv[s]
    return PersModule(module.quiver, field, dict(module.dims), maps)


def random_interval_sum(quiver, rng, field=QQ, max_summands=3, intervals=None,
                        shuffle=True):
    """A direct sum of interval modules (optionally basis-shuffled) plus the
    multiset of summands it was built from."""
    ivs = intervals if intervals is not None else enumerate_intervals(quiver)
    k = rng.randrange(1, max_summands + 1)
    chosen = [rng.choice(ivs) for _ in range(k)]
    mods = [interval_module(quiver, i, field) for i in chosen]
    m = mods[0] if k == 1 else direct_sum(mods)
    if shuffle:
        m = shuffle_basis(m, rng)
    return m, Counter(chosen)


def random_hom(src, tgt, rng):
    out = ModMorphism(src, tgt)
    for b in hom_basis(src, tgt):
        out = out + b.scale(rand_scalar(src.field, rng))
    return out


def cochain_differentials(cochain):
    """The differentials of an IntervalCochain as ModMorphisms between the
    direct sums of its terms, over the cochain's field, built with
    check=True (naturality).

    The block from summand J to summand K is 1x1 at each vertex of J & K,
    holding the coefficient of the good component containing the vertex
    (0 off the components)."""
    quiver, field = cochain.interval.quiver, cochain.field
    summands = [
        [interval_module(quiver, j, field) for j in tags]
        for tags in cochain.terms
    ]
    modules = [
        mods[0] if len(mods) == 1
        else direct_sum(mods) if mods
        else zero_module(quiver, field)
        for mods in summands
    ]
    diffs = []
    for i, rows in enumerate(cochain.blocks):
        comps = {}
        for v in quiver.vertices:
            grid = []
            for u_new, k in enumerate(cochain.terms[i + 1]):
                row = []
                for u_prev, j in enumerate(cochain.terms[i]):
                    new_d = summands[i + 1][u_new].dims[v]
                    prev_d = summands[i][u_prev].dims[v]
                    val = field.zero()
                    for comp, c in zip(good_components(quiver, j, k),
                                       rows[u_new][u_prev]):
                        if v in comp:
                            val = c
                    row.append(Mat(field, new_d, prev_d,
                                   [val] if new_d and prev_d else []))
                grid.append(row)
            if any(grid):
                comps[v] = Mat.block(field, grid)
        diffs.append(ModMorphism(modules[i], modules[i + 1], comps, check=True))
    return diffs


# ---- irreducible maps ------------------------------------------------------------

# The number of irreducible maps of the full interval family of each ladder
# (the same over Q, GF(2) and GF(3)).
IRREDUCIBLE_TOTALS = {2: 14, 3: 44, 4: 104, 5: 210}


def sub_family(quiver, seed, keep=0.6):
    """The intervals of the quiver, each kept with probability `keep`."""
    rng = random.Random(seed)
    return [iv for iv in enumerate_intervals(quiver) if rng.random() < keep]


@pytest.fixture
def family_builds(monkeypatch):
    """The interval enumerations, hom tables, tables of irreducible maps and
    containment structures made from here on, by any intres module, in
    call order: ("enumerate", "hom" or "table", quiver), or ("containment",
    the members' vertex bitmasks).  Module files parsed from here on get
    ladder quivers of their own, which hold no family yet."""
    from intres import modfile, poset, repmod

    monkeypatch.setattr(modfile, "_LADDERS", {})
    built = []
    find = poset.enumerate_intervals

    def enumerated(quiver):
        built.append(("enumerate", quiver))
        return find(quiver)

    for name in ("poset", "repmod", "approx", "resolve", "koszul", "tda", "cli"):
        module = importlib.import_module(f"intres.{name}")
        if hasattr(module, "enumerate_intervals"):
            monkeypatch.setattr(module, "enumerate_intervals", enumerated)
    split = repmod._hom_table

    def homs(quiver, masks):
        built.append(("hom", quiver))
        return split(quiver, masks)

    monkeypatch.setattr(repmod, "_hom_table", homs)
    build = repmod._irreducible_table

    def tabulated(quiver, hom, field):
        built.append(("table", quiver))
        return build(quiver, hom, field)

    monkeypatch.setattr(repmod, "_irreducible_table", tabulated)
    contain = repmod._containment_table

    def contained(masks):
        built.append(("containment", masks))
        return contain(masks)

    monkeypatch.setattr(repmod, "_containment_table", contained)
    return built


def lattice_example():
    """The running 4-element example: a Y-shaped poset, the interval family
    without the sink/source singletons, and that family ordered by existence
    of nonzero morphisms (a cube lattice).  Returns (quiver, family, lattice,
    embedding) with the identity embedding of lattice elements as intervals."""
    from intres import BoundQuiver, Poset, good_components

    quiver = BoundQuiver(
        ["1", "2", "3", "4"],
        [("x", "1", "2"), ("y", "2", "3"), ("z", "2", "4")],
    )
    family = [
        i for i in enumerate_intervals(quiver)
        if len(i) > 1 or i.vertex_set == {"2"}
    ]
    lattice = Poset.from_leq(
        tuple(family),
        lambda a, b: len(good_components(quiver, a, b)) > 0,
    )
    embedding = {i: i for i in family}
    return quiver, family, lattice, embedding


# ---- posets beyond ladders -----------------------------------------------------


def grid_quiver(rows=3, cols=3):
    """The rows x cols grid: vertices g{i}{j}, arrows h{i}{j}: g{i}{j} ->
    g{i}{j+1} along each row and v{i}{j}: g{i}{j} -> g{i+1}{j} between
    rows.  On the 3x3 grid the up-set above the antidiagonal is an interval
    with three sources."""
    from intres import BoundQuiver

    vertices = [f"g{i}{j}" for i in range(rows) for j in range(cols)]
    arrows = [
        (f"h{i}{j}", f"g{i}{j}", f"g{i}{j + 1}")
        for i in range(rows) for j in range(cols - 1)
    ] + [
        (f"v{i}{j}", f"g{i}{j}", f"g{i + 1}{j}")
        for i in range(rows - 1) for j in range(cols)
    ]
    return BoundQuiver(vertices, arrows)


def zigzag_poset_quiver():
    """The zigzag z1 -> z2 <- z3 -> z4 <- z5 -> z6."""
    from intres import BoundQuiver

    return BoundQuiver(
        [f"z{m}" for m in range(1, 7)],
        [("p1", "z1", "z2"), ("p2", "z3", "z2"), ("p3", "z3", "z4"),
         ("p4", "z5", "z4"), ("p5", "z5", "z6")],
    )


def tree_poset_quiver():
    """A poset whose Hasse diagram is a tree: three minimal elements x, y, z
    below c, and c below w."""
    from intres import BoundQuiver

    return BoundQuiver(
        ["x", "y", "z", "c", "w"],
        [("p", "x", "c"), ("q", "y", "c"), ("r", "z", "c"), ("s", "c", "w")],
    )


def grid_hard_module(field, row=0, transpose=False):
    """The module of `cl3_m45.mod` on rows `row` and `row + 1` of the 3x3
    grid (bottom row b1..b3 on row `row`, top row t1..t3 on the next), zero
    elsewhere: indecomposable and not an interval module.  With `transpose`
    it sits on the same two columns instead, through the symmetry g{i}{j}
    <-> g{j}{i} of the grid, which swaps h{i}{j} and v{j}{i}."""

    def at(kind, i, j):
        if transpose:
            kind, i, j = {"g": "g", "h": "v", "v": "h"}[kind], j, i
        return f"{kind}{i}{j}"

    bottom, top = row, row + 1
    dims = {at("g", bottom, 1): 1, at("g", bottom, 2): 1, at("g", top, 0): 1,
            at("g", top, 1): 2, at("g", top, 2): 1}
    maps = {
        at("h", top, 0): [[1], [1]], at("h", top, 1): [[0, 1]],
        at("h", bottom, 1): [[1]],
        at("v", bottom, 1): [[0], [1]], at("v", bottom, 2): [[1]],
    }
    return PersModule(grid_quiver(), field, dims, maps)


def tree_hard_module(field, slope=1):
    """Three lines in general position in the plane at c: the lines of
    (1, 0), (0, 1) and (1, slope), slope != 0, as the images of x, y and z,
    and c -> w the projection to the second coordinate.  Indecomposable
    and not thin."""
    dims = {"x": 1, "y": 1, "z": 1, "c": 2, "w": 1}
    maps = {"p": [[1], [0]], "q": [[0], [1]], "r": [[1], [slope]], "s": [[0, 1]]}
    return PersModule(tree_poset_quiver(), field, dims, maps)


def random_commuting_module(quiver, rng, field=QQ, max_dim=3, tries=60):
    """A random module that commutes by construction: the cokernel of a random
    morphism between interval sums, in a shuffled basis.  Vertex dimensions are
    bounded by ``max_dim``; zero modules are rejected."""
    ivs = enumerate_intervals(quiver)
    for _ in range(tries):
        tgt, _ = random_interval_sum(quiver, rng, field, max_summands=3,
                                     intervals=ivs, shuffle=False)
        src, _ = random_interval_sum(quiver, rng, field, max_summands=2,
                                     intervals=ivs, shuffle=False)
        f = random_hom(src, tgt, rng)
        m = cokernel(f).module
        if m.total_dim() == 0:
            continue
        if max(m.dims.values()) > max_dim:
            continue
        return shuffle_basis(m, rng)
    raise RuntimeError("could not sample a random commuting module")


def hard_ladder_module(n, rng, field=QQ, max_summands=3):
    """A module on ladder n >= 3 that is not interval-decomposable: P_k plus
    a random interval sum, under a random change of basis.  P_k is the
    summand of `cl3_m45.mod` that is not an interval module (dimension
    vector (1 2 1 / 0 1 1)), placed on columns k..k+2 for a random k."""
    quiver = commutative_ladder(n)
    k = rng.randrange(1, n - 1)
    dims = {f"t{k}": 1, f"t{k + 1}": 2, f"t{k + 2}": 1, f"b{k + 1}": 1,
            f"b{k + 2}": 1}
    maps = {f"ta{k}": [[1], [1]], f"ta{k + 1}": [[0, 1]], f"a{k + 1}": [[1]],
            f"v{k + 1}": [[0], [1]], f"v{k + 2}": [[1]]}
    p = PersModule(quiver, field, dims, maps)
    summands, _ = random_interval_sum(quiver, rng, field, max_summands,
                                      shuffle=False)
    return shuffle_basis(direct_sum([p, summands]), rng)


def hard_poset_module(poset, rng, field=QQ, max_summands=3):
    """A module on the 3x3 grid (`poset` "grid") or the tree ("tree") that
    is not interval-decomposable, as `hard_ladder_module` draws on ladders:
    an indecomposable that is not an interval module plus a random interval
    sum, under a random change of basis.  On the grid it is P, the summand
    of `cl3_m45.mod` that is not an interval module, on a random 2x3 window
    (`grid_hard_module` on rows or columns 0-1 or 1-2); on the tree, three
    lines at c, the third (1, slope) for a random slope != 0
    (`tree_hard_module`)."""
    if poset == "grid":
        p = grid_hard_module(field, rng.randrange(2), rng.random() < 0.5)
    else:
        slope = field.zero()
        while not slope:
            slope = rand_scalar(field, rng)
        p = tree_hard_module(field, slope)
    summands, _ = random_interval_sum(p.quiver, rng, field, max_summands,
                                      shuffle=False)
    return shuffle_basis(direct_sum([p, summands]), rng)
