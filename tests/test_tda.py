"""Compressed multiplicities, decomposability, interval replacement."""

import random
import re
from collections import Counter

import pytest

from intres import (
    QQ,
    Field,
    IntervalFamily,
    Mat,
    PersModule,
    betti,
    betti_table_via_koszul,
    cl_interval,
    commutative_ladder,
    compressed_multiplicity,
    containment_poset,
    direct_sum,
    enumerate_intervals,
    hom_basis,
    interval_module,
    interval_replacement,
    is_interval_decomposable,
    kernel,
    koszul_complex,
    minimal_interval_resolution,
    replacement_at,
)
from intres import koszul, tda
from intres.modfile import parse_field_token
from intres.poset import Interval
from intres.repmod import SourceSolves

from conftest import (
    digest,
    grid_hard_module,
    grid_quiver,
    load_fixture,
    random_commuting_module,
    random_interval_sum,
    shuffle_basis,
    tree_hard_module,
    tree_poset_quiver,
    zigzag_poset_quiver,
)

CL2 = commutative_ladder(2)
CL3 = commutative_ladder(3)


# ---- compressed multiplicities ------------------------------------------------------


@pytest.mark.parametrize("field", ["Q", "GF2", "GF3"])
def test_compressed_multiplicity_is_containment_indicator(field):
    """For a single interval module V_J, the compressed multiplicity at I is
    1 exactly when I is contained in J, on ladders 2 to 4, where I has 1 to
    8 vertices, and off ladders on the 3x3 grid, the zigzag and the tree.
    Over GF(p) this also checks that the rank does not pick up the number
    of vertices of I as a factor, which is 0 when p divides it."""
    k = parse_field_token(field)
    for quiver in (*(commutative_ladder(n) for n in (2, 3, 4)),
                   grid_quiver(), zigzag_poset_quiver(), tree_poset_quiver()):
        ivs = enumerate_intervals(quiver)
        for j in ivs:
            vj = interval_module(quiver, j, k)
            for i in ivs:
                want = 1 if i.vertex_set <= j.vertex_set else 0
                assert compressed_multiplicity(vj, i) == want, (i, j)


def test_compressed_multiplicity_additive():
    rng = random.Random(52)
    for _ in range(4):
        a = random_commuting_module(CL2, rng)
        b = random_commuting_module(CL2, rng)
        s = direct_sum([a, b])
        for i in enumerate_intervals(CL2):
            assert compressed_multiplicity(s, i) == (
                compressed_multiplicity(a, i) + compressed_multiplicity(b, i)
            )


def test_compression_on_a_zigzag():
    """The zigzag z1 -> z2 <- z3 -> ... is not a ladder, and c(I) is read
    there too: for V_J + V_J with J = {z1, z2, z3}, c(I) = 2 exactly when I
    is contained in J."""
    q = zigzag_poset_quiver()
    j = Interval(q, ["z1", "z2", "z3"])
    m = direct_sum([interval_module(q, j, QQ)] * 2)
    for i in enumerate_intervals(q):
        want = 2 if set(i) <= set(j) else 0
        assert compressed_multiplicity(m, i) == want, i


def test_compression_refuses_an_interval_over_another_quiver(cl3_m45):
    """A ladder-4 interval names a vertex the ladder-3 module lacks, and a
    ladder-2 interval and an interval of the opposite quiver are vertex sets
    of ladder 3 too: c(I), and the spaces Hom(V_J, M) that the replacement
    reads, refuse all three, naming both quivers, instead of answering for
    the vertex set."""
    quivers = r"over BoundQuiver\({}\).*over BoundQuiver\(6 vertices, 7 arrows\)"
    ivs = [(cl_interval(commutative_ladder(n), top=(1, n), bot=(n, n)),
            f"{2 * n} vertices, {arrows} arrows") for n, arrows in ((4, 10), (2, 4))]
    ivs.append((Interval(cl3_m45.quiver.opposite(), ["t1", "t2"]),
                "6 vertices, 7 arrows"))
    for iv, shape in ivs:
        for call in (lambda: compressed_multiplicity(cl3_m45, iv),
                     lambda: SourceSolves(cl3_m45).hom_basis(iv),
                     lambda: SourceSolves(cl3_m45).hom_dim(iv)):
            with pytest.raises(ValueError, match=quivers.format(shape)):
                call()


def brute_force_compression(m, iv):
    """rank(lim M|_I -> colim M|_I) from the definitions, with no path map:
    lim is the kernel of x_w - M(a) x_u over every arrow a: u -> w inside
    I, in the unknowns at every vertex of I; colim is the sum of the M_v
    modulo the relations i_w M(a) y - i_u y; the map sends x to the class
    of x_v at the first vertex v of I."""
    k, dims = m.field, m.dims
    minus_one = k.coerce(-1)
    at, n = {}, 0
    for v in iv.vertices:
        at[v], n = n, n + dims[v]
    arrows = [(m.maps[a], u, w) for a, (u, w) in m.quiver.arrows.items()
              if u in iv and w in iv]
    rows = []
    for mat, u, w in arrows:
        for i in range(dims[w]):
            row = [k.zero()] * n
            row[at[w] + i] = k.one()
            for j in range(dims[u]):
                row[at[u] + j] = minus_one * mat[i, j]
            rows.append(row)
    lim = Mat.from_rows(k, rows, ncols=n).kernel_basis()
    relations = []
    for mat, u, w in arrows:
        for j in range(dims[u]):
            col = [k.zero()] * n
            col[at[u] + j] = minus_one
            for i in range(dims[w]):
                col[at[w] + i] = mat[i, j]
            relations.append(col)
    v = iv.vertices[0]
    images = [[x if at[v] <= r < at[v] + dims[v] else k.zero()
               for r, x in enumerate(vec)] for vec in lim]

    def rank(cols):
        return Mat.from_columns(k, cols, n).rank() if cols else 0

    return rank(relations + images) - rank(relations)


@pytest.mark.parametrize("field", ["Q", "GF2", "GF3", "GF5"])
def test_one_table_solves_every_hom_space_and_limit(field):
    """One `SourceSolves` per module answers for every interval: its hom
    bases are those of the general solver, in order, its dimensions their
    lengths, and the pairing of its two limits has the rank of lim -> colim
    computed from the definitions.  On the hard grid and tree modules, two
    3x3 draws, the first syzygy of the hard grid module (a kernel built
    unchecked) and the dual of the hard grid module over the opposite
    quiver."""
    k = parse_field_token(field)
    rng = random.Random(33)
    grid = grid_hard_module(k)
    mods = [grid, tree_hard_module(k),
            random_commuting_module(grid_quiver(), rng, k),
            random_commuting_module(grid_quiver(), rng, k),
            kernel(minimal_interval_resolution(grid).diffs[0]).module,
            grid.dual()]
    assert mods[4].total_dim() > 0
    for m in mods:
        solves = SourceSolves(m)
        for iv in enumerate_intervals(m.quiver):
            want = [h.flat() for h in hom_basis(interval_module(m.quiver, iv, k), m)]
            assert solves.hom_basis(iv) == want, iv
            assert solves.hom_dim(iv) == len(want), iv
            ends = solves.limits(iv)
            c = 0 if ends is None else (ends[1].transpose() * ends[0]).rank()
            assert c == brute_force_compression(m, iv), iv
            assert c == compressed_multiplicity(m, iv), iv


# ---- decomposability ----------------------------------------------------------------


def test_interval_sums_detected_with_multiplicities():
    rng = random.Random(53)
    for quiver in (CL2, CL3):
        for _ in range(5):
            m, counts = random_interval_sum(quiver, rng)
            res = is_interval_decomposable(m)
            assert res and res.decomposable
            assert Counter(res.certificate) == counts


def test_non_decomposable_rejected(cl3_m45, cl5_m):
    rng = random.Random(54)
    assert not is_interval_decomposable(cl3_m45)
    assert not is_interval_decomposable(shuffle_basis(cl3_m45, rng))
    assert not is_interval_decomposable(cl5_m)


def test_decomposability_result_truthiness():
    m = interval_module(CL2, Interval(CL2, ["b1"]), QQ)
    res = is_interval_decomposable(m)
    assert bool(res) is True and res.certificate == {Interval(CL2, ["b1"]): 1}


def test_decomposability_reads_a_warm_category_table(family_builds):
    """With `cat`, the radical is spanned along the family's table, so a
    warm family builds none; without one, the call reads the family its
    quiver holds, the same family here, and builds none either.  The
    module is parsed afresh, so that no held table comes from another
    test."""
    m = load_fixture("cl3_m45.mod")
    q = m.quiver
    cat = IntervalFamily.of(q, QQ)
    cat.irreducible_maps()
    assert family_builds == [("enumerate", q), ("hom", q), ("table", q)]
    family_builds.clear()
    assert not is_interval_decomposable(m, cat=cat)
    assert not is_interval_decomposable(m)
    assert family_builds == []
    # a family of its own lends the call its own table
    small = IntervalFamily(q, [i for i in cat.objects if len(i) <= 2], QQ)
    assert not is_interval_decomposable(m, cat=small)
    assert family_builds == [("hom", q), ("table", q)]


def test_beta0_equals_resolution_degree_zero():
    rng = random.Random(55)
    for _ in range(4):
        m = random_commuting_module(CL2, rng)
        table = betti(m)
        for i in enumerate_intervals(CL2):
            assert koszul_complex(m, i).homology_dims()[0] == table[(0, i)]


# ---- interval replacement ------------------------------------------------------------


def test_replacement_on_fixture(cl3_m45):
    q = cl3_m45.quiver
    i_a = cl_interval(q, top=(1, 3), bot=(3, 3))
    i_b = cl_interval(q, top=(2, 3), bot=(3, 3))
    assert replacement_at(cl3_m45, i_a) == 1
    assert replacement_at(cl3_m45, i_b) == -1
    rep = interval_replacement(cl3_m45)
    assert rep.delta[i_a] == 1 and rep.delta[i_b] == -1
    # the replacement vector sums to the pointwise dimensions
    for v in q.vertices:
        total = sum(d for iv, d in rep.delta.items() if v in iv.vertex_set)
        assert total == cl3_m45.dims[v]


def test_replacement_of_interval_sum_is_multiplicity():
    rng = random.Random(56)
    for _ in range(4):
        m, counts = random_interval_sum(CL2, rng)
        rep = interval_replacement(m)
        for iv in enumerate_intervals(CL2):
            assert rep.delta.get(iv, 0) == counts.get(iv, 0)


def test_replacement_moebius_identity():
    """compressed = zeta * delta and delta = mu * compressed over the
    containment order, recomputed here from scratch: on ladder-2 draws and
    off ladders, on the hard grid and tree modules."""
    rng = random.Random(57)
    draws = [random_commuting_module(CL2, rng) for _ in range(3)]
    for m in (*draws, grid_hard_module(QQ), tree_hard_module(QQ)):
        ivs = enumerate_intervals(m.quiver)
        poset = containment_poset(ivs)
        mu = poset.mobius()
        rep = interval_replacement(m)
        for i in ivs:
            upper = sum(rep.delta.get(j, 0) for j in ivs
                        if poset.leq(i, j))
            assert rep.compressed.get(i, 0) == upper
            inverted = sum(mu[(i, j)] * rep.compressed.get(j, 0)
                           for j in ivs if poset.leq(i, j))
            assert rep.delta.get(i, 0) == inverted


def test_replacement_reads_one_containment_structure_per_family(family_builds):
    """Replacements over one family share its containment structure, built
    on first use; another family builds its own."""
    m = load_fixture("cl3_m45.mod")
    q = m.quiver
    first = interval_replacement(m)
    assert interval_replacement(m, cat=IntervalFamily.of(q, QQ)) == first
    assert interval_replacement(m) == first
    family = IntervalFamily.of(q, QQ)
    sub = IntervalFamily(q, enumerate_intervals(q)[1:], QQ)
    assert sub.up_sets() is sub.up_sets()
    assert len(sub.up_sets()) == len(sub.objects)
    assert [b for b in family_builds if b[0] == "containment"] == [
        ("containment", family.masks), ("containment", sub.masks)
    ]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_replacement_over_small_fields_matches_rationals(p):
    want = interval_replacement(load_fixture("cl3_m45.mod", QQ))
    got = interval_replacement(load_fixture("cl3_m45.mod", Field.prime(p)))
    assert got.delta == want.delta and got.compressed == want.compressed


def test_replacement_refuses_a_family_short_of_every_interval(cl3_m45):
    """delta is the Moebius inversion of c over the containment order of
    every interval, so a `cat` with fewer members is refused up front, as a
    list or as a family, by the whole replacement and at one of its
    members; every interval in another order is accepted."""
    q = cl3_m45.quiver
    ivs = enumerate_intervals(q)
    for cat, member in ((ivs[:1], ivs[0]), (IntervalFamily(q, ivs[1:], QQ), ivs[1])):
        for call in (lambda: interval_replacement(cl3_m45, cat=cat),
                     lambda: replacement_at(cl3_m45, member, cat=cat)):
            with pytest.raises(ValueError,
                               match="needs every interval of the quiver"):
                call()
    assert interval_replacement(cl3_m45, cat=ivs[::-1]) == interval_replacement(cl3_m45)


def test_replacement_on_a_zigzag():
    """The interval replacement of an interval module V_J on the zigzag is
    the indicator of J, as it is on a ladder."""
    q = zigzag_poset_quiver()
    j = Interval(q, ["z1", "z2"])
    rep = interval_replacement(interval_module(q, j, QQ))
    assert set(rep.delta) == set(enumerate_intervals(q))
    assert {i: d for i, d in rep.delta.items() if d} == {j: 1}


def replacement_modules(case, field):
    """The modules of one pinned case: a fixture over `field`, or seeded
    sampler draws on ladders 2 to 5."""
    if case == "ladder-draws":
        rng = random.Random(58)
        return [random_commuting_module(commutative_ladder(n), rng, field)
                for n in (2, 3, 4, 5)]
    return [load_fixture(case, field)]


# sha256 of [I, delta(I), c(I)] over every interval I of the module's
# quiver, intervals in `enumerate_intervals` order
REPLACEMENT_DIGESTS = {
    ("cl3_m45.mod", "Q"):
        "af1dc35353ef0652478006407c7fa499b1c19e39aced308e5f5ffa0dc4ab4db1",
    ("cl3_m45.mod", "GF2"):
        "af1dc35353ef0652478006407c7fa499b1c19e39aced308e5f5ffa0dc4ab4db1",
    ("cl3_m45.mod", "GF3"):
        "af1dc35353ef0652478006407c7fa499b1c19e39aced308e5f5ffa0dc4ab4db1",
    ("cl3_m45.mod", "GF5"):
        "af1dc35353ef0652478006407c7fa499b1c19e39aced308e5f5ffa0dc4ab4db1",
    ("cl5_m.mod", "Q"):
        "360757c817171243e9e68bd219929c1f8becdd2911352992aab6ea1e2bcf4693",
    ("cl5_m.mod", "GF2"):
        "360757c817171243e9e68bd219929c1f8becdd2911352992aab6ea1e2bcf4693",
    ("cl5_m.mod", "GF3"):
        "360757c817171243e9e68bd219929c1f8becdd2911352992aab6ea1e2bcf4693",
    ("cl5_m.mod", "GF5"):
        "360757c817171243e9e68bd219929c1f8becdd2911352992aab6ea1e2bcf4693",
    ("ladder-draws", "Q"):
        "aebb745826c0a7b2359fd072665eccd307e2b241afba330b722e69af06cd8ba7",
    ("ladder-draws", "GF2"):
        "66caf12c5c55ada4094ce58ba16764305aa94b29b8a0df24f2bd173340bb14db",
}


@pytest.mark.parametrize("case, field", sorted(REPLACEMENT_DIGESTS))
def test_replacement_digests(case, field):
    """The Koszul-route delta and the compressed table c of
    `interval_replacement` are pinned at every interval."""
    data = []
    for m in replacement_modules(case, parse_field_token(field)):
        rep = interval_replacement(m)
        data.append([[sorted(i.vertex_set), rep.delta[i], rep.compressed[i]]
                     for i in enumerate_intervals(m.quiver)])
    assert digest(data) == REPLACEMENT_DIGESTS[(case, field)]


# ---- the Euler characteristic against Koszul homology ------------------------------


def hard_ladder4_module(field, rng):
    """P_2, the module of `cl3_m45.mod` on columns 2..4 of ladder 4, plus two
    interval modules, in a shuffled basis."""
    q = commutative_ladder(4)
    p2 = PersModule(q, field, {"t2": 1, "t3": 2, "t4": 1, "b3": 1, "b4": 1},
                    {"ta2": [[1], [1]], "ta3": [[0, 1]], "a3": [[1]],
                     "v3": [[0], [1]], "v4": [[1]]})
    ivs = [cl_interval(q, top=(1, 3), bot=(2, 3)),
           cl_interval(q, top=(2, 4), bot=(4, 4))]
    summands = [p2] + [interval_module(q, i, field) for i in ivs]
    return shuffle_basis(direct_sum(summands), rng)


@pytest.mark.parametrize("field", ["Q", "GF2", "GF3", "GF5"])
def test_replacement_is_the_alternating_sum_of_koszul_homology(field):
    """delta(I), read off the terms of the coresolution of V_I, is the
    alternating sum of the homology dimensions of the Koszul complex at I,
    at every interval of both fixtures and of a hard ladder-4 module."""
    k = parse_field_token(field)
    hard = hard_ladder4_module(k, random.Random(60))
    assert not is_interval_decomposable(hard)
    for m in (load_fixture("cl3_m45.mod", k), load_fixture("cl5_m.mod", k),
              hard):
        cat = IntervalFamily.of(m.quiver, k)
        table = betti_table_via_koszul(m, cat=cat)
        rep = interval_replacement(m, cat=cat)
        for i in cat.objects:
            want = sum((-1) ** d * table[(d, i)]
                       for d in range(table.max_degree() + 1))
            assert rep.delta[i] == want, i
            assert replacement_at(m, i, cat=cat) == want, i


def test_replacement_refuses_an_interval_outside_the_family(cl3_m45):
    first, *rest = enumerate_intervals(cl3_m45.quiver)
    with pytest.raises(ValueError, match="not an object of the chosen family"):
        replacement_at(cl3_m45, first, cat=rest)


def test_replacement_beyond_ladders_is_the_koszul_euler_characteristic():
    """Off ladders, delta agrees with the Koszul homology at every interval
    of the 3x3 grid, whose hom spaces have cycles, of the tree and of a
    zigzag draw, over Q, GF(2) and GF(3), one at a time and as the whole
    replacement, each passing the gate H delta = h.  The hard grid module
    has a negative entry."""
    for field in (QQ, Field.prime(2), Field.prime(3)):
        zigzag = random_commuting_module(zigzag_poset_quiver(), random.Random(61),
                                         field)
        grid = grid_hard_module(field)
        for m in (grid, tree_hard_module(field), zigzag):
            cat = IntervalFamily.of(m.quiver, field)
            table = betti_table_via_koszul(m, cat=cat)
            rep = interval_replacement(m, cat=cat)
            for i in cat.objects:
                want = sum((-1) ** d * table[(d, i)]
                           for d in range(table.max_degree() + 1))
                assert replacement_at(m, i, cat=cat) == want, i
                assert rep.delta[i] == want, i
        delta = interval_replacement(grid).delta
        assert len(delta) == 83 and min(delta.values()) < 0


def test_replacement_gate_names_a_corrupted_interval(monkeypatch, cl3_m45):
    """One c(I) or one dim Hom(V_I, M) off by one breaks H delta = h, and
    both entry points raise RouteMismatchError naming I instead of
    answering.  I = {b1} is a singleton at the source of the ladder, so a
    wrong c(I) moves delta at I alone, and V_I is the only member that maps
    to V_I: the gate fails at I alone."""
    bad = Interval(cl3_m45.quiver, ["b1"])
    c, h = tda._compressed, SourceSolves.hom_dim
    corrupt = {
        (tda, "_compressed"): lambda solves, i: c(solves, i) + (i == bad),
        (SourceSolves, "hom_dim"): lambda solves, i: h(solves, i) + (i == bad),
    }
    for (owner, name), wrong in corrupt.items():
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, wrong)
            for call in (lambda: interval_replacement(cl3_m45),
                         lambda: replacement_at(cl3_m45, bad)):
                with pytest.raises(tda.RouteMismatchError,
                                   match=re.escape(f"at {bad!r}:")):
                    call()
    assert interval_replacement(cl3_m45).delta[bad] == replacement_at(cl3_m45, bad)


def alternating_multiplicities(family, s):
    """{position of K: C(I, K)} for I the member at s: the sum over i of
    (-1)^i times the multiplicity of V_K in term i of the coresolution of
    V_I."""
    iv = family.objects[s]
    c = Counter()
    for d, tags in enumerate(
        koszul.koszul_coresolution(family.quiver, iv, cat=family).terms
    ):
        for j in tags:
            c[family.index[j]] += (-1) ** d
    return c


@pytest.mark.parametrize("quiver", [
    *(commutative_ladder(n) for n in (2, 3, 4, 5)),
    grid_quiver(), zigzag_poset_quiver(), tree_poset_quiver(),
], ids=["ladder2", "ladder3", "ladder4", "ladder5", "grid", "zigzag", "tree"])
def test_coresolutions_invert_the_hom_dimension_matrix(quiver):
    """C.H = 1 as integer matrices, H(K, L) = dim Hom(V_K, V_L) counted off
    the hom table: the identity behind the gate H delta = h, checked on
    the coresolutions that `replacement_at` does not build.  The terms do not
    depend on the field, so GF(2) is the cheapest."""
    family = IntervalFamily(quiver, enumerate_intervals(quiver), Field.prime(2))
    h = [{t: len(comps) for t, comps in row.items()} for row in family.hom_table()]
    for s, iv in enumerate(family.objects):
        product = Counter()
        for k, c in alternating_multiplicities(family, s).items():
            for u, dim in h[k].items():
                product[u] += c * dim
        assert {u: x for u, x in product.items() if x} == {s: 1}, iv


def test_decomposability_certificates_are_the_replacement():
    """On both fixtures and every replacement-digest module: a decomposable
    verdict lists exactly the nonzero delta as its summands, and a negative
    delta(J) comes with a non-decomposable verdict.  Both cases occur."""
    seen = set()
    for case, field in sorted(REPLACEMENT_DIGESTS):
        for m in replacement_modules(case, parse_field_token(field)):
            delta = interval_replacement(m).delta
            verdict = is_interval_decomposable(m)
            if verdict:
                assert verdict.certificate == {j: d for j, d in delta.items() if d}
            if min(delta.values()) < 0:
                assert not verdict
            seen.add((bool(verdict), min(delta.values()) < 0))
    assert seen == {(True, False), (False, True)}


# ---- hom spaces solved once per call ----------------------------------------------


def test_each_hom_space_is_solved_once_per_call(monkeypatch, cl5_m):
    """`betti_table_via_koszul` builds 100 complexes of cl5_m and
    `interval_replacement` reads the family's hom table; each solves
    Hom(V_J, M) at most once per member J (the replacement only its
    dimension, as a nullity).  The replacement builds no complex and no
    coresolution: on a fresh private family it leaves `coresolutions` empty.
    A lone complex solves each of its own spaces once, and agrees with the
    table, whose complexes shared theirs."""
    solves = Counter()

    def counted(solve):
        def solve_once(table, interval):
            solves[interval] += 1
            return solve(table, interval)
        return solve_once

    monkeypatch.setattr(SourceSolves, "hom_basis", counted(SourceSolves.hom_basis))
    monkeypatch.setattr(SourceSolves, "hom_dim", counted(SourceSolves.hom_dim))
    cat = IntervalFamily.of(cl5_m.quiver, cl5_m.field)
    table = betti_table_via_koszul(cl5_m, cat=cat)
    assert solves and max(solves.values()) == 1
    assert set(solves) <= set(cat.objects)
    solves.clear()
    i = cl_interval(cl5_m.quiver, top=(3, 5), bot=(4, 5))
    lone = koszul_complex(cl5_m, i, cat)
    cochain = koszul.koszul_coresolution(cl5_m.quiver, i, cat=cat)
    assert solves == Counter({j for tags in cochain.terms for j in tags})
    hom = lone.homology_dims()
    assert [table[(d, i)] for d in range(len(hom))] == hom
    solves.clear()
    monkeypatch.setattr(koszul, "_precompose_matrix_module", None)
    monkeypatch.setattr(koszul.VecChain, "homology_dims", None)
    monkeypatch.setattr(koszul, "min_proj_resolution", None)
    rep = interval_replacement(cl5_m, cat=cat)
    assert solves == Counter(cat.objects)
    assert sum((-1) ** d * h for d, h in enumerate(hom)) == rep.delta[i]
    fresh = IntervalFamily(cl5_m.quiver, cat.objects, cl5_m.field)
    assert interval_replacement(cl5_m, cat=fresh) == rep
    assert fresh.coresolutions == {}


def test_each_call_reads_a_table_of_its_own(monkeypatch, cl5_m):
    """The decomposability test, the replacement and the Koszul table each
    build one table of path maps and read no other: none outlives its
    call, so no call reads a solve of an earlier one."""
    built, read = [], []
    init, path = SourceSolves.__init__, SourceSolves.path

    def counted_init(table, module):
        built.append(table)
        init(table, module)

    def logged_path(table, s, v):
        read.append(table)
        return path(table, s, v)

    monkeypatch.setattr(SourceSolves, "__init__", counted_init)
    monkeypatch.setattr(SourceSolves, "path", logged_path)
    cat = IntervalFamily.of(cl5_m.quiver, cl5_m.field)
    for call in (is_interval_decomposable, interval_replacement,
                 betti_table_via_koszul, is_interval_decomposable):
        before = len(built)
        read.clear()
        call(cl5_m, cat=cat)
        assert len(built) == before + 1, call
        assert read and all(table is built[-1] for table in read), call
