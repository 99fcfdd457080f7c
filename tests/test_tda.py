"""Compressed multiplicities, decomposability, interval replacement."""

import random
from collections import Counter
from itertools import combinations

import pytest

from intres import (
    QQ,
    Field,
    IntervalFamily,
    PersModule,
    betti,
    betti_table_via_koszul,
    betti_via_koszul,
    cl_interval,
    commutative_ladder,
    compressed_multiplicity,
    containment_poset,
    direct_sum,
    enumerate_intervals,
    interval_module,
    interval_replacement,
    is_interval_decomposable,
    koszul_complex,
    replacement_at,
)
from intres import koszul, tda
from intres.modfile import parse_field_token
from intres.poset import Interval
from intres.tda import _cover_set_sums

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
    8 vertices.  Over GF(p) this also checks that the rank does not pick up
    the number of vertices of I as a factor, which is 0 when p divides it."""
    k = parse_field_token(field)
    for n in (2, 3, 4):
        quiver = commutative_ladder(n)
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


def test_compression_requires_ladder():
    q = zigzag_poset_quiver()
    iv = Interval(q, ["z1", "z2", "z3"])
    m = interval_module(q, iv, QQ)
    with pytest.raises(ValueError, match="commutative-ladder"):
        compressed_multiplicity(m, iv)


def test_compression_refuses_an_interval_over_another_quiver(cl3_m45):
    """A ladder-4 interval names a vertex the ladder-3 module lacks, and a
    ladder-2 interval is a vertex set of ladder 3 too: both are refused,
    naming both quivers, instead of answering for the vertex set."""
    quivers = r"over BoundQuiver\({} vertices, {} arrows\).*" + (
        r"over BoundQuiver\(6 vertices, 7 arrows\)")
    for n, arrows in ((4, 10), (2, 4)):
        q = commutative_ladder(n)
        iv = cl_interval(q, top=(1, n), bot=(n, n))
        with pytest.raises(ValueError, match=quivers.format(2 * n, arrows)):
            compressed_multiplicity(cl3_m45, iv)


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
            assert betti_via_koszul(m, i)[0] == table[(0, i)]


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
    containment order, recomputed here from scratch."""
    rng = random.Random(57)
    ivs = enumerate_intervals(CL2)
    poset = containment_poset(ivs)
    mu = poset.mobius()
    for _ in range(3):
        m = random_commuting_module(CL2, rng)
        rep = interval_replacement(m)
        for i in ivs:
            upper = sum(rep.delta.get(j, 0) for j in ivs
                        if poset.leq(i, j))
            assert rep.compressed.get(i, 0) == upper
            inverted = sum(mu[(i, j)] * rep.compressed.get(j, 0)
                           for j in ivs if poset.leq(i, j))
            assert rep.delta.get(i, 0) == inverted


def poset_cover_set_sums(intervals, values):
    """Reference for the cover-set sums, from the containment `Poset`: its
    covers, and joins as least upper bounds (a J with an upper-bounded
    cover set that has no least upper bound is left out)."""
    poset = containment_poset(intervals)
    out = {}
    for j in intervals:
        covers = poset.covers_of(j)
        subsets = [s for n in range(1, len(covers) + 1)
                   for s in combinations(covers, n)]
        bounded = [s for s in subsets if poset.upper_bounds(s)]
        joins = [poset.join(s) for s in bounded]
        if None not in joins:
            out[j] = values[j] + sum((-1) ** len(s) * values[k]
                                     for s, k in zip(bounded, joins))
    return out


def test_cover_set_sums_match_the_containment_poset():
    """Covers and joins read off vertex sets agree with the `Poset`
    reference on full families and seeded sub-families of ladders 2-5,
    ambiguous joins included."""
    rng = random.Random(59)
    left_out = 0
    for n in (2, 3, 4, 5):
        q = commutative_ladder(n)
        ivs = enumerate_intervals(q)
        families = [ivs] + [
            [i for i in ivs if rng.random() < 0.5] for _ in range(2)
        ]
        for family in families:
            values = {j: rng.randint(-5, 5) for j in family}
            want = poset_cover_set_sums(family, values)
            wrapped = IntervalFamily.wrap(family, q, QQ)
            assert _cover_set_sums(wrapped, values) == want
            left_out += len(family) - len(want)
    assert left_out > 0


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
    assert sub.cover_plans() is sub.cover_plans()
    assert len(sub.up_sets()) == len(sub.objects)
    assert [b for b in family_builds if b[0] == "containment"] == [
        ("containment", family.masks), ("containment", sub.masks)
    ]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_replacement_over_small_fields_matches_rationals(p):
    want = interval_replacement(load_fixture("cl3_m45.mod", QQ))
    got = interval_replacement(load_fixture("cl3_m45.mod", Field.prime(p)))
    assert got.delta == want.delta and got.compressed == want.compressed


def test_replacement_requires_ladder():
    q = zigzag_poset_quiver()
    m = interval_module(q, Interval(q, ["z1", "z2"]), QQ)
    with pytest.raises(ValueError):
        interval_replacement(m)


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
    """Off ladders, delta = H^-1 h agrees with the Koszul homology wherever
    the hom spaces reachable from I have no cycle: at every interval of the
    tree and of a zigzag draw.  On the 3x3 grid 43 of the 83 intervals reach
    a cycle, and each is refused with a ValueError that names the interval."""
    zigzag = random_commuting_module(zigzag_poset_quiver(), random.Random(61))
    for m in (tree_hard_module(QQ), zigzag):
        cat = IntervalFamily.of(m.quiver, QQ)
        table = betti_table_via_koszul(m, cat=cat)
        for i in cat.objects:
            want = sum((-1) ** d * table[(d, i)]
                       for d in range(table.max_degree() + 1))
            assert replacement_at(m, i, cat=cat) == want, i
    grid = grid_hard_module(QQ)
    refused = []
    for i in enumerate_intervals(grid.quiver):
        try:
            replacement_at(grid, i)
        except ValueError as e:
            assert "cycle" in str(e) and repr(i) in str(e), e
            refused.append(i)
    assert len(refused) == 43
    assert Interval(grid.quiver, ["g02"]) in refused


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
    the hom table: the identity behind delta = H^-1 h, checked on the
    coresolutions that `replacement_at` no longer builds.  The terms do not
    depend on the field, so GF(2) is the cheapest."""
    family = IntervalFamily(quiver, enumerate_intervals(quiver), Field.prime(2))
    h = [{t: len(comps) for t, comps in row} for row in family.hom_table()]
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
        def solve_once(interval, module):
            solves[interval] += 1
            return solve(interval, module)
        return solve_once

    monkeypatch.setattr(koszul, "hom_basis_from_interval",
                        counted(koszul.hom_basis_from_interval))
    monkeypatch.setattr(tda, "hom_dim_from_interval",
                        counted(tda.hom_dim_from_interval))
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
