"""Compression to the 5-vertex zigzag, decomposability, interval replacement."""

import random
from collections import Counter
from itertools import combinations

import pytest

from intres import (
    QQ,
    EndCategory,
    Field,
    Mat,
    betti,
    betti_table_via_koszul,
    betti_via_koszul,
    cl_describe,
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
    koszul_complex,
    replacement_at,
    xi_assignment,
    xi_restriction,
    zigzag_interval_multiplicities,
    zigzag_quiver,
)
from intres import koszul
from intres.poset import Interval
from intres.tda import _cover_set_sums

from conftest import (
    load_fixture,
    random_commuting_module,
    random_hom,
    random_interval_sum,
    shuffle_basis,
)

CL2 = commutative_ladder(2)
CL3 = commutative_ladder(3)
ZQ = zigzag_quiver()


def segment(b, d):
    return Interval(ZQ, [f"z{m}" for m in range(b, d + 1)])


def pairing_multiplicity(z, b, d):
    """Independent multiplicity oracle: the rank of the composition pairing
    Hom(Z, V_I) x Hom(V_I, Z) -> End(V_I) = k.  Composites through other
    indecomposables are non-invertible endomorphisms of a brick, hence zero,
    so this rank is the number of V_I summands of Z."""
    iv = segment(b, d)
    vi = interval_module(ZQ, iv, z.field)
    into = hom_basis(vi, z)
    out = hom_basis(z, vi)
    if not into or not out:
        return 0
    v0 = iv.vertices[0]
    rows = [[phi.compose(psi).comps[v0][0, 0] for psi in into] for phi in out]
    return Mat.from_rows(z.field, rows).rank()


def random_zigzag_module(rng, shuffled=True):
    m, counts = random_interval_sum(ZQ, rng, max_summands=4, shuffle=shuffled)
    return m, counts


# ---- the fixed zigzag quiver --------------------------------------------------------


def test_zigzag_quiver_shape():
    assert list(ZQ.vertices) == ["z1", "z2", "z3", "z4", "z5"]
    assert ZQ.arrow_ends("al1") == ("z2", "z1")
    assert ZQ.arrow_ends("al2") == ("z2", "z3")
    assert ZQ.arrow_ends("al3") == ("z4", "z3")
    assert ZQ.arrow_ends("al4") == ("z4", "z5")
    ivs = enumerate_intervals(ZQ)
    assert len(ivs) == 15
    assert {i.vertex_set for i in ivs} == {
        segment(b, d).vertex_set for b in range(1, 6) for d in range(b, 6)
    }


def test_zigzag_multiplicities_on_known_sums():
    rng = random.Random(50)
    for _ in range(12):
        m, counts = random_zigzag_module(rng)
        got = zigzag_interval_multiplicities(m)
        want = {
            (b, d): counts.get(segment(b, d), 0)
            for b in range(1, 6)
            for d in range(b, 6)
        }
        assert got == want


def test_zigzag_multiplicities_match_pairing_oracle():
    rng = random.Random(51)
    for _ in range(8):
        # cokernels of random morphisms: decomposition not known in advance
        src, _ = random_interval_sum(ZQ, rng, max_summands=2, shuffle=False)
        tgt, _ = random_interval_sum(ZQ, rng, max_summands=3, shuffle=False)
        from intres import cokernel

        z = shuffle_basis(cokernel(random_hom(src, tgt, rng)).module, rng)
        got = zigzag_interval_multiplicities(z)
        for b in range(1, 6):
            for d in range(b, 6):
                assert got[(b, d)] == pairing_multiplicity(z, b, d)
        # a zigzag module is a sum of intervals: dimensions must add up
        for v in ZQ.vertices:
            covered = sum(
                mult
                for (b, d), mult in got.items()
                if v in segment(b, d).vertex_set
            )
            assert covered == z.dims[v]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_constant_zigzag_over_small_fields(p):
    """t1 -> t2 -> t3 with identity maps, compressed at {t1}: every zigzag
    vertex is t1 and every map the identity, so the zigzag is the full
    segment once.  The limit-to-colimit rank of a segment must not pick up
    its number of vertices as a factor, which is 0 in characteristic p."""
    field = Field.prime(p)
    m = interval_module(CL3, cl_interval(CL3, top=(1, 3)), field)
    z = xi_restriction(m, cl_interval(CL3, top=(1, 1)))
    got = zigzag_interval_multiplicities(z)
    assert got[(1, 5)] == 1 and sum(got.values()) == 1


def test_zigzag_rejects_other_quivers():
    m = interval_module(CL2, Interval(CL2, ["b1"]), QQ)
    with pytest.raises(ValueError):
        zigzag_interval_multiplicities(m)


# ---- the compression assignment ------------------------------------------------------


def test_xi_assignment_shapes():
    q = CL3
    mixed = cl_interval(q, top=(1, 3), bot=(3, 3))
    vertex_of, path_of = xi_assignment(q, mixed)
    assert vertex_of == {"z1": "t3", "z2": "t1", "z3": "t3", "z4": "b3",
                        "z5": "b3"}
    assert path_of["al1"] == ("t1", "t3")
    assert path_of["al3"] == ("b3", "t3")
    pure_bot = cl_interval(q, bot=(1, 2))
    vertex_of, path_of = xi_assignment(q, pure_bot)
    assert vertex_of == {"z1": "b2", "z2": "b1", "z3": "b1", "z4": "b1",
                        "z5": "b2"}
    assert path_of["al2"] == ("b1", "b1")
    pure_top = cl_interval(q, top=(2, 3))
    vertex_of, _ = xi_assignment(q, pure_top)
    assert vertex_of["z1"] == "t3" and vertex_of["z2"] == "t2"


def test_xi_restriction_dims_and_commutation(cl3_m45):
    m = cl3_m45
    iv = cl_interval(m.quiver, top=(1, 3), bot=(3, 3))
    z = xi_restriction(m, iv)
    vertex_of, path_of = xi_assignment(m.quiver, iv)
    for zv, lv in vertex_of.items():
        assert z.dims[zv] == m.dims[lv]
    for name, (u, v) in path_of.items():
        assert z.maps[name] == m.path_map(u, v)


def test_compressed_multiplicity_is_containment_indicator():
    """For a single interval module V_J, the compressed multiplicity at I is
    1 exactly when I is contained in J.  This pins the corner tables."""
    for quiver in (CL2, CL3):
        ivs = enumerate_intervals(quiver)
        for j in ivs:
            vj = interval_module(quiver, j, QQ)
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
    q = ZQ
    m = interval_module(q, segment(1, 3), QQ)
    with pytest.raises(ValueError):
        compressed_multiplicity(m, segment(1, 3))


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


def test_decomposability_refuses_a_category_over_another_quiver_or_field():
    """The family comes from `cat`, so `cat` must be over the module's quiver
    and field; a mismatch names both instead of answering for another
    family."""
    ivs = [Interval(CL3, ["b1"]), Interval(CL3, ["t3"])]
    m = direct_sum([interval_module(CL3, i, QQ) for i in ivs])
    quivers = (r"over BoundQuiver\(4 vertices, 4 arrows\).*"
               r"over BoundQuiver\(6 vertices, 7 arrows\)")
    with pytest.raises(ValueError, match=quivers):
        is_interval_decomposable(m, cat=EndCategory(CL2, None, QQ))
    with pytest.raises(ValueError, match=r"over GF\(2\).*over Q\b"):
        is_interval_decomposable(m, cat=EndCategory(CL3, None, Field.prime(2)))
    res = is_interval_decomposable(m, cat=EndCategory(CL3, None, QQ))
    assert res and Counter(res.certificate) == Counter(ivs)


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
        ivs = enumerate_intervals(commutative_ladder(n))
        families = [ivs] + [
            [i for i in ivs if rng.random() < 0.5] for _ in range(2)
        ]
        for family in families:
            values = {j: rng.randint(-5, 5) for j in family}
            want = poset_cover_set_sums(family, values)
            assert _cover_set_sums(family, values) == want
            left_out += len(family) - len(want)
    assert left_out > 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_replacement_over_small_fields_matches_rationals(p):
    want = interval_replacement(load_fixture("cl3_m45.mod", QQ))
    got = interval_replacement(load_fixture("cl3_m45.mod", Field.prime(p)))
    assert got.delta == want.delta and got.compressed == want.compressed


def test_replacement_requires_ladder():
    m = interval_module(ZQ, segment(1, 2), QQ)
    with pytest.raises(ValueError):
        interval_replacement(m)


# ---- hom spaces shared across the complexes of one call ---------------------------


def test_each_hom_space_is_solved_once_per_call(monkeypatch, cl5_m):
    """`betti_table_via_koszul` and `interval_replacement` build 100
    complexes of cl5_m each, and solve Hom(V_J, M) at most once per member
    J; a lone complex needs no shared dict."""
    solves = Counter()
    solve = koszul.hom_basis_from_interval

    def counted(interval, module):
        solves[interval] += 1
        return solve(interval, module)

    monkeypatch.setattr(koszul, "hom_basis_from_interval", counted)
    cat = EndCategory(cl5_m.quiver, None, cl5_m.field)
    table = betti_table_via_koszul(cl5_m, cat=cat)
    assert solves and max(solves.values()) == 1
    assert set(solves) <= set(cat.objects)
    solves.clear()
    rep = interval_replacement(cl5_m, cat=cat)
    assert solves and max(solves.values()) == 1
    assert set(solves) <= set(cat.objects)
    # a lone complex solves its own spaces, and agrees with a shared dict
    i = cl_interval(cl5_m.quiver, top=(3, 5), bot=(4, 5))
    homs = {}
    shared = koszul_complex(cl5_m, i, cat, homs=homs)
    lone = koszul_complex(cl5_m, i, cat)
    cochain = koszul.koszul_coresolution(cl5_m.quiver, i, cat=cat)
    assert set(homs) == {j for tags in cochain.terms for j in tags}
    assert lone.dims == shared.dims and lone.mats == shared.mats
    hom = lone.homology_dims()
    assert [table[(d, i)] for d in range(len(hom))] == hom
    assert sum((-1) ** d * h for d, h in enumerate(hom)) == rep.delta[i]
