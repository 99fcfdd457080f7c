"""Representations: validation, hom spaces, (co)kernels, direct sums."""

import random

import pytest

from intres import (
    QQ,
    CommutativityError,
    Field,
    Mat,
    ModMorphism,
    PersModule,
    cokernel,
    commutative_ladder,
    component_morphism,
    direct_sum,
    enumerate_intervals,
    good_components,
    hom_basis,
    hom_dim,
    identity_morphism,
    interval_module,
    kernel,
    morphism_from_columns,
    zero_module,
    zero_morphism,
)
from intres.poset import Interval

from conftest import (
    digest,
    module_data,
    rand_scalar,
    random_commuting_module,
    random_hom,
    random_interval_sum,
    shuffle_basis,
)

CL2 = commutative_ladder(2)
CL3 = commutative_ladder(3)


def interval_hom_basis(quiver, i_interval, j_interval, field):
    """Hom(V_I, V_J) basis as ModMorphisms (combinatorial, no elimination)."""
    return [
        component_morphism(quiver, i_interval, j_interval, c, field)
        for c in good_components(quiver, i_interval, j_interval)
    ]


def flat_rank(morphisms):
    if not morphisms:
        return 0
    field = morphisms[0].field
    flats = [m.flat() for m in morphisms]
    return Mat(field, len(flats), len(flats[0]),
               [x for f in flats for x in f]).rank()


# ---- module construction and validation -----------------------------------------


def test_module_validation():
    m = interval_module(CL2, Interval(CL2, ["b1", "b2", "t1", "t2"]), QQ)
    assert m.total_dim() == 4 and m.dim_vector() == {"b1": 1, "b2": 1,
                                                     "t1": 1, "t2": 1}
    assert not m.is_zero() and zero_module(CL2, QQ).is_zero()


def test_commutativity_enforced():
    dims = {"b1": 1, "b2": 1, "t1": 1, "t2": 1}
    good = {
        "a1": [[1]], "ta1": [[1]], "v1": [[1]], "v2": [[1]],
    }
    PersModule(CL2, QQ, dims, {k: Mat.from_rows(QQ, v)
                               for k, v in good.items()})
    bad = dict(good)
    bad["ta1"] = [[2]]  # square b1 -> t2 no longer commutes
    with pytest.raises(CommutativityError):
        PersModule(CL2, QQ, dims, {k: Mat.from_rows(QQ, v)
                                   for k, v in bad.items()})
    # but check=False admits it
    PersModule(CL2, QQ, dims, {k: Mat.from_rows(QQ, v)
                               for k, v in bad.items()}, check=False)


def test_map_shape_validation():
    with pytest.raises(ValueError):
        PersModule(CL2, QQ, {"b1": 1, "b2": 2},
                   {"a1": Mat.from_rows(QQ, [[1]])})


def test_path_map(cl3_m45):
    m = cl3_m45
    assert m.path_map("t2", "t2") == Mat.identity(QQ, 2)
    assert m.path_map("t3", "t1") is None
    # two routes b2 -> t3 agree (commutativity)
    assert m.path_map("b2", "t3") == m.map("v3") * m.map("a2")
    assert m.path_map("b2", "t3") == m.map("ta2") * m.map("v2")


def test_path_map_unrelated():
    m = interval_module(CL2, Interval(CL2, ["b1", "t1", "b2", "t2"]), QQ)
    assert m.path_map("t1", "b2") is None


# ---- hom spaces ------------------------------------------------------------------


def test_hom_basis_naturality_and_independence():
    rng = random.Random(11)
    for _ in range(8):
        a, _ = random_interval_sum(CL2, rng)
        b, _ = random_interval_sum(CL2, rng)
        basis = hom_basis(a, b)
        for h in basis:
            h.validate_naturality()
        assert flat_rank(basis) == len(basis)


def test_hom_dim_additive_over_sums():
    rng = random.Random(12)
    ivs = enumerate_intervals(CL3)
    for _ in range(6):
        i, j, k = rng.choice(ivs), rng.choice(ivs), rng.choice(ivs)
        vi = interval_module(CL3, i, QQ)
        vj = interval_module(CL3, j, QQ)
        vk = interval_module(CL3, k, QQ)
        s = direct_sum([vi, vj])
        assert hom_dim(s, vk) == hom_dim(vi, vk) + hom_dim(vj, vk)
        assert hom_dim(vk, s) == hom_dim(vk, vi) + hom_dim(vk, vj)


def test_hom_dim_invariant_under_shuffle():
    rng = random.Random(13)
    for _ in range(6):
        a, _ = random_interval_sum(CL3, rng, shuffle=False)
        b, _ = random_interval_sum(CL3, rng, shuffle=False)
        assert hom_dim(a, b) == hom_dim(shuffle_basis(a, rng),
                                        shuffle_basis(b, rng))


def test_interval_hom_dim_counts_good_components():
    """Hom dimension between interval modules equals the number of good
    connected components of the overlap."""
    for quiver in (CL2, CL3):
        ivs = enumerate_intervals(quiver)
        for i in ivs:
            for j in ivs:
                vi = interval_module(quiver, i, QQ)
                vj = interval_module(quiver, j, QQ)
                comps = good_components(quiver, i, j)
                assert hom_dim(vi, vj) == len(comps)
                basis = interval_hom_basis(quiver, i, j, QQ)
                assert len(basis) == len(comps)
                for h in basis:
                    h.validate_naturality()
                assert flat_rank(basis) == len(basis)


def test_good_components_are_disjoint_subsets_of_overlap():
    ivs = enumerate_intervals(CL3)
    for i in ivs:
        for j in ivs:
            seen = set()
            overlap = i.vertex_set & j.vertex_set
            for comp in good_components(CL3, i, j):
                assert comp <= overlap
                assert not (comp & seen)
                seen |= comp


def test_hom_basis_zero_cases():
    a = interval_module(CL2, Interval(CL2, ["t1"]), QQ)
    b = interval_module(CL2, Interval(CL2, ["b2"]), QQ)
    assert hom_basis(a, b) == []
    assert hom_dim(a, zero_module(CL2, QQ)) == 0


# ---- kernels and cokernels ---------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, Field.prime(5)])
def test_kernel_cokernel_image_exactness(field):
    rng = random.Random(14)
    for _ in range(10):
        a, _ = random_interval_sum(CL2, rng, field=field)
        b, _ = random_interval_sum(CL2, rng, field=field)
        f = random_hom(a, b, rng)
        ker = kernel(f)
        cok = cokernel(f)
        ker.module.validate_commutativity()
        cok.module.validate_commutativity()
        assert ker.inclusion.is_mono()
        assert cok.projection.is_epi()
        assert f.compose(ker.inclusion).is_zero()
        assert cok.projection.compose(f).is_zero()
        for v in CL2.vertices:
            rank = f.comps[v].rank()
            assert ker.module.dims[v] + rank == a.dims[v]
            assert cok.module.dims[v] + rank == b.dims[v]


def _non_natural(f_t1, f_t2):
    """A family of scalars on two copies of V_{t1,t2}, not natural when the
    two scalars differ, built without the naturality check."""
    v = interval_module(CL2, Interval(CL2, ["t1", "t2"]), QQ)
    comps = {"t1": [[f_t1]], "t2": [[f_t2]]}
    return ModMorphism(v, v, comps, check=False)


def test_kernel_rejects_non_natural_morphism():
    # the kernel at t1 maps onto t2, where the kernel is zero
    with pytest.raises(AssertionError):
        kernel(_non_natural(0, 1))


def test_cokernel_rejects_non_natural_morphism():
    # the cokernel at t1 is zero but t1 -> t2 reaches the cokernel at t2
    with pytest.raises(AssertionError):
        cokernel(_non_natural(1, 0))


def test_kernel_of_identity_and_zero():
    m = interval_module(CL2, Interval(CL2, ["b1", "b2"]), QQ)
    assert kernel(identity_morphism(m)).module.is_zero()
    assert cokernel(identity_morphism(m)).module.is_zero()
    z = zero_morphism(m, m)
    assert kernel(z).module.dim_vector() == m.dim_vector()
    assert cokernel(z).module.dim_vector() == m.dim_vector()


# ---- direct sums ------------------------------------------------------------------


def test_morphism_assembly():
    """At every vertex, the t-th column block of the assembled morphism is
    the t-th part."""
    rng = random.Random(16)
    summands = [interval_module(CL2, iv, QQ)
                for iv in rng.sample(enumerate_intervals(CL2), 2)]
    source = direct_sum(summands)
    target, _ = random_interval_sum(CL2, rng)
    parts = [random_hom(s, target, rng) for s in summands]
    f = morphism_from_columns(source, target, parts)
    f.validate_naturality()
    for v in CL2.vertices:
        cols = [f.comps[v].col(j) for j in range(source.dims[v])]
        start = 0
        for s, part in zip(summands, parts):
            block = cols[start : start + s.dims[v]]
            assert Mat.from_columns(QQ, block, target.dims[v]) == part.comps[v]
            start += s.dims[v]
        assert start == len(cols)


# ---- duality ----------------------------------------------------------------------


def test_duality_is_an_involution():
    """D twice is the identity on modules, on morphisms and on quivers, and
    the opposite quiver has the same intervals in the same order."""
    rng = random.Random(17)
    for quiver in (CL2, CL3):
        op = quiver.opposite()
        assert op != quiver and op.opposite() == quiver
        assert op.vertices == quiver.vertices
        assert [i.vertices for i in enumerate_intervals(op)] == [
            i.vertices for i in enumerate_intervals(quiver)
        ]
        m = random_commuting_module(quiver, rng)
        dm = m.dual()
        assert dm.quiver == op and dm.dims == m.dims
        dm.validate_commutativity()
        assert dm.dual() == m
        n, _ = random_interval_sum(quiver, rng)
        f = random_hom(m, n, rng)
        df = f.dual()
        assert df.src == n.dual() and df.tgt == dm
        df.validate_naturality()
        assert df.dual() == f


# ---- random commuting modules (cokernel construction) ------------------------------


def test_random_commuting_module_is_valid():
    rng = random.Random(20)
    for quiver in (CL2, CL3):
        for _ in range(5):
            m = random_commuting_module(quiver, rng)
            m.validate_commutativity()
            assert 0 < m.total_dim()
            assert max(m.dims.values()) <= 3


RANDOM_MODULE_DIGEST = (
    "5edb33c608ffcead277affe8c3abafc4749d8cfbe91201ed33648f8770d3eab3"
)


def test_random_commuting_module_digest():
    """The sampler draws the same modules: its draws over Q, GF(2) and
    GF(3) on ladders 2 and 3 are pinned."""
    rng = random.Random(21)
    data = []
    for field in (QQ, Field.prime(2), Field.prime(3)):
        for quiver in (CL2, CL3):
            for _ in range(2):
                data.append(module_data(random_commuting_module(quiver, rng, field)))
    assert digest(data) == RANDOM_MODULE_DIGEST
