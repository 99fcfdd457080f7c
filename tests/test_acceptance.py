"""End-to-end acceptance gate.

Each test pins one headline guarantee of the library: exact integer
equality everywhere, with an explicit wall-clock budget where one is
promised.  ``pytest -v tests/test_acceptance.py`` prints one pass/fail
line per guarantee.
"""

import itertools
import math
import random
import time
from collections import Counter

import pytest

from intres import (
    Field,
    Interval,
    Mat,
    Poset,
    QQ,
    betti,
    betti_table_via_koszul,
    build_end_category,
    build_lattice_gauge,
    cl_interval,
    cobetti,
    commutative_ladder,
    compressed_multiplicity,
    containment_poset,
    direct_sum,
    enumerate_intervals,
    formal_koszul_coresolution,
    interval_module,
    interval_replacement,
    is_interval_decomposable,
    koszul_complex,
    koszul_coresolution,
    lattice_module_from_persistence,
    minimal_interval_coresolution,
    minimal_interval_resolution,
    replacement_at,
    semilattice_koszul_complex,
    validate_koszul_coresolution,
)

from conftest import (
    grid_hard_module,
    grid_quiver,
    hard_ladder_module,
    lattice_example,
    load_fixture,
    rand_scalar,
    random_commuting_module,
    random_interval_sum,
    shuffle_basis,
    tree_hard_module,
    tree_poset_quiver,
    zigzag_poset_quiver,
)

# The randomized ladder suite is shared between the route-equivalence and
# the compressed-multiplicity tests; it is built once, lazily.
_SUITE = {}


def randomized_suite():
    if _SUITE:
        return _SUITE
    rng = random.Random(20260814)
    for name, n, count in (("cl2", 2, 50), ("cl3", 3, 20)):
        quiver = commutative_ladder(n)
        cat = build_end_category(quiver, field=QQ)
        entries = []
        for _ in range(count):
            m = random_commuting_module(quiver, rng)
            entries.append((m, betti(m), betti_table_via_koszul(m, cat=cat)))
        _SUITE[name] = (quiver, cat, entries)
    return _SUITE


def test_ladder3_wide_interval_koszul_degrees_betti_and_replacement(cl3_m45):
    """Ladder-3 fixture at the interval spanning the whole top row plus the
    last bottom vertex: coresolution degrees, Betti numbers concentrated in
    degree 0, replacement coefficient +1."""
    start = time.monotonic()
    q = cl3_m45.quiver
    i_a = cl_interval(q, top=(1, 3), bot=(3, 3))
    cores = koszul_coresolution(q, i_a, QQ)
    assert cores.terms[0] == [i_a]
    assert Counter(cores.terms[1]) == Counter([
        cl_interval(q, bot=(3, 3)),
        cl_interval(q, top=(1, 2)),
        cl_interval(q, top=(1, 3), bot=(2, 3)),
    ])
    assert Counter(cores.terms[2]) == Counter([
        cl_interval(q, top=(1, 2), bot=(2, 3)),
    ])
    assert len(cores.terms) == 3
    hom = koszul_complex(cl3_m45, i_a).homology_dims()
    assert hom[0] == 1 and all(h == 0 for h in hom[1:])
    table = betti(cl3_m45)
    assert table[(0, i_a)] == 1
    assert all(table[(d, i_a)] == 0
               for d in range(1, table.max_degree() + 1))
    assert replacement_at(cl3_m45, i_a) == 1
    assert time.monotonic() - start < 5.0


def test_ladder3_narrow_interval_first_homology_and_replacement(cl3_m45):
    """Same fixture at the interval missing the first top vertex: Betti
    numbers concentrated in degree 1, H1 of the Koszul complex is
    one-dimensional, replacement coefficient -1."""
    start = time.monotonic()
    q = cl3_m45.quiver
    i_b = cl_interval(q, top=(2, 3), bot=(3, 3))
    chain = koszul_complex(cl3_m45, i_b)
    hom = chain.homology_dims()
    assert hom[1] == 1
    assert all(h == 0 for d, h in enumerate(hom) if d != 1)
    table = betti(cl3_m45)
    assert table[(1, i_b)] == 1
    assert all(table[(d, i_b)] == 0
               for d in range(table.max_degree() + 1) if d != 1)
    assert replacement_at(cl3_m45, i_b) == -1
    assert time.monotonic() - start < 5.0


def test_ladder5_fixture_betti_replacement_and_coresolution(cl5_m):
    """Ladder-5 fixture: Betti numbers concentrated in degree 1 at the
    interval of the last two top vertices plus the last bottom vertex,
    replacement coefficient -1, and the exact summand multisets of the
    minimal interval coresolution."""
    start = time.monotonic()
    q = cl5_m.quiver
    iv = cl_interval(q, top=(4, 5), bot=(5, 5))
    hom = koszul_complex(cl5_m, iv).homology_dims()
    assert hom[1] == 1
    assert all(h == 0 for d, h in enumerate(hom) if d != 1)
    table = betti(cl5_m)
    assert table[(1, iv)] == 1
    assert all(table[(d, iv)] == 0
               for d in range(table.max_degree() + 1) if d != 1)
    assert replacement_at(cl5_m, iv) == -1
    cores = minimal_interval_coresolution(cl5_m)
    assert Counter(cores.terms[0]) == Counter([
        cl_interval(q, top=(3, 4)),
        cl_interval(q, top=(4, 4), bot=(4, 5)),
        cl_interval(q, top=(3, 5), bot=(4, 5)),
    ])
    assert Counter(cores.terms[1]) == Counter([
        cl_interval(q, top=(3, 4), bot=(4, 5)),
    ])
    assert len(cores.terms) == 2
    assert time.monotonic() - start < 30.0


def test_betti_routes_agree_on_randomized_ladder_modules():
    """Resolution-route and Koszul-route Betti tables agree entry for entry
    on 50 random commuting ladder-2 modules and 20 ladder-3 modules."""
    start = time.monotonic()
    suite = randomized_suite()
    checked = 0
    for name, minimum in (("cl2", 50), ("cl3", 20)):
        _, _, entries = suite[name]
        assert len(entries) >= minimum
        for _, resolve_table, koszul_table in entries:
            assert resolve_table == koszul_table
            checked += 1
    assert checked >= 70
    assert time.monotonic() - start < 600.0


def test_koszul_validator_accepts_every_ladder_interval():
    """For each of the 11 ladder-2 and 27 ladder-3 intervals, the dual of
    the Koszul coresolution is an exact projective resolution of the simple
    functor at that interval."""
    start = time.monotonic()
    for n, expected in ((2, 11), (3, 27)):
        quiver = commutative_ladder(n)
        cat = build_end_category(quiver, field=QQ)
        intervals = enumerate_intervals(quiver)
        assert len(intervals) == expected
        for iv in intervals:
            cores = koszul_coresolution(quiver, iv, QQ, cat=cat)
            assert validate_koszul_coresolution(cores, iv, cat=cat)
    assert time.monotonic() - start < 300.0


def test_interval_decomposability_detection():
    """Over Q, GF(2) and GF(3): 100 basis-shuffled direct sums of ladder-3
    interval modules are recognized with exact multiplicities; the
    indecomposable ladder-3 fixture, a basis-shuffled copy, and 10
    basis-shuffled sums of it with an interval module are all rejected."""
    quiver = commutative_ladder(3)
    intervals = enumerate_intervals(quiver)
    for field in (QQ, Field.prime(2), Field.prime(3)):
        rng = random.Random(4242)
        cat = build_end_category(quiver, field=field)
        for _ in range(100):
            m, counts = random_interval_sum(quiver, rng, field=field)
            res = is_interval_decomposable(m, cat=cat)
            assert res, field
            assert Counter(res.certificate) == counts, field
        hard = load_fixture("cl3_m45.mod", field)
        assert not is_interval_decomposable(hard, cat=cat), field
        shuffled = shuffle_basis(hard, rng)
        assert not is_interval_decomposable(shuffled, cat=cat), field
        for _ in range(10):
            summand = interval_module(quiver, rng.choice(intervals), field)
            m = shuffle_basis(direct_sum([hard, summand]), rng)
            res = is_interval_decomposable(m, cat=cat)
            assert not res and res.certificate is None, field


def test_compressed_multiplicities_match_alternating_betti_sums():
    """On the randomized ladder suite, the directly computed compressed
    multiplicity (the rank of lim M|_I -> colim M|_I) equals the alternating
    Betti sum over all larger intervals, and its Moebius inversion over the
    containment order reproduces the replacement coefficients."""
    suite = randomized_suite()
    for name in ("cl2", "cl3"):
        quiver, cat, entries = suite[name]
        ivs = enumerate_intervals(quiver)
        pos = containment_poset(ivs)
        mu = pos.mobius()
        for m, _, table in entries:
            comp = {}
            for i in ivs:
                comp[i] = compressed_multiplicity(m, i)
                alternating = sum(
                    (-1) ** d * mult
                    for (d, j), mult in table.entries.items()
                    if i.vertex_set <= j.vertex_set
                )
                assert comp[i] == alternating
            rep = interval_replacement(m, cat=cat)
            for i in ivs:
                inverted = sum(
                    mu[(i, j)] * comp[j] for j in ivs if pos.leq(i, j)
                )
                assert inverted == rep.delta.get(i, 0)
                assert rep.compressed.get(i, 0) == comp[i]


def test_lattice_family_routes_and_semilattice_homology():
    """On the 4-element lattice example: the formal (lattice-combinatorial)
    and the relative (approximation-theoretic) coresolutions agree termwise
    at every element, the validator accepts them, and the homology of the
    semilattice Koszul complex reproduces the family-restricted Betti
    numbers of random modules."""
    quiver, family, lattice, embedding = lattice_example()
    cat = build_end_category(quiver, intervals=family, field=QQ)
    gauge = build_lattice_gauge(lattice, embedding)
    for a in lattice.elements:
        formal = formal_koszul_coresolution(lattice, a, embedding, QQ)
        relative = koszul_coresolution(quiver, a, QQ, cat=cat)
        assert len(formal.terms) == len(relative.terms)
        for d in range(len(formal.terms)):
            assert Counter(formal.terms[d]) == Counter(relative.terms[d])
        assert validate_koszul_coresolution(relative, a, cat=cat)
    rng = random.Random(20260814)
    for _ in range(4):
        m, _ = random_interval_sum(quiver, rng)
        lat = lattice_module_from_persistence(gauge, m)
        table = betti(m, family=family)
        for a in lattice.elements:
            hom = semilattice_koszul_complex(lattice, a, lat).homology_dims()
            for d, h in enumerate(hom):
                assert h == table[(d, a)]
            for (d, iv), mult in table.entries.items():
                if iv == a and d >= len(hom):
                    assert mult == 0


def by_vertex_set(table):
    """A Betti table keyed by vertex sets, to compare tables over a quiver
    and its opposite."""
    return {(d, i.vertex_set): m for (d, i), m in table.entries.items() if m}


def assert_routes_agree(m, cat, op_cat):
    """betti(m) is the Koszul table of M over `cat`, and cobetti(m) the
    Koszul table of DM over `op_cat`, the category of the opposite quiver,
    whose irreducible maps the coresolution reads."""
    assert betti_table_via_koszul(m, cat=cat) == betti(m)
    assert by_vertex_set(betti_table_via_koszul(m.dual(), cat=op_cat)) == (
        by_vertex_set(cobetti(m)))


@pytest.mark.parametrize("field", [QQ, Field.prime(2), Field.prime(3)],
                         ids=["Q", "GF2", "GF3"])
def test_betti_routes_agree_beyond_ladders(field):
    """On the 3x3 grid, a tree poset and a zigzag, where paths from several
    sources of an interval meet, both routes give the same tables: for a
    seeded draw and for a module that is not interval-decomposable, in a
    random basis (a zigzag has none)."""
    rng = random.Random(20261018)
    for quiver, hard in ((grid_quiver(), grid_hard_module),
                         (tree_poset_quiver(), tree_hard_module),
                         (zigzag_poset_quiver(), None)):
        cat = build_end_category(quiver, field=field)
        op_cat = build_end_category(quiver.opposite(), field=field)
        mods = [random_commuting_module(quiver, rng, field)]
        if hard is not None:
            mods.append(shuffle_basis(hard(field), rng))
            assert not is_interval_decomposable(mods[1], cat=cat)
        for m in mods:
            assert_routes_agree(m, cat, op_cat)


@pytest.mark.parametrize("p", [0, 2, 3, 5], ids=["Q", "GF2", "GF3", "GF5"])
def test_betti_routes_agree_on_hard_random_ladder_modules(p):
    """Seeded modules that are not interval-decomposable (`hard_ladder_module`)
    on ladders 3 and 4: Betti and co-Betti tables agree across the routes."""
    field = Field.prime(p) if p else QQ
    rng = random.Random(20261019 + p)
    for n in (3, 4):
        quiver = commutative_ladder(n)
        cat = build_end_category(quiver, field=field)
        op_cat = build_end_category(quiver.opposite(), field=field)
        for _ in range(2):
            m = hard_ladder_module(n, rng, field)
            assert not is_interval_decomposable(m, cat=cat)
            assert_routes_agree(m, cat, op_cat)


def test_structural_invariants_hold(cl3_m45, cl5_m):
    """Closed-form interval counts match subset brute force; zeta * mu is
    the identity; exact linear algebra satisfies rank/kernel identities;
    alternating dimension-vector sums of resolutions recover the module."""
    # Interval enumeration: closed form vs exhaustive subset search.
    for n in (2, 3, 4, 5):
        quiver = commutative_ladder(n)
        closed_form = n * (n + 1) + math.comb(n + 3, 4)
        assert len(enumerate_intervals(quiver)) == closed_form
        brute = 0
        verts = sorted(quiver.vertices)
        for r in range(1, len(verts) + 1):
            for sub in itertools.combinations(verts, r):
                try:
                    Interval(quiver, sub)
                except ValueError:
                    continue
                brute += 1
        assert brute == closed_form

    # zeta * mu = identity on divisibility and containment orders.
    posets = [
        Poset.from_leq(tuple(range(1, 13)), lambda a, b: b % a == 0),
        containment_poset(enumerate_intervals(commutative_ladder(2))),
        containment_poset(enumerate_intervals(commutative_ladder(3))),
    ]
    for pos in posets:
        mu = pos.mobius()
        for a in pos.elements:
            for c in pos.elements:
                if not pos.leq(a, c):
                    continue
                total = sum(
                    mu[(b, c)]
                    for b in pos.elements
                    if pos.leq(a, b) and pos.leq(b, c)
                )
                assert total == (1 if a == c else 0)

    # Exact linear algebra identities over the rationals and GF(5).
    rng = random.Random(99)
    for fld in (QQ, Field.prime(5)):
        for _ in range(8):
            a = Mat.from_rows(fld, [
                [rand_scalar(fld, rng) for _ in range(5)] for _ in range(4)
            ])
            b = Mat.from_rows(fld, [
                [rand_scalar(fld, rng) for _ in range(3)] for _ in range(5)
            ])
            assert a.rank() == a.transpose().rank()
            ker = a.kernel_basis()
            for vec in ker:
                assert (a * Mat.column(fld, vec)).is_zero()
            assert a.rank() + len(ker) == a.ncols
            kmat = Mat.hstack(
                fld, [Mat.column(fld, vec) for vec in ker], nrows=a.ncols
            )
            assert kmat.rank() == len(ker)
            assert (a * b).rank() <= min(a.rank(), b.rank())

    # Alternating sums of resolution dimension vectors recover the module.
    rng = random.Random(7)
    q2, q3 = commutative_ladder(2), commutative_ladder(3)
    mods = [cl3_m45, cl5_m]
    mods += [random_commuting_module(q2, rng) for _ in range(6)]
    mods += [random_commuting_module(q3, rng) for _ in range(3)]
    for m in mods:
        for res in (minimal_interval_resolution(m),
                    minimal_interval_coresolution(m)):
            total = {v: 0 for v in m.quiver.vertices}
            for i, tags in enumerate(res.terms):
                for tag in tags:
                    for v in tag.vertices:
                        total[v] += (-1) ** i
            assert total == dict(m.dims)
