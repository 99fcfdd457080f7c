"""Representations: validation, hom spaces, (co)kernels, direct sums."""

import random
import re
from fractions import Fraction

import pytest

from intres import (
    QQ,
    CommutativityError,
    Field,
    IntervalFamily,
    Mat,
    ModMorphism,
    PersModule,
    betti,
    cokernel,
    commutative_ladder,
    component_morphism,
    direct_sum,
    enumerate_intervals,
    good_components,
    hom_basis,
    identity_morphism,
    interval_module,
    kernel,
    morphism_from_columns,
    zero_module,
)
from intres.modfile import parse_field_token
from intres.poset import BoundQuiver, Interval
from intres.repmod import SourceSolves, flat_offsets

from conftest import (
    IRREDUCIBLE_TOTALS,
    digest,
    grid_hard_module,
    grid_quiver,
    lattice_example,
    load_fixture,
    module_data,
    rand_scalar,
    random_commuting_module,
    random_hom,
    random_interval_sum,
    shuffle_basis,
    sub_family,
    tree_hard_module,
    tree_poset_quiver,
    zigzag_poset_quiver,
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
    assert m.total_dim() == 4 and dict(m.dims) == {"b1": 1, "b2": 1,
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


def test_naturality_enforced():
    """A morphism of V_{b1,b2} to itself that is 1 at b1 and 0 at b2 is
    not natural along the arrow a1: b1 -> b2, and is refused by name."""
    v = interval_module(CL2, Interval(CL2, ["b1", "b2"]), QQ)
    ModMorphism(v, v, {"b1": [[1]], "b2": [[1]]})
    with pytest.raises(ValueError, match="naturality fails along arrow 'a1'"):
        ModMorphism(v, v, {"b1": [[1]], "b2": [[0]]})


@pytest.mark.parametrize("dim", [1.7, "2", Fraction(2)])
def test_a_dimension_that_is_not_an_int_is_refused(dim):
    """A dimension is an int: 1.7 once read 1 and "2" read 2, without a
    word.  Both are refused, naming the vertex, as `Field.coerce` refuses
    a float; a negative one and one for an unknown vertex still are."""
    with pytest.raises(ValueError, match=r"dimension at vertex 'b1' is .*not an int"):
        PersModule(CL2, QQ, {"b1": dim})
    with pytest.raises(ValueError, match="negative dimension at vertex 'b1'"):
        PersModule(CL2, QQ, {"b1": -1})
    with pytest.raises(ValueError, match="unknown vertex 'x9'"):
        PersModule(CL2, QQ, {"x9": 1})


def test_map_shape_validation():
    with pytest.raises(ValueError):
        PersModule(CL2, QQ, {"b1": 1, "b2": 2},
                   {"a1": Mat.from_rows(QQ, [[1]])})


def test_path_map(cl3_m45):
    m = cl3_m45
    assert m.path_map("t2", "t2") == Mat.identity(QQ, 2)
    assert m.path_map("t3", "t1") is None
    # two routes b2 -> t3 agree (commutativity)
    assert m.path_map("b2", "t3") == m.maps["v3"] * m.maps["a2"]
    assert m.path_map("b2", "t3") == m.maps["ta2"] * m.maps["v2"]


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
        assert len(hom_basis(s, vk)) == (
            len(hom_basis(vi, vk)) + len(hom_basis(vj, vk)))
        assert len(hom_basis(vk, s)) == (
            len(hom_basis(vk, vi)) + len(hom_basis(vk, vj)))


def test_hom_dim_invariant_under_shuffle():
    rng = random.Random(13)
    for _ in range(6):
        a, _ = random_interval_sum(CL3, rng, shuffle=False)
        b, _ = random_interval_sum(CL3, rng, shuffle=False)
        assert len(hom_basis(a, b)) == len(hom_basis(shuffle_basis(a, rng),
                                                     shuffle_basis(b, rng)))


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
                assert len(hom_basis(vi, vj)) == len(comps)
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


# ---- irreducible maps of an interval family ------------------------------------

IRREDUCIBLE_TOTALS_BEYOND_LADDERS = {
    "grid": (grid_quiver, 172),
    "grid-op": (lambda: grid_quiver().opposite(), 172),
    "zigzag": (zigzag_poset_quiver, 30),
    "tree": (tree_poset_quiver, 36),
}
FIELDS = ("Q", "GF2", "GF3")


def check_irreducible_maps(quiver, intervals, field):
    """`IntervalFamily.irreducible_maps` against the rank definition, for
    every pair
    s != t: the listed maps of hom(s, t) and rad^2(s, t), the span of the
    composites of basis maps through every other member r, together span
    hom(s, t), and their number is dim hom(s, t) - dim rad^2(s, t).  The
    composite of the basis maps on C1 (s -> r) and C2 (r -> t) is the sum
    of the good components of hom(s, t) inside C1 & C2.  Returns the
    number of listed maps."""
    n = len(intervals)
    hom = {
        (s, t): good_components(quiver, a, b)
        for s, a in enumerate(intervals)
        for t, b in enumerate(intervals)
    }
    listed = {}
    table = IntervalFamily(quiver, intervals, field).irreducible_maps()
    for s, maps in enumerate(table):
        for t, k in maps:
            listed.setdefault((s, t), []).append(k)
    for (s, t), target in hom.items():
        dim = len(target)
        if s == t or not dim:
            assert (s, t) not in listed
            continue
        rad2 = {
            tuple(field.one() if c <= c1 & c2 else field.zero() for c in target)
            for r in range(n)
            if r not in (s, t)
            for c1 in hom[(s, r)]
            for c2 in hom[(r, t)]
        }
        units = [[field.one() if c == k else field.zero() for c in range(dim)]
                 for k in listed.get((s, t), [])]
        rank = Mat.from_rows(field, list(rad2), ncols=dim).rank()
        assert len(units) == dim - rank
        assert Mat.from_rows(field, list(rad2) + units, ncols=dim).rank() == dim
    return sum(map(len, listed.values()))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", sorted(IRREDUCIBLE_TOTALS))
def test_irreducible_maps_of_full_ladder_families(n, field):
    q = commutative_ladder(n)
    total = check_irreducible_maps(q, enumerate_intervals(q), parse_field_token(field))
    assert total == IRREDUCIBLE_TOTALS[n]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", sorted(IRREDUCIBLE_TOTALS_BEYOND_LADDERS))
def test_irreducible_maps_beyond_ladders(name, field):
    """Where an interval has several sources or sinks, and on the opposite
    of the grid, which a coresolution reads.  The full family is settled by
    its members alone; three random sub-families lack some, so a rank
    settles the pairs that no member does (on the grid's draws 4, 2 and 5
    eliminations)."""
    build, want = IRREDUCIBLE_TOTALS_BEYOND_LADDERS[name]
    q = build()
    total = check_irreducible_maps(q, enumerate_intervals(q), parse_field_token(field))
    assert total == want
    for seed in range(3):
        check_irreducible_maps(q, sub_family(q, seed), parse_field_token(field))


# sha256 of `irreducible_maps()` of the full family of the rows x cols grid
# over Q, past the grids that `check_irreducible_maps` can afford
IRREDUCIBLE_GRID_DIGESTS = {
    (3, 4): "d3a7a4938029aa647f07073d9f15ef1dfc775ef77353c46d4039d55532f1023f",
    (4, 4): "9afb4ffa736c089670e3199b0d9f14bf3b29e69380efaa52c33f869f30d79bc8",
}


@pytest.mark.parametrize("shape", sorted(IRREDUCIBLE_GRID_DIGESTS))
def test_irreducible_map_digests_of_grids(shape):
    """The tables of the 3x4 and 4x4 grids, 518 and 1,988 maps, are pinned."""
    q = grid_quiver(*shape)
    table = IntervalFamily(q, enumerate_intervals(q), QQ).irreducible_maps()
    assert digest(table) == IRREDUCIBLE_GRID_DIGESTS[shape]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", (3, 4))
def test_irreducible_maps_of_ladder_sub_families(n, field):
    """Irreducibility depends on the family: a composite through a missing
    interval no longer counts."""
    q = commutative_ladder(n)
    for seed in range(3):
        check_irreducible_maps(q, sub_family(q, seed), parse_field_token(field))


TRANSPOSE_QUIVERS = {
    **{f"ladder{n}": (lambda n=n: commutative_ladder(n)) for n in (2, 3, 4, 5)},
    "grid": grid_quiver,
    "zigzag": zigzag_poset_quiver,
    "tree": tree_poset_quiver,
}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", sorted(TRANSPOSE_QUIVERS))
def test_opposite_family_is_a_fresh_family_over_the_opposite_quiver(name, field):
    """The opposite of a family has the members of a family built afresh
    over the opposite quiver, in the same order, with the same vertex
    tuples and frozensets; its table, the transpose, equals the fresh
    table entry for entry, whichever of the two sides is built first.  For
    the full family and two random sub-families."""
    q = TRANSPOSE_QUIVERS[name]()
    op = q.opposite()
    k = parse_field_token(field)
    for seed in (None, 7, 8):
        members = enumerate_intervals(q) if seed is None else sub_family(q, seed)
        fresh = enumerate_intervals(op) if seed is None else sub_family(op, seed)
        family = IntervalFamily(q, members, k)
        family.irreducible_maps()
        opposite = family.opposite()
        assert opposite.quiver is op and opposite.opposite() is family
        assert opposite.objects == tuple(fresh)
        assert all(
            a.vertices is b.vertices and a.vertex_set is b.vertex_set
            for a, b in zip(opposite.objects, members)
        )
        fresh = IntervalFamily(op, fresh, k)
        assert opposite.irreducible_maps() == fresh.irreducible_maps()
        assert opposite.hom_table() == fresh.hom_table()
        # built on the opposite side first, the tables of the family itself
        # are the transposes of the fresh opposite tables
        again = IntervalFamily(q, members, k)
        assert again.opposite().irreducible_maps() == fresh.irreducible_maps()
        assert again.irreducible_maps() == family.irreducible_maps()
        assert again.hom_table() == family.hom_table()


def vertex_sets(quiver, masks):
    """The vertex bitmasks as frozensets of the quiver's vertices."""
    return [
        frozenset(v for i, v in enumerate(quiver.vertices) if mask >> i & 1)
        for mask in masks
    ]


@pytest.mark.parametrize("name", sorted(TRANSPOSE_QUIVERS))
def test_hom_table_is_the_good_components(name, family_builds):
    """Row s of a family's hom table lists, t increasing, the members t
    with Hom(V_{I_s}, V_{I_t}) != 0 and the good components of I_s & I_t as
    bitmasks, which read back to `good_components` in its order: for the
    full family and two random sub-families.  The table does not depend on
    the field: the family over GF(2) builds one of its own, equal to the
    one over Q.  The opposite family reads the transpose and builds none."""
    q = TRANSPOSE_QUIVERS[name]()
    for seed in (None, 7, 8):
        members = enumerate_intervals(q) if seed is None else sub_family(q, seed)
        family = IntervalFamily(q, members, QQ)
        want = [
            [(t, comps) for t, j in enumerate(members)
             if (comps := good_components(q, i, j))]
            for i in members
        ]
        table = family.hom_table()
        assert [
            [(t, vertex_sets(q, comps)) for t, comps in row] for row in table
        ] == want
        assert IntervalFamily(q, members, Field.prime(2)).hom_table() == table
        transpose = family.opposite().hom_table()
        assert [dict(row) for row in transpose] == [
            {s: dict(row)[t] for s, row in enumerate(table) if t in dict(row)}
            for t in range(len(members))
        ]
        assert family_builds == [("hom", q), ("hom", q)]
        family_builds.clear()


def test_a_quiver_holds_one_family_per_field(family_builds):
    """`IntervalFamily.of` enumerates once per quiver and field; the
    opposite quiver reads the opposite family, and another field has a
    family of its own."""
    q = commutative_ladder(3)
    gf2 = Field.prime(2)
    family = IntervalFamily.of(q, QQ)
    assert IntervalFamily.of(q, QQ) is family
    assert IntervalFamily.of(q.opposite(), QQ) is family.opposite()
    assert IntervalFamily.of(q, gf2) is not family
    assert family_builds == [("enumerate", q), ("enumerate", q)]
    with pytest.raises(ValueError, match=r"over GF\(2\).*over Q\b"):
        IntervalFamily.wrap(IntervalFamily.of(q, gf2), q, QQ)
    with pytest.raises(ValueError, match="6 vertices.*4 vertices"):
        IntervalFamily.wrap(family, CL2, QQ)


def test_a_family_refuses_a_repeated_member():
    """A member listed twice would get two positions and a table with a
    row for each; the family names it instead."""
    members = enumerate_intervals(CL2)
    with pytest.raises(ValueError, match=re.escape(f"lists {members[3]!r} more")):
        IntervalFamily(CL2, members + [members[3]], QQ)
    copy = Interval(CL2, members[0].vertices)
    with pytest.raises(ValueError, match=re.escape(repr(members[0]))):
        IntervalFamily(CL2, [copy] + members, QQ)


def test_a_family_refuses_a_member_over_another_quiver():
    """Bitmasks are read by vertex name, so members over the opposite quiver
    would pass for members over the quiver: a coresolution over them is
    wrong (one term where there are three).  The family names the first
    one instead.  A member over an equal quiver built apart is accepted."""
    members = enumerate_intervals(CL2)
    flipped = [iv.opposite() for iv in members]
    foreign = re.escape(f"member {flipped[0]!r} is over another quiver")
    with pytest.raises(ValueError, match=foreign):
        IntervalFamily(CL2, flipped, QQ)
    foreign = re.escape(f"member {flipped[2]!r} is over another quiver")
    with pytest.raises(ValueError, match=foreign):
        IntervalFamily(CL2, members[:2] + flipped[2:], QQ)
    twin = commutative_ladder(2)
    assert twin is not CL2 and twin == CL2
    family = IntervalFamily(twin, members, QQ)
    assert family.objects == tuple(members)


def test_wrap_names_the_quiver_that_differs():
    """A family over the opposite ladder, or over a ladder with one arrow
    renamed, has the same vertex and arrow counts as the ladder, so the
    two reprs read alike; the refusal says which quiver differs."""
    q = commutative_ladder(3)
    shape = "BoundQuiver(6 vertices, 7 arrows)"
    flipped = IntervalFamily.of(q.opposite(), QQ)
    want = f"over {shape} (the opposite quiver), not over {shape}"
    with pytest.raises(ValueError, match=re.escape(want)):
        IntervalFamily.wrap(flipped, q, QQ)
    first = next(iter(q.arrows))
    renamed = BoundQuiver(
        q.vertices, {("x" if a == first else a): st for a, st in q.arrows.items()}
    )
    src, tgt = q.arrows[first]
    want = f"over {shape} (which has arrow 'x': {src!r} -> {tgt!r}), not over {shape}"
    with pytest.raises(ValueError, match=re.escape(want)):
        IntervalFamily.wrap(IntervalFamily.of(renamed, QQ), q, QQ)
    want = f"over {shape} (which has arrow {first!r}: {src!r} -> {tgt!r}), not"
    with pytest.raises(ValueError, match=re.escape(want)):
        IntervalFamily.wrap(IntervalFamily.of(q, QQ), renamed, QQ)


def test_a_hom_solve_names_the_opposite_quiver(cl3_m45):
    """An interval of the opposite ladder is refused by the module's
    table of path maps, which says that its quiver is the opposite one."""
    iv = Interval(cl3_m45.quiver.opposite(), ["t1", "t2"])
    shape = "BoundQuiver(6 vertices, 7 arrows)"
    want = f"over {shape} (the opposite quiver) but the module is over {shape}"
    with pytest.raises(ValueError, match=re.escape(want)):
        SourceSolves(cl3_m45).hom_basis(iv)


@pytest.mark.parametrize("name", sorted(TRANSPOSE_QUIVERS))
def test_up_sets_are_the_containing_members(name):
    """A family's up-sets, read off its bitmasks, are the members whose
    vertex sets contain the member's, in order: for the full family and a
    random sub-family."""
    q = TRANSPOSE_QUIVERS[name]()
    for members in (enumerate_intervals(q), sub_family(q, 7)):
        family = IntervalFamily(q, members, QQ)
        want = tuple(
            tuple(t for t, j in enumerate(members) if i.vertex_set <= j.vertex_set)
            for i in members
        )
        assert family.up_sets() == want


def test_held_family_and_enumeration_share_no_mutable_state(cl3_m45):
    """`enumerate_intervals` returns a fresh list, and a held family's
    members, positions, table and containment structure cannot be changed,
    so what one caller does to them leaves the next call's result as it
    was."""
    q = cl3_m45.quiver
    first = enumerate_intervals(q)
    want = list(first)
    first.reverse()
    first.pop()
    assert enumerate_intervals(q) == want
    family = IntervalFamily.of(q, QQ)
    table = family.irreducible_maps()
    want_table = [list(maps) for maps in table]
    s = next(s for s, maps in enumerate(table) if maps)
    with pytest.raises(TypeError):
        table[s] = ()
    with pytest.raises(AttributeError):
        table[s].remove(table[s][0])
    with pytest.raises(TypeError):
        family.objects[0] = family.objects[1]
    with pytest.raises(TypeError):
        family.index[family.objects[0]] = 1
    up_sets = family.up_sets()
    assert family.up_sets() is up_sets and isinstance(up_sets, tuple)
    assert all(isinstance(up, tuple) for up in up_sets)
    with pytest.raises(TypeError):
        up_sets[0] = ()
    with pytest.raises(AttributeError):
        up_sets[0].append(0)
    hom = family.hom_table()
    want_hom = [[(t, list(comps)) for t, comps in row] for row in hom]
    assert family.hom_table() is hom and isinstance(hom, tuple)
    assert all(isinstance(row, tuple) for row in hom)
    assert all(
        isinstance(pair, tuple) and isinstance(pair[1], tuple)
        for row in hom for pair in row
    )
    with pytest.raises(TypeError):
        hom[0] = ()
    with pytest.raises(TypeError):
        hom[0][0][1][0] = 0
    assert [[(t, list(comps)) for t, comps in row]
            for row in IntervalFamily.of(q, QQ).hom_table()] == want_hom
    assert IntervalFamily.of(q, QQ).irreducible_maps() == tuple(map(tuple, want_table))
    assert list(IntervalFamily.of(q, QQ).objects) == want
    # a plain list given as the family is wrapped for the call, not held
    members = enumerate_intervals(q)
    table = betti(cl3_m45, family=members)
    members.clear()
    assert betti(cl3_m45, family=want) == table == betti(cl3_m45)


def test_hom_basis_zero_cases():
    a = interval_module(CL2, Interval(CL2, ["t1"]), QQ)
    b = interval_module(CL2, Interval(CL2, ["b2"]), QQ)
    assert hom_basis(a, b) == []
    assert len(hom_basis(a, zero_module(CL2, QQ))) == 0


# ---- interval hom spaces Hom(V_J, M) ------------------------------------------------


def interval_hom_modules(case, field):
    """The modules of one pinned case: a fixture over `field` and its dual,
    or two sampler draws on ladder 4."""
    if case == "ladder4-draws":
        rng = random.Random(23)
        q = commutative_ladder(4)
        return [random_commuting_module(q, rng, field) for _ in range(2)]
    m = load_fixture(case, field)
    return [m, m.dual()]


# sha256 of [J, flat basis of Hom(V_J, M)] over every interval J of the
# module's quiver, intervals in `enumerate_intervals` order
INTERVAL_HOM_DIGESTS = {
    ("cl3_m45.mod", "Q"):
        "3f9fe5ebc7ac4a3260c2d2ef8c0572e80a10d2027c1f44aff748e7598cc8b78c",
    ("cl3_m45.mod", "GF2"):
        "77fdc837e74e9caa14c9d9df165c1a322eb8210003c26499ebac40336b7624ca",
    ("cl3_m45.mod", "GF3"):
        "75214a791edd14e21fdb7a361bca8cef230a1f0fa8395b2756430002bc180f11",
    ("cl5_m.mod", "Q"):
        "b20e5d4f4d37407e56c9ac4b076f7741c171722ab456c56f1d49e1f616a7a0f1",
    ("cl5_m.mod", "GF2"):
        "083f52263049fc81273542d9e464ec31b25f69b728090fd2361cad31f3bfc586",
    ("cl5_m.mod", "GF3"):
        "93777e71a30fb4bd01ba57ae3f39fa58ce2ac49a65d1b4febdc145de66ce4e43",
    ("ladder4-draws", "Q"):
        "084a6e226404df4c5632446f2742fd528fe7d7f48608a07f732df6b12e11ec0a",
    ("ladder4-draws", "GF5"):
        "37dc94c52192ad6977478ceb920a013c736603823ed053a21016191ed3a2d47e",
}


def general_solver(j, m):
    """Hom(V_J, M) by the general solver, as the flat vectors of its basis
    morphisms: the layout `SourceSolves.hom_basis` returns."""
    return [h.flat() for h in hom_basis(interval_module(m.quiver, j, m.field), m)]


def source_solver(j, m):
    """Hom(V_J, M) from the sources of J, on a table of its own."""
    return SourceSolves(m).hom_basis(j)


@pytest.mark.parametrize("solve", [general_solver, source_solver],
                         ids=["hom_basis", "from_interval"])
@pytest.mark.parametrize("case, field", sorted(INTERVAL_HOM_DIGESTS))
def test_interval_hom_digests(case, field, solve):
    """The flat bases of Hom(V_J, M), in order and entry for entry, are
    pinned for every interval J, for the general solver and for the one
    the library uses."""
    data = []
    for m in interval_hom_modules(case, parse_field_token(field)):
        for j in enumerate_intervals(m.quiver):
            basis = solve(j, m)
            data.append([sorted(j.vertex_set),
                         [[str(x) for x in h] for h in basis]])
    assert digest(data) == INTERVAL_HOM_DIGESTS[(case, field)]


def assert_matches_general_solver(m, intervals=None):
    """On every interval J (of m's quiver by default), Hom(V_J, M) from
    the sources of J equals `hom_basis`'s, morphism for morphism, and is
    the identity on its distinct free columns; its dimension alone, a
    nullity, is the length of that basis."""
    for j in intervals or enumerate_intervals(m.quiver):
        flats = SourceSolves(m).hom_basis(j)
        src = interval_module(m.quiver, j, m.field)
        want = hom_basis(src, m)
        assert flats == [h.flat() for h in want]
        assert [ModMorphism.from_flat(src, m, vec) for vec in flats] == want
        assert all(len(vec) == flat_offsets(j, m.dims)[1] for vec in flats)
        assert SourceSolves(m).hom_dim(j) == len(want)
        free = Mat.free_columns(flats)
        assert len(set(free)) == len(free)
        for r, vec in enumerate(flats):
            assert [vec[c] for c in free] == [int(r == t) for t in range(len(free))]


@pytest.mark.parametrize("field", ["Q", "GF2", "GF3", "GF5"])
def test_hom_from_interval_matches_general_solver_on_ladders(field):
    """Seeded draws on ladders 2 to 5 and both fixtures, with their duals
    over the opposite quiver, where the sources of J are its sinks."""
    k = parse_field_token(field)
    rng = random.Random(31)
    mods = [load_fixture(name, k) for name in ("cl3_m45.mod", "cl5_m.mod")]
    for n in (2, 3, 4, 5):
        mods.append(random_commuting_module(commutative_ladder(n), rng, k))
    for m in mods:
        assert_matches_general_solver(m)
        assert_matches_general_solver(m.dual())


@pytest.mark.parametrize("field", ["Q", "GF2", "GF3"])
def test_hom_from_interval_matches_general_solver_beyond_ladders(field):
    """A 3x3 grid, a zigzag, a tree poset and the Y-shaped lattice
    example: a seeded draw on each and its dual, and the two modules that
    are not interval-decomposable."""
    k = parse_field_token(field)
    rng = random.Random(32)
    quivers = [grid_quiver(), zigzag_poset_quiver(), tree_poset_quiver(),
               lattice_example()[0]]
    mods = [random_commuting_module(q, rng, k) for q in quivers]
    mods += [grid_hard_module(k), tree_hard_module(k)]
    for m in mods:
        assert_matches_general_solver(m)
        assert_matches_general_solver(m.dual())


def test_hom_from_interval_with_three_sources():
    """The up-set above the antidiagonal of the 3x3 grid has three
    sources; into the constant module, paths from all three meet, and
    Hom(V_J, M) is one-dimensional."""
    q = grid_quiver()
    j = Interval(q, ["g02", "g11", "g20", "g12", "g21", "g22"])
    sources = [v for v in j if not any(u in j for _, u in q.arrows_into(v))]
    assert sorted(sources) == ["g02", "g11", "g20"]
    const = PersModule(q, QQ, {v: 1 for v in q.vertices},
                       {a: [[1]] for a in q.arrows})
    basis = SourceSolves(const).hom_basis(j)
    assert len(basis) == 1
    assert_matches_general_solver(const, [j])
    assert_matches_general_solver(grid_hard_module(QQ), [j])


def test_hom_from_interval_edge_cases(cl3_m45, monkeypatch):
    """The zero module, intervals whose sources are all zero (answered
    without an elimination), single vertices, an interval built from a
    vertex list, and an interval of the opposite quiver on the dual
    module."""
    q = cl3_m45.quiver
    for j in enumerate_intervals(q):
        assert SourceSolves(zero_module(q, QQ)).hom_basis(j) == []
    singles = [Interval(q, [v]) for v in q.vertices]
    assert_matches_general_solver(cl3_m45, singles)
    listed = Interval(q, ["t1", "t2"])
    assert SourceSolves(cl3_m45).hom_basis(listed) == general_solver(listed, cl3_m45)
    dm = cl3_m45.dual()
    j_op = Interval(dm.quiver, ["b2", "b3", "t2", "t3"])
    assert_matches_general_solver(dm, [j_op])
    # b1 is the only source of the whole ladder, and M(b1) = 0
    monkeypatch.setattr(Mat, "kernel_basis", None)
    assert SourceSolves(cl3_m45).hom_basis(Interval(q, q.vertices)) == []
    assert SourceSolves(cl3_m45).hom_basis(Interval(q, ["b1", "b2"])) == []


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
    z = ModMorphism(m, m)
    assert dict(kernel(z).module.dims) == dict(m.dims)
    assert dict(cokernel(z).module.dims) == dict(m.dims)


def test_is_iso_ranks_each_component_once(monkeypatch, cl3_m45):
    """An isomorphism is ranked once per vertex, not by `is_mono` and then
    again by `is_epi`; a morphism whose shapes differ somewhere is refused
    without a rank, and a square non-isomorphism is refused too."""
    m = shuffle_basis(cl3_m45, random.Random(17))
    ranks = []
    rank = Mat.rank

    def counted(self):
        ranks.append(self.shape)
        return rank(self)

    monkeypatch.setattr(Mat, "rank", counted)
    assert identity_morphism(m).is_iso()
    assert len(ranks) == len(m.quiver.vertices)
    ranks.clear()
    v = interval_module(CL3, Interval(CL3, ["t1", "t2"]), QQ)
    assert not ModMorphism(v, cl3_m45).is_iso()
    assert ranks == []
    assert not ModMorphism(m, m).is_iso()
    assert 0 < len(ranks) <= len(m.quiver.vertices)


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


@pytest.mark.parametrize("field", ["Q", "GF3"])
def test_direct_sum_is_the_block_diagonal_matrix(field):
    """Along every arrow the map of a direct sum is the block-diagonal
    matrix of the summands' maps, as `Mat.block` assembles it from explicit
    zero blocks: with summands that vanish at some vertices or everywhere,
    and a lone summand."""
    k = parse_field_token(field)
    rng = random.Random(41)
    q = CL3
    ivs = enumerate_intervals(q)
    pieces = [
        random_commuting_module(q, rng, k),
        zero_module(q, k),
        interval_module(q, rng.choice(ivs), k),
        random_commuting_module(q, rng, k),
        zero_module(q, k),
    ]
    for mods in (pieces, pieces[:1], pieces[1:2], pieces[1:3]):
        s = direct_sum(mods)
        assert s.dims == {v: sum(m.dims[v] for m in mods) for v in q.vertices}
        for a, (u, v) in q.arrows.items():
            grid = [
                [m.maps[a] if r == c else Mat.zeros(k, m.dims[v], n.dims[u])
                 for c, n in enumerate(mods)]
                for r, m in enumerate(mods)
            ]
            assert s.maps[a] == Mat.block(k, grid)
        s.validate_commutativity()


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
