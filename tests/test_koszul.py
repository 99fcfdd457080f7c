"""The interval family as a category, Koszul coresolutions/complexes,
lattice variants."""

import hashlib
import json
import random
import re
from collections import Counter

import pytest

from intres import (
    QQ,
    Field,
    IntervalFamily,
    LatticeModule,
    Mat,
    ModMorphism,
    betti,
    betti_table_via_koszul,
    build_end_category,
    build_lattice_gauge,
    cl_interval,
    commutative_ladder,
    component_morphism,
    direct_sum,
    enumerate_intervals,
    formal_koszul_coresolution,
    good_components,
    hom_basis,
    interval_module,
    interval_replacement,
    is_interval_decomposable,
    koszul_complex,
    koszul_coresolution,
    lattice_module_from_persistence,
    min_proj_resolution,
    replacement_at,
    semilattice_koszul_complex,
    validate_koszul_coresolution,
)
from intres import koszul, repmod
from intres.koszul import IntervalCochain, projective_cover_step
from intres.modfile import parse_field_token
from intres.poset import BoundQuiver, Interval, Poset
from intres.resolve import MaxLengthExceeded

from conftest import (
    IRREDUCIBLE_TOTALS,
    cochain_differentials,
    digest,
    grid_quiver,
    lattice_example,
    load_fixture,
    random_commuting_module,
    random_interval_sum,
    sub_family,
    tree_poset_quiver,
    zigzag_poset_quiver,
)

CL2 = commutative_ladder(2)
CL3 = commutative_ladder(3)


def multisets(cochain):
    return [Counter(tuple(t.vertices) for t in tags) for tags in cochain.terms]


def with_cancelling_pair(cochain, degree, interval):
    """A homotopy-equivalent cochain with V_J appended in degrees d and d+1
    and an identity block between the two copies (for invariance tests)."""
    field = cochain.field
    old = cochain.terms
    terms = [list(t) for t in old] + [[] for _ in range(degree + 2 - len(old))]
    terms[degree].append(interval)
    terms[degree + 1].append(interval)

    def block(i, u_new, u_prev):
        if (i < len(cochain.blocks) and u_new < len(old[i + 1])
                and u_prev < len(old[i])):
            return cochain.blocks[i][u_new][u_prev]
        if (i, u_new, u_prev) == (degree, len(terms[i + 1]) - 1,
                                  len(terms[i]) - 1):
            return [field.one()]  # hom(J, J) has the one component J
        j, k = terms[i][u_prev], terms[i + 1][u_new]
        return [field.zero()] * len(good_components(interval.quiver, j, k))

    blocks = [
        [[block(i, u_new, u_prev) for u_prev in range(len(terms[i]))]
         for u_new in range(len(terms[i + 1]))]
        for i in range(len(terms) - 1)
    ]
    return IntervalCochain(cochain.interval, terms, blocks, field)


def hom(family, s, t):
    """The basis of hom(s, t) as vertex sets: the good components that row s
    of the family's hom table lists for t, read off their bitmasks."""
    vertices = family.quiver.vertices
    return [
        frozenset(v for i, v in enumerate(vertices) if comp >> i & 1)
        for comp in family.hom_table()[s].get(t, ())
    ]


def compose_coeffs(cat, s, t, u):
    """Composition constants: (a, b) -> the indices c with x_b o x_a = sum
    of the x_c, where x_a is the a-th basis map of hom(s, t), x_b the b-th
    of hom(t, u) and x_c the c-th of hom(s, u), in `hom_table` order.  The
    composite of two component indicators is the sum of the good
    components of I_s & I_u contained in both, so every constant is 0 or 1,
    whatever the field.  Read off the hom table's bitmasks."""
    rows = cat.hom_table()
    target = rows[s].get(u, ())
    return {
        (a, b): [c for c, comp in enumerate(target) if not comp & ~(c1 & c2)]
        for a, c1 in enumerate(rows[s].get(t, ()))
        for b, c2 in enumerate(rows[t].get(u, ()))
    }


def check_associativity(cat):
    """Exhaustively verify associativity of the composition tensors; cost
    grows with the fourth power of the object count."""
    n = len(cat.objects)
    for s in range(n):
        for t in range(n):
            if not hom(cat, s, t):
                continue
            for u in range(n):
                if not hom(cat, t, u):
                    continue
                for w in range(n):
                    if not hom(cat, u, w):
                        continue
                    _check_assoc_triple(cat, s, t, u, w)
    return True


def _check_assoc_triple(cat, s, t, u, w):
    st = len(hom(cat, s, t))
    tu = len(hom(cat, t, u))
    uw = len(hom(cat, u, w))
    t_stu = compose_coeffs(cat, s, t, u)
    t_suw = compose_coeffs(cat, s, u, w)
    t_tuw = compose_coeffs(cat, t, u, w)
    t_stw = compose_coeffs(cat, s, t, w)
    for a in range(st):
        for b in range(tu):
            for c in range(uw):
                # (c o b) o a
                lhs = {}
                for d in t_stu[(a, b)]:
                    for e in t_suw[(d, c)]:
                        lhs[e] = lhs.get(e, 0) + 1
                # c o (b o a)
                rhs = {}
                for d in t_tuw[(b, c)]:
                    for e in t_stw[(a, d)]:
                        rhs[e] = rhs.get(e, 0) + 1
                if lhs != rhs:
                    raise AssertionError(
                        f"associativity fails at objects {(s, t, u, w)}"
                    )


# ---- the interval family as a category ------------------------------------------


def test_end_category_shape():
    """The hom table holds the good components of every hom space, and
    the lengths of its rows' entries count them."""
    cat = build_end_category(CL2)
    assert len(cat.objects) == 11
    for s, i in enumerate(cat.objects):
        for t, j in enumerate(cat.objects):
            assert hom(cat, s, t) == good_components(CL2, i, j)
            assert len(cat.hom_table()[s].get(t, ())) == len(hom(cat, s, t))
        # the endomorphism space of each interval is one-dimensional
        assert hom(cat, s, s) == [i.vertex_set]


def test_end_category_associativity():
    assert check_associativity(build_end_category(CL2))


def test_identity_composition_laws():
    cat = build_end_category(CL2)
    for s in range(len(cat.objects)):
        for t in range(len(cat.objects)):
            d = len(hom(cat, s, t))
            if d == 0:
                continue
            # composing with identities (basis map 0 of hom(t, t)) is the
            # identity permutation
            left = compose_coeffs(cat, s, t, t)
            for a in range(d):
                assert left[(a, 0)] == [a]
            right = compose_coeffs(cat, s, s, t)
            for b in range(d):
                assert right[(0, b)] == [b]


def test_basis_morphisms_match_components():
    """The basis morphisms are the component indicators, and compose by the
    structure constants: x_b o x_a is the sum of the x_c listed in
    compose_coeffs(cat, s, t, u)[(a, b)]."""
    cat = build_end_category(CL2)
    n = len(cat.objects)

    def cm(s, t, k):
        return component_morphism(
            CL2, cat.objects[s], cat.objects[t], hom(cat, s, t)[k], QQ
        )

    for s in range(n):
        for t in range(n):
            comps = hom(cat, s, t)
            for k, comp in enumerate(comps):
                h = cm(s, t, k)
                h.validate_naturality()
                for v in CL2.vertices:
                    expect = 1 if v in comp else 0
                    got = h.comps[v]
                    assert (got.data and got.data[0] == expect) or (
                        not got.data and expect == 0
                    )
    for s in range(n):
        for t in range(n):
            for u in range(n):
                if not hom(cat, s, t) or not hom(cat, t, u):
                    continue
                tensor = compose_coeffs(cat, s, t, u)
                for (a, b), cs in tensor.items():
                    want = ModMorphism(
                        interval_module(CL2, cat.objects[s], QQ),
                        interval_module(CL2, cat.objects[u], QQ),
                    )
                    for c in cs:
                        want = want + cm(s, u, c)
                    assert cm(t, u, b).compose(cm(s, t, a)) == want


FIELDS = ("Q", "GF2", "GF3")


def check_category_irreducible_maps(cat):
    """The category's table against the rank definition, read in the
    composition constants of `compose_coeffs`: for every pair s != t, the
    listed maps of hom(s, t) and rad^2(s, t), the span of the composites of
    basis maps through every r != s, t, together span hom(s, t), and their
    number is dim hom(s, t) - dim rad^2(s, t).  Returns the number of
    listed maps."""
    field, n = cat.field, len(cat.objects)
    dims = {(s, t): len(hom(cat, s, t)) for s in range(n) for t in range(n)}
    listed = {}
    for s, maps in enumerate(cat.irreducible_maps()):
        for t, k in maps:
            listed.setdefault((s, t), []).append(k)
    for s in range(n):
        for t in range(n):
            dim = dims[(s, t)]
            if s == t or not dim:
                assert (s, t) not in listed
                continue
            rad2 = [
                [field.one() if c in cs else field.zero() for c in range(dim)]
                for r in range(n)
                if r not in (s, t) and dims[(s, r)] and dims[(r, t)]
                for cs in compose_coeffs(cat, s, r, t).values()
            ]
            units = [[field.one() if c == k else field.zero()
                      for c in range(dim)] for k in listed.get((s, t), [])]
            rank = Mat.from_rows(field, rad2, ncols=dim).rank()
            assert len(units) == dim - rank
            assert Mat.from_rows(field, rad2 + units, ncols=dim).rank() == dim
    return sum(map(len, listed.values()))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", sorted(IRREDUCIBLE_TOTALS))
def test_irreducible_maps_of_full_families(n, field):
    q = commutative_ladder(n)
    cat = build_end_category(q, None, parse_field_token(field))
    assert check_category_irreducible_maps(cat) == IRREDUCIBLE_TOTALS[n]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", (3, 4))
def test_irreducible_maps_of_sub_families(n, field):
    """Irreducibility depends on the family: a composite through a missing
    interval no longer counts."""
    q = commutative_ladder(n)
    for seed in range(3):
        family = sub_family(q, seed)
        cat = build_end_category(q, family, parse_field_token(field))
        check_category_irreducible_maps(cat)


def test_irreducible_maps_are_built_once_per_category(family_builds):
    """Without a family, the category reads the one that its quiver holds
    for its field: one enumeration, one hom table and one table of
    irreducible maps on first use, shared with
    the resolve route over the same quiver and never built again.  The
    module is parsed afresh, so that no held table comes from another
    test."""
    m = load_fixture("cl3_m45.mod")
    q = m.quiver
    cat = build_end_category(q, None, QQ)
    assert family_builds == [("enumerate", q)]
    table = betti_table_via_koszul(m, cat=cat)
    assert family_builds == [("enumerate", q), ("hom", q), ("table", q)]
    assert betti_table_via_koszul(m, cat=cat) == table == betti(m)
    assert build_end_category(q, None, QQ).irreducible_maps() is cat.irreducible_maps()
    assert family_builds == [("enumerate", q), ("hom", q), ("table", q)]


def test_a_category_refuses_a_repeated_member():
    """A repeated object once met the cover step's bare "kernel not
    invariant"; the category now refuses it and names it."""
    ivs = enumerate_intervals(CL2)
    m = interval_module(CL2, ivs[0], QQ)
    with pytest.raises(ValueError, match=re.escape(f"lists {ivs[0]!r} more")):
        betti_table_via_koszul(m, cat=build_end_category(CL2, ivs + [ivs[0]], QQ))


# ---- minimal projective resolutions ----------------------------------------------


def test_min_proj_resolution_starts_at_cover():
    cat = build_end_category(CL2)
    for s in range(0, len(cat.objects), 3):
        cochain = min_proj_resolution(cat, s)
        assert cochain.terms[0] == [cat.objects[s]]
        assert len(cochain.blocks) == cochain.length


def test_cover_step_rejects_a_non_submodule():
    """Dropping the vectors at one object t from rad hom(s, -) leaves a
    submodule exactly when no other object's vectors act nonzero into t;
    otherwise the cover step refuses it."""
    cat = build_end_category(CL2)
    n = len(cat.objects)
    raised = 0
    for s in range(n):
        rad = {
            t: Mat.identity(QQ, len(hom(cat, s, t))).rows()
            for t in range(n) if t != s and hom(cat, s, t)
        }
        for t in rad:
            syzygy = {r: vecs for r, vecs in rad.items() if r != t}
            invariant = not any(
                compose_coeffs(cat, s, r, t)[(a, k)]
                for r in syzygy
                for a in range(len(hom(cat, s, r)))
                for k in range(len(hom(cat, r, t)))
            )
            if invariant:
                projective_cover_step(cat, [s], syzygy)
                continue
            with pytest.raises(AssertionError, match="kernel not invariant"):
                projective_cover_step(cat, [s], syzygy)
            raised += 1
    assert raised == 19


def test_a_missing_irreducible_map_is_caught_or_harmless(monkeypatch):
    """Dropping one irreducible map from the table shrinks some radicals,
    so a cover may keep a generator too many; the minimality check must
    then raise.  Each of the 44 drops on ladder 3 either raises or leaves
    every resolution as it was, never a silently different one.  Each drop
    is read over a fresh quiver, which holds no table yet."""

    def resolutions(cat):
        cochains = [min_proj_resolution(cat, s) for s in range(len(cat.objects))]
        return [(cochain.terms, cochain.blocks) for cochain in cochains]

    full = build_end_category(commutative_ladder(3), None, QQ)
    want = resolutions(full)
    drops = [(s, m) for s, maps in enumerate(full.irreducible_maps()) for m in maps]
    assert len(drops) == 44
    tabulate = repmod._irreducible_table
    raised = 0
    for s, m in drops:
        def dropped(quiver, hom, field):
            table = [list(maps) for maps in tabulate(quiver, hom, field)]
            table[s].remove(m)
            return tuple(map(tuple, table))

        monkeypatch.setattr(repmod, "_irreducible_table", dropped)
        cat = build_end_category(commutative_ladder(3), None, QQ)
        try:
            got = resolutions(cat)
        except AssertionError as err:
            assert str(err) == "resolution is not minimal"
            raised += 1
            continue
        assert got == want
    assert raised == 32


def scatter(cat, tags, offsets, vec, s, t, k, held):
    """The image in all of P(t) of a vector of P(s) under the k-th basis
    map of hom(s, t), scattered through the composition constants:
    coordinate (u, a) goes to every (u, c) with c in
    compose_coeffs(cat, tags[u], s, t)[(a, k)].  `held` keeps the
    constants per triple."""
    out = [cat.field.zero()] * offsets[t][-1]
    for u, tag in enumerate(tags):
        start, target = offsets[s][u], offsets[t][u]
        if (tag, s, t) not in held:
            held[tag, s, t] = compose_coeffs(cat, tag, s, t)
        for a in range(offsets[s][u + 1] - start):
            for c in held[tag, s, t][(a, k)]:
                out[target + c] = vec[start + a]
    return out


@pytest.mark.parametrize("field", ("Q", "GF2"))
def test_the_action_is_the_scatter_through_composition_constants(
    field, monkeypatch
):
    """At every cover step of every resolution, on ladders 2-4, the 3x3
    grid, the zigzag and the tree, the action read at one vertex per
    component equals the scatter through the composition constants over
    all of P(t), for the radical images and the cover matrix alike."""
    act = koszul._act
    calls, held = Counter(), {}

    def checked(cat, tags, offsets, vec, s, t, k):
        full = scatter(cat, tags, offsets, vec, s, t, k, held)
        got = act(cat, tags, offsets, vec, s, t, k)
        assert got == full
        calls["nonzero" if any(full) else "zero"] += 1
        return got

    monkeypatch.setattr(koszul, "_act", checked)
    quivers = [commutative_ladder(n) for n in (2, 3, 4)]
    quivers += [grid_quiver(), zigzag_poset_quiver(), tree_poset_quiver()]
    for q in quivers:
        cat = IntervalFamily(q, enumerate_intervals(q), parse_field_token(field))
        held.clear()
        for s in range(len(cat.objects)):
            min_proj_resolution(cat, s)
    assert min(calls.values()) > 1000


# ---- Koszul coresolutions -----------------------------------------------------------


def test_cl3_coresolution_terms(cl3_m45):
    q = cl3_m45.quiver
    i_a = cl_interval(q, top=(1, 3), bot=(3, 3))
    c = koszul_coresolution(q, i_a, QQ)
    assert c.terms[0] == [i_a]
    assert multisets(c)[1] == Counter(
        tuple(iv.vertices)
        for iv in (
            cl_interval(q, bot=(3, 3)),
            cl_interval(q, top=(1, 2)),
            cl_interval(q, top=(1, 3), bot=(2, 3)),
        )
    )
    assert multisets(c)[2] == Counter(
        [tuple(cl_interval(q, top=(1, 2), bot=(2, 3)).vertices)]
    )
    assert c.length == 2
    # the blocks, with the degree-one terms in the order bot=[3,3];
    # top=[1,2]; top=[1,3] bot=[2,3]
    assert c.terms[1] == [
        cl_interval(q, bot=(3, 3)),
        cl_interval(q, top=(1, 2)),
        cl_interval(q, top=(1, 3), bot=(2, 3)),
    ]
    assert c.blocks == [[[[1]], [[1]], [[1]]], [[[-1], [-1], [1]]]]
    gf2 = Field.prime(2)
    c2 = koszul_coresolution(q, i_a, gf2)
    assert c2.terms == c.terms and c2.field == gf2
    assert c2.blocks == [[[[1]], [[1]], [[1]]], [[[1], [1], [1]]]]


# sha256 of the terms (vertex sets) and blocks of every interval's cochain,
# intervals in family order; a ladder by its length, the other quivers by
# name (`OFF_LADDERS`)
COCHAIN_DIGESTS = {
    (3, "Q"): "50a65af1c457bfd6dd5980f5f2754a3448e856b9485b9707f6c0ceb9f50c7cd2",
    (3, "GF2"): "5b80dc45fea3d5d2598ae86e30ab69d8915065666143730284abaadf34c47d3e",
    (4, "Q"): "9d565333154b09b5c86465ea0915f8821d132223e1ebc17b1ebb7d5e39ab6112",
    (4, "GF2"): "2c658a0506315b7ec2162cebae2b37ae727df4423f210f5a7758834d215dea10",
    (4, "GF3"): "8b85919f3a8c06aebedfddf93c3959bcabca99f3cab5030a54d2a8b768645b7b",
    (5, "GF2"): "52673eec47ce136715b1f1bf9be94a2f6162819df50568c016375cf0835faf46",
    ("grid", "Q"): "8e4d48357b514532ad16f30996ec4286bcd86e435060115d7983c0e4051d7a94",
    ("grid", "GF2"): "d0068a1827e718bfd7b5f3fcb1e0ebc254d84c25344d3ede4022e3118b432dfd",
    ("tree", "Q"): "aadd0db2adbfc1376f238b837e9baa79d68c2512337787fb7f5082b812cf7e25",
    ("tree", "GF2"): "e32bf9e9ecb5b5789fb501e67a46c06e6f3103dc36bd262b52afc4d2f0b46856",
    ("zigzag", "Q"): "925d53022ae2a21e04ec3c763f595096cc63f49d4dd679f0cded10bc8c422bbb",
    ("zigzag", "GF2"): "a933133b09afe3c8f997014f9425b648d99ffec533a4078fb622c350bfe1b9db",
}
OFF_LADDERS = {
    "grid": grid_quiver, "tree": tree_poset_quiver, "zigzag": zigzag_poset_quiver,
}


@pytest.mark.parametrize("n, field", list(COCHAIN_DIGESTS))
def test_cochain_digests(n, field):
    """Every cochain of ladders 3 to 5, of the 3x3 grid, of the tree and
    of the zigzag, term order and coefficients included, is pinned.  The
    3x3 grid has hom spaces of dimension 2 and 3."""
    q = OFF_LADDERS[n]() if n in OFF_LADDERS else commutative_ladder(n)
    cat = build_end_category(q, None, parse_field_token(field))
    data = []
    for iv in cat.objects:
        c = koszul_coresolution(q, iv, cat.field, cat=cat)
        data.append([
            sorted(iv.vertex_set),
            [[sorted(t.vertex_set) for t in tags] for tags in c.terms],
            [[[[str(x) for x in b] for b in row] for row in rows]
             for rows in c.blocks],
        ])
    digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
    assert digest == COCHAIN_DIGESTS[(n, field)]


# sha256 of the dims and matrices of the Koszul complex of a fixture at every
# interval, intervals in family order
COMPLEX_DIGESTS = {
    ("cl3_m45.mod", "Q"):
        "dcadd6e578a79573aac66532859cb6f1d092578eb2adccd6c9b56b20dc8bb72c",
    ("cl3_m45.mod", "GF2"):
        "9f6470b72305e97faa9c9de831393eab5f5126fc00f5dafcad0ee34adcfcf3f5",
    ("cl3_m45.mod", "GF3"):
        "88aa230d75c3c80e03abb8ba4ace0477d2fb585ce62aae71529e4233b7f2c669",
    ("cl5_m.mod", "Q"):
        "a67acbaab636fc9efe5ef664a941e766c749c1873b8356262f2de1d290e8eb75",
    ("cl5_m.mod", "GF2"):
        "1d57f8b4aefb614df7aa478c9fd6447b5d120c3ec96f148de16ae8dbaf189b29",
    ("cl5_m.mod", "GF3"):
        "ad44347b2011ee9bafe4e5f3e6032ac49126ed3b43d42da0bb559c67c875a664",
}


@pytest.mark.parametrize("name, field", sorted(COMPLEX_DIGESTS))
def test_complex_digests(name, field):
    """Every Koszul complex of both fixtures, each matrix entry included, is
    pinned over Q, GF(2) and GF(3)."""
    m = load_fixture(name, parse_field_token(field))
    cat = build_end_category(m.quiver, None, m.field)
    data = []
    for iv in cat.objects:
        chain = koszul_complex(m, iv, cat)
        data.append([
            sorted(iv.vertex_set),
            chain.dims,
            [[x.nrows, x.ncols, [str(e) for e in x.data]] for x in chain.mats],
        ])
    digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
    assert digest == COMPLEX_DIGESTS[(name, field)]


def test_coresolution_cached():
    """Coresolutions are held by the family they are computed in: calls
    without `cat` share the family that the quiver holds, and a family of
    one's own holds its own."""
    q = commutative_ladder(2)
    iv = cl_interval(q, top=(1, 2), bot=(1, 2))
    held = koszul_coresolution(q, iv, QQ)
    assert koszul_coresolution(q, iv) is held
    assert koszul_coresolution(q, iv, cat=IntervalFamily.of(q, QQ)) is held
    assert IntervalFamily.of(q, QQ).coresolutions == {iv: held}
    own = IntervalFamily(q, enumerate_intervals(q), QQ)
    first = koszul_coresolution(q, iv, QQ, cat=own)
    assert koszul_coresolution(q, iv, cat=own) is first
    assert own.coresolutions == {iv: first}
    assert first is not held and first == held
    # a plain list is wrapped for the one call
    assert koszul_coresolution(q, iv, cat=enumerate_intervals(q)) == held


def test_calls_without_a_family_resolve_each_member_once(family_builds, monkeypatch):
    """Two Koszul tables of one module without `cat` read the family that
    the quiver holds, so together they resolve each member once.  The
    module is parsed afresh, so that no held coresolution comes from
    another test."""
    m = load_fixture("cl3_m45.mod")
    resolved = Counter()
    resolve = koszul.min_proj_resolution

    def counted(family, s, max_len=None):
        resolved[family.objects[s]] += 1
        return resolve(family, s, max_len)

    monkeypatch.setattr(koszul, "min_proj_resolution", counted)
    first = betti_table_via_koszul(m)
    assert betti_table_via_koszul(m) == first == betti(m)
    assert resolved == Counter(IntervalFamily.of(m.quiver, QQ).objects)


def test_max_len_holds_for_cached_coresolutions():
    """A cached coresolution longer than max_len raises as a cold one does,
    so the answer does not depend on call order."""
    q = CL3
    i_a = cl_interval(q, top=(1, 3), bot=(3, 3))
    cat = build_end_category(q)
    with pytest.raises(MaxLengthExceeded):
        koszul_coresolution(q, i_a, QQ, cat=cat, max_len=1)
    assert koszul_coresolution(q, i_a, QQ, cat=cat).length == 2
    with pytest.raises(MaxLengthExceeded):
        koszul_coresolution(q, i_a, QQ, cat=cat, max_len=1)
    assert koszul_coresolution(q, i_a, QQ, cat=cat, max_len=2).length == 2
    m = load_fixture("cl3_m45.mod")
    with pytest.raises(MaxLengthExceeded):
        betti_table_via_koszul(m, cat=cat, max_len=1)


def test_coresolution_differentials_compose_to_zero():
    for iv in enumerate_intervals(CL2):
        c = koszul_coresolution(CL2, iv, QQ)
        diffs = cochain_differentials(c)
        assert len(diffs) == c.length
        for d in range(len(diffs) - 1):
            assert diffs[d + 1].compose(diffs[d]).is_zero()
        for d in diffs:
            d.validate_naturality()


def test_validator_accepts_all_cl2():
    for iv in enumerate_intervals(CL2):
        c = koszul_coresolution(CL2, iv, QQ)
        assert validate_koszul_coresolution(c, iv)


def test_validator_rejects_wrong_interval():
    q = CL2
    a = cl_interval(q, top=(1, 2))
    b = cl_interval(q, bot=(1, 2))
    ca = koszul_coresolution(q, a, QQ)
    assert not validate_koszul_coresolution(ca, b)


def test_validator_rejects_truncation():
    q = commutative_ladder(3)
    i_a = cl_interval(q, top=(1, 3), bot=(3, 3))
    c = koszul_coresolution(q, i_a, QQ)
    assert c.length >= 2
    cut = IntervalCochain(c.interval, c.terms[:-1], c.blocks[:-1], c.field)
    assert not validate_koszul_coresolution(cut, i_a)


def scaled_degree(cochain, degree, c):
    """A fresh cochain with every block of one differential multiplied by
    c, holding no layout."""
    field = cochain.field
    blocks = list(cochain.blocks)
    blocks[degree] = [[[field.coerce(x * c) for x in coeffs] for coeffs in row]
                      for row in blocks[degree]]
    return IntervalCochain(cochain.interval, cochain.terms, blocks, field)


@pytest.mark.parametrize("field", ["Q", "GF3"])
def test_validator_checks_exactness(field):
    """The homology test does what no check of the blocks can.  With its
    last differential zeroed, a coresolution still has natural blocks and
    d o d = 0, so it passes `_cochain_defect`, but Hom(-, V_K) is no longer
    exact, and the validator refuses it.  Scaled by 2 (a unit over Q and
    GF(3)) in one degree, it is still a coresolution, and the validator
    accepts it."""
    k = parse_field_token(field)
    q = CL3
    cat = IntervalFamily.of(q, k)
    lengths = Counter()
    for iv in cat.objects:
        cochain = koszul_coresolution(q, iv, cat=cat)
        if cochain.length == 0:
            continue
        lengths[cochain.length] += 1
        zeroed = scaled_degree(cochain, -1, 0)
        assert koszul._cochain_defect(q, zeroed)[0] is None
        assert not validate_koszul_coresolution(zeroed, iv, cat=cat)
        for degree in range(cochain.length):
            scaled = scaled_degree(cochain, degree, 2)
            assert scaled.blocks != cochain.blocks
            assert validate_koszul_coresolution(scaled, iv, cat=cat)
    assert lengths[1] and lengths[2]


def test_a_complex_refuses_a_hand_made_non_cochain(cl3_m45):
    """A cochain made by hand is laid out only by the check: with one
    nonzero block of degree 1 scaled by 2, the coresolution of V_{t2}
    no longer composes to zero, and its complex raises where it once
    returned homology."""
    q = cl3_m45.quiver
    t2 = Interval(q, ["t2"])
    cochain = koszul_coresolution(q, t2)
    assert cochain.length >= 2
    blocks = [list(map(list, rows)) for rows in cochain.blocks]
    u, v = next((u, v) for u, row in enumerate(blocks[1])
                for v, coeffs in enumerate(row) if any(coeffs))
    blocks[1][u][v] = [QQ.coerce(2 * x) for x in blocks[1][u][v]]
    bad = IntervalCochain(t2, cochain.terms, blocks, QQ)
    message = "cochain differentials do not compose to zero"
    assert koszul._cochain_defect(q, bad)[0] == message
    with pytest.raises(AssertionError, match=message):
        koszul_complex(cl3_m45, t2, cochain=bad)


def test_gf_coresolution():
    """Everything is exact over a prime field as well."""
    gf2 = Field.prime(2)
    for iv in enumerate_intervals(CL2):
        c = koszul_coresolution(CL2, iv, gf2)
        assert validate_koszul_coresolution(c, iv)


def test_a_complex_refuses_a_cochain_of_another_interval():
    """A complex over the coresolution of V_J, asked for I, once returned
    the Betti numbers at J as if they were at I: on ladder 2 with M =
    V_{t2}, [1, 0, 0] at b1, whose own are [0].  It now names both."""
    t2, b1 = Interval(CL2, ["t2"]), Interval(CL2, ["b1"])
    m = interval_module(CL2, t2, QQ)
    assert koszul_complex(m, b1).homology_dims() == [0]
    with pytest.raises(ValueError, match=r"Interval\{t2\}.*Interval\{b1\}"):
        koszul_complex(m, b1, cochain=koszul_coresolution(CL2, t2))


def test_cochains_carry_their_field():
    """The validator reads the field off the cochain, and a complex refuses
    a cochain over another field than its module's."""
    gf7 = Field.prime(7)
    intervals = enumerate_intervals(CL3)
    assert len(intervals) == 27
    for iv in intervals:
        c = koszul_coresolution(CL3, iv, gf7)
        assert c.field == gf7
        assert validate_koszul_coresolution(c, iv)
    m = load_fixture("cl3_m45.mod")
    i_b = cl_interval(CL3, top=(2, 3), bot=(3, 3))
    c7 = koszul_coresolution(CL3, i_b, gf7)
    with pytest.raises(ValueError, match=r"over GF\(7\).*over Q\b"):
        koszul_complex(m, i_b, cochain=c7)


# ---- Koszul complexes and Betti numbers ---------------------------------------------


def test_betti_of_interval_modules_is_kronecker():
    cat = build_end_category(CL2, None, QQ)
    for j in enumerate_intervals(CL2):
        vj = interval_module(CL2, j, QQ)
        for i in enumerate_intervals(CL2):
            h = koszul_complex(vj, i, cat=cat).homology_dims()
            want = [0] * len(h)
            if i == j and h:
                want[0] = 1
            assert h == want


def test_route_equivalence_small():
    rng = random.Random(41)
    for _ in range(6):
        m = random_commuting_module(CL2, rng)
        assert betti_table_via_koszul(m) == betti(m)


@pytest.mark.parametrize("field", ("Q", "GF2"))
def test_routes_agree_on_restricted_families(field):
    """Irreducible maps depend on the family, so both routes are compared
    on seeded sub-families, not only on all intervals."""
    m = load_fixture("cl3_m45.mod", parse_field_token(field))
    q = m.quiver
    for seed in range(12):
        family = sub_family(q, 100 + seed)
        cat = build_end_category(q, family, m.field)
        assert betti_table_via_koszul(m, cat=cat) == betti(m, family=family)


def test_koszul_betti_additive():
    rng = random.Random(42)
    cat = build_end_category(CL2, None, QQ)
    a = random_commuting_module(CL2, rng)
    b = random_commuting_module(CL2, rng)
    s = direct_sum([a, b])
    for iv in enumerate_intervals(CL2):
        ha = koszul_complex(a, iv, cat=cat).homology_dims()
        hb = koszul_complex(b, iv, cat=cat).homology_dims()
        hs = koszul_complex(s, iv, cat=cat).homology_dims()
        n = max(len(ha), len(hb), len(hs))
        pad = lambda x: x + [0] * (n - len(x))
        assert pad(hs) == [x + y for x, y in zip(pad(ha), pad(hb))]


def test_cancelling_pair_invariance(cl3_m45):
    """Homology of the Koszul complex does not change when the coresolution
    is padded with a split-exact pair (non-minimal but still valid)."""
    q = cl3_m45.quiver
    i_b = cl_interval(q, top=(2, 3), bot=(3, 3))
    cat = build_end_category(q, None, QQ)
    base = koszul_coresolution(q, i_b, QQ, cat=cat)
    want = koszul_complex(cl3_m45, i_b, cat).homology_dims()
    assert want[1] == 1  # the fixture has its class in degree one
    extra = cl_interval(q, top=(1, 1))
    for degree in (1, 2):
        padded = with_cancelling_pair(base, degree, extra)
        cochain_differentials(padded)  # natural blocks
        got = koszul_complex(cl3_m45, i_b, cat,
                             cochain=padded).homology_dims()
        n = max(len(got), len(want))
        assert got + [0] * (n - len(got)) == want + [0] * (n - len(want))


def test_warm_complexes_read_the_held_block_layouts(monkeypatch):
    """A checked cochain holds the layout of its blocks, so a complex over
    a warm category splits no good components; an unchecked cochain is
    checked on first use and holds the layout of that check too."""
    m = load_fixture("cl3_m45.mod")
    q = m.quiver
    cat = build_end_category(q, None, QQ)
    warm = [koszul_coresolution(q, iv, QQ, cat=cat) for iv in cat.objects]
    calls = Counter()
    split = koszul.good_components

    def counted(*args):
        calls["good_components"] += 1
        return split(*args)

    monkeypatch.setattr(koszul, "good_components", counted)
    for iv, cochain in zip(cat.objects, warm):
        chain = koszul_complex(m, iv, cat)
        assert len(chain.mats) == cochain.length
    assert calls["good_components"] == 0
    iv = cl_interval(q, top=(2, 3), bot=(3, 3))
    extra = cl_interval(q, top=(1, 1))
    padded = with_cancelling_pair(warm[cat.index[iv]], 1, extra)
    first = koszul_complex(m, iv, cat, cochain=padded)
    assert calls["good_components"] > 0
    calls.clear()
    again = koszul_complex(m, iv, cat, cochain=padded)
    assert calls["good_components"] == 0
    assert again.dims == first.dims and again.mats == first.mats


@pytest.mark.parametrize("field", ["Q", "GF5"])
def test_complex_of_a_scaled_coresolution(field):
    """Every block of every coresolution of both fixtures scaled by c = 2,
    a coefficient that no minimal coresolution on a ladder has (theirs are
    0 and +-1), so that each complex multiplies the entries of its hom
    vectors: the scaled cochain passes the check, its complex has the same
    homology, and each matrix is c times the unscaled one."""
    k = parse_field_token(field)
    c = k.coerce(2)
    nonzero = 0
    for name in ("cl3_m45.mod", "cl5_m.mod"):
        m = load_fixture(name, k)
        cat = IntervalFamily.of(m.quiver, k)
        for iv in cat.objects:
            cochain = koszul_coresolution(m.quiver, iv, cat=cat)
            blocks = [[[[k.coerce(x * c) for x in coeffs] for coeffs in row]
                       for row in rows] for rows in cochain.blocks]
            scaled = koszul._checked(
                m.quiver, IntervalCochain(iv, cochain.terms, blocks, k))
            assert all(x not in (k.one(), k.coerce(-1))
                       for rows in blocks for row in rows
                       for coeffs in row for x in coeffs)
            want = koszul_complex(m, iv, cat)
            got = koszul_complex(m, iv, cat, cochain=scaled)
            assert got.dims == want.dims
            assert got.homology_dims() == want.homology_dims()
            assert got.mats == [x.scale(c) for x in want.mats]
            nonzero += sum(not x.is_zero() for x in want.mats)
    assert nonzero > 0


def test_cold_tables_split_components_only_to_check_the_cochains(monkeypatch):
    """The cover steps read the family's hom table, so resolving every
    object of a fresh family splits no good components, and a cold table
    of `cl5_m.mod` over GF(2) splits them only for the check at
    construction, once per block: 771 calls, where reading each hom space
    afresh made 10,771.  Both families are private, so that they hold no
    coresolution from another test."""
    calls = Counter()
    split = repmod.good_components

    def counted(*args):
        calls["good_components"] += 1
        return split(*args)

    for module in (koszul, repmod):
        monkeypatch.setattr(module, "good_components", counted)
    gf2 = Field.prime(2)
    q = commutative_ladder(3)
    cat = IntervalFamily(q, enumerate_intervals(q), gf2)
    for s in range(len(cat.objects)):
        min_proj_resolution(cat, s)
    assert calls["good_components"] == 0
    m = load_fixture("cl5_m.mod", gf2)
    cat = IntervalFamily(m.quiver, enumerate_intervals(m.quiver), gf2)
    table = betti_table_via_koszul(m, cat=cat)
    blocks = sum(
        len(rows) * len(rows[0])
        for cochain in cat.coresolutions.values()
        for rows in cochain.blocks
    )
    assert calls["good_components"] == blocks == 771
    assert table == betti(m)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_coresolutions_do_not_depend_on_the_field(n):
    """Over GF(2), GF(3) and GF(5) the coresolution of every interval of
    ladder n has the terms of the one over Q, and its coefficients are the
    Q coefficients read mod p.  Without intervals, `build_end_category` is
    the family that the quiver holds for the field."""
    q = commutative_ladder(n)
    rational = build_end_category(q)
    assert rational is IntervalFamily.of(q, QQ)
    for p in (2, 3, 5):
        k = Field.prime(p)
        cat = build_end_category(q, None, k)
        assert cat is IntervalFamily.of(q, k)
        assert cat.objects == rational.objects
        for iv in cat.objects:
            want = koszul_coresolution(q, iv, QQ, cat=rational)
            got = koszul_coresolution(q, iv, k, cat=cat)
            assert got.terms == want.terms
            assert got.blocks == [
                [[[k.coerce(x) for x in b] for b in row] for row in rows]
                for rows in want.blocks
            ]


def test_homology_ranks_each_differential_once(monkeypatch, cl5_m):
    """`VecChain.homology_dims` takes one rank per matrix of the complex,
    and its dimensions are still dims[i] - rank d_i - rank d_{i+1}."""
    iv = cl_interval(cl5_m.quiver, top=(3, 5), bot=(4, 5))
    chain = koszul_complex(cl5_m, iv)
    want = [chain.dims[i]
            - (chain.mats[i - 1].rank() if i else 0)
            - (chain.mats[i].rank() if i < len(chain.mats) else 0)
            for i in range(len(chain.dims))]
    ranks = []
    rank = Mat.rank

    def counted(self):
        ranks.append(self.shape)
        return rank(self)

    monkeypatch.setattr(Mat, "rank", counted)
    assert chain.homology_dims() == want
    assert len(chain.mats) >= 2
    assert ranks == [m.shape for m in chain.mats]


# Every entry point that takes an interval family as `cat=`, called on the
# module `m` over Q, an interval `i` and the coresolution `c` of i over Q.
ENTRY_POINTS = {
    "koszul_coresolution": lambda m, i, c, cat: koszul_coresolution(
        m.quiver, i, QQ, cat=cat
    ),
    "validate_koszul_coresolution": lambda m, i, c, cat: (
        validate_koszul_coresolution(c, i, cat=cat)
    ),
    "koszul_complex": lambda m, i, c, cat: koszul_complex(m, i, cat),
    "betti_table_via_koszul": lambda m, i, c, cat: betti_table_via_koszul(m, cat=cat),
    "replacement_at": lambda m, i, c, cat: replacement_at(m, i, cat=cat),
    "interval_replacement": lambda m, i, c, cat: interval_replacement(m, cat=cat),
    "is_interval_decomposable": lambda m, i, c, cat: is_interval_decomposable(
        m, cat=cat
    ),
}


@pytest.mark.parametrize("over", ("quiver", "field"))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_family_over_another_quiver_or_field_is_refused(entry, over):
    """A family over another quiver or field than the module, the cochain
    or the coresolution asked for is refused with both named, not answered
    for another family nor met with a KeyError from a vertex lookup."""
    m = load_fixture("cl3_m45.mod")
    i = cl_interval(m.quiver, top=(1, 3), bot=(3, 3))
    c = koszul_coresolution(m.quiver, i, QQ)
    if over == "quiver":
        cat = IntervalFamily.of(CL2, QQ)
        match = (r"over BoundQuiver\(4 vertices, 4 arrows\).*"
                 r"over BoundQuiver\(6 vertices, 7 arrows\)")
    else:
        cat = IntervalFamily.of(m.quiver, Field.prime(2))
        match = r"over GF\(2\).*over Q\b"
    with pytest.raises(ValueError, match=match):
        ENTRY_POINTS[entry](m, i, c, cat)


def test_non_natural_block_is_rejected(monkeypatch):
    """Construction checks every block for naturality.  On 1 -> 2, the
    indicator of {1} is a morphism V_{12} -> V_1 but not V_1 -> V_{12}; with
    good components read in the opposite direction, the two-element chain
    x < y labelled x = {1}, y = {1, 2} passes the lattice gauge, and the
    formal coresolution of V_{x} gets the non-natural block V_1 -> V_{12}."""
    q = BoundQuiver(["1", "2"], [("a", "1", "2")])
    lower, upper = Interval(q, ["1"]), Interval(q, ["1", "2"])
    assert good_components(q, lower, upper) == []
    chain = Poset.from_leq(("x", "y"), lambda s, t: s == t or (s, t) == ("x", "y"))
    true_components = koszul.good_components
    monkeypatch.setattr(
        koszul, "good_components",
        lambda quiver, s, t: true_components(quiver, t, s),
    )
    with pytest.raises(AssertionError, match="not natural"):
        formal_koszul_coresolution(chain, "x", {"x": lower, "y": upper}, QQ)


def test_beta0_counts_minimal_generators(cl3_m45):
    q = cl3_m45.quiver

    def beta0(interval):
        return koszul_complex(cl3_m45, interval).homology_dims()[0]

    assert beta0(cl_interval(q, top=(2, 2))) == 1
    assert beta0(cl_interval(q, top=(1, 3), bot=(3, 3))) == 1
    assert beta0(cl_interval(q, top=(1, 1))) == 0


# ---- lattice-indexed constructions ---------------------------------------------------


CHAIN_XYZ = Poset.from_leq(
    ("x", "y", "z"), lambda s, t: "xyz".index(s) <= "xyz".index(t)
)


@pytest.mark.parametrize("poset, labels, match", [
    (CHAIN_XYZ, (["t2", "t3"], ["t2", "t3"], ["b2", "b3", "t2"]),
     "labelling must be injective"),
    (CHAIN_XYZ, (["b3", "t1", "t2", "t3"], ["t2", "t3"], ["b2", "b3", "t2"]),
     "hom pattern does not match the lattice"),
    (Poset.from_leq(("x", "y"), lambda s, t: s == t), (["t1"], ["b3"]),
     "no bottom element"),
    # every hom space is one-dimensional, but the composite x -> y -> z vanishes
    (CHAIN_XYZ, (["t2", "t3"], ["b3", "t1", "t2", "t3"], ["b2", "b3", "t2"]),
     "does not compose like the lattice"),
])
def test_the_lattice_gauge_refuses(poset, labels, match):
    labelling = {e: Interval(CL3, vs) for e, vs in zip(poset.elements, labels)}
    with pytest.raises(ValueError, match=match):
        build_lattice_gauge(poset, labelling)


def test_the_lattice_gauge_names_the_pair_that_does_not_compose():
    labels = (["t2", "t3"], ["b3", "t1", "t2", "t3"], ["b2", "b3", "t2"])
    labelling = {e: Interval(CL3, vs) for e, vs in zip("xyz", labels)}
    with pytest.raises(ValueError, match=r"at \('y', 'z'\)"):
        build_lattice_gauge(CHAIN_XYZ, labelling)


def test_lattice_module_validation():
    p = Poset.from_leq((1, 2, 4), lambda a, b: b % a == 0)
    good = LatticeModule(
        p, {1: 1, 2: 1, 4: 1},
        {(1, 2): [[1]], (2, 4): [[1]]},
        QQ,
    )
    assert good.dim(2) == 1
    assert good.path_down(4, 1) == Mat.from_rows(QQ, [[1]])
    assert good.path_down(4, 4) == Mat.identity(QQ, 1)
    with pytest.raises(ValueError):
        LatticeModule(p, {1: 1, 2: 1}, {(1, 4): [[1]]}, QQ)  # not a cover
    with pytest.raises(ValueError):
        LatticeModule(p, {1: 2, 2: 1}, {(1, 2): [[1]]}, QQ)  # bad shape


def test_lattice_module_refuses_a_dimension_for_an_unknown_element():
    """A dimension for an element outside the poset is refused, naming the
    element, as `PersModule` refuses one for an unknown vertex, instead of
    being dropped."""
    p = Poset.from_leq((1, 2), lambda a, b: b % a == 0)
    with pytest.raises(ValueError, match="unknown element 99"):
        LatticeModule(p, {1: 1, 99: 3}, {}, QQ)


@pytest.mark.parametrize("dim", [1.7, "2"])
def test_lattice_module_refuses_a_dimension_that_is_not_an_int(dim):
    """1.7 once read 1 and "2" read 2; both are refused, naming the
    element."""
    p = Poset.from_leq((1, 2), lambda a, b: b % a == 0)
    with pytest.raises(ValueError, match="dimension at element 2 is .*not an int"):
        LatticeModule(p, {1: 1, 2: dim}, {}, QQ)


def test_lattice_module_path_independence_enforced():
    # diamond 1 < 2,3 < 6: two down paths from 6 to 1 must agree
    p = Poset.from_leq((1, 2, 3, 6), lambda a, b: b % a == 0)
    with pytest.raises(Exception):
        LatticeModule(
            p, {1: 1, 2: 1, 3: 1, 6: 1},
            {(1, 2): [[1]], (1, 3): [[1]], (2, 6): [[1]], (3, 6): [[2]]},
            QQ,
        )


def test_lattice_example_formal_vs_relative():
    quiver, family, lattice, embedding = lattice_example()
    cat = build_end_category(quiver, family, QQ)
    build_lattice_gauge(lattice, embedding)
    rng = random.Random(45)
    modules = [random_interval_sum(quiver, rng)[0] for _ in range(3)]
    for a in lattice.elements:
        formal = formal_koszul_coresolution(lattice, a, embedding, QQ)
        relative = koszul_coresolution(quiver, a, QQ, cat=cat)
        assert multisets(formal) == multisets(relative)
        assert validate_koszul_coresolution(relative, a, cat=cat)
        assert validate_koszul_coresolution(formal, a, cat=cat)
        diffs = cochain_differentials(formal)
        for d in range(len(diffs) - 1):
            assert diffs[d + 1].compose(diffs[d]).is_zero()
        for m in modules:
            want = koszul_complex(m, a, cat, cochain=relative)
            got = koszul_complex(m, a, cat, cochain=formal)
            assert got.homology_dims() == want.homology_dims()


def test_lattice_example_bottom_terms():
    quiver, family, lattice, embedding = lattice_example()
    bottom = lattice.bottom()
    formal = formal_koszul_coresolution(lattice, bottom, embedding, QQ)
    # degree one is indexed by the covers of the bottom element
    assert Counter(t.vertex_set for t in formal.terms[1]) == Counter(
        embedding[c].vertex_set for c in lattice.covers_of(bottom)
    )
    assert formal.terms[0] == [embedding[bottom]]


def test_semilattice_complex_matches_family_betti():
    rng = random.Random(43)
    quiver, family, lattice, embedding = lattice_example()
    gauge = build_lattice_gauge(lattice, embedding)
    for _ in range(3):
        m, _ = random_interval_sum(quiver, rng)
        lat = lattice_module_from_persistence(gauge, m)
        table = betti(m, family=family)
        for a in lattice.elements:
            h = semilattice_koszul_complex(lattice, a, lat).homology_dims()
            for i, x in enumerate(h):
                assert x == table[(i, a)]
            for (d, iv), mult in table.entries.items():
                if iv == a and d >= len(h):
                    assert mult == 0


# sha256 of every down map of `lattice_module_from_persistence` on the
# lattice example, three `random_interval_sum` draws per field, covers sorted
LATTICE_BRIDGE_DIGESTS = {
    "Q": "c847d5a0aed1af1d15acf7e642738fa1ba1fd5945a0d2bf509fbc8ddd4d323fb",
    "GF3": "d412c2ac87158b0c6e42e2a5231a60b7baaad46b3b7d681608f15154d34cdd37",
}


@pytest.mark.parametrize("field", sorted(LATTICE_BRIDGE_DIGESTS))
def test_lattice_bridge_digests(field):
    """The down maps of the lattice bridge, every matrix entry included,
    are pinned over Q and GF(3); some of them are nonzero."""
    k = parse_field_token(field)
    quiver, _, lattice, embedding = lattice_example()
    gauge = build_lattice_gauge(lattice, embedding)
    rng = random.Random(46)
    data, nonzero = [], 0
    for _ in range(3):
        m, _ = random_interval_sum(quiver, rng, k)
        lat = lattice_module_from_persistence(gauge, m)
        nonzero += sum(not x.is_zero() for x in lat.down.values())
        data.append(sorted(
            [sorted(a.vertex_set), sorted(b.vertex_set), x.nrows, x.ncols,
             [str(e) for e in x.data]]
            for (a, b), x in lat.down.items()
        ))
    assert nonzero > 0
    assert digest(data) == LATTICE_BRIDGE_DIGESTS[field]


def test_lattice_module_from_persistence_dims():
    quiver, family, lattice, embedding = lattice_example()
    gauge = build_lattice_gauge(lattice, embedding)
    rng = random.Random(44)
    m, _ = random_interval_sum(quiver, rng)
    lat = lattice_module_from_persistence(gauge, m)
    for a in lattice.elements:
        assert lat.dim(a) == len(hom_basis(
            interval_module(quiver, embedding[a], QQ), m
        ))
