"""Minimal interval resolutions/coresolutions and Betti tables."""

import random
import re
from collections import Counter

import pytest

from intres import (
    QQ,
    BettiTable,
    Field,
    MaxLengthExceeded,
    betti,
    betti_table_via_koszul,
    cl_interval,
    cobetti,
    commutative_ladder,
    direct_sum,
    enumerate_intervals,
    interval_module,
    minimal_interval_coresolution,
    minimal_interval_resolution,
)
from intres import IntervalFamily, koszul, modfile, repmod, resolve
from intres.modfile import parse_field_token
from intres.poset import Interval

from conftest import (
    digest,
    hard_ladder_module,
    load_fixture,
    module_data,
    morphism_data,
    random_commuting_module,
    random_interval_sum,
    sub_family,
)

CL2 = commutative_ladder(2)
CL3 = commutative_ladder(3)


def dimvec_of_terms(quiver, tags):
    out = {v: 0 for v in quiver.vertices}
    for iv in tags:
        for v in iv.vertices:
            out[v] += 1
    return out


def check_resolution_exact(res):
    """0 -> X_n -> ... -> X_0 -> M -> 0 exact at every vertex."""
    m = res.module
    q = m.quiver
    # augmentation is epi; consecutive maps compose to zero
    assert res.diffs[0].is_epi()
    for i in range(1, len(res.diffs)):
        assert res.diffs[i - 1].compose(res.diffs[i]).is_zero()
    for v in q.vertices:
        # exactness at X_i: rank d_{i+1} = dim ker d_i
        for i in range(len(res.diffs)):
            di = res.diffs[i].comps[v]
            dim_ker = di.ncols - di.rank()
            nxt = (res.diffs[i + 1].comps[v].rank()
                   if i + 1 < len(res.diffs) else 0)
            assert nxt == dim_ker
    # Euler characteristic bookkeeping
    euler = {v: 0 for v in q.vertices}
    for i, tags in enumerate(res.terms):
        sign = 1 if i % 2 == 0 else -1
        for iv in tags:
            for v in iv.vertices:
                euler[v] += sign
    assert euler == {v: m.dims[v] for v in q.vertices}


def check_coresolution_exact(cores):
    m = cores.module
    q = m.quiver
    assert cores.diffs[0].is_mono()
    for i in range(1, len(cores.diffs)):
        assert cores.diffs[i].compose(cores.diffs[i - 1]).is_zero()
    for v in q.vertices:
        for i in range(len(cores.diffs) - 1):
            di = cores.diffs[i].comps[v]
            nxt = cores.diffs[i + 1].comps[v]
            assert nxt.ncols - nxt.rank() == di.rank()
    # exactness at the final term: the last map is onto
    assert cores.diffs[-1].is_epi()
    euler = {v: 0 for v in q.vertices}
    for i, tags in enumerate(cores.terms):
        sign = 1 if i % 2 == 0 else -1
        for iv in tags:
            for v in iv.vertices:
                euler[v] += sign
    assert euler == {v: m.dims[v] for v in q.vertices}


# ---- resolutions -------------------------------------------------------------------


def test_interval_module_resolves_instantly():
    for iv in enumerate_intervals(CL2):
        m = interval_module(CL2, iv, QQ)
        res = minimal_interval_resolution(m)
        assert res.length == 0 and res.terms == [[iv]]
        assert res.diffs[0].is_iso()
        t = betti(m)
        assert t.entries == {(0, iv): 1}


def test_interval_sum_betti_is_multiplicity():
    rng = random.Random(30)
    for _ in range(6):
        m, counts = random_interval_sum(CL3, rng)
        t = betti(m)
        assert t.max_degree() == 0
        assert t.degree(0) == dict(counts)
        c = cobetti(m)
        assert c.max_degree() == 0
        assert c.degree(0) == dict(counts)


def test_random_resolutions_are_exact():
    rng = random.Random(31)
    for quiver in (CL2, CL3):
        for _ in range(4):
            m = random_commuting_module(quiver, rng)
            check_resolution_exact(minimal_interval_resolution(m))
            check_coresolution_exact(minimal_interval_coresolution(m))


def test_one_table_of_irreducible_maps_per_resolution(family_builds, monkeypatch):
    """The quiver holds its family, so `betti` and `cobetti` of one module
    make one enumeration, one hom table and one table of irreducible maps
    between them, in either order: the coresolution resolves DM over the
    opposite family, whose tables are the transposes.  Each module is
    parsed over a ladder quiver of its own, so that no held table comes
    from another test or the other order."""
    m = load_fixture("cl3_m45.mod")
    q = m.quiver
    assert minimal_interval_resolution(m).length > 0
    assert family_builds == [("enumerate", q), ("hom", q), ("table", q)]
    assert minimal_interval_coresolution(m).length > 0
    betti(m)
    cobetti(m)
    assert family_builds == [("enumerate", q), ("hom", q), ("table", q)]
    family_builds.clear()
    monkeypatch.setattr(modfile, "_LADDERS", {})
    m = load_fixture("cl3_m45.mod")
    q = m.quiver
    cobetti(m)
    betti(m)
    op = q.opposite()
    assert family_builds == [("enumerate", q), ("hom", op), ("table", op)]


@pytest.mark.parametrize("build, opposite, caught", [
    (minimal_interval_resolution, False, 3),
    (minimal_interval_coresolution, True, 8),
], ids=["resolution", "coresolution"])
def test_a_missing_irreducible_map_is_caught_or_harmless(monkeypatch, build,
                                                          opposite, caught):
    """Dropping one irreducible map from the table shrinks some radicals, so
    an approximation may keep a summand too many; the minimality check must
    then raise.  Each of the 44 drops on ladder 3 (over the opposite quiver
    for a coresolution, which resolves DM) either raises or leaves the
    terms and differentials as they were, never silently different ones.
    Each drop reads a module parsed over a ladder quiver of its own, which
    holds no table."""
    want = build(load_fixture("cl3_m45.mod"))
    q = commutative_ladder(3)
    if opposite:
        q = q.opposite()
    full = IntervalFamily(q, enumerate_intervals(q), QQ).irreducible_maps()
    drops = [(s, m) for s, maps in enumerate(full) for m in maps]
    assert len(drops) == 44
    tabulate = repmod._irreducible_table
    raised = 0
    for s, m in drops:
        def dropped(quiver, hom, field):
            assert quiver == q
            table = [list(maps) for maps in tabulate(quiver, hom, field)]
            table[s].remove(m)
            return tuple(map(tuple, table))

        monkeypatch.setattr(repmod, "_irreducible_table", dropped)
        monkeypatch.setattr(modfile, "_LADDERS", {})
        try:
            got = build(load_fixture("cl3_m45.mod"))
        except AssertionError as err:
            assert str(err) == "resolution is not minimal"
            raised += 1
            continue
        assert (got.terms, got.term_modules, got.diffs) == (
            want.terms, want.term_modules, want.diffs)
    assert raised == caught


def test_cl3_fixture_resolution(cl3_m45):
    res = minimal_interval_resolution(cl3_m45)
    assert res.length == 1
    q = cl3_m45.quiver
    x0 = Counter(res.terms[0])
    assert x0 == Counter([
        cl_interval(q, top=(2, 2)),
        cl_interval(q, top=(2, 3), bot=(2, 3)),
        cl_interval(q, top=(1, 3), bot=(3, 3)),
    ])
    assert Counter(res.terms[1]) == Counter([
        cl_interval(q, top=(2, 3), bot=(3, 3)),
    ])
    check_resolution_exact(res)


def test_cl5_fixture_coresolution(cl5_m):
    cores = minimal_interval_coresolution(cl5_m)
    q = cl5_m.quiver
    assert cores.length == 1
    assert Counter(cores.terms[0]) == Counter([
        cl_interval(q, top=(3, 4)),
        cl_interval(q, top=(4, 4), bot=(4, 5)),
        cl_interval(q, top=(3, 5), bot=(4, 5)),
    ])
    assert Counter(cores.terms[1]) == Counter([
        cl_interval(q, top=(3, 4), bot=(4, 5)),
    ])
    check_coresolution_exact(cores)


CORESOLUTION_DIGESTS = {
    ("cl3_m45.mod", "Q"):
        "a6c5a179d09301c494012a876dc6442f9eff1fed1a1cba3f3f13aff9a39e0106",
    ("cl3_m45.mod", "GF2"):
        "6635cb885a08b1879bc5f17be8bfcf2e5f7a8cdf5858e0b710d9e69231c69c9f",
    ("cl3_m45.mod", "GF3"):
        "f05b2c3ece7d4cf161826b7470b043f8cd53c7458c930de13c31554bd4d9711e",
    ("cl5_m.mod", "Q"):
        "fadb5a8d70eb2de335acda7e6e537719090e7f7de9ba1e3a1dc2e658f7bbe6c4",
    ("cl5_m.mod", "GF2"):
        "57a9e9c181c69fda828e5c0f87914f89fb63c699728d7bf1a0a4d0afcfe0d1c6",
    ("cl5_m.mod", "GF3"):
        "02fd4cd245d3cde0fd2519f799ff1c9bed4be12a871fff6258d303bbf70871d6",
}


@pytest.mark.parametrize("name, field", sorted(CORESOLUTION_DIGESTS))
def test_coresolution_digests(name, field):
    """The minimal coresolutions of both fixtures are pinned: the terms as
    vertex sets, every term module's maps and every differential."""
    m = load_fixture(name, parse_field_token(field))
    cores = minimal_interval_coresolution(m)
    assert cores.module is m
    data = [
        [[sorted(t.vertex_set) for t in tags] for tags in cores.terms],
        [module_data(x) for x in cores.term_modules],
        [morphism_data(d) for d in cores.diffs],
    ]
    assert digest(data) == CORESOLUTION_DIGESTS[(name, field)]


def test_coresolutions_dualize_each_module_once(monkeypatch):
    """A coresolution dualizes M and each term module once, and its
    differentials run between the modules it holds, starting at M itself;
    `cobetti`, which reads only the tags, dualizes M alone.  On
    `cl5_m.mod`, dualizing both ends of every differential again made 7
    `PersModule.dual` calls for either."""
    m = load_fixture("cl5_m.mod")
    calls = []
    dual = repmod.PersModule.dual

    def counted(self):
        calls.append(self)
        return dual(self)

    monkeypatch.setattr(repmod.PersModule, "dual", counted)
    cores = minimal_interval_coresolution(m)
    assert cores.length == 1
    assert len(calls) == 1 + len(cores.term_modules) == 3
    ends = [m] + cores.term_modules
    for i, d in enumerate(cores.diffs):
        assert d.src is ends[i] and d.tgt is ends[i + 1]
    calls.clear()
    table = cobetti(m)
    assert calls == [m]
    want = BettiTable()
    for degree, tags in enumerate(cores.terms):
        for iv in tags:
            want.add(degree, iv)
    assert table == want


RESOLUTION_DIGESTS = {
    ("cl3_m45.mod", "Q"):
        "ab7012f27aa4d2a1b8de3502ccd82c275190a9820bcfd9d12c3b60aa17f6ede2",
    ("cl3_m45.mod", "GF3"):
        "3c753a1f534b1bb783a4d16249acf0edb3786549b894d54f2e4686b034fbb937",
    ("cl5_m.mod", "Q"):
        "458fc86639ca2097b5e43c0b803cdb33eb26bae36bf0df00a2eb0f179170875b",
    ("cl5_m.mod", "GF3"):
        "d4acd8b9ac1855ea27476177d44f17f3aa5b82341b0542ac10c781d8ae7688ae",
    ("hard-ladder-4/1", "Q"):
        "548302602775426fb73a45489a68028b609593ce728009cf3da3606aa83fac97",
    ("hard-ladder-4/1", "GF3"):
        "17b182dd45d12a9d9fa43f5a224407be7995693a2164e30272aeab6e310ed65b",
    ("hard-ladder-4/2", "Q"):
        "832c6f5356c918fe29a78ac949a2ec3dab1a54d6b7c7d23ae4ac8f9afb8dd9a4",
    ("hard-ladder-4/2", "GF3"):
        "6dbee2a8150a3ba03f6aa46115332d4b053e07ca4e9beaddaedf2b6ffa3dffba",
    ("cl3_m45.mod/9", "Q"):
        "f25dcfc96f2cc41870a041aa770f5e8f6e3ba4383a683d4a78eed68f990a536a",
    ("cl3_m45.mod/9", "GF3"):
        "91fc5ee01f810a89ff45634dc691776da62b244748e5f846baaff2cbf70a0cfd",
    ("cl5_m.mod/3", "Q"):
        "5cc46bfcab189b9fb0fb8a1c5710ac07b2b52f89662b717d3610738bf88181de",
    ("cl5_m.mod/3", "GF3"):
        "93b7d8b64070924c3937f8d6df83c95a1d402f50cc772d9c732eb7b12c43a22c",
}


def resolution_subject(name, field):
    """(module, family) of a digest case: `hard-ladder-4/s` is the
    `hard_ladder_module` draw on ladder 4 from `Random(s)`, a fixture name
    is that fixture over all intervals, and `fixture/s` is the fixture over
    `sub_family(quiver, s)`."""
    if name.startswith("hard-ladder-4/"):
        return hard_ladder_module(4, random.Random(int(name[-1])), field), None
    fixture, _, seed = name.partition("/")
    m = load_fixture(fixture, field)
    return m, (sub_family(m.quiver, int(seed)) if seed else None)


@pytest.mark.parametrize("name, field", sorted(RESOLUTION_DIGESTS))
def test_resolution_digests(name, field):
    """The minimal resolution and the minimal coresolution are pinned: the
    terms as vertex sets, every term module's maps and every differential.
    Over the sub-families the coresolutions of `cl3_m45.mod` and `cl5_m.mod`
    run to length 3 and 6, so that many steps read their hom dimensions
    from exactness."""
    m, family = resolution_subject(name, parse_field_token(field))
    data = []
    for build in (minimal_interval_resolution, minimal_interval_coresolution):
        res = build(m, family=family)
        data.append([
            [[sorted(t.vertex_set) for t in tags] for tags in res.terms],
            [module_data(x) for x in res.term_modules],
            [morphism_data(d) for d in res.diffs],
        ])
    assert digest(data) == RESOLUTION_DIGESTS[(name, field)]


def test_later_steps_solve_only_the_nonzero_hom_spaces(monkeypatch):
    """`betti` and `cobetti` on `cl5_m.mod` solve Hom(V_J, -) at all 100
    members in the first step of each, and after it only where exactness
    gives a nonzero dimension: 259 solves, none empty after the first
    step.  Solving every member at every step made 400, 264 of them
    empty."""
    first_step, solved = [], []
    approximate = resolve.minimal_right_approximation
    hom_basis = repmod.SourceSolves.hom_basis

    def flagged(*args, **kwargs):
        first_step.append(kwargs.get("hom_dims") is None)
        return approximate(*args, **kwargs)

    def counted(self, interval):
        basis = hom_basis(self, interval)
        solved.append((first_step[-1], len(basis)))
        return basis

    monkeypatch.setattr(resolve, "minimal_right_approximation", flagged)
    monkeypatch.setattr(repmod.SourceSolves, "hom_basis", counted)
    m = load_fixture("cl5_m.mod")
    betti(m)
    cobetti(m)
    assert first_step == [True, False, True, False]
    assert len(solved) == 259
    assert sum(first for first, _ in solved) == 200
    assert all(dim for first, dim in solved if not first)


def first_reached(family, interval):
    """The first member I, in family order, with hom(I, J) nonzero for the
    member J = `interval`: where H chi = h fails first when chi(J) is
    off."""
    t = family.index[interval]
    return next(i for i, row in zip(family.objects, family.hom_table()) if t in row)


def test_a_corrupted_table_entry_fails_the_hom_identity(monkeypatch):
    """Every Betti and co-Betti table is checked against H chi = h, with
    the hom dimensions of M that its route solves.  One entry of the
    table raised by one makes `betti`, `cobetti` and
    `betti_table_via_koszul` raise AssertionError, naming the first member
    reached from the corrupted one."""
    m = load_fixture("cl5_m.mod")
    family = IntervalFamily.of(m.quiver, m.field)
    resolved = minimal_interval_resolution(m).terms[0][0]
    coresolved = minimal_interval_coresolution(m).terms[0][0].opposite()
    tabulate = resolve._table

    def corrupted(terms):
        table = tabulate(terms)
        table.add(1, terms[0][0])
        return table

    monkeypatch.setattr(resolve, "_table", corrupted)
    for table, fam, interval in ((betti, family, resolved),
                                 (cobetti, family.opposite(), coresolved)):
        want = f"H chi = h fails at {first_reached(fam, interval)!r}:"
        with pytest.raises(AssertionError, match=re.escape(want)):
            table(m)
    monkeypatch.undo()

    build = koszul._complex
    chosen = family.objects[-1]

    def off_by_one(module, cochain, homs):
        chain = build(module, cochain, homs)
        if cochain.terms[0] == [chosen]:
            dims = chain.homology_dims()
            dims[0] += 1
            chain.homology_dims = lambda: dims
        return chain

    monkeypatch.setattr(koszul, "_complex", off_by_one)
    want = f"H chi = h fails at {first_reached(family, chosen)!r}:"
    with pytest.raises(AssertionError, match=re.escape(want)):
        betti_table_via_koszul(m)


def test_max_len_enforced(cl3_m45):
    with pytest.raises(MaxLengthExceeded):
        minimal_interval_resolution(cl3_m45, max_len=0)
    with pytest.raises(MaxLengthExceeded):
        minimal_interval_coresolution(cl3_m45, max_len=0)


def test_family_restricted_resolution():
    """Relative to the family that drops the singletons, resolving a thin
    summand produces terms from the family only."""
    q = CL2
    family = [i for i in enumerate_intervals(q) if len(i) >= 2]
    m = interval_module(q, Interval(q, ["b1", "b2", "t1", "t2"]), QQ)
    res = minimal_interval_resolution(m, family=family)
    for tags in res.terms:
        assert set(tags) <= set(family)
    t = betti(m, family=family)
    assert t.degree(0) == {Interval(q, ["b1", "b2", "t1", "t2"]): 1}


def test_a_repeated_family_member_is_refused():
    """A family listing V_{b1} twice once gave V_{b1} the Betti table
    {b1,b2} + {b1,t1} in degree 0 and {b1,b2,t1} in degree 1; both
    directions now refuse it and name the repeated interval."""
    ivs = enumerate_intervals(CL2)
    m = interval_module(CL2, Interval(CL2, ["b1"]), QQ)
    assert betti(m, family=ivs).entries == {(0, ivs[0]): 1}
    for table in (betti, cobetti):
        with pytest.raises(ValueError, match=re.escape(f"lists {ivs[0]!r} more")):
            table(m, family=ivs + [ivs[0]])


# ---- small fields ------------------------------------------------------------------


def dimension_identity_holds(table, module):
    """sum_i (-1)^i sum_{I containing x} table(i, I) = dim M(x) at every x."""
    return all(
        sum((-1) ** d * mult for (d, iv), mult in table.entries.items()
            if x in iv.vertex_set) == module.dims[x]
        for x in module.quiver.vertices
    )


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["cl3_m45.mod", "cl5_m.mod"])
def test_small_field_tables(name, p):
    """The resolve route runs over every prime field: its Betti table
    matches the Koszul route's, and its co-Betti table matches the one over
    the rationals and satisfies the dimension identity."""
    m = load_fixture(name, Field.prime(p))
    assert betti(m) == betti_table_via_koszul(m)
    table = cobetti(m)
    assert table == cobetti(load_fixture(name, QQ))
    assert dimension_identity_holds(table, m)


# ---- Betti tables ------------------------------------------------------------------


def test_betti_table_ops():
    iv = Interval(CL2, ["b1"])
    jv = Interval(CL2, ["t1"])
    t = BettiTable()
    assert t[0, iv] == 0 and t.max_degree() == -1
    t.add(0, iv)
    t.add(0, iv, 2)
    t.add(1, jv, 1)
    t.add(2, jv, 0)  # zero multiplicity is not recorded
    assert t[0, iv] == 3 and t[1, jv] == 1 and t[2, jv] == 0
    assert t.max_degree() == 1
    assert t.degree(0) == {iv: 3}
    u = BettiTable({(0, iv): 3, (1, jv): 1})
    assert t == u
    u.add(5, iv, 0)
    assert t == u
    u.add(2, iv)
    assert t != u


def test_betti_equal_on_shuffles(cl3_m45):
    rng = random.Random(32)
    from conftest import shuffle_basis

    t1 = betti(cl3_m45)
    t2 = betti(shuffle_basis(cl3_m45, rng))
    assert t1 == t2
