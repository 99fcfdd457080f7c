"""Posets, bound quivers, intervals, Moebius functions, ladder helpers."""

import itertools
import math
import random

import pytest

from intres import (
    BoundQuiver,
    Interval,
    Poset,
    cl_describe,
    cl_interval,
    cl_intervals,
    commutative_ladder,
    containment_poset,
    enumerate_intervals,
    ladder_length,
)
from intres.poset import convex_closure, is_connected, is_convex

from conftest import grid_quiver, tree_poset_quiver, zigzag_poset_quiver


# ---- bound quivers -------------------------------------------------------------


def test_quiver_construction_and_order():
    q = BoundQuiver(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")])
    assert q.leq("a", "c") and q.lt("a", "c") and not q.leq("c", "a")
    assert q.leq("b", "b") and not q.lt("b", "b")
    assert q.arrows["x"] == ("a", "b")
    assert set(q.arrows_from("b")) == {("y", "c")}
    assert set(q.arrows_into("b")) == {("x", "a")}


def test_quiver_rejects_cycles_and_non_hasse():
    with pytest.raises(ValueError):
        BoundQuiver(["a", "b"], [("x", "a", "b"), ("y", "b", "a")])
    # transitive arrow a->c alongside a->b->c is not a Hasse diagram
    with pytest.raises(ValueError):
        BoundQuiver(
            ["a", "b", "c"],
            [("x", "a", "b"), ("y", "b", "c"), ("z", "a", "c")],
        )
    with pytest.raises(ValueError):
        BoundQuiver(["a"], [("x", "a", "missing")])
    with pytest.raises(ValueError):
        BoundQuiver(["a", "a"], [])


def test_loops_rejected():
    with pytest.raises(ValueError):
        BoundQuiver(["a"], [("x", "a", "a")])


# ---- intervals -----------------------------------------------------------------


def brute_force_intervals(quiver):
    """All connected convex subsets, found by exhaustive subset search."""
    vs = list(quiver.vertices)
    out = []
    for r in range(1, len(vs) + 1):
        for sub in itertools.combinations(vs, r):
            s = set(sub)
            if is_connected(quiver, s) and is_convex(quiver, s):
                out.append(frozenset(s))
    return set(out)


def test_interval_validation():
    q = commutative_ladder(2)
    Interval(q, ["t1", "t2", "b2"])  # connected and convex
    with pytest.raises(ValueError):
        Interval(q, ["b1", "b2", "t2"])  # t1 lies between b1 and t2
    with pytest.raises(ValueError):
        Interval(q, ["b1", "t2"])  # not convex (b2 and t1 paths missing)
    with pytest.raises(ValueError):
        Interval(q, [])
    q3 = commutative_ladder(3)
    with pytest.raises(ValueError):
        Interval(q3, ["b1", "b3"])  # disconnected/non-convex


def test_enumerate_intervals_matches_brute_force():
    for quiver in (
        commutative_ladder(2),
        commutative_ladder(3),
        BoundQuiver(["1", "2", "3", "4"],
                    [("x", "1", "2"), ("y", "2", "3"), ("z", "2", "4")]),
    ):
        got = {i.vertex_set for i in enumerate_intervals(quiver)}
        assert got == brute_force_intervals(quiver)


def closed_form_ladder_interval_count(n):
    """Segments in each row, plus one count per choice of two overlapping
    segments (top start <= bottom start <= top end <= bottom end)."""
    segments = n * (n + 1) // 2
    mixed = math.comb(n + 3, 4)
    return 2 * segments + mixed


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ladder_interval_count_closed_form(n):
    assert len(enumerate_intervals(commutative_ladder(n))) == (
        closed_form_ladder_interval_count(n)
    )


def test_known_interval_counts():
    assert len(enumerate_intervals(commutative_ladder(2))) == 11
    assert len(enumerate_intervals(commutative_ladder(3))) == 27


def test_convex_closure():
    q = commutative_ladder(3)
    c = convex_closure(q, {"b1", "t3"})
    assert is_convex(q, c) and is_connected(q, c)
    assert {"b1", "t3"} <= c
    # smallest such set: everything between b1 and t3
    assert c == {v for v in q.vertices
                 if q.leq("b1", v) and q.leq(v, "t3")} | {"b1", "t3"}


@pytest.mark.parametrize("name", ["ladder2", "ladder4", "grid", "zigzag", "tree"])
def test_convex_closure_is_everything_between_two_members(name):
    """On seeded random vertex subsets S of each poset, the closure is
    {z : x <= z <= y for some x, y in S}, found by brute force from `leq`,
    and S is convex exactly when it is that set.  Every subset of the
    zigzag, whose chains have at most two elements, is convex."""
    quiver = {
        "ladder2": commutative_ladder(2),
        "ladder4": commutative_ladder(4),
        "grid": grid_quiver(),
        "zigzag": zigzag_poset_quiver(),
        "tree": tree_poset_quiver(),
    }[name]
    rng = random.Random(11)
    vs = quiver.vertices
    convex = 0
    for _ in range(200):
        s = set(rng.sample(vs, rng.randint(0, len(vs))))
        want = {z for z in vs
                if any(quiver.leq(x, z) and quiver.leq(z, y) for x in s for y in s)}
        assert convex_closure(quiver, s) == want
        assert is_convex(quiver, s) == (s == want)
        convex += s == want
    assert convex and (convex < 200) == (name != "zigzag")


# ---- posets and Moebius functions ------------------------------------------------


def test_poset_from_leq_and_covers():
    divisors = (1, 2, 3, 4, 6, 12)
    p = Poset.from_leq(divisors, lambda a, b: b % a == 0)
    assert p.bottom() == 1 and p.top() == 12
    assert set(p.covers_of(1)) == {2, 3}
    assert p.join((4, 6)) == 12 and p.meet((4, 6)) == 2
    q = Poset.from_covers(divisors, list(p.covers()))
    assert all(q.leq(a, b) == p.leq(a, b) for a in divisors for b in divisors)


def test_mobius_classic_values():
    divisors = (1, 2, 3, 4, 6, 12)
    p = Poset.from_leq(divisors, lambda a, b: b % a == 0)
    mu = p.mobius()
    # number-theoretic Moebius function of the quotient
    assert mu[(1, 1)] == 1 and mu[(1, 2)] == -1 and mu[(1, 6)] == 1
    assert mu[(1, 4)] == 0 and mu[(1, 12)] == 0
    assert mu[(2, 12)] == 1  # the slice [2, 12] looks like the divisors of 6
    assert mu[(2, 6)] == -1 and mu[(4, 12)] == -1 and mu[(6, 12)] == -1


def zeta_mu_is_identity(p):
    mu = p.mobius()
    for a in p.elements:
        for b in p.elements:
            if not p.leq(a, b):
                continue
            total = sum(mu[(c, b)] for c in p.elements
                        if p.leq(a, c) and p.leq(c, b))
            assert total == (1 if a == b else 0)


def test_zeta_mu_identity():
    divisors = (1, 2, 3, 4, 6, 12)
    zeta_mu_is_identity(Poset.from_leq(divisors, lambda a, b: b % a == 0))
    for n in (2, 3):
        zeta_mu_is_identity(containment_poset(
            enumerate_intervals(commutative_ladder(n))))


def test_boolean_lattice_mobius():
    elems = tuple(frozenset(s) for r in range(4)
                  for s in itertools.combinations("xyz", r))
    p = Poset.from_leq(elems, lambda a, b: a <= b)
    mu = p.mobius()
    for a in elems:
        for b in elems:
            if a <= b:
                assert mu[(a, b)] == (-1) ** (len(b) - len(a))


def test_containment_poset_covers():
    ivs = enumerate_intervals(commutative_ladder(2))
    p = containment_poset(ivs)
    for a, b in p.covers():
        assert a.vertex_set < b.vertex_set
        strictly_between = [c for c in ivs
                            if a.vertex_set < c.vertex_set < b.vertex_set]
        assert not strictly_between


# ---- ladder helpers --------------------------------------------------------------


def test_ladder_shape():
    q = commutative_ladder(3)
    assert ladder_length(q) == 3
    assert set(q.vertices) == {"b1", "b2", "b3", "t1", "t2", "t3"}
    assert q.arrows["a1"] == ("b1", "b2")
    assert q.arrows["ta2"] == ("t2", "t3")
    assert q.arrows["v2"] == ("b2", "t2")
    assert ladder_length(BoundQuiver(["x"], [])) is None


def test_cl_interval_describe_roundtrip():
    q = commutative_ladder(3)
    for iv in enumerate_intervals(q):
        top, bot = cl_describe(iv)
        again = cl_interval(q, top=top, bot=bot)
        assert again == iv
    top, bot = cl_describe(cl_interval(q, top=(1, 3), bot=(3, 3)))
    assert top == (1, 3) and bot == (3, 3)


def test_cl_interval_validates():
    q = commutative_ladder(3)
    with pytest.raises(ValueError):
        cl_interval(q, top=(2, 1))
    with pytest.raises(ValueError):
        cl_interval(q, top=None, bot=None)
    with pytest.raises(ValueError):
        cl_interval(q, top=(1, 1), bot=(3, 3))  # disconnected


def test_cl_intervals_list():
    q = commutative_ladder(2)
    ivs = cl_intervals(2, q)
    assert len(ivs) == 11
    assert {i.vertex_set for i in ivs} == {
        i.vertex_set for i in enumerate_intervals(q)
    }
