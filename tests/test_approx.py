"""Right approximations by interval modules, and left approximations as
their duals: D of a right approximation of DM over the opposite quiver."""

import random
from collections import Counter

from intres import (
    QQ,
    Field,
    ModMorphism,
    betti,
    cobetti,
    commutative_ladder,
    enumerate_intervals,
    is_right_interval_approximation,
    minimal_right_approximation,
)
from intres import approx as approx_module
from intres import repmod, resolve
from intres.approx import ApproxMorphism

from conftest import (
    load_fixture,
    random_commuting_module,
    random_interval_sum,
    shuffle_basis,
)

CL2 = commutative_ladder(2)
CL3 = commutative_ladder(3)


# ---- approximations ----------------------------------------------------------------


def test_right_approximation_properties():
    rng = random.Random(23)
    for quiver in (CL2, CL3):
        for _ in range(3):
            m = random_commuting_module(quiver, rng)
            approx = minimal_right_approximation(m)
            approx.morphism.validate_naturality()
            assert is_right_interval_approximation(approx)
            # the family contains all one-point up-sets, so it reaches all of M
            assert approx.morphism.is_epi()


def test_left_approximation_properties():
    """D of a right approximation of DM is a natural monomorphism out of M."""
    rng = random.Random(24)
    for quiver in (CL2, CL3):
        for _ in range(3):
            m = random_commuting_module(quiver, rng)
            dm = m.dual()
            approx = minimal_right_approximation(dm)
            approx.morphism.validate_naturality()
            assert is_right_interval_approximation(approx)
            left = approx.morphism.dual()
            assert left.src == m
            left.validate_naturality()
            assert left.is_mono()


def test_minimal_right_approximation_of_interval_sum_is_iso():
    """For an interval-decomposable module the minimal right approximation
    recovers the module itself, summand for summand."""
    rng = random.Random(25)
    for _ in range(6):
        m, counts = random_interval_sum(CL3, rng)
        mini = minimal_right_approximation(m)
        assert mini.morphism.is_iso()
        assert Counter(mini.summand_index) == counts


def test_minimal_left_approximation_of_interval_sum_is_iso():
    """The dual of the minimal right approximation of DM recovers an
    interval sum M summand for summand, by vertex set."""
    rng = random.Random(26)
    for _ in range(6):
        m, counts = random_interval_sum(CL3, rng)
        mini = minimal_right_approximation(m.dual())
        assert mini.morphism.dual().is_iso()
        assert Counter(i.vertex_set for i in mini.summand_index) == Counter(
            {i.vertex_set: k for i, k in counts.items()}
        )


def without_summand(approx, t):
    return ApproxMorphism(
        approx.module,
        approx.summand_index[:t] + approx.summand_index[t + 1:],
        approx.parts[:t] + approx.parts[t + 1:],
    )


def test_minimal_approximations_drop_no_summand():
    """The radical-quotient approximations of M and of DM (the left side)
    satisfy the criterion, and dropping any single summand breaks it."""
    rng = random.Random(27)
    modules = [random_commuting_module(CL2, rng) for _ in range(3)]
    modules += [load_fixture("cl3_m45.mod"), load_fixture("cl5_m.mod")]
    for m in modules:
        for x in (m, m.dual()):
            mini = minimal_right_approximation(x)
            mini.morphism.validate_naturality()
            assert is_right_interval_approximation(mini)
            for t in range(len(mini.summand_index)):
                rest = without_summand(mini, t)
                assert not is_right_interval_approximation(rest)


def test_minimal_multiset_is_basis_invariant():
    rng = random.Random(28)
    for _ in range(3):
        m, _ = random_interval_sum(CL2, rng, shuffle=False)
        a = minimal_right_approximation(m)
        b = minimal_right_approximation(shuffle_basis(m, rng))
        assert Counter(a.summand_index) == Counter(b.summand_index)


def test_family_restricted_approximation():
    """Relative to a sub-family the criterion is hom-surjectivity; an empty
    family is a family, not a request for all intervals."""
    rng = random.Random(29)
    m = random_commuting_module(CL2, rng)
    family = [i for i in enumerate_intervals(CL2) if len(i) >= 2]
    mini = minimal_right_approximation(m, family=family)
    assert is_right_interval_approximation(mini, family=family)
    assert set(mini.summand_index) <= set(family)
    for t in range(len(mini.summand_index)):
        rest = without_summand(mini, t)
        assert not is_right_interval_approximation(rest, family=family)
    empty = minimal_right_approximation(m, family=[])
    assert empty.summand_index == []
    assert is_right_interval_approximation(empty, family=[])
    assert not is_right_interval_approximation(empty)


def test_zero_module_approximations():
    from intres import zero_module

    z = zero_module(CL2, QQ)
    mini = minimal_right_approximation(z)
    assert mini.summand_index == [] and mini.morphism.is_iso()
    minl = minimal_right_approximation(z.dual())
    assert minl.summand_index == [] and minl.morphism.dual().is_iso()


def test_morphisms_are_built_only_for_kept_summands(monkeypatch):
    """`betti` and `cobetti` on `cl5_m.mod` keep 8 summands in all.  The
    hom spaces are flat vectors, so only a kept basis element becomes a
    morphism (one `ModMorphism.from_flat` each), and an interval module is
    built at most twice per summand; building a morphism for every
    hom-basis element made 180 and 144 such calls."""
    calls = Counter()
    kept = []
    from_flat = ModMorphism.from_flat.__func__
    build = repmod.interval_module
    approximate = resolve.minimal_right_approximation

    def counted_from_flat(cls, *args, **kwargs):
        calls["from_flat"] += 1
        return from_flat(cls, *args, **kwargs)

    def counted_build(*args):
        calls["interval_module"] += 1
        return build(*args)

    def recorded(*args, **kwargs):
        result = approximate(*args, **kwargs)
        kept.extend(result.summand_index)
        return result

    monkeypatch.setattr(ModMorphism, "from_flat", classmethod(counted_from_flat))
    for mod in (repmod, approx_module):
        monkeypatch.setattr(mod, "interval_module", counted_build)
    monkeypatch.setattr(resolve, "minimal_right_approximation", recorded)
    m = load_fixture("cl5_m.mod")
    betti(m)
    cobetti(m)
    assert len(kept) == 8
    assert calls["from_flat"] == len(kept)
    assert calls["interval_module"] <= 2 * len(kept)


def test_approximations_split_no_good_components(monkeypatch):
    """Each irreducible map's good component is read off the family's hom
    table as a vertex bitmask, so `betti` and `cobetti` on `cl5_m.mod`
    split no components, over Q and over GF(2); splitting them afresh at
    every step of every (co)resolution made 542 calls."""
    calls = Counter()
    split = repmod.good_components

    def counted(*args):
        calls["good_components"] += 1
        return split(*args)

    for mod in (approx_module, repmod):
        monkeypatch.setattr(mod, "good_components", counted)
    for field in (QQ, Field.prime(2)):
        m = load_fixture("cl5_m.mod", field)
        assert betti(m).entries and cobetti(m).entries
    assert calls["good_components"] == 0
