"""Minimal resolutions and coresolutions by interval modules.

A resolution is built by repeatedly taking a minimal right approximation and
passing to its kernel.  Each approximation f: X -> K is onto Hom(V_J, K)
for every member J, so dim Hom(V_J, ker f) is known before the next step:
sum_u dim hom(J, I_u) - dim Hom(V_J, K) over the summands V_{I_u} of X.
Only the first step solves every member; each later one solves the
members where that dimension is nonzero, and checks it.  The same
exactness, for the whole resolution, is H chi = h: the hom dimensions
between members times the Euler characteristic of the Betti table give
dim Hom(V_I, M) at every member I, which every table is checked against.

A coresolution is its dual: D = Hom_k(-, k) turns a minimal resolution
of DM over the opposite quiver (an interval of the opposite poset is the
same vertex set) into a minimal coresolution of M.  The multiplicity of
each interval summand in the i-th term is the degree-i Betti (resp.
co-Betti) number of the module at that interval.  The family
is a `repmod.IntervalFamily`, whose table of irreducible maps every step
reads; without one, it is the family of all intervals that the module's
quiver holds (`IntervalFamily.of`), and a plain list is wrapped for the
one call.  A coresolution resolves over the family's `opposite`, whose
table is the transpose, so `betti` and `cobetti` of one module share one
enumeration and one table.
"""

from __future__ import annotations

from dataclasses import dataclass

from intres.approx import minimal_right_approximation
from intres.repmod import (
    BettiTable,
    IntervalFamily,
    MaxLengthExceeded,
    ModMorphism,
    kernel,
)


def _default_max_len(quiver):
    return 4 * len(quiver.vertices)


@dataclass
class IntervalResolution:
    """0 -> ... -> X_1 -> X_0 -> M -> 0 with interval-decomposable X_i."""

    module: object
    terms: list  # per degree: list of Interval tags (one per summand)
    term_modules: list  # per degree: PersModule (the tagged direct sum)
    diffs: list  # diffs[i]: X_i -> X_{i-1} for i >= 1; diffs[0]: X_0 -> M

    @property
    def length(self):
        return len(self.terms) - 1 if self.terms else -1


@dataclass
class IntervalCoresolution:
    """0 -> M -> Y^0 -> Y^1 -> ... with interval-decomposable Y^i."""

    module: object
    terms: list
    term_modules: list
    diffs: list  # diffs[0]: M -> Y^0; diffs[i]: Y^{i-1} -> Y^i

    @property
    def length(self):
        return len(self.terms) - 1 if self.terms else -1


def _require_minimal(tags, prev_tags, diff):
    """Raise unless diff: X_i -> X_{i-1} maps into the radical: no block
    V_I -> V_I between two summands with the same tag is nonzero.  Such a
    block is a scalar (End(V_I) = k), read at one vertex v of I, where the
    summands containing v give the coordinates in their order."""
    for tag in set(tags).intersection(prev_tags):
        v = tag.vertices[0]
        cols = [c for c, j in enumerate(j for j in tags if v in j) if j == tag]
        rows = [r for r, j in enumerate(j for j in prev_tags if v in j) if j == tag]
        block = diff.comps[v]
        if any(block[r, c] for r in rows for c in cols):
            raise AssertionError("resolution is not minimal")


def _resolve(module, max_len, family):
    """Terms, term modules and differentials of the minimal resolution of
    `module` by members of `family`, an IntervalFamily over its quiver.

    Every approximation reads the family's table of irreducible maps; each
    differential X_i -> X_{i-1} is checked to be minimal
    (`_require_minimal`), which a missing irreducible map would break.
    The first approximation solves Hom(V_J, M) at every member J; each
    later one solves only the members where its kernel's hom space is
    nonzero, with the dimensions that exactness gives
    (`ApproxMorphism.kernel_hom_dims`), and checks them.  The Betti table
    is checked against the first dimensions
    (`IntervalFamily.require_hom_identity`)."""
    if max_len is None:
        max_len = _default_max_len(module.quiver)
    terms = []
    term_modules = []
    diffs = []
    current = module
    embed = None  # inclusion of current into the previous term
    while not current.is_zero():
        if len(terms) > max_len:
            raise MaxLengthExceeded(
                f"resolution exceeded {max_len} terms; raise max_len if the "
                "configuration is legitimate"
            )
        hom_dims = None if embed is None else approx.kernel_hom_dims(family)
        approx = minimal_right_approximation(current, family, hom_dims=hom_dims)
        f = approx.morphism
        tags = list(approx.summand_index)
        if embed is None:
            diffs.append(f)
            first = approx.hom_dims
        else:
            diffs.append(embed.compose(f))
            _require_minimal(tags, terms[-1], diffs[-1])
        terms.append(tags)
        term_modules.append(f.src)
        ker = kernel(f)
        # re-validate the constructed pieces: cheap, catches bugs early
        ker.module.validate_commutativity()
        ker.inclusion.validate_naturality()
        current = ker.module
        embed = ker.inclusion
    if terms:
        family.require_hom_identity(_table(terms), first)
    return terms, term_modules, diffs


def minimal_interval_resolution(module, max_len=None, family=None):
    """Iterate minimal right approximations and kernels until exhaustion.

    `family=None` uses all intervals of the quiver (the approximations then
    are epimorphisms and the resolution is exact).  Raises MaxLengthExceeded
    if more than max_len terms are produced.
    """
    family = IntervalFamily.wrap(family, module.quiver, module.field)
    return IntervalResolution(module, *_resolve(module, max_len, family))


def _resolve_dual(module, max_len, family):
    """`_resolve` of DM over the family's `opposite`, with the tags carried
    back to the quiver of M (`Interval.opposite`): an interval of the
    opposite quiver is the same vertex set."""
    family = IntervalFamily.wrap(family, module.quiver, module.field)
    terms, term_modules, diffs = _resolve(module.dual(), max_len, family.opposite())
    return [[i.opposite() for i in tags] for tags in terms], term_modules, diffs


def minimal_interval_coresolution(module, max_len=None, family=None):
    """D of the minimal resolution of DM over the opposite quiver
    (`_resolve_dual`).  Each term module is dualized back onto the quiver
    of M once, and the differentials, every component transposed, run
    between those duals, starting at `module` itself.
    """
    terms, term_modules, diffs = _resolve_dual(module, max_len, family)
    ends = [module] + [x.dual() for x in term_modules]
    return IntervalCoresolution(
        module,
        terms,
        ends[1:],
        [
            ModMorphism(src, tgt, {v: m.transpose() for v, m in d.comps.items()},
                        check=False)
            for src, tgt, d in zip(ends, ends[1:], diffs)
        ],
    )


def _table(terms):
    table = BettiTable()
    for degree, tags in enumerate(terms):
        for interval in tags:
            table.add(degree, interval)
    return table


def betti(module, max_len=None, family=None):
    """Betti table: multiplicity of each interval in each resolution term."""
    return _table(minimal_interval_resolution(module, max_len, family).terms)


def cobetti(module, max_len=None, family=None):
    """Co-Betti table: multiplicity of each interval in each term of the
    minimal coresolution, read off the tags of the resolution of DM
    (`_resolve_dual`), with no module dualized back."""
    return _table(_resolve_dual(module, max_len, family)[0])
