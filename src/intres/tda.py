"""Decomposability tests and interval replacement on commutative ladders.

Three ingredients tie together here:

 - decomposability: M is interval-decomposable exactly when its minimal
   right approximation by interval modules (`approx`) is an isomorphism,
   and the summands of that approximation are the certificate.
 - compression: restricting a ladder module along the fixed 5-vertex zigzag
   assigned to each interval (corner evaluations, with paths degenerating to
   identities), then decomposing the zigzag representation.
 - replacement: the signed interval vector whose alternating-sum definition
   (homology of the Koszul complex) and whose compressed-multiplicity
   companion must agree under Mobius inversion over the containment order;
   disagreement is reported as an internal error, never silently.  Covers
   and joins in that order are read off vertex sets: the covers of J are
   the minimal members strictly containing J, and the join of a set of
   members is the minimal member containing the union of their vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from intres.approx import minimal_right_approximation
from intres.exactla import Mat
from intres.koszul import EndCategory, koszul_complex, require_over
from intres.poset import BoundQuiver, cl_describe, ladder_length
from intres.repmod import PersModule


class RouteMismatchError(RuntimeError):
    """Two independent computation routes disagreed; indicates a defect."""


# ---- the fixed 5-vertex zigzag ---------------------------------------------------

_ZIGZAG = None


def zigzag_quiver():
    """The fixed zigzag 1 <- 2 -> 3 <- 4 -> 5 (vertices z1..z5)."""
    global _ZIGZAG
    if _ZIGZAG is None:
        _ZIGZAG = BoundQuiver(
            ["z1", "z2", "z3", "z4", "z5"],
            [
                ("al1", "z2", "z1"),
                ("al2", "z2", "z3"),
                ("al3", "z4", "z3"),
                ("al4", "z4", "z5"),
            ],
        )
    return _ZIGZAG


def _require_ladder(quiver):
    n = ladder_length(quiver)
    if n is None:
        raise ValueError("operation requires a commutative-ladder quiver")
    return n


def xi_assignment(quiver, interval):
    """Corner vertices and arrow paths of the zigzag restriction at I.

    Returns (vertex_of, path_of): zigzag vertex name -> ladder vertex, and
    zigzag arrow name -> (src ladder vertex, tgt ladder vertex) whose path
    composite gives the arrow's matrix.  Shapes: a two-row staircase uses
    the five corners (top-right, top-left, top-over-inner-corner, inner
    corner, bottom-right); one-row segments repeat their endpoints with
    identity paths in the middle.
    """
    _require_ladder(quiver)
    top, bot = cl_describe(interval)
    if top and bot:
        k, l = top
        i, j = bot
        vertex_of = {
            "z1": f"t{l}",
            "z2": f"t{k}",
            "z3": f"t{i}",
            "z4": f"b{i}",
            "z5": f"b{j}",
        }
        path_of = {
            "al1": (f"t{k}", f"t{l}"),
            "al2": (f"t{k}", f"t{i}"),
            "al3": (f"b{i}", f"t{i}"),
            "al4": (f"b{i}", f"b{j}"),
        }
    elif bot:
        i, j = bot
        vertex_of = {
            "z1": f"b{j}",
            "z2": f"b{i}",
            "z3": f"b{i}",
            "z4": f"b{i}",
            "z5": f"b{j}",
        }
        path_of = {
            "al1": (f"b{i}", f"b{j}"),
            "al2": (f"b{i}", f"b{i}"),
            "al3": (f"b{i}", f"b{i}"),
            "al4": (f"b{i}", f"b{j}"),
        }
    else:
        k, l = top
        vertex_of = {
            "z1": f"t{l}",
            "z2": f"t{k}",
            "z3": f"t{k}",
            "z4": f"t{k}",
            "z5": f"t{l}",
        }
        path_of = {
            "al1": (f"t{k}", f"t{l}"),
            "al2": (f"t{k}", f"t{k}"),
            "al3": (f"t{k}", f"t{k}"),
            "al4": (f"t{k}", f"t{l}"),
        }
    return vertex_of, path_of


def xi_restriction(module, interval):
    """The zigzag representation of M at I: corner spaces and path maps."""
    vertex_of, path_of = xi_assignment(module.quiver, interval)
    zq = zigzag_quiver()
    dims = {z: module.dims[v] for z, v in vertex_of.items()}
    maps = {}
    for name, (u, v) in path_of.items():
        m = module.path_map(u, v)
        if m is None:
            raise AssertionError("corner path missing; ladder order violated")
        maps[name] = m
    return PersModule(zq, module.field, dims, maps, check=False)


# ---- zigzag decomposition ---------------------------------------------------------


def _segment_rank(z, b, d):
    """Rank of the canonical map (limit -> colimit) of z over vertices b..d."""
    field = z.field
    verts = [f"z{m}" for m in range(b, d + 1)]
    dims = [z.dims[v] for v in verts]
    offs = [0]
    for dd in dims:
        offs.append(offs[-1] + dd)
    total = offs[-1]
    if total == 0:
        return 0
    pos = {v: t for t, v in enumerate(verts)}
    arrows = []
    for name, (u, v) in z.quiver.arrows.items():
        if u in pos and v in pos:
            arrows.append((name, u, v))
    arrows.sort()
    minus_one = field.coerce(-1)
    # limit: compatible families, kernel of D: (+)Z_x -> (+)_arrows Z_tgt
    drows = sum(z.dims[v] for _, _, v in arrows)
    D = Mat.zeros(field, drows, total)
    row = 0
    for name, u, v in arrows:
        m = z.maps[name]
        cu, cv = offs[pos[u]], offs[pos[v]]
        for r in range(m.nrows):
            for c in range(m.ncols):
                D.data[(row + r) * total + (cu + c)] = m[r, c]
            D.data[(row + r) * total + (cv + r)] = minus_one
        row += m.nrows
    kb = D.kernel_basis()
    # the canonical map sends a compatible family to the class of its entry
    # at vertex b; the whole family would give that class times d - b + 1
    zero = field.zero()
    K = Mat.from_columns(
        field, [v[: dims[0]] + [zero] * (total - dims[0]) for v in kb], total
    )
    # colimit: cokernel of B: (+)_arrows Z_src -> (+)Z_x
    bcols = sum(z.dims[u] for _, u, _ in arrows)
    B = Mat.zeros(field, total, bcols)
    col = 0
    for name, u, v in arrows:
        m = z.maps[name]
        cu, cv = offs[pos[u]], offs[pos[v]]
        for r in range(m.nrows):
            for c in range(m.ncols):
                B.data[(cv + r) * bcols + (col + c)] = m[r, c]
        for c in range(m.ncols):
            B.data[(cu + c) * bcols + (col + c)] = minus_one
        col += m.ncols
    rank_b = B.rank()
    return Mat.hstack(field, [K, B]).rank() - rank_b


def zigzag_interval_multiplicities(z):
    """Multiplicities of the 15 interval summands of a zigzag representation.

    Uses inclusion-exclusion over the ranks of the canonical limit-to-colimit
    maps of all segments; exact over the module's field.
    """
    if z.quiver != zigzag_quiver():
        raise ValueError("expected a representation of the fixed 5-vertex zigzag")
    rank = {}
    for b in range(1, 6):
        for d in range(b, 6):
            rank[(b, d)] = _segment_rank(z, b, d)

    def r(b, d):
        return rank.get((b, d), 0)

    out = {}
    for b in range(1, 6):
        for d in range(b, 6):
            m = r(b, d) - r(b - 1, d) - r(b, d + 1) + r(b - 1, d + 1)
            if m < 0:
                raise RouteMismatchError(
                    "negative multiplicity in zigzag decomposition"
                )
            out[(b, d)] = m
    return out


def compressed_multiplicity(module, interval):
    """Multiplicity of the full-support summand of the zigzag restriction."""
    _require_ladder(module.quiver)
    return zigzag_interval_multiplicities(xi_restriction(module, interval))[(1, 5)]


# ---- decomposability ------------------------------------------------------------


@dataclass
class DecompositionResult:
    decomposable: bool
    certificate: dict | None  # Interval -> positive multiplicity

    def __bool__(self):
        return self.decomposable


def is_interval_decomposable(module, cat=None):
    """Test whether M is a direct sum of interval modules.

    The minimal right approximation f: X -> M by the interval family is
    onto, and X is a sum of interval modules with the degree-0 Betti
    numbers as multiplicities.  If M is interval-decomposable then M itself
    is such an approximation, so f is an isomorphism by minimality; hence M
    is decomposable exactly when f is bijective at every vertex, and the
    certificate lists the summands of X with multiplicity.  The family is
    the objects of `cat`, all intervals when `cat` is None; a `cat` over
    another quiver or field raises ValueError.
    """
    family = None
    if cat is not None:
        require_over(cat, module.quiver, module.field, "the module")
        family = cat.objects
    if module.total_dim() == 0:
        return DecompositionResult(True, {})
    approx = minimal_right_approximation(module, family)
    if approx.morphism.is_iso():
        return DecompositionResult(True, approx.interval_multiset())
    return DecompositionResult(False, None)


# ---- interval replacement ----------------------------------------------------------


@dataclass
class ReplacementVector:
    delta: dict  # Interval -> signed integer
    compressed: dict  # Interval -> nonnegative integer

    def sorted_items(self):
        return sorted(
            self.delta.items(), key=lambda kv: (len(kv[0]), kv[0].vertices)
        )


def replacement_at(module, interval, cat=None, homs=None):
    """The signed coefficient at one interval: alternating sum of the
    homology dimensions of the Koszul complex of M at I.  `homs` is passed
    on to `koszul_complex`: a dict of hom spaces Hom(V_J, M) shared with
    other complexes of the same module."""
    chain = koszul_complex(module, interval, cat, homs=homs)
    return sum((-1) ** i * h for i, h in enumerate(chain.homology_dims()))


def _minimal(members):
    """The members that contain no other member."""
    return [
        k for k in members if not any(c.vertex_set < k.vertex_set for c in members)
    ]


def _cover_set_sums(intervals, values):
    """{J: alternating sum of `values` over the joins of sets of covers of J}.

    The empty set contributes values[J]; a set S of covers contributes
    (-1)^|S| values[join S], or 0 when no member contains them all.  A J
    with an ambiguous join (several minimal candidates) is left out.
    """
    out = {}
    for j in intervals:
        covers = _minimal([k for k in intervals if j.vertex_set < k.vertex_set])
        subsets = (
            s for n in range(1, len(covers) + 1) for s in combinations(covers, n)
        )
        total = values[j]
        for subset in subsets:
            union = frozenset().union(*(c.vertex_set for c in subset))
            joins = _minimal([k for k in intervals if union <= k.vertex_set])
            if len(joins) > 1:
                break
            if joins:
                total += (-1) ** len(subset) * values[joins[0]]
        else:
            out[j] = total
    return out


def interval_replacement(module, cat=None):
    """The signed interval-replacement vector of a ladder module.

    delta comes from Koszul homology per interval; the compressed table
    comes from zigzag restrictions; the two must satisfy the inversion
    identity c(I) = sum of delta(J) over J containing I, and, where joins
    of cover sets exist unambiguously, the cover-set alternating identity.
    Any violation raises RouteMismatchError.  The Koszul complexes share
    one dict of hom spaces, so Hom(V_J, M) is solved at most once per
    member J of the family.
    """
    _require_ladder(module.quiver)
    if cat is None:
        cat = EndCategory(module.quiver, None, module.field)
    intervals = cat.objects
    homs = {}
    delta = {i: replacement_at(module, i, cat=cat, homs=homs) for i in intervals}
    compressed = {i: compressed_multiplicity(module, i) for i in intervals}
    # inversion gate: summing delta over containing intervals reproduces c
    for i in intervals:
        total = sum(
            delta[j] for j in intervals if i.vertex_set <= j.vertex_set
        )
        if total != compressed[i]:
            raise RouteMismatchError(
                f"replacement inversion failed at {i!r}: "
                f"sum(delta)={total}, compressed={compressed[i]}"
            )
    # cover-set alternating cross-check, where joins are unambiguous
    for j, total in _cover_set_sums(intervals, compressed).items():
        if total != delta[j]:
            raise RouteMismatchError(
                f"cover-set identity failed at {j!r}: {total} != {delta[j]}"
            )
    return ReplacementVector(delta, compressed)
