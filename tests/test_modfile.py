"""Module files: parsing, canonical serialization, naming, rendering."""

import random

import pytest

from intres import (
    QQ,
    BoundQuiver,
    CommutativityError,
    Field,
    IntervalFamily,
    Mat,
    ModuleFileError,
    commutative_ladder,
    enumerate_intervals,
    interval_dim_rendering,
    interval_name,
    parse_field_token,
    parse_interval_spec,
    parse_module_text,
    render_dim_vector,
    render_ladder_vector,
    serialize_module,
)
from intres.poset import Interval

from conftest import FIXTURES, random_interval_sum

CL3 = commutative_ladder(3)


def zigzag_quiver():
    """The zigzag z1 <- z2 -> z3 <- z4 -> z5, a quiver that is not a ladder."""
    return BoundQuiver(
        ["z1", "z2", "z3", "z4", "z5"],
        [("al1", "z2", "z1"), ("al2", "z2", "z3"), ("al3", "z4", "z3"),
         ("al4", "z4", "z5")],
    )


# ---- field tokens -------------------------------------------------------------------


def test_parse_field_token():
    assert parse_field_token("Q") == QQ
    assert parse_field_token("QQ") == QQ
    assert parse_field_token("q") == QQ
    for text in ("GF5", "GF(5)", "GF 5", "gf5"):
        assert parse_field_token(text) == Field.prime(5)
    for bad in ("R", "GF4", "GF", "GF(x)", ""):
        with pytest.raises(ValueError):
            parse_field_token(bad)


# ---- parsing ------------------------------------------------------------------------


def test_parse_fixture_file(cl3_m45):
    m = cl3_m45
    assert m.field == QQ
    assert m.dims == {"t1": 1, "t2": 2, "t3": 1, "b1": 0, "b2": 1, "b3": 1}
    assert m.maps["ta1"] == Mat.from_rows(QQ, [[1], [1]])
    assert m.maps["ta2"] == Mat.from_rows(QQ, [[0, 1]])
    assert m.maps["v2"] == Mat.from_rows(QQ, [[0], [1]])
    # absent maps on zero-dimensional slots are zero-shaped
    assert m.maps["a1"].shape == (1, 0)


def test_parse_explicit_quiver():
    text = """
field GF 2
quiver explicit
vertex p
vertex q
vertex r
arrow f p q
arrow g q r
dim p 1
dim q 2
dim r 1
map f
1
1
map g
1 1
"""
    m = parse_module_text(text)
    assert m.field == Field.prime(2)
    assert m.dims == {"p": 1, "q": 2, "r": 1}
    assert m.maps["g"] == Mat.from_rows(Field.prime(2), [[1, 1]])


def test_parse_rational_entries():
    text = """
field Q
quiver ladder 1
dim b1 1
dim t1 1
map v1
3/4
"""
    m = parse_module_text(text)
    assert m.maps["v1"][0, 0] == QQ.coerce("3/4")


def test_field_argument_overrides_declaration():
    text = "field Q\nquiver ladder 1\ndim b1 1\n"
    m = parse_module_text(text, field=Field.prime(3))
    assert m.field == Field.prime(3)


def test_comments_and_blank_lines_ignored():
    text = "# header\nfield Q\n\nquiver ladder 1  # trailing\ndim t1 2\n"
    m = parse_module_text(text)
    assert m.dims["t1"] == 2


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("field Q\nfield Q\nquiver ladder 1\n", 2, "duplicate field"),
        ("quiver ladder 1\nquiver ladder 2\n", 2, "duplicate quiver"),
        ("quiver ladder 0\n", 1, "ladder length"),
        ("quiver bogus\n", 1, "expected"),
        ("quiver ladder 1\nvertex x\n", 2, "after quiver"),
        ("quiver ladder 1\ndim t1 1\ndim t1 2\n", 3, "duplicate dim"),
        ("quiver ladder 1\ndim t1 -1\n", 2, "dimension"),
        ("quiver ladder 1\ndim nosuch 1\n", 2, "unknown vertex"),
        ("quiver ladder 1\nmap nosuch\n", 2, "unknown arrow"),
        ("quiver ladder 2\ndim t1 1\ndim t2 1\nmap ta1\n1\n1\n", 4, "expected 1 rows"),
        ("quiver ladder 2\ndim t1 1\ndim t2 1\nmap ta1\n1 2\n", 5, "entries"),
        ("quiver ladder 2\ndim t1 1\ndim t2 1\nmap ta1\nxyz\n", 5, "bad matrix entry"),
        ("quiver ladder 2\nmap ta1\n1\n", 3, "zero-dim"),
        ("wibble\n", 1, "unknown directive"),
        ("dim t1 1\n", 1, "no quiver"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ModuleFileError) as exc:
        parse_module_text(text)
    assert exc.value.lineno == lineno
    assert fragment in str(exc.value)


@pytest.mark.parametrize("name", ["a,b", "{a", "a}", "stop=1"])
def test_vertex_names_that_break_interval_names_are_refused(name):
    """`{a,b}` would name both the vertex `a,b` and two vertices, and
    `{stop=1}` would read as a ladder row segment."""
    with pytest.raises(ModuleFileError) as exc:
        parse_module_text(f"quiver explicit\nvertex c\nvertex {name}\n")
    assert exc.value.lineno == 3
    assert f"vertex name {name!r}" in str(exc.value)


def test_non_commuting_file_raises():
    text = """
quiver ladder 2
dim b1 1
dim b2 1
dim t1 1
dim t2 1
map a1
1
map ta1
2
map v1
1
map v2
1
"""
    with pytest.raises(CommutativityError):
        parse_module_text(text)


# ---- serialization ------------------------------------------------------------------


def test_roundtrip_fixture_files():
    for name in ("cl3_m45.mod", "cl5_m.mod"):
        text = (FIXTURES / name).read_text()
        m = parse_module_text(text)
        canon = serialize_module(m)
        again = parse_module_text(canon)
        assert again == m
        assert serialize_module(again) == canon  # canonical form is stable


def test_files_over_one_ladder_share_one_quiver(family_builds):
    """Files parsed with the same `quiver ladder n` share one quiver, so
    their modules read one held family: one enumeration and one hom table
    for the two.  Another length, an explicit quiver and
    `commutative_ladder` itself give quivers of their own."""
    first = parse_module_text("field Q\nquiver ladder 3\ndim b1 1\n")
    second = parse_module_text("field GF 2\nquiver ladder 3\ndim t2 1\n")
    assert second.quiver is first.quiver
    assert parse_module_text("quiver ladder 2\n").quiver is not first.quiver
    assert commutative_ladder(3) is not first.quiver
    explicit = "quiver explicit\nvertex x\nvertex y\narrow a x y\n"
    assert parse_module_text(explicit).quiver is not parse_module_text(explicit).quiver
    for m in (first, second):
        IntervalFamily.of(m.quiver, QQ).hom_table()
    assert family_builds == [("enumerate", first.quiver), ("hom", first.quiver)]


def test_roundtrip_random_modules():
    rng = random.Random(60)
    for quiver in (commutative_ladder(2), CL3):
        for _ in range(5):
            m, _ = random_interval_sum(quiver, rng)
            text = serialize_module(m)
            assert parse_module_text(text) == m


def test_roundtrip_gf_module():
    rng = random.Random(61)
    m, _ = random_interval_sum(CL3, rng, field=Field.prime(5))
    text = serialize_module(m)
    assert "field GF 5" in text
    assert parse_module_text(text) == m


def test_roundtrip_explicit_quiver():
    rng = random.Random(62)
    zq = zigzag_quiver()
    m, _ = random_interval_sum(zq, rng)
    text = serialize_module(m)
    assert "quiver explicit" in text
    assert parse_module_text(text) == m


# ---- names and rendering ------------------------------------------------------------


def test_interval_names_on_ladder():
    q = CL3
    from intres import cl_interval

    assert interval_name(cl_interval(q, top=(1, 3), bot=(3, 3))) == (
        "top=[1,3] bot=[3,3]"
    )
    assert interval_name(cl_interval(q, top=(2, 2))) == "top=[2,2]"
    assert interval_name(cl_interval(q, bot=(1, 2))) == "bot=[1,2]"


def test_interval_name_roundtrip_all_cl3():
    for iv in enumerate_intervals(CL3):
        assert parse_interval_spec(CL3, interval_name(iv)) == iv


def test_interval_name_general_quiver():
    zq = zigzag_quiver()
    iv = Interval(zq, ["z1", "z2", "z3"])
    name = interval_name(iv)
    assert name.startswith("{") and name.endswith("}")
    assert parse_interval_spec(zq, name) == iv
    assert parse_interval_spec(zq, "z1, z2 z3") == iv


def test_parse_interval_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_interval_spec(CL3, "top=[1,2] junk")
    with pytest.raises(ValueError):
        parse_interval_spec(CL3, "top=[1,2] top=[1,3]")
    with pytest.raises(ValueError):
        parse_interval_spec(CL3, "")
    for spec, segment in [
        ("top=[2,1]", "top=[2,1]"),
        ("bot=[0,2]", "bot=[0,2]"),
        ("top=[1,3] bot=[3,4]", "bot=[3,4]"),
        ("top=[1,6] bot=[2,9]", "top=[1,6]"),
        ("top=[1,3000000]", "top=[1,3000000]"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_interval_spec(CL3, spec)
        assert str(err.value) == (
            f"segment {segment} is out of range for a ladder of length 3 "
            "(need 1 <= lo <= hi <= 3)"
        )
    with pytest.raises(ValueError, match="unknown vertex 'x9'"):
        parse_interval_spec(CL3, "t1, x9, y7, b2, z1, w4")


def test_render_vectors(cl3_m45):
    q = CL3
    assert render_dim_vector(q, cl3_m45.dims) == "(1 2 1 / 0 1 1)"
    from intres import cl_interval

    assert interval_dim_rendering(cl_interval(q, top=(1, 3), bot=(3, 3))) == (
        "(1 1 1 / 0 0 1)"
    )
    zq = zigzag_quiver()
    iv = Interval(zq, ["z2", "z3"])
    assert interval_dim_rendering(iv) == "(z1:0 z2:1 z3:1 z4:0 z5:0)"
    with pytest.raises(ValueError):
        render_ladder_vector(zq, {})
