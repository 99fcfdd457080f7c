"""Plain-text persistence-module files and deterministic renderings.

Format (one directive per line, `#` comments, blank lines ignored):

    field Q                  # or: field GF 5
    quiver ladder 3          # or an explicit block:
    # vertex a               # a name holds none of , { } =
    # vertex b
    # arrow f a b            # name src tgt (must form a Hasse diagram)
    dim b1 1                 # unlisted vertices default to 0
    map a1                   # followed by dim(tgt) rows of dim(src) entries
    1 0/3
    2 1

Entries are integers or `a/b` rationals (`GF p` files take residues).  An
absent `map` line means the zero matrix.  Serialization is canonical:
parse-serialize round-trips are byte-stable after one normalization.
All files parsed with `quiver ladder n` share one quiver per n, and with
it the interval families that the quiver holds
(`repmod.IntervalFamily.of`).
"""

from __future__ import annotations

import re

from intres.exactla import QQ, Field, Mat
from intres.poset import (
    BoundQuiver,
    Interval,
    cl_describe,
    cl_interval,
    commutative_ladder,
    ladder_length,
)
from intres.repmod import CommutativityError, PersModule


# ladder length -> the quiver that every parsed `quiver ladder <n>` file
# shares, so that parsed modules over one ladder read one held family
_LADDERS = {}


class ModuleFileError(ValueError):
    """Malformed module file; carries a 1-based line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_field_token(text):
    """Field from "Q", "GF5", "GF(5)", or "GF 5" (case-insensitive)."""
    t = text.strip()
    if t.upper() in ("Q", "QQ"):
        return QQ
    m = re.fullmatch(r"(?i)GF\s*\(?\s*(\d+)\s*\)?", t)
    if m:
        return Field("GF", int(m.group(1)))
    raise ValueError(f"unrecognized field {text!r}")


def _tokens(text):
    """(lineno, [token, ...]) for each meaningful line."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def parse_module_text(text, field=None):
    """Parse a module file into a PersModule (validates commutativity)."""
    lines = _tokens(text)
    pos = 0
    declared_field = None
    quiver = None
    vertices = []
    arrows = []
    dims = {}
    dim_lines = {}
    raw_maps = {}  # arrow -> (lineno, rows of string tokens)

    def err(lineno, msg):
        raise ModuleFileError(lineno, msg)

    while pos < len(lines):
        lineno, toks = lines[pos]
        head = toks[0]
        if head == "field":
            if declared_field is not None:
                err(lineno, "duplicate field directive")
            try:
                declared_field = parse_field_token(" ".join(toks[1:]))
            except ValueError as e:
                err(lineno, str(e))
            pos += 1
        elif head == "quiver":
            if quiver is not None or vertices:
                err(lineno, "duplicate quiver directive")
            if len(toks) == 3 and toks[1] == "ladder":
                try:
                    n = int(toks[2])
                except ValueError:
                    err(lineno, f"bad ladder length {toks[2]!r}")
                if n < 1:
                    err(lineno, "ladder length must be >= 1")
                quiver = _LADDERS.get(n)
                if quiver is None:
                    quiver = _LADDERS[n] = commutative_ladder(n)
            elif len(toks) == 2 and toks[1] == "explicit":
                pass  # vertices/arrows follow
            else:
                err(lineno, "expected 'quiver ladder <n>' or 'quiver explicit'")
            pos += 1
        elif head == "vertex":
            if quiver is not None:
                err(lineno, "vertex directive after quiver was fixed")
            if len(toks) != 2:
                err(lineno, "expected 'vertex <name>'")
            if set(toks[1]) & set(",{}="):
                err(lineno, f"vertex name {toks[1]!r} uses one of , {{ }} = "
                            "(interval names are built from them)")
            vertices.append(toks[1])
            pos += 1
        elif head == "arrow":
            if quiver is not None:
                err(lineno, "arrow directive after quiver was fixed")
            if len(toks) != 4:
                err(lineno, "expected 'arrow <name> <src> <tgt>'")
            arrows.append((toks[1], toks[2], toks[3]))
            pos += 1
        elif head == "dim":
            if len(toks) != 3:
                err(lineno, "expected 'dim <vertex> <n>'")
            if toks[1] in dims:
                err(lineno, f"duplicate dim for {toks[1]!r}")
            try:
                d = int(toks[2])
            except ValueError:
                err(lineno, f"bad dimension {toks[2]!r}")
            if d < 0:
                err(lineno, "dimension must be >= 0")
            dims[toks[1]] = d
            dim_lines[toks[1]] = lineno
            pos += 1
        elif head == "map":
            if len(toks) != 2:
                err(lineno, "expected 'map <arrow>'")
            if toks[1] in raw_maps:
                err(lineno, f"duplicate map for arrow {toks[1]!r}")
            rows = []
            pos += 1
            while pos < len(lines) and lines[pos][1][0] not in (
                "field",
                "quiver",
                "vertex",
                "arrow",
                "dim",
                "map",
            ):
                rows.append(lines[pos])
                pos += 1
            raw_maps[toks[1]] = (lineno, rows)
        else:
            err(lineno, f"unknown directive {head!r}")

    if quiver is None:
        if not vertices:
            raise ModuleFileError(1, "no quiver declared")
        try:
            quiver = BoundQuiver(vertices, arrows)
        except ValueError as e:
            raise ModuleFileError(1, f"bad quiver: {e}")
    fld = field or declared_field or QQ

    for v in dims:
        if v not in quiver._vindex:
            raise ModuleFileError(dim_lines[v], f"dim for unknown vertex {v!r}")
    full_dims = {v: dims.get(v, 0) for v in quiver.vertices}

    maps = {}
    for name, (lineno, rows) in raw_maps.items():
        if name not in quiver.arrows:
            err(lineno, f"map for unknown arrow {name!r}")
        src, tgt = quiver.arrows[name]
        nrows, ncols = full_dims[tgt], full_dims[src]
        if nrows == 0 or ncols == 0:
            if rows:
                err(rows[0][0], f"matrix rows given for zero-dim arrow {name!r}")
            continue
        if len(rows) != nrows:
            err(lineno, f"map {name!r}: expected {nrows} rows, got {len(rows)}")
        data = []
        for rlineno, toks in rows:
            if len(toks) != ncols:
                err(rlineno, f"expected {ncols} entries, got {len(toks)}")
            for t in toks:
                try:
                    data.append(fld.coerce(t))
                except (ValueError, ZeroDivisionError):
                    err(rlineno, f"bad matrix entry {t!r}")
        maps[name] = Mat(fld, nrows, ncols, data)
    try:
        return PersModule(quiver, fld, full_dims, maps)
    except CommutativityError:
        raise
    except ValueError as e:
        raise ModuleFileError(1, str(e))


def parse_module_file(path, field=None):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ModuleFileError(line, f"not UTF-8 text: {e.reason}") from None
    return parse_module_text(text, field)


def serialize_module(module):
    """Canonical text form of a module (deterministic, round-trip stable)."""
    out = []
    f = module.field
    out.append("field Q" if f.kind == "Q" else f"field GF {f.p}")
    n = ladder_length(module.quiver)
    if n is not None:
        out.append(f"quiver ladder {n}")
    else:
        out.append("quiver explicit")
        for v in module.quiver.vertices:
            out.append(f"vertex {v}")
        for name, (src, tgt) in module.quiver.arrows.items():
            out.append(f"arrow {name} {src} {tgt}")
    for v in module.quiver.vertices:
        if module.dims[v]:
            out.append(f"dim {v} {module.dims[v]}")
    for name in module.quiver.arrows:
        m = module.maps.get(name)
        if m is None or m.is_zero() or m.nrows == 0 or m.ncols == 0:
            continue
        src, tgt = module.quiver.arrows[name]
        out.append(f"map {name}")
        for r in range(m.nrows):
            out.append(" ".join(str(x) for x in m.row(r)))
    return "\n".join(out) + "\n"


# ---- interval naming and dimension-vector rendering -------------------------------


def interval_name(interval):
    """Canonical name: ladder row segments, else the sorted vertex list."""
    if ladder_length(interval.quiver) is not None:
        top, bot = cl_describe(interval)
        parts = []
        if top:
            parts.append(f"top=[{top[0]},{top[1]}]")
        if bot:
            parts.append(f"bot=[{bot[0]},{bot[1]}]")
        return " ".join(parts)
    return "{" + ",".join(interval.vertices) + "}"


def parse_interval_spec(quiver, text):
    """Inverse of interval_name (ladder row form or vertex list)."""
    t = text.strip()
    if "top=" in t or "bot=" in t:
        n = ladder_length(quiver)
        if n is None:
            raise ValueError("row-segment interval names need a ladder quiver")
        seg = r"(top|bot)=\[(\d+),(\d+)\]"
        if re.sub(seg, "", t).strip(" ,"):
            raise ValueError(f"bad interval spec {text!r}")
        top = bot = None
        for which, lo, hi in re.findall(seg, t):
            pair = (int(lo), int(hi))
            if not 1 <= pair[0] <= pair[1] <= n:
                raise ValueError(
                    f"segment {which}=[{lo},{hi}] is out of range for a ladder "
                    f"of length {n} (need 1 <= lo <= hi <= {n})"
                )
            if which == "top":
                if top is not None:
                    raise ValueError("duplicate top segment")
                top = pair
            else:
                if bot is not None:
                    raise ValueError("duplicate bot segment")
                bot = pair
        return cl_interval(quiver, top=top, bot=bot)
    vs = [v for v in re.split(r"[\s,{}]+", t) if v]
    if not vs:
        raise ValueError("empty interval spec")
    return Interval(quiver, vs)


def render_ladder_vector(quiver, values):
    """Two-row display "(t1 .. tn / b1 .. bn)" of a vertex-indexed map."""
    n = ladder_length(quiver)
    if n is None:
        raise ValueError("two-row rendering needs a ladder quiver")
    tops = " ".join(str(values[f"t{i}"]) for i in range(1, n + 1))
    bots = " ".join(str(values[f"b{i}"]) for i in range(1, n + 1))
    return f"({tops} / {bots})"


def render_dim_vector(quiver, dims):
    """Deterministic dimension-vector text (two-row for ladders)."""
    if ladder_length(quiver) is not None:
        return render_ladder_vector(quiver, dims)
    return "(" + " ".join(f"{v}:{dims[v]}" for v in quiver.vertices) + ")"


def interval_dim_rendering(interval):
    """The interval's indicator dimension vector in display form."""
    dims = {v: (1 if v in interval.vertex_set else 0) for v in interval.quiver.vertices}
    return render_dim_vector(interval.quiver, dims)
