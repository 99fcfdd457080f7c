"""Import layering of the `intres` package, read off the source with `ast`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "intres"

# The two Betti routes stay independent, so that their agreement is a check:
# module -> intres modules it must not import from.  `tda` reads delta off the
# hom table, not off the Koszul route, so that the Koszul table it is compared
# with (`test_tda::test_replacement_is_the_alternating_sum_of_koszul_homology`)
# shares nothing with it.
FORBIDDEN = {
    "approx": {"koszul", "tda"},
    "resolve": {"koszul", "tda"},
    "koszul": {"approx"},
    "tda": {"koszul"},
}


def imports(module):
    """(intres module, imported name or None) for every import of `module`,
    function-level ones included."""
    out = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = ("intres." if node.level else "") + (node.module or "")
            pairs = [(source, alias.name) for alias in node.names]
            if source.rstrip(".") == "intres":  # from intres import koszul
                pairs = [(f"intres.{alias.name}", None) for alias in node.names]
        else:
            continue
        out.extend(
            (source.split(".")[1], name)
            for source, name in pairs
            if source.startswith("intres.")
        )
    return out


def modules():
    return sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def test_no_private_names_cross_modules():
    private = [
        f"{m} imports {name} from {target}"
        for m in modules()
        for target, name in imports(m)
        if name is not None and name.startswith("_") and target != m
    ]
    assert private == []


def test_routes_stay_independent():
    assert set(FORBIDDEN) <= set(modules())
    crossings = [
        f"{m} imports from {target}"
        for m, banned in FORBIDDEN.items()
        for target, _ in imports(m)
        if target in banned
    ]
    assert crossings == []


def test_poset_imports_no_other_intres_module():
    """`poset` is the combinatorial base: the quiver holds its interval
    families for `repmod`, and knows nothing of them."""
    assert imports("poset") == []
