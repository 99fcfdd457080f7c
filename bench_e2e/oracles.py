"""Checks of every output against facts known apart from the program.

Nothing here imports intres.  Tables are dicts {(degree, interval): mult}
with intervals as (top, bot) pairs (see gen.py).  Each check returns a list
of error strings; an empty list means the output passed.

- Additivity: beta(P_k (+) sum V_I) = beta(P_k) + sum [(0, I)], for Betti
  and co-Betti tables, with beta(P_k) computed by both routes, which must
  agree (co-Betti numbers through the dual module, see gen.dual_module).
- Dimension identity: sum_i (-1)^i sum_{I containing x} beta^i(I) = dim M(x).
- Decomposability: False on hard modules; True on pure sums, with the
  certificate equal to the barcode drawn.
- Replacement: sum_{I containing x} delta(I) = dim M(x); delta is the
  barcode on pure sums and delta(P_k) + barcode on hard modules, and
  delta(P_k) is the Euler characteristic of the resolve route's table.
"""

from __future__ import annotations

from collections import Counter

import gen


def nonzero(values):
    return {key: v for key, v in values.items() if v}


def as_interval(n, vertices, errors):
    iv = gen.interval_from_vertices(vertices)
    if set(vertices) != gen.interval_vertices(iv) or iv not in set(gen.ladder_intervals(n)):
        errors.append(f"{sorted(vertices)} is not an interval of the length-{n} ladder")
    return iv


def table_from_rows(n, rows, errors):
    """[[degree, vertex list, mult], ...] -> table."""
    table = Counter()
    for degree, vertices, mult in rows:
        table[(degree, as_interval(n, vertices, errors))] += mult
    return nonzero(table)


def table_from_cli(payload, errors):
    """The `betti --json` payload -> table."""
    table = Counter()
    for row in payload["table"]:
        try:
            iv = gen.interval_from_name(row["interval"])
        except ValueError as e:
            errors.append(str(e))
            continue
        table[(row["degree"], iv)] += row["multiplicity"]
    return nonzero(table)


def vector_from_rows(n, rows, errors):
    """[[vertex list, value], ...] -> {interval: value}, zeros dropped."""
    out = Counter()
    for vertices, value in rows:
        out[as_interval(n, vertices, errors)] += value
    return nonzero(out)


def with_barcode(table, barcode):
    out = Counter(table)
    for iv in barcode:
        out[(0, iv)] += 1
    return nonzero(out)


def euler(table):
    out = Counter()
    for (degree, iv), mult in table.items():
        out[iv] += (-1) ** degree * mult
    return nonzero(out)


def dual_table(n, table):
    return {(d, gen.dual_interval(n, iv)): m for (d, iv), m in table.items()}


def compare(what, got, want):
    if got == want:
        return []
    keys = sorted(set(got) | set(want), key=repr)
    diff = [k for k in keys if got.get(k, 0) != want.get(k, 0)]
    first = ", ".join(f"{k}: got {got.get(k, 0)}, want {want.get(k, 0)}" for k in diff[:3])
    return [f"{what}: {len(diff)} entries differ ({first})"]


def dimension_identity(what, values, dims):
    """values: {interval: signed multiplicity}; dims: {vertex: dim}."""
    errors = []
    for x, d in dims.items():
        total = sum(v for iv, v in values.items() if x in gen.interval_vertices(iv))
        if total != d:
            errors.append(f"{what}: dimension identity fails at {x}: {total} != {d}")
    return errors


# ---- references: the tables of P_k -------------------------------------------------


def check_refs(n, refs):
    """Returns ({k: reference tables}, errors); checks whichever of the
    co-Betti table and the replacement vector the worker computed."""
    errors = []
    out = {}
    for k_text, r in refs.items():
        k = int(k_text)
        dims = gen.p_module(n, k).dims
        tag = f"P_{k}"
        betti = table_from_rows(n, r["betti_resolve"], errors)
        errors += compare(
            f"{tag}: resolve vs koszul route", betti,
            table_from_rows(n, r["betti_koszul"], errors),
        )
        errors += dimension_identity(f"{tag} Betti", euler(betti), dims)
        ref = {"betti": betti}
        if "cobetti_resolve" in r:
            cobetti = table_from_rows(n, r["cobetti_resolve"], errors)
            dual = dual_table(n, table_from_rows(n, r["dual_betti_koszul"], errors))
            errors += compare(f"{tag}: co-Betti vs Koszul route on the dual", cobetti, dual)
            errors += dimension_identity(f"{tag} co-Betti", euler(cobetti), dims)
            ref["cobetti"] = cobetti
        if "delta" in r:
            delta = vector_from_rows(n, r["delta"], errors)
            errors += compare(f"{tag}: replacement vs Euler characteristic", delta, euler(betti))
            errors += dimension_identity(f"{tag} replacement", delta, dims)
            if r["decomposable"]:
                errors.append(f"{tag}: reported interval-decomposable")
            ref["delta"] = delta
        out[k] = ref
    return out, errors


# ---- jobs -----------------------------------------------------------------------


def check_job(kind, n, case, out, refs):
    """case: the job's spec entry (k, barcode, dims); out: what the program gave."""
    errors = []
    k = case["k"]
    barcode = [tuple(tuple(s) if s else None for s in iv) for iv in case["barcode"]]
    dims = case["dims"]
    base = refs[k] if k is not None else {"betti": {}, "cobetti": {}, "delta": {}}

    if kind == "cli":
        betti = table_from_cli(out, errors)
    else:
        betti = table_from_rows(n, out["betti"], errors)
    errors += compare("Betti table", betti, with_barcode(base["betti"], barcode))
    errors += dimension_identity("Betti table", euler(betti), dims)

    if kind == "resolve":
        cobetti = table_from_rows(n, out["cobetti"], errors)
        errors += compare("co-Betti table", cobetti, with_barcode(base["cobetti"], barcode))
        errors += dimension_identity("co-Betti table", euler(cobetti), dims)

    if kind == "tda":
        if k is not None:
            if out["decomposable"] or out["certificate"] is not None:
                errors.append("hard module reported interval-decomposable")
        elif not out["decomposable"]:
            errors.append("pure sum reported not interval-decomposable")
        else:
            cert = vector_from_rows(n, out["certificate"], errors)
            errors += compare("certificate", cert, dict(Counter(barcode)))
        delta = vector_from_rows(n, out["delta"], errors)
        want = Counter(base["delta"])
        want.update(barcode)
        errors += compare("replacement", delta, nonzero(want))
        errors += dimension_identity("replacement", delta, dims)
    return errors
