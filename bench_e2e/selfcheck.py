#!/usr/bin/env python3
"""Self-check of the benchmark; takes about 15 s.

    python3 bench_e2e/selfcheck.py

Checks that the generated files load through intres.parse_module_file
(commutativity check included), that both fixtures are the summand P_k the
generator builds and pass every oracle, and that the oracles and the tracer
reject what they must: a Betti table with one entry changed, a flipped
decomposability verdict, a replacement vector with one entry moved, and a
traced run with one wrapped name deleted.  Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import intres  # noqa: E402
import intres.cli  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import job_output, references  # noqa: E402

FIXTURES = os.path.join(ROOT, "tests", "fixtures")


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def check_generated_files():
    """Every file a run writes (seed 1) loads through parse_module_file, with
    its commutativity check, and has the dimensions that were drawn."""
    for name, wl in run.WORKLOADS.items():
        work = os.path.join(HERE, "work", "selfcheck", name)
        os.makedirs(work, exist_ok=True)
        jobs, _, refs = run.write_inputs(name, wl, 1, work)
        bad = [job["file"] for job in jobs
               if intres.parse_module_file(job["file"]).dims != job["dims"]]
        dims = sorted({sum(job["dims"].values()) for job in jobs})
        expect(not bad, f"{name}: {len(jobs)} job files parse, total dimensions {dims}")
        for ref in refs:
            p = gen.p_module(wl["n"], ref["k"])
            ok = intres.parse_module_file(ref["file"]).dims == p.dims
            if ref["dual_file"]:
                dual = intres.parse_module_file(ref["dual_file"])
                ok = ok and dual.dims == gen.dual_module(p).dims
            expect(ok, f"{name}: the files of P_{ref['k']} (and its dual) parse")


def fixture_refs(path, n, k):
    """The reference tables of a fixture, made by worker.references."""
    fixture = intres.parse_module_file(path)
    arith = gen.Arith(0)
    p = gen.p_module(n, k)
    expect(fixture == intres.parse_module_text(gen.serialize(arith, p)),
           f"{os.path.basename(path)} is P_{k} on the length-{n} ladder")
    work = os.path.join(HERE, "work", "selfcheck")
    os.makedirs(work, exist_ok=True)
    dual_file = os.path.join(work, f"{os.path.basename(path)}-dual.mod")
    with open(dual_file, "w") as fh:
        fh.write(gen.serialize(arith, gen.dual_module(p)))
    ref = {"k": k, "file": path, "dual_file": dual_file}
    resolve = references(intres, {"kind": "resolve", "refs": [ref]}, None)
    tda = references(intres, {"kind": "tda", "refs": [ref]}, None)
    return {str(k): {**resolve[str(k)], **tda[str(k)]}}


def job_outputs(n, k, barcode, seed):
    """A hard module built around the fixture, and its outputs as a worker
    and as the CLI would report them, for every job kind."""
    arith = gen.Arith(0)
    m = gen.build_module(arith, n, k, barcode, gen.make_rng("selfcheck", seed))
    text = gen.serialize(arith, m)
    module = intres.parse_module_text(text)
    case = {"k": k, "barcode": barcode, "dims": m.dims}
    resolve = job_output("resolve", (intres.betti(module), intres.cobetti(module)))
    tda = job_output("tda", (
        intres.is_interval_decomposable(module),
        intres.interval_replacement(module),
        intres.betti_table_via_koszul(module),
    ))
    work = os.path.join(HERE, "work", "selfcheck")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, f"{seed}.mod")
    with open(path, "w") as fh:
        fh.write(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = intres.cli.main(["betti", "--route", "koszul", "--json", "--file", path])
    expect(code == 0, f"{seed} (+) barcode: the CLI exits 0")
    return case, resolve, tda, json.loads(out.getvalue())


def check_fixtures():
    cases = [("cl3_m45.mod", 3, 1, [((2, 3), (3, 3)), (None, (1, 2))]),
             ("cl5_m.mod", 5, 3, [((1, 2), None)])]
    for fname, n, k, barcode in cases:
        raw = fixture_refs(os.path.join(FIXTURES, fname), n, k)
        refs, errors = oracles.check_refs(n, raw)
        expect(not errors, f"{fname}: both routes agree, and every reference oracle holds")
        case, resolve, tda, cli = job_outputs(n, k, barcode, fname)
        expect(not oracles.check_job("resolve", n, case, resolve, refs),
               f"{fname} (+) barcode: resolve job oracles")
        expect(not oracles.check_job("cli", n, case, cli, refs),
               f"{fname} (+) barcode: CLI job oracles")
        expect(not oracles.check_job("tda", n, case, tda, refs),
               f"{fname} (+) barcode: tda job oracles")
        pure = dict(case, k=None)
        arith = gen.Arith(0)
        m = gen.build_module(arith, n, None, barcode, gen.make_rng("selfcheck-pure", fname))
        module = intres.parse_module_text(gen.serialize(arith, m))
        pure_out = job_output("tda", (
            intres.is_interval_decomposable(module),
            intres.interval_replacement(module),
            intres.betti_table_via_koszul(module),
        ))
        pure["dims"] = m.dims
        expect(not oracles.check_job("tda", n, pure, pure_out, refs),
               f"{fname}: pure sum passes the tda job oracles")
        check_rejections(n, case, resolve, tda, cli, pure, pure_out, refs)


def check_rejections(n, case, resolve, tda, cli, pure, pure_out, refs):
    bad = copy.deepcopy(resolve)
    bad["betti"][0][2] += 1
    expect(oracles.check_job("resolve", n, case, bad, refs),
           "a Betti table with one entry changed is rejected")
    bad = copy.deepcopy(cli)
    bad["table"][-1]["multiplicity"] += 1
    expect(oracles.check_job("cli", n, case, bad, refs),
           "a CLI Betti table with one entry changed is rejected")
    bad = copy.deepcopy(resolve)
    bad["cobetti"][-1][2] += 1
    expect(oracles.check_job("resolve", n, case, bad, refs),
           "a co-Betti table with one entry changed is rejected")
    bad = copy.deepcopy(tda)
    bad["decomposable"] = True
    expect(oracles.check_job("tda", n, case, bad, refs),
           "a flipped verdict on a hard module is rejected")
    bad = copy.deepcopy(pure_out)
    bad["decomposable"] = False
    bad["certificate"] = None
    expect(oracles.check_job("tda", n, pure, bad, refs),
           "a flipped verdict on a pure sum is rejected")
    bad = copy.deepcopy(tda)
    donor = bad["delta"][0]
    others = [gen.interval_vertices(iv) for iv in gen.ladder_intervals(n)]
    target = next(sorted(vs) for vs in others
                  if sorted(vs) not in [v for v, _ in bad["delta"]])
    bad["delta"].append([target, 1])
    donor[1] -= 1
    expect(oracles.check_job("tda", n, case, bad, refs),
           "a replacement vector with one entry moved is rejected")


def check_trace():
    """A traced job flags a wrapped name that is gone, and still completes."""
    m = intres.parse_module_file(os.path.join(FIXTURES, "cl3_m45.mod"))
    tracer = Tracer()
    tracer.install()
    intres.betti(m)
    tracer.uninstall()
    report = tracer.report()
    expect(not report["absent"] and report["metrics"]["exactla.elim_calls"] > 0,
           "a traced run of the full program has nothing absent")
    saved = intres.exactla.column_span_contains
    del intres.exactla.column_span_contains
    try:
        tracer = Tracer()
        tracer.install()
        table = intres.betti(m)
        tracer.uninstall()
    finally:
        intres.exactla.column_span_contains = saved
    report = tracer.report()
    expect(report["absent"] == ["exactla.column_span_contains"]
           and report["metrics"]["exactla.elim_calls"] > 0 and table.entries,
           "a traced run with one wrapped name deleted completes and flags it")


def main():
    check_generated_files()
    check_fixtures()
    check_trace()
    print("self-check passed")


if __name__ == "__main__":
    main()
