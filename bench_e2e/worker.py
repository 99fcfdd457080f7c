"""Library side of the benchmark: runs inside one child process per phase.

    python3 bench_e2e/worker.py <spec.json> <setup|refs|jobs> <out.json>

`setup` times the workload's set-up (import of intres, parsing of every job
file and, for the warm Koszul workload, the interval category with every
coresolution); `refs` computes the reference tables of each summand P_k by
both Betti routes; `jobs` does the set-up, runs the jobs in whole rounds, as
many as come nearest to the run's seconds (one round when traced), records its
peak memory, and then, untimed, computes the references in the same process.
Outputs are written as plain data for the checks in `oracles.py`, which never
import intres.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import calib  # noqa: E402


def vertices(interval):
    return sorted(interval.vertex_set)


def table_rows(table):
    return sorted([d, vertices(iv), mult] for (d, iv), mult in table.entries.items())


def import_intres():
    sys.path.insert(0, SRC)
    import intres

    if not os.path.abspath(intres.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"intres was imported from {intres.__file__}, not from {SRC}")
    return intres


def setup(spec, tracer=None):
    intres = import_intres()
    if tracer is not None:
        tracer.install()
    modules = [intres.parse_module_file(job["file"]) for job in spec["jobs"]]
    cat = None
    if spec["kind"] == "tda":
        quiver, field = modules[0].quiver, modules[0].field
        cat = intres.build_end_category(quiver, None, field)
        for interval in cat.objects:
            intres.koszul_coresolution(quiver, interval, field, cat=cat)
    return intres, modules, cat


def run_job(intres, kind, module, cat):
    if kind == "resolve":
        return intres.betti(module), intres.cobetti(module)
    decomposition = intres.is_interval_decomposable(module, cat=cat)
    replacement = intres.interval_replacement(module, cat=cat)
    table = intres.betti_table_via_koszul(module, cat=cat)
    return decomposition, replacement, table


def job_output(kind, raw):
    if kind == "resolve":
        betti, cobetti = raw
        return {"betti": table_rows(betti), "cobetti": table_rows(cobetti)}
    decomposition, replacement, table = raw
    cert = decomposition.certificate
    return {
        "decomposable": bool(decomposition),
        "certificate": None if cert is None else sorted(
            [vertices(iv), m] for iv, m in cert.items()
        ),
        "delta": sorted([vertices(iv), d] for iv, d in replacement.delta.items() if d),
        "betti": table_rows(table),
    }


def references(intres, spec, cat):
    """Reference tables of each P_k, by both routes, for the oracles."""
    out = {}
    for ref in spec["refs"]:
        p = intres.parse_module_file(ref["file"])
        r = {
            "betti_resolve": table_rows(intres.betti(p)),
            "betti_koszul": table_rows(intres.betti_table_via_koszul(p, cat=cat)),
        }
        if spec["kind"] == "resolve":
            r["cobetti_resolve"] = table_rows(intres.cobetti(p))
            dual = intres.parse_module_file(ref["dual_file"])
            r["dual_betti_koszul"] = table_rows(intres.betti_table_via_koszul(dual))
        if spec["kind"] == "tda":
            delta = intres.interval_replacement(p, cat=cat).delta
            r["delta"] = sorted([vertices(iv), d] for iv, d in delta.items() if d)
            r["decomposable"] = bool(intres.is_interval_decomposable(p, cat=cat))
        out[str(ref["k"])] = r
    return out


def schedule(spec):
    """Job indices to run, in whole rounds: round r runs
    spec["rounds"][r % len(rounds)].  A traced run does one round; otherwise
    the run does the number of rounds whose time comes nearest to
    spec["seconds"], stopping after a round once the time spent plus half a
    round reaches it."""
    rounds = spec["rounds"]
    r = 0
    t_start = time.perf_counter()
    while True:
        yield from rounds[r % len(rounds)]
        r += 1
        elapsed = time.perf_counter() - t_start
        if spec["trace"] or elapsed + elapsed / r / 2 >= spec["seconds"]:
            return


def run_jobs(intres, spec, modules, cat, tracer):
    kind = spec["kind"]
    done, times, raws, errors, probes = [], [], [], [], []  # probes: per job, calib.Probe's
    t_start = time.perf_counter()
    for j in schedule(spec):
        if tracer is not None:
            tracer.job = len(times)
        probes.append([])
        with calib.Probe(probes[-1]):
            t0 = time.perf_counter()
            try:
                raw, err = run_job(intres, kind, modules[j], cat), None
            except Exception as e:  # a failed job is counted; the run goes on
                raw, err = None, f"{type(e).__name__}: {e}"
            times.append(time.perf_counter() - t0)
        done.append(j)
        raws.append(raw)
        errors.append(err)
    wall = time.perf_counter() - t_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    outputs = [
        {"job": j, "error": err, "out": None if raw is None else job_output(kind, raw)}
        for j, raw, err in zip(done, raws, errors)
    ]
    return {"wall_s": wall, "times": times, "outputs": outputs, "rss_mb": rss_mb,
            "probe_s": probes}


def main(argv):
    spec_path, mode, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if mode == "jobs" and spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    if mode == "refs":
        intres = import_intres()
        result = {"refs": references(intres, spec, None)}
    else:
        intres, modules, cat = setup(spec, tracer)
        result = {"setup_s": time.perf_counter() - T0}
    if mode == "jobs":
        result.update(run_jobs(intres, spec, modules, cat, tracer))
        if tracer is not None:
            result["trace"] = tracer.report()
            tracer.write_spans(spec["spans_file"])
        result["refs"] = references(intres, spec, cat)
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
