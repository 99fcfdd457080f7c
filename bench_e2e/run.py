#!/usr/bin/env python3
"""End-to-end benchmark of intres: both Betti routes on seeded ladder modules.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the program is imported from ./src).
The inputs are written from the seed by gen.py, with its own arithmetic;
every output is checked by oracles.py.  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics (the end-to-end ones
with --trace 0, the per-layer ones with --trace 1).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
from tracer import per_layer_spec, shape_histogram  # noqa: E402
from worker import schedule  # noqa: E402

# Each slot of a round is (k, total dimension): a hard module P_k (+) barcode,
# or a pure sum when k is None.  The barcode of a slot is drawn from a fixed
# catalogue seed (the slot's entry in "catalogue", by default its index), so
# every run does the same structural work; --seed draws the change of basis
# of every module and the order of the jobs.  Round r runs variant
# r % variants of every slot (VARIANTS by default), each variant with bases
# of its own, so that a run's figures average over several draws of --seed.
WORKLOADS = {
    "resolve-hard-q": {
        "kind": "resolve", "n": 4, "p": 0,
        "slots": [(1, 12), (2, 12), (2, 13)], "catalogue": [0, 1, 3], "variants": 8,
    },
    "koszul-cold-gf2": {
        "kind": "cli", "n": 5, "p": 2,
        "slots": [(1, 12), (3, 16)],
    },
    "tda-warm-q": {
        "kind": "tda", "n": 5, "p": 0,
        "slots": [(1, 11), (2, 12), (3, 10), (None, 10), (None, 12), (None, 11)],
    },
}
VARIANTS = 4
# setup_s is the median of set-ups, each in a fresh process: at least
# SETUP_REPEATS of them, and more until SETUP_MIN_S seconds went into them;
# but after the first, none once the set-ups still due and --seconds of jobs
# would take the run past SETUP_BUDGET_S, so that a slow program keeps the
# time for its jobs.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_BUDGET_S = 120.0
# A run is taken as hung, its child killed and no result printed, once it
# has gone on for HANG_FACTOR x (time to the end of its last finished child
# + --seconds), and at least DEADLINE_MIN_S.  A slow program thus still
# reports its figures; only a child that stops making progress is cut.
HANG_FACTOR = 4.0
DEADLINE_MIN_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # set iteration order, so traced counts repeat
    return env


class Runner:
    def __init__(self, work, seconds):
        self.work = work
        self.seconds = seconds
        self.t_start = time.monotonic()
        self.deadline = self.t_start + DEADLINE_MIN_S
        self.env = child_env()

    def elapsed(self):
        return time.monotonic() - self.t_start

    def child(self, cmd):
        """Run cmd to completion: (stdout text, exit code, wall s, peak RSS MB,
        the end of its stderr).  A child still running past the run's deadline
        is killed."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        with open(os.path.join(self.work, "child.err"), "w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=self.env
            )
            timer = threading.Timer(left, kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-2000:]
        if killed:
            raise BenchError(f"{' '.join(cmd[:4])} ran out of time")
        self.deadline = max(
            self.deadline, self.t_start + HANG_FACTOR * (self.elapsed() + self.seconds)
        )
        return out.decode(), proc.returncode, wall, usage.ru_maxrss / 1024.0, tail

    def worker(self, spec_path, mode):
        out_path = os.path.join(self.work, f"{mode}.out.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, mode, out_path]
        _, code, _, _, err = self.child(cmd)
        if code != 0:
            raise BenchError(f"worker {mode} exited with {code}:\n{err}")
        with open(out_path) as fh:
            return json.load(fh)


# ---- inputs -----------------------------------------------------------------------


def write_inputs(name, wl, seed, work):
    """Every job file of every variant, the rounds as lists of job indices,
    and the files of each P_k (and its dual, for the co-Betti reference)."""
    n, arith = wl["n"], gen.Arith(wl["p"])
    slots = wl["slots"]
    catalogue = wl.get("catalogue", range(len(slots)))
    barcodes = [
        gen.draw_barcode(gen.make_rng("catalogue", name, c), n, dim - (0 if k is None else 6))
        for c, (k, dim) in zip(catalogue, slots)
    ]
    jobs, rounds = [], []
    for v in range(wl.get("variants", VARIANTS)):
        order = list(range(len(slots)))
        gen.make_rng(name, seed, v, "order").shuffle(order)
        rounds.append(list(range(len(jobs), len(jobs) + len(order))))
        for slot in order:
            k = slots[slot][0]
            m = gen.build_module(arith, n, k, barcodes[slot], gen.make_rng(name, seed, v, slot))
            path = os.path.join(work, f"v{v}-slot{slot}.mod")
            with open(path, "w") as fh:
                fh.write(gen.serialize(arith, m, f"{name} seed {seed} variant {v} slot {slot}"))
            jobs.append({"file": path, "slot": slot, "k": k, "barcode": barcodes[slot],
                         "dims": m.dims})
    refs = []
    for k in sorted({k for k, _ in slots if k is not None}):
        p = gen.p_module(n, k)
        ref = {"k": k, "file": os.path.join(work, f"p{k}.mod"), "dual_file": None}
        with open(ref["file"], "w") as fh:
            fh.write(gen.serialize(arith, p, f"P_{k}"))
        if wl["kind"] == "resolve":
            ref["dual_file"] = os.path.join(work, f"p{k}-dual.mod")
            with open(ref["dual_file"], "w") as fh:
                fh.write(gen.serialize(arith, gen.dual_module(p), f"dual of P_{k}"))
        refs.append(ref)
    return jobs, rounds, refs


# ---- the CLI workload ---------------------------------------------------------------


def cli_setup(runner, n):
    """One `intres intervals` process: the fixed start-up cost of any CLI call."""
    cmd = [sys.executable, "-m", "intres.cli", "intervals", "--ladder", str(n), "--json"]
    out, code, wall, _, err = runner.child(cmd)
    errors = []
    if code != 0:
        errors.append(f"intervals exited with {code}: {err}")
    else:
        names = {row["name"] for row in json.loads(out)["intervals"]}
        if names != {gen.interval_name(iv) for iv in gen.ladder_intervals(n)}:
            errors.append("intervals: wrong interval list")
    return wall, errors


def cli_jobs(runner, spec):
    """The jobs as `intres.cli` processes, in the rounds of worker.schedule."""
    times, outputs, reports, probes = [], [], [], []  # probes: probe task times per job
    rss = 0.0
    t_start = time.perf_counter()
    for j in schedule(spec):
        args = ["betti", "--route", "koszul", "--json", "--file", spec["jobs"][j]["file"]]
        if spec["trace"]:
            report = os.path.join(runner.work, f"trace-job{j}.json")
            spans = os.path.join(runner.work, f"spans-job{j}.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), report, spans,
                   repr(time.monotonic()), "--", *args]
        else:
            cmd = [sys.executable, "-m", "intres.cli", *args]
        probes.append([])
        with calib.Probe(probes[-1]):
            out, code, wall, job_rss, err = runner.child(cmd)
        times.append(wall)
        rss = max(rss, job_rss)
        if code != 0:
            outputs.append({"job": j, "error": f"exit {code}: {err}", "out": None})
            continue
        outputs.append({"job": j, "error": None, "out": json.loads(out)})
        if spec["trace"]:
            with open(report) as fh:
                reports.append(json.load(fh))
    result = {"wall_s": time.perf_counter() - t_start, "times": times,
              "outputs": outputs, "rss_mb": rss, "probe_s": probes}
    if spec["trace"]:
        result["trace"] = merge_reports(reports)
    return result


def merge_reports(reports):
    """Sum the traced figures of the round's job processes."""
    metrics, shapes, failures, absent = Counter(), Counter(), Counter(), set()
    for r in reports:
        metrics.update(r["metrics"])
        shapes.update(r["shapes"])
        failures.update(r["hook_failures"])
        absent.update(r["absent"])
    return {"metrics": dict(metrics), "shapes": dict(shapes), "absent": sorted(absent),
            "hook_failures": dict(failures), "spans": sum(r["spans"] for r in reports)}


# ---- one run ----------------------------------------------------------------------


def run(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    work = os.path.join(HERE, "work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs, rounds, refs = write_inputs(name, wl, seed, work)
    kind, n = wl["kind"], wl["n"]
    spec = {
        "workload": name, "kind": kind, "n": n, "seconds": seconds, "trace": trace,
        "jobs": jobs, "rounds": rounds, "refs": refs,
        "spans_file": os.path.join(work, "spans.json"),
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)

    runner = Runner(work, seconds)
    errors, setups = [], []

    def more_setups(pending):
        """Whether to time one more set-up; `pending` are still to come."""
        done = len(setups) + pending
        if trace or (done >= SETUP_REPEATS and sum(setups) >= SETUP_MIN_S):
            return False
        if not setups:
            return True
        left = (pending + 1) * statistics.median(setups) + seconds
        return runner.elapsed() + left <= SETUP_BUDGET_S

    # Every process of the run runs on one CPU, the one calib.Probe measures.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if kind == "cli":
        ref_out = runner.worker(spec_path, "refs")["refs"]
        while more_setups(0):
            wall, errs = cli_setup(runner, n)
            setups.append(wall)
            errors += errs
        result = cli_jobs(runner, spec)
    else:
        while more_setups(1):  # the jobs process times one more
            setups.append(runner.worker(spec_path, "setup")["setup_s"])
        result = runner.worker(spec_path, "jobs")
        setups.append(result["setup_s"])
        ref_out = result["refs"]
    ref_tables, ref_errors = oracles.check_refs(n, ref_out)
    errors += ref_errors

    failed = 0
    ok_times, ok_scaled = [], []
    scales = calib.job_scales(result["probe_s"])
    for o, t, s in zip(result["outputs"], result["times"], scales):
        if o["error"] is not None:
            failed += 1
            print(f"job {o['job']} failed: {o['error']}", file=sys.stderr)
            continue
        ok_times.append(t)
        ok_scaled.append(t * s)
        case = jobs[o["job"]]
        errors += [f"job {o['job']} (slot {case['slot']}): {e}"
                   for e in oracles.check_job(kind, n, case, o["out"], ref_tables)]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    attempted = len(result["times"])
    info = {"workload": name, "seed": seed, "jobs": attempted,
            "rounds": attempted // len(rounds[0]), "wall_s": result["wall_s"],
            "times": [round(t, 4) for t in result["times"]]}
    if trace:
        t = result["trace"]
        metrics = {key: {"value": t["metrics"][key], "unit": unit}
                   for key, unit in per_layer_spec()}
        with open(os.path.join(work, "trace-report.json"), "w") as fh:
            json.dump(t, fh, indent=1, sort_keys=True)
        info.update(complete=not t["absent"] and not t["hook_failures"],
                    absent=t["absent"], hook_failures=t["hook_failures"],
                    spans=t["spans"], elim_shapes=shape_histogram(t["shapes"]))
    else:
        # Job times are scaled to the speed of the CPU while each job ran
        # (calib.py); set-up times are not.
        raw = {
            "jobs_per_s": len(ok_times) / sum(ok_times) if ok_times else 0.0,
            "job_p50_s": statistics.median(ok_times or result["times"]),
        }
        metrics = {
            "jobs_per_s": {"value": len(ok_scaled) / sum(ok_scaled) if ok_scaled else 0.0,
                           "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(ok_scaled or result["times"]),
                          "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
        }
        info.update(setups_s=setups, unscaled=raw, job_scales=[round(x, 4) for x in scales],
                    scale=sum(ok_scaled) / sum(ok_times) if ok_times else 1.0)
    print("info " + json.dumps(info, sort_keys=True))
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "intres", "__init__.py")):
        print(f"error: no intres sources under {ROOT}/src; run from a source tree",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
