"""Per-layer tracing of intres from outside the package.

`Tracer.install()` replaces each traced function or method with a wrapper,
at every name under which an intres module holds it (`resolve` does
`from intres.repmod import kernel`, so `intres.resolve.kernel` is wrapped
too).  A timed wrapper records one span per call: name, start, end, parent
span and job number, in flat arrays kept in memory until `write_spans`.
Hot small methods are only counted.  A traced name that no longer exists is
recorded in `absent` and its metrics read 0; the run goes on.

A layer's self time is the duration of its spans minus the part covered by
their child spans; "inclusive" sums the outermost spans of a set of names.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute, mode): "span" records a timed span, "count" only counts.
TARGETS = [
    ("intres.exactla", "Mat.rref", "span"),
    ("intres.exactla", "Mat.rank", "span"),
    ("intres.exactla", "Mat.kernel_basis", "span"),
    ("intres.exactla", "Mat.solve", "span"),
    ("intres.exactla", "Mat.solve_matrix", "span"),
    ("intres.exactla", "Mat.column_span_contains", "span"),
    ("intres.exactla", "rank", "span"),
    ("intres.exactla", "kernel_basis", "span"),
    ("intres.exactla", "solve", "span"),
    ("intres.exactla", "column_span_contains", "span"),
    ("intres.exactla", "Mat.__mul__", "span"),
    ("intres.exactla", "Mat.hstack", "span"),
    ("intres.exactla", "Mat.vstack", "span"),
    ("intres.exactla", "Mat.block", "span"),
    ("intres.poset", "enumerate_intervals", "span"),
    ("intres.poset", "containment_poset", "span"),
    ("intres.poset", "Poset.__init__", "span"),
    ("intres.repmod", "hom_basis", "span"),
    ("intres.repmod", "kernel", "span"),
    ("intres.repmod", "cokernel", "span"),
    ("intres.repmod", "mono_spanning_set", "span"),
    ("intres.repmod", "epi_spanning_set", "span"),
    ("intres.repmod", "mono_exists_interval", "span"),
    ("intres.repmod", "epi_exists_interval", "span"),
    ("intres.repmod", "PersModule.validate_commutativity", "span"),
    ("intres.repmod", "ModMorphism.validate_naturality", "span"),
    ("intres.repmod", "good_components", "count"),
    ("intres.approx", "minimize_right", "span"),
    ("intres.approx", "minimize_left", "span"),
    ("intres.approx", "compute_sint", "span"),
    ("intres.approx", "compute_fint", "span"),
    ("intres.resolve", "betti", "span"),
    ("intres.resolve", "cobetti", "span"),
    ("intres.resolve", "minimal_interval_resolution", "span"),
    ("intres.resolve", "minimal_interval_coresolution", "span"),
    ("intres.koszul", "koszul_coresolution", "span"),
    ("intres.koszul", "min_proj_resolution", "span"),
    ("intres.koszul", "projective_cover_step", "span"),
    ("intres.koszul", "koszul_complex", "span"),
    ("intres.koszul", "VecChain.homology_dims", "span"),
    ("intres.koszul", "EndCategory.hom_dim", "count"),
    ("intres.tda", "compressed_multiplicity", "span"),
    ("intres.tda", "is_interval_decomposable", "span"),
    ("intres.tda", "interval_replacement", "span"),
    ("intres.tda", "beta0", "span"),
    ("intres.tda", "replacement_at", "span"),
    ("intres.modfile", "parse_module_file", "span"),
    ("intres.modfile", "parse_module_text", "span"),
    ("intres.cli", "main", "span"),
]

ELIM = [
    "Mat.rref", "Mat.rank", "Mat.kernel_basis", "Mat.solve", "Mat.solve_matrix",
    "Mat.column_span_contains", "exactla.rank", "exactla.kernel_basis",
    "exactla.solve", "exactla.column_span_contains",
]

# Side-length classes of the elimination-shape histogram of a traced run.
SIDES = [(0, "0"), (1, "1"), (4, "2-4"), (8, "5-8"), (16, "9-16"), (32, "17-32"),
         (79, "33-79"), (None, "80+")]


def side_class(x):
    return next(label for top, label in SIDES if top is None or x <= top)


def shape_histogram(shapes):
    """{"Q 5-8x9-16": calls, ...} from exact {"Q 6x10": calls, ...}."""
    out = Counter()
    for key, k in shapes.items():
        fld, shape = key.split()
        rows, cols = (int(x) for x in shape.split("x"))
        out[f"{fld} {side_class(rows)}x{side_class(cols)}"] += k
    return dict(sorted(out.items()))


def span_name(module, attr):
    """Display name: methods keep their class, functions get the layer."""
    return attr if "." in attr else f"{module.rsplit('.', 1)[-1]}.{attr}"


def per_layer_spec():
    """(metric name, unit) of every per-layer metric, in report order."""
    return [
        ("exactla.elim_s", "s"), ("exactla.elim_calls", "count"),
        ("exactla.elim_cells", "count"), ("exactla.solve_calls", "count"),
        ("exactla.mul_s", "s"),
        ("poset.self_s", "s"),
        ("repmod.hom_basis_s", "s"), ("repmod.hom_basis_calls", "count"),
        ("repmod.kernel_cokernel_s", "s"), ("repmod.spanning_set_s", "s"),
        ("repmod.validate_s", "s"), ("repmod.good_components_calls", "count"),
        ("approx.minimize_s", "s"), ("approx.summands_tried", "count"),
        ("approx.summands_kept", "count"), ("approx.sint_fint_s", "s"),
        ("resolve.self_s", "s"), ("resolve.summands", "count"),
        ("koszul.coresolution_s", "s"), ("koszul.coresolutions_built", "count"),
        ("koszul.cover_step_s", "s"), ("koszul.cover_steps", "count"),
        ("koszul.hom_dim_calls", "count"), ("koszul.cochain_summands", "count"),
        ("koszul.complex_s", "s"), ("koszul.homology_s", "s"),
        ("tda.compressed_s", "s"), ("tda.self_s", "s"),
        ("modfile.parse_s", "s"),
        ("cli.startup_s", "s"), ("cli.self_s", "s"),
    ]


# ---- hooks that read work sizes off arguments and results ---------------------


def _rref_shape(tr, args, _result):
    m = args[0]
    fld = "Q" if m.field.kind == "Q" else "GF"
    tr.shapes[(fld, m.nrows, m.ncols)] += 1


def _minimize(tr, args, result):
    tr.sums["approx.summands_tried"] += len(args[0].summand_index)
    tr.sums["approx.summands_kept"] += len(result.summand_index)


def _resolution(tr, _args, result):
    tr.sums["resolve.summands"] += sum(len(t) for t in result.terms)


def _proj_resolution(tr, _args, result):
    tr.sums["koszul.cochain_summands"] += sum(len(s.tags) for s in result.steps)


# span name -> (hook before the call, hook after it)
HOOKS = {
    "Mat.rref": (_rref_shape, None),
    "approx.minimize_right": (None, _minimize),
    "approx.minimize_left": (None, _minimize),
    "resolve.minimal_interval_resolution": (None, _resolution),
    "resolve.minimal_interval_coresolution": (None, _resolution),
    "koszul.min_proj_resolution": (None, _proj_resolution),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._nid = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.stack = [-1]
        self.job = -1
        self.counts = Counter()  # name -> calls, for count-only targets
        self.sums = Counter()  # quantities read off arguments and results
        self.shapes = Counter()  # (field, rows, cols) -> rref calls
        self.absent = []
        self.hook_failures = Counter()
        self._undo = []
        self.extra = {}  # metrics measured outside the spans (cli.startup_s)

    # ---- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._nid:
            self._nid[name] = len(self.names)
            self.names.append(name)
        return self._nid[name]

    def _timed(self, name, fn, before=None, after=None):
        nid = self._id(name)
        name_of, start, end = self.name_of, self.start, self.end
        parent, job_of, stack = self.parent, self.job_of, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._hook(name, before, args, None)
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            job_of.append(tracer.job)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                tracer._hook(name, after, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _hook(self, name, hook, args, result):
        try:
            hook(self, args, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            # the traced function changed its signature or result type
            self.hook_failures[name] += 1

    # ---- installing the wrappers ---------------------------------------------

    def install(self):
        for module, attr, mode in TARGETS:
            name = span_name(module, attr)
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.absent.append(name)
                continue
            if "." in attr:
                self._install_method(mod, attr, name, mode)
            else:
                self._install_function(mod, attr, name, mode)

    def _make(self, name, mode, fn):
        if mode == "count":
            return self._counted(name, fn)
        before, after = HOOKS.get(name, (None, None))
        return self._timed(name, fn, before, after)

    def _install_function(self, mod, attr, name, mode):
        orig = getattr(mod, attr, None)
        if not callable(orig):
            self.absent.append(name)
            return
        wrapper = self._make(name, mode, orig)
        for mname, other in list(sys.modules.items()):
            if other is None or not (mname == "intres" or mname.startswith("intres.")):
                continue
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapper)
                    self._undo.append((other, key, orig))

    def _install_method(self, mod, attr, name, mode):
        clsname, meth = attr.split(".")
        cls = getattr(mod, clsname, None)
        raw = vars(cls).get(meth) if isinstance(cls, type) else None
        if raw is None:
            self.absent.append(name)
            return
        if isinstance(raw, classmethod):
            new = classmethod(self._make(name, mode, raw.__func__))
        else:
            new = self._make(name, mode, raw)
        setattr(cls, meth, new)
        self._undo.append((cls, meth, raw))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # ---- reading the spans back ------------------------------------------------

    def _by_name(self):
        out = {}
        for i, nid in enumerate(self.name_of):
            out.setdefault(self.names[nid], []).append(i)
        return out

    def report(self):
        """Every per-layer metric, plus the shape histogram and what is absent."""
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        by_name = self._by_name()
        name_of, names, parent = self.name_of, self.names, self.parent

        def self_s(*span_names):
            return sum(dur[i] - covered[i] for s in span_names for i in by_name.get(s, ()))

        def inclusive(*span_names):
            wanted = {self._nid[s] for s in span_names if s in self._nid}
            total = 0.0
            for s in span_names:
                for i in by_name.get(s, ()):
                    p = parent[i]
                    while p >= 0 and name_of[p] not in wanted:
                        p = parent[p]
                    if p < 0:
                        total += dur[i]
            return total

        def calls(*span_names):
            return sum(len(by_name.get(s, ())) for s in span_names)

        def nearest(i, target):
            p = parent[i]
            while p >= 0 and names[name_of[p]] != target:
                p = parent[p]
            return p

        built = [i for i in by_name.get("koszul.min_proj_resolution", ())]
        coresolution_s = 0.0
        for i in built:
            p = parent[i]
            if p >= 0 and names[name_of[p]] == "koszul.koszul_coresolution":
                coresolution_s += dur[p]
        complex_s = inclusive("koszul.koszul_complex")
        for i in by_name.get("koszul.koszul_coresolution", ()):
            if nearest(i, "koszul.koszul_complex") >= 0:
                complex_s -= dur[i]

        m = {
            "exactla.elim_s": self_s(*ELIM),
            "exactla.elim_calls": calls("Mat.rref"),
            "exactla.elim_cells": sum(r * c * k for (_, r, c), k in self.shapes.items()),
            "exactla.solve_calls": calls(
                "Mat.solve", "Mat.solve_matrix", "Mat.column_span_contains"
            ),
            "exactla.mul_s": self_s("Mat.__mul__", "Mat.hstack", "Mat.vstack", "Mat.block"),
            "poset.self_s": self_s(
                "poset.enumerate_intervals", "poset.containment_poset", "Poset.__init__"
            ),
            "repmod.hom_basis_s": inclusive("repmod.hom_basis"),
            "repmod.hom_basis_calls": calls("repmod.hom_basis"),
            "repmod.kernel_cokernel_s": inclusive("repmod.kernel", "repmod.cokernel"),
            "repmod.spanning_set_s": inclusive(
                "repmod.mono_spanning_set", "repmod.epi_spanning_set",
                "repmod.mono_exists_interval", "repmod.epi_exists_interval",
            ),
            "repmod.validate_s": inclusive(
                "PersModule.validate_commutativity", "ModMorphism.validate_naturality"
            ),
            "repmod.good_components_calls": self.counts["repmod.good_components"],
            "approx.minimize_s": inclusive("approx.minimize_right", "approx.minimize_left"),
            "approx.summands_tried": self.sums["approx.summands_tried"],
            "approx.summands_kept": self.sums["approx.summands_kept"],
            "approx.sint_fint_s": inclusive("approx.compute_sint", "approx.compute_fint"),
            "resolve.self_s": self_s(
                "resolve.betti", "resolve.cobetti",
                "resolve.minimal_interval_resolution",
                "resolve.minimal_interval_coresolution",
            ),
            "resolve.summands": self.sums["resolve.summands"],
            "koszul.coresolution_s": coresolution_s,
            "koszul.coresolutions_built": len(built),
            "koszul.cover_step_s": inclusive("koszul.projective_cover_step"),
            "koszul.cover_steps": calls("koszul.projective_cover_step"),
            "koszul.hom_dim_calls": self.counts["EndCategory.hom_dim"],
            "koszul.cochain_summands": self.sums["koszul.cochain_summands"],
            "koszul.complex_s": complex_s,
            "koszul.homology_s": inclusive("VecChain.homology_dims"),
            "tda.compressed_s": inclusive("tda.compressed_multiplicity"),
            "tda.self_s": self_s(
                "tda.is_interval_decomposable", "tda.interval_replacement",
                "tda.beta0", "tda.replacement_at",
            ),
            "modfile.parse_s": inclusive("modfile.parse_module_file", "modfile.parse_module_text"),
            "cli.startup_s": self.extra.get("cli.startup_s", 0.0),
            "cli.self_s": self_s("cli.main"),
        }
        return {
            "metrics": m,
            "shapes": {f"{f} {r}x{c}": k for (f, r, c), k in sorted(self.shapes.items())},
            "absent": sorted(set(self.absent)),
            "hook_failures": dict(self.hook_failures),
            "spans": n,
        }

    def write_spans(self, path):
        """Spans as JSON: the name table and one [name, start, end, parent, job]
        row per span, in call order."""
        with open(path, "w") as fh:
            fh.write('{"names": %s, "spans": [\n' % json.dumps(self.names))
            n = len(self.name_of)
            for i in range(n):
                fh.write(
                    "[%d,%.9f,%.9f,%d,%d]%s\n" % (
                        self.name_of[i], self.start[i], self.end[i],
                        self.parent[i], self.job_of[i], "," if i + 1 < n else "",
                    )
                )
            fh.write("]}\n")
