"""Command-line interface.

Subcommands: intervals, betti, koszul, decomposable, replace.
Exit codes: 0 success (also when the reader of stdout goes away, as in
`| head`, which ends a command quietly), 1 usage or parse error, 2
validation error (input module fails commutativity or shape checks), 3
internal cross-check failure (independent routes disagreed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from intres import modfile
from intres.koszul import (
    betti_table_via_koszul,
    koszul_complex,
    koszul_coresolution,
    validate_koszul_coresolution,
)
from intres.modfile import ModuleFileError, interval_name, parse_interval_spec
from intres.poset import commutative_ladder, enumerate_intervals
from intres.repmod import CommutativityError
from intres.resolve import MaxLengthExceeded, betti
from intres.tda import RouteMismatchError, interval_replacement, is_interval_decomposable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting with status 2."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    p = _Parser(prog="intres", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--file", help="module file to read")
        sp.add_argument(
            "--field",
            help="override the field (Q or GF<p>)",
            default=None,
        )
        sp.add_argument("--json", action="store_true", help="JSON output")

    sp = sub.add_parser("intervals", help="list the intervals of a quiver")
    sp.add_argument("--ladder", type=int, help="commutative ladder length")
    add_common(sp)

    sp = sub.add_parser("betti", help="Betti table of a module")
    add_common(sp)
    sp.add_argument("--interval", help="report only this interval's numbers")
    sp.add_argument(
        "--route",
        choices=["resolve", "koszul", "both"],
        default="resolve",
    )
    sp.add_argument("--max-len", type=int, default=None)

    sp = sub.add_parser("koszul", help="Koszul coresolution of an interval")
    sp.add_argument("--ladder", type=int, help="commutative ladder length")
    add_common(sp)
    sp.add_argument("--interval", required=True)
    sp.add_argument(
        "--check", action="store_true", help="run the independent validator"
    )
    sp.add_argument("--max-len", type=int, default=None)

    sp = sub.add_parser(
        "decomposable", help="test interval-decomposability of a module"
    )
    add_common(sp)

    sp = sub.add_parser("replace", help="interval-replacement vector")
    add_common(sp)
    return p


def _field_from_args(args):
    if not getattr(args, "field", None):
        return None
    try:
        return modfile.parse_field_token(args.field)
    except ValueError as e:
        raise UsageError(str(e))


def _load_module(args):
    if not getattr(args, "file", None):
        raise UsageError("a module --file is required")
    return modfile.parse_module_file(args.file, _field_from_args(args))


def _quiver_from_args(args):
    if getattr(args, "ladder", None) is not None:
        if args.file is not None:
            raise UsageError("give either --ladder or --file, not both")
        try:
            return commutative_ladder(args.ladder), None
        except ValueError as e:
            raise UsageError(str(e))
    module = _load_module(args)
    return module.quiver, module


def _max_len(args):
    if args.max_len is not None and args.max_len < 0:
        raise UsageError(f"--max-len must be at least 0, got {args.max_len}")
    return args.max_len


def _parse_interval(quiver, text):
    try:
        return parse_interval_spec(quiver, text)
    except ValueError as e:
        raise UsageError(str(e))


def _emit(args, text_lines, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)
    return EXIT_OK


def _sorted_intervals(intervals):
    return sorted(intervals, key=lambda i: (len(i), i.vertices))


def cmd_intervals(args):
    quiver, _ = _quiver_from_args(args)
    intervals = _sorted_intervals(enumerate_intervals(quiver))
    lines = []
    payload = {"count": len(intervals), "intervals": []}
    for i in intervals:
        name = interval_name(i)
        dimtext = modfile.interval_dim_rendering(i)
        lines.append(f"{name}  {dimtext}")
        payload["intervals"].append({"name": name, "dims": dimtext})
    return _emit(args, lines, payload)


def _betti_rows(table):
    rows = [
        {"degree": degree, "interval": interval_name(interval), "multiplicity": mult}
        for (degree, interval), mult in table.entries.items()
    ]
    rows.sort(key=lambda r: (r["degree"], r["interval"]))
    return rows


def _first_mismatch(resolve_table, koszul_table):
    """Name the first differing (degree, interval) entry, in the sort order
    of the printed table, with both routes' values."""
    keys = set(resolve_table.entries) | set(koszul_table.entries)
    for key in sorted(keys, key=lambda k: (k[0], interval_name(k[1]))):
        if resolve_table[key] != koszul_table[key]:
            return (
                "resolve-route and koszul-route Betti tables disagree, first at "
                f"beta^{key[0]} {interval_name(key[1])}: "
                f"resolve x{resolve_table[key]}, koszul x{koszul_table[key]}"
            )


def cmd_betti(args):
    max_len = _max_len(args)
    module = _load_module(args)
    want = None
    if args.interval:
        want = _parse_interval(module.quiver, args.interval)
    tables = {}
    if args.route in ("resolve", "both"):
        tables["resolve"] = betti(module, max_len=max_len)
    if args.route in ("koszul", "both"):
        tables["koszul"] = betti_table_via_koszul(module, max_len=max_len)
    if args.route == "both" and tables["resolve"] != tables["koszul"]:
        raise RouteMismatchError(_first_mismatch(tables["resolve"], tables["koszul"]))
    table = tables.get("resolve") or tables["koszul"]
    if want is not None:
        top = table.max_degree()
        seq = [table[(i, want)] for i in range(max(top + 1, 1))]
        lines = [
            f"interval {interval_name(want)}",
            "beta " + " ".join(str(x) for x in seq),
        ]
        payload = {
            "route": args.route,
            "interval": interval_name(want),
            "beta": seq,
        }
        return _emit(args, lines, payload)
    rows = _betti_rows(table)
    lines = [f"route {args.route}"] + [
        f"beta^{r['degree']}  {r['interval']}  x{r['multiplicity']}" for r in rows
    ]
    payload = {"route": args.route, "table": rows}
    return _emit(args, lines, payload)


def cmd_koszul(args):
    max_len = _max_len(args)
    quiver, module = _quiver_from_args(args)
    interval = _parse_interval(quiver, args.interval)
    field = module.field if module is not None else _field_from_args(args)
    cochain = koszul_coresolution(quiver, interval, field, max_len=max_len)
    lines = [f"interval {interval_name(interval)}"]
    degrees = []
    for i, tags in enumerate(cochain.terms):
        names = sorted(interval_name(t) for t in tags)
        degrees.append(names)
        lines.append(f"degree {i}: " + ("; ".join(names) if names else "(zero)"))
    payload = {"interval": interval_name(interval), "degrees": degrees}
    if args.check:
        ok = validate_koszul_coresolution(cochain, interval)
        lines.append(f"validator {'pass' if ok else 'FAIL'}")
        payload["validator"] = bool(ok)
        if not ok:
            raise RouteMismatchError("koszul coresolution failed validation")
    if module is not None:
        chain = koszul_complex(module, interval, max_len=max_len)
        hom = chain.homology_dims()
        lines.append("complex dims " + " ".join(str(d) for d in chain.dims))
        lines.append("homology " + " ".join(str(h) for h in hom))
        payload["complex_dims"] = chain.dims
        payload["homology"] = hom
    return _emit(args, lines, payload)


def cmd_decomposable(args):
    module = _load_module(args)
    result = is_interval_decomposable(module)
    if result.decomposable:
        cert = sorted(
            ((interval_name(i), m) for i, m in result.certificate.items()),
        )
        lines = ["interval-decomposable"]
        lines += [f"{name} x{m}" for name, m in cert]
        payload = {
            "decomposable": True,
            "certificate": [{"interval": n, "multiplicity": m} for n, m in cert],
        }
    else:
        lines = ["not interval-decomposable"]
        payload = {"decomposable": False, "certificate": None}
    return _emit(args, lines, payload)


def cmd_replace(args):
    vec = interval_replacement(_load_module(args))
    items = sorted((interval_name(i), d) for i, d in vec.delta.items() if d != 0)
    lines = [f"delta {name} = {d}" for name, d in items]
    if not lines:
        lines = ["delta identically zero"]
    payload = {
        "delta": [{"interval": n, "value": d} for n, d in items],
        "compressed": sorted(
            (
                {"interval": interval_name(i), "value": c}
                for i, c in vec.compressed.items()
                if c
            ),
            key=lambda r: r["interval"],
        ),
    }
    return _emit(args, lines, payload)


_COMMANDS = {
    "intervals": cmd_intervals,
    "betti": cmd_betti,
    "koszul": cmd_koszul,
    "decomposable": cmd_decomposable,
    "replace": cmd_replace,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout shows here, not at shutdown
        return code
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader of stdout has gone (`| head`): stop quietly, with what
        # is left unwritten going to devnull, so the flush at shutdown
        # cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ModuleFileError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (RouteMismatchError, AssertionError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CommutativityError, ValueError, MaxLengthExceeded) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
