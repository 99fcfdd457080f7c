"""Run `intres.cli` traced, in a child process of its own.

    python3 bench_e2e/traced_cli.py <report.json> <spans.json> <spawn time> -- <cli args>

<spawn time> is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is shared by all processes of the machine).  The
wrappers go in before `intres.cli.main` is called; cli.startup_s is the
time from the spawn to that call, less the time spent installing them.
The CLI's own stdout passes through unchanged.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    report_path, spans_path, spawn = argv[0], argv[1], float(argv[2])
    cli_args = argv[argv.index("--") + 1:]
    import json

    import intres.cli
    from tracer import Tracer

    tracer = Tracer()
    t_install = time.monotonic()
    tracer.install()
    install_s = time.monotonic() - t_install
    tracer.extra["cli.startup_s"] = time.monotonic() - spawn - install_s
    tracer.job = 0
    code = intres.cli.main(cli_args)
    sys.stdout.flush()
    tracer.uninstall()
    with open(report_path, "w") as fh:
        json.dump(tracer.report(), fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
