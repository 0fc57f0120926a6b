"""Run one neumann-lab command in this fresh interpreter and record its cost.

    python3 child.py RESULT_JSON SPANS_JSON|- <neumann-lab arguments...>

Times ``neumann_rigidity.cli.main(argv)`` (wall and user+sys CPU of this
process, all threads included) and writes them with the library versions
to RESULT_JSON.  Unless SPANS_JSON is ``-``, the calls into each layer are
traced and the spans written there once the command has finished.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import tracing


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    result_path, spans_path, cli_argv = argv[0], argv[1], argv[2:]
    import numpy
    import scipy

    from neumann_rigidity import cli

    tracer = tracing.Tracer() if spans_path != "-" else None
    if tracer is not None:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    try:
        rc = cli.main(cli_argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.restore()
        with open(spans_path, "w") as fh:
            json.dump(tracing.dump_spans(tracer.spans), fh)
    with open(result_path, "w") as fh:
        json.dump({
            "rc": rc, "wall_s": wall, "cpu_s": cpu,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
