"""Launch ``repro serve`` for ``serve-mixed``, the same way in every run.

Usage: ``python3 perfbench/serve.py [--trace-out FILE] -- <repro serve args>``.

The launcher prints the MV-index size once the engine is built, then hands
over to the CLI's ``serve`` command.  With ``--trace-out`` it first installs
the layer wrappers, and when the server stops (SIGTERM) it writes the spans
to ``FILE``.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


#: ``prctl`` option: the signal this process gets when its parent exits.
PR_SET_PDEATHSIG = 1


def main(argv: list[str]) -> int:
    # A server must not outlive the benchmark that started it, even when the
    # benchmark is killed before it can stop the server itself.
    parent = os.getppid()
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent:
        return 1
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from repro import cli
    from repro.serving import server

    tracer = spans.Tracer() if trace_out is not None else None
    if tracer is not None:
        spans.install(tracer)

    original_init = server.ProbServer.__init__

    def announce(self, engine, *args, **kwargs):
        index = engine.mv_index
        print(
            "INDEX " + json.dumps(
                {"components": index.component_count(), "obdd_nodes": index.size}
            ),
            flush=True,
        )
        original_init(self, engine, *args, **kwargs)

    server.ProbServer.__init__ = announce
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
