"""Run one skewpoly CLI job with the layer tracer installed.

Used in place of ``python -m skewpoly.cli`` by the traced cli-jobs pass:
same arguments, same stdout and exit code.  It times the bare
``import skewpoly.cli``, adds spans around ``_load_workspace`` and the verb
handler, counts the bytes ``_emit`` writes, and on exit writes its spans,
self times and counters as JSON to the path in ``SKEWBENCH_TRACE``.
"""

import io
import json
import os
import sys
from time import perf_counter

start = perf_counter()
import skewpoly.cli as cli  # noqa: E402

start_s = perf_counter() - start

from tracing import Tracer  # noqa: E402


def install(tracer):
    tracer.install()
    tracer.rebind(cli._load_workspace, tracer.span("cli.workspace", cli._load_workspace))
    for verb, handler in list(cli._VERBS.items()):
        cli._VERBS[verb] = tracer.span("cli.handler", handler)
    emit = cli._emit

    def counted_emit(obj, out):
        buf = io.StringIO()
        emit(obj, buf)
        text = buf.getvalue()
        tracer.counts["cli.emit_bytes"] += len(text.encode())
        out.write(text)

    tracer.rebind(emit, counted_emit)


def dump(tracer, path):
    report = {
        "start_s": start_s,
        "self": tracer.self_times(),
        "counts": dict(tracer.counts),
        "ring_calls": {f"{kind}:{label}": n
                       for (kind, label), n in tracer.ring_calls_by_label().items()},
        "memo_entries": tracer.memo_entries(),
        "spans": [s for s in tracer.spans if s is not None],
    }
    with open(path, "w") as fh:
        json.dump(report, fh)


def main():
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.run(sys.argv[1:])
    finally:
        dump(tracer, os.environ["SKEWBENCH_TRACE"])
    sys.exit(code)


if __name__ == "__main__":
    main()

