"""Benchmark worker: one fresh interpreter that runs `usvt` CLI ops on request.

Run as `python worker.py <checkout>/src <trace 0|1> <spans file>`.  It puts
the checkout's `src` first on `sys.path`, imports `usvt.cli`, installs the
span tracer when asked to, and then speaks JSON lines:

    -> {"usvt_file": ...}                   once, after the import
    <- {"op": <id>, "argv": [...]}          one request per op
    -> {"rc": <exit code>, "t0": ..., "seconds": ...}

End of input ends the worker; a traced worker then writes its spans.  The
program's own stdout is sent to stderr so that it can never corrupt the
protocol.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main() -> int:
    src, trace, spans_path = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    sys.path.insert(0, src)
    protocol = sys.stdout
    sys.stdout = sys.stderr

    import usvt
    import usvt.cli

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def reply(obj) -> None:
        protocol.write(json.dumps(obj) + "\n")
        protocol.flush()

    reply({"usvt_file": usvt.__file__})
    for line in sys.stdin:
        request = json.loads(line)
        if tracer is not None:
            tracer.op = request["op"]
        t0 = time.perf_counter()
        try:
            rc = usvt.cli.main(request["argv"])
        except Exception:  # an op that crashes is a failed op, not a dead worker
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - t0
        reply({"rc": rc, "t0": t0, "seconds": seconds})
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
