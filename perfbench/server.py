"""The program's HTTP server in its own process, for the HTTP workloads.

Configured and run the way ``devicescope serve`` does it: telemetry on,
default micro-batching, ``serve_forever()`` without
``DeviceScopeServer.start()`` — so, as under the CLI, the continuous
profiler is built but never started. Two differences: the model bank is
paper scale, and the SLO objective is ``--objective-ms 1000``. At the
default 250 ms, a paper-scale sweep on two shared cores sometimes misses
the objective for more than 2 % of a window of requests; admission
control then sheds, and the closed-loop tenants receive 503s for most
of the run (README, "Deviations").

Prints ``READY <port>`` once it listens, serves until its standard
input closes, then prints one JSON line (the recorded spans when run
with ``--trace``) and exits.

    python3 perfbench/server.py [--trace]
"""

from __future__ import annotations

import json
import sys
import threading

import common

OBJECTIVE_MS = 1000.0


def main() -> int:
    common.use_program()
    trace = "--trace" in sys.argv[1:]
    from repro import obs

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_serve_spans(tracer)
    from repro.serve import ModelBank, build_server

    obs.enable()
    obs.slo_tracker.objective_ms = OBJECTIVE_MS
    bank = ModelBank(
        appliances=common.APPLIANCES,
        profile=common.PROFILE,
        seed=common.MODEL_SEED,
        kernel_sizes=common.KERNEL_SIZES,
        n_filters=common.N_FILTERS,
    )
    server = build_server(port=0, bank=bank, slo_objective_ms=OBJECTIVE_MS)
    serving = threading.Thread(target=server.serve_forever, name="devicescope-serve")
    serving.start()
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # EOF: the benchmark is done with us
    finally:
        server.close()  # stop accepting, drain handlers, release the bank
        serving.join()
    spans = [] if tracer is None else [
        [span_id, parent, name, start, end, rid, attrs]
        for span_id, parent, name, start, end, rid, attrs in tracer.spans
    ]
    print(json.dumps({"spans": spans}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
