"""One round of a workload in a fresh interpreter, as a CLI invocation runs.

    python3 shiftbench/round.py WORKLOAD SEED MODE ROUND_ID

MODE is ``setup`` (import and build the inputs, then exit), ``plain``
(one untraced round) or ``trace`` (one round with spans and memory
peaks, see ``tracing.py``).
The parent ``run.py`` times the round from outside: this process prints
``@@ready`` and the round's operations once the inputs are built and
``@@done`` when the workload call returns, then checks the outputs and
prints ``@@result`` with one JSON object.  ROUND_ID labels the round's
spans.  ``PYTHONPATH`` must name the checkout's ``src`` directory.
"""

import json
import os
import sys
import traceback

import workloads  # imports eigenshift

import eigenshift


def main() -> None:
    name, seed, mode, round_id = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(eigenshift.__file__).startswith(src + os.sep):
        sys.exit(f"eigenshift imported from {eigenshift.__file__}, not from {src}")
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup()
    print("@@ready " + json.dumps(workload.operations), flush=True)
    if mode == "setup":
        return

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer(round_id).install()
    try:
        result = workload.run(inputs, seed)
        error = None
    except Exception:  # the round failed; report it and keep the run going
        result, error = None, traceback.format_exc()
    print("@@done", flush=True)
    out = {"error": error, "failures": {}, "known_faults": {
        op: list(msgs) for (wl, op), msgs in workloads.KNOWN_FAULTS.items() if wl == name}}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["spans"] = tracer.spans
    if error is None:
        try:
            out["failures"] = workload.check(inputs, result)
        except Exception:
            msg = "check raised:\n" + traceback.format_exc()
            out["failures"] = {op: [msg] for op in workload.operations}
    print("@@result " + json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
