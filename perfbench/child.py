"""In-process runner: calls ``lensbordism.cli.main`` in a fresh interpreter.

The first line of stdin is a JSON job.  Job keys:

  argvs        CLI calls to make, one after another: one result line, or
  seed         draw whole blocks of the query mix from this seed: every
               further stdin line holds a number of blocks to answer next,
               and gets one result line, until stdin ends
  trace        wrap the layers in spans and hook gc; a last line then
               holds the per-layer metrics
  spans_out    with ``trace``: write the spans to this file

The runner answers one request at a time and waits, idle, for the next,
so the caller can time the machine between requests without sharing this
process.  Each call's stdout is captured, timed and returned for checking.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import nullcontext, redirect_stdout


def _requests(job):
    """The argv lists of each request, one list per result line."""
    if "argvs" in job:
        yield job["argvs"]
        return
    from inputs import query_blocks

    blocks = query_blocks(job["seed"])
    for line in iter(sys.stdin.readline, ""):
        yield [argv for _ in range(int(line)) for argv in next(blocks)]


def run(argvs, cli) -> dict:
    outputs, codes, latencies = [], [], []
    for argv in argvs:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:  # a query that raised counts as failed
            print(f"{argv}: {exc!r}", file=sys.stderr)
            code = None
        latencies.append(time.perf_counter() - start)
        outputs.append(buf.getvalue())
        codes.append(code)
    return {"argvs": argvs, "outputs": outputs, "codes": codes, "latencies": latencies}


def main() -> None:
    job = json.loads(sys.stdin.readline())
    import lensbordism.cli as cli

    trace = job.get("trace")
    if trace:
        from tracer import GcHook, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    gc_hook = GcHook() if trace else nullcontext()
    output_bytes = 0
    for argvs in _requests(job):
        with gc_hook:
            result = run(argvs, cli)
        output_bytes += sum(len(o.encode()) for o in result["outputs"])
        print(json.dumps(result), flush=True)
    if not trace:
        return
    metrics = layer_metrics(tracer.spans, tracer.counts)
    metrics.update({
        "gc.collections": gc_hook.collections,
        "gc.gen2_collections": gc_hook.gen2,
        "gc.pause_s": gc_hook.pause_s,
        "cli.output_bytes": output_bytes,
    })
    if job.get("spans_out"):
        keys = ("name", "start", "end", "parent", "request")
        with open(job["spans_out"], "w") as fh:
            json.dump([dict(zip(keys, s)) for s in tracer.spans], fh)
    print(json.dumps({"metrics": metrics}))


if __name__ == "__main__":
    main()
