"""One fresh interpreter of the benchmark.

    python3 worker.py import <src>    print the reference seconds ``import danisurf.cli`` took
    python3 worker.py serve <src>     run passes of a workload on request

``serve`` reads one JSON line with the commands and the span file path, then
one request a line: ``pass`` runs every command once, ``traced`` does the same
with the tracer installed, ``exit`` ends.  It answers each pass with one JSON
line (pass time, per-command latencies, output digests and the problems the
reference-free checks found) and ``exit`` with the process's peak RSS.  The
first pass a worker runs is a cold one: nothing is cached yet.

Times are in reference seconds (see ``calibrate.py``); ``wall_s`` is the
pass's plain wall time with the speed probes left out.  A traced pass probes
the host only between commands, so that no probe lands inside a span.
"""

import sys


def _load(src: str):
    sys.path.insert(0, src)
    import danisurf.cli
    if not danisurf.__file__.startswith(src):
        raise SystemExit(f"danisurf was imported from {danisurf.__file__}, not from {src}")
    return danisurf


def time_import(src: str) -> None:
    from calibrate import Clock

    with Clock() as clock:
        _load(src)
        seconds = clock.split()
    print(repr(seconds))


def serve(src: str) -> None:
    import contextlib
    import hashlib
    import io
    import json
    import resource

    import workloads
    from calibrate import Clock
    from tracer import Tracer

    spec = json.loads(sys.stdin.readline())
    commands = spec["commands"]
    danisurf = _load(src)
    tracer = Tracer()
    traced_passes = 0

    def run_pass(clock):
        latencies, results = [], []
        with clock:
            for cmd in commands:
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = danisurf.cli.run(cmd["argv"])
                except SystemExit as exc:            # argparse rejected the argv
                    code = exc.code
                except Exception as exc:             # a crash is a failed operation
                    code = f"exception {type(exc).__name__}: {exc}"
                latencies.append(clock.split())
                results.append((code, out.getvalue(), err.getvalue()))
        return latencies, results

    for request in sys.stdin:
        request = request.strip()
        if request == "exit":
            break
        traced = request == "traced"
        if traced:
            tracer.reset()
            tracer.recording = traced_passes == 0
            tracer.install(danisurf)
        clock = Clock(interval=None) if traced else Clock()
        try:
            latencies, results = run_pass(clock)
        finally:
            if traced:
                tracer.uninstall()
                tracer.recording = False
        reply = {"pass_s": sum(latencies), "wall_s": clock.wall, "latencies_s": latencies,
                 "digests": [], "problems": []}
        for cmd, (code, out, err) in zip(commands, results):
            blob = json.dumps([cmd["argv"], code, out, err], ensure_ascii=False)
            reply["digests"].append(hashlib.sha256(blob.encode()).hexdigest()[:16])
            reply["problems"].append([code] if not isinstance(code, int)
                                     else workloads.check_output(cmd, code, out))
        if traced:
            reply["per_layer"] = tracer.pass_metrics()
            traced_passes += 1
        print(json.dumps(reply), flush=True)

    spans = tracer.write_spans(spec["span_path"]) if traced_passes else 0
    print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      "spans": spans}), flush=True)


if __name__ == "__main__":
    mode, src = sys.argv[1], sys.argv[2]
    time_import(src) if mode == "import" else serve(src)
