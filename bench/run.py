"""danisurf benchmark: seeded workloads through ``danisurf.cli.run``.

    python3 bench/run.py --workload plane-cyclo --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer attribution.  End-to-end times are in reference seconds, corrected
for the host's changing speed (see ``calibrate.py``).  Every command's output
is checked; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details of each run (the generated script, the
digests, every failure) go to ``bench/out/``; see ``bench/README.md``.

``--write-reference`` regenerates ``bench/reference.json``, the output
digests for seeds 0-9 of every workload, from the program as it stands.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads
from tracer import PER_LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
WORKER_LOG = OUT / "worker.stderr"
REFERENCE = BENCH / "reference.json"
REFERENCE_SEEDS = range(10)

# Each round of a run takes this many import samples, one cold pass in a
# fresh worker and one warm pass in the long-lived worker, so that every
# metric samples the whole run rather than one stretch of it.
IMPORTS_PER_ROUND = 5
MIN_ROUNDS = 2
WORKER_LIMIT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "cold_pass_s": "s", "pass_s": "s",
                    "cmd_p50_ms": "ms", "cmd_p95_ms": "ms", "peak_rss_mb": "MB",
                    "ok_frac": "ratio"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _interpreter(mode: str) -> list[str]:
    return [sys.executable, "-E", "-s", str(WORKER), mode, str(SRC)]


class Worker:
    """A ``worker.py serve`` process; a watchdog kills it after WORKER_LIMIT_S."""

    def __init__(self, commands: list[dict], span_path: Path | None = None):
        self.log = open(WORKER_LOG, "a", encoding="utf-8")
        self.proc = subprocess.Popen(_interpreter("serve"), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     text=True, cwd=ROOT)
        self.watchdog = threading.Timer(WORKER_LIMIT_S, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        self._send(json.dumps({"commands": commands,
                               "span_path": span_path and str(span_path)}))

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.log):
            try:
                stream.close()
            except BrokenPipeError:
                pass

    def _send(self, line: str) -> None:
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchError(f"worker ended early; see {WORKER_LOG}") from None

    def request(self, line: str) -> dict:
        self._send(line)
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError(f"worker ended early; see {WORKER_LOG}")
        return json.loads(reply)


def import_seconds() -> float:
    """Reference seconds to import danisurf.cli in a fresh interpreter."""
    try:
        proc = subprocess.run(_interpreter("import"), capture_output=True, text=True,
                              timeout=60, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("importing danisurf.cli took over 60 s") from None
    if proc.returncode != 0:
        raise BenchError(f"importing danisurf.cli failed:\n{proc.stderr}")
    return float(proc.stdout)


def measure(commands: list[dict], seconds: float, trace: bool, span_path: Path) -> dict:
    """Run rounds until ``seconds`` have passed; returns every sample taken."""
    deadline = perf_counter() + seconds
    setup, cold, warm, traced = [], [], [], []
    with Worker(commands, span_path) as main:
        cold.append(main.request("pass"))
        while True:
            t_round = perf_counter()
            if not trace:
                setup += [import_seconds() for _ in range(IMPORTS_PER_ROUND)]
                with Worker(commands) as fresh:
                    cold.append(fresh.request("pass"))
                    fresh.request("exit")
            warm.append(main.request("pass"))
            if trace:
                traced.append(main.request("traced"))
            # stop when the next round would end mostly past the deadline
            round_s = perf_counter() - t_round
            if len(warm) >= MIN_ROUNDS and perf_counter() + round_s / 2 > deadline:
                break
        final = main.request("exit")
    return {"setup": setup, "cold": cold, "warm": warm, "traced": traced, **final}


def count_failures(commands: list[dict], passes: list[dict],
                   expected: list[str]) -> tuple[int, list[str]]:
    """Commands that broke a check, over every pass; with the first messages."""
    failed, messages = 0, []
    for p in passes:
        for i, (cmd, digest, problems) in enumerate(zip(commands, p["digests"], p["problems"])):
            if digest != expected[i]:
                problems = problems + [f"output digest {digest}, expected {expected[i]}"]
            if problems:
                failed += 1
                if len(messages) < 10:
                    messages.append(f"command {i} ({cmd['argv'][0]}): {'; '.join(problems)}")
    return failed, messages


def load_reference(workload: str, seed: int, size: str) -> list[str] | None:
    if size != "full" or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def write_reference() -> None:
    table = {}
    for workload in workloads.WORKLOADS:
        table[workload] = {}
        for seed in REFERENCE_SEEDS:
            commands = workloads.generate(workload, seed)
            with Worker(commands) as worker:
                p = worker.request("pass")
                worker.request("exit")
            failed, messages = count_failures(commands, [p], p["digests"])
            if failed:
                raise BenchError(f"{workload} seed {seed} fails its checks: {messages}")
            table[workload][str(seed)] = p["digests"]
            print(f"{workload} seed {seed}: {len(commands)} commands pass", flush=True)
    REFERENCE.write_text(json.dumps(table) + "\n")


def command_latencies_ms(warm: list[dict]) -> list[float]:
    """Each command's median latency over the warm passes, in milliseconds.

    Every pass repeats the same commands, so the repeats of one command only
    measure the machine's noise; the percentiles are taken over the commands.
    """
    return [1e3 * statistics.median(lat) for lat in zip(*(p["latencies_s"] for p in warm))]


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def per_layer(samples: dict) -> dict[str, float]:
    """Counts from the first traced pass, self times as medians over traced passes."""
    passes = [p["per_layer"] for p in samples["traced"]]
    layers = dict(passes[0])
    for key in layers:
        if key.endswith(".self_s"):
            layers[key] = statistics.median(p[key] for p in passes)
    layers["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in samples["traced"])
        / statistics.median(p["wall_s"] for p in samples["warm"]) - 1)
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every workload, for the self-test")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not (SRC / "danisurf" / "__init__.py").is_file():
        raise BenchError(f"no danisurf sources under {SRC}; run from a full checkout")
    OUT.mkdir(exist_ok=True)
    WORKER_LOG.write_text("")
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    commands = workloads.generate(args.workload, args.seed, args.size)
    script_digest = hashlib.sha256(json.dumps(commands).encode()).hexdigest()
    reference = load_reference(args.workload, args.seed, args.size)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    samples = measure(commands, args.seconds, bool(args.trace), OUT / f"{stem}.spans.json.gz")

    passes = samples["cold"] + samples["warm"] + samples["traced"]
    cold_digests = samples["cold"][0]["digests"]
    failed, messages = count_failures(commands, passes, reference or cold_digests)
    attempted = len(passes) * len(commands)
    output_digest = hashlib.sha256("".join(cold_digests).encode()).hexdigest()
    ref_note = ("no reference for this seed" if reference is None else
                "matches the reference" if cold_digests == reference
                else "DIFFERS from the reference")

    lines = [f"workload {args.workload}, seed {args.seed}, size {args.size}: "
             f"{len(commands)} commands a pass",
             f"script sha256 {script_digest}",
             f"output sha256 {output_digest} ({ref_note})",
             f"passes: {len(samples['cold'])} cold, {len(samples['warm'])} warm, "
             f"{len(samples['traced'])} traced",
             f"fail_frac {failed / attempted:.6g} ({failed} failed of {attempted} attempted)"]
    lines += [f"  failure: {m}" for m in messages]

    if args.trace:
        layers = per_layer(samples)
        counts_repeat = all(p["per_layer"][k] == layers[k] for p in samples["traced"]
                            for k in p["per_layer"] if not k.endswith(".self_s"))
        total_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        lines.append(f"self time of a traced pass {total_self:.4f} s; counts repeat "
                     f"across traced passes: {counts_repeat}; {samples['spans']} spans "
                     f"written to {OUT.name}/{stem}.spans.json.gz")
        for k, u in PER_LAYER_UNITS.items():
            share = f"  {100 * layers[k] / total_self:5.1f}%" if k.endswith(".self_s") else ""
            lines.append(f"  {k:<34} {layers[k]:>14.6g} {u}{share}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        latencies_ms = command_latencies_ms(samples["warm"])
        values = {"setup_s": statistics.median(samples["setup"]),
                  "cold_pass_s": statistics.median(p["pass_s"] for p in samples["cold"]),
                  "pass_s": statistics.median(p["pass_s"] for p in samples["warm"]),
                  "cmd_p50_ms": statistics.median(latencies_ms),
                  "cmd_p95_ms": percentile(latencies_ms, 95),
                  "peak_rss_mb": samples["peak_rss_mb"],
                  "ok_frac": 1 - failed / attempted}
        lines.append(f"medians of {len(samples['setup'])} imports, "
                     f"{len(samples['cold'])} cold and {len(samples['warm'])} warm passes; "
                     f"command latency over {len(latencies_ms)} commands, "
                     f"each the median of its {len(samples['warm'])} warm runs")
        lines.append("times in reference seconds (see bench/calibrate.py); plain wall "
                     "time of a warm pass, median: "
                     f"{statistics.median(p['wall_s'] for p in samples['warm']):.4g} s")
        lines += [f"  {k:<12} {values[k]:>12.6g} {u}" for k, u in END_TO_END_UNITS.items()]
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print("\n".join(lines))

    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "script_sha256": script_digest, "script": commands,
              "output_sha256": output_digest, "reference": ref_note,
              "attempted": attempted, "failed": failed, "failures": messages,
              "metrics": metrics, "setup_s": samples["setup"],
              **{f"{k}_pass_s": [p["pass_s"] for p in samples[k]]
                 for k in ("cold", "warm", "traced")},
              **{f"{k}_wall_s": [p["wall_s"] for p in samples[k]]
                 for k in ("cold", "warm", "traced")}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # a terminated run still stops its workers: SystemExit unwinds the with-blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
