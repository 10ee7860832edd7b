"""Self-test of the benchmark at tiny size.

    python3 -m pytest -q bench/tests

Each test runs ``bench/run.py`` from the command line, with ``--size tiny`` so
that a run takes a few seconds.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _tiny(workload, trace=0):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    first, second = _tiny(workload), _tiny(workload)
    result = json.loads(first[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("fail_frac 0 ") for line in first)
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
    digest = [line for line in first if line.startswith("output sha256")]
    assert digest and digest == [line for line in second if line.startswith("output sha256")]


def test_traced_run_reports_every_per_layer_metric():
    lines = _tiny("cli-session", trace=1)
    result = json.loads(lines[-1])
    assert result["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert any("counts repeat across traced passes: True" in line for line in lines)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", range(5))
def test_cli_session_script_stays_in_the_grammar_and_small_conductors(seed):
    script = workloads.generate("cli-session", seed)
    assert len(script) >= 200
    for cmd in script:
        for arg in (a for a in cmd["argv"] if not a.startswith("--")):
            # '-' may only start an expression, never follow a binary operator
            assert not re.search(r"[-+*]\s*-", arg), arg
            for n in re.findall(r"zeta\((\d+)\)", arg):
                assert 12 % int(n) == 0, arg
    assert 0.25 <= sum(c["argv"][0] == "nf" for c in script) / len(script) <= 0.35


def test_normal_form_check_finds_reducible_monomials():
    assert workloads.normal_form_violations("x^2*y + (zeta(3) - 1)*x*z - 3/2*y", 2) == ["x^2*y"]
    assert workloads.normal_form_violations("x*y^2 - x*z + 1", 2) == []


def test_clock_probes_during_a_long_stretch_and_leaves_probes_out():
    with calibrate.Clock() as clock:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            pass
        ref = clock.split()
    # a SIGALRM probe every 20 ms, and the busy loop's own time only
    assert clock.probes >= 5
    assert 0.2 < clock.wall < 0.3
    # the probe kernel stands for the host's speed: the loop slowed as it did
    assert ref == pytest.approx(clock.wall * calibrate.REFERENCE_S / calibrate.probe(), rel=1)
