#!/usr/bin/env python3
"""Build and run the ptucker benchmark (perfbench/ptbench.cpp).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compress-hcci --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

A run builds perfbench/ (a CMake package that compiles ../src) into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's inputs
from --seed under that directory, measures for --seconds, checks the
outputs, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 the per_layer ones. The line before it
("facts: {...}") records the host and run facts.

--smoke runs every workload at a tiny size, untraced and traced, and checks
the output schema and every correctness gate; it exits 0 only if all pass.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    return json.loads(spec_path.read_text())


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def jobs():
    return max(1, min(4, len(os.sched_getaffinity(0))))


def child_env():
    """Environment for the build and the benchmark: temporary files stay
    inside the build directory."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configure and build ptbench; returns the binary path."""
    if not (ROOT / "src").is_dir():
        fail(f"no program sources at {ROOT / 'src'}")
    out = build_dir() / "perfbench"
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", str(jobs())],
    ):
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=child_env())
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = out / "ptbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def host_facts():
    facts = {"nproc": len(os.sched_getaffinity(0))}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True,
                               timeout=10).stdout
        m = re.search(r"^L3 cache:\s*(.+)$", lscpu, re.M)
        facts["llc"] = m.group(1).strip() if m else "unknown"
    except (OSError, subprocess.SubprocessError):
        facts["llc"] = "unknown"
    facts["git_sha"] = "unknown"
    if (ROOT / ".git").exists():  # never a repository above the checkout
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                facts["git_sha"] = sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    lines = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cpp", ".hpp") and path.is_file():
            with open(path, "rb") as f:
                lines += sum(1 for _ in f)
    facts["src_lines"] = lines
    return facts


def cpu_times():
    """Aggregate jiffies from /proc/stat: (total, steal); zeros if absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return sum(fields), fields[7] if len(fields) > 7 else 0


def run_workload(binary, workload, seed, seconds, trace, smoke):
    """Run ptbench once; returns its parsed result object, with the share
    of CPU time the hypervisor stole during the run added to its facts."""
    work = build_dir() / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work", str(work)]
    if smoke:
        cmd.append("--smoke")
    total0, steal0 = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S,
                              env=child_env())
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"ptbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("ptbench printed no result")
    result = json.loads(lines[-1])
    total1, steal1 = cpu_times()
    if total1 > total0:
        result.setdefault("facts", {})["cpu_steal_pct"] = round(
            100.0 * (steal1 - steal0) / (total1 - total0), 3)
    return result


def check_schema(result, expected):
    """Problems with a result against BENCHMARK.json's metric list."""
    problems = []
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(want) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(want))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
        if name in want and metric.get("unit") != want[name]:
            problems.append(f"{name}: unit {metric.get('unit')!r}, "
                            f"expected {want[name]!r}")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"{key} is not an integer")
    if result.get("attempted", 0) < 1:
        problems.append("no operation attempted")
    return problems


def smoke(spec, binary):
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result = run_workload(binary, workload, 1, 1, trace, True)
            expected = spec["per_layer" if trace else "end_to_end"]
            problems = check_schema(result, expected)
            if not result.get("correct") or result.get("failed") != 0:
                problems.append("correctness gates failed")
            if not trace:
                zero = [n for n, m in result["metrics"].items()
                        if m["value"] == 0]
                if zero:
                    problems.append(f"end-to-end metrics read 0: {zero}")
            status = "ok" if not problems else "; ".join(problems)
            print(f"smoke {workload} trace={int(trace)}: {status}")
            ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: check schema and gates only")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    if args.smoke:
        sys.exit(0 if smoke(spec, binary) else 1)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    result = run_workload(binary, args.workload, args.seed, args.seconds,
                          bool(args.trace), False)
    expected = spec["per_layer" if args.trace else "end_to_end"]
    problems = check_schema(result, expected)
    if problems:
        fail("; ".join(problems))
    facts = host_facts()
    facts.update(result.get("facts", {}))
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
