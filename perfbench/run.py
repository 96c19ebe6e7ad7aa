#!/usr/bin/env python3
"""Build the release `weblab` daemon and the `perfbench` harness from the
sources of this checkout, then run one benchmark workload.

    python3 perfbench/run.py --workload lookup|analytics|ingest \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout. Build products, scratch stores and
result records go under $CARGO_TARGET_DIR (default `.bench_build`); each
result record under `perfbench/results/` there names the source revision,
build profile, nproc and seed it was measured with. The last line of
standard output is the harness's JSON result.

`--smoke` is the benchmark's own test: it runs every workload scaled down,
untraced and traced, and checks each result against the schema that
BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lookup", "analytics", "ingest")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "weblab"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 3)
    # A fresh build leaves a few hundred MB of dirty pages; written back
    # while the daemon runs, they slow its fsyncs and steal CPU.
    os.sync()


def source_revision():
    """The git revision when there is one, and a digest of the sources."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for tree in (ROOT / "src", ROOT / "crates", HERE / "src"):
        files += sorted(p for p in tree.rglob("*") if p.is_file() and p.suffix in (".rs", ".toml"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    rev = "none"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            rev = done.stdout.strip()
    return f"{rev}+src-{digest.hexdigest()[:12]}"


def harness(target, workload, seed, seconds, trace, smoke, capture):
    work = target / "perfbench" / f"work-{workload}-{os.getpid()}"
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--daemon", str(target / "release" / "weblab"),
        "--work", str(work),
        "--out", str(target / "perfbench" / "results"),
        "--rev", source_revision(),
    ]
    if smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True)
    finally:
        stop_daemons(work)
        shutil.rmtree(work, ignore_errors=True)


def stop_daemons(work):
    """Kill any daemon the harness left running (it kills its own unless
    it was killed first), and wait for it to exit."""
    for pid_file in work.glob("*.pid") if work.is_dir() else ():
        try:
            pid = int(pid_file.read_text())
            os.kill(pid, signal.SIGKILL)
        except (ValueError, ProcessLookupError, PermissionError):
            continue
        for _ in range(100):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def check_result(stdout, declared, trace):
    """The result line against BENCHMARK.json; returns the problems found."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted {attempted!r}")
    if failed != 0:
        problems.append(f"failed {failed!r}")
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if not isinstance(m.get("value"), (int, float)) or m.get("unit") != want.get(name):
            problems.append(f"metric {name}: {m}")
        elif not trace and m["value"] <= 0:
            problems.append(f"end-to-end metric {name} is {m['value']}")
    return problems


def smoke(target):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        fail(f"BENCHMARK.json declares workloads {names}", 1)
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = harness(target, workload, 7, 1, trace, True, True)
            problems = [f"exit code {done.returncode}"] if done.returncode else []
            problems += check_result(done.stdout or "", declared, trace)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            bad += bool(problems)
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} is not a checkout of the weblab repository")
    target = target_dir()
    build(target)
    if args.smoke:
        sys.exit(smoke(target))
    done = harness(target, args.workload, args.seed, args.seconds, args.trace, False, False)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
