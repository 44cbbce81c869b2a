#!/usr/bin/env python3
"""Attack-grid benchmark entry point.

Run from the repository root:

    python3 gridbench/run.py --workload mpass-grad --seed 1 --seconds 20 --trace 0

Builds gridbench/ (which compiles the library from src/) into
.bench_build/gridbench, trains the model zoo with that build into a cache
keyed by the binary's hash (untimed, first run only), runs the decorator
self-test once per binary, then runs the benchmark and forwards its output.
The last stdout line is the JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "gridbench")
CACHE_ROOT = os.path.join(BUILD_ROOT, "gridbench-cache")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def check_call(cmd, **kw):
    # stdout of helper steps goes to stderr: stdout carries only the result.
    subprocess.run(cmd, check=True, stdout=sys.stderr, **kw)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    check_call(["cmake", "--build", BUILD, "-j", jobs, "--target", "gridbench"])
    return os.path.join(BUILD, "gridbench")


def binary_cache(binary):
    """Zoo cache for this exact binary; caches of other builds are dropped."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    os.makedirs(CACHE_ROOT, exist_ok=True)
    for name in os.listdir(CACHE_ROOT):
        if name != digest:
            shutil.rmtree(os.path.join(CACHE_ROOT, name), ignore_errors=True)
    return os.path.join(CACHE_ROOT, digest)


def prepared(binary, env):
    """Trains the zoo and runs the self-test once per binary."""
    cache = env["MPASS_CACHE_DIR"]
    if not os.path.exists(os.path.join(cache, "prepared")):
        log("training the model zoo with this build (untimed)")
        check_call([binary, "prepare"], env=env)
        open(os.path.join(cache, "prepared"), "w").close()
    status = os.path.join(cache, "selftest")
    if not os.path.exists(status):
        rc = subprocess.run([binary, "selftest"], env=env, stdout=sys.stderr).returncode
        with open(status, "w") as f:
            f.write("ok" if rc == 0 else "fail")
    with open(status) as f:
        return f.read() == "ok"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    # No inherited MPASS_* knob (tracing, profiling, incremental scoring)
    # may change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPASS_")}
    env["MPASS_CACHE_DIR"] = binary_cache(binary)
    os.makedirs(env["MPASS_CACHE_DIR"], exist_ok=True)
    selftest_ok = prepared(binary, env)

    out = subprocess.run(
        [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        check=True).stdout.strip().splitlines()
    result = json.loads(out[-1])
    if not selftest_ok:
        log("decorator self-test failed for this build")
        result["correct"] = False
        result["failed"] += 1
    for line in out[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, IndexError) as e:
        log("failed: %s" % e)
        sys.exit(1)
