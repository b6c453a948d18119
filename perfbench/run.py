#!/usr/bin/env python3
"""Build and run the pathview benchmark.

    python3 perfbench/run.py --workload ingest|browse|compare --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the pathview library, the pvserve
daemon and the pvbench driver from source with CMake into
$CARGO_TARGET_DIR (default .bench_build), then runs pvbench with the same
arguments. pvbench prints named figures and, as its last line, one JSON
object; this script checks that its metric names match BENCHMARK.json.
"""
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", build_dir, "-j", jobs]):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the root of a pathview checkout (no src/CMakeLists.txt)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    build(build_dir)
    proc = subprocess.run([os.path.join(build_dir, "pvbench")] + args,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("pvbench exited with code %d" % proc.returncode)
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("pvbench's last line is not JSON: " + lines[-1][:200])
    if sorted(result.get("metrics", {})) != sorted(want):
        fail("pvbench metric names differ from BENCHMARK.json")
    print(lines[-1])


if __name__ == "__main__":
    main()
