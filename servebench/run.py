#!/usr/bin/env python3
"""servebench: bbs_serve end to end on three workloads, with per-layer
replay timings.

Run from the root of a checkout:

    python3 servebench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --self-test

The first run builds libbbs, bbs_serve and the benchmark driver (Release)
into .servebench/build. Each run spawns its own bbs_serve, drives it from
one closed-loop client process, checks every answer against a cold-engine
reference, and prints one JSON object as its last stdout line: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A result file with the host record lands in .servebench/results/.
See servebench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".servebench")
BUILD = os.path.join(STATE, "build")
RUN_DIR = os.path.join(".servebench", "run")  # relative: short socket paths
RESULTS = os.path.join(STATE, "results")
DRIVER_TIMEOUT_S = 170


def die(message, code=2):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_checkout():
    for needed in ("CMakeLists.txt", os.path.join("src", "bbs"),
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("not a bbs checkout: %s is missing under %s" % (needed, ROOT))


def build():
    os.makedirs(STATE, exist_ok=True)
    log_path = os.path.join(STATE, "build.log")
    with open(log_path, "w", encoding="utf-8") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                      "bbs_serve", "servebench_driver"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (%s)" % log_path, 3)
    return (os.path.join(BUILD, "bbs", "examples", "bbs_serve"),
            os.path.join(BUILD, "servebench_driver"))


def cache_value(name):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_record(workload, seed, flags, loadavg):
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], check=False,
                                     capture_output=True, text=True,
                                     timeout=10).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": compiler,
        "compiler_version": version,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "daemon_flags": flags,
        "workload": workload,
        "seed": seed,
        "loadavg_at_start": list(loadavg),
    }


def daemon_flags(manifest):
    return ["--listen", "unix:%s/d<pid>.sock" % RUN_DIR,
            "--workers", str(manifest["workers"])]


def drive(driver, serve, manifest, workload, seed, seconds, trace):
    """Runs the compiled driver once; returns its report dict."""
    cmd = [driver, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--serve", serve, "--run-dir", RUN_DIR,
           "--clients", str(manifest["workloads"][workload]["clients"]),
           "--workers", str(manifest["workers"])]
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die("driver timed out after %d s" % DRIVER_TIMEOUT_S, 1)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        die("driver failed with exit code %d" % proc.returncode, 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_metrics(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def run(args):
    check_checkout()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    if args.workload not in manifest["workloads"]:
        die("unknown workload '%s'" % args.workload)
    loadavg = os.getloadavg()
    serve, driver = build()
    seconds = args.seconds or bench["run_seconds"]
    report = drive(driver, serve, manifest, args.workload, args.seed,
                   seconds, args.trace)

    metrics = {}
    for spec in expected_metrics(bench, args.trace):
        name = spec["name"]
        if name not in report["metrics"]:
            die("driver did not report metric '%s'" % name, 1)
        metrics[name] = {"value": report["metrics"][name],
                         "unit": spec["unit"]}
    result = {"correct": bool(report["correct"]),
              "attempted": int(report["attempted"]),
              "failed": int(report["failed"]),
              "metrics": metrics}

    host = host_record(args.workload, args.seed, daemon_flags(manifest),
                       loadavg)
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(RESULTS, "%s-seed%d-trace%d-%s-%d.json" % (
        args.workload, args.seed, int(args.trace), stamp, os.getpid()))
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"host": host, "seconds": seconds,
                   "trace": int(args.trace), **result,
                   "details": report["details"]}, f, indent=2)

    print("servebench %s seed=%d trace=%d on %d CPUs (%s, %s %s)" % (
        args.workload, args.seed, int(args.trace), host["nproc"],
        host["cpu_model"], host["compiler_version"], host["build_type"]))
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  attempted=%d failed=%d correct=%s  (result file %s)" % (
        result["attempted"], result["failed"], result["correct"],
        os.path.relpath(path, ROOT)))
    print(json.dumps(result))


def self_test(args):
    """Seconds-long smoke of every workload: all metrics present, no failed
    request, and a seed-deterministic request stream."""
    check_checkout()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    serve, driver = build()
    problems = []

    def gen(workload, seed, dump):
        out = subprocess.run(
            [driver, "gen", "--workload", workload, "--seed", str(seed),
             "--seconds", "2", "--dump", dump],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        with open(dump, "rb") as f:
            data = f.read()
        return json.loads(out)["fingerprint"], data

    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    dump = os.path.join(ROOT, RUN_DIR, "selftest-stream.jsonl")
    for workload in manifest["workloads"]:
        first = gen(workload, 7, dump)
        again = gen(workload, 7, dump)
        other = gen(workload, 8, dump)
        if first != again:
            problems.append("%s: seed 7 gave two different streams" % workload)
        if first[0] == other[0]:
            problems.append("%s: seeds 7 and 8 gave the same stream" % workload)

        for trace in (False, True):
            report = drive(driver, serve, manifest, workload, 7,
                           args.seconds or 2, trace)
            missing = [m["name"] for m in expected_metrics(bench, trace)
                       if m["name"] not in report["metrics"]]
            if missing:
                problems.append("%s trace=%d: missing %s" % (
                    workload, trace, ", ".join(missing)))
            if report["failed"] != 0 or not report["correct"]:
                problems.append("%s trace=%d: %d of %d requests failed" % (
                    workload, trace, report["failed"], report["attempted"]))
            if not trace and report["metrics"].get("ok_rate") != 1:
                problems.append("%s: fail_rate is not 0" % workload)
            print("self-test %-16s trace=%d attempted=%d failed=%d" % (
                workload, trace, report["attempted"], report["failed"]))
    os.remove(dump)
    for p in problems:
        print("FAIL " + p)
    print("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json "
                        "(2 for --self-test)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="seconds-long smoke of every workload")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test(args))
    if not args.workload:
        die("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
