#!/usr/bin/env python3
"""Builds and runs the wall-clock engine benchmark (see README.md).

  python3 perfbench/run.py --workload sf1-serial --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --steady 5 --workload sf0.1-streams --seconds 20
  python3 perfbench/run.py --self-test

The first form is the benchmark itself: it builds wimpi_perf from the
checkout's sources (incrementally, under $CARGO_TARGET_DIR or .bench_build),
runs one workload (or "all" of them in turn) and relays its output, whose
last line is the JSON result. --steady N repeats a workload (or "all") with
N consecutive seeds and prints each end-to-end metric's median and quartile
spread next to its bound in BENCHMARK.json. --self-test runs the
benchmark's own unit tests.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the binary gets what is left after start-up.
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    # The compiler's scratch files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        return None
    return os.path.join(out, target)


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # wimpi_perf runs its segments as child processes, which die with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("wimpi_perf did not finish within %d s" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, out


def last_json(text):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(text, trace):
    """The JSON result, or None when it is missing or names other metrics
    than BENCHMARK.json asks for."""
    result = last_json(text)
    if result is None:
        return None
    spec = load_spec()
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != want:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(want - set(result["metrics"])),
            sorted(set(result["metrics"]) - want)))
        return None
    return result


def steady(binary, workloads, runs, seed0, seconds):
    """Repeats each workload with `runs` seeds; prints median and spread."""
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    ok = True
    for w in workloads:
        values = {}
        for i in range(runs):
            code, out = run_once(binary, w, seed0 + i, seconds, 0)
            result = check_result(out, 0)
            if code != 0 or result is None or not result["correct"]:
                log("%s seed %d failed (exit %d)" % (w, seed0 + i, code))
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log("%s seed %d: %s" % (w, seed0 + i, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()})))
        print("%s (%d runs, seeds %d..%d)" % (w, runs, seed0, seed0 + runs - 1))
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name, 0)
            within = name == "setup_s" or spread <= bound / 3
            ok = ok and (name == "setup_s" or spread <= bound)
            print("  %-16s median %12.4f  spread %6.3f  bound %.2f  %s" % (
                name, med, spread, bound, "ok" if within else "WIDE"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    if args.self_test:
        test = build("perf_lib_test")
        if test is None:
            return 1
        return subprocess.run([test]).returncode

    if args.workload is None or args.seconds is None:
        p.error("--workload and --seconds are required")
    binary = build("wimpi_perf")
    if binary is None:
        log("build failed")
        return 1
    workloads = [args.workload]
    if args.workload == "all":
        workloads = [w["name"] for w in load_spec()["workloads"]]
    if args.steady > 0:
        return steady(binary, workloads, args.steady, args.seed, args.seconds)

    status = 0
    for w in workloads:
        code, out = run_once(binary, w, args.seed, args.seconds, args.trace)
        if len(workloads) > 1:
            print("== %s" % w)
        if check_result(out, args.trace) is None:
            # Never let a partial run look like a result.
            sys.stdout.write("\n".join(out.strip().splitlines()[:-1]) + "\n")
            log("%s printed no valid result (exit %d)" % (w, code))
            code = code or 1
        else:
            sys.stdout.write(out)
        sys.stdout.flush()
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
