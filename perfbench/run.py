#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
sources under src/) into .bench_build/; later runs only re-check the
build.  Workloads and metrics are declared in BENCHMARK.json.

--trace 0 runs the untraced program (bmg_perf) for S seconds and reports
every end-to-end metric.  --trace 1 runs the untraced program and then
the traced one (bmg_perf_traced, the same program with link-time wrappers
around each module's public entry points) for S/2 seconds each, checks
that both reach the same outcome digest, and reports every per-layer
metric, including trace.overhead_share: the traced run's wall seconds
per simulated day over the untraced run's, minus one.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Before it, an "env:" line records nproc, build type,
compiler, commit, pool sizes, page-store backend and seed.  The exit code
is 0 only when every outcome check passed: packets delivered, auditor
clean, every round reproducing the same outcome, the traced run's span
guard and ledger, and, at the default seed, the outcome digest pinned in
perfbench/pinned_digests.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DEFAULT_SEED = 42
RUN_TIMEOUT_S = 170  # for all executable runs of one invocation together
EXECUTABLES = ("bmg_perf", "bmg_perf_traced")
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def local_env():
    """Environment for child processes: temporary files stay in BUILD."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def cache_matches():
    """True when BUILD holds a CMake cache made for this checkout's paths.
    CMake records absolute paths, so a build tree copied or moved along
    with its checkout points at directories that may no longer exist."""
    want = {"CMAKE_CACHEFILE_DIR": os.path.realpath(BUILD),
            "CMAKE_HOME_DIRECTORY": os.path.realpath(HERE)}
    seen = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.rstrip("\n").partition("=")
                name = key.split(":", 1)[0]
                if sep and name in want:
                    seen[name] = os.path.realpath(value)
    except OSError:
        return False
    return seen == want


def clear_build_tree():
    """Removes everything in BUILD that a build made, keeping the log."""
    for name in os.listdir(BUILD):
        if name == "build.log":
            continue
        path = os.path.join(BUILD, name)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            os.remove(path)


def build():
    """Configures (when needed) and builds both executables; exits on
    failure.  Executables built from the same sources as now are used as
    they are, without invoking CMake: BUILD/source.sha256 records the
    sources they were built from.  A build tree configured for other
    paths is cleared and built again from scratch."""
    src = os.path.join(ROOT, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail("library sources not found at %s" % os.path.dirname(src))
    os.makedirs(BUILD, exist_ok=True)
    stamp_path = os.path.join(BUILD, "source.sha256")
    digest = source_digest()
    try:
        with open(stamp_path) as f:
            built_from = f.read().strip()
    except OSError:
        built_from = None
    if built_from == digest and all(
            os.access(os.path.join(BUILD, exe), os.X_OK) for exe in EXECUTABLES):
        return
    if built_from is not None:
        os.remove(stamp_path)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    make = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + list(EXECUTABLES)

    def run_steps(steps, log):
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S, env=local_env()).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                return "build step %s failed: %s" % (" ".join(cmd[:2]), e)
            if rc != 0:
                return "build step %s failed (see %s)" % (" ".join(cmd[:2]), log_path)
        return None

    with open(log_path, "a") as log:
        if cache_matches():
            error = run_steps([make], log)
        else:
            clear_build_tree()
            error = run_steps([configure, make], log)
    if error is not None:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-20:]))
        fail(error)
    with open(stamp_path, "w") as f:
        f.write(digest + "\n")


def run_binary(name, workload, seed, seconds, deadline):
    """Runs one executable, stopping it at `deadline` (time.monotonic());
    returns its final JSON line as a dict."""
    scratch = os.path.join(BUILD, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD, name), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), env=local_env())
    except subprocess.TimeoutExpired:
        fail("%s did not finish within the %d s allowed for all runs" % (name, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s exited %d without a result" % (name, proc.returncode))
    if "e2e" not in result:
        fail("%s stopped before it finished a round" % name, code=1)
    result["exit_code"] = proc.returncode
    return result


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout may
    not be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for fn in sorted(filenames):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (expected one of %s)" % (args.workload, ", ".join(names)))
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    errors = []
    if args.trace == 0:
        runs = [run_binary("bmg_perf", args.workload, args.seed, args.seconds, deadline)]
        wanted = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = runs[0]["e2e"]
    else:
        half = args.seconds / 2.0
        plain = run_binary("bmg_perf", args.workload, args.seed, half, deadline)
        traced = run_binary("bmg_perf_traced", args.workload, args.seed, half, deadline)
        runs = [plain, traced]
        if plain["digest"] != traced["digest"]:
            errors.append("traced and untraced runs reached different outcome digests")
        values = dict(traced["layer"])
        values["trace.overhead_share"] = (traced["e2e"]["wall_s_per_sim_day"] /
                                          plain["e2e"]["wall_s_per_sim_day"] - 1.0)
        wanted = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for r in runs:
        if r["exit_code"] != 0 or not r["correct"]:
            errors.append("%s run failed its outcome checks" %
                          ("traced" if r["env"]["traced"] else "untraced"))
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "pinned_digests.json")) as f:
            pinned = json.load(f).get(args.workload)
        if pinned != runs[0]["digest"]:
            errors.append("outcome digest %s differs from the pinned %s" %
                          (runs[0]["digest"], pinned))
    missing = [n for n in wanted if n not in values]
    if missing:
        errors.append("metrics not reported: " + ", ".join(missing))

    env = dict(runs[0]["env"])
    env.update(seed=args.seed, workload=args.workload, commit=git_commit(),
               source_sha256=source_digest(), outcome_digest=runs[0]["digest"],
               rounds=[r["rounds"] for r in runs])
    env.pop("traced", None)
    print("env: " + json.dumps(env, sort_keys=True))
    print("end-to-end (untraced): " + json.dumps(runs[0]["e2e"], sort_keys=True))
    for e in errors:
        print("perfbench: CHECK FAILED: " + e, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": max(1, sum(r["attempted"] for r in runs)),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {n: {"value": values.get(n, 0.0), "unit": units[n]} for n in wanted},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
