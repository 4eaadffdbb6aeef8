#!/usr/bin/env python3
"""Build and run the ADI/ATPG benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--jobs J]
    python3 perfbench/run.py --selftest     tiny-size check of every workload
    python3 perfbench/run.py fixtures       rebuild the suite fixtures (slow)
    python3 perfbench/run.py pins           re-record the paper-suite pins

The benchmark itself is perfbench/pbench.ml; this script builds it and
the server with dune, runs it under a time limit, and checks its output
in self-test mode.
"""

import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "pbench.exe")
TIME_LIMIT_S = 170


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full checkout "
              "(dune-project and lib/ are missing)", file=sys.stderr)
        sys.exit(2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./perfbench/pbench.exe", "./bin/adi_server.exe"]
    r = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet"] + targets,
                       env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(r.returncode)


def run_exe(args, capture=False):
    """Run the benchmark binary in its own process group, so that a
    timeout also stops the server it started."""
    p = subprocess.Popen([EXE] + args, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = p.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print("perfbench: time limit exceeded", file=sys.stderr)
        sys.exit(3)
    return p.returncode, (out.decode() if capture else "")


def declared():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def result_of(args):
    code, out = run_exe(args, capture=True)
    if code != 0:
        raise SystemExit(f"perfbench: {' '.join(args)} exited with {code}")
    return json.loads(out.strip().splitlines()[-1])


def selftest():
    e2e, layers, workloads = declared()
    failures = []
    for w in workloads:
        for trace, want in (("0", e2e), ("1", layers)):
            names = {}
            for jobs in ("1", "2"):
                res = result_of(["run", "--workload", w, "--seed", "5", "--seconds", "1",
                                 "--trace", trace, "--jobs", jobs, "--tiny"])
                names[jobs] = set(res["metrics"])
                if not res["correct"] or res["failed"] != 0:
                    failures.append(f"{w} trace={trace} jobs={jobs}: outputs not correct")
                if names[jobs] != want:
                    failures.append(f"{w} trace={trace} jobs={jobs}: metric names differ from "
                                    f"BENCHMARK.json: {sorted(names[jobs] ^ want)}")
            if names["1"] != names["2"]:
                failures.append(f"{w} trace={trace}: name set depends on --jobs")
        for trace, metric, counted in (("0", "ok_ratio", lambda v: v < 1.0),
                                       ("1", "failed_ratio", lambda v: v > 0.0)):
            res = result_of(["run", "--workload", w, "--seed", "5", "--seconds", "1",
                             "--trace", trace, "--tiny", "--corrupt"])
            if res["correct"] or res["failed"] < 1 or not counted(res["metrics"][metric]["value"]):
                failures.append(f"{w} trace={trace}: a corrupted output was not counted in {metric}")
    for f in failures:
        print("FAIL", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    build()
    if argv == ["--selftest"]:
        return selftest()
    if argv in (["fixtures"], ["pins"]):
        return subprocess.run([EXE] + argv).returncode
    code, _ = run_exe(["run"] + argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
