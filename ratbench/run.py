#!/usr/bin/env python3
"""ratbench: build and run the ratsim benchmark, repeat it, compare runs.

One run (the benchmark contract; the last stdout line is the summary):
  python3 ratbench/run.py --workload W --seed N --seconds S --trace 0|1

Repeated trials, round-robin over the workloads, written as a result set
(median, quartiles, MAD):
  python3 ratbench/run.py trials --runs 10 [--workloads a,b] [--seconds S]
                                 [--first-seed N] --out FILE

Compare two result sets, one row per workload (default base: the
tracked baseline in ratbench/baseline/):
  python3 ratbench/run.py compare [BASE] NEW

Re-record the default-seed digest table after a deliberate model change:
  python3 ratbench/run.py record-digests

Everything the benchmark builds or writes goes under .bench_build/ in the
checkout: the CMake tree, per-run result files, span files (Chrome
trace-event JSON, loadable in Perfetto) and scratch result caches.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "ratbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "ratbench")
BINARY = os.path.join(BUILD_DIR, "ratbench")
DIGESTS = os.path.join(BENCH_DIR, "digests.txt")
BASELINE = os.path.join(BENCH_DIR, "baseline", "seed-3e226a0.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def fail(msg):
    print("ratbench: " + msg, file=sys.stderr)
    sys.exit(1)


def spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return os.environ.get("RATBENCH_COMMIT", "unknown")


def run_once(workload, seed, seconds, trace):
    """Run the binary once; returns its result file (a dict)."""
    tag = "%s-s%d-t%d" % (workload, seed, trace)
    results = os.path.join(OUT_DIR, "results")
    tmp = os.path.join(OUT_DIR, "tmp", "%s-%d" % (tag, os.getpid()))
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out,
           "--tmp", tmp, "--digests", DIGESTS, "--commit", commit()]
    if trace:
        spans = os.path.join(OUT_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, tag + ".json")]
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    shutil.rmtree(tmp, ignore_errors=True)
    if code != 0:
        fail("benchmark exited with code %d" % code)
    with open(out) as f:
        return json.load(f)


def summary(result, trace):
    """The contract's one-line summary of one run."""
    names = spec()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in names:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing from the run" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s: unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def parse_run_args(argv):
    opts = {}
    it = iter(argv)
    for a in it:
        if a not in ("--workload", "--seed", "--seconds", "--trace"):
            fail("unknown argument %r" % a)
        opts[a[2:]] = next(it, None)
    if None in opts.values() or len(opts) != 4:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    try:
        seed, seconds, trace = (int(opts["seed"]), int(opts["seconds"]),
                                int(opts["trace"]))
    except ValueError:
        fail("--seed, --seconds and --trace take whole numbers")
    if seed < 0 or seconds < 1 or trace not in (0, 1):
        fail("need --seed >= 0, --seconds >= 1, --trace 0|1")
    return opts["workload"], seed, seconds, trace


# ---- repeated trials and compare ---------------------------------------

def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    mad = statistics.median([abs(v - med) for v in values])
    return {"median": med, "q1": q1, "q3": q3, "mad": mad,
            "iqr_frac": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def trials(argv):
    cfg = spec()
    workloads = [w["name"] for w in cfg["workloads"]]
    runs, seconds, first, out = 10, cfg["run_seconds"], 1, None
    it = iter(argv)
    for a in it:
        v = next(it, None)
        if v is None:
            fail("%s needs a value" % a)
        if a == "--workloads":
            workloads = v.split(",")
        elif a == "--runs":
            runs = int(v)
        elif a == "--seconds":
            seconds = int(v)
        elif a == "--first-seed":
            first = int(v)
        elif a == "--out":
            out = v
        else:
            fail("unknown argument %r" % a)
    if not out:
        fail("trials needs --out FILE")
    build()
    result = {"benchmark": "ratbench", "commit": commit(),
              "seconds": seconds, "workloads": {}}
    # Round-robin over the workloads, so slow drift of the host's speed
    # spreads over every workload's runs instead of landing on one.
    per_run = {w: [] for w in workloads}
    for i in range(runs):
        for w in workloads:
            r = run_once(w, first + i, seconds, 0)
            per_run[w].append({"seed": first + i,
                               "attempted": r["attempted"],
                               "failed": r["failed"], "host": r["host"],
                               "metrics": {k: v["value"]
                                           for k, v in r["metrics"].items()}})
    names = [m["name"] for m in cfg["end_to_end"]] + ["fail_rate"]
    for w in workloads:
        result["workloads"][w] = {
            "runs": per_run[w],
            "stats": {n: stats([p["metrics"][n] for p in per_run[w]])
                      for n in names}}
        print_stats(w, result["workloads"][w]["stats"], cfg)
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


def print_stats(workload, st, cfg):
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    print("\n%s" % workload)
    print("  %-14s %12s %12s %12s %10s %8s %6s" %
          ("metric", "median", "q1", "q3", "mad", "iqr/med", "bound"))
    for name, s in st.items():
        print("  %-14s %12.6g %12.6g %12.6g %10.4g %8.4f %6s" %
              (name, s["median"], s["q1"], s["q3"], s["mad"], s["iqr_frac"],
               bounds.get(name, "-")))
    sys.stdout.flush()


def compare(argv):
    if len(argv) == 1:
        base_path, new_path = BASELINE, argv[0]
    elif len(argv) == 2:
        base_path, new_path = argv
    else:
        fail("usage: run.py compare [BASE] NEW")
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    cfg = spec()
    print("base %s (%s)  new %s (%s)" % (base_path, base.get("commit"),
                                         new_path, new.get("commit")))
    regressed = False
    for w in cfg["workloads"]:
        name = w["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            print("%-11s  (not in both result sets)" % name)
            continue
        cells = []
        for m in cfg["end_to_end"]:
            b = base["workloads"][name]["stats"][m["name"]]
            n = new["workloads"][name]["stats"][m["name"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (n["median"] - b["median"]) / b["median"]
            spread = max(b["iqr_frac"], n["iqr_frac"])
            bvals, nvals = b["values"], n["values"]
            all_better = (max(nvals) < min(bvals) if sign > 0
                          else min(nvals) > max(bvals))
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif -worse > spread and (all_better or -worse > m["bound"]):
                verdict = "improved"
            else:
                verdict = "unchanged"
            cells.append("%s %+.1f%% %s" % (m["name"], -100 * worse, verdict))
        print("%-11s  %s" % (name, " | ".join(cells)))
    print("(+x% = better; a metric whose spread exceeds its bound is "
          "'unresolved', not 'unchanged')")
    sys.exit(1 if regressed else 0)


def record_digests():
    build()
    lines = []
    for w in (w["name"] for w in spec()["workloads"]):
        tmp = os.path.join(OUT_DIR, "tmp", "digests-%d" % os.getpid())
        r = subprocess.run([BINARY, "--workload", w, "--seed", "1",
                            "--seconds", "1", "--trace", "0",
                            "--record-digests", "--tmp", tmp],
                           capture_output=True, text=True)
        shutil.rmtree(tmp, ignore_errors=True)
        if r.returncode != 0:
            fail("recording %s failed:\n%s" % (w, r.stderr))
        lines += r.stdout.splitlines()
    with open(DIGESTS, "w") as f:
        f.write("\n".join(lines) + "\n")
    print("wrote %d digests to %s" % (len(lines), DIGESTS))


def main(argv):
    if argv[:1] == ["trials"]:
        return trials(argv[1:])
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["record-digests"]:
        return record_digests()
    workload, seed, seconds, trace = parse_run_args(argv)
    build()
    result = run_once(workload, seed, seconds, trace)
    line = json.dumps(summary(result, trace))
    sys.stdout.flush()
    print(line)


if __name__ == "__main__":
    main(sys.argv[1:])
