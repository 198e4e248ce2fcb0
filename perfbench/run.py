#!/usr/bin/env python3
"""Paper-scale benchmark of the sbgp reproduction (see perfbench/NOTES.md).

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload suite|sweep|replay --seed N \
        --seconds T --trace 0|1 [--domains D]

Builds perfbench/bench.exe from source into .bench_build, generates the
seed's topology once into .bench_inputs/<seed>, runs the workload and
relays its report; the last stdout line is the JSON result.

Run a workload over several seeds and keep the results:

    python3 perfbench/run.py series --workload W --seeds 1,2,3 \
        --out FILE.jsonl [--seconds T] [--trace 0|1]

Compare two result files (parent first); exits 1 when any end-to-end
metric is worse by more than its bound:

    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
INPUTS_DIR = os.path.join(ROOT, ".bench_inputs")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ("suite", "sweep", "replay")
RUN_TIMEOUT_S = 150


class BadInput(Exception):
    pass


def load_json(path):
    with open(path) as f:
        return json.load(f)


def spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def parse_flags(args, allowed, required):
    flags = {}
    it = iter(args)
    for key in it:
        if not key.startswith("--") or key[2:] not in allowed:
            raise BadInput("unknown argument %r" % key)
        name = key[2:]
        if name in flags:
            raise BadInput("--%s given twice" % name)
        try:
            flags[name] = next(it)
        except StopIteration:
            raise BadInput("--%s: missing value" % name)
    for name in required:
        if name not in flags:
            raise BadInput("--%s is required" % name)
    return flags


def nat(name, s):
    if not s.isdigit() or not s.isascii() or len(s) > 15:
        raise BadInput("--%s: expected a non-negative integer, got %r" % (name, s))
    return int(s)


def check_run_flags(flags):
    if flags["workload"] not in WORKLOADS:
        raise BadInput(
            "--workload: unknown workload %r (expected %s)"
            % (flags["workload"], ", ".join(WORKLOADS))
        )
    nat("seed", flags["seed"])
    if not 1 <= nat("seconds", flags["seconds"]) <= 600:
        raise BadInput("--seconds: outside 1..600")
    if flags["trace"] not in ("0", "1"):
        raise BadInput("--trace: expected 0 or 1, got %r" % flags["trace"])
    if "domains" in flags:
        d = nat("domains", flags["domains"])
        if not 1 <= d <= os.cpu_count():
            raise BadInput("--domains: %d is outside 1..%d" % (d, os.cpu_count()))


def build():
    done = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
    )
    if done.returncode != 0 or not os.path.exists(EXE):
        raise SystemExit("perfbench: build failed")


def inputs(seed):
    """The seed's snapshots, generated once per checkout."""
    final = os.path.join(INPUTS_DIR, str(seed))
    if os.path.isdir(final):
        return final
    tmp = "%s.tmp%d" % (final, os.getpid())
    os.makedirs(tmp)
    done = subprocess.run([EXE, "gen", "--seed", str(seed), "--dir", tmp],
                          stdout=sys.stderr)
    if done.returncode != 0:
        raise SystemExit("perfbench: input generation failed")
    try:
        os.rename(tmp, final)
    except OSError:  # another run generated it first
        for f in os.listdir(tmp):
            os.remove(os.path.join(tmp, f))
        os.rmdir(tmp)
    return final


def expected_digest(workload, seed):
    if workload != "suite":
        return None
    for entry in load_json(os.path.join(HERE, "seeds.json"))["seeds"].values():
        if entry["seed"] == seed:
            return entry["suite_digest"]
    return None


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    s = spec()
    want = [m["name"] for m in s["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in s["end_to_end"] + s["per_layer"]}
    got = result["metrics"]
    if sorted(got) != sorted(want):
        raise SystemExit("perfbench: metrics %s differ from BENCHMARK.json"
                         % sorted(set(got) ^ set(want)))
    for name, m in got.items():
        if m["unit"] != units[name]:
            raise SystemExit("perfbench: %s has unit %s, BENCHMARK.json says %s"
                             % (name, m["unit"], units[name]))
    return result


def run(args):
    flags = parse_flags(args, {"workload", "seed", "seconds", "trace", "domains"},
                        ["workload", "seed", "seconds", "trace"])
    check_run_flags(flags)
    build()
    seed = int(flags["seed"])
    cmd = [EXE, "run", "--inputs", inputs(seed)]
    for name in ("workload", "seed", "seconds", "trace", "domains"):
        if name in flags:
            cmd += ["--" + name, flags[name]]
    digest = expected_digest(flags["workload"], seed)
    if digest:
        cmd += ["--expect-digest", digest]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        raise SystemExit("perfbench: bench.exe exited with %d" % proc.returncode)
    result = check_result(lines[-1], flags["trace"] == "1")
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0 if result["correct"] else 1


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def series(args):
    flags = parse_flags(args, {"workload", "seeds", "seconds", "trace", "out"},
                        ["workload", "seeds", "out"])
    seeds = [nat("seeds", s) for s in flags["seeds"].split(",")]
    seconds = flags.get("seconds", str(spec()["run_seconds"]))
    trace = flags.get("trace", "0")
    rows = []
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             flags["workload"], "--seed", str(seed), "--seconds", seconds,
             "--trace", trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            sys.stdout.write(done.stdout)
            raise SystemExit("perfbench: seed %d failed" % seed)
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
        rows.append({"workload": flags["workload"], "seed": seed,
                     "trace": int(trace), "result": result})
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    with open(flags["out"], "a") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    for name in rows[0]["result"]["metrics"]:
        vals = [r["result"]["metrics"][name]["value"] for r in rows]
        print("%-40s median %.6g  spread %.4f" % (name, statistics.median(vals),
                                                 spread(vals)))
    return 0


def verdict(metric, parent, change):
    """better / no worse / worse / unresolved for one metric's runs.

    `parent` and `change` map seed -> value."""
    lower = metric["better"] == "lower"
    a, b = list(parent.values()), list(change.values())
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = (mb - ma) / ma if lower else (ma - mb) / ma
    pairs = [(parent[s], change[s]) for s in parent if s in change] or \
        [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    every_better = all((y < x if lower else y > x) for x in a for y in b)
    if worse_by > metric["bound"]:
        return "worse", ma, mb
    if spread(a) > metric["bound"]:
        return ("better" if every_better else "unresolved"), ma, mb
    if wins >= 0.9 * len(pairs) and abs(mb - ma) > spread(a) * ma:
        return "better", ma, mb
    return "no worse", ma, mb


def compare(args):
    if len(args) != 2:
        raise BadInput("compare takes two result files, parent first")

    def read(path):
        runs = {}
        with open(path) as f:
            for line in f:
                row = json.loads(line)
                if row["trace"] == 0:
                    runs.setdefault(row["workload"], []).append(row)
        return runs

    parent, change = read(args[0]), read(args[1])
    any_worse = False
    for workload in sorted(set(parent) & set(change)):
        for metric in spec()["end_to_end"]:
            name = metric["name"]
            values = [{r["seed"]: r["result"]["metrics"][name]["value"]
                       for r in side[workload]} for side in (parent, change)]
            word, ma, mb = verdict(metric, *values)
            any_worse |= word == "worse"
            print("%-8s %-14s %-11s parent %.6g  change %.6g  (bound %.2f)"
                  % (workload, name, word, ma, mb, metric["bound"]))
    return 1 if any_worse else 0


def main(argv):
    for var in ("SBGP_BATCH", "SBGP_CHECK", "SBGP_DOMAINS"):
        if var in os.environ:
            raise BadInput("%s is set; unset it, it selects a code path "
                           "inside the library" % var)
    if argv[:1] == ["series"]:
        return series(argv[1:])
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    return run(argv)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BadInput as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
