#!/usr/bin/env python3
"""A/B runner for the repo benchmark: two revisions, alternating pairs.

Usage (from anywhere inside the repository):
  python3 tools/ab_perfbench.py PARENT_REV CHANGE_REV \\
      [--workloads sdss_10g,q30_hot] [--pairs 5] [--seconds 55] \\
      [--seed 1] [--aligned] [--digests | --trace] [--workdir DIR]

Each revision is extracted with `git archive` into its own directory
under --workdir (default: a new temporary directory), which must lie
outside the repository, and its perfbench/ is built there as
perfbench/run.py builds it (CMake, RelWithDebInfo). --aligned adds
-falign-functions=64 -Wa,-mbranches-within-32B-boundaries to both
builds, so that a change in code placement alone moves host times less.
A tree already extracted under the work directory is reused and rebuilt
incrementally.

For every workload it runs --pairs untraced pairs (--trace 0); pair i
uses seed --seed + i on both sides and alternates which side runs first.
It then prints, for every end-to-end metric BENCHMARK.json lists (the
change's copy): each pair's change/parent ratio, the pairs the change
won, both medians, the parent's interquartile range, and whether the
change's median stays within the metric's bound of the parent's. It
also prints the share of failed operations per side and each side's
`host:` line. Nothing under perfbench/ is modified.

--trace runs traced pairs instead (--trace 1, same seeds and
alternation) and prints the same columns, bound aside, for every
per-layer metric BENCHMARK.json lists: one traced run per side cannot
resolve a layer moving by a few microseconds, the spread of its
repeats can. A ratio or win is left out ("-") where the parent reads 0.

--digests checks that the change decides exactly as the parent does
instead of timing it: for seeds --seed ... --seed + 4 of every workload
it runs each side once (--seconds 1 --trace 0) and compares every
`digest stream J:` line and the simulated metrics sim_total_s,
sim_query_p99_s, sim_cost_vs_hive and pool_gb_final. It prints
`identical` for a seed whose runs agree, else the first line that
differs, and exits 1 when any seed differs.

Python standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ALIGN_FLAGS = "-falign-functions=64 -Wa,-mbranches-within-32B-boundaries"
RUN_TIMEOUT_S = 170  # as perfbench/run.py
DIGEST_SEEDS = 5
DIGEST_METRICS = ("sim_total_s", "sim_query_p99_s", "sim_cost_vs_hive",
                  "pool_gb_final")


def git(repo, *args):
    return subprocess.run(["git", "-C", repo] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(repo, rev, dest):
    """Extracts `rev` into `dest` with git archive (once)."""
    if os.path.exists(os.path.join(dest, "perfbench", "CMakeLists.txt")):
        return
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", repo, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait():
        sys.exit("git archive %s failed" % rev)


def build(tree, aligned):
    """Configures (once) and builds perfbench as run.py does; returns the
    program's path."""
    build_dir = os.path.join(tree, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if aligned:
            configure.append("-DCMAKE_CXX_FLAGS=" + ALIGN_FLAGS)
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("build failed in " + tree)
    return os.path.join(build_dir, "deepsea_perfbench")


def run_once(binary, workload, seed, seconds, trace=False):
    """One run: (output lines, result JSON)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit("no output from %s (exit %d)" % (" ".join(cmd),
                                                   out.returncode))
    return lines, json.loads(lines[-1])


def decisions(lines, result):
    """What one run decided: its digest lines, then its simulated
    metrics at full precision."""
    return ([l for l in lines if l.startswith("digest stream ")] +
            ["%s=%r" % (m, result["metrics"][m]["value"])
             for m in DIGEST_METRICS])


def compare_digests(binaries, workloads, first_seed):
    """Runs both sides on DIGEST_SEEDS seeds per workload; returns the
    exit status (1 when any seed's decisions differ)."""
    status = 0
    for workload in workloads:
        for seed in range(first_seed, first_seed + DIGEST_SEEDS):
            a, b = (decisions(*run_once(binaries[side], workload, seed, 1))
                    for side in ("parent", "change"))
            if a == b:
                print("%s seed %d: identical (%d lines)" % (workload, seed,
                                                            len(a)),
                      flush=True)
                continue
            status = 1
            a += ["(none)"] * (len(b) - len(a))
            b += ["(none)"] * (len(a) - len(b))
            i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
            print("%s seed %d: differs\n  parent %s\n  change %s" % (
                workload, seed, a[i], b[i]), flush=True)
    return status


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def report(workload, metrics, runs, traced):
    """Prints one workload's table. `runs` maps side -> list of results,
    aligned by pair; traced tables have no bound column."""
    print("\n== %s: %d %spairs ==" % (workload, len(runs["parent"]),
                                      "traced " if traced else ""))
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        print("  %-6s failed_fraction %.6f (%d of %d)%s" % (
            side, failed / attempted if attempted else 0.0, failed, attempted,
            "" if all(r["correct"] for r in runs[side]) else
            ", a correctness check FAILED"))
    width = max(len(m["name"]) for m in metrics)
    print("  %-*s %-34s %5s %12s %12s %11s%s" % (
        width, "metric", "change/parent per pair", "won", "parent_med",
        "change_med", "parent_iqr", "" if traced else " within bound"))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["change"]]
        ratios = " ".join("%.3f" % (y / x) if x else "-" for x, y in zip(a, b))
        won = sum(((y < x) if lower else (y > x)) for x, y in zip(a, b) if x)
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        line = "  %-*s %-34s %2d/%-2d %12.6g %12.6g %11.4g" % (
            width, name, ratios, won, sum(1 for x in a if x), ma, mb, q3 - q1)
        if not traced:
            limit = ma * (1 + m["bound"]) if lower else ma * (1 - m["bound"])
            ok = mb <= limit if lower else mb >= limit
            line += " %s (bound %g)" % ("yes" if ok else "NO", m["bound"])
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workloads", default="sdss_10g,q30_hot")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--aligned", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--digests", action="store_true")
    mode.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir")
    args = parser.parse_args()

    repo = git(os.getcwd(), "rev-parse", "--show-toplevel")
    workdir = os.path.realpath(args.workdir or
                               tempfile.mkdtemp(prefix="ab_perfbench_"))
    if os.path.commonpath([workdir, os.path.realpath(repo)]) == \
            os.path.realpath(repo):
        sys.exit("--workdir must lie outside the repository")
    suffix = "-aligned" if args.aligned else ""
    binaries, trees = {}, {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        sha = git(repo, "rev-parse", "--short=12", rev + "^{commit}")
        trees[side] = os.path.join(workdir, "%s-%s%s" % (side, sha, suffix))
        extract(repo, sha, trees[side])
        binaries[side] = build(trees[side], args.aligned)
        print("%s: %s %s" % (side, rev, sha))
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["per_layer" if args.trace else "end_to_end"]
    print("build: RelWithDebInfo%s" % (" + " + ALIGN_FLAGS if args.aligned
                                         else ""))
    if args.digests:
        return compare_digests(binaries, args.workloads.split(","), args.seed)

    hosts = {}
    progress = "rewrite.us" if args.trace else "cpu_us_per_query"
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                lines, result = run_once(binaries[side], workload,
                                         args.seed + i, args.seconds,
                                         args.trace)
                hosts.setdefault(side, next(
                    (l for l in lines if l.startswith("host:")), "host: ?"))
                runs[side].append(result)
            print("pair %d (seed %d, %s first): %s %.1f / %.1f"
                  % (i, args.seed + i, order[0], progress,
                     runs["parent"][-1]["metrics"][progress]["value"],
                     runs["change"][-1]["metrics"][progress]["value"]),
                  flush=True)
        report(workload, metrics, runs, args.trace)
    print("\nhost block:")
    for side, host in hosts.items():
        print("  %-6s %s" % (side, host))
    return 0


if __name__ == "__main__":
    sys.exit(main())
