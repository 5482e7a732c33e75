#!/usr/bin/env python3
"""fx10 benchmark: time to verdict of the release `fx10` binary.

    python3 perfbench/run.py --workload explore|static|lint|run \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `fx10` and the benchmark's own
helper from source, generates the workload's inputs from the seed, and
sends requests to `fx10` one at a time (a closed loop with one client)
until the time is up. Every answer is checked. With `--trace 0` the last
line of stdout is a JSON object holding the end-to-end metrics; with
`--trace 1` the same requests are also replayed in-process through each
layer's public functions, and the object holds the per-layer metrics.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAMS = os.path.join(ROOT, "programs")
WORKLOADS = ("explore", "static", "lint", "run")
SUITE = ("stream", "fragstream", "sor", "series", "sparsemm", "crypt", "moldyn",
         "linpack", "raytracer", "montecarlo", "mg", "mapreduce", "plasma")
# Exploration cap: the CLI's default of 200,000 truncates chaos_grid.
MAX_STATES = 1_000_000
# Passes over the request list per 20 s of --seconds. A pass takes about
# 4-7 s on explore, 3.5-6.5 s on static, 3-5.5 s on lint and 1-1.8 s on
# run, as the machine drifts.
# Fixing the count, rather than stopping at a deadline, keeps the sample
# count, and with it the tail percentile, the same on every run. The
# counts also keep the tail off the edge between two requests' samples:
# on lint it is the middle sample of the second-slowest request; on run,
# an inner sample of the racy tree's `--jobs 2` slow mode, not the
# fastest of them.
PASSES_PER_20S = {"explore": 4, "static": 3, "lint": 7, "run": 22}
# At least this many passes, so that each request's median shrugs off
# one disturbed pass.
MIN_PASSES = 3
# Setups per run; setup_s is their median.
SETUPS = 7
# The tail is the highest percentile with at least this many samples
# beyond it.
TAIL_BEYOND = 10
# Flags the golden lint reports were made with (as in the CLI's tests).
GOLDEN_FLAGS = {"lint_stuck_loop.fx10": ["--input", "0,1"]}


class BenchError(Exception):
    """The benchmark cannot run here; it exits non-zero without a result."""


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def jobs():
    """Jobs or shards per request: 2, and never more than the machine has."""
    return max(1, min(2, nproc()))


# ---------------------------------------------------------------- build

def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds the release `fx10` binary and the helper; returns their paths."""
    for need in ("Cargo.toml", "crates", "programs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"not a checkout of the repository: {need} is missing")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "fx10-cli"],
                ["cargo", "build", "--release", "--offline", "-q",
                 "--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "fx10"), os.path.join(rel, "fx10-perfbench")


# ---------------------------------------------------------------- setup

def read_expected(dir_, name):
    with open(os.path.join(dir_, name)) as f:
        return f.read()


def table(text):
    return [l.split() for l in text.splitlines() if l.strip() and not l.startswith("#")]


def setup(args, fx10, helper):
    """Generates inputs, loads expected answers, warms up; returns the
    request list and what the checks need."""
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tiny = args.scale == "tiny"
    rng = random.Random(args.seed)
    exp = args.expected_dir
    J = str(jobs())
    reqs = []  # (id, argv tail, check kind, check data)

    def copy(name, dest=work):
        os.makedirs(dest, exist_ok=True)
        shutil.copy(os.path.join(PROGRAMS, name), os.path.join(dest, name))
        return os.path.join(dest, name)

    generated = []
    if args.workload != "explore":
        out = subprocess.run([helper, "gen", "--workload", args.workload, "--seed", str(args.seed),
                              "--scale", args.scale, "--out", work],
                             capture_output=True, text=True)
        if out.returncode != 0:
            raise BenchError(f"input generation failed: {out.stderr.strip()}")
        for line in out.stdout.splitlines():
            name, kind, arr = line.split("\t")
            generated.append((os.path.join(work, name), kind,
                              None if arr == "-" else [int(x) for x in arr.split(",")]))

    if args.workload == "explore":
        grid_name, wide_name = ("fork_join.fx10",) * 2 if tiny else ("chaos_grid.fx10", "chaos_wide.fx10")
        grid, wide = copy(grid_name), os.path.join(work, wide_name)
        if wide_name != grid_name:
            copy(wide_name)
        cap = ["--max-states", str(MAX_STATES)]
        grid_exp = read_expected(exp, grid_name.replace(".fx10", ".explore.txt"))
        wide_exp = read_expected(exp, wide_name.replace(".fx10", ".explore.txt"))
        reqs = [
            ("check:grid", ["check", grid, "--jobs", J] + cap, "check", grid_exp),
            ("check:wide", ["check", wide, "--jobs", J] + cap, "check", wide_exp),
            ("shards:pipe", ["explore", wide, "--shards", J] + cap, "shards", wide_exp),
            ("shards:tcp", ["explore", wide, "--shards", J, "--listen", "127.0.0.1:0"] + cap,
             "shards", wide_exp),
        ]
        extra = {"grid": grid, "wide": wide}
    elif args.workload == "static":
        suite = {(r[0], r[1]): (r[2], r[3]) for r in table(read_expected(exp, "suite.txt"))}
        for path, _, _ in generated:
            base = os.path.basename(path)
            reqs.append((f"mhp:{base}", ["mhp", path], "mhp", None))
            reqs.append((f"mhp-ci:{base}", ["mhp", path, "--ci"], "mhp", None))
        for name in (("stream", "mg") if tiny else SUITE):
            reqs.append((f"bench:{name}", ["bench", name], "bench", suite[(name, "cs")]))
            reqs.append((f"bench-ci:{name}", ["bench", name, "--ci"], "bench", suite[(name, "ci")]))
        extra = {}
    elif args.workload == "lint":
        fixtures = sorted(f for f in os.listdir(PROGRAMS) if f.startswith("lint_") and f.endswith(".fx10"))
        if tiny:
            fixtures = fixtures[:2]
        golden = os.path.join(PROGRAMS, "golden")
        # The fixtures are checked once after timing, not timed: each
        # takes about 1 ms, nearly all of it process spawn, whose drift
        # between runs would set the latency median instead of lint.
        untimed = []
        for f in fixtures:
            # Run from a directory where the fixture's relative path is the
            # one the golden files print.
            copy(f, os.path.join(work, "programs"))
            with open(os.path.join(golden, f.replace(".fx10", ".txt"))) as g:
                untimed.append((f"lint:{f}", ["lint", os.path.join("programs", f)] + GOLDEN_FLAGS.get(f, []),
                                "golden", g.read()))
        for path, _, _ in generated:
            reqs.append((f"lint:{os.path.basename(path)}", ["lint", path], "stable", None))
        extra = {"untimed": untimed}
    else:  # run
        pinned = {r[0]: [int(x) for x in r[1].split(",")] for r in table(read_expected(exp, "run.txt"))}
        inputs = list(generated) + [(copy("rt_fanout.fx10"), "race-free", pinned["rt_fanout.fx10"]),
                                    (copy("rt_racy.fx10"), "racy", None)]
        for path, kind, arr in inputs:
            base = os.path.basename(path)
            reqs.append((f"elide:{base}", ["run", path, "--elide"], "elide", (kind, arr)))
            reqs.append((f"jobs:{base}", ["run", path, "--jobs", J], "jobs",
                         (kind, arr, f"elide:{base}")))
        extra = {"racy": [p for p, k, _ in inputs if k == "racy"]}

    # The request order is drawn from the seed once per run.
    rng.shuffle(reqs)
    # Warm-up: page the binary in.
    if spawn(fx10, ["parse", os.path.join(PROGRAMS, "example22.fx10")], ROOT).code != 0:
        raise BenchError("fx10 parse failed during warm-up")
    return work, reqs, extra


# ---------------------------------------------------------------- requests

def child_env():
    """The environment of every process the benchmark starts: temporary
    files (the shard checkpoints `fx10 explore --shards` keeps) stay
    inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


class Sample:
    __slots__ = ("rid", "ms", "cpu_s", "rss_mb", "code", "out")


def spawn(fx10, argv, cwd):
    """Runs one request; times it from spawn to exit and reads its
    resource usage, shard workers included (they are its children)."""
    out_path = os.path.join(ROOT, ".bench_work", "stdout.txt")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    fd = os.open(out_path, os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, fd, 1),
               (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    here = os.getcwd()
    os.chdir(cwd)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(fx10, [fx10] + argv, child_env(), file_actions=actions)
        _, status, ru = os.wait4(pid, 0)
        ms = (time.perf_counter() - t0) * 1e3
    finally:
        os.chdir(here)
    with os.fdopen(fd, "rb") as out:
        out.seek(0)
        text = out.read().decode()
    s = Sample()
    s.ms, s.code, s.out = ms, os.waitstatus_to_exitcode(status), text
    s.cpu_s = ru.ru_utime + ru.ru_stime
    s.rss_mb = ru.ru_maxrss / 1024.0
    return s


def cwd_of(args, work):
    return work if args.workload == "lint" else ROOT


def run_pass(args, fx10, work, reqs):
    samples = []
    for rid, argv, _, _ in reqs:
        s = spawn(fx10, argv, cwd_of(args, work))
        s.rid = rid
        samples.append(s)
    return samples


# ---------------------------------------------------------------- checks

def explore_counts(expected):
    m = re.match(r"(\d+) state\(s\) visited, (\d+) terminal\(s\), deadlock-free: (\w+)\n"
                 r"dynamic MHP pairs \((\d+)\):", expected)
    return int(m.group(1)), m.group(3), int(m.group(4))


def pair_block(out, header):
    """The `(x, y)` lines under `header`, as a set of unordered pairs."""
    lines = out.splitlines()
    for i, l in enumerate(lines):
        if l.startswith(header):
            n = int(re.search(r"\((\d+)\)", l).group(1))
            pairs = set()
            for x in lines[i + 1:i + 1 + n]:
                m = re.match(r"\s+\((\S+), (\S+)\)", x)
                if m:
                    pairs.add(frozenset((m.group(1), m.group(2))))
            return pairs if len(pairs) <= n else None
    return None


def run_report(out):
    steps = re.search(r"^completed in (\d+) steps$", out, re.M)
    arr = re.search(r"^a = \[(.*)\]$", out, re.M)
    if not steps or not arr:
        return None
    cells = [int(x) for x in arr.group(1).split(",") if x.strip()]
    races = set()
    for m in re.finditer(r"^  \((\S+), (\S+)\) on a\[(\d+)\]$", out, re.M):
        races.add(frozenset((m.group(1), m.group(2))))
    return int(steps.group(1)), cells, races


def check_sample(s, kind, data, by_rid, first_out):
    """Returns why `s` is wrong, or None."""
    if s.code != 0:
        return f"exit code {s.code}"
    out = s.out
    if kind == "check":
        states, deadlock_free, pairs = explore_counts(data)
        want = f"dynamic pairs: {pairs} ({states} states), static pairs: "
        if want not in out or f"deadlock-free: {deadlock_free}" not in out \
                or "soundness check PASSED" not in out:
            return "answer differs from the expected exploration"
    elif kind == "shards":
        body = out.split("\n", 1)[1] if "\n" in out else ""
        if not out.startswith("shards: ") or body != data:
            return "sharded answer differs from the reference exploration"
    elif kind == "bench":
        m = re.search(r"iters (\S+)\s+pairs (\S+)", out)
        if not m or (m.group(1), m.group(2)) != data:
            return f"suite answer {m and m.groups()} != expected {data}"
    elif kind == "golden":
        if out != data:
            return "lint report differs from its golden file"
    elif kind in ("mhp", "stable"):
        if kind == "mhp" and "\nMHP pairs (" not in out:
            return "no MHP pair list"
        if kind == "stable" and not re.search(r"\d+ errors?, \d+ warnings?, \d+ notes?", out):
            return "no lint summary line"
        if s.rid in first_out and first_out[s.rid] != out:
            return "answer differs between passes"
    elif kind == "elide":
        rep = run_report(out)
        if rep is None:
            return "no run report"
        race_kind, arr = data
        if arr is not None and rep[1] != arr:
            return "elided array differs from the expected array"
    elif kind == "jobs":
        race_kind, arr, oracle = data
        rep, ref = run_report(out), run_report(by_rid[oracle].out) if oracle in by_rid else None
        if rep is None or ref is None:
            return "no run report"
        if rep[0] != ref[0]:
            return "steps differ from elision's"
        if race_kind == "race-free" and (rep[1] != ref[1] or rep[1] != arr or rep[2]):
            return "race-free run differs from elision or reports a race"
        if race_kind == "racy" and rep[2] != ref[2]:
            return "detected race pairs differ from elision's"
    return None


def check_pass(samples, reqs, first_out):
    spec = {rid: (kind, data) for rid, _, kind, data in reqs}
    by_rid = {s.rid: s for s in samples}
    failures = {}
    for s in samples:
        why = check_sample(s, *spec[s.rid], by_rid, first_out)
        if why:
            failures[s.rid] = why
        first_out.setdefault(s.rid, s.out)
    return failures


def post_checks(args, fx10, work, reqs, first_out, extra):
    """Cross-checks and untimed requests, made once after timing;
    returns {request id: why}."""
    failures = {}
    for rid, argv, kind, data in extra.get("untimed", []):
        s = spawn(fx10, argv, cwd_of(args, work))
        s.rid = rid
        why = check_sample(s, kind, data, {}, {})
        if why:
            failures[rid] = why
    if args.workload == "static":
        # The default Naive solver must agree with the worklist solver:
        # same pair list and report, below the header line that names the
        # solver's iteration counts.
        for rid, argv, kind, _ in reqs:
            if kind != "mhp" or rid not in first_out:
                continue
            ref = spawn(fx10, argv + ["--solver", "worklist"], ROOT)
            if ref.code != 0 or ref.out.partition("\n")[2] != first_out[rid].partition("\n")[2]:
                failures[rid] = "Naive and worklist pair sets differ"
    if args.workload == "run":
        # Detected races must lie within the static MHP relation.
        for path in extra["racy"]:
            st = spawn(fx10, ["mhp", path], ROOT)
            static = pair_block(st.out, "MHP pairs") if st.code == 0 else None
            for rid in (f"elide:{os.path.basename(path)}", f"jobs:{os.path.basename(path)}"):
                rep = run_report(first_out.get(rid, ""))
                if static is None or rep is None or not rep[2] <= static:
                    failures[rid] = "detected races outside static MHP"
    return failures


# ---------------------------------------------------------------- metrics

def tail(values, per_request_medians):
    """The highest percentile with TAIL_BEYOND samples beyond it, with
    its name. With fewer than 2 * TAIL_BEYOND samples that percentile
    would lie below the median, so the tail is the slowest request's
    median latency instead."""
    v = sorted(values)
    n = len(v)
    if n < 2 * TAIL_BEYOND:
        return max(per_request_medians), f"slowest request's median, over {n}"
    k = n - TAIL_BEYOND
    return v[k - 1], f"p{100.0 * k / n:.1f} of {n}"


def machine():
    def first_line(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip().splitlines()[0]
        except (OSError, IndexError):
            return "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "rustc": first_line(["rustc", "--version"]),
            "commit": first_line(["git", "rev-parse", "HEAD"])}


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--expected-dir", default=os.path.join(HERE, "expected"),
                    help="directory of expected answers")
    args = ap.parse_args()

    try:
        fx10, helper = build()
        setup_times = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            work, reqs, extra = setup(args, fx10, helper)
            setup_times.append(time.perf_counter() - t0)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    caps = {"seed": args.seed, "max_states": MAX_STATES, "jobs": jobs(), "shards": jobs(),
            "transport": "pipe and tcp 127.0.0.1:0", "witness_states": 10000,
            "solver": "naive", "schedule_seed": 0, "scale": args.scale}
    print("machine: " + json.dumps(machine()))
    print("caps: " + json.dumps(caps))
    print("requests: " + json.dumps([" ".join(a) for _, a, _, _ in reqs]))
    if extra.get("untimed"):
        print("untimed: " + json.dumps([" ".join(a) for _, a, _, _ in extra["untimed"]]))

    first_out, failures_per_pass, passes = {}, [], []
    start = time.perf_counter()
    # Traced runs make two CLI passes and spend the rest in the replay.
    n_passes = 2 if args.trace else max(MIN_PASSES, round(PASSES_PER_20S[args.workload] * args.seconds / 20))
    while len(passes) < n_passes:
        samples = run_pass(args, fx10, work, reqs)
        passes.append(samples)
        failures_per_pass.append(check_pass(samples, reqs, first_out))
    late = post_checks(args, fx10, work, reqs, first_out, extra)

    # A late failure of a timed request fails it in every pass; an
    # untimed request is attempted once.
    timed = {rid for rid, _, _, _ in reqs}
    attempted = sum(len(ss) for ss in passes) + len(extra.get("untimed", []))
    failed = sum(len(set(f) | (set(late) & timed)) for f in failures_per_pass) + len(set(late) - timed)
    for f in failures_per_pass + [late]:
        for rid, why in sorted(f.items()):
            print(f"FAILED {rid}: {why}", file=sys.stderr)

    if args.trace == 0:
        lat = [s.ms for ss in passes for s in ss]

        def per_request(field):
            """Each request's median across passes, so one disturbed pass
            does not move it."""
            return [statistics.median(getattr(ss[i], field) for ss in passes)
                    for i in range(len(reqs))]

        tail_ms, tail_name = tail(lat, per_request("ms"))
        print(f"latency_tail_ms is the {tail_name} request samples")
        metrics = {
            "wall_s": (sum(per_request("ms")) / 1e3, "s"),
            # The upper median over requests: a real request's latency,
            # never the mean of a cheap and an expensive request.
            "latency_p50_ms": (statistics.median_high(per_request("ms")), "ms"),
            "latency_tail_ms": (tail_ms, "ms"),
            "cpu_s": (sum(per_request("cpu_s")), "s"),
            "peak_rss_mb": (max(s.rss_mb for ss in passes for s in ss), "MB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        print(f"failed_frac: {failed / attempted}")
        emit(failed == 0, attempted, failed, metrics)
        return 0

    # Traced run: replay the same requests in-process.
    listing = os.path.join(work, "requests.tsv")
    with open(listing, "w") as f:
        for rid, argv, _, _ in reqs:
            f.write(rid + "\t" + " ".join(argv) + "\n")
    cmd = [helper, "trace", "--workload", args.workload, "--requests", listing, "--fx10", fx10,
           "--work", work, "--spans", os.path.join(work, "spans.jsonl"),
           "--seconds", str(max(0.0, args.seconds - (time.perf_counter() - start)))]
    if args.workload == "explore":
        cmd += ["--grid", extra["grid"], "--wide", extra["wide"]]
    r = subprocess.run(cmd, cwd=cwd_of(args, work), env=child_env(), capture_output=True, text=True)
    if r.returncode != 0:
        print(f"perfbench: traced replay failed: {r.stderr.strip()}", file=sys.stderr)
        emit(False, attempted, attempted, {})
        return 0
    traced = json.loads(r.stdout.strip().splitlines()[-1])
    # Minimum over passes on both sides: `--jobs 2` explorer and runtime
    # times are bimodal, and the minimum compares like with like.
    cli_ms = {rid: min(s.ms for ss in passes for s in ss if s.rid == rid) for rid, _, _, _ in reqs}
    layer = traced["metrics"]
    layer["cli.self_ms"] = sum(cli_ms[rid] - ms for rid, ms in traced["request_min_ms"].items())
    print(f"traced passes: {traced['passes']}, counts repeat exactly: {traced['counts_repeat']}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    ok = failed == 0 and traced["counts_repeat"]
    emit(ok, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
