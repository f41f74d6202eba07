"""Benchmark for the ``ramsey`` package: cold-process workloads, end-to-end
metrics, and a traced run for the per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout.  Every repetition is a fresh
``python`` child (child.py), because users pay interpreter start, imports
and empty module caches on every CLI run; an in-process loop would time the
package's caches instead of the search.  A run repeats the workload until
``--seconds`` have passed and at least MIN_REPS repetitions are done, then
reports medians.

Times are reported at a reference CPU speed.  The host's CPUs change speed
by tens of percent over seconds to minutes, so every repetition runs pinned
to the workload's CPUs beside a speed probe (probe.py) on each of them, and
its times are divided by how much slower than REF_ROUND_NS the probe ran
meanwhile.  The unscaled times are kept in the report line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
untraced repetitions.  With ``--trace 1`` it alternates untraced and traced
repetitions and carries the per-layer metrics from the traced ones, plus the
tracing overhead (traced minus untraced wall time).  The line before it is a
JSON report with quartiles, sample counts, every repetition's load average
and the machine record.  fail_frac is the result line's failed over
attempted; an answer that is wrong, a child that exits non-zero and a
witness that does not verify all count as failed.  The exit code is 0 only
when every answer was correct.

``--smoke`` runs each workload on tiny inputs and checks the benchmark
itself: metric names and units, traced answers equal to untraced ones, and
counts that repeat between two traced runs.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]  # the parent checks answers with ramsey itself

from workloads import WORKLOADS, load_expected  # noqa: E402

MIN_REPS = 3
# probe round CPU time at which a repetition's times are reported unscaled: near
# the fastest rounds seen beside a repetition on the machine the benchmark was
# defined on (Intel Xeon, 2 vCPUs, Python 3.11)
REF_ROUND_NS = 55_000
RUN_LIMIT_S = 150  # stop starting repetitions after this; a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CHECK_KINDS = ("matching", "star", "biclique", "generic")
PER_LAYER_UNITS = {
    "graphs.canonical_form.calls": "count",
    "graphs.canonical_form.ns_per_call": "ns",
    "graphs.embeds.calls": "count",
    "graphs.embeds.ns_per_call": "ns",
    "graphs.embeds.true_frac": "fraction",
    "enumeration.classes": "count",
    "enumeration.busy_s": "s",
    "enumeration.candidates_per_class": "ratio",
    "arrowing.search.calls": "count",
    "arrowing.search.nodes": "count",
    "arrowing.search.nodes_per_s": "1/s",
    "arrowing.search.busy_s": "s",
    "arrowing.search.witnessed": "count",
    "arrowing.search.exhausted": "count",
    **{f"arrowing.check.{k}.{m}": u for k in CHECK_KINDS
       for m, u in (("calls", "count"), ("ns_per_call", "ns"), ("prune_frac", "fraction"))},
    "arrowing.parallel.pools": "count",
    "arrowing.parallel.tasks": "count",
    "arrowing.parallel.shutdown_wait_s": "s",
    "bounds.sweep.graphs": "count",
    "bounds.sweep.max_graph_share": "fraction",
    "families.graph_from_name.ns_per_call": "ns",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "fraction",
}
# per-layer metrics derived from times, which vary between traced repetitions;
# every other per-layer metric must repeat exactly
TIMED_LAYER_UNITS = {"ns", "s", "1/s"}
TIMED_LAYER_METRICS = {"bounds.sweep.max_graph_share", "trace.span_coverage"}

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _git(*args) -> str | None:
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fp:
            models = [ln.split(":", 1)[1].strip() for ln in fp if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "dirty": None if status is None else bool(status),
    }


# ---------------------------------------------------------------------------
# speed probes
# ---------------------------------------------------------------------------

class SpeedProbes:
    """One probe.py process per CPU the repetitions run on.

    The host's CPU speed drifts by tens of percent over seconds to minutes
    (shared hardware), and the drift is not shared between CPUs, so a probe
    must run on the measured CPU at the same time.  slowdown() is how much
    slower than REF_ROUND_NS that CPU ran during a time window.
    """

    def __init__(self, workdir: Path, cpus: list[int]):
        self.logs = [workdir / f"probe-{cpu}.log" for cpu in cpus]
        self.procs = [subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(cpu), str(log)],
                                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
                      for cpu, log in zip(cpus, self.logs)]
        self.samples: list[tuple[list[float], list[int]]] = []

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
        for log in self.logs:
            rows = [line.split() for line in log.read_text().splitlines()]
            rows = [r for r in rows if len(r) == 2]  # the last line may be cut by the kill
            self.samples.append(([int(t) / 1e9 for t, _ in rows], [int(ns) for _, ns in rows]))

    def slowdown(self, t0: float, t1: float) -> float:
        ratios = []
        for times, ns in self.samples:
            lo, hi = bisect.bisect_left(times, t0), bisect.bisect_right(times, t1)
            window = ns[lo:hi] or ns[max(0, lo - 5):lo + 5]
            if window:
                # the mean, not the median: the time of a fixed amount of work
                # is the sum over its instants, slow ones included
                ratios.append(statistics.mean(window) / REF_ROUND_NS)
        return statistics.mean(ratios) if ratios else 1.0


def normalise(reps: list[dict], probes: SpeedProbes) -> None:
    """Rescale each repetition's times to the reference CPU speed, and flag
    the repetitions during which the 1-minute load average, less the
    probes' own load, exceeded the CPU count."""
    for rep in reps:
        load = max(rep["load_before"], rep["load_after"]) - len(probes.procs)
        rep["loaded"] = load > os.cpu_count()
        rep["slowdown"] = probes.slowdown(rep["end"] - rep["wall_raw_s"], rep["end"])
        for k in ("wall", "cpu", "setup"):
            if k + "_raw_s" in rep:
                rep[k + "_s"] = rep[k + "_raw_s"] / rep["slowdown"]


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def run_rep(workdir: Path, name: str, inputs: dict, traced: bool, timeout: float) -> dict:
    """Spawn one cold child and measure it from spawn to exit."""
    fd, spec_path = tempfile.mkstemp(dir=workdir, suffix=".spec.json")
    result_path = spec_path.replace(".spec.json", ".result.json")
    with os.fdopen(fd, "w") as fp:
        json.dump({"workload": name, "inputs": inputs, "traced": traced, "src": str(SRC)}, fp)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    load_before = os.getloadavg()
    with open(spec_path + ".stderr", "w+") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), spec_path, result_path],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=err, stderr=err, process_group=0)
        # a watchdog kills the child's whole process group, pool workers too
        watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()[-2000:]
    load_after = os.getloadavg()
    rep = {
        "traced": traced,
        "rc": proc.returncode,
        "wall_raw_s": t1 - t0,
        "cpu_raw_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "load_before": load_before[0],
        "load_after": load_after[0],
        "end": t1,
    }
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path) as fp:
            result = json.load(fp)
        rep["setup_raw_s"] = result["start"] - t0
        rep["result"] = result
    else:
        rep["stderr"] = stderr
    return rep


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _dur(span: list) -> float:
    return (span[2] - span[1]) / 1e9


def _span_tree(spans: list) -> tuple[list[float], list[int]]:
    """Self seconds and self canonical_form calls of each span."""
    self_s = [_dur(s) for s in spans]
    self_cf = [s[4]["cf"] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= _dur(s)
            self_cf[s[3]] -= s[4]["cf"]
    return self_s, self_cf


def layer_metrics(rep: dict) -> dict:
    """Per-layer metrics of one traced repetition, without trace.overhead_s."""
    trace = rep["result"]["trace"]
    c = trace["counters"]
    spans = trace["spans"]
    self_s, self_cf = _span_tree(spans)

    def calls(name):
        return c.get(name + ".calls", 0)

    def ns_per_call(name):
        return c.get(name + ".ns", 0) / calls(name) if calls(name) else 0.0

    def true_frac(name):
        return c.get(name + ".true", 0) / calls(name) if calls(name) else 0.0

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    m = {
        "graphs.canonical_form.calls": calls("graphs.canonical_form"),
        "graphs.canonical_form.ns_per_call": ns_per_call("graphs.canonical_form"),
        "graphs.embeds.calls": calls("graphs.embeds"),
        "graphs.embeds.ns_per_call": ns_per_call("graphs.embeds"),
        "graphs.embeds.true_frac": true_frac("graphs.embeds"),
    }

    levels = named("enumeration.level")
    # a level that called canonical_form built its classes; one that did not
    # was answered from a cache
    built = [i for i in levels if self_cf[i] > 0]
    kept = sum(spans[i][4]["classes"] for i in built)
    m["enumeration.classes"] = kept
    outermost = [i for i in levels if spans[i][3] < 0 or spans[spans[i][3]][0] != spans[i][0]]
    m["enumeration.busy_s"] = sum(_dur(spans[i]) for i in outermost)
    m["enumeration.candidates_per_class"] = sum(self_cf[i] for i in built) / kept if kept else 0.0

    searches = [spans[i] for i in named("arrowing.search")]
    busy = sum(_dur(s) for s in searches)
    nodes = sum(s[4]["nodes"] for s in searches)
    m["arrowing.search.calls"] = len(searches)
    m["arrowing.search.nodes"] = nodes
    m["arrowing.search.nodes_per_s"] = nodes / busy if busy else 0.0
    m["arrowing.search.busy_s"] = busy
    m["arrowing.search.witnessed"] = sum(1 for s in searches if s[4]["witnessed"])
    m["arrowing.search.exhausted"] = sum(1 for s in searches if not s[4]["witnessed"])

    for kind in CHECK_KINDS:
        name = f"arrowing.check.{kind}"
        m[name + ".calls"] = calls(name)
        m[name + ".ns_per_call"] = ns_per_call(name)
        m[name + ".prune_frac"] = true_frac(name)

    m["arrowing.parallel.pools"] = c.get("arrowing.parallel.pools", 0)
    m["arrowing.parallel.tasks"] = c.get("arrowing.parallel.tasks", 0)
    m["arrowing.parallel.shutdown_wait_s"] = c.get("arrowing.parallel.shutdown_wait.ns", 0) / 1e9

    graphs = [_dur(spans[i]) for i in named("bounds.sweep.graph")]
    sweep_s = sum(_dur(spans[i]) for i in named("bounds.sweep"))
    m["bounds.sweep.graphs"] = len(graphs)
    m["bounds.sweep.max_graph_share"] = max(graphs) / sweep_s if graphs and sweep_s else 0.0

    m["families.graph_from_name.ns_per_call"] = ns_per_call("families.graph_from_name")
    m["cli.import_s"] = rep["result"]["import_s"]
    # the spans' self times against everything after set-up, exit included
    m["trace.span_coverage"] = sum(self_s) / (rep["end"] - rep["result"]["start"])
    for k, v in m.items():
        if PER_LAYER_UNITS[k] in ("s", "ns"):
            m[k] = v / rep["slowdown"]
        elif PER_LAYER_UNITS[k] == "1/s":
            m[k] = v * rep["slowdown"]
    return m


def self_times(rep: dict) -> dict:
    spans = rep["result"]["trace"]["spans"]
    out: dict[str, float] = {}
    for s, t in zip(spans, _span_tree(spans)[0]):
        out[s[0]] = out.get(s[0], 0.0) + t / rep["slowdown"]
    return out


def is_count(name: str) -> bool:
    return PER_LAYER_UNITS[name] not in TIMED_LAYER_UNITS and name not in TIMED_LAYER_METRICS


# ---------------------------------------------------------------------------
# a benchmark run
# ---------------------------------------------------------------------------

def repeat(workdir: Path, name: str, inputs: dict, pattern: tuple[bool, ...],
           seconds: float, min_reps: int) -> list[dict]:
    """Run repetitions, traced or not as `pattern` cycles, for `seconds` and
    at least `min_reps`.  The children run pinned to the workload's CPUs,
    each watched by a speed probe."""
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[-WORKLOADS[name].cpus:]
    os.sched_setaffinity(0, cpus)  # inherited by every child and pool worker
    probes = SpeedProbes(workdir, cpus)
    reps: list[dict] = []
    begin = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - begin
            if len(reps) >= min_reps and len(reps) % len(pattern) == 0 and elapsed >= seconds:
                break
            if elapsed >= RUN_LIMIT_S:
                break
            rep = run_rep(workdir, name, inputs, pattern[len(reps) % len(pattern)],
                          timeout=max(1.0, 170 - elapsed))
            reps.append(rep)
            if "result" not in rep:
                break
    finally:
        probes.close()
        os.sched_setaffinity(0, allowed)
    normalise(reps, probes)
    return reps


def evaluate(name: str, inputs: dict, reps: list[dict], trace: bool) -> dict:
    """Correctness and metrics of one run."""
    workload = WORKLOADS[name]
    ok_reps = [r for r in reps if "result" in r]
    attempted, failed, problems = workload.check(
        inputs, [r["result"]["answer"] for r in ok_reps], load_expected())
    for r in reps:
        if "result" not in r:
            attempted += 1
            failed += 1
            problems.append(f"child exited with {r['rc']}: {r['stderr'][-500:]}")
    report = {"workload": name, "trace": int(trace),
              "reps": [{k: v for k, v in r.items() if k not in ("result", "end")} for r in reps],
              "loaded_reps": sum(1 for r in reps if r["loaded"]),
              "attempted": attempted, "failed": failed,
              "fail_frac": failed / attempted if attempted else 1.0,
              "problems": problems[:20]}
    untraced = [r for r in ok_reps if not r["traced"]]
    if untraced:
        report["end_to_end"] = {k: dict(quartiles([r[k] for r in untraced]), unit=u)
                                for k, u in END_TO_END_UNITS.items()}
        report["unnormalised"] = {k: quartiles([r[k] for r in untraced])
                                  for k in ("wall_raw_s", "cpu_raw_s", "setup_raw_s", "slowdown")}
    traced = [r for r in ok_reps if r["traced"]]
    if traced:
        per_rep = [layer_metrics(r) for r in traced]
        report["counts_repeat"] = all(
            m[k] == per_rep[0][k] for m in per_rep for k in m if is_count(k))
        if not report["counts_repeat"]:
            problems.append("per-layer counts differ between traced repetitions")
            failed += 1
            report["failed"] = failed
        layers = {k: statistics.median(p[k] for p in per_rep) for k in per_rep[0]}
        wall = statistics.median(r["wall_s"] for r in traced)
        base = statistics.median(r["wall_s"] for r in untraced) if untraced else wall
        layers["trace.overhead_s"] = wall - base
        report["per_layer"] = {k: {"value": layers[k], "unit": PER_LAYER_UNITS[k]}
                               for k in PER_LAYER_UNITS}
        names = sorted({s[0] for r in traced for s in r["result"]["trace"]["spans"]})
        report["self_s"] = {k: statistics.median(self_times(r).get(k, 0.0) for r in traced)
                            for k in names}
    report["correct"] = failed == 0 and bool(ok_reps)
    return report


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        metrics = report.get("per_layer", {})
    else:
        metrics = {k: {"value": v["median"], "unit": v["unit"]}
                   for k, v in report.get("end_to_end", {}).items()}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def new_workdir() -> Path:
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def bench(args) -> int:
    machine = machine_record()
    workdir = new_workdir()
    try:
        inputs = WORKLOADS[args.workload].inputs(workdir, args.seed, smoke=False)
        pattern = (False, True) if args.trace else (False,)
        reps = repeat(workdir, args.workload, inputs, pattern, args.seconds,
                      min_reps=2 if args.trace else MIN_REPS)
        report = evaluate(args.workload, inputs, reps, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(seed=args.seed, seconds=args.seconds, machine=machine)
    print(json.dumps({"report": report}))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0 if report["correct"] else 1


# ---------------------------------------------------------------------------
# smoke mode: tiny inputs, checks on the benchmark itself
# ---------------------------------------------------------------------------

def smoke(args) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    failures = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for group, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        expect({m["name"]: m["unit"] for m in declared[group]} == units,
               f"BENCHMARK.json {group} names and units match the code")
    expect(set(design["per_layer"]) == set(PER_LAYER_UNITS)
           and set(design["workloads"]) == set(WORKLOADS),
           "design.json maps every per-layer metric and workload")
    workdir = new_workdir()
    try:
        for name in WORKLOADS:
            inputs = WORKLOADS[name].inputs(workdir, args.seed, smoke=True)
            reps = repeat(workdir, name, inputs, (False, True, True), seconds=0, min_reps=3)
            report = evaluate(name, inputs, reps, trace=True)
            expect(report["correct"], f"{name}: answers correct {report['problems']}")
            if not report["correct"]:
                continue
            answers = [r["result"]["answer"] for r in reps]
            expect(answers[0] == answers[1] == answers[2], f"{name}: traced answers equal untraced")
            expect(report["counts_repeat"], f"{name}: two traced runs give identical counts")
            for line in (result_line(report, False), result_line(report, True)):
                expect(all(NAME_RE.fullmatch(k) and v["unit"] for k, v in line["metrics"].items()),
                       f"{name}: metric names match {NAME_RE.pattern} and have units")
            expect(set(report["per_layer"]) == set(PER_LAYER_UNITS),
                   f"{name}: every per-layer metric appears")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; only witness-check draws from it")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="check the benchmark on tiny inputs")
    args = ap.parse_args(argv)
    if not (SRC / "ramsey" / "__init__.py").is_file():
        print(f"no ramsey sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        ap.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
