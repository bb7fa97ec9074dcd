"""Closed-loop benchmark of predegree.

    python3 bench/run.py --workload classes|tangents|degrees|cli --seed N \
        --seconds S --trace 0|1

One client, no threads: each query is issued after the previous one returns.
Inputs come from --seed, which draws one round of queries (see
workloads.py).  The round is run again and again, each time from empty caches,
until the time spent in queries reaches --seconds, and every answer of every
round is checked against an independent reference.  Before measuring, a tiny pass of the workload must
check clean, and must fail once any one of its answers is corrupted.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes over one fixed round and reports the
per-layer metrics (medians over traced passes) and the tracing overhead.
The last line of stdout is the JSON result; the lines before it describe the
machine, the inputs and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / "bench" / "out"
SETUP_REPEATS = 7  # at least this many set-up samples per run
# Run in a fresh interpreter: prints the seconds from its first statement
# until the import in the middle is done.
IMPORT_TIMER = "import time\nt0 = time.perf_counter()\n{}print(time.perf_counter() - t0, flush=True)\n"


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


# -- set-up time and machine note -----------------------------------------------


def run_fresh(code: str, env: dict) -> tuple[float, float]:
    """Run IMPORT_TIMER code in a new interpreter.

    Returns the wall time from spawning it until it prints, and what it prints.
    """
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up interpreter exited with {proc.returncode}")
    return elapsed, float(line)


class SetupTimer:
    """Times fresh interpreters: their start-up, and then the import alone.

    The import is timed inside the new interpreter, from its first statement;
    start-up is the floor no change to the package can move, and is reported
    on its own.  Samples are taken between rounds, about SETUP_REPEATS of them
    spread over the whole run, instead of all landing in one slow or fast spell
    of a shared machine.
    """

    def __init__(self, module: str, env: dict):
        self.floor_code, self.setup_code = IMPORT_TIMER.format(""), IMPORT_TIMER.format(f"import {module}\n")
        self.env = env
        self.floor, self.setup = [], []
        run_fresh(self.setup_code, env)  # byte-compiles a fresh checkout once

    def sample(self):
        self.floor.append(run_fresh(self.floor_code, self.env)[0])
        self.setup.append(run_fresh(self.setup_code, self.env)[1])

    def sample_by(self, progress: float):
        """Sample if fewer than SETUP_REPEATS * progress samples have been taken."""
        if len(self.setup) < SETUP_REPEATS * progress:
            self.sample()

    def medians(self) -> dict:
        while len(self.setup) < SETUP_REPEATS:
            self.sample()
        return {"interp_startup_s": statistics.median(self.floor), "setup_s": statistics.median(self.setup)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def machine_note(interp_startup_s: float) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "cli.interp_startup_s": interp_startup_s,
        "pinning": "no CPU frequency pinning or core isolation: machine settings are off-limits",
    }


# -- running queries ---------------------------------------------------------------


def run_pass(queries, inprocess: bool, tracer=None):
    """Run the queries in order from empty caches; return (wall, latencies, results).

    A query that raises has the exception as its result.
    """
    workloads.reset_caches()
    latencies, results = [], []
    start = time.perf_counter()
    for index, query in enumerate(queries):
        call = query.inprocess_call if inprocess and query.inprocess_call else query.call
        t0 = time.perf_counter()
        try:
            result = tracer.query(index, call) if tracer else call()
        except Exception as exc:  # a failed query is counted, not fatal
            result = exc
        latencies.append(time.perf_counter() - t0)
        results.append(result)
    return time.perf_counter() - start, latencies, results


def count_failures(queries, results) -> int:
    return sum(isinstance(r, Exception) or not q.check(r) for q, r in zip(queries, results))


def self_check(workload, seed: int, inprocess: bool) -> dict:
    """A tiny pass must check clean; corrupting any one answer must be caught."""
    queries = workload.make_round(random.Random(seed), tiny=True)
    _, _, results = run_pass(queries, inprocess)
    clean = count_failures(queries, results)
    caught = []
    for index, result in enumerate(results):
        corrupted = list(results)
        corrupted[index] = result if isinstance(result, Exception) else workloads.corrupt(result)
        caught.append(count_failures(queries, corrupted) > clean)
    return {
        "queries": len(queries),
        "fail_ratio": clean / len(queries),
        "fail_ratio_one_corrupted": (clean + caught[0]) / len(queries),
        "every_corruption_caught": all(caught),
        "ok": clean == 0 and all(caught),
    }


def measure_untraced(queries, seconds: float, setup: SetupTimer) -> dict:
    """Repeat the round until --seconds of query time; keep each query's fastest run.

    The machine is shared and its speed drifts, in spells from seconds to
    minutes, so a query's latency is its minimum over the identical rounds.
    """
    fastest = [float("inf")] * len(queries)
    busy, attempted, failed, rounds = 0.0, 0, 0, 0
    while busy < seconds or rounds == 0:
        wall, latencies, results = run_pass(queries, inprocess=False)
        fastest = [min(a, b) for a, b in zip(fastest, latencies)]
        busy += wall
        attempted += len(queries)
        failed += count_failures(queries, results)
        rounds += 1
        setup.sample_by(busy / seconds)
    return {"attempted": attempted, "failed": failed, "rounds": rounds, "latencies": fastest}


def measure_traced(workload, queries, seed: int, seconds: float, setup: SetupTimer) -> dict:
    tracer = tracing.Tracer()
    untraced_walls, traced_walls, passes = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not passes:
        wall, _, results = run_pass(queries, inprocess=True)
        untraced_walls.append(wall)
        failed += count_failures(queries, results)
        tracer.reset()
        if not passes:
            tracer.spans = []
        tracer.install()
        try:
            wall, _, results = run_pass(queries, inprocess=True, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        failed += count_failures(queries, results)
        attempted += 2 * len(queries)
        passes.append(layer_metrics(tracer))
        setup.sample_by((time.perf_counter() - start) / seconds)
        if len(passes) == 1:
            SPAN_DIR.mkdir(exist_ok=True)
            tracer.write_spans(SPAN_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
            tracer.spans = None
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_ratio"] = min(traced_walls) / min(untraced_walls) - 1
    return {"attempted": attempted, "failed": failed, "passes": len(passes), "metrics": metrics}


# -- per-layer metrics ---------------------------------------------------------------


def layer_metrics(tracer) -> dict:
    s, c, counts = tracer.self_s, tracer.calls, tracer.counts

    def self_s(*spans):
        return sum(s.get(span, 0.0) for span in spans)

    def calls(*spans):
        return sum(c.get(span, 0) for span in spans)

    def ratio(num, den):
        return num / den if den else 0.0

    mul = ("chow.ChowClass.__mul__", "chow.ChowClass.__rmul__")
    add = ("chow.ChowClass.__add__", "chow.ChowClass.__radd__")
    sigma = ("quadric.sigma1", "quadric.sigma2")
    integrality = sum(n for (span, exc), n in tracer.errors.items()
                      if exc == "IntegralityError" and span in ("polynomial.predegree_coefficient", "polynomial.deg_so"))
    metrics = {
        "chow.mul_calls": calls(*mul),
        "chow.mul_s": self_s(*mul),
        "chow.mul_term_pairs": counts["chow.mul_term_pairs"],
        "chow.mul_kept_ratio": ratio(counts["chow.mul_kept_pairs"], counts["chow.mul_term_pairs"]),
        "chow.pow_s": self_s("chow.ChowClass.__pow__"),
        "chow.invert_calls": calls("chow.ChowClass.invert_unit"),
        "chow.invert_s": self_s("chow.ChowClass.invert_unit"),
        "chow.add_s": self_s(*add),
        "chow.max_coeff_bits": tracer.maxima["chow.max_coeff_bits"],
        "segre.pushforward_class_s": self_s("segre.pushforward_class"),
        "segre.normal_inverse_chern_calls": calls("segre.normal_inverse_chern"),
        "segre.normal_inverse_chern_s": self_s("segre.normal_inverse_chern"),
        "segre.class_s": self_s("segre.segre_class_pushforward"),
        "polynomial.coefficient_calls": calls("polynomial.predegree_coefficient"),
        "polynomial.coefficient_s": self_s("polynomial.predegree_coefficient"),
        "polynomial.twist_calls": calls("polynomial.tensor_class"),
        "polynomial.twist_s": self_s("polynomial.tensor_class"),
        "polynomial.twists_per_coefficient": ratio(calls("polynomial.tensor_class"),
                                                   calls("polynomial.predegree_coefficient")),
        "polynomial.from_segre_s": self_s("polynomial.predegree_from_segre"),
        "polynomial.deg_so_calls": calls("polynomial.deg_so"),
        "polynomial.deg_so_s": self_s("polynomial.deg_so"),
        "polynomial.integrality_errors": integrality,
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_s": self_s("linalg.rref"),
        "linalg.rref_entries": counts["linalg.rref_entries"],
        "linalg.nullspace_s": self_s("linalg.nullspace"),
        "linalg.span_calls": calls("linalg.LinearSubspace.span"),
        "linalg.span_s": self_s("linalg.LinearSubspace.span"),
        "linalg.intersect_s": self_s("linalg.LinearSubspace.intersect"),
        "linalg.contains_calls": calls("linalg.LinearSubspace.contains"),
        "linalg.det_calls": calls("linalg.det"),
        "linalg.det_s": self_s("linalg.det"),
        "linalg.det_max_bits": tracer.maxima["linalg.det_max_bits"],
        "quadric.gradient_calls": calls("quadric.point_condition_gradient"),
        "quadric.gradient_s": self_s("quadric.point_condition_gradient"),
        "quadric.member_calls": calls("quadric.base_scheme_member"),
        "quadric.member_s": self_s("quadric.base_scheme_member"),
        "quadric.sigma_s": self_s(*sigma),
        "quadric.p3_s": self_s("quadric.predegree_quadric_p3"),
        "tangent.gradient_span_s": self_s("tangent.gradient_span"),
        "tangent.ruling_component_s": self_s("tangent.tangent_ruling_component"),
        "tangent.intersection_locus_s": self_s("tangent.tangent_intersection_locus"),
        "tangent.checks_self_s": self_s("tangent.run_tangent_checks"),
        "cli.command_s": sum(v for span, v in s.items() if span.startswith("cli.")),
    }
    layers = tracer.layer_self_s()
    total = sum(layers.values())
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_share"] = ratio(seconds, total)
    return metrics


# -- main ----------------------------------------------------------------------------


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "predegree" / "__init__.py").is_file() or not spec_path.is_file():
        return fail(f"no predegree sources or BENCHMARK.json under {ROOT}")
    spec = json.loads(spec_path.read_text())

    sys.path.insert(0, str(ROOT / "src"))
    global tracing, workloads
    import predegree
    import tracing
    import workloads

    if Path(predegree.__file__).resolve().parent != ROOT / "src" / "predegree":
        return fail(f"imported predegree from {predegree.__file__}, not from this checkout")
    workload = workloads.workloads(ROOT).get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}")

    env = workloads.cli_environment(ROOT)
    setup_timer = SetupTimer(workload.setup_import, env)
    check = self_check(workload, args.seed, inprocess=bool(args.trace))
    queries = workload.make_round(random.Random(args.seed))

    if args.trace:
        run = measure_traced(workload, queries, args.seed, args.seconds, setup_timer)
        setup = setup_timer.medians()
        values = dict(run["metrics"])
        values["cli.interp_startup_s"] = setup["interp_startup_s"]
        cli_timer = setup_timer if workload.setup_import == "predegree.cli" else SetupTimer("predegree.cli", env)
        values["cli.import_s"] = cli_timer.medians()["setup_s"]
        wanted = spec["per_layer"]
        sample_note = {"passes": run["passes"], "queries_per_pass": len(queries)}
    else:
        run = measure_untraced(queries, args.seconds, setup_timer)
        setup = setup_timer.medians()
        lat = run["latencies"]
        usage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
        values = {
            "queries_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * percentile(lat, 90),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
        beyond_p90 = sum(1000 * x > values["latency_p90_ms"] for x in lat)
        sample_note = {"rounds": run["rounds"], "queries_per_round": len(lat), "queries_beyond_p90": beyond_p90,
                       "samples": run["attempted"], "samples_beyond_p90": beyond_p90 * run["rounds"]}

    machine = machine_note(setup["interp_startup_s"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    fail_ratio = run["failed"] / run["attempted"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  closed loop, 1 client, no threads")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    print("inputs: " + json.dumps(workload.properties(queries)))
    print("samples: " + json.dumps(sample_note))
    print("self-check: " + json.dumps(check))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {fail_ratio:.6g} ratio ({run['failed']} of {run['attempted']})")
    print(json.dumps({"correct": run["failed"] == 0 and check["ok"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
