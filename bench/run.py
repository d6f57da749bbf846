"""Benchmark of the bound calculator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's corpus from the seed, writes one graph file per
graph, and runs every graph through the library sequence that
`gmbound bound [--normalize-first] --breakdown FILE` performs:

    read -> graph_from_json -> [normalize_all] -> validate -> best_bound
         -> json.dumps(report.to_json_dict(), indent=2)

as a closed loop with a single caller in this single-threaded process: the
next graph starts when the previous one returns.  The loop repeats whole
passes over the corpus for about --seconds seconds, at least three.
Afterwards every report is checked (check.py), a seed-drawn subset is
replayed through the oracles, and for the default seed the report digest is
compared with the one recorded in workloads.json.

With --trace 0 the last output line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced pass (spans.py),
each graph run untraced just before its traced run.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
from array import array  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
RECORD = BENCH / "workloads.json"

SETUP_REPEATS = 5
MIN_PASSES = 3  # so that each graph's latency is a mean of several runs
ORACLE_GRAPHS = {"census": 20, "big_regular": 1, "tree_search": 1, "general_search": 1}

END_TO_END = {
    "graphs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> (span name, quantity, unit); quantities are per graph
# of the traced pass: "ms" inclusive time, "self_ms" time outside child
# spans, "calls" span count, "returned" summed result length
PER_LAYER = {
    "graph.parse_ms": ("graph.parse", "ms", "ms/graph"),
    "graph.normalize_ms": ("graph.normalize", "ms", "ms/graph"),
    "graph.validate_ms": ("graph.validate", "ms", "ms/graph"),
    "graph.degree_ms": ("graph.degree", "ms", "ms/graph"),
    "graph.degree_calls": ("graph.degree", "calls", "calls/graph"),
    "graph.degree_stats_ms": ("graph.degree_stats", "ms", "ms/graph"),
    "graph.degree_stats_calls": ("graph.degree_stats", "calls", "calls/graph"),
    "gl2.normalize_ms": ("gl2.normalize", "ms", "ms/graph"),
    "gl2.normalize_calls": ("gl2.normalize", "calls", "calls/graph"),
    "seifert.checks_ms": ("seifert.checks", "ms", "ms/graph"),
    "farey.matrix_complexity_ms": ("farey.matrix_complexity", "ms", "ms/graph"),
    "farey.matrix_complexity_calls": ("farey.matrix_complexity", "calls", "calls/graph"),
    "spanning.capital_phi_ms": ("spanning.capital_phi", "ms", "ms/graph"),
    "spanning.capital_phi_calls": ("spanning.capital_phi", "calls", "calls/graph"),
    "spanning.optimal_trees_ms": ("spanning.optimal_trees", "ms", "ms/graph"),
    "spanning.optimal_trees_calls": ("spanning.optimal_trees", "calls", "calls/graph"),
    "spanning.trees_returned": ("spanning.optimal_trees", "returned", "trees/graph"),
    "bounds.best_bound_ms": ("bounds.best_bound", "ms", "ms/graph"),
    "bounds.regular_self_ms": ("bounds.regular", "self_ms", "ms/graph"),
    "bounds.tree_self_ms": ("bounds.tree", "self_ms", "ms/graph"),
    "bounds.general_self_ms": ("bounds.general", "self_ms", "ms/graph"),
    "bounds.regular_calls": ("bounds.regular", "calls", "calls/graph"),
    "bounds.tree_calls": ("bounds.tree", "calls", "calls/graph"),
    "bounds.general_calls": ("bounds.general", "calls", "calls/graph"),
    "bounds.report_ms": ("bounds.report", "ms", "ms/graph"),
    "cli.batch_ms": ("cli.batch", "ms", "ms/graph"),
    "cli.self_ms": ("cli.batch", "self_ms", "ms/graph"),
    "trace.overhead_pct": (None, None, "%"),
}

# small fixed graphs, one per evaluator, for the untimed warm-up
_WARMUP_PIECE = {"g": 0, "fibres": [[2, 1], [2, 1]], "b": 0}
WARMUP = [
    {"vertices": [dict(_WARMUP_PIECE, id="v1"), dict(_WARMUP_PIECE, id="v2", b=b)],
     "edges": [{"id": "e1", "from": "v1", "to": "v2", "matrix": matrix}]}
    for b, matrix in ((0, [[1, 2], [1, 1]]), (-2, [[0, 1], [1, 0]]))
] + [
    {"vertices": [{"id": "v1", "g": 0, "fibres": [[2, 1]], "b": 0},
                  {"id": "v2", "g": 0, "fibres": [[2, 1]], "b": 0}],
     "edges": [{"id": "e1", "from": "v1", "to": "v2", "matrix": [[0, 1], [1, 0]]},
               {"id": "e2", "from": "v1", "to": "v2", "matrix": [[0, 1], [1, 0]]}]},
]


class GraphRejected(Exception):
    """validate() reported errors: the CLI would exit 1."""


class Pipeline:
    """The library calls of `gmbound bound --breakdown`, optionally traced."""

    def __init__(self, gm, recorder=None):
        calls = {
            "graph.parse": gm.graph.graph_from_json,
            "graph.normalize": gm.graph.normalize_all,
            "graph.validate": gm.graph.validate,
            "bounds.best_bound": gm.bounds.best_bound,
            "bounds.report": lambda report: json.dumps(report.to_json_dict(), indent=2),
        }
        if recorder is not None:
            calls = {name: recorder.wrap(name, fn) for name, fn in calls.items()}
        self.parse = calls["graph.parse"]
        self.normalize_all = calls["graph.normalize"]
        self.validate = calls["graph.validate"]
        self.best_bound = calls["bounds.best_bound"]
        self.report = calls["bounds.report"]
        self.run = self._run if recorder is None else recorder.wrap("pipeline", self._run)

    def _run(self, path: str, normalize_first: bool) -> str:
        with open(path) as fh:
            g = self.parse(fh.read())
        if normalize_first:
            g, _ = self.normalize_all(g)
        errors = [v for v in self.validate(g) if v.severity == "error"]
        if errors:
            raise GraphRejected(f"{errors[0].clause} {errors[0].subject}: {errors[0].message}")
        return self.report(self.best_bound(g))


def internal_bindings(gm):
    """(module, attribute, span name, count_result) for the traced calls
    made inside the package, as bound in the calling module."""
    return [
        (gm.graph, "degree", "graph.degree", False),
        (gm.graph, "normalize", "gl2.normalize", False),
        (gm.graph, "validate_class_s", "seifert.checks", False),
        (gm.graph, "fibre_problems", "seifert.checks", False),
        (gm.bounds, "degree_stats", "graph.degree_stats", False),
        (gm.bounds, "matrix_complexity", "farey.matrix_complexity", False),
        (gm.bounds, "capital_phi", "spanning.capital_phi", False),
        (gm.bounds, "optimal_trees", "spanning.optimal_trees", True),
        (gm.bounds, "bound_regular", "bounds.regular", False),
        (gm.bounds, "bound_tree", "bounds.tree", False),
        (gm.bounds, "bound_general", "bounds.general", False),
        (gm.cli, "graph_from_json", "graph.parse", False),
        (gm.cli, "validate", "graph.validate", False),
        (gm.cli, "best_bound", "bounds.best_bound", False),
    ]


def import_gmbound():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "gmbound" / "__init__.py").is_file():
        raise SystemExit(f"bench: no gmbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gmbound
    import gmbound.bounds
    import gmbound.cli
    import gmbound.graph

    if Path(gmbound.__file__).resolve().parent != SRC / "gmbound":
        raise SystemExit(f"bench: imported gmbound from {gmbound.__file__}, not {SRC}")
    return gmbound


def set_up(gm, workload: str, seed: int, workdir: Path, count: int | None):
    """Generate the corpus, write one file per graph, warm up; returns
    the corpus and the file paths."""
    maker = gen.WORKLOADS[workload]
    graphs = maker(seed) if count is None else maker(seed, count)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for g in graphs:
        path = workdir / f"{g.name}.json"
        path.write_text(g.text)
        paths.append(str(path))
    warm = Pipeline(gm)
    for i, doc in enumerate(WARMUP):
        path = workdir / f"warmup{i}.json.tmp"
        path.write_text(json.dumps(doc))
        warm.run(str(path), False)
        path.unlink()
    return graphs, paths


def run_pass(pipeline, graphs, paths):
    """One closed-loop pass; returns (wall ns, latencies ns, outputs).

    An output is the report text, or the exception a failing graph raised.
    """
    clock = time.perf_counter_ns
    latencies, outputs = [], []
    started = clock()
    for g, path in zip(graphs, paths):
        t0 = clock()
        try:
            out = pipeline.run(path, g.normalize_first)
        except Exception as exc:  # TheoremInapplicable, CapExceeded, a rejected graph or a crash
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
    return clock() - started, latencies, outputs


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode() if isinstance(out, str) else repr(out).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_outputs(workload, seed, graphs, first, passes, differs, log) -> tuple[int, bool]:
    """Check every run of every graph; returns (failed runs, all checks ok).

    `first` holds each graph's output of the first pass, and differs[i] the
    number of the other passes in which graph i's output differed from it.
    A run fails when it raised, when its report differs from the graph's
    first report, when that report fails check_report, or when the graph is
    in the oracle subset and disagrees with the oracle.
    """
    import check  # imports gmbound, so only after import_gmbound()

    bad = set()
    for i, (g, out) in enumerate(zip(graphs, first)):
        problems = [f"raised {out!r}"] if not isinstance(out, str) else check.check_report(g, out)
        if problems:
            bad.add(i)
            log(f"check failed on {g.name}: {problems[:3]}")
    subset = check.oracle_subset(graphs, seed, ORACLE_GRAPHS[workload])
    for i in subset:
        if i not in bad:
            problems = check.check_oracle(graphs[i], first[i])
            if problems:
                bad.add(i)
                log(f"oracle disagrees on {graphs[i].name}: {problems}")
    log(f"oracle subset: {len(subset)} graphs, {sum(i in bad for i in subset)} disagreements")
    failed = sum(passes if i in bad else differs[i] for i in range(len(graphs)))
    ok = True
    recorded = json.loads(RECORD.read_text())
    if seed == recorded["default_seed"]:
        want = recorded["workloads"][workload]["digest"]
        got = digest(first)
        ok = got == want
        log(f"report digest {got} {'matches' if ok else 'DIFFERS FROM'} the recorded {want}")
    return failed, ok


def end_to_end(gm, workload, seed, seconds, graphs, paths, log):
    """Whole passes for about `seconds`, at least MIN_PASSES of them: the
    loop stops at the pass end nearest to `seconds` of timed work, judged by
    the mean pass so far, so a slow stretch of the host after the first pass
    does not lengthen the run.

    A graph's latency is the mean of its wall times over the passes, and the
    percentiles are taken over the graphs of the corpus; graphs_per_s is the
    corpus size over the sum of the graph latencies, i.e. graph runs per
    second of timed pipeline work.  Means rather than medians: the host's
    speed switches between a fast and a slow state for seconds at a time,
    and a per-graph median jumps between the two where a mean follows the
    share of time spent in each.

    Only the first pass's outputs and one running sum per graph are kept;
    each later pass is compared with the first as it ends, so the memory
    held does not grow with the pass count.  peak_rss_mb is read before the
    checker and the oracles run.
    """
    pipeline = Pipeline(gm)
    walls = []
    totals = array("q", bytes(8 * len(graphs)))
    first, differs = None, [0] * len(graphs)
    while len(walls) < MIN_PASSES or sum(walls) + statistics.fmean(walls) / 2 < seconds * 1e9:
        wall, lat, outputs = run_pass(pipeline, graphs, paths)
        walls.append(wall)
        for i, ns in enumerate(lat):
            totals[i] += ns
        if first is None:
            first = outputs
        else:
            for i, (out, want) in enumerate(zip(outputs, first)):
                differs[i] += out != want
        outputs = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = len(walls)
    failed, ok = check_outputs(workload, seed, graphs, first, passes, differs, log)
    latencies = [total / passes for total in totals]
    attempted = len(graphs) * passes
    metrics = {
        "graphs_per_s": len(graphs) / (sum(latencies) / 1e9),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    log(f"{passes} passes of {len(graphs)} graphs in {sum(walls) / 1e9:.3f} s"
        f" ({attempted / (sum(walls) / 1e9):.6g} graphs/s over the whole loop)")
    log(f"latency percentiles over {len(graphs)} graph latencies"
        f" ({len(graphs) - int(len(graphs) * 0.9)} beyond p90), each the mean of {passes} runs")
    log(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} failed)")
    return metrics, attempted, failed, ok


def traced(gm, workload, seed, graphs, paths, workdir, log):
    """Each graph untraced and then traced, back to back so that both see the
    same load on the host (traced graph ids 0..n-1), then one traced
    `gmbound batch` over the corpus directory (graph id n)."""
    recorder = spans.Recorder()
    bindings = internal_bindings(gm)
    plain_pipeline, traced_pipeline = Pipeline(gm), Pipeline(gm, recorder)
    plain, outputs = [], []
    plain_wall = traced_wall = 0
    for g, path in zip(graphs, paths):
        wall, _, out = run_pass(plain_pipeline, [g], [path])
        plain_wall += wall
        plain += out
        with recorder.patched(bindings):
            wall, _, out = run_pass(traced_pipeline, [g], [path])
        traced_wall += wall
        outputs += out
    with recorder.patched(bindings):
        captured = io.StringIO()
        with redirect_stdout(captured):
            status = recorder.wrap("cli.batch", gm.cli.main)(["batch", str(workdir)])

    differs = [out != want for out, want in zip(outputs, plain)]
    failed, ok = check_outputs(workload, seed, graphs, plain, 2, differs, log)
    rows = recorder.rows()
    unbalanced = spans.unbalanced_graphs(rows)
    if unbalanced:
        ok = False
        log(f"span self times do not add up on graphs {unbalanced[:5]}")
    ok = check_batch(graphs, plain, status, captured.getvalue(), log) and ok
    out = WORK / f"spans-{workload}-{seed}.jsonl"
    spans.write(rows, out)
    log(f"{len(rows)} spans written to {out.relative_to(ROOT)}")

    n = len(graphs)
    loop = spans.summarize(rows, range(n))
    batch = spans.summarize(rows, [n])
    metrics = {}
    for name, (span, quantity, _) in PER_LAYER.items():
        if span is None:
            continue
        calls, inclusive, own = (batch if span == "cli.batch" else loop).get(span, (0, 0, 0))
        metrics[name] = {
            "ms": inclusive / n / 1e6,
            "self_ms": own / n / 1e6,
            "calls": calls / n,
            "returned": recorder.returned[span] / n,
        }[quantity]
    metrics["trace.overhead_pct"] = 100 * (traced_wall / plain_wall - 1)
    return metrics, 2 * n, failed, ok


def check_batch(graphs, reports, status, stdout, log) -> bool:
    """`gmbound batch` must agree with the loop: exit 0 and the same bounds,
    or exit 1 on files that need --normalize-first, which batch lacks."""
    if any(g.normalize_first for g in graphs):
        ok = status == 1
    else:
        totals = [line.split(": ", 1)[1] for line in stdout.splitlines() if line.startswith("bound: ")]
        ok = status == 0 and totals == [str(json.loads(r)["total"]) for r in reports]
    if not ok:
        log(f"batch exit status {status} or bounds disagree with the loop")
    return ok


def run(workload: str, seed: int, seconds: float, trace: bool, count: int | None = None,
        log=lambda line: print(line, flush=True)) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    gm = import_gmbound()
    imported = time.perf_counter()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            graphs = paths = None  # so that the previous corpus is freed first
            t0 = time.perf_counter()
            graphs, paths = set_up(gm, workload, seed, workdir, count)
            setups.append(time.perf_counter() - t0)
        setup_s = imported - PROCESS_START + statistics.median(setups)
        # keep the collector from rescanning the corpus on every full collection
        gc.collect()
        gc.freeze()
        log(f"{workload} seed {seed}: {len(graphs)} graphs; set-up {setup_s:.3f} s"
            f" (import {imported - PROCESS_START:.3f} s, generation runs {[round(s, 3) for s in setups]})")
        if trace:
            metrics, attempted, failed, ok = traced(gm, workload, seed, graphs, paths, workdir, log)
            units = {name: unit for name, (_, _, unit) in PER_LAYER.items()}
        else:
            metrics, attempted, failed, ok = end_to_end(gm, workload, seed, seconds, graphs, paths, log)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    for name, value in metrics.items():
        log(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
