"""Record the workload descriptors and default-seed report digests.

    python3 bench/record.py [--workload NAME ...]

For each workload, generates the default-seed corpus, bounds every graph
through the benchmark pipeline, and confirms every report twice: with
check.check_report and with the brute-force oracles (check.check_oracle),
on all graphs rather than the per-run subset.  Only when every graph passes
are the workload's descriptor and report digest written to workloads.json,
which run.py compares against on default-seed runs.  The oracle pass takes
several minutes per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import gen
import run


def record(gm, workload: str) -> dict:
    workdir = run.WORK / f"record-{workload}-{os.getpid()}"
    try:
        graphs, paths = run.set_up(gm, workload, gen.DEFAULT_SEED, workdir, None)
        _, _, reports = run.run_pass(run.Pipeline(gm), graphs, paths)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import check  # imports gmbound, so only after import_gmbound()

    started = time.perf_counter()
    for i, (g, report) in enumerate(zip(graphs, reports)):
        if not isinstance(report, str):
            raise SystemExit(f"{workload} {g.name}: raised {report!r}")
        problems = check.check_report(g, report) + check.check_oracle(g, report)
        if problems:
            raise SystemExit(f"{workload} {g.name}: {problems}")
        if (i + 1) % 100 == 0 or i + 1 == len(graphs):
            print(f"{workload}: {i + 1}/{len(graphs)} graphs confirmed by the oracles"
                  f" ({time.perf_counter() - started:.0f} s)", file=sys.stderr, flush=True)
    return {
        "descriptor": gen.describe(graphs),
        "oracle_confirmed": len(graphs),
        "digest": run.digest(reports),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(gen.WORKLOADS))
    args = parser.parse_args(argv)
    gm = run.import_gmbound()
    recorded = json.loads(run.RECORD.read_text()) if run.RECORD.exists() else {"workloads": {}}
    recorded["default_seed"] = gen.DEFAULT_SEED
    for workload in args.workload or list(gen.WORKLOADS):
        recorded["workloads"][workload] = record(gm, workload)
        run.RECORD.write_text(json.dumps(recorded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
