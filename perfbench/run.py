"""Benchmark entry point.

    python3 perfbench/run.py --workload e10-cold --seed 1 --seconds 10 --trace 0

Runs one workload of ``loads.py`` from the checkout's ``src/`` tree,
prints a machine stanza line, then as the last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``).  A failed correctness check prints
``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"


def emit(values: dict[str, float], declared: list[dict]) -> dict:
    """Every declared metric with its unit; layers a workload does not
    exercise read 0."""
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in declared
    }


def run_layers(stanza: dict, out) -> dict[str, float]:
    """The per-layer metrics every traced run reports."""
    return {"machine.cpu_scaling": stanza["machine.cpu_scaling"],
            "failed_frac": out.failed / max(1, out.attempted)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        parser.error(f"no repro source tree at {src}")
    sys.path.insert(0, str(src))
    import loads
    import measure
    import spans

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in loads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(loads.WORKLOADS)}")
    stanza = measure.machine_stanza()
    print(json.dumps({"machine": stanza}), flush=True)

    tracer = spans.Tracer() if args.trace else None
    if tracer and args.workload != "service-mix":
        tracer.install_batch_layers()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work = loads.Workdir(run_dir)
    try:
        out = loads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, work)
        if tracer and args.workload != "service-mix":
            tracer.dump(str(WORK / f"spans-{args.workload}-seed{args.seed}"
                                   ".json"))
    finally:
        measure.stop_helpers()
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = not out.problems
    if not correct:
        values, declared = {}, []
    elif tracer:
        values = {**out.layers, **run_layers(stanza, out)}
        declared = bench["per_layer"]
    else:
        values = out.e2e()
        declared = bench["end_to_end"]
    for problem in out.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": emit(values, declared),
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
