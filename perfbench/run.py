"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload minpts-rich [--seed N]
        [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-spec

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it, and ``perfbench/out/``, carry the inputs, the
host, sample counts and (traced) the span log.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json from perfbench/spec.py")
    args = parser.parse_args(argv)

    # The benchmark measures the checkout's own sources, never an
    # installed copy: without them it must fail before printing a result.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import spec
    from perfbench.bench import OUT, bench, report
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.render())
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    record = bench(args.workload, seed, seconds, bool(args.trace))
    # Shared-memory segments start multiprocessing's resource tracker;
    # stop it and wait, so no process outlives the run.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=str) + "\n")
    report(record)
    print(f"# record: {out_file.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
