"""The repository benchmark: four SW1 variant-sweep workloads.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; see ``perfbench/README.md`` for the workloads and every metric.
"""
