"""The repository benchmark: two workloads, end-to-end metrics, and a
per-layer ledger from a traced run.  Run it with ``python3
perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace
<0|1>``; see ``perfbench/README.md``."""
