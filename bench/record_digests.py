#!/usr/bin/env python3
"""Record the input and output digest of every catalog discourse.

Usage (from the repository root):

    python3 bench/record_digests.py

Runs every discourse a benchmark plan can draw through the same CLI
pipeline as bench/run.py, checks it against the exhaustive oracle (and,
for the corpus, its gold labels), and writes the sha256 of its canonical
input text and of its rendered JSON to bench/digests.json.  Run it only
at a commit whose outputs are known good: the digests are a regression
check taken from the program itself, not an independent reference.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import BENCH_DIR, DIGESTS, ROOT, Bench, sha256


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from workloads import WORKLOADS, build, catalog

    digests = {}
    failed = 0
    for workload in WORKLOADS:
        items = [build(key) for key in catalog(workload)]
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
            bench = Bench(workload, items, Path(tmp))
            outputs = {}
            for i in range(len(items)):
                code, out = bench.run_one(i)
                if code == 0:
                    outputs[i] = out
            failures = bench.check(outputs, None)
        for i, item in enumerate(items):
            if i in failures:
                failed += 1
                print(f"FAIL {item.key}: {'; '.join(failures[i])}")
                continue
            digests[item.key] = {"input": sha256(item.text), "output": sha256(outputs[i])}
        print(f"{workload}: {len(items) - len(failures)} of {len(items)} recorded")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
