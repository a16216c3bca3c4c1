"""Record the SHA-256 of every output the benchmark's workloads can produce.

    python3 perfbench/make_baseline.py [WORKLOAD ...]

Enumerates each workload's finite request universe, runs every request,
checks it with the same oracle as run.py and writes the hashes into
output_sha256.json (merged with what is there).  Run it only at a commit
whose outputs are the reference; run.py counts any later difference as
``charts.output_drift``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import HASHES, ROOT, load_fracture
from workloads import WORKLOADS, Runner, sha256, write_sources


def main(names):
    fracture = load_fracture()
    hashes = json.loads(HASHES.read_text(encoding="utf-8")) if HASHES.exists() else {}
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp", dir=ROOT) as tmp:
        runner = Runner(fracture, write_sources(Path(tmp)))
        for name in names or sorted(WORKLOADS):
            for req in WORKLOADS[name].universe():
                problems, outputs = runner.check(req, runner.call(req))
                if problems:
                    raise SystemExit(f"{req.key()}: {problems[0]}")
                for key, data in outputs.items():
                    hashes[key] = sha256(data)
            print(f"{name}: {len(hashes)} hashes", file=sys.stderr)
    HASHES.write_text(json.dumps(hashes, indent=0, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
