#!/usr/bin/env python3
"""Record bench/reference.json: the expected outputs the benchmark checks.

    python3 bench/record_reference.py

It runs the scan_narrow scan once at jobs=1 and stores the SHA-256 of its
stdout, and pins the fivefold candidate counts and digests of proof_suites.
The file in the repository was recorded at the seed commit, before any
optimisation; re-record it only for a change that is meant to alter these
outputs, and say so, because the benchmark trusts it as the reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import (EPS, FIVEFOLD_CONDITIONS, FIVEFOLD_RMAX, WORKLOADS, digest,
                       load_mldlab)

BENCH = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    mods = load_mldlab()
    ref = {}
    scan = WORKLOADS["scan_narrow"]
    out = scan.run(mods, scan.build(mods, 0)[0], 1)
    if out["code"] != 0:
        raise SystemExit(f"scan_narrow exited with {out['code']}")
    ref["scan_narrow"] = {"argv": scan.argv, "sha256": digest(out["stdout"]),
                          "bytes": len(out["stdout"].encode()),
                          "last_line": out["stdout"].splitlines()[-1]}
    suites = WORKLOADS["proof_suites"]
    fivefold = {}
    for cond in FIVEFOLD_CONDITIONS:
        cands = mods.verifiers.fivefold_scan(FIVEFOLD_RMAX, EPS, cond, jobs=1)
        fivefold[cond] = {"count": len(cands),
                          "sha256": digest(suites.fivefold_summary(cands))}
    ref["proof_suites"] = {"fivefold": fivefold}
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=2) + "\n")
    print(json.dumps(ref, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
