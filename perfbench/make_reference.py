"""Regenerate reference.json: the gap of every index-d4 input, computed
once by a dense eigensolve of an operator assembled in checks.py.

    python3 perfbench/make_reference.py

Takes about 40 s per flux pair and 1 GB of memory on a 2-core host.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import INDEX_D4  # noqa: E402


def main() -> int:
    refs = {}
    for k12, k34 in INDEX_D4.flux_pairs:
        H = checks.flux_wilson_operator(
            4, INDEX_D4.N, {(0, 1): k12, (2, 3): k34}, INDEX_D4.m)
        refs[f"{k12},{k34}"] = checks.dense_gap(H)
        print(k12, k34, repr(refs[f"{k12},{k34}"]), flush=True)
    out = {
        "what": "smallest |eigenvalue| of the d=4 constant-flux Wilson operator",
        "d": 4, "N": INDEX_D4.N, "m": INDEX_D4.m,
        "method": "numpy.linalg.eigvalsh of checks.flux_wilson_operator",
        "gap": refs,
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
