#!/usr/bin/env python3
"""Record ``bench/reference.json``: the values every benchmark op is checked
against, for every input any seed can draw.

Run from the repository root, on the reference (fixed-step RK4) program:

    python3 bench/record_reference.py

It takes a few minutes: one full run per simulation input.
"""

from __future__ import annotations

import json
import shutil
import sys

from worker import OUT, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    tmp = OUT / "reference-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(tmp)
            wl.setup()
            values = reference[name] = {}
            for label, raw in wl.all_inputs():
                obs, problems, _ = wl.observe(wl.op(wl.prepare(raw)))
                if problems:
                    print(f"{name} {label}: {problems}", file=sys.stderr)
                    return 1
                values[label] = obs
                print(f"{name} {label}: {obs}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
