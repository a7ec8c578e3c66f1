"""Record the outputs that ``run.py`` checks at the reference seed.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json`` for every workload at full and at tiny
size.  Recording again on a later commit replaces the reference; do that only
when a change to the results is intended and stated.
"""

from __future__ import annotations

import json
import os
import sys

from run import OUT_DIR, _import_source


def main() -> int:
    _import_source()
    os.environ.pop("PCT_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    OUT_DIR.mkdir(exist_ok=True)
    import workloads

    reference = {"reference_seed": workloads.REFERENCE_SEED}
    for tiny in (False, True):
        for name in workloads.SPECS:
            wl = workloads.build(name, workloads.REFERENCE_SEED, tiny, OUT_DIR)
            reference[workloads.reference_key(name, tiny)] = wl.reference()
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in reference.items()]
    workloads.REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
