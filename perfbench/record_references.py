"""Record reference outputs for every input the workload generators can draw.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record_references.py

Writes ``perfbench/references.json``, keyed by ``Request.ref_key()``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import check
from workloads import ALL_WORKLOADS


def main() -> int:
    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    refs = {}
    with tempfile.TemporaryDirectory(dir=check.HERE) as tmp:
        out_path = os.path.join(tmp, "out")
        for workload in ALL_WORKLOADS.values():
            for req in workload.all_inputs():
                proc = subprocess.run(
                    [sys.executable, "-m", "z2wilson.cli",
                     *req.argv(out_path)],
                    capture_output=True, text=True, env=env, check=True)
                out_text = None
                if req.out:
                    with open(out_path) as fh:
                        out_text = fh.read()
                refs[req.ref_key()] = check.summarize(req, proc.stdout,
                                                      out_text)
                print(req.ref_key(), file=sys.stderr)
    with open(check.REFERENCES, "w") as fh:       # one input per line
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(key)}: {json.dumps(refs[key])}"
            for key in sorted(refs)) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
