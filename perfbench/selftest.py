"""Self-test: a run checked against a corrupted reference must fail.

    python3 perfbench/selftest.py

Writes a copy of reference.json with one recorded table value changed to
``.perfbench/``, runs the table-sweep workload against it, and exits 0 only
when that run exits non-zero and reports ``"correct": false`` with exactly
the one failed check.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ref = json.loads((HERE / "reference.json").read_text())
    ref["table-sweep"]["max_cols_17_20"]["values"][0][0] += 1
    corrupted = ROOT / ".perfbench" / "selftest-reference.json"
    corrupted.parent.mkdir(exist_ok=True)
    corrupted.write_text(json.dumps(ref))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "table-sweep", "--seed", "1",
         "--seconds", "1", "--reference", str(corrupted)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode != 0 and result["correct"] is False and result["failed"] == 1
    print(f"corrupted reference: exit {proc.returncode}, correct={result['correct']}, "
          f"failed={result['failed']} -> self-test {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
