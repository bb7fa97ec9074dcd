"""Record the stdout of every pinned cli command into cli_golden.json.

Run from the repository root as ``python3 bench/capture_golden.py``.  The
committed file was captured at commit d84d541; the cli workload requires
byte-equal output from every later commit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    for argv in workloads.cli_argv_list():
        proc = subprocess.run([sys.executable, "-m", "predegree.cli", *argv], cwd=ROOT,
                              env=workloads.cli_environment(ROOT), capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{' '.join(argv)} exited with {proc.returncode}: {proc.stderr}", file=sys.stderr)
            return 1
        golden[" ".join(argv)] = proc.stdout
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
