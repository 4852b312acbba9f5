"""Entry point: ``python3 benchmarks/e2e/run.py --workload W --seed N ...``.

A script rather than ``-m`` so the command names nothing outside this
directory; it puts the checkout and its ``src/`` on the path itself and
refuses to run anywhere the program under test is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmarks/e2e: no program to measure under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e2e.cli import main

    sys.exit(main())
