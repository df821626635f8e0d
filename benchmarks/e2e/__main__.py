"""``python3 -m benchmarks.e2e`` from the repo root (see cli.py)."""

import pathlib
import sys

# The package under test is not installed; run it from the source tree.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
