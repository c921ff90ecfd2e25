#!/usr/bin/env python
"""Regenerate the golden result files ``tests/test_golden.py`` checks.

Run it only in a change that means to move results, and say so there:

    PYTHONPATH=src python scripts/update_golden.py
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    # Keep the developer's cache root free of ledger records and blobs.
    os.environ.setdefault("REPRO_LEDGER", "off")
    os.environ.setdefault("REPRO_TRACE_STORE", "off")
    from tests.test_golden import GOLDEN_DIR, golden_documents

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in golden_documents().items():
        (GOLDEN_DIR / name).write_text(text)
        print(f"wrote tests/golden/{name} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
