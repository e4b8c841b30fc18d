"""Import-time hygiene: the batch engine does not drag in the service.

``repro.parallel`` is imported by every batch run and every worker
process; the HTTP job service (``repro.service``) is only needed by
``xring serve``.  Checked in a fresh interpreter, since this test
session has long since imported both.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_parallel_does_not_load_the_service():
    paths = (str(SRC), os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = (
        "import sys, repro.parallel\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.service'))\n"
        "print(','.join(loaded))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == ""
