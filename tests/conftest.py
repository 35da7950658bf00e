"""Let the subprocesses some tests start import gadel from this checkout, and
make the Hypothesis property tests deterministic and free of timing limits."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself without Hypothesis
    pass
else:
    settings.register_profile("gadel", derandomize=True, deadline=None)
    settings.load_profile("gadel")
