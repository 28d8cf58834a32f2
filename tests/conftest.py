import os
from pathlib import Path

from hypothesis import settings

# subprocesses started by the tests import the package from this checkout
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

settings.register_profile("fast", max_examples=25, deadline=None)
settings.load_profile("fast")
