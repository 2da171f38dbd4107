import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from cm2cypher import parse_dsl

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
REFERENCE = Path(__file__).resolve().parent / "data" / "reference"

# any value json.loads can return, kept small
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**64, 2**64) | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


@pytest.fixture(scope="session")
def demo():
    return parse_dsl((FIXTURES / "demo.2cm").read_text(encoding="utf-8"))


def run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this checkout's
    ``src``: for exit codes, stderr and import-time effects."""
    env = dict(os.environ)
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60)
