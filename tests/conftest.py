import contextlib
import os
import signal
import subprocess
import sys
import time
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


class _Expired(BaseException):
    """A deadline's end. Not an Exception, so that hypothesis does not take it
    for a failing example and go on shrinking with no timer running."""


def _expire(signum, frame):
    raise _Expired


@contextlib.contextmanager
def _deadline(seconds=10):
    """Fail the test if the block takes more than ``seconds``. A run at a huge
    fuel single-steps for years if the fast-forward breaks; under a deadline
    that is a failure, not a hang. An enclosing deadline stops for the block
    and then goes on with the time it had left, less the block's. An expiry
    inside the block is reported as a plain failure: pytest cannot render
    every frame a signal handler raises in."""
    previous = signal.signal(signal.SIGALRM, _expire)
    outer = signal.setitimer(signal.ITIMER_REAL, seconds)[0]
    start = time.monotonic()
    timed_out = False
    try:
        yield
    except _Expired:
        timed_out = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:  # an outer timer already due fires at once: 0 would cancel it
            signal.setitimer(signal.ITIMER_REAL, max(outer - (time.monotonic() - start), 1e-6))
    if timed_out:
        raise pytest.fail.Exception(f"not done within {seconds} s", pytrace=False) from None


@pytest.fixture(autouse=True)
def _test_deadline():
    """Every test under a deadline: a differential against a broken
    fast-forward fails instead of hanging the session."""
    with _deadline(60):
        yield
