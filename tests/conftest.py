import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvnnuniv
from cvnnuniv import workers
from cvnnuniv.activations import activation_catalog
from cvnnuniv.classifier import classify


@pytest.fixture(scope="session")
def catalog_reports():
    """Classification of the whole catalog at default config (computed once)."""
    return {spec.name: classify(spec) for spec in activation_catalog()}


@pytest.fixture
def use_workers(monkeypatch):
    """``use_workers(count)``: later work goes to a fresh pool of ``count`` workers; each such pool is shut down."""
    started = []

    def shutdown():
        if started and workers._pool is not None:
            workers._pool.shutdown()

    def use(count):
        shutdown()
        monkeypatch.setattr(workers, "_WORKERS", count)
        monkeypatch.setattr(workers, "_pool", None)
        started.append(count)

    yield use
    shutdown()


@pytest.fixture
def run_python():
    """``run_python(code, timeout)``: run ``code`` in a fresh interpreter that imports this checkout's package; False if it timed out."""
    src = str(Path(cvnnuniv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def run(code, timeout):
        try:
            subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
        return True

    return run
