"""The CI smoke harness (``scripts/smoke.py``) stays runnable and in
step with the CI matrix that names its smokes."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _harness(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    spec = importlib.util.spec_from_file_location("smoke",
                                                  SCRIPTS / "smoke.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _harness_smokes(monkeypatch):
    return sorted(_harness(monkeypatch).SMOKES)


def test_smoke_harness_runs_without_pythonpath(monkeypatch):
    """``scripts/smoke.py`` gets ``src`` onto ``sys.path`` through
    ``load_gen``, so ``python scripts/smoke.py --help`` works bare and
    names every smoke."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "smoke.py"), "--help"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    names = _harness_smokes(monkeypatch)
    assert names == ["chaos", "fleet", "obs", "service", "slo"]
    for name in names:
        assert name in proc.stdout


def test_ci_smoke_matrix_lists_exactly_the_harness_smokes(monkeypatch):
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    match = re.search(r"^\s+smoke: \[([^\]]*)\]\s*$", workflow, re.MULTILINE)
    assert match, "ci.yml has no `smoke: [...]` matrix"
    matrix = [name.strip() for name in match.group(1).split(",")]
    assert sorted(matrix) == _harness_smokes(monkeypatch)
    assert len(set(matrix)) == len(matrix)
    assert "python scripts/smoke.py ${{ matrix.smoke }}" in workflow


def test_ready_timeout_stops_the_server(monkeypatch, tmp_path):
    """A server that misses its ready deadline is stopped before the
    harness exits: no caller holds the handle yet to stop it."""
    smoke = _harness(monkeypatch)
    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(smoke.subprocess, "Popen", RecordingPopen)
    monkeypatch.setattr(smoke, "READY_SECONDS", 0)
    with pytest.raises(SystemExit):
        smoke.boot_serve(tmp_path / "store.sqlite")
    assert len(started) == 1
    assert started[0].poll() is not None


def test_clean_drain_sees_the_last_log_line(monkeypatch, tmp_path):
    """``stop()`` returns only after the log reader hit EOF, so the
    drain check reads the shutdown line without sleeping for it."""
    smoke = _harness(monkeypatch)
    with smoke.boot_serve(tmp_path / "store.sqlite") as server:
        smoke.assert_clean_drain(server)
        assert not server._reader.is_alive()
