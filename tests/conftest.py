import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import usvt
from usvt import _helper, cli


@pytest.fixture
def child_env():
    """os.environ with the directory this `usvt` was imported from first on
    PYTHONPATH, so that a child interpreter imports the same copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(usvt.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture
def helpers(monkeypatch, tmp_path):
    """The helper interpreters that write_matrix and read_matrix start, as
    `cli._start_helper(job, fd, *args)` returned them, with temporary
    files in an empty directory of their own.  Afterwards every helper
    must have been waited for and no temporary file be left."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    started = []
    start = cli._start_helper

    def recording(job, *args):
        assert job in ("render", "read")
        started.append(start(job, *args))
        return started[-1]

    monkeypatch.setattr(cli, "_start_helper", recording)
    yield started
    assert list(tmp.iterdir()) == []
    for proc, out in filter(None, started):
        assert proc.returncode is not None and out.closed


@pytest.fixture
def fake_helper(monkeypatch, tmp_path):
    """Call with Python source to make every helper run it in place of
    `_helper`'s jobs."""

    def install(code: str) -> None:
        script = tmp_path / "fake_helper.py"
        script.write_text(code, encoding="utf-8")
        monkeypatch.setattr(_helper, "__file__", str(script))

    return install


@pytest.fixture
def helper_alone():
    """Run `_helper.py` by path with `args`, as the commands do: return the
    finished process and the names of the modules it imported."""

    def run(*args, **kwargs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-I", "-S", _helper.__file__, *args],
            capture_output=True, timeout=120, **kwargs)
        imported = [line.rpartition("|")[2].strip()
                    for line in proc.stderr.decode(errors="replace").splitlines()
                    if line.startswith("import time:")]
        assert "struct" in imported  # importtime did list the imports
        return proc, imported

    return run
