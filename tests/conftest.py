import collections
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import usvt
from usvt import _helper, _host, cli, estimators, spectral


@pytest.fixture
def child_env():
    """os.environ with the directory this `usvt` was imported from first on
    PYTHONPATH, so that a child interpreter imports the same copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(usvt.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Calls(list):
    """The names of the spied routines in the order they were called, and
    what each call of a name returned, in `returned[name]`."""

    def __init__(self):
        super().__init__()
        self.returned = collections.defaultdict(list)


@pytest.fixture
def spectral_calls(monkeypatch):
    """Call with routine names to spy on them, by default on every solve but
    the few eigenvalues a decision reads (stebz, laebz): the Calls returned
    get each name as it is called, and the names in `fail`, spied too,
    raise LinAlgError in place of running.  The names are `_host`'s
    sytrd, stebz, sterf, laebz and top_vectors, numpy's svd, eigvalsh and
    eigh, the rank-k part's thin SVD `_svd_part` (the svd that follows it;
    any other svd is values-only) and `_gram`, `_wide`, `as_matrix` and
    `_sigma_hat`.  Calls again wrap the spies already installed."""
    homes = {"svd": [np.linalg], "eigvalsh": [np.linalg], "eigh": [np.linalg],
             "_svd_part": [spectral._SpectralPass], "_gram": [spectral], "_wide": [spectral],
             "as_matrix": [spectral, estimators], "_sigma_hat": [estimators]}

    def install(*names, fail=()):
        calls = Calls()

        def spy(home, name):
            original = getattr(home, name)

            def counted(*args, **kwargs):
                calls.append(name)
                if name in fail:
                    raise np.linalg.LinAlgError("did not converge")
                result = original(*args, **kwargs)
                calls.returned[name].append(result)
                return result

            monkeypatch.setattr(home, name, counted)

        solves = ("sytrd", "sterf", "top_vectors", "svd", "_svd_part", "eigvalsh", "eigh")
        for name in set(names or solves) | set(fail):
            for home in homes.get(name, [_host]):
                spy(home, name)
        return calls

    return install


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
