import tempfile

import pytest

from usvt import cli


@pytest.fixture
def helpers(monkeypatch, tmp_path):
    """The helper interpreters that write_matrix and read_matrix start, as
    `cli._start_helper` returned them, with temporary files in an empty
    directory of their own.  Afterwards every helper must have been waited
    for and no temporary file be left."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    started = []
    start = cli._start_helper

    def recording(*args, **kwargs):
        started.append(start(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(cli, "_start_helper", recording)
    yield started
    assert list(tmp.iterdir()) == []
    for proc, out in filter(None, started):
        assert proc.returncode is not None and out.closed
