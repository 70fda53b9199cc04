"""CLI commands, file formats, and exit-code contract."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import usvt
from usvt import DenoiseReport, MPLaw, cli, mse, signal_matrix, singular_values
from usvt.cli import (
    MatrixFileError,
    main,
    plot_script,
    read_matrix,
    write_matrix,
    write_report,
)

MU_1 = 0.6527759416335704


def write_lines(path, text):
    path.write_text(text, encoding="utf-8")


def row_loop(x):
    """The matrix file of x rendered one row at a time: the reference."""
    return "".join(",".join(map(repr, row.tolist())) + "\n" for row in x).encode()


class TestMatrixFile:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = np.concatenate([
            rng.standard_normal(20) * 10.0**rng.integers(-20, 20, size=20),
            [0.0, -0.0, 1e-300, -1e300, 3.141592653589793],
        ]).reshape(5, 5)
        p = tmp_path / "m.txt"
        write_matrix(p, x)
        assert np.array_equal(read_matrix(p), x)

    @pytest.mark.parametrize("case", ["zeros", "one_negative_zero", "nonzero"])
    def test_write_matches_row_loop(self, tmp_path, case):
        # an all +0.0 matrix is written as one rendered row repeated; the
        # bytes must be those of rendering every row
        x = np.zeros((7, 5))
        if case == "one_negative_zero":
            x[3, 2] = -0.0
        elif case == "nonzero":
            x[6, 4] = 1e-300
        p = tmp_path / "m.txt"
        write_matrix(p, x)
        expected = "".join(",".join(map(repr, row.tolist())) + "\n" for row in x)
        assert p.read_text(encoding="utf-8") == expected
        assert ("-0.0" in expected) == (case == "one_negative_zero")

    def test_write_then_read_is_canonical(self, tmp_path):
        p = tmp_path / "m.txt"
        write_lines(p, "1.50,2\n3,0.25\n")
        a = read_matrix(p)
        q = tmp_path / "canon.txt"
        write_matrix(q, a)
        assert q.read_text() == "1.5,2.0\n3.0,0.25\n"

    def test_ragged_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        write_lines(p, "1,2,3\n4,5\n")
        with pytest.raises(MatrixFileError, match="line 2"):
            read_matrix(p)

    def test_unparseable_reports_position(self, tmp_path):
        p = tmp_path / "bad.txt"
        write_lines(p, "1,2\n3,x\n")
        with pytest.raises(MatrixFileError, match="line 2.*field 2"):
            read_matrix(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        write_lines(p, "1,nan\n")
        with pytest.raises(MatrixFileError, match="non-finite"):
            read_matrix(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        write_lines(p, "")
        with pytest.raises(MatrixFileError, match="empty"):
            read_matrix(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MatrixFileError, match="cannot read"):
            read_matrix(tmp_path / "nope.txt")


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-5, 1e16,
               1.0, -3.0, 12345.0, 2.0**53]


@pytest.fixture
def helpers(monkeypatch, tmp_path):
    """The helpers write_matrix starts, as `_start_helper` returned them,
    with temporary files in an empty directory of their own.  Afterwards
    every helper must have been waited for and no temporary file be left."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    started = []
    start = cli._start_helper

    def recording(block):
        started.append(start(block))
        return started[-1]

    monkeypatch.setattr(cli, "_start_helper", recording)
    yield started
    assert list(tmp.iterdir()) == []
    for proc, out in filter(None, started):
        assert proc.returncode is not None and out.closed


def cpus(monkeypatch, count):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: count)


class TestParallelWrite:
    """A matrix of at least HELPER_MIN_ENTRIES entries is rendered in row
    blocks, all but the first by helper processes; the bytes must be those
    of the row loop."""

    @pytest.mark.parametrize("shape", [
        (1, 1), (511, 256), (512, 256), (513, 257), (3, 2**16), (1, 2**17),
    ], ids=["1x1", "below", "at", "odd-rows", "rows<cpus", "one-row"])
    def test_bytes_are_the_row_loop(self, tmp_path, monkeypatch, helpers, shape):
        cpus(monkeypatch, 4)
        x = np.random.default_rng(shape[0]).standard_normal(shape)
        p = tmp_path / "m.txt"
        write_matrix(p, x)
        assert p.read_bytes() == row_loop(x)
        parts = min(4, shape[0]) if x.size >= cli.HELPER_MIN_ENTRIES else 1
        assert len(helpers) == parts - 1 and all(helpers)

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_edge_values_on_any_cpu_count(self, tmp_path, monkeypatch, helpers, count):
        cpus(monkeypatch, count)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((515, 256)) * 10.0**rng.integers(-30, 30, (515, 256))
        flat = x.reshape(-1)
        flat[rng.choice(x.size, 40 * len(EDGE_VALUES), replace=False)] = EDGE_VALUES * 40
        flat[:len(EDGE_VALUES)] = flat[-len(EDGE_VALUES):] = EDGE_VALUES
        p = tmp_path / "m.txt"
        write_matrix(p, x)
        expected = row_loop(x)
        assert p.read_bytes() == expected
        assert len(helpers) == count - 1
        for text in (b"-0.0,", b"5e-324", b"-1.7976931348623157e+308", b"1e-05", b"1e+16",
                     b"12345.0", b"9007199254740992.0"):
            assert text in expected

    def test_helper_alone_imports_no_numpy(self):
        code = cli._HELPER + "assert not [m for m in sys.modules if m.split('.')[0] in ('numpy', 'usvt')]\n"
        x = np.array([[-0.0, 5e-324, 1e16], [1e-5, 2.0, -1.7976931348623157e308]])
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, "3"],
                              input=x.tobytes(), capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == row_loop(x)

    def test_zeros_start_no_helper(self, tmp_path, monkeypatch, helpers):
        cpus(monkeypatch, 4)
        x = np.zeros((512, 256))
        p = tmp_path / "m.txt"
        write_matrix(p, x)
        assert p.read_bytes() == row_loop(x) and helpers == []

    @pytest.mark.parametrize("how", ["missing", "empty", "exit-1", "killed"])
    def test_failed_helper_block_is_rendered_here(self, tmp_path, monkeypatch, helpers, how):
        cpus(monkeypatch, 3)
        if how == "missing":
            monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
        elif how == "empty":
            monkeypatch.setattr(sys, "executable", "")
        elif how == "exit-1":
            monkeypatch.setattr(cli, "_HELPER", "import sys; print('1.0'); sys.exit(1)")
        else:
            monkeypatch.setattr(cli, "_HELPER", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)")
        x = np.random.default_rng(3).standard_normal((600, 300))
        p = tmp_path / "m.txt"
        write_matrix(p, x)
        assert p.read_bytes() == row_loop(x)
        assert len(helpers) == 2
        if how in ("missing", "empty"):
            assert helpers == [None, None]
        else:
            assert all(proc.returncode != 0 for proc, _ in helpers)

    def test_failed_write_reaps_helpers(self, tmp_path, monkeypatch, helpers):
        def failing(fh, rows):
            raise OSError("no space left")

        cpus(monkeypatch, 3)
        monkeypatch.setattr(cli, "_write_rows", failing)
        with pytest.raises(OSError, match="no space left"):
            write_matrix(tmp_path / "m.txt", np.ones((600, 300)))
        assert len(helpers) == 2 and all(helpers)


class TestMpQuantile:
    def test_gamma_one_lower_edge(self, capsys):
        assert main(["mp-quantile", "--gamma", "1", "--p", "0"]) == 0
        assert capsys.readouterr().out.strip() == "0.0"

    def test_gamma_one_median(self, capsys):
        assert main(["mp-quantile", "--gamma", "1", "--p", "0.5"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(MU_1, abs=1e-8)

    @pytest.mark.parametrize("gamma", [0.999999, 0.3])
    def test_output_reads_back_exactly(self, capsys, gamma):
        assert main(["mp-quantile", "--gamma", repr(gamma), "--p", "0.5"]) == 0
        assert float(capsys.readouterr().out) == MPLaw(gamma).quantile(0.5)

    def test_bad_gamma_is_usage_error(self, capsys):
        assert main(["mp-quantile", "--gamma", "1.5", "--p", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "gamma" in err

    def test_bad_level_is_usage_error(self):
        assert main(["mp-quantile", "--gamma", "0.5", "--p", "1.5"]) == 2

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["mp-quantile", "--gamma", "0.5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("gamma", ["1e-12", "1e-9"])
    def test_uncertified_quantile_is_runtime_error(self, capsys, gamma):
        # a valid gamma so small that the bisection cannot certify the
        # quantile: exit 1, one error line, nothing printed
        assert main(["mp-quantile", "--gamma", gamma, "--p", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usvt: error: --gamma {float(gamma)!r}: ")
        assert "certification" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "nan"), ("--gamma", "inf"), ("--p", "nan"), ("--p", "inf"),
    ])
    def test_non_finite_is_usage_error(self, capsys, flag, value):
        # argparse keeps the last value of a repeated flag
        assert main(["mp-quantile", "--gamma", "0.5", "--p", "0.5",
                     flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usvt: error: {flag}: " in captured.err


class TestEstimateSigma:
    def test_zero_matrix(self, tmp_path, capsys):
        p = tmp_path / "z.txt"
        write_matrix(p, np.zeros((4, 6)))
        assert main(["estimate-sigma", "--input", str(p)]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_scaled_file_ratio(self, tmp_path, capsys):
        x = np.random.default_rng(1).standard_normal((10, 16))
        p1, p3 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_matrix(p1, x)
        write_matrix(p3, 3.0 * x)
        main(["estimate-sigma", "--input", str(p1)])
        v1 = float(capsys.readouterr().out)
        main(["estimate-sigma", "--input", str(p3)])
        v3 = float(capsys.readouterr().out)
        assert v3 / v1 == pytest.approx(3.0, abs=1e-9)

    def test_pure_noise_file(self, tmp_path, capsys):
        x = 2.0 * np.random.default_rng(2).standard_normal((200, 1000))
        p = tmp_path / "noise.txt"
        write_matrix(p, x)
        assert main(["estimate-sigma", "--input", str(p)]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=0.06)

    def test_even_median_of_huge_values_is_finite(self, tmp_path, capsys):
        # (s_1 + s_2) / 2 overflows although both values are finite
        p = tmp_path / "big.txt"
        write_lines(p, "1e308,0\n0,1e308\n")
        assert main(["estimate-sigma", "--input", str(p)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert float(captured.out) == pytest.approx(1e308 / (2 * MU_1) ** 0.5)

    def test_ragged_file_runtime_error(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        write_lines(p, "1,2\n3\n")
        assert main(["estimate-sigma", "--input", str(p)]) == 1
        assert "line 2" in capsys.readouterr().err


class TestSpectrum:
    def test_diagonal(self, tmp_path, capsys):
        p = tmp_path / "d.txt"
        write_matrix(p, np.diag([3.0, 2.0, 1.0]))
        assert main(["spectrum", "--input", str(p)]) == 0
        assert capsys.readouterr().out.splitlines() == ["3.0", "2.0", "1.0"]

    def test_zero(self, tmp_path, capsys):
        p = tmp_path / "z.txt"
        write_matrix(p, np.zeros((2, 5)))
        main(["spectrum", "--input", str(p)])
        assert capsys.readouterr().out.splitlines() == ["0.0", "0.0"]

    def test_transpose_same_output(self, tmp_path, capsys):
        x = np.random.default_rng(3).standard_normal((6, 11))
        p, pt = tmp_path / "x.txt", tmp_path / "xt.txt"
        write_matrix(p, x)
        write_matrix(pt, x.T)
        main(["spectrum", "--input", str(p)])
        out1 = capsys.readouterr().out
        main(["spectrum", "--input", str(pt)])
        assert capsys.readouterr().out == out1


class TestDenoise:
    def test_sigma_zero_byte_identity(self, tmp_path):
        x = np.random.default_rng(4).standard_normal((5, 9))
        src = tmp_path / "in.txt"
        out = tmp_path / "out.txt"
        rep = tmp_path / "rep.json"
        write_matrix(src, x)
        assert main(["denoise", "--input", str(src), "--sigma", "0",
                     "--output", str(out), "--report", str(rep)]) == 0
        assert out.read_bytes() == src.read_bytes()
        report = json.loads(rep.read_text())
        assert report["kept_rank"] == 5
        assert report["degenerate_sigma"] is True

    def test_enormous_sigma_zero_output(self, tmp_path):
        x = np.random.default_rng(5).standard_normal((4, 7))
        src, out, rep = (tmp_path / n for n in ("in.txt", "out.txt", "r.json"))
        write_matrix(src, x)
        assert main(["denoise", "--input", str(src), "--sigma", "1e6",
                     "--output", str(out), "--report", str(rep)]) == 0
        assert np.array_equal(read_matrix(out), np.zeros((4, 7)))
        assert json.loads(rep.read_text())["kept_rank"] == 0

    def test_report_keys(self, tmp_path):
        x = np.random.default_rng(6).standard_normal((6, 10))
        src, out, rep = (tmp_path / n for n in ("in.txt", "out.txt", "r.json"))
        write_matrix(src, x)
        assert main(["denoise", "--input", str(src),
                     "--output", str(out), "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert list(report) == ["m", "n", "eta", "sigma_used", "mu_gamma",
                                "threshold", "kept_rank", "kept_indices",
                                "degenerate_sigma"]
        assert report["m"] == 6 and report["n"] == 10
        assert report["eta"] == 0.02
        assert report["kept_rank"] == len(report["kept_indices"])

    def test_signal_regime_improves(self, tmp_path):
        # M_50 + sigma A at 200 x 1000 beats the identity estimator; at
        # sigma = 0.1 the threshold clears part of the signal spectrum too
        rng = np.random.default_rng(12)
        signal = signal_matrix(50, 200, 1000, rng)
        for sigma in (1.0, 0.1):
            x = signal + sigma * rng.standard_normal((200, 1000))
            src, out, rep = (tmp_path / n for n in ("in.txt", "o.txt", "r.json"))
            write_matrix(src, x)
            assert main(["denoise", "--input", str(src), "--eta", "0.02",
                         "--output", str(out), "--report", str(rep)]) == 0
            denoised = read_matrix(out)
            assert mse(denoised, signal) < mse(x, signal)
            if sigma == 0.1:
                assert json.loads(rep.read_text())["kept_rank"] >= 1

    def test_bad_eta_usage_error(self, tmp_path):
        src = tmp_path / "in.txt"
        write_matrix(src, np.ones((2, 2)))
        assert main(["denoise", "--input", str(src), "--eta", "0",
                     "--output", str(tmp_path / "o"), "--report",
                     str(tmp_path / "r")]) == 2

    def test_nan_eta_usage_error(self, tmp_path, capsys):
        src, out, rep = (tmp_path / n for n in ("in.txt", "out.txt", "r.json"))
        write_matrix(src, np.ones((2, 2)))
        assert main(["denoise", "--input", str(src), "--eta", "nan",
                     "--output", str(out), "--report", str(rep)]) == 2
        assert "--eta" in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_sigma_usage_error(self, tmp_path, capsys, sigma):
        src, out, rep = (tmp_path / n for n in ("in.txt", "out.txt", "r.json"))
        write_matrix(src, np.ones((3, 4)))
        assert main(["denoise", "--input", str(src), "--sigma", sigma,
                     "--output", str(out), "--report", str(rep)]) == 2
        assert "--sigma" in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    def test_overflowing_threshold_runtime_error(self, tmp_path, capsys):
        src, out, rep = (tmp_path / n for n in ("in.txt", "out.txt", "r.json"))
        write_matrix(src, np.ones((3, 4)))
        assert main(["denoise", "--input", str(src), "--sigma", "1e308",
                     "--output", str(out), "--report", str(rep)]) == 1
        assert "overflows" in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    def test_even_median_of_huge_values_overflows_threshold(self, tmp_path, capsys):
        src, out, rep = (tmp_path / n for n in ("in.txt", "out.txt", "r.json"))
        write_lines(src, "1e308,0\n0,1e308\n")
        assert main(["denoise", "--input", str(src),
                     "--output", str(out), "--report", str(rep)]) == 1
        assert "overflows for sigma 8.75" in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    def test_negative_zero_sigma_is_reported_as_zero(self, tmp_path):
        x = np.random.default_rng(4).standard_normal((5, 9))
        src, out, rep = (tmp_path / n for n in ("in.txt", "out.txt", "r.json"))
        write_matrix(src, x)
        assert main(["denoise", "--input", str(src), "--sigma", "-0",
                     "--output", str(out), "--report", str(rep)]) == 0
        assert out.read_bytes() == src.read_bytes()
        text = rep.read_text()
        assert '"sigma_used": 0.0,' in text and '"threshold": 0.0,' in text
        assert "-0.0" not in text and json.loads(text)["kept_rank"] == 5

    def test_failed_report_write_leaves_no_output(self, tmp_path, capsys):
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        write_matrix(src, np.random.default_rng(4).standard_normal((5, 9)))
        assert main(["denoise", "--input", str(src), "--output", str(out),
                     "--report", str(tmp_path / "missing" / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("usvt: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("alias", ["same", "dot", "symlink", "hardlink"])
    def test_output_and_report_naming_one_file_is_usage_error(self, tmp_path, capsys, alias):
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        write_matrix(src, np.random.default_rng(4).standard_normal((5, 9)))
        rep = {"same": out, "dot": tmp_path / "." / "out.txt",
               "symlink": tmp_path / "link", "hardlink": tmp_path / "hard"}[alias]
        if alias == "symlink":
            rep.symlink_to(out)
        elif alias == "hardlink":
            out.write_text("kept")
            os.link(out, rep)
        assert main(["denoise", "--input", str(src), "--output", str(out),
                     "--report", str(rep)]) == 2
        assert capsys.readouterr().err == \
            f"usvt: error: --output and --report name the same file: {rep}\n"
        if alias == "hardlink":
            assert out.read_text() == "kept"
        else:
            assert not out.exists()

    def test_failed_write_removes_a_symlinks_target_not_the_link(self, tmp_path, capsys):
        src, target, link = tmp_path / "in.txt", tmp_path / "target.txt", tmp_path / "link"
        write_matrix(src, np.random.default_rng(4).standard_normal((5, 9)))
        link.symlink_to(target)
        assert main(["denoise", "--input", str(src), "--output", str(link),
                     "--report", str(tmp_path / "missing" / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("usvt: error: ")
        assert link.is_symlink() and not target.exists()

    def test_failed_write_never_unlinks_a_device(self, tmp_path, capsys, monkeypatch):
        # the spy stands in for Path.unlink, so no device can be removed
        unlinked = []
        monkeypatch.setattr(Path, "unlink", lambda self, missing_ok=False: unlinked.append(self))
        src = tmp_path / "in.txt"
        write_matrix(src, np.random.default_rng(4).standard_normal((5, 9)))
        assert main(["denoise", "--input", str(src), "--output", os.devnull,
                     "--report", str(tmp_path / "missing" / "r.json")]) == 1
        assert capsys.readouterr().err.startswith("usvt: error: ")
        assert unlinked == []

    def test_spectral_failure_falls_back_then_exits_one(self, tmp_path, capsys, monkeypatch):
        # a failed SVD leaves the values pass its W W^T eigenvalues (kept 0
        # needs nothing else); only when those fail too is it exit 1
        def exploding(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        x = np.random.default_rng(7).standard_normal((6, 10))
        src, out, rep = (tmp_path / n for n in ("in.txt", "out.txt", "r.json"))
        write_matrix(src, x)
        argv = ["denoise", "--input", str(src), "--output", str(out), "--report", str(rep)]
        monkeypatch.setattr(np.linalg, "svd", exploding)
        assert main(argv) == 0
        assert json.loads(rep.read_text())["kept_rank"] == 0
        out.unlink()
        rep.unlink()
        monkeypatch.setattr(np.linalg, "eigvalsh", exploding)
        assert main(argv) == 1
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    def test_report_rejects_non_finite(self, tmp_path):
        report = DenoiseReport(m=2, n=2, eta=0.02, sigma_used=float("nan"),
                               mu_gamma=MU_1, threshold=float("nan"),
                               kept_rank=0, kept_indices=(),
                               degenerate_sigma=False)
        rep = tmp_path / "r.json"
        with pytest.raises(ValueError):
            write_report(rep, report)
        assert not rep.exists()

    def test_missing_input_runtime_error(self, tmp_path, capsys):
        assert main(["denoise", "--input", str(tmp_path / "nope.txt"),
                     "--output", str(tmp_path / "o"), "--report",
                     str(tmp_path / "r")]) == 1
        capsys.readouterr()


class TestSimulate:
    def test_tiny_run_files(self, tmp_path):
        out = tmp_path / "res.csv"
        summary = tmp_path / "sum.csv"
        plot = tmp_path / "fig.gp"
        code = main(["simulate", "--m", "8", "--n", "12", "--ranks", "1,2",
                     "--sigmas", "0.2,0.5", "--reps", "3", "--seed", "9",
                     "--out", str(out), "--summary", str(summary),
                     "--plot", str(plot)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,sigma,rep,sigma_hat,sq_err_sigma,mse_matrix,kept_rank"
        assert len(lines) == 1 + 2 * 2 * 3
        summary_lines = summary.read_text().splitlines()
        assert summary_lines[0] == "rank,sigma,mean_sq_err_sigma,mean_mse_matrix,count"
        assert len(summary_lines) == 1 + 2 * 2
        assert all(row.endswith(",3") for row in summary_lines[1:])
        script = plot.read_text()
        assert "set multiplot layout 1,2" in script
        assert str(summary) in script
        assert "r=2" in script

    def test_plot_script_quotes_paths(self):
        # gnuplot writes a quote inside a single-quoted string as ''
        script = plot_script("it's.csv", (1,), "o'k.png")
        assert "set output 'o''k.png'\n" in script
        assert "plot 'it''s.csv' skip 1 using" in script
        assert "'it's.csv'" not in script

    def test_deterministic_bytes(self, tmp_path):
        args = ["simulate", "--m", "10", "--n", "14", "--ranks", "2",
                "--sigmas", "0.4", "--reps", "2", "--seed", "77"]
        a1, s1 = tmp_path / "a1.csv", tmp_path / "s1.csv"
        a2, s2 = tmp_path / "a2.csv", tmp_path / "s2.csv"
        assert main(args + ["--out", str(a1), "--summary", str(s1)]) == 0
        assert main(args + ["--out", str(a2), "--summary", str(s2)]) == 0
        assert a1.read_bytes() == a2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_results_floats_roundtrip(self, tmp_path):
        out, summary = tmp_path / "r.csv", tmp_path / "s.csv"
        main(["simulate", "--m", "6", "--n", "8", "--ranks", "1",
              "--sigmas", "0.3", "--reps", "2", "--seed", "5",
              "--out", str(out), "--summary", str(summary)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        from usvt import ExperimentConfig, run_experiment
        records = run_experiment(ExperimentConfig(
            m=6, n=8, ranks=(1,), sigmas=(0.3,), replications=2, seed=5))
        for row, rec in zip(rows, records):
            assert float(row[3]) == rec.sigma_hat
            assert float(row[4]) == rec.sq_err_sigma
            assert float(row[5]) == rec.mse_matrix

    @pytest.mark.parametrize("sigma, code", [("1e150", 0), ("1e200", 1)])
    def test_huge_sigma_runs_or_fails_cleanly(self, tmp_path, capsys, sigma, code):
        # at 1e200 (sigma_hat - sigma)^2 is not a float64
        out, summary = tmp_path / "r.csv", tmp_path / "s.csv"
        assert main(["simulate", "--m", "8", "--n", "12", "--ranks", "2",
                     "--sigmas", sigma, "--reps", "1", "--seed", "3",
                     "--out", str(out), "--summary", str(summary)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == f"usvt: error: cell rank=2 sigma={float(sigma)} rep=0: " \
                          "a value overflows float64\n"
            assert not out.exists() and not summary.exists()
        else:
            assert err == "" and out.exists()

    @pytest.mark.parametrize("bad", ["summary", "plot"])
    def test_failed_later_write_leaves_no_output(self, tmp_path, capsys, bad):
        paths = {name: tmp_path / f"{name}.txt" for name in ("out", "summary", "plot")}
        paths[bad] = tmp_path / "missing" / f"{bad}.txt"
        argv = ["simulate", "--m", "8", "--n", "12", "--ranks", "2", "--sigmas", "0.5",
                "--reps", "1"]
        for name, path in paths.items():
            argv += [f"--{name}", str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usvt: error: ")
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.parametrize("first, second", [
        ("out", "summary"), ("out", "plot"), ("summary", "plot"),
    ])
    def test_outputs_naming_one_file_are_usage_error(self, tmp_path, capsys, first, second):
        paths = {name: tmp_path / f"{name}.txt" for name in ("out", "summary", "plot")}
        paths[second] = tmp_path / "." / f"{first}.txt"
        argv = ["simulate", "--m", "8", "--n", "12", "--ranks", "2", "--sigmas", "0.5",
                "--reps", "1"]
        for name, path in paths.items():
            argv += [f"--{name}", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            f"usvt: error: --{first} and --{second} name the same file: {paths[second]}\n"
        assert not any(path.exists() for path in paths.values())

    @pytest.mark.parametrize("flag, value", [("--ranks", "2,2"), ("--sigmas", "0.5,0.50")])
    def test_repeated_grid_value_is_usage_error(self, tmp_path, capsys, flag, value):
        # repeats would write records whose (rank, sigma, rep) keys collide
        out, summary = tmp_path / "r.csv", tmp_path / "s.csv"
        argv = ["simulate", "--m", "8", "--n", "12", "--ranks", "2", "--sigmas", "0.5",
                "--reps", "2", "--out", str(out), "--summary", str(summary)]
        assert main(argv + [flag, value]) == 2  # the last value of a flag wins
        assert capsys.readouterr().err.startswith(f"usvt: error: {flag}: ")
        assert not out.exists() and not summary.exists()

    def test_unknown_preset_lists_available(self, capsys):
        code = main(["simulate", "--preset", "paper-fig2",
                     "--out", "x", "--summary", "y"])
        assert code == 2
        err = capsys.readouterr().err
        assert "paper-fig1" in err

    def test_missing_dimensions_without_preset(self, capsys):
        assert main(["simulate", "--ranks", "1", "--sigmas", "1",
                     "--out", "x", "--summary", "y"]) == 2
        assert "--m" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--m", "0"), ("--n", "0"), ("--ranks", "0"), ("--ranks", "9"),
        ("--sigmas", "0"), ("--sigmas", "nan"), ("--sigmas", "0.5,inf"),
        ("--reps", "0"), ("--eta", "0"), ("--eta", "nan"), ("--seed", "-1"),
        ("--seed", str(2**64)),
    ])
    def test_config_error_names_flag(self, tmp_path, capsys, flag, value):
        out, summary = tmp_path / "r.csv", tmp_path / "s.csv"
        argv = ["simulate", "--m", "8", "--n", "12", "--ranks", "1",
                "--sigmas", "0.5", "--reps", "1", "--seed", "3",
                "--out", str(out), "--summary", str(summary)]
        assert main(argv + [flag, value]) == 2  # the last value of a flag wins
        assert f"usvt: error: {flag}: " in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    def test_invalid_rank_for_preset_shape(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "paper-fig1", "--ranks", "500",
                     "--reps", "1", "--out", str(tmp_path / "a"),
                     "--summary", str(tmp_path / "b")])
        assert code == 2
        capsys.readouterr()


class TestExitCodes:
    def test_unknown_command(self):
        assert main(["transmogrify"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("module", ["usvt", "usvt.cli"])
    def test_python_m_runs_cli(self, module):
        src = str(Path(usvt.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run(
            [sys.executable, "-m", module, "mp-quantile", "--gamma", "1", "--p", "0.5"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) == pytest.approx(MU_1, abs=1e-8)

    @pytest.mark.parametrize("argv", [
        ["spectrum"], ["estimate-sigma"], ["denoise", "--sigma", "1"], ["denoise"],
    ], ids=["spectrum", "estimate-sigma", "denoise-known", "denoise-estimated"])
    def test_overflowing_singular_values_exit_one(self, tmp_path, capsys, argv):
        # finite entries near +-1.5e308 whose s_1 is not a float64
        src, out, rep = (tmp_path / n for n in ("in.txt", "out.txt", "r.json"))
        write_matrix(src, 1.5e308 * np.random.default_rng(22).uniform(-1.0, 1.0, (20, 40)))
        if argv[0] == "denoise":
            argv = argv + ["--output", str(out), "--report", str(rep)]
        assert main(argv + ["--input", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usvt: error: ") and "overflows float64" in captured.err
        assert not out.exists() and not rep.exists()

    def test_import_loads_no_scipy(self):
        # scipy costs most of the start-up time; the package must not pull
        # it in at import (any use belongs inside the function needing it).
        src = str(Path(usvt.__file__).resolve().parents[1])
        code = ("import sys; import usvt, usvt.cli; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=src, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
