"""write_series formats a large figure's rows on every usable CPU, in forked
processes: how many it starts, that it reaps every one of them whether the
write succeeds or fails, and that a failure surfaces as one OSError."""

import errno
import io
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from crdbounds import figure
from crdbounds.cli import main
from crdbounds.config import RunConfig
from crdbounds.figure import MAX_FIGURE_POINTS, build_figure, write_series
from crdbounds.laws import universe_laws

from test_series_columns import reference_write_series

SRC = Path(__file__).resolve().parents[1] / "src"

# numpy's BLAS threads make this test process multi-threaded, where Python
# 3.12+ warns at every fork; the tests that force a fork here are about the
# children, and test_forks_in_a_fresh_process_warn_of_nothing runs the
# writer's own choice in a process of one thread under -W error.
pytestmark = pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")


@pytest.fixture(scope="module")
def dense_figure():
    """The CLI's figure at step 0.1, 12501 rows a series: the writer's own
    choice forks with two or more usable CPUs."""
    return build_figure((450.0, 1700.0), 0.1, universe_laws(RunConfig().params))


@pytest.fixture(scope="module")
def dense_reference(dense_figure, tmp_path_factory):
    """The reference writer's bytes of dense_figure, by format."""
    path = tmp_path_factory.mktemp("reference") / "figure"
    want = {}
    for fmt in ("csv", "json"):
        reference_write_series(*dense_figure, path, fmt)
        want[fmt] = path.read_bytes()
    return want


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _force(monkeypatch, processes):
    monkeypatch.setattr(figure, "_processes", lambda rows: processes)


def _fail_in_children(monkeypatch):
    """Make the block formatting of every process but this one raise."""
    parent, interleave = os.getpid(), figure._interleave

    def interleave_here_only(*columns):
        if os.getpid() != parent:
            raise MemoryError("formatting failed in a child")
        return interleave(*columns)

    monkeypatch.setattr(figure, "_interleave", interleave_here_only)


# -- how many processes --------------------------------------------------------


@pytest.fixture()
def one_thread(monkeypatch):
    monkeypatch.setattr(figure, "_single_threaded", lambda: True)


@pytest.mark.parametrize(
    "cpus, rows, processes",
    [
        (2, 1251, 1),  # the CLI's default figure
        (2, 2 * figure._ROWS_PER_PROCESS - 1, 1),
        (2, 2 * figure._ROWS_PER_PROCESS, 2),
        (2, 125001, 2),
        (3, 25001, 3),
        (64, 25001, 6),
        (1000, MAX_FIGURE_POINTS, 64),  # at most 64 processes a call
        (1, MAX_FIGURE_POINTS, 1),
        (8, 0, 1),
    ],
)
def test_one_process_per_usable_cpu_and_floor(monkeypatch, one_thread, cpus, rows, processes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert figure._processes(rows) == processes


def test_another_thread_keeps_one_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not figure._single_threaded()
        assert figure._processes(MAX_FIGURE_POINTS) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _refuse_fork():
    raise OSError(errno.EAGAIN, "os.fork refused")


@pytest.mark.parametrize("affinity", ["one cpu", "absent"])
def test_one_usable_cpu_never_forks(monkeypatch, one_thread, tmp_path, dense_figure, dense_reference, affinity):
    if affinity == "absent":  # as on Windows and macOS
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert figure._processes(len(dense_figure[0][0].points)) == 1
    for fmt in ("csv", "json"):
        write_series(*dense_figure, tmp_path / "fig", fmt)
        assert (tmp_path / "fig").read_bytes() == dense_reference[fmt], fmt


def test_usable_cpus_fork(monkeypatch, one_thread, tmp_path, dense_figure):
    # the control for the test above: with three usable CPUs the same write forks
    forks = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or _refuse_fork())
    with pytest.raises(OSError, match="os.fork refused"):
        write_series(*dense_figure, tmp_path / "fig.csv", "csv")
    assert len(forks) == 1


# -- every child is reaped --------------------------------------------------------


@pytest.mark.parametrize("processes", [2, 3])
def test_a_forked_write_leaves_no_child(monkeypatch, tmp_path, dense_figure, processes):
    _force(monkeypatch, processes)
    for fmt in ("csv", "json"):
        write_series(*dense_figure, tmp_path / f"fig.{fmt}", fmt)
        _assert_no_child_left()


def test_a_forked_write_formats_nothing_here(monkeypatch, tmp_path, dense_figure, dense_reference):
    # the calling process only copies the children's blocks: formatting here
    # would write to pages it shares with them, which the kernel then copies
    parent, interleave = os.getpid(), figure._interleave

    def interleave_in_children_only(*columns):
        if os.getpid() == parent:
            raise AssertionError("rows formatted in the calling process")
        return interleave(*columns)

    monkeypatch.setattr(figure, "_interleave", interleave_in_children_only)
    _force(monkeypatch, 2)
    for fmt in ("csv", "json"):
        write_series(*dense_figure, tmp_path / "fig", fmt)
        assert (tmp_path / "fig").read_bytes() == dense_reference[fmt], fmt
    _assert_no_child_left()


class _FullDisk(io.FileIO):
    """A file whose third write fails, as on a full disk."""

    writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(data)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_parent_write_error_propagates_and_leaves_no_child(monkeypatch, tmp_path, dense_figure, fmt):
    _force(monkeypatch, 3)
    monkeypatch.setattr(Path, "open", lambda path, mode: _FullDisk(path, "w"))
    with pytest.raises(OSError) as raised:
        write_series(*dense_figure, tmp_path / f"fig.{fmt}", fmt)
    assert raised.value.errno == errno.ENOSPC
    _assert_no_child_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failing_child_is_an_oserror_and_leaves_no_child(monkeypatch, tmp_path, dense_figure, fmt):
    _force(monkeypatch, 3)
    _fail_in_children(monkeypatch)
    with pytest.raises(OSError, match="figure writer process"):
        write_series(*dense_figure, tmp_path / f"fig.{fmt}", fmt)
    _assert_no_child_left()


def test_a_failing_child_ends_the_cli_with_one_line(monkeypatch, tmp_path, capsys):
    _force(monkeypatch, 2)
    _fail_in_children(monkeypatch)
    out = tmp_path / "fig.csv"
    with pytest.raises(SystemExit) as exited:
        main(["figure", "--out", str(out)])
    assert exited.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"Error: cannot write {out}: figure writer process ")
    _assert_no_child_left()


# -- the writer's own choice, in a process of one thread ---------------------------

_COUNT_FORKS = """
import os, sys
from crdbounds.cli import main
forks = []
fork = os.fork
os.fork = lambda: forks.append(None) or fork()
main(sys.argv[1:])
print(len(forks))
"""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_forks_in_a_fresh_process_warn_of_nothing(tmp_path, dense_reference, fmt):
    # the CLI loads no numpy, so its process runs one thread; with two or
    # more usable CPUs the 12501-row figure forks, and -W error turns Python
    # 3.12+'s warning about forking a multi-threaded process into a failure
    out = tmp_path / f"fig.{fmt}"
    args = ["figure", "--step", "0.1", "--format", fmt, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _COUNT_FORKS, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = min(cpus, 12501 // figure._ROWS_PER_PROCESS)
    # a forked write formats every range in a child of its own
    assert int(done.stdout.splitlines()[-1]) == (processes if processes > 1 else 0)
    assert out.read_bytes() == dense_reference[fmt]
