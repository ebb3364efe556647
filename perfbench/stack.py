"""The system under test: a repository server in its own process.

The server is the repository's own CLI (``python -m
repro.repository.server``) over a durable SQLite database, started from
the checkout's ``src`` tree.  A set-up is everything the program does
before it can serve the measured traffic: boot the process, bulk-load
the corpus over HTTP, and answer a first pass of requests.
"""

from __future__ import annotations

import ctypes
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: The checkout this file belongs to (perfbench/ sits at its root).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for databases, server logs and traces (git-ignored).
WORK = ROOT / ".perfbench-work"

#: Seconds the server gets to print its URL, and to stop on SIGINT.
BOOT_TIMEOUT = 30.0
STOP_TIMEOUT = 15.0

_PR_SET_PDEATHSIG = 1


def check_checkout() -> None:
    """Refuse to run outside a checkout that holds the program."""
    if not (SRC / "repro" / "repository" / "server.py").is_file():
        raise SystemExit(
            f"perfbench: no repository sources under {SRC}; run from the "
            f"root of a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _die_with_parent() -> None:
    """In the child: get SIGKILL if the benchmark process dies first."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: the finally-blocks in run.py still stop it


class ServerProcess:
    """One ``repro.repository.server`` process over a database.

    Without ``db_path``, over a fresh database in a new directory.
    """

    def __init__(self, db_path: Path | None = None) -> None:
        if db_path is None:
            WORK.mkdir(exist_ok=True)
            db_path = Path(tempfile.mkdtemp(prefix="server-", dir=WORK),
                           "repo.db")
        self.db_path = db_path
        self.directory = db_path.parent
        self._log = open(self.directory / "server.log", "ab")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.repository.server",
             "--scheme", "sqlite", "--path", str(self.db_path),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=ROOT,
            preexec_fn=_die_with_parent,
        )
        self.url = self._await_url()

    def _await_url(self) -> str:
        # The CLI prints "serving <scheme> repository on <url>" once the
        # listener is bound; nothing else goes to stdout.
        readable, _, _ = select.select([self.process.stdout], [], [],
                                       BOOT_TIMEOUT)
        line = self.process.stdout.readline() if readable else b""
        text = line.decode().strip()
        if not text.startswith("serving "):
            self.stop()
            raise RuntimeError(
                f"server did not start (exit {self.process.returncode}); "
                f"see {self.directory / 'server.log'}")
        return text.rsplit(" ", 1)[-1]

    def stop(self) -> None:
        """SIGINT (the CLI's graceful drain), then SIGKILL if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()

    def remove(self) -> None:
        """Stop, then delete the database and log."""
        self.stop()
        shutil.rmtree(self.directory, ignore_errors=True)


def set_up(corpus, warm_up):
    """Boot a server, load ``corpus`` over HTTP, run ``warm_up(url)``.

    Returns the running server, what ``warm_up`` returned, and the wall
    time the three steps took.
    """
    from repro.repository.client import HTTPBackend

    started = time.perf_counter()
    server = ServerProcess()
    try:
        loader = HTTPBackend(server.url)
        try:
            if loader.add_many(corpus) != len(corpus):
                raise RuntimeError("bulk load stored a short count")
        finally:
            loader.close()
        warmed = warm_up(server.url)
    except BaseException:
        server.remove()
        raise
    return server, warmed, time.perf_counter() - started
