"""Two processes taking turns at one table: which process formats and
writes each block of a table that io writes to a file, and in what order.

Kept apart from io because each module is compiled on its own: where no
bytecode is cached (PYTHONDONTWRITEBYTECODE), one io.py holding this class
raised the peak resident memory of an audit of a 65536-point state by about
0.2 MB (40.1 -> 40.3 MB), and the two modules do not.
"""

from __future__ import annotations

import os


class Turns:
    """Which process formats and writes each block of a table, in order.

    Until the second block exists this process takes every block.  When it
    does, and a second CPU is available, the process forks a twin: the
    parent keeps the even blocks and the twin takes the odd ones.  Each
    formats its own blocks, then waits for its turn to write: they share
    one open file description, and the writer of block k passes a one-byte
    token over a pipe once block k + 1 exists (so never after the last
    block), which the writer of block k + 1 reads before it writes.  No
    data or text crosses between them.  The twin leaves only through
    os._exit, in end(); the parent reaps it there, killing it first unless
    the table is finished, and raises ChildProcessError when the twin did
    not finish its blocks.

    Python 3.12 and later warn (DeprecationWarning) when a process with
    other threads forks; numpy's OpenBLAS keeps one, so a table written
    there may print that warning.
    """

    def __init__(self, handle):
        self.handle = handle
        self.twin = None      # the twin's pid in the parent, 0 in the twin, None when there is none
        self.status = None    # the twin's wait status, once the parent has reaped it
        self.owed = False     # this process wrote the block before the newest and owes the token for it

    def take(self, k: int) -> bool:
        """Block k exists: pass on the token for block k - 1 if this process
        owes it, or fork at the second block.  True when this process formats block k."""
        if self.owed:
            self.owed = False
            try:
                os.write(self.send, b".")
            except BrokenPipeError as exc:
                raise self._lost() from exc
        elif k == 1 and second_cpu():
            self._fork()
        return self.twin is None or k % 2 == (self.twin == 0)  # the twin (pid 0) takes the odd blocks

    def write(self, k: int, text: str) -> None:
        """Write this process's block k once block k - 1 is written."""
        if self.twin is not None and k >= 2 and os.read(self.receive, 1) != b".":
            raise self._lost()
        self.handle.write(text)
        self.handle.flush()
        self.owed = self.twin is not None

    def end(self, finished: bool) -> None:
        """Leave the table.  The twin exits here.  The parent waits for the
        twin of a finished table, kills it first when the table failed or the
        wait is interrupted, and raises when a finished table's twin did not
        exit 0."""
        if self.twin == 0:
            os._exit(0 if finished else 1)
        if self.twin is None:
            return
        os.close(self.send)
        os.close(self.receive)
        try:
            if finished and self.status is None:
                self.status = os.waitpid(self.twin, 0)[1]
        finally:
            if self.status is None:
                os.kill(self.twin, 9)  # SIGKILL, without importing the signal module
                self.status = os.waitpid(self.twin, 0)[1]
        if finished and self.status != 0:
            raise self._lost()

    def _fork(self) -> None:
        """Fork the twin; when the system refuses a process, this one goes on alone."""
        self.handle.flush()  # else the buffered header would be written by both
        to_twin, to_parent = os.pipe(), os.pipe()
        try:
            self.twin = os.fork()
        except OSError:
            for fd in (*to_twin, *to_parent):
                os.close(fd)
            return
        (self.receive, unused_send), (unused_receive, self.send) = (
            (to_twin, to_parent) if self.twin == 0 else (to_parent, to_twin)
        )
        os.close(unused_send)
        os.close(unused_receive)

    def _lost(self) -> ChildProcessError:
        """The error for a peer that ended before its blocks did; the parent reaps its twin first."""
        if self.twin and self.status is None:
            self.status = os.waitpid(self.twin, 0)[1]
        code = os.waitstatus_to_exitcode(self.status) if self.twin else None
        return ChildProcessError(f"the process writing the odd blocks of the table ended early (exit code {code})")


def second_cpu() -> bool:
    """Whether a table may fork a twin: os.fork exists and this process may run on two CPUs."""
    return hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
