"""The work that fluctlab shares with a forked twin process: the writer of
a table or document that io writes to a file a block at a time (Blocks, the
text to write; write_blocks, the one writer loop; and Turns, which of two
processes formats and writes each block, in what order), and shared_map,
with which the sweeps measure their levels in two processes.

Both fork only when second_cpu() holds.  A refused fork leaves the work to
one process, and so does any error in shared_map, which then raises the
serial loop's error; a table or document whose twin ends early is not
written.  shared_map pays only because the moments it computes use no BLAS:
two OpenBLAS thread pools on two CPUs made the eigensweep twice as slow as
one process, and numpy's pairwise sums give the same bits whatever the
thread count, which the dot products did not.

Kept apart from io because each module is compiled on its own: where no
bytecode is cached (PYTHONDONTWRITEBYTECODE), one io.py holding Turns
raised the peak resident memory of an audit of a 65536-point state by about
0.2 MB (40.1 -> 40.3 MB), and the two modules do not.
"""

from __future__ import annotations

import os
import pickle
import threading
from itertools import count


class Blocks:
    """Text to write: head, text(k, block) for each block k of blocks (read
    once) that has rows, then tail.  replays: a forked copy of blocks yields
    the same blocks, so two processes may write them (see write_blocks)."""

    def __init__(self, head: str, tail: str, text, blocks, replays: bool):
        self.head, self.tail, self.text, self.blocks, self.replays = head, tail, text, blocks, replays

    def __iter__(self):
        yield self.head
        # map, unlike a for loop, lets go of each block before the next one is made
        yield from map(self.text, count(), filter(_has_rows, self.blocks))
        yield self.tail


def _has_rows(block) -> bool:
    return bool(block) and len(block[0]) > 0


def write_blocks(handle, doc: Blocks) -> None:
    """Write doc, a table or a document, to handle, an open text file, block by block.

    From the second block on, when doc's blocks replay and second_cpu()
    holds, a forked twin formats and writes the
    odd blocks while this process does the even ones: see Turns.  Both make
    every block from their own copy of the block iterator, so every check the
    iterator makes still raises here, at the same block.  Otherwise this
    process takes every block, in the same loop.
    """
    handle.write(doc.head)
    turns, finished, k = Turns(handle, doc.replays), False, 0
    try:
        for block in filter(_has_rows, doc.blocks):
            text = doc.text(k, block) if turns.take(k) else ""
            del block  # let go of each block before the next one is made
            if text:
                turns.write(k, text)
            del text
            k += 1
        finished = True
    finally:
        turns.end(finished)
    handle.write(doc.tail)


class Turns:
    """Which process formats and writes each block of a table or document, in order.

    Until the second block exists this process takes every block.  When it
    does, the blocks replay (a forked copy yields them too) and second_cpu()
    holds, the process forks a twin: the parent keeps the even blocks
    and the twin takes the odd ones.  Each formats its own blocks, then waits
    for its turn to write: they share one open file description, and the
    writer of block k passes a one-byte token over a pipe once block k + 1
    exists (so never after the last block), which the writer of block k + 1
    reads before it writes.  No data or text crosses between them.  The twin
    leaves only through os._exit, in end(); the parent reaps it there,
    killing it first unless the writing is finished, and raises
    ChildProcessError when the twin did not finish its blocks.

    Python 3.12 and later warn (DeprecationWarning) when a process with
    other threads forks; numpy's OpenBLAS keeps one, so a file written there
    may print that warning.
    """

    def __init__(self, handle, replays: bool):
        self.handle, self.replays = handle, replays
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
        elif k == 1 and self.replays and second_cpu():
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
        """Leave the table or document.  The twin exits here.  The parent waits
        for the twin of a finished one, kills it first when it failed or the
        wait is interrupted, and raises when a finished one's twin did not
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
        return ChildProcessError(f"the process writing the odd blocks of the file ended early (exit code {code})")


def shared_map(fn, source) -> list:
    """list(map(fn, source())), with the odd items' fn computed by a forked twin.

    source() makes the items afresh, and a forked copy of it yields the same
    ones (they replay).  At the second item, when second_cpu() holds, this
    process forks a twin.  Both go on through their own copy of the items:
    this process computes fn of the even ones, the twin fn of the odd ones,
    which it sends back pickled over a pipe before it exits through
    os._exit.  If either process fails with an Exception, this one kills and
    reaps the twin and computes list(map(fn, source())) alone, so an error is
    the one the serial loop raises, from the first failing item in order.
    Any other exception (KeyboardInterrupt, a signal the command line turns
    into one) kills and reaps the twin and propagates.
    """
    twin = _Twin()
    try:
        return twin.merge([fn(item) for k, item in enumerate(source()) if twin.takes(k)])
    except Exception:
        twin.end()
        return list(map(fn, source()))
    except BaseException:
        twin.end()
        raise


class _Twin:
    """The twin of one shared_map: its pid in the parent, 0 in the twin, None when
    there is none, and the parent's end of the pipe it sends its results through."""

    def __init__(self):
        self.pid, self.pipe = None, None

    def takes(self, k: int) -> bool:
        """Item k exists: fork at the second one.  True when this process computes item k."""
        if k == 1 and second_cpu():
            receive, send = os.pipe()
            try:
                self.pid = os.fork()
            except OSError:  # the system refused a process: this one goes on alone
                os.close(receive)
                os.close(send)
                return True
            os.close(send if self.pid else receive)
            self.pipe = receive if self.pid else send
        return self.pid is None or k % 2 == (self.pid == 0)  # the twin (pid 0) takes the odd items

    def merge(self, mine: list) -> list:
        """The twin sends its results and exits; the parent returns both processes' results in item order."""
        if self.pid is None:
            return mine
        pipe, self.pipe = self.pipe, None
        if self.pid == 0:
            with open(pipe, "wb") as handle:
                pickle.dump(mine[1:], handle)  # mine[0] is item 0's, computed before the fork
            os._exit(0)
        with open(pipe, "rb") as handle:
            sent = handle.read()
        pid, self.pid = self.pid, None
        status = os.waitpid(pid, 0)[1]
        if status != 0:
            raise ChildProcessError(f"the process measuring the odd items failed (wait status {status})")
        theirs = pickle.loads(sent)
        merged = [None] * (len(mine) + len(theirs))
        merged[::2], merged[1::2] = mine, theirs  # a ValueError unless the counts interleave
        return merged

    def end(self) -> None:
        """Leave after a failure: the twin exits; the parent kills and reaps it."""
        if self.pid == 0:
            os._exit(1)
        if self.pipe is not None:
            os.close(self.pipe)
        if self.pid:
            os.kill(self.pid, 9)  # SIGKILL, without importing the signal module
            os.waitpid(self.pid, 0)


def second_cpu() -> bool:
    """Whether a twin may be forked: os.fork exists, this process may run on
    two CPUs, and no other Python thread runs, so none can hold a lock (numpy's
    FFT plan cache, say) that the twin would wait on forever."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)
