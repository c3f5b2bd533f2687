"""The one place where fluctlab forks: _Pair, this process and a forked twin
that take turns through one loop's items, and the two loops that use it.
write_blocks writes a table or document that io writes to a file a block at
a time (Blocks, the text to write), the twin formatting and writing the odd
blocks; shared_map measures the sweeps' levels, the twin measuring the odd
ones.

Both fork only when second_cpu() holds.  A refused fork leaves the work to
one process, and so does any error in shared_map, which then raises the
serial loop's error; a table or document whose twin ends early is not
written.  shared_map pays only because the moments it computes use no BLAS:
two OpenBLAS thread pools on two CPUs made the eigensweep twice as slow as
one process, and numpy's pairwise sums give the same bits whatever the
thread count, which the dot products did not.

Kept apart from io because each module is compiled on its own: where no
bytecode is cached (PYTHONDONTWRITEBYTECODE), one io.py holding the block
writer raised the peak resident memory of an audit of a 65536-point state
by about 0.2 MB (40.1 -> 40.3 MB), and the two modules do not.
"""

from __future__ import annotations

import os
import pickle
import threading
from itertools import count


class Blocks:
    """Text to write: head, text(k, block) for each block k of blocks (read
    once) that has rows, then tail.  A forked copy of blocks must yield the
    same blocks (they replay), as the twin of write_blocks makes the odd ones
    from its own copy.  A caller's iterable, such as one reading a file
    through a shared offset, does not replay: write it as plain chunks."""

    def __init__(self, head: str, tail: str, text, blocks):
        self.head, self.tail, self.text, self.blocks = head, tail, text, blocks

    def __iter__(self):
        yield self.head
        # map, unlike a for loop, lets go of each block before the next one is made
        yield from map(self.text, count(), filter(_has_rows, self.blocks))
        yield self.tail


def _has_rows(block) -> bool:
    return bool(block) and len(block[0]) > 0


def write_blocks(handle, doc: Blocks) -> None:
    """Write doc, a table or a document, to handle, an open text file, block by block.

    From the second block on, when second_cpu() holds, a forked twin formats
    and writes the odd blocks while this process does the even ones (see
    _Pair).  Both make every block from their own copy of the block
    iterator, so every check the iterator makes still raises here, at the
    same block.  Each waits for its turn to write: they share one open file
    description, and the writer of block k passes a one-byte token over its
    pipe once block k + 1 exists (so never after the last block), which the
    writer of block k + 1 reads before it writes.  No data or text crosses
    between them.  Every block is flushed as it is written, block 0 before
    the fork, so the twin inherits no buffered text.
    """
    handle.write(doc.head)
    pair, finished, k = _Pair(), False, 0  # k counts by hand: enumerate would hold each block while the next is made
    try:
        for block in filter(_has_rows, doc.blocks):
            mine = pair.takes(k)
            text = doc.text(k, block) if mine else ""
            del block  # let go of each block before the next one is made
            if k >= 2 and pair.pid is not None:  # block k - 1 is the other process's when block k is this one's
                try:
                    if not mine:
                        os.write(pair.send, b".")
                    elif os.read(pair.receive, 1) != b".":
                        raise pair.lost()
                except BrokenPipeError as exc:
                    raise pair.lost() from exc
            if mine:
                handle.write(text)
                handle.flush()
            del text
            k += 1
        finished = True
    finally:
        pair.end(finished)
    handle.write(doc.tail)


def shared_map(fn, source) -> list:
    """list(map(fn, source())), with the odd items' fn computed by a forked twin.

    source() makes the items afresh, and a forked copy of it yields the same
    ones (they replay).  At the second item, when second_cpu() holds, this
    process forks a twin (see _Pair).  Both go on through their own copy of
    the items: this process computes fn of the even ones, the twin fn of the
    odd ones, which it sends back pickled over its pipe before it exits.  If
    either process fails with an Exception, this one kills and reaps the twin
    and computes list(map(fn, source())) alone, so an error is the one the
    serial loop raises, from the first failing item in order.  Any other
    exception (KeyboardInterrupt, a signal the command line turns into one)
    kills and reaps the twin and propagates.
    """
    pair, finished = _Pair(), False
    try:
        try:
            mine = [fn(item) for k, item in enumerate(source()) if pair.takes(k)]
            if pair.pid == 0:
                with open(pair.send, "wb", closefd=False) as pipe:
                    pickle.dump(mine[1:], pipe)  # mine[0] is item 0's, computed before the fork
            elif pair.pid:
                with open(pair.receive, "rb", closefd=False) as pipe:
                    theirs = pickle.load(pipe)
            finished = True
        finally:
            pair.end(finished)
        if pair.pid is None:
            return mine
        merged = [None] * (len(mine) + len(theirs))
        merged[::2], merged[1::2] = mine, theirs  # a ValueError unless the counts interleave
        return merged
    except Exception:
        return list(map(fn, source()))


class _Pair:
    """This process and the twin it forks to share one loop's items.

    Until the loop's second item exists this process takes every item.  At
    the second, when second_cpu() holds, it forks a twin, joined to it by one
    pipe each way: the parent keeps the even items and the twin takes the
    odd ones.  The twin leaves only through os._exit, in end(); the parent
    reaps it there, killing it first unless the loop finished, and raises
    lost() when a finished loop's twin did not exit 0.

    Python 3.12 and later warn (DeprecationWarning) when a process with
    other threads forks; numpy's OpenBLAS keeps one, so a fork there may
    print that warning.
    """

    def __init__(self):
        self.pid = None       # the twin's pid in the parent, 0 in the twin, None when there is none
        self.status = None    # the twin's wait status, once the parent has reaped it

    def takes(self, k: int) -> bool:
        """Item k exists: fork at the second one.  True when this process takes item k."""
        if k == 1 and second_cpu():
            self._fork()
        return self.pid is None or k % 2 == (self.pid == 0)  # the twin (pid 0) takes the odd items

    def end(self, finished: bool) -> None:
        """Leave the loop.  The twin exits here.  The parent waits for the twin
        of a finished loop, kills it first when the loop failed or the wait is
        interrupted, and raises lost() when a finished loop's twin did not
        exit 0."""
        if self.pid == 0:
            os._exit(0 if finished else 1)
        if self.pid is None:
            return
        os.close(self.send)
        os.close(self.receive)
        try:
            if finished and self.status is None:
                self.status = os.waitpid(self.pid, 0)[1]
        finally:
            if self.status is None:
                os.kill(self.pid, 9)  # SIGKILL, without importing the signal module
                self.status = os.waitpid(self.pid, 0)[1]
        if finished and self.status != 0:
            raise self.lost()

    def lost(self) -> ChildProcessError:
        """The error for a peer that ended before its items did; the parent reaps its twin first."""
        if self.pid and self.status is None:
            self.status = os.waitpid(self.pid, 0)[1]
        code = os.waitstatus_to_exitcode(self.status) if self.pid else None
        return ChildProcessError(f"the process writing the odd blocks of the file ended early (exit code {code})")

    def _fork(self) -> None:
        """Fork the twin and its pipes; when the system refuses a process, this one goes on alone."""
        to_twin, to_parent = os.pipe(), os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (*to_twin, *to_parent):
                os.close(fd)
            return
        (self.receive, unused_send), (unused_receive, self.send) = (
            (to_twin, to_parent) if self.pid == 0 else (to_parent, to_twin)
        )
        os.close(unused_send)
        os.close(unused_receive)


def second_cpu() -> bool:
    """Whether a twin may be forked: os.fork exists, this process may run on
    two CPUs, and no other Python thread runs, so none can hold a lock (numpy's
    FFT plan cache, say) that the twin would wait on forever."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)
