"""The one place where fluctlab forks: _shared, one loop whose odd items a
forked twin (_Pair) computes and sends back, and its three users.
write_blocks writes a table or document that io writes, to a file or to
stdout, a block at a time (Blocks, the text to write), the twin formatting
the odd blocks and this process writing them all; shared_map measures the
sweeps' levels; and io._load_json decodes a state or ensemble file, the twin
decoding every other value of the walk (io._Window) and sending it back.
BLOCK_ROWS, the rows of one block, lives here beside the block writer, and
io, density and scenarios take it from here.

All three fork only when second_cpu() holds.  A refused fork leaves the work
to one process, and so does any error in shared_map, which then raises the
serial loop's error, and any error in a load but the walk's own refusal,
which then walks the file again alone; a table or document whose twin ends
early is not written.  shared_map pays only because the moments it computes
use no BLAS: two OpenBLAS thread pools on two CPUs made the eigensweep twice
as slow as one process, and numpy's pairwise sums give the same bits
whatever the thread count, which the dot products did not.

Kept apart from io because each module is compiled on its own: where no
bytecode is cached (PYTHONDONTWRITEBYTECODE), one io.py holding the block
writer raised the peak resident memory of an audit of a 65536-point state
by about 0.2 MB (40.1 -> 40.3 MB), and the two modules do not.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
from itertools import count

BLOCK_ROWS = 4096
"""Rows made per block by the streamed sampler and walk, and formatted per
chunk by the CSV writers; a block's working set (about 200 bytes a row) stays
a small fraction of any large file."""

PIPE_BYTES = 2**20
"""The twin's pipe.  With the default 64 KiB, a CSV block of about 200 kB
stalled the twin until this process read it, and scans ran 5-10% slower."""


class Blocks:
    """Text to write: head, text(k, block) for each block k of blocks (read
    once) that has rows, then tail.  A forked copy of blocks must yield the
    same blocks (they replay), as the twin of write_blocks makes the odd ones
    from its own copy.  A caller's iterable, such as one reading a file
    through a shared offset, does not replay: write it as plain chunks.
    (io._Window replays because it reads at an offset of its own, by os.pread.)"""

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

    A forked twin may format the odd blocks (see _shared), but this process
    writes them all.  Each process makes every block from its own copy of the
    iterator, so any check it makes still raises here, at the same block.
    """
    handle.write(doc.head)
    # closed here, so that a failed write kills and reaps the twin before the error leaves
    with contextlib.closing(_shared(doc.text, filter(_has_rows, doc.blocks))) as texts:
        handle.writelines(texts)
    handle.write(doc.tail)


def shared_map(fn, source) -> list:
    """list(map(fn, source())), with the odd items' fn computed by a forked twin.

    source() makes the items afresh, and a forked copy of it yields the same
    ones (they replay); see _shared.  If either process fails with an
    Exception, this one computes list(map(fn, source())) alone, so an error
    is the serial loop's, from the first failing item; any other exception
    (KeyboardInterrupt, say) propagates.
    """
    try:
        return list(_shared(lambda k, item: fn(item), source()))
    except Exception:
        return list(map(fn, source()))


def _shared(fn, items):
    """Yield fn(k, item) for each item k of items, in order.

    At the second item, when second_cpu() holds, this process forks a twin
    (see _Pair).  Both go on through their own copy of the items: the twin
    computes the odd ones and sends each back pickled as soon as it is made,
    and this process, once it has computed item k, yields the twin's item
    k - 1, so the two compute at the same time.  The twin yields nothing.
    An error, or closing this generator early, kills and reaps the twin.
    """
    pair, finished, k = _Pair(), False, 0  # k counts by hand: enumerate would hold each item while the next is made
    try:
        for item in items:
            mine = pair.takes(k)
            value = fn(k, item) if mine else None
            del item  # let go of each item before the next one is made
            if mine and pair.pid == 0:
                pair.send(value)
            elif mine:
                if pair.pid:  # item k - 1 is the twin's
                    yield pair.receive()
                yield value
            del value
            k += 1
        if pair.pid and k % 2 == 0:  # the last item is the twin's
            yield pair.receive()
        finished = True
    finally:
        pair.end(finished)


class _Pair:
    """This process and the twin it forks to share one loop's items.

    Until the loop's second item exists this process takes every item.  At
    the second, when second_cpu() holds, it forks a twin, joined to it by one
    pipe, twin to parent: the parent keeps the even items and the twin takes
    the odd ones.  The twin leaves only through os._exit, in end().

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

    def send(self, value) -> None:
        """In the twin: send value to the parent now."""
        pickle.dump(value, self.pipe)
        self.pipe.flush()

    def receive(self):
        """In the parent: the twin's next value; lost() when the twin ended first."""
        try:
            return pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError) as exc:  # a pipe closed before, or within, a value
            raise self.lost() from exc

    def end(self, finished: bool) -> None:
        """Leave the loop.  The twin exits here.  The parent waits for the twin
        of a finished loop, kills it first when the loop failed or the wait is
        interrupted, and raises lost() when a finished loop's twin failed."""
        if self.pid == 0:
            os._exit(0 if finished else 1)
        if self.pid is None:
            return
        self.pipe.close()
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
        """The error for a twin that ended before its items did; the parent reaps it first."""
        if self.status is None:
            self.status = os.waitpid(self.pid, 0)[1]
        code = os.waitstatus_to_exitcode(self.status)
        return ChildProcessError(f"the forked process making the odd blocks ended early (exit code {code})")

    def _fork(self) -> None:
        """Fork the twin and its pipe; when the system refuses a process, this one goes on alone."""
        import fcntl  # here, so that importing fluctlab never needs it

        receive, send = os.pipe()
        # F_SETPIPE_SZ is Linux's; where it is missing or refused, the default pipe is slower, not wrong
        with contextlib.suppress(AttributeError, OSError):
            fcntl.fcntl(send, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        try:
            self.pid = os.fork()
        except OSError:
            os.close(receive)
            os.close(send)
            return
        os.close(send if self.pid else receive)
        self.pipe = open(receive, "rb") if self.pid else open(send, "wb")


def second_cpu() -> bool:
    """Whether a twin may be forked: os.fork exists, this process may run on
    two CPUs, and no other Python thread runs, so none can hold a lock (numpy's
    FFT plan cache, say) that the twin would wait on forever."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)
