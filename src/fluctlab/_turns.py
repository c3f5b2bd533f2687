"""The one place where fluctlab forks: _shared, one loop whose odd items a
forked twin (_Pair) computes and sends back, and its three users.
write_blocks writes a table or document that io writes, to a file or to
stdout, a block at a time (Blocks, the text to write), the twin formatting
the odd blocks and this process writing them all; shared_map measures the
sweeps' levels; and io._load_json decodes a state or ensemble file, the twin
decoding every other value of the walk (io._Window) and sending it back.
BLOCK_ROWS, the rows of one block, lives here beside the block writer, and
io, density and scenarios take it from here.

All three fork only when second_cpu() holds, and a refused fork leaves the
work to one process.  One rule mends a twin that fails: this process keeps
each of the twin's items until its value comes back, and when the twin ends
without sending it (killed, or raised), this process computes that item and
every later one itself, so each user gets what one process would give.
shared_map pays only because the moments it computes use no BLAS: two
OpenBLAS thread pools on two CPUs made the eigensweep twice as slow as one
process, and numpy's pairwise sums give the same bits whatever the thread
count, which the dot products did not.

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


def shared_map(fn, items) -> list:
    """list(map(fn, items)), with the odd items' fn computed by a forked twin
    from its own copy of items, which must yield the same ones (they replay).
    A twin that fails leaves its items to this process (see _shared), so the
    list, or the error of the first failing item, is the serial loop's."""
    return list(_shared(lambda k, item: fn(item), items))


def _shared(fn, items):
    """Yield fn(k, item) for each item k of items, in order, as the serial
    loop does, or raise the error of the first item, or of items, that fails.

    At the second item, when second_cpu() holds, this process forks a twin
    (see _Pair).  Both go on through their own copy of the items: the twin
    computes the odd ones and sends each back pickled as soon as it is made,
    and this process, once it has computed item k, yields the twin's item
    k - 1, so the two compute at the same time.  The twin yields nothing.

    This process holds the twin's item until its value comes back, so items
    must not share a buffer, though fn may reuse its own.  A twin that ends
    without sending it (killed, or failed with an Exception) is reaped, and
    this process computes that item and every later one itself.  When its
    own item k, or items, fails with an Exception, the held item k - 1 is
    settled first, so an earlier item's error wins.  Any other exception
    (KeyboardInterrupt), or closing this generator early, kills and reaps
    the twin at once.
    """
    pair, finished, k, held = _Pair(), False, 0, []  # k counts by hand: enumerate would hold each item while the next is made
    try:
        try:
            for item in items:
                mine = pair.takes(k)
                value = fn(k, item) if mine else None
                if not mine and pair.pid:  # the twin's item, held until its value comes back
                    held.append(item)
                del item  # let go of each item before the next one is made
                if mine and pair.pid == 0:
                    pair.send(value)
                elif mine:
                    if held:  # item k - 1 is the twin's
                        yield _settled(pair, fn, k - 1, held)
                    yield value
                del value
                k += 1
        except Exception:
            if held:
                yield _settled(pair, fn, k - 1, held)
            raise
        if held:  # the last item is the twin's
            yield _settled(pair, fn, k - 1, held)
        finished = True
    finally:
        pair.end(finished)


def _settled(pair, fn, k: int, held: list):
    """The value of item k, held (the list's one item) until now: the twin's,
    or, when the twin ended without sending it, computed here."""
    item = held.pop()
    try:
        return pair.receive()
    except (EOFError, pickle.UnpicklingError):  # the pipe closed before, or within, the value
        pair.end(False)  # reaped; every later item is this process's
    return fn(k, item)


class _Pair:
    """This process and the twin it forks to share one loop's items.

    Until the loop's second item exists this process takes every item.  At
    the second, when second_cpu() holds, it forks a twin, joined to it by one
    pipe, twin to parent: the parent keeps the even items and the twin takes
    the odd ones.  The twin leaves only through os._exit, in end(): a twin
    that fails exits 1 without sending anything, so no exception is pickled.

    Python 3.12 and later warn (DeprecationWarning) when a process with
    other threads forks; numpy's OpenBLAS keeps one, so a fork there may
    print that warning.
    """

    def __init__(self):
        self.pid = None  # the twin's pid in the parent, 0 in the twin, None when there is none (or no longer)

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
        """In the parent: the twin's next value."""
        return pickle.load(self.pipe)

    def end(self, finished: bool) -> None:
        """Leave the loop, or part from a twin that has ended.  The twin
        exits here.  The parent kills the twin unless the loop finished, or
        when the wait is interrupted, reaps it, and from then on has none."""
        if self.pid == 0:
            os._exit(0 if finished else 1)
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        self.pipe.close()
        if not finished:
            os.kill(pid, 9)  # SIGKILL, without importing the signal module
        try:
            os.waitpid(pid, 0)
        except BaseException:  # an interrupted wait: kill the twin, so that this wait returns
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise

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
