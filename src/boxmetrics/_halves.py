"""Reading a large lines file on two cores.

:func:`~boxmetrics.ingest.load_dataset` imports this module only for a lines
file of at least ``ingest._TWO_CORES_BYTES``, so no other command compiles
it. A forked worker reads the second half of the file while this process
reads the first, and the worker's lines are taken only when they are what
one reader would read there; otherwise this process reads the second half
itself, so a season, or its error, is the one a single reader gives.
"""

from __future__ import annotations

import csv
import io
import marshal
import os
import signal
import sys
from array import array
from functools import partial
from itertools import islice
from typing import Callable, Iterator, NoReturn

from .ingest import _extend, _new_store, _parse_lines


def reader(path: str) -> Callable[..., bool] | None:
    """:func:`read_halves` for the lines file at ``path``, or None where one
    core reads it. Two are used only where ``os.sched_getaffinity`` says
    this process may run on two CPUs, it runs no other thread (a fork copies
    none), and the file is valid UTF-8 and quotes no field before the split,
    the byte after the first newline at or past its middle: then each half
    holds the rows one reader reads there, and no decode error ends either
    half."""
    cpus, threading = getattr(os, "sched_getaffinity", None), sys.modules.get("threading")
    if cpus is None or len(cpus(0)) < 2 or (threading and threading.active_count() > 1):
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    split = data.find(b"\n", len(data) // 2) + 1
    if not split or data.find(b'"', 0, split) >= 0:
        return None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # Lines end at \n, \r or \r\n, and unquoted, each line is a row; the
    # first is the header.
    ends = data.count(b"\n", 0, split) + data.count(b"\r", 0, split)
    return partial(read_halves, path, ends - data.count(b"\r\n", 0, split) - 1, split)


def read_halves(
    path: str, first: int, split: int, games: dict, pairs: set, seen: set, store: dict,
    rows: Iterator, columns_of, where: str, start: int,
) -> bool:
    """:func:`~boxmetrics.ingest._parse_lines` on the ``first`` rows of
    ``rows`` while a forked worker reads those of the lines file at ``path``
    from byte ``split`` on; True once the worker's lines are appended too.
    False leaves ``rows`` after its first half, for this process to read as
    one reader does: no worker started, it failed, or its keys repeat."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return False
    try:
        pid = os.fork()
    except OSError:
        pid = -1
    if pid == 0:
        _worker(games, pairs, columns_of, path, split, write_fd)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        if pid < 0:
            return False
        try:
            _parse_lines(games, pairs, seen, store, islice(rows, first), columns_of, where, start)
            payload = pipe.read()
        except BaseException:
            # A worker blocked on a full pipe would never exit by itself.
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if status:
        return False
    try:
        columns = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return False
    # Freed before the keys are built.
    del payload
    keys = set(zip(columns[0], columns[3]))
    if len(keys) < len(columns[0]) or not keys.isdisjoint(seen):
        return False
    _extend(store, columns)
    return True


def _worker(
    games: dict, pairs: set, columns_of, path: str, split: int, write_fd: int
) -> NoReturn:
    """The forked worker of :func:`read_halves`: ``_parse_lines`` on the rows
    of the lines file at ``path`` from byte ``split`` on, keeping no keys (the
    parent checks them), then their columns written to ``write_fd``,
    marshalled, arrays as bytes. It exits 0 when all of that succeeded, else
    1, and writes nothing to stdout or stderr."""
    code = 1
    try:
        with open(path, "rb") as handle:
            handle.seek(split)
            rows = csv.reader(io.TextIOWrapper(handle, encoding="utf-8", newline=""))
            store = _new_store()
            # _block_lines's |= makes a new frozenset, so this one stays empty.
            _parse_lines(games, pairs, frozenset(), store, rows, columns_of, "", 0)
        with open(write_fd, "wb") as pipe:
            marshal.dump([c.tobytes() if type(c) is array else c for c in store.values()], pipe)
        code = 0
    finally:
        os._exit(code)
