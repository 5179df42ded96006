"""User-space function interception (§IV-A, §V-C).

The paper intercepts glibc I/O functions with LD_PRELOAD + trampolines
so unmodified training programs read FanStore through ordinary POSIX
calls. The Python-runtime equivalent interposes at the points Python
programs make those calls: ``builtins.open``, ``os.stat``, ``os.listdir``,
``os.scandir``, ``os.path.exists/isfile/isdir`` and ``os.open``-family
wrappers. Paths under the mount point route to the FanStore client;
everything else passes through to the originals — exactly the
LD_PRELOAD contract, one layer up the stack.

Usage::

    with intercept(fs):                      # fs: FanStore
        data = open("/fanstore/train/x.npy", "rb").read()
        names = os.listdir("/fanstore/train")

The context manager is reentrant per-thread in the sense that nested
intercepts of different stores stack; on exit the previous functions
are restored verbatim.
"""

from __future__ import annotations

import builtins
import io
import os
import os.path
from contextlib import contextmanager
from typing import Iterator

from repro.fanstore.layout import FileStat
from repro.fanstore.store import FanStore


class _InterceptedStatResult:
    """Duck-typed ``os.stat_result`` built from a FanStore record."""

    __slots__ = ("st_mode", "st_ino", "st_dev", "st_nlink", "st_uid",
                 "st_gid", "st_size", "st_atime", "st_mtime", "st_ctime",
                 "st_blksize", "st_blocks")

    def __init__(self, fstat: FileStat) -> None:
        self.st_mode = fstat.st_mode
        self.st_ino = fstat.st_ino
        self.st_dev = fstat.st_dev
        self.st_nlink = fstat.st_nlink
        self.st_uid = fstat.st_uid
        self.st_gid = fstat.st_gid
        self.st_size = fstat.st_size
        self.st_atime = fstat.st_atime_ns / 1e9
        self.st_mtime = fstat.st_mtime_ns / 1e9
        self.st_ctime = fstat.st_ctime_ns / 1e9
        self.st_blksize = fstat.st_blksize
        self.st_blocks = fstat.st_blocks


class _InterceptedDirEntry:
    """Duck-typed ``os.DirEntry`` for intercepted ``os.scandir``."""

    __slots__ = ("name", "path", "_store", "_rel")

    def __init__(self, store: FanStore, parent: str, name: str) -> None:
        self.name = name
        self.path = f"{parent.rstrip('/')}/{name}"
        self._store = store
        self._rel = store.resolve(self.path)

    def is_file(self, *, follow_symlinks: bool = True) -> bool:
        return self._store.daemon.metadata.is_file(self._rel)

    def is_dir(self, *, follow_symlinks: bool = True) -> bool:
        return self._store.daemon.metadata.is_dir(self._rel)

    def is_symlink(self) -> bool:
        return False

    def stat(self, *, follow_symlinks: bool = True) -> _InterceptedStatResult:
        return _InterceptedStatResult(self._store.client.stat(self._rel))

    def __fspath__(self) -> str:
        return self.path


class _ScandirIterator:
    """os.scandir's return type is an iterator *and* a context manager
    (``os.walk`` relies on both); mirror that for intercepted paths."""

    __slots__ = ("_iter",)

    def __init__(self, entries) -> None:
        self._iter = iter(entries)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._iter)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._iter = iter(())


def _under_mount(store: FanStore, path) -> bool:
    try:
        text = os.fspath(path)
    except TypeError:
        return False
    if isinstance(text, bytes):
        text = text.decode("utf-8", "surrogateescape")
    return text == store.mount_point or text.startswith(store.mount_point + "/")


#: intercepted descriptors live far above any real kernel fd so the
#: patched fd-level calls can route without a table lookup (the same
#: trick the paper's trampoline layer plays with its private fd space).
FD_BASE = 1 << 20


@contextmanager
def intercept(store: FanStore) -> Iterator[FanStore]:
    """Patch the Python I/O surface to serve ``store.mount_point``.

    Covers both interposition depths of §V-C: the high-level calls
    Python code makes (``builtins.open``, ``os.listdir``, ``os.stat``,
    ``os.scandir``, ``os.path`` predicates) *and* the fd-level calls
    (``os.open``/``os.read``/``os.pread``/``os.lseek``/``os.close``/
    ``os.fstat``) that libraries doing raw descriptor I/O use —
    the dlsym-preload and trampoline layers of the paper, one level up
    the stack."""
    orig_open = builtins.open
    orig_io_open = io.open
    orig_stat = os.stat
    orig_listdir = os.listdir
    orig_scandir = os.scandir
    orig_exists = os.path.exists
    orig_isfile = os.path.isfile
    orig_isdir = os.path.isdir
    orig_os_open = os.open
    orig_os_read = os.read
    orig_os_pread = os.pread
    orig_os_lseek = os.lseek
    orig_os_write = os.write
    orig_os_close = os.close
    orig_os_fstat = os.fstat

    def patched_open(file, mode="r", *args, **kwargs):
        if _under_mount(store, file):
            return store.client.open_file(store.resolve(os.fspath(file)), mode)
        return orig_open(file, mode, *args, **kwargs)

    def patched_stat(path, *args, **kwargs):
        if _under_mount(store, path):
            return _InterceptedStatResult(
                store.client.stat(store.resolve(os.fspath(path)))
            )
        return orig_stat(path, *args, **kwargs)

    def patched_listdir(path="."):
        if _under_mount(store, path):
            return store.client.listdir(store.resolve(os.fspath(path)))
        return orig_listdir(path)

    def patched_scandir(path="."):
        if _under_mount(store, path):
            text = os.fspath(path)
            names = store.client.listdir(store.resolve(text))
            return _ScandirIterator(
                [_InterceptedDirEntry(store, text, n) for n in names]
            )
        return orig_scandir(path)

    def patched_exists(path):
        if _under_mount(store, path):
            return store.client.exists(store.resolve(os.fspath(path)))
        return orig_exists(path)

    def patched_isfile(path):
        if _under_mount(store, path):
            return store.daemon.metadata.is_file(
                store.resolve(os.fspath(path))
            )
        return orig_isfile(path)

    def patched_isdir(path):
        if _under_mount(store, path):
            return store.daemon.metadata.is_dir(store.resolve(os.fspath(path)))
        return orig_isdir(path)

    # -- fd-level calls (the trampoline layer) ---------------------------

    def patched_os_open(path, flags, mode=0o777, **kwargs):
        if _under_mount(store, path):
            fd = store.client.open(store.resolve(os.fspath(path)), flags, mode)
            return fd + FD_BASE
        return orig_os_open(path, flags, mode, **kwargs)

    def patched_os_read(fd, n):
        if fd >= FD_BASE:
            return store.client.read(fd - FD_BASE, n)
        return orig_os_read(fd, n)

    def patched_os_pread(fd, n, offset):
        if fd >= FD_BASE:
            return store.client.pread(fd - FD_BASE, n, offset)
        return orig_os_pread(fd, n, offset)

    def patched_os_lseek(fd, pos, whence):
        if fd >= FD_BASE:
            return store.client.lseek(fd - FD_BASE, pos, whence)
        return orig_os_lseek(fd, pos, whence)

    def patched_os_write(fd, data):
        if fd >= FD_BASE:
            return store.client.write(fd - FD_BASE, bytes(data))
        return orig_os_write(fd, data)

    def patched_os_close(fd):
        if fd >= FD_BASE:
            store.client.close(fd - FD_BASE)
            return None
        return orig_os_close(fd)

    def patched_os_fstat(fd):
        if fd >= FD_BASE:
            return _InterceptedStatResult(store.client.fstat(fd - FD_BASE))
        return orig_os_fstat(fd)

    builtins.open = patched_open
    io.open = patched_open  # pathlib.Path.open and many libraries
    os.stat = patched_stat
    os.listdir = patched_listdir
    os.scandir = patched_scandir
    os.path.exists = patched_exists
    os.path.isfile = patched_isfile
    os.path.isdir = patched_isdir
    os.open = patched_os_open
    os.read = patched_os_read
    os.pread = patched_os_pread
    os.lseek = patched_os_lseek
    os.write = patched_os_write
    os.close = patched_os_close
    os.fstat = patched_os_fstat
    try:
        yield store
    finally:
        builtins.open = orig_open
        io.open = orig_io_open
        os.stat = orig_stat
        os.listdir = orig_listdir
        os.scandir = orig_scandir
        os.path.exists = orig_exists
        os.path.isfile = orig_isfile
        os.path.isdir = orig_isdir
        os.open = orig_os_open
        os.read = orig_os_read
        os.pread = orig_os_pread
        os.lseek = orig_os_lseek
        os.write = orig_os_write
        os.close = orig_os_close
        os.fstat = orig_os_fstat
