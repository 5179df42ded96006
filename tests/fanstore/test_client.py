"""The POSIX-compliant client: descriptors, read/seek, the
multi-read single-write model, directory streams."""

from __future__ import annotations

import os
import threading
from types import SimpleNamespace

import pytest

from repro.errors import (
    BadFileDescriptorError,
    FanStoreError,
    FileNotFoundInStoreError,
    WriteViolationError,
)
from repro.fanstore import cache as cache_module
from repro.fanstore.client import O_CREAT, O_RDONLY, O_WRONLY


@pytest.fixture()
def client(single_store):
    return single_store.client


def first_file(client, d="cls0000"):
    return f"{d}/{client.listdir(d)[0]}"


class TestOpenReadClose:
    def test_full_read(self, client):
        path = first_file(client)
        fd = client.open(path, O_RDONLY)
        data = client.read(fd)
        client.close(fd)
        assert len(data) == client.stat(path).st_size

    def test_partial_reads_advance_offset(self, client):
        path = first_file(client)
        fd = client.open(path)
        a = client.read(fd, 10)
        b = client.read(fd, 10)
        client.close(fd)
        whole = client.read_file(path)
        assert a + b == whole[:20]

    def test_read_past_eof_returns_empty(self, client):
        path = first_file(client)
        fd = client.open(path)
        client.read(fd)
        assert client.read(fd, 100) == b""
        client.close(fd)

    def test_pread_does_not_move_offset(self, client):
        path = first_file(client)
        fd = client.open(path)
        chunk = client.pread(fd, 5, 10)
        assert client.read(fd, 5) == client.read_file(path)[:5]
        assert chunk == client.read_file(path)[10:15]
        client.close(fd)

    def test_open_missing_raises(self, client):
        with pytest.raises(FileNotFoundInStoreError):
            client.open("does/not/exist")

    def test_fd_lifecycle(self, client):
        path = first_file(client)
        fd = client.open(path)
        client.close(fd)
        with pytest.raises(BadFileDescriptorError):
            client.read(fd, 1)
        with pytest.raises(BadFileDescriptorError):
            client.close(fd)

    def test_concurrent_fds_same_file(self, client):
        path = first_file(client)
        fd1 = client.open(path)
        fd2 = client.open(path)
        client.read(fd1, 30)
        assert client.read(fd2, 10) == client.read_file(path)[:10]
        client.close(fd1)
        client.close(fd2)
        assert client.open_fd_count == 0

    def test_fds_start_above_stdio(self, client):
        fd = client.open(first_file(client))
        assert fd >= 3
        client.close(fd)


def spellings(path: str) -> list[str]:
    """Non-canonical spellings of the canonical ``a/b``-shaped path."""
    head, tail = path.split("/", 1)
    return [
        f"./{head}//{tail}",
        f"/{path}",
        f"{head}/./{tail}",
        path.replace("/", "\\"),
    ]


class TestReadFile:
    """The descriptor-free whole-file read: same bytes, same rules."""

    def test_every_spelling_reads_the_same_bytes(self, client):
        path = first_file(client)
        cache = client.daemon.cache
        whole = client.read_file(path)
        assert whole  # non-empty, so equality below means something
        for spelling in spellings(path):
            assert client.read_file(spelling) == whole
            assert cache.refcount(path) == 0
        assert len(cache) == 0

    def test_every_spelling_shares_one_cache_key(self, client):
        path = first_file(client)
        cache = client.daemon.cache
        fds = [client.open(s) for s in [path, *spellings(path)]]
        assert len(cache) == 1
        assert cache.refcount(path) == len(fds)
        # a whole-file read in between hits that same entry, unpinned
        assert client.read_file(spellings(path)[0]) == client.read(fds[0])
        assert cache.refcount(path) == len(fds)
        for fd in fds:
            client.close(fd)
        assert cache.refcount(path) == 0 and len(cache) == 0

    def test_reading_while_writing_rejected_under_any_spelling(self, client):
        fd = client.open("out/wip", O_WRONLY | O_CREAT)
        client.write(fd, b"partial")
        for spelling in ("out/wip", "./out//wip", "/out/wip", "out\\wip"):
            with pytest.raises(WriteViolationError):
                client.read_file(spelling)
        client.close(fd)
        assert client.read_file("./out//wip") == b"partial"

    def test_absent_and_escaping_paths(self, client):
        with pytest.raises(FileNotFoundInStoreError):
            client.read_file("does/not/exist")
        with pytest.raises(FileNotFoundInStoreError):
            client.read_file("./does//not/exist")
        with pytest.raises(FanStoreError, match="escapes the store root"):
            client.read_file("../x")
        assert len(client.daemon.cache) == 0

    def test_takes_no_descriptor(self, client):
        path = first_file(client)
        fd = client.open(path)
        client.close(fd)
        for spelling in [path, *spellings(path)]:
            client.read_file(spelling)
            assert client.open_fd_count == 0
        next_fd = client.open(path)
        client.close(next_fd)
        assert next_fd == fd + 1

    def test_racing_discard_leaves_nothing_pinned(self, client, monkeypatch):
        """``cache.discard`` at each point of a read it can race with —
        every interleaving constructed, none hoped for: the bytes are
        right, nothing stays pinned, and ``quarantined`` counts exactly
        the discards that found an entry resident."""
        path = first_file(client)
        daemon = client.daemon
        cache, stats = daemon.cache, daemon.cache.stats
        whole = client.read_file(path)

        # (i) inside the miss, before the entry exists: a no-op
        backend_get = daemon.backend.get

        def discard_then_get(key):
            assert cache.discard(key) is False
            return backend_get(key)

        monkeypatch.setattr(daemon.backend, "get", discard_then_get)
        assert client.read_file(path) == whole
        monkeypatch.undo()
        assert stats.quarantined == 0
        assert cache.refcount(path) == 0 and len(cache) == 0

        # (ii) while a descriptor pins the entry: it is doomed, the next
        # read re-misses on it and returns fresh bytes. A whole-file read
        # installs nothing, so the doomed bytes are not replaced in place
        # (no eviction here); they leave residency at the descriptor's
        # close, the one eviction of this row
        fd = client.open(path)
        misses, evictions = stats.misses, stats.evictions
        assert cache.discard(path) is True
        assert client.read_file(path) == whole
        assert (stats.misses, stats.evictions) == (misses + 1, evictions)
        assert stats.quarantined == 1
        assert cache.refcount(path) == 1  # the descriptor's pin, no more
        assert client.read(fd) == whole
        client.close(fd)
        assert stats.evictions == evictions + 1
        assert cache.refcount(path) == 0 and len(cache) == 0

        # (iii) after the last close: nothing left to quarantine, and the
        # read, installing nothing, has nothing to evict either
        assert cache.discard(path) is False
        assert client.read_file(path) == whole
        assert stats.quarantined == 1
        assert stats.evictions == evictions + 1
        assert cache.refcount(path) == 0
        assert path not in cache and len(cache) == 0


def _whole(client, path: str) -> bytes:
    return client.read_file(path)


def _descriptor(client, path: str) -> int:
    return client.open(path)


class TestReadFileSharesTheFlight:
    """A whole-file read and a descriptor open of one file, one arriving
    inside the other's miss — in every mix, the file is fetched once.

    Each interleaving is constructed, not raced: the leader's backend
    fetch starts the follower on a helper thread and returns only after
    the follower has joined the flight (it has built the flight's waiter
    ``Event``), so who leads and who follows is fixed before the leader
    finishes. No sleep, no poll; the verdict cannot depend on the
    scheduler."""

    KINDS = {"read_file": _whole, "descriptor": _descriptor}

    def _interleave(self, client, monkeypatch, leader, follower, boom=None):
        """Run ``leader(client, path)`` with ``follower(client, path)``
        joining its miss; returns the path, the leader's and the
        follower's outcome (a value, or the exception raised) and the
        backend fetches made."""
        daemon, path = client.daemon, first_file(client)
        joined = threading.Event()

        def waiter_event():  # built by the flight's first follower
            joined.set()
            return threading.Event()

        monkeypatch.setattr(
            cache_module, "threading", SimpleNamespace(Event=waiter_event)
        )
        follower_outcome: list = []

        def follow():
            try:
                follower_outcome.append(follower(client, path))
            except BaseException as exc:
                follower_outcome.append(exc)

        helper = threading.Thread(target=follow)
        fetches: list[str] = []
        backend_get = daemon.backend.get

        def leader_get(key):
            fetches.append(key)
            if len(fetches) == 1:
                helper.start()
                assert joined.wait(10)
                if boom is not None:
                    raise boom
            return backend_get(key)

        monkeypatch.setattr(daemon.backend, "get", leader_get)
        try:
            leader_outcome = leader(client, path)
        except BaseException as exc:
            leader_outcome = exc
        helper.join(10)
        monkeypatch.undo()
        assert not helper.is_alive() and len(follower_outcome) == 1
        return path, leader_outcome, follower_outcome[0], fetches

    def test_read_file_follower_of_a_descriptor_leader(
        self, client, monkeypatch
    ):
        path, fd, data, fetches = self._interleave(
            client, monkeypatch, _descriptor, _whole
        )
        cache = client.daemon.cache
        assert fetches == [path]
        assert data == client.read(fd)  # the leader's bytes, handed over
        assert cache.refcount(path) == 1  # the leader's pin, no more
        stats = cache.stats
        assert (stats.singleflight_leaders, stats.singleflight_followers) == (
            1, 1
        )
        client.close(fd)
        assert len(cache) == 0

    def test_descriptor_follower_of_a_read_file_leader(
        self, client, monkeypatch
    ):
        path, data, fd, fetches = self._interleave(
            client, monkeypatch, _whole, _descriptor
        )
        cache = client.daemon.cache
        assert fetches == [path]
        # the follower installed the leader's bytes and pinned them
        assert cache.refcount(path) == 1
        assert client.read(fd) == data
        stats = cache.stats
        assert (stats.singleflight_leaders, stats.singleflight_followers) == (
            1, 1
        )
        assert stats.evictions == 0
        client.close(fd)
        assert len(cache) == 0 and stats.evictions == 1

    @pytest.mark.parametrize("follower", sorted(KINDS))
    @pytest.mark.parametrize("leader", sorted(KINDS))
    def test_every_mix_fetches_once(self, client, monkeypatch, leader, follower):
        kinds = self.KINDS
        path, led, followed, fetches = self._interleave(
            client, monkeypatch, kinds[leader], kinds[follower]
        )
        assert fetches == [path]
        outcomes = {leader: [led], follower: [followed]}
        if leader == follower:
            outcomes[leader] = [led, followed]
        fds = outcomes.get("descriptor", [])
        cache = client.daemon.cache
        assert cache.refcount(path) == len(fds)  # one pin per descriptor
        whole = [client.read(fd) for fd in fds] + outcomes.get("read_file", [])
        assert len(set(whole)) == 1 and whole[0]
        for fd in fds:
            client.close(fd)
        assert len(cache) == 0 and not cache._flights

    @pytest.mark.parametrize("follower", sorted(KINDS))
    @pytest.mark.parametrize("leader", sorted(KINDS))
    def test_a_leader_failure_reaches_either_follower(
        self, client, monkeypatch, leader, follower
    ):
        boom = FanStoreError("the leader's fetch failed")
        path, led, followed, fetches = self._interleave(
            client, monkeypatch, self.KINDS[leader], self.KINDS[follower],
            boom=boom,
        )
        assert fetches == [path]
        assert led is boom and followed is boom  # one failure, shared
        cache = client.daemon.cache
        assert len(cache) == 0 and not cache._flights
        # the failed flight left the table: the next read leads anew
        assert client.read_file(path)

    def test_read_file_of_a_pinned_path_is_a_hit(self, client, monkeypatch):
        path = first_file(client)
        daemon = client.daemon
        stats = daemon.cache.stats
        fd = client.open(path)
        hits, misses, opens = stats.hits, stats.misses, stats.opens
        monkeypatch.setattr(
            daemon.backend, "get",
            lambda key: pytest.fail("a resident file is not fetched"),
        )
        assert client.read_file(path) == client.read(fd)
        assert (stats.opens, stats.hits, stats.misses) == (
            opens + 1, hits + 1, misses
        )
        assert daemon.cache.refcount(path) == 1  # unchanged
        client.close(fd)


class TestLseek:
    def test_seek_set_cur_end(self, client):
        path = first_file(client)
        size = client.stat(path).st_size
        fd = client.open(path)
        assert client.lseek(fd, 10, os.SEEK_SET) == 10
        assert client.lseek(fd, 5, os.SEEK_CUR) == 15
        assert client.lseek(fd, -5, os.SEEK_END) == size - 5
        client.close(fd)

    def test_seek_before_start_raises(self, client):
        fd = client.open(first_file(client))
        with pytest.raises(FanStoreError):
            client.lseek(fd, -1, os.SEEK_SET)
        client.close(fd)

    def test_bad_whence(self, client):
        fd = client.open(first_file(client))
        with pytest.raises(FanStoreError):
            client.lseek(fd, 0, 42)
        client.close(fd)


class TestWritePath:
    def test_write_then_read_back(self, client):
        client.write_file("out/result.bin", b"epoch artifacts")
        assert client.read_file("out/result.bin") == b"epoch artifacts"
        assert client.stat("out/result.bin").st_size == 15

    def test_single_write_model_seals_on_close(self, client):
        client.write_file("out/sealed.bin", b"v1")
        with pytest.raises(WriteViolationError):
            client.open("out/sealed.bin", O_WRONLY | O_CREAT)

    def test_no_rdwr(self, client):
        with pytest.raises(WriteViolationError):
            client.open("out/x", os.O_RDWR)

    def test_write_requires_creat(self, client):
        with pytest.raises(WriteViolationError):
            client.open("out/x", O_WRONLY)

    def test_two_writers_same_path_rejected(self, client):
        fd = client.open("out/active", O_WRONLY | O_CREAT)
        with pytest.raises(WriteViolationError):
            client.open("out/active", O_WRONLY | O_CREAT)
        client.close(fd)

    def test_reading_while_writing_rejected(self, client):
        fd = client.open("out/wip", O_WRONLY | O_CREAT)
        client.write(fd, b"partial")
        with pytest.raises(WriteViolationError):
            client.open("out/wip", O_RDONLY)
        client.close(fd)

    def test_dataset_files_are_read_only(self, client):
        path = first_file(client)
        with pytest.raises(WriteViolationError):
            client.open(path, O_WRONLY | O_CREAT)

    def test_write_to_read_fd_rejected(self, client):
        fd = client.open(first_file(client))
        with pytest.raises(BadFileDescriptorError):
            client.write(fd, b"x")
        client.close(fd)

    def test_read_from_write_fd_rejected(self, client):
        fd = client.open("out/w", O_WRONLY | O_CREAT)
        with pytest.raises(BadFileDescriptorError):
            client.read(fd)
        client.close(fd)

    def test_output_visible_in_namespace(self, client):
        client.write_file("ckpt/model-000001.ckpt", b"{}")
        assert "ckpt" in client.listdir("")
        assert client.listdir("ckpt") == ["model-000001.ckpt"]

    def test_output_stat_flags(self, client):
        client.write_file("out/flagged", b"z")
        stat = client.stat("out/flagged")
        assert stat.is_output
        assert stat.st_mtime_ns > 0


class TestDirectoryStreams:
    def test_opendir_readdir_closedir(self, client):
        handle = client.opendir("cls0000")
        names = []
        while True:
            name = handle.readdir()
            if name is None:
                break
            names.append(name)
        handle.closedir()
        assert names == client.listdir("cls0000")

    def test_rewind(self, client):
        handle = client.opendir("cls0000")
        first = handle.readdir()
        handle.rewind()
        assert handle.readdir() == first

    def test_readdir_after_close_raises(self, client):
        handle = client.opendir("")
        handle.closedir()
        with pytest.raises(FanStoreError):
            handle.readdir()


class TestFileObject:
    def test_binary_context_manager(self, client):
        path = first_file(client)
        with client.open_file(path, "rb") as f:
            data = f.read()
        assert f.closed
        assert data == client.read_file(path)

    def test_text_mode(self, client):
        client.write_file("logs/t.txt", "héllo\n".encode("utf-8"))
        with client.open_file("logs/t.txt", "r") as f:
            assert f.read() == "héllo\n"

    def test_write_mode_and_iteration(self, client):
        with client.open_file("logs/lines.txt", "w") as f:
            f.write("one\n")
            f.write("two\n")
        with client.open_file("logs/lines.txt", "r") as f:
            assert list(f) == ["one\n", "two\n"]

    def test_seek_tell(self, client):
        path = first_file(client)
        with client.open_file(path, "rb") as f:
            f.seek(7)
            assert f.tell() == 7

    def test_unsupported_mode(self, client):
        with pytest.raises(FanStoreError):
            client.open_file("x", "a+")
