"""fd-level interception (the trampoline layer of §V-C): os.open /
os.read / os.pread / os.lseek / os.close / os.fstat."""

from __future__ import annotations

import errno
import os

import pytest

from repro.fanstore.interception import FD_BASE, intercept


@pytest.fixture()
def store(single_store):
    return single_store


def first_file(store):
    return f"cls0000/{store.client.listdir('cls0000')[0]}"


class TestFdLevelReads:
    def test_open_read_close(self, store):
        rel = first_file(store)
        expected = store.client.read_file(rel)
        with intercept(store):
            fd = os.open(f"/fanstore/{rel}", os.O_RDONLY)
            assert fd >= FD_BASE
            data = os.read(fd, len(expected) + 100)
            os.close(fd)
        assert data == expected

    def test_chunked_reads_advance(self, store):
        rel = first_file(store)
        expected = store.client.read_file(rel)
        with intercept(store):
            fd = os.open(f"/fanstore/{rel}", os.O_RDONLY)
            a = os.read(fd, 10)
            b = os.read(fd, 10)
            os.close(fd)
        assert a + b == expected[:20]

    def test_lseek_and_pread(self, store):
        rel = first_file(store)
        expected = store.client.read_file(rel)
        with intercept(store):
            fd = os.open(f"/fanstore/{rel}", os.O_RDONLY)
            os.lseek(fd, 5, os.SEEK_SET)
            seeked = os.read(fd, 5)
            positional = os.pread(fd, 4, 0)
            os.close(fd)
        assert seeked == expected[5:10]
        assert positional == expected[:4]

    @pytest.mark.parametrize(
        "call",
        [
            lambda fd: os.read(fd, -1),
            lambda fd: os.read(fd, -7),
            lambda fd: os.pread(fd, -1, 0),
            lambda fd: os.pread(fd, -7, 2),
        ],
        ids=["read-1", "read-7", "pread-1", "pread-7"],
    )
    def test_a_negative_size_is_einval(self, store, call):
        """As read(2) and pread(2) on a real descriptor: EINVAL, never
        the rest of the file or a short slice of it; the offset stays."""
        rel = first_file(store)
        expected = store.client.read_file(rel)
        with intercept(store):
            fd = os.open(f"/fanstore/{rel}", os.O_RDONLY)
            try:
                with pytest.raises(OSError) as exc_info:
                    call(fd)
                assert exc_info.value.errno == errno.EINVAL
                assert os.read(fd, len(expected)) == expected
            finally:
                os.close(fd)

    def test_fstat(self, store):
        rel = first_file(store)
        with intercept(store):
            fd = os.open(f"/fanstore/{rel}", os.O_RDONLY)
            st = os.fstat(fd)
            os.close(fd)
        assert st.st_size == store.client.stat(rel).st_size

    def test_write_through_fd_api(self, store):
        with intercept(store):
            fd = os.open("/fanstore/out/fd.bin", os.O_WRONLY | os.O_CREAT)
            # os.write is not patched; use the client via the fd mapping
            store.client.write(fd - FD_BASE, b"fd-level bytes")
            os.close(fd)
        assert store.client.read_file("out/fd.bin") == b"fd-level bytes"

    def test_missing_file_raises(self, store):
        with intercept(store):
            with pytest.raises(FileNotFoundError):
                os.open("/fanstore/ghost", os.O_RDONLY)


class TestPassthrough:
    def test_real_fds_unaffected(self, store, tmp_path):
        real = tmp_path / "real.bin"
        real.write_bytes(b"kernel bytes")
        with intercept(store):
            fd = os.open(real, os.O_RDONLY)
            assert fd < FD_BASE
            data = os.read(fd, 100)
            st = os.fstat(fd)
            os.close(fd)
        assert data == b"kernel bytes"
        assert st.st_size == 12

    def test_originals_restored(self, store):
        originals = (os.open, os.read, os.pread, os.lseek, os.close, os.fstat)
        with intercept(store):
            assert os.open is not originals[0]
        assert (os.open, os.read, os.pread, os.lseek, os.close,
                os.fstat) == originals

    def test_numpy_can_load_from_mount(self, store):
        """A real third-party library (numpy) reading an intercepted
        path end-to-end — the paper's 'no intrusive code changes'."""
        import io

        import numpy as np

        arr = np.arange(20, dtype=np.int32)
        buf = io.BytesIO()
        np.save(buf, arr)
        store.client.write_file("arrays/a.npy", buf.getvalue())
        with intercept(store):
            loaded = np.load("/fanstore/arrays/a.npy")
        np.testing.assert_array_equal(loaded, arr)


class TestOsWrite:
    def test_full_fd_write_path(self, store):
        with intercept(store):
            fd = os.open("/fanstore/out/oswrite.bin", os.O_WRONLY | os.O_CREAT)
            n = os.write(fd, b"via os.write")
            os.close(fd)
        assert n == 12
        assert store.client.read_file("out/oswrite.bin") == b"via os.write"

    def test_real_fd_write_passthrough(self, store, tmp_path):
        real = tmp_path / "w.bin"
        with intercept(store):
            fd = os.open(real, os.O_WRONLY | os.O_CREAT)
            os.write(fd, b"kernel write")
            os.close(fd)
        assert real.read_bytes() == b"kernel write"
