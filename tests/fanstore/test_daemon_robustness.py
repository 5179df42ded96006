"""Daemon service-loop robustness under malformed traffic."""

from __future__ import annotations

import pytest

from repro.comm.launcher import run_parallel
from repro.fanstore.exchange import TAG_DAEMON
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.fanstore.wire import Reply, Request


class TestMalformedMessages:
    def test_service_survives_garbage(self, prepared_dataset):
        """Garbage on the daemon tag must be counted, not fatal: the
        daemon keeps serving fetches afterwards."""

        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                peer = (comm.rank + 1) % comm.size
                # three flavours of garbage at the peer's daemon
                comm.send("not a tuple", peer, TAG_DAEMON)
                comm.send(("unknown-kind", None), peer, TAG_DAEMON)
                comm.send((1, 2, 3), peer, TAG_DAEMON)
                comm.barrier()
                # the daemon must still answer real requests
                total = 0
                for rec in fs.daemon.metadata.walk_files():
                    total += len(fs.client.read_file(rec.path))
                comm.barrier()
                return total, fs.daemon.stats.malformed_requests

        results = run_parallel(body, 3, timeout=60)
        totals = {t for t, _ in results}
        assert len(totals) == 1
        assert all(m >= 2 for _, m in results)  # garbage was counted

    def test_fetch_for_missing_path_answers_not_found(self, prepared_dataset):
        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                peer = (comm.rank + 1) % comm.size
                reply_tag = 0x7000 + comm.rank
                request = Request(subject="no/such/file", reply_tag=reply_tag)
                comm.send(("fetch", request.encode()), peer, TAG_DAEMON)
                ok, _ = comm.recv(peer, reply_tag, timeout=20)
                comm.barrier()
                return ok

        assert run_parallel(body, 2, timeout=60) == [Reply.MISS] * 2

    def test_positional_body_is_malformed_and_unanswered(
        self, prepared_dataset
    ):
        """A pre-envelope ``(path, reply_tag)`` body is not a wire form:
        it is counted malformed and never answered, and the daemon
        serves the next well-formed request."""

        def body(comm):
            with FanStore(prepared_dataset, FanStoreOptions(comm=comm)) as fs:
                peer = (comm.rank + 1) % comm.size
                path = next(
                    rec.path for rec in fs.daemon.metadata.walk_files()
                    if rec.home_rank == peer
                )
                stale_tag = 0x7000 + comm.rank
                good_tag = 0x7100 + comm.rank
                comm.send(("fetch", (path, stale_tag)), peer, TAG_DAEMON)
                request = Request(subject=path, reply_tag=good_tag)
                comm.send(("fetch", request.encode()), peer, TAG_DAEMON)
                # the daemon serves in arrival order: once the envelope
                # is answered, the positional body's silence is final
                ok, data = comm.recv(peer, good_tag, timeout=20)
                unanswered = comm.try_recv(peer, stale_tag) is None
                comm.barrier()
                return (ok, len(data) > 0, unanswered,
                        fs.daemon.stats.malformed_requests)

        assert run_parallel(body, 2, timeout=60) == [
            (Reply.OK, True, True, 1)
        ] * 2
