"""The construction API (FanStoreOptions, named constructors) and the
shared Service contract."""

from __future__ import annotations

import dataclasses

import pytest

from repro.comm.launcher import run_parallel
from repro.fanstore.membership import FailureDetector
from repro.fanstore.scrub import Scrubber
from repro.fanstore.store import FanStore, FanStoreOptions
from repro.obs import MetricsRegistry
from repro.util.service import Service, stop_all


class TestFanStoreOptions:
    def test_defaults_are_single_node_quiet(self):
        opts = FanStoreOptions()
        assert opts.comm is None
        assert opts.membership is None
        assert opts.mount_point == "/fanstore"
        assert opts.metrics is None

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FanStoreOptions().mount_point = "/other"  # type: ignore[misc]

    def test_options_construction(self, prepared_dataset):
        opts = FanStoreOptions(mount_point="/mnt/fs")
        with FanStore(prepared_dataset, opts) as fs:
            assert fs.options is opts
            assert fs.mount_point == "/mnt/fs"
            assert fs.resolve("/mnt/fs/train/x") == "train/x"

    def test_shared_metrics_registry(self, prepared_dataset):
        reg = MetricsRegistry(rank=0, label="shared")
        with FanStore(prepared_dataset, FanStoreOptions(metrics=reg)) as fs:
            assert fs.metrics is reg
            assert "daemon.local_opens" in reg

    def test_unknown_kwarg_is_a_typeerror(self, prepared_dataset):
        with pytest.raises(TypeError, match="wibble"):
            FanStore(prepared_dataset, wibble=1)
        # settings travel in FanStoreOptions only: an options field
        # name is no more a constructor keyword than a made-up one
        with pytest.raises(TypeError, match="mount_point"):
            FanStore(prepared_dataset, mount_point="/legacy")

    def test_with_membership_constructor(self, prepared_dataset):
        def body(comm):
            fs = FanStore(
                prepared_dataset, FanStoreOptions(comm=comm, membership=True)
            )
            with fs:
                assert fs.membership is not None
                assert fs.membership.running
                assert fs.options.comm is comm
            assert not fs.membership.running
            return fs.rank

        assert run_parallel(body, 2, timeout=60) == [0, 1]


class TestServiceContract:
    def test_runtime_checkable_conformance(self, single_store):
        assert isinstance(single_store, Service)
        assert isinstance(single_store.scrubber(), Service)

    def test_failure_detector_conforms(self):
        def body(comm):
            det = FailureDetector(comm)
            assert isinstance(det, Service)
            with det:
                assert det.running
            assert not det.running
            comm.barrier()

        run_parallel(body, 2, timeout=60)

    def test_store_running_reflects_lifecycle(self, prepared_dataset):
        fs = FanStore(prepared_dataset)
        assert fs.running  # the constructor starts the service
        fs.start()  # idempotent while active
        assert fs.running
        fs.stop()
        assert not fs.running
        fs.stop()  # idempotent after shutdown
        fs.start()  # and restartable
        assert fs.running
        path = next(iter(fs.daemon.metadata.walk_files())).path
        assert fs.client.read_file(path)
        fs.shutdown()

    def test_context_manager_stops_on_exit(self, prepared_dataset):
        with FanStore(prepared_dataset) as fs:
            assert fs.running
        assert not fs.running

    def test_scrubber_service_lifecycle(self, single_store):
        scrub = single_store.scrubber(interval_s=0.01)
        assert not scrub.running
        with scrub:
            assert scrub.running
        assert not scrub.running

    def test_stop_all_reverse_order_and_exception_collection(self):
        order = []

        class Recorder:
            def __init__(self, name, fail=False):
                self.name, self.fail = name, fail
                self._running = False

            def start(self):
                self._running = True

            def stop(self):
                order.append(self.name)
                if self.fail:
                    raise RuntimeError(self.name)
                self._running = False

            @property
            def running(self):
                return self._running

        daemon = Recorder("daemon")
        detector = Recorder("detector", fail=True)
        scrub = Recorder("scrub")
        assert all(isinstance(s, Service) for s in (daemon, detector, scrub))
        failures = stop_all(daemon, detector, scrub)  # start order
        assert order == ["scrub", "detector", "daemon"]  # reverse stop
        assert [str(e) for e in failures] == ["detector"]

    def test_stop_all_on_real_stack(self, prepared_dataset):
        fs = FanStore(prepared_dataset)
        scrub = fs.scrubber(interval_s=0.01)
        scrub.start()
        assert stop_all(fs, scrub) == []
        assert not scrub.running and not fs.running
