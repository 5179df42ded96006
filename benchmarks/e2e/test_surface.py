"""Surface guard for the gated path (``pytest benchmarks/e2e``; not tier-1).

The gated measurement is the yardstick for refactors that will delete
``FanStore(**legacy)``, ``FanStore.stats()``, ``DaemonStats``, tuple
wire bodies and private methods, so it may not touch any of them.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: what the gated path may import from the program
ALLOWED = {
    "GENERATORS", "get_spec", "prepare_dataset", "FanStore", "FanStoreOptions",
    "DaemonConfig", "intercept", "SyncLoader", "AsyncLoader",
    "list_training_files", "run_parallel",
}
#: attribute names the gated path may not touch on anything
FORBIDDEN_ATTRIBUTES = {"daemon", "stats", "DaemonStats", "tracer", "health"}
GATED_MODULES = ("run.py", "harness.py", "calib.py", "workloads.py")


def _tree(name: str) -> ast.AST:
    return ast.parse((HERE / name).read_text(encoding="utf-8"), name)


def test_gated_path_imports_only_the_public_surface():
    for module in GATED_MODULES:
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] == "repro":
                    names = {alias.name for alias in node.names}
                    assert names <= ALLOWED, (module, names - ALLOWED)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[0] != "repro", (
                        module, alias.name)


def test_gated_path_touches_no_private_or_doomed_attribute():
    for module in GATED_MODULES:
        for node in ast.walk(_tree(module)):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            private = attr.startswith("_") and not attr.endswith("__")
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            assert not (private and not on_self), (module, node.lineno, attr)
            assert attr not in FORBIDDEN_ATTRIBUTES, (module, node.lineno, attr)


def test_probes_are_loaded_only_by_the_traced_run():
    for module in ("harness.py", "calib.py", "workloads.py"):
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.ImportFrom) and node.module:
                assert node.module not in (
                    "benchmarks.e2e.traced", "benchmarks.e2e.ledger"), module


def test_no_module_is_collected_as_a_legacy_benchmark():
    # pyproject's python_files would collect bench_*.py under pytest benchmarks/
    assert not list(HERE.glob("bench_*.py"))


def test_refuses_to_measure_under_a_lock_witness():
    # this pytest process runs under the repo's lockdep witness (root
    # conftest), unless FANSTORE_LOCKDEP=0 switched it off
    sys.path.insert(0, str(ROOT))
    from benchmarks.e2e import run

    witness_on = os.environ.get("FANSTORE_LOCKDEP", "1") not in ("0", "off", "no")
    assert run.locks_are_instrumented() == witness_on


def test_quick_run_emits_exactly_the_contract():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        definition = json.load(handle)
    workloads = [w["name"] for w in definition["workloads"]]
    expected = [m["name"] for m in definition["end_to_end"]]
    assert len(workloads) == 4 and "setup_s" in expected
    env = dict(os.environ, PYTHONWARNINGS="error::DeprecationWarning")
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        check=False, timeout=600,
    )
    # exit 0 = every output checked out, no DeprecationWarning raised
    # (they are errors here), no lock witness in the children
    assert child.returncode == 0, child.stderr[-2000:]
    assert "NOT comparable" in child.stdout
    for workload in workloads:
        names = re.findall(
            rf"^{re.escape(workload)} (\S+) = ", child.stdout, re.MULTILINE)
        assert names == expected + ["ops_attempted", "ops_failed"], workload
    final = json.loads(child.stdout.strip().splitlines()[-1])
    assert sorted(final) == sorted(workloads)
    for result in final.values():
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == expected
