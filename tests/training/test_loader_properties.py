"""Hypothesis properties of the loader's global-view sharding — the
§III invariant that every rank derives the *same* global batch and the
shards partition it exactly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.training import loader
from repro.training.loader import _EpochPlan

plans = st.builds(
    dict,
    n_files=st.integers(min_value=1, max_value=200),
    batch_size=st.integers(min_value=1, max_value=64),
    world_size=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
    epoch=st.integers(min_value=0, max_value=5),
    iteration=st.integers(min_value=0, max_value=10),
)


def _make_plans(cfg):
    files = [f"f{i:04d}" for i in range(cfg["n_files"])]
    return [
        _EpochPlan(
            files,
            batch_size=cfg["batch_size"],
            rank=r,
            world_size=cfg["world_size"],
            seed=cfg["seed"],
        )
        for r in range(cfg["world_size"])
    ]


@settings(max_examples=60, deadline=None)
@given(cfg=plans)
def test_shards_are_disjoint_slices_of_one_global_batch(cfg):
    plans_by_rank = _make_plans(cfg)
    shards = [
        p.rank_files(cfg["epoch"], cfg["iteration"]) for p in plans_by_rank
    ]
    merged = [f for shard in shards for f in shard]
    # per-rank share is bounded by the plan's per_rank
    for p, shard in zip(plans_by_rank, shards):
        assert len(shard) <= p.per_rank
    # shards never exceed the global batch
    assert len(merged) <= cfg["batch_size"]
    # and are positionally disjoint: rebuilding the global batch from
    # rank 0's plan must contain every sharded path
    full = _EpochPlan(
        plans_by_rank[0].files,
        batch_size=cfg["batch_size"],
        rank=0,
        world_size=1,
        seed=cfg["seed"],
    ).rank_files(cfg["epoch"], cfg["iteration"])
    # world_size=1 per_rank == batch_size
    for f in merged:
        assert f in full


@settings(max_examples=40, deadline=None)
@given(cfg=plans)
def test_same_seed_same_epoch_same_order_everywhere(cfg):
    """Determinism: two plans with identical parameters agree batch by
    batch (this is what keeps data-parallel replicas consistent)."""
    a, b = _make_plans(cfg)[0], _make_plans(cfg)[0]
    assert a.rank_files(cfg["epoch"], cfg["iteration"]) == b.rank_files(
        cfg["epoch"], cfg["iteration"]
    )


@settings(max_examples=40, deadline=None)
@given(cfg=plans)
def test_epoch_permutations_cover_all_files(cfg):
    """Within one epoch, iterating all batches touches every file at
    least once when batch_size × iterations ≥ n_files (the paper's
    'every item visited once per epoch, statistically')."""
    plan = _EpochPlan(
        [f"f{i}" for i in range(cfg["n_files"])],
        batch_size=cfg["batch_size"],
        rank=0,
        world_size=1,
        seed=cfg["seed"],
    )
    seen: set[str] = set()
    for it in range(plan.iterations):
        seen.update(plan.rank_files(cfg["epoch"], it))
    covered = cfg["batch_size"] * plan.iterations
    if covered >= cfg["n_files"]:
        assert len(seen) == cfg["n_files"]


def _reference_rank_files(plan, epoch, iteration):
    """The unmemoised plan: a fresh permutation on every call."""
    order = np.random.default_rng(plan.seed + epoch).permutation(
        len(plan.files)
    )
    start = iteration * plan.batch_size
    global_batch = [
        plan.files[order[i % len(plan.files)]]
        for i in range(start, start + plan.batch_size)
    ]
    return global_batch[plan.rank :: plan.world_size][: plan.per_rank]


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_epoch_memo_keeps_batches_and_permutes_once_per_epoch(
    seed, monkeypatch
):
    """The epoch's shuffle is computed once per epoch, not per
    iteration, and batch membership is bit-for-bit what the
    per-iteration permutation gave."""
    permutations = []
    real_default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, rng_seed):
            self._rng = real_default_rng(rng_seed)

        def permutation(self, n):
            permutations.append(n)
            return self._rng.permutation(n)

    files = [f"f{i:04d}" for i in range(103)]
    plans = [
        _EpochPlan(files, batch_size=16, rank=r, world_size=2, seed=seed)
        for r in range(2)
    ]
    expected = {
        (r, epoch, it): _reference_rank_files(plans[r], epoch, it)
        for r in range(2)
        for epoch in range(2)
        for it in range(plans[r].iterations)
    }
    monkeypatch.setattr(loader.np.random, "default_rng", CountingRng)
    for (r, epoch, it), want in expected.items():  # rank, epoch, iteration order
        assert plans[r].rank_files(epoch, it) == want
    assert permutations == [len(files)] * (2 * 2)  # ranks x epochs
    # a revisited epoch is recomputed, not served stale
    assert plans[0].rank_files(0, 1) == expected[(0, 0, 1)]
    assert len(permutations) == 5
