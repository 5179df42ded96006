"""Registry semantics: ids, aliases, uniqueness, error paths."""

from __future__ import annotations

import pytest

from repro.compressors.lz77 import Lz77Codec
from repro.compressors.null import NullCodec
from repro.compressors.registry import (
    PAPER_ALIASES,
    RAW_ID,
    RAW_NAME,
    CompressorRegistry,
    build_default_registry,
    get_compressor,
    list_compressors,
)
from repro.errors import UnknownCompressorError


def test_raw_id_reserved(registry):
    raw = registry.get(RAW_ID)
    assert raw.name == RAW_NAME
    assert raw.compressor_id == RAW_ID
    assert raw.decompress(raw.compress(b"abc")) == b"abc"


def test_ids_are_dense_and_stable(registry):
    ids = sorted(c.compressor_id for c in registry)
    assert ids == list(range(1, len(registry) + 1))
    # Rebuilding produces identical name→id mapping (partition
    # portability depends on this).
    rebuilt = build_default_registry()
    for comp in registry:
        assert rebuilt.get(comp.name).compressor_id == comp.compressor_id


def test_lookup_by_id_and_name_agree(registry):
    for comp in registry:
        assert registry.get(comp.compressor_id) is comp
        assert registry.get(comp.name) is comp


def test_paper_aliases_resolve(registry):
    for alias, target in PAPER_ALIASES.items():
        assert registry.get(alias).name == target


def test_unknown_names_raise(registry):
    with pytest.raises(UnknownCompressorError):
        registry.get("snappy")
    with pytest.raises(UnknownCompressorError):
        registry.get(99_999)


def test_contains(registry):
    assert "zlib-6" in registry
    assert "lz4hc" in registry  # via alias
    assert 1 in registry
    assert "nope" not in registry


def test_duplicate_registration_rejected():
    reg = CompressorRegistry()
    reg.register(NullCodec())
    with pytest.raises(ValueError):
        reg.register(NullCodec())


def test_custom_registration_names_and_ids():
    reg = CompressorRegistry()
    a = reg.register(Lz77Codec(3))
    b = reg.register(Lz77Codec(6), name="custom-name")
    assert a.name == "fastlz-3"
    assert b.name == "custom-name"
    assert b.compressor_id == a.compressor_id + 1


def test_module_level_helpers():
    names = list_compressors()
    assert len(names) == 180
    assert get_compressor("zlib-6").name == "zlib-6"
    assert get_compressor("lzsse8").name == "fastlz-6"


def test_names_exclude_raw(registry):
    assert RAW_NAME not in registry.names()


def test_iteration_order_is_id_order(registry):
    ids = [c.compressor_id for c in registry]
    assert ids == sorted(ids)


def test_a_filterless_pipeline_decodes_through_its_codec(registry):
    """Without filters a compressor's ``decompress`` is its codec's own
    bound method (no forwarding frame on the read path); with filters
    it is the pipeline's, which runs the chain backward."""
    plain = registry.get("zlib-1")
    assert not plain.filters
    assert plain.decompress == plain.codec.decompress
    filtered = next(c for c in registry if c.filters)
    assert filtered.decompress.__func__ is type(filtered).decompress
    data = bytes(range(256)) * 8
    for compressor in (plain, filtered):
        assert compressor.decompress(compressor.compress(data)) == data
