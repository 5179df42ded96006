"""The decode size hint is a hint: ``decompress(compress(x), size) == x``
for every registered compressor, filters included, whatever ``size``
says — absent, zero, one short, exact, one over, ten times over, or
absurd. ``ZlibCodec`` is the member that uses it (one output buffer of
the final size), so it is also driven past its 16 KiB default block,
where the hint decides the buffer."""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors.registry import default_registry


def _hints(n: int) -> tuple:
    return (None, 0, n - 1, n, n + 1, 10 * n, 2**40)


small = st.one_of(
    st.binary(max_size=1024),
    st.builds(
        lambda chunk, reps: chunk * reps,
        st.binary(min_size=1, max_size=32),
        st.integers(min_value=1, max_value=64),
    ),
)

#: past ``zlib.DEF_BUF_SIZE``: runs and repeats (cheap to compress)
#: with a random head, so the hint sizes the first block
large = st.builds(
    lambda head, chunk, extra: (
        head + chunk * (zlib.DEF_BUF_SIZE // len(chunk) + extra)
    ),
    st.binary(max_size=512),
    st.binary(min_size=1, max_size=64),
    st.integers(min_value=1, max_value=4096),
)


@pytest.mark.parametrize("name", default_registry().names())
@settings(max_examples=4, deadline=None)
@given(data=small)
def test_every_compressor_ignores_a_wrong_hint(name, data):
    compressor = default_registry().get(name)
    blob = compressor.compress(data)
    for hint in _hints(len(data)):
        assert compressor.decompress(blob, hint) == data


@pytest.mark.parametrize(
    "name", [n for n in default_registry().names() if "zlib-" in n]
)
@settings(max_examples=10, deadline=None)
@given(data=large)
def test_a_sized_buffer_round_trips_past_the_default_block(name, data):
    compressor = default_registry().get(name)
    blob = compressor.compress(data)
    for hint in _hints(len(data)):
        assert compressor.decompress(blob, hint) == data
