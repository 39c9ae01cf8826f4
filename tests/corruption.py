"""Hypothesis strategy that damages a valid file: truncate, extend or flip bytes."""

from __future__ import annotations

from hypothesis import strategies as st

corruptions = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(min_value=0),
                                                  st.integers(1, 255)),
                                        min_size=1, max_size=8)),
)


def corrupt(raw: bytes, corruption) -> bytes:
    """Apply one drawn corruption; the result always differs from ``raw``."""
    kind, arg = corruption
    if kind == "truncate":
        return raw[:arg % len(raw)]
    if kind == "extend":
        return raw + arg
    out = bytearray(raw)
    for pos, mask in arg:
        out[pos % len(out)] ^= mask
    return bytes(out)
