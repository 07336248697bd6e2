"""Scalar reference implementations the vectorized runtime paths are
pinned against.

Each oracle is the historical per-item loop a columnar fast path
replaced; it lives here, not in ``src/``, because nothing at runtime
takes it — the property tests replay it in a twin world and compare
full state.
"""
