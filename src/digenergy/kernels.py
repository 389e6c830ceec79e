"""Backend selection for the per-digraph hot kernels.

The compiled extension (built from ``_kernels_c.pyx``) is used when it is
importable and the instance is small enough for its fixed-width arithmetic
(n <= 64 for bitmask kernels, n <= 12 for the int64 characteristic
polynomial).  Everything else, and every call when the extension is absent,
goes to the Python twins in ``_kernels_py``.  Set ``DIGENERGY_PURE=1``
in the environment to force the pure backend.

Both backends take adjacency bitmask rows as plain Python ints and return
plain Python ints, so results are bit-identical across backends.
"""

from __future__ import annotations

import os

from . import _kernels_py

try:
    from . import _kernels_c
except ImportError:
    _kernels_c = None

if os.environ.get("DIGENERGY_PURE"):
    _kernels_c = None

HAVE_COMPILED = _kernels_c is not None
BACKEND = "compiled" if HAVE_COMPILED else "pure"

_MASK_LIMIT = 64
_CHARPOLY_LIMIT = 12


def walk_counts(n, out_masks, in_masks):
    if _kernels_c is not None and n <= _MASK_LIMIT:
        return _kernels_c.walk_counts(n, list(out_masks), list(in_masks))
    return _kernels_py.walk_counts(n, out_masks, in_masks)


def scc_ids(n, out_masks):
    if _kernels_c is not None and n <= _MASK_LIMIT:
        return _kernels_c.scc_ids(n, list(out_masks))
    return _kernels_py.scc_ids(n, out_masks)


def charpoly_from_masks(n, out_masks):
    if _kernels_c is not None and n <= _CHARPOLY_LIMIT:
        return _kernels_c.charpoly_from_masks(n, list(out_masks))
    return _kernels_py.charpoly_from_masks(n, out_masks)
