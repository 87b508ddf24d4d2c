"""Internal helpers: seed derivation, a bounded cache, formatting."""

import hashlib
import json
import threading
from collections import OrderedDict

import numpy as np


def derive_seed(seed, *parts):
    """Stable 63-bit seed derived by hashing (seed, *parts).

    Guarantees identical per-task seeds regardless of execution order. The
    hash is of the text `repr(seed)/repr(p)/...`, in one blake2b call; a
    numpy integer part hashes as the int it holds.
    """
    text = repr(int(seed))
    for p in parts:
        text += "/" + repr(int(p) if isinstance(p, np.integer) else p)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & (2**63 - 1)


def thread_cap():
    """Always 1, as descry runs in one thread; perfbench/run.py reads it."""
    return 1


_lru_lock = threading.Lock()
_caches = []
_MISSING = object()


def new_cache():
    """An empty cache for lru_get_or_build, one of those clear_caches empties."""
    cache = OrderedDict()
    _caches.append(cache)
    return cache


def clear_caches():
    """Empty all of descry's caches: the subset refits and their risks, the
    support checkers, and the intervals' draws and refits."""
    with _lru_lock:
        for cache in _caches:
            cache.clear()


def lru_get(cache, key, default=None):
    """cache[key], marked as the most recently used, or default."""
    with _lru_lock:
        if key in cache:
            cache.move_to_end(key)
            return cache[key]
    return default


def lru_get_or_build(cache, size, key, build):
    """cache[key], built on a miss, in an OrderedDict kept to its `size` most
    recently used entries. build runs outside the lock, as builds nest; when
    two threads miss at once, the value inserted first is the one returned."""
    value = lru_get(cache, key, _MISSING)
    if value is not _MISSING:
        return value
    value = build()
    with _lru_lock:
        value = cache.setdefault(key, value)
        cache.move_to_end(key)
        while len(cache) > size:
            cache.popitem(last=False)
    return value


def fmt_number(x):
    """Shortest round-trip decimal for floats; plain digits for integrals."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    if f == int(f) and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None   # strict JSON has no NaN/inf
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, shortest round-trip floats,
    non-finite numbers as null."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))
        fh.write("\n")
