"""Per-process tables: bounded LRU caches of exact, immutable results,
registered by name so that one call empties or reports them all.  A call
that raises stores nothing, so a refusal raises again on every call."""

from functools import lru_cache

_TABLES: dict = {}


def table(name: str, size: int):
    """Keep the decorated function's results in an LRU table of `size`
    entries, registered as `name`.  The key holds each argument's type, so
    equal arguments of different types (1 and 1.0) are kept apart."""
    def register(fn):
        _TABLES[name] = cached = lru_cache(maxsize=size, typed=True)(fn)
        return cached
    return register


def clear_tables() -> None:
    for cached in _TABLES.values():
        cached.cache_clear()


def table_stats() -> dict[str, dict[str, int]]:
    """Hits, misses, maximum and current size of each table."""
    return {
        name: dict(zip(("hits", "misses", "maxsize", "size"), cached.cache_info()))
        for name, cached in _TABLES.items()
    }
