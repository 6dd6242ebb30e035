"""Seeded YASK107 violations: direct result-cache entry mutation."""


def poke(executor, key, value):
    executor._cache.maintain(lambda cached, meta: ("kept", value, meta), 0)
    executor._cache.pop(key)
    executor._cache.clear()
    executor._cache.move_to_end(key)
    executor._cache[key] = value
    del executor._cache[key]


def sanctioned(executor, change, query):
    # The executor-tier protocol: these receivers are not caches.
    executor.maintain(change)
    executor.invalidate()
    execution = executor.execute(query)
    # Reads are fine — only entry mutation is fenced.
    peeked = executor._cache.peek_entry("k")
    return execution, peeked, executor._cache.stats()
