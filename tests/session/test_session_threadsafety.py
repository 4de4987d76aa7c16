"""Session races under worker threads.

Two regressions:

* ``_persist_entry`` runs on whichever worker thread published the
  final: concurrent writes of one entry go through the store's one
  shared connection without error and leave exactly one record for
  the entry's (query, filter);
* ``stats()`` reads the query counter and the cache counters under the
  declared session → cache lock order while miners bump them.
"""

from __future__ import annotations

import threading

from repro.recovery import CheckpointStore
from repro.session import MiningSession, with_support_threshold

THREADS = 8
ITERS = 50


def test_concurrent_persists_keep_one_record_per_entry(
    tmp_path, small_basket_db, basket_flock, monkeypatch
):
    path = str(tmp_path / "session.db")
    session = MiningSession(small_basket_db, persist_path=path)
    session.mine(basket_flock)
    (entry,) = session.cache.entries()
    store = session._store
    errors: list[BaseException] = []
    put = store.put

    def checked_put(*args, **kwargs):
        try:
            put(*args, **kwargs)
        except BaseException as error:  # pragma: no cover - fail path
            errors.append(error)
            raise

    monkeypatch.setattr(store, "put", checked_put)

    def publish():
        for _ in range(ITERS):
            session._persist_entry(entry)

    threads = [threading.Thread(target=publish) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    session.close()

    assert errors == []
    with CheckpointStore(path) as reopened:
        ((_, meta, relation),) = reopened.records("cache")
    assert meta["filter"] == str(entry.filter)
    assert relation == entry.relation


def test_stats_consistent_while_miners_run(small_basket_db, basket_flock):
    session = MiningSession(small_basket_db)
    errors: list[BaseException] = []
    mines = 6

    def miner():
        try:
            for threshold in (2, 3, 2, 3, 2, 3):
                session.mine(with_support_threshold(basket_flock, threshold))
        except BaseException as error:  # pragma: no cover - fail path
            errors.append(error)

    def reader():
        try:
            for _ in range(200):
                stats = session.stats()
                assert stats.queries >= 0
                assert stats.cache_hits + stats.cache_misses <= stats.queries
        except BaseException as error:  # pragma: no cover - fail path
            errors.append(error)

    threads = [threading.Thread(target=miner)] + [
        threading.Thread(target=reader) for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    assert session.stats().queries == mines
