"""Cache hits share one read-only answer: no array copies, no per-hit event.

A cached ranking is handed out as the very object the cache holds.  What
keeps a caller from corrupting it is the buffers' read-only flag, not a
copy per hit; a hit's handle is born resolved, so it builds no
``threading.Event``.  Every check runs with the tracer on and off: the
tracer adds spans to a hit and must not add anything else.
"""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.obs import Tracer
from repro.serving import COLD, WARM, RecommenderService, export_index
from repro.serving.retrieval import RetrievalResult

N_HITS = 10_000
HELD_HITS_BUDGET = 256 * 1024  # bytes; a list of N_HITS references is ~80 KiB


@pytest.fixture(scope="module")
def index():
    config = SyntheticConfig(
        n_users=40, n_items=60, n_categories=4, n_price_levels=4,
        interactions_per_user=7, seed=13,
    )
    dataset = generate(config)[0]
    model = pup_full(dataset, global_dim=10, category_dim=4, rng=np.random.default_rng(5))
    model.eval()
    return export_index(model, dataset)


@pytest.fixture(params=[False, True], ids=["tracer_off", "tracer_on"])
def tracer(request):
    return Tracer() if request.param else None


def only_entry(service):
    """The one answer a single-key cache holds."""
    (entry,) = service._cache.values()
    return entry


def test_held_hits_retain_no_per_hit_memory(index, tracer):
    service = RecommenderService(index, default_k=10, tracer=tracer)
    service.recommend(3)  # the miss that fills the cache
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [service.recommend(3) for _ in range(N_HITS)]
        if tracer is not None:
            tracer.clear()  # span records are the tracer's cost, not the answers'
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(rec.cached for rec in held)
    assert retained < HELD_HITS_BUDGET, f"{N_HITS} held hits retain {retained / 1024:.0f} KiB"


def test_hit_builds_no_event(index, tracer, monkeypatch):
    service = RecommenderService(index, default_k=10, tracer=tracer)
    service.recommend(3)
    built = []

    class CountingEvent(threading.Event):
        def __init__(self) -> None:
            built.append(self)
            super().__init__()

    monkeypatch.setattr(threading, "Event", CountingEvent)
    for _ in range(100):
        pending = service.submit(3)
        assert pending.done and pending.wait(0)
        assert pending.result().cached
    assert len(built) == 0


def test_hit_is_the_cache_entry(index, tracer):
    service = RecommenderService(index, default_k=10, tracer=tracer)
    miss = service.recommend(3)
    hit = service.recommend(3)
    entry = only_entry(service)
    assert hit is entry and hit.cached and not miss.cached
    assert hit.items is entry.items and hit.scores is entry.scores
    assert np.shares_memory(miss.items, hit.items)
    assert np.shares_memory(miss.scores, hit.scores)
    assert service.recommend(3) is hit


def as_views(result):
    """The same ranking as views over buffers twice its length."""
    n = len(result.items)
    return RetrievalResult(
        items=np.concatenate([result.items, result.items])[:n],
        scores=np.concatenate([result.scores, result.scores])[:n],
    )


@pytest.mark.parametrize("source", [WARM, COLD])
def test_cached_arrays_are_read_only_and_own_their_data(index, tracer, source, monkeypatch):
    """A cache entry never pins a larger buffer: the cold-start ranking is
    handed back as views (as a batch-wide selection would slice it), and
    the answer and its cache entry still own their data."""
    service = RecommenderService(index, default_k=10, tracer=tracer)
    user = 3 if source == WARM else index.n_users + 5
    plain = RecommenderService(index, default_k=10).recommend(user)
    ranked = service.engine.topk_from_scores
    monkeypatch.setattr(
        service.engine, "topk_from_scores", lambda *a, **kw: as_views(ranked(*a, **kw))
    )
    miss = service.recommend(user)
    assert miss.source == source
    for answer in (miss, only_entry(service)):
        assert answer.items.tobytes() == plain.items.tobytes()
        assert answer.scores.tobytes() == plain.scores.tobytes()
        for array in (answer.items, answer.scores):
            assert array.base is None
            assert not array.flags.writeable


def test_answers_are_frozen(index, tracer):
    """One object reaches every caller of a key, so none may retag it."""
    service = RecommenderService(index, default_k=10, tracer=tracer)
    service.recommend(3)
    hit = service.recommend(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        hit.cached = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        hit.items = np.array(hit.items)
    assert service.recommend(3).cached
