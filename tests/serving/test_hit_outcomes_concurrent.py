"""Outcome books under concurrency: hits are booked at enqueue, misses at flush.

A cache hit's ``ok`` outcome and request span are booked where the hit
happens, on a handle born resolved; a miss is booked when its flush
resolves it.  Eight threads hammer one hot key through the gateway while a
ninth keeps swapping the index — every swap empties the cache, so the hot
key flips between hits and misses that race each other — and every admitted
request must be booked exactly once.
"""

import threading

import numpy as np
import pytest

from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.obs import Tracer
from repro.serving import GatewayConfig, RecommenderService, ServingGateway, export_index

HOT = 3


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


@pytest.mark.parametrize("traced", [False, True], ids=["tracer_off", "tracer_on"])
def test_hot_key_books_every_admitted_request_once_across_swaps(index, traced):
    tracer = Tracer() if traced else None
    service = RecommenderService(index, default_k=8, max_batch_size=16, tracer=tracer)
    want = RecommenderService(index, default_k=8).recommend(HOT)
    n_threads, per_thread = 8, 200
    barrier = threading.Barrier(n_threads + 1)
    done = threading.Event()  # set once every hammer has joined
    handles = [[] for _ in range(n_threads)]
    swaps = [0]

    def hammer(slot):
        barrier.wait()
        for _ in range(per_thread):
            pending = gateway.submit(HOT)
            pending.result(timeout=10.0)
            handles[slot].append(pending)

    def swapper():
        barrier.wait()
        while not done.is_set():
            gateway.swap_index(index)
            swaps[0] += 1
            done.wait(0.001)  # a real pause: nothing sets `done` mid-run

    with ServingGateway(service, GatewayConfig(max_wait_ms=1.0)) as gateway:
        threads = [threading.Thread(target=hammer, args=(slot,)) for slot in range(n_threads)]
        swapping = threading.Thread(target=swapper)
        for thread in threads + [swapping]:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        done.set()
        swapping.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads + [swapping])
        admitted = gateway.snapshot()["admitted"]

    stats = service.stats
    assert admitted == n_threads * per_thread
    assert swaps[0] > 0 and stats.cache_hits > 0 and stats.cache_misses > 1
    answers = [pending.result() for slot in handles for pending in slot]
    assert len(answers) == admitted
    for answer in answers:
        assert answer.user == HOT
        assert answer.items.tobytes() == want.items.tobytes()
        assert answer.scores.tobytes() == want.scores.tobytes()
    assert stats.outcome_count("ok") == admitted
    assert stats.outcome_count("degraded") == stats.outcome_count("failed") == 0
    if tracer is not None:
        requests = [record for record in tracer.records() if record["name"] == "request"]
        assert len(requests) == admitted
        assert all(record["end"] is not None for record in requests)
