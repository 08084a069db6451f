"""A refresh round's catalog-wide work is done once, not once per event.

Noise-free counters for the three loops the round stopped repeating — each
fails at the parent commit, where the count followed the event stream — and
the loop the once-sorted price table replaced, kept here as the reference
it must agree with.  Beside them, a ``tracemalloc`` ceiling on fold-in's
scratch, which the parent exceeded by converting the whole catalog.
"""

import os
import sys
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lifecycle import GateConfig, GateReport, LifecycleConfig, LifecycleController, fold_in
from repro.lifecycle import foldin, gates, journal
from repro.lifecycle.journal import Event

from test_refresh_pins import ROOT, catalog, churn, planted_gate_case


def reference_requantize(new_price, raw_prices, price_levels):
    """``requantize_price`` as it stood at the parent: one argsort per price."""
    order = np.argsort(raw_prices, kind="stable")
    sorted_prices = raw_prices[order]
    pos = int(np.searchsorted(sorted_prices, new_price))
    if pos == 0:
        nearest = 0
    elif pos >= len(sorted_prices):
        nearest = len(sorted_prices) - 1
    else:
        left, right = sorted_prices[pos - 1], sorted_prices[pos]
        nearest = pos - 1 if (new_price - left) <= (right - new_price) else pos
    return int(price_levels[order[nearest]])


# Half-steps for the table, quarter-steps for the arrivals: duplicates,
# exact midpoints, and arrivals below the cheapest and above the dearest.
tables = st.lists(st.integers(8, 40), min_size=1, max_size=30).map(
    lambda steps: np.array(steps, dtype=np.float64) / 2.0
)
arrivals = st.lists(st.integers(0, 100), min_size=0, max_size=20).map(
    lambda steps: np.array(steps, dtype=np.float64) / 4.0
)


class TestOnceSortedPriceTable:
    @settings(max_examples=200, deadline=None)
    @given(raw=tables, new=arrivals, seed=st.integers(0, 2**16))
    def test_batch_equals_the_event_by_event_loop(self, raw, new, seed):
        levels = np.random.default_rng(seed).integers(0, 5, size=len(raw))
        expected = [reference_requantize(float(p), raw, levels) for p in new]
        order = np.argsort(raw, kind="stable")
        batch = foldin._nearest_price_levels(new, raw[order], levels[order])
        assert batch.dtype == levels.dtype and batch.tolist() == expected
        assert [foldin.requantize_price(float(p), raw, levels) for p in new] == expected

    def test_a_tie_goes_to_the_cheaper_item_and_duplicates_to_the_first(self):
        raw = np.array([4.0, 2.0, 2.0, 6.0])
        levels = np.array([3, 1, 2, 4])
        order = np.argsort(raw, kind="stable")
        new = np.array([3.0, 5.0, 2.0, 1.0, 9.0])
        got = foldin._nearest_price_levels(new, raw[order], levels[order])
        assert got.tolist() == [2, 3, 1, 1, 4]
        assert got.tolist() == [reference_requantize(p, raw, levels) for p in new.tolist()]

    def test_the_price_table_is_sorted_once_per_fold_in(self, monkeypatch):
        index = catalog("float32", 77, priced=True)
        sorts = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            if len(a) == index.n_items:
                sorts.append(len(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        for count in (40, 400):
            events = churn(index, count, seed=count)
            priced = sum(event.price is not None for event in events)
            assert priced >= 5
            del sorts[:]
            fold_in(index, events)
            assert len(sorts) == 1, f"{priced} priced events cost {len(sorts)} sorts"


class TestFoldInScratch:
    def test_peak_beyond_the_output_factors_is_under_half_a_catalog_copy(self):
        """The ``refresh`` workload's catalog and one round of its events.

        The parent converted the whole catalog to float64 twice (a stacked
        copy per branch, then their hstack) for ~500 solves that each read
        a few dozen rows, and peaked ~30 MB above its output; each solve
        now gathers its own rows.
        """
        benchmarks = os.path.join(ROOT, "benchmarks")
        if benchmarks not in sys.path:
            sys.path.insert(0, benchmarks)
        from e2e import inputs

        index = inputs.clustered_index(2_000, 24_000, seed=3)
        events = inputs.refresh_events(index.n_users, index.n_items, 600, seed=3000, start_seq=0)
        assert sum(event.kind == "add_item" for event in events) > 0
        tracemalloc.start()
        try:
            folded, stats = fold_in(index, events)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        factors = sum(
            array.nbytes
            for branch in folded.branches
            for array in (branch.user, branch.item, branch.item_const, branch.user_const)
            if array is not None
        )
        combined_f64 = index.n_items * sum(b.item.shape[1] for b in index.branches) * 8
        assert stats.refreshed_users + stats.new_users > 100
        assert peak - factors <= combined_f64 / 2


class TestBandGateSearchesOncePerLevel:
    def test_searches_equal_distinct_levels_among_the_probes(self):
        candidate, ann, config, probes = planted_gate_case()
        levels = candidate.item_price_levels
        for chosen in (probes, probes[:4], [probes[0]] * 6, probes[::5] * 2):
            ann.filtered_searches = 0
            report = GateReport()
            gates._price_band_gate(candidate, ann, config, report, chosen)
            assert ann.filtered_searches == len({int(levels[item]) for item in chosen})
            assert report.gates["price_band"]["bands_searched"] == len(chosen)

    def test_masks_are_built_once_per_level(self, monkeypatch):
        candidate, ann, config, probes = planted_gate_case()
        built = []
        mask = gates.PriceBandFilter.mask
        monkeypatch.setattr(
            gates.PriceBandFilter, "mask",
            lambda self, index: built.append(self.signature()) or mask(self, index),
        )
        gates._price_band_gate(candidate, ann, config, GateReport(), probes)
        assert len(built) == len(set(built)) == 2 * candidate.n_price_levels

    def test_the_probe_cap_still_bounds_the_probes(self):
        candidate, ann, config, probes = planted_gate_case()
        report = GateReport()
        capped = GateConfig(probe_items=4, seed=config.seed)
        gates._price_band_gate(candidate, ann, capped, report, probes)
        assert report.gates["price_band"]["probed_items"] == 4
        assert ann.filtered_searches == 4  # the first four probes sit on four levels


class TestIngestReadsEachSegmentOnce:
    def test_segment_reads_per_ingest_equal_segment_files(self, tmp_path, monkeypatch):
        """Flat at one read per file over five rounds that include rotations."""
        reads = []
        scan = journal._scan_segment
        monkeypatch.setattr(
            journal, "_scan_segment", lambda path: reads.append(path) or scan(path)
        )
        controller = LifecycleController(
            str(tmp_path), config=LifecycleConfig(segment_records=50)
        )
        journal_dir = controller.store.journal_dir
        files_seen = []
        for round_ in range(5):
            events = [
                Event(seq=30 * round_ + i, kind="interaction", user=i, item=i) for i in range(30)
            ]
            files = sorted(os.listdir(journal_dir))
            del reads[:]
            assert controller.ingest(events)["appended"] == 30
            assert sorted(os.path.basename(p) for p in reads) == files
            files_seen.append(len(files))
        assert files_seen == [0, 1, 2, 2, 3]  # rotations after rounds 2 and 4
