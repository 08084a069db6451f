"""The package graph runs one way: serving never loads the training stack.

Each check runs in a fresh interpreter, since this process has long since
imported everything.
"""

import json
import os
import subprocess
import sys

import numpy as np

import repro
from repro.core import pup_full
from repro.data import SyntheticConfig, generate
from repro.serving import RecommenderService, build_ivf, export_index

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
#: what a serving process must never load
TRAINING_STACK = (
    "scipy", "repro.nn", "repro.graph", "repro.baselines", "repro.train",
    "repro.core", "repro.data", "repro.experiments",
)


def run_python(code):
    """The JSON a fresh interpreter prints after running ``code``."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return json.loads(result.stdout)


def test_serving_imports_leave_the_training_stack_out():
    loaded = run_python(
        "import json, sys, repro.serving, repro.lifecycle, repro.runtime, repro.loadgen; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert [name for name in TRAINING_STACK if name in loaded] == []


def test_training_and_serving_imports_load_no_http_stack():
    """``http.server`` pulls in ``http.client`` and ``ssl`` (~2 MB resident);
    only a process that serves metrics should pay for them."""
    loaded = run_python(
        "import json, sys, repro.serving, repro.lifecycle, repro.train, repro.eval; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert [name for name in ("http.server", "ssl") if name in loaded] == []


def test_metrics_server_resolves_on_first_use():
    loaded = run_python(
        "import json, sys, repro, repro.obs; before = 'http.server' in sys.modules; "
        "from repro.obs import MetricsServer; from repro.obs.server import MetricsServer as cls; "
        "print(json.dumps([before, MetricsServer is cls, repro.MetricsServer is cls, "
        "'MetricsServer' in dir(repro.obs), 'http.server' in sys.modules]))"
    )
    assert loaded == [False, True, True, True, True]


def test_bare_import_loads_no_subpackage():
    loaded = run_python(
        "import json, sys, repro; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"
    )
    assert loaded == ["repro._lazy"]


def test_every_export_resolves_without_networkx():
    """Touching every top-level name loads the whole stack, graph included,
    and still no networkx (~11 MB resident): the graph is scipy CSR."""
    loaded = run_python(
        "import json, sys, repro; [getattr(repro, name) for name in repro.__all__]; "
        "print(json.dumps(['repro.graph' in sys.modules, 'networkx' in sys.modules]))"
    )
    assert loaded == [True, False]


def test_a_saved_index_and_ivf_serve_without_scipy(tmp_path):
    dataset = generate(SyntheticConfig(
        n_users=40, n_items=90, n_categories=3, n_price_levels=4,
        interactions_per_user=6, seed=4,
    ))[0]
    index = export_index(pup_full(dataset, global_dim=8, category_dim=4), dataset)
    ann = build_ivf(index, n_lists=6, nprobe=3)
    index_path, ann_path = str(tmp_path / "index"), str(tmp_path / "ann")
    index.save(index_path)
    ann.save(ann_path)
    users = [0, 5, 17, 39]
    expected = [
        rec.items.tolist() for rec in RecommenderService(index, ann=ann).recommend_many(users)
    ]

    served = run_python(f"""
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises
from repro.serving import EmbeddingIndex, RecommenderService
from repro.serving.ann import load_ann
index = EmbeddingIndex.load({index_path!r})
service = RecommenderService(index, ann=load_ann({ann_path!r}, index))
print(json.dumps([rec.items.tolist() for rec in service.recommend_many({users!r})]))
""")
    assert served == expected
    assert all(len(items) for items in served)
