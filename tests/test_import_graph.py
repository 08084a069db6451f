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


def test_every_export_and_the_cli_load_no_scipy():
    """No module imports scipy: a graph's first build loads only its
    compiled kernels (see below), so a process that only serves, refreshes
    or runs the CLI's lifecycle commands loads no part of it."""
    loaded = run_python(
        "import json, sys, repro; [getattr(repro, name) for name in repro.__all__]; "
        "import repro.cli; print(json.dumps('scipy' in sys.modules))"
    )
    assert loaded is False


def test_graphs_load_scipys_kernels_and_no_scipy_package():
    """Building ``Â``, fitting PUP for an epoch and a LightGCN forward load
    scipy's compiled ``_sparsetools`` by path and nothing else of scipy:
    ``scipy.sparse`` would pull in ``scipy._lib``, whose array-API layer
    resolves ``numpy.f2py`` and ``numpy.testing`` (~12 MB resident)."""
    loaded = run_python(
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.baselines import LightGCN\n"
        "from repro.core import pup_full\n"
        "from repro.data import SyntheticConfig, generate\n"
        "from repro.graph import HeteroGraph\n"
        "from repro.train import TrainConfig, Trainer\n"
        "dataset = generate(SyntheticConfig(n_users=20, n_items=30, seed=1))[0]\n"
        "before = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "adjacency = HeteroGraph(dataset).normalized_adjacency()\n"
        "model = pup_full(dataset, rng=np.random.default_rng(0), global_dim=8, category_dim=4)\n"
        "Trainer(model, dataset, TrainConfig(epochs=1, batch_size=64)).fit()\n"
        "LightGCN(dataset, dim=8, rng=np.random.default_rng(0))._propagate()\n"
        "print(json.dumps([before, type(adjacency).__module__, sorted(sys.modules)]))"
    )
    before, adjacency_module, after = loaded
    assert before == []
    assert adjacency_module == "repro.graph.csr"
    assert "scipy.sparse._sparsetools" in after
    assert [name for name in after if name.startswith("scipy")] == ["scipy.sparse._sparsetools"]
    assert [
        name for name in ("scipy", "scipy.sparse", "scipy.sparse._base", "scipy._lib",
                          "numpy.f2py", "numpy.testing")
        if name in after
    ] == []


def test_loading_training_and_evaluating_load_no_numpy_ma():
    """NumPy 2.4's ``np.unique`` imports ``numpy.ma`` on its first call
    (~1.6 MB resident); the data path uses ``sorted_unique`` instead."""
    loaded = run_python(
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.core import pup_full\n"
        "from repro.data import load_dataset\n"
        "from repro.eval import evaluate\n"
        "from repro.train import TrainConfig, Trainer\n"
        "dataset = load_dataset('yelp', scale=0.25)[0]\n"
        "model = pup_full(dataset, rng=np.random.default_rng(0), global_dim=8, category_dim=4)\n"
        "Trainer(model, dataset, TrainConfig(epochs=1, batch_size=256)).fit()\n"
        "model.eval()\n"
        "metrics = evaluate(model, dataset, split='validation', ks=(10,))\n"
        "print(json.dumps([sorted(metrics), 'numpy.ma' in sys.modules]))"
    )
    assert loaded == [["NDCG@10", "Recall@10"], False]


def test_a_pq_flush_loads_no_numpy_ma(tmp_path):
    """A flush over an IVF index whose default scorer is ``pq`` groups its
    rows by ``k`` with ``sorted_unique``, not ``np.unique``."""
    dataset = generate(SyntheticConfig(n_users=30, n_items=300, seed=2))[0]
    index_path = str(tmp_path / "index")
    export_index(pup_full(dataset, global_dim=8, category_dim=4), dataset).save(index_path)
    loaded = run_python(f"""
import json, sys
from repro.serving import EmbeddingIndex, RecommenderService, build_ivf
index = EmbeddingIndex.load({index_path!r})
ann = build_ivf(index, n_lists=6, nprobe=3, pq=True, pq_centroids=16)
answers = RecommenderService(index, ann=ann).recommend_many([1, 2, 3], k=5)
print(json.dumps([ann.default_scorer, [len(a.items) for a in answers], 'numpy.ma' in sys.modules]))
""")
    assert loaded == ["pq", [5, 5, 5], False]


def test_a_scipy_without_the_kernel_file_fails_at_the_first_graph_build(tmp_path):
    """A ``scipy`` package with no ``sparse/_sparsetools`` extension: the
    imports succeed, and the first graph build raises an ``ImportError``
    naming the missing file."""
    (tmp_path / "scipy" / "sparse").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    result = subprocess.run(
        [sys.executable, "-c",
         "from repro.data import SyntheticConfig, generate\n"
         "from repro.graph import HeteroGraph\n"
         "graph = HeteroGraph(generate(SyntheticConfig(n_users=20, n_items=30, seed=1))[0])\n"
         "try:\n"
         "    graph.normalized_adjacency()\n"
         "except ImportError as error:\n"
         "    print(error)\n"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), SRC])},
    )
    expected = os.path.join(str(tmp_path), "scipy", "sparse", "_sparsetools")
    assert expected in result.stdout


def test_every_export_resolves_without_networkx():
    """Touching every top-level name loads the whole stack, graph included,
    and still no networkx (~11 MB resident): the graph is CSR over
    scipy's kernels."""
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


#: Builds an IVF and an IVF-PQ over a saved index, then runs one lifecycle
#: round whose build re-clusters (staleness threshold 0), and prints the
#: sha256 of every array they produce.  Formatted with the index path, the
#: store root and the line that blocks scipy (or not).
BUILD_AND_ROUND = """
import hashlib, json, sys
{block}
import numpy as np
from repro.lifecycle import GateConfig, LifecycleConfig, LifecycleController, journal_digest, simulate_events
from repro.serving import EmbeddingIndex, build_ivf

def digest(arrays):
    sha = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        sha.update(f"{{array.dtype}}{{array.shape}}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()

def ann_arrays(ann):
    arrays = [ann.centroids, ann.list_indptr, ann.list_items]
    for branch in ann.pq or ():
        arrays += [*branch.codebooks, branch.codes]
    return arrays

index = EmbeddingIndex.load({index_path!r})
out = {{
    "ivf": digest(ann_arrays(build_ivf(index, n_lists=6, nprobe=3))),
    "ivf-pq": digest(ann_arrays(build_ivf(index, n_lists=6, nprobe=3, pq=True, pq_centroids=16))),
}}
controller = LifecycleController({store!r}, config=LifecycleConfig(
    gates=GateConfig(recall_floor=0.5, recall_users=16, parity_users=8),
    staleness_threshold=0.0,
))
controller.bootstrap(index, build_ivf(index, n_lists=6, nprobe=5))
controller.ingest(simulate_events(index.n_users, index.n_items, 120, seed=8,
                                  n_categories=index.n_categories))
candidate = controller.build()
promoted, _ = controller.promote()
live_index, live_ann = controller.store.load_version(controller.store.current())
out["round"] = [
    candidate, promoted, controller.store.read_manifest(candidate)["reclustered"],
    digest([a for b in live_index.branches for a in (b.user, b.item)] + ann_arrays(live_ann)),
    journal_digest(controller.store.journal_dir),
]
out["scipy"] = "scipy" in sys.modules and sys.modules["scipy"] is not None
print(json.dumps(out))
"""


def test_builds_and_a_lifecycle_round_need_no_scipy(tmp_path):
    """``build_ivf`` (plain and PQ) and an ingest -> re-cluster build ->
    promote round give the same bits with every scipy import failing."""
    dataset = generate(SyntheticConfig(
        n_users=40, n_items=90, n_categories=3, n_price_levels=4,
        interactions_per_user=6, seed=4,
    ))[0]
    index_path = str(tmp_path / "index")
    export_index(pup_full(dataset, global_dim=8, category_dim=4), dataset).save(index_path)
    runs = {
        name: run_python(BUILD_AND_ROUND.format(
            block=block, index_path=index_path, store=str(tmp_path / name),
        ))
        for name, block in [
            ("blocked", 'sys.modules["scipy"] = None  # any scipy import now raises'),
            ("free", ""),
        ]
    }
    blocked, free = runs["blocked"], runs["free"]
    assert blocked["round"][1] == blocked["round"][0]  # the candidate was promoted
    assert blocked["round"][2] is True  # ... and its build re-clustered
    assert blocked["scipy"] is False and free["scipy"] is False
    assert blocked == free
