"""End-to-end benchmark: four guarded-slice workloads and a per-layer ledger.

See README.md in this directory; the entry point is ``run.py``.
"""
