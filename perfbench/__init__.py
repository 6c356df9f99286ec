"""Seeded benchmark of the index build, search serving and the
exchange-based dedup pipeline; see ``run.py``."""
