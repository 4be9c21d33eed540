"""The repository benchmark: see ``perfbench/run.py`` and ``perfbench/spec.json``."""
