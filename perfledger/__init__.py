"""Perf ledger: the repo's benchmark (see README.md in this directory)."""
