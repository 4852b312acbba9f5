"""Unpaced end-to-end benchmark with a per-layer time budget (README.md)."""
