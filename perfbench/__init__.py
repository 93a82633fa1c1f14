"""End-to-end and per-layer benchmark for semchan (entry point: run.py)."""
