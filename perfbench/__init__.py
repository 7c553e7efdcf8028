"""The repository benchmark: simulator throughput, layer by layer (see run.py)."""
