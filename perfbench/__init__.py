"""End-to-end benchmark of the Bit Fusion reproduction; ``python3 perfbench/run.py --help``."""
