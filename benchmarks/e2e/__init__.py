"""The repo benchmark: cost per decided value, end to end and by layer.

See README.md in this directory; run with ``python3 -m benchmarks.e2e``.
"""
