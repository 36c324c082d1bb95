"""Make the in-tree package importable by subprocesses that tests start.

pytest's `pythonpath` setting reaches only this process; tests that run
`python -m sgraph` in a child inherit the environment instead.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
