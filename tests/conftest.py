import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

SEED = 0xE15731


class NoNumpy:
    """Stands in for a module's numpy: any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the size check")
