"""Shared test settings.

Property tests run derandomized and without an example database, so every
run draws the same examples. Each test keeps its own ``max_examples`` and
``deadline``.
"""
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    # Hypothesis also caches the constants it reads from local source files.
    # Keep that cache in pytest's cache directory, not in a new .hypothesis/.
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))
