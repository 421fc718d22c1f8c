"""Shared test configuration.

One hypothesis profile for every property test: derandomized, so a run is
reproducible, and without a per-example deadline, because wall time on a
shared machine varies too much for one to mean anything.
"""

from hypothesis import settings

settings.register_profile("stcca", derandomize=True, deadline=None)
settings.load_profile("stcca")
