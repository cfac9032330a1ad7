"""Smoke check of the benchmark itself: `python3 -m pytest bench`.

Runs every workload at a tiny size (see run.smoke) and fails on a schema
problem, an unexpected op failure or counters that differ between two
traced runs of the same seed.  It does not look at timings.
"""

from bench.run import smoke


def test_smoke():
    assert smoke() == []
