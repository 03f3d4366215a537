"""Test oracles: slow, direct implementations the fast runtime is pinned to.

Each module keeps the straightforward version of one vectorized or
frequency-domain stage of the modem pipeline, exactly as it ran before
the stage was optimized.  The golden tests compare the runtime against
these on randomized inputs, and ``tests/test_ab_oracles.py`` patches the
channel and equalizer oracles into whole-figure reruns.  Nothing under
``src/`` imports this package.
"""
