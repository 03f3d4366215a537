"""Test oracles: slow, direct implementations the fast runtime is pinned to.

Each module keeps the straightforward version of one vectorized,
frequency-domain or columnar part of the runtime, exactly as it ran
before that part was optimized: the modem pipeline's stages, greedy
routing, the topology's mobility draws and the per-record result
container.  The golden tests compare the runtime against these on
randomized inputs, and ``tests/test_ab_oracles.py`` patches the channel
and equalizer oracles into whole-figure reruns.  Nothing under ``src/``
imports this package.
"""
