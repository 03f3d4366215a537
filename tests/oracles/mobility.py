"""Scalar per-node draw order of the topology's mobility step.

:meth:`AcousticNetTopology.step_mobility` draws every node's site-current
jitter in one ``(N, 2)`` normal call.  This oracle is the original loop:
two scalar normals per node, in insertion order.  numpy fills arrays
element by element, so both consume the generator identically and move
every node bit for bit alike (``tests/test_net_vectorized.py``).
"""

from __future__ import annotations

import numpy as np

from repro.net.topology import AcousticNetTopology
from repro.utils.rng import ensure_rng
from repro.utils.validation import require_positive


def step_mobility_reference(
    topology: AcousticNetTopology,
    dt_s: float,
    rng: int | np.random.Generator | None = None,
) -> None:
    """Mobility step with two scalar jitter draws per node.

    Same signature as ``AcousticNetTopology.step_mobility`` with the
    topology in place of ``self``, so it can be patched in as that method.
    """
    require_positive(dt_s, "dt_s")
    rng = ensure_rng(rng)
    jitter = topology.site.current_speed_m_s
    count = topology._count
    draws = np.empty((count, 2))
    for index in range(count):
        draws[index, 0] = rng.normal(0.0, 0.3)
        draws[index, 1] = rng.normal(0.0, 0.3)
    xyz = topology._xyz[:count]
    vel = topology._vel[:count]
    xyz[:, 0] += (vel[:, 0] + jitter * draws[:, 0]) * dt_s
    xyz[:, 1] += (vel[:, 1] + jitter * draws[:, 1]) * dt_s
    xyz[:, 2] = np.clip(
        xyz[:, 2] + vel[:, 2] * dt_s, 0.2, topology.site.water_depth_m - 0.2
    )
    topology._version += 1
    topology._refresh_grid()
