"""The one interpretation of a ``progress`` argument.

Long-running entry points (sweeps, network runs, PHY calibration) accept
``progress: bool | Callable[[str], None] | None`` and report through the
line sink :func:`progress_emitter` returns.
"""

from __future__ import annotations

import sys
from typing import Callable


def _print_to_stderr(line: str) -> None:
    print(line, file=sys.stderr)


def progress_emitter(
    progress: bool | Callable[[str], None] | None,
) -> Callable[[str], None] | None:
    """Line sink for ``progress``, or ``None`` when reporting is off.

    ``True`` prints each line to stderr, a callable receives each line,
    and anything else (``False``, ``None``) is silent.
    """
    if progress is True:
        return _print_to_stderr
    if callable(progress):
        return progress
    return None
