"""Atomic file replacement: the one writer for persisted artifacts.

A reader of a file written through :func:`atomic_write` sees either the
previous contents or the new ones, never a half-written file: the bytes
go to a temp file in the same directory (so the final rename stays on
one filesystem), which then replaces the target with :func:`os.replace`.
The temp file name carries the process id, so concurrent writers from
several processes never share one, and it is removed when the write
fails.
"""

from __future__ import annotations

import os
import pathlib


def atomic_write(path: str | pathlib.Path, data: bytes | str) -> pathlib.Path:
    """Atomically replace ``path`` with ``data`` (``str`` is UTF-8 encoded).

    Creates missing parent directories and returns the path written.
    """
    path = pathlib.Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
