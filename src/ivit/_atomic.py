"""All-or-nothing file writes for the artifacts ivit produces."""

from __future__ import annotations

import contextlib
import os
import uuid


def write_atomic(path, data) -> None:
    """Replace ``path`` with ``data``; a reader sees the old file or the new one, never a part.

    ``data`` is any bytes-like object: bytes, a bytearray or a C-contiguous
    numpy array, whose raw bytes are written as they lie in memory.

    The bytes go to a temporary file in the target's directory, which is
    fsynced and then renamed over the target with ``os.replace``. On any
    error the temporary file is removed and the target is left as it was.
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
