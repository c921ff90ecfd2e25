"""Whole-file rewrites that neither a reader nor a crash can tear.

Every whole-file rewrite in the package goes through
:func:`atomic_write`.  The module imports nothing from ``repro``, so any
layer can use it without an import cycle.
"""

from __future__ import annotations

import os
import tempfile
from typing import Union

# The umask can only be read by setting it: read it once, at import,
# meanwhile setting a value that can only narrow another thread's files.
_UMASK = os.umask(0o077)
os.umask(_UMASK)


def atomic_write(path: Union[str, os.PathLike],
                 data: Union[str, bytes]) -> None:
    """Replace the file at ``path`` with ``data`` (a ``str`` as UTF-8):
    a reader, or a crash, sees the old contents or the new, never a mix.

    Writes a temporary file in ``path``'s directory (made if missing),
    gives it the permission bits ``open()`` would give a new file and
    ``os.replace``\\ s it over ``path``.  On failure the temporary file
    is removed, ``path`` is left as it was and the error propagates;
    callers that must never fail catch ``OSError`` themselves.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
