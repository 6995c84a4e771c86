"""Generator fingerprints: the invalidation half of every store key.

A persisted artifact is only reusable while the code that generated it
is byte-identical. Every store key therefore embeds a *fingerprint*:

* :func:`modules_fingerprint` - sha256 over the named modules' source
  files, for recordings and stream skeletons (narrow on purpose: a docs
  edit in an unrelated module must not cold-start the recording cache);
* :func:`package_fingerprint` - sha256 over every ``*.py`` in the
  ``repro`` package, for memoized results (any code change anywhere
  may change a simulation outcome, so results invalidate wholesale).

Fingerprints are computed once per process and cached; they hash file
*contents*, not mtimes, so editable installs and CI checkouts agree.
"""

from __future__ import annotations

import hashlib
import importlib
import os

_FP_CACHE: dict[tuple, str] = {}
_PKG_FP: list[str] = []


def modules_fingerprint(*module_names: str) -> str:
    """Joint content hash of the named modules' source files."""
    fp = _FP_CACHE.get(module_names)
    if fp is None:
        h = hashlib.sha256()
        for name in module_names:
            h.update(name.encode())
            try:
                mod = importlib.import_module(name)
                path = getattr(mod, "__file__", None)
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except Exception:
                h.update(b"?")  # sourceless module: stable, but opaque
        fp = _FP_CACHE[module_names] = h.hexdigest()[:16]
    return fp


def package_fingerprint() -> str:
    """Content hash of the whole ``repro`` package (for result memos)."""
    if not _PKG_FP:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        paths = []
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if name.endswith(".py"):
                    paths.append(os.path.join(dirpath, name))
        for path in sorted(paths):
            h.update(os.path.relpath(path, root).encode())
            try:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except OSError:
                h.update(b"?")
        _PKG_FP.append(h.hexdigest()[:16])
    return _PKG_FP[0]
