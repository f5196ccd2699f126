"""Disk cache of parameter reports, keyed by family, params, and parameter.

A hit returns the original serialized record byte for byte; records written
by a different tool version are ignored.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from . import __version__

DEFAULT_CACHE_DIR = ".cube-symmetry-cache"


def cache_dir(override: str | None = None) -> Path:
    if override:
        return Path(override)
    env = os.environ.get("CUBE_SYM_CACHE")
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


class ResultCache:
    def __init__(self, directory: str | Path | None = None, enabled: bool = True):
        self.directory = cache_dir(str(directory) if directory else None)
        self.enabled = enabled

    def _path(self, family: str, params: dict, parameter: str) -> Path:
        bits = [family] + [f"{k}{params[k]}" for k in sorted(params)] + [parameter]
        name = "-".join(str(b).replace("/", "_") for b in bits) + ".json"
        return self.directory / name

    def get(self, family: str, params: dict, parameter: str) -> str | None:
        """The stored serialized record, or None on a miss, a version
        mismatch or a file that holds no JSON object in UTF-8."""
        if not self.enabled:
            return None
        path = self._path(family, params, parameter)
        if not path.exists():
            return None
        try:
            text = path.read_text(encoding="utf-8")
            record = json.loads(text)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(record, dict) or record.get("tool_version") != __version__:
            return None
        return text

    def put(self, family: str, params: dict, parameter: str, record: dict) -> str:
        record = dict(record)
        record["tool_version"] = __version__
        text = json.dumps(record, sort_keys=True, indent=2)
        if self.enabled:
            self._write(self._path(family, params, parameter), text)
        return text

    def _write(self, path: Path, text: str):
        """Write through a temporary file in the same directory and rename
        it over `path`, so that a reader sees the old record or the new one,
        never a partial one."""
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
