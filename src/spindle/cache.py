"""JSON result cache, one file per entry, that knows no value.

An entry's key is the canonical JSON of what it holds (schema version,
operation, root system, weight, extra).  Its file is named by the zlib
crc32 of the key, and its text is ``_chunks``: json.dumps({"key": key,
"value": value.to_json()}, sort_keys=True).  A value is returned only when
the recorded key is the one asked for, so a digest collision or a copied
entry is a miss, which the next store overwrites; and only when the file
is, character for character, the text ``_chunks`` writes for the value its
class's ``from_json`` reads from it.  Writes are atomic (tmp file +
os.replace).  A corrupt entry, one that fails that check and a directory
that cannot be written draw a warning and a fresh computation.  The
directory is the ``directory`` argument of ``cached``, else
SPINDLE_CACHE_DIR; with neither, caching is off and no key is built.
"""

from __future__ import annotations

import os
import sys
import tempfile

SCHEMA_VERSION = 2


def cache_key(operation, type_letter, rank, weight, extra=None):
    """The canonical JSON description of one cached result."""
    import json

    payload = {
        "schema": SCHEMA_VERSION,
        "operation": operation,
        "type": type_letter,
        "rank": rank,
        "weight": list(weight) if weight is not None else None,
        "extra": extra,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(key):
    """The file stem of key.  It names the entry only; the key the entry
    records decides a hit."""
    import zlib

    return f"{zlib.crc32(key.encode('utf-8')):08x}"


def _path(directory, key):
    return os.path.join(directory, _digest(key) + ".json")


def _chunks(key, value):
    """The text of the entry of the JSON value under key, in pieces that
    join to json.dumps({"key": key, "value": value}, sort_keys=True)."""
    import json

    yield '{"key": ' + json.dumps(key) + ', "value": '
    # json.dump would run the pure-Python encoder; dumps runs the C one,
    # which holds every token of its output until the final join, so a
    # long list is encoded a slice at a time
    if isinstance(value, list):
        yield "["
        for i in range(0, len(value), 256):
            yield ((", " if i else "")
                   + json.dumps(value[i:i + 256], sort_keys=True)[1:-1])
        yield "]"
    else:
        yield json.dumps(value, sort_keys=True)
    yield "}"


def _drop(path, why):
    print(f"warning: dropping corrupt cache entry {path}: {why}",
          file=sys.stderr)
    try:
        os.remove(path)
    except OSError:
        pass


def load(cls, key, directory):
    """The value of cls stored under key in directory, or None on a miss,
    an entry that records another key, or a dropped entry."""
    import json

    path = _path(directory, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        entry = json.loads(text)
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
        # no entry, or a path that cannot hold one: store reports it
        return None
    except (ValueError, OSError) as exc:
        _drop(path, exc)
        return None
    try:
        if entry["key"] != key:
            return None  # another key under the same name: store replaces it
        # popped, so the parsed value is freed before to_json builds its own
        value = cls.from_json(entry.pop("value"))
        if "".join(_chunks(key, value.to_json())) == text:
            return value
    except (ArithmeticError, LookupError, TypeError, ValueError):
        pass  # not an entry, or from_json found no value of cls
    _drop(path, f"wrong shape for {cls.__name__}")
    return None


def store(key, value, directory):
    """Atomically write the entry of the JSON value under key.  A
    directory that cannot be created or written draws a warning."""
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(_chunks(key, value))
        os.replace(tmp, _path(directory, key))
        tmp = None
    except OSError as exc:
        print(f"warning: unusable cache directory {directory}: {exc}",
              file=sys.stderr)
    finally:
        if tmp is not None:
            try:
                os.remove(tmp)
            except OSError:
                pass


def cached(cls, operation, type_letter, rank, weight, compute, extra=None,
           directory=None):
    """compute(), a value of cls, through the cache in directory, else
    SPINDLE_CACHE_DIR: a stored value is used when its entry checks, and a
    fresh value is stored as value.to_json()."""
    directory = directory or os.environ.get("SPINDLE_CACHE_DIR")
    if not directory:  # json and zlib stay unimported, no codec runs
        return compute()
    key = cache_key(operation, type_letter, rank, weight, extra)
    value = load(cls, key, directory)
    if value is None:
        value = compute()
        store(key, value.to_json(), directory)
    return value
