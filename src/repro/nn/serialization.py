"""Crash-safe checkpoint IO: atomic writes, per-array CRC32 checksums.

Every checkpoint in the repository funnels through two helpers:

- :func:`save_arrays` — serialize named arrays plus a JSON metadata
  envelope into an ``.npz`` payload and hand it to
  :func:`atomic_write_bytes` (tmp file + flush + fsync + ``os.replace``
  + best-effort directory fsync).  A crash at any point leaves either
  the previous file or the new one, never a torn hybrid.
- :func:`load_arrays` — read the archive back, verifying each array
  against the CRC32 recorded at save time.  Corruption (truncated
  file, flipped bits, unparseable metadata) raises
  :class:`CheckpointCorruptionError`; structural drift (missing or
  unexpected arrays) raises :class:`CheckpointError`.  Nothing corrupt
  is ever silently loaded.

Legacy (format-version-1) checkpoints written by older revisions carry
no checksums; they still load, just without integrity verification.

The ``REPRO-ATOMICIO`` lint rule forbids bare ``open(..., "w")`` /
``np.savez`` on checkpoint paths anywhere else in ``core/`` and
``nn/`` — this module's helpers are the one sanctioned write path.

Fault injection (:mod:`repro.faults`) hooks this seam via
:func:`set_io_fault_hook` to simulate torn writes (partial tmp file,
then a crash before the rename) and post-write bit flips.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .module import Module

_META_KEY = "__repro_meta__"

#: Version of the on-disk envelope; v2 added per-array checksums.
FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    """A checkpoint exists but its structure does not match expectations."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint's bytes are damaged (torn write, bit rot, truncation)."""


#: IO fault hook (installed by ``repro.faults.fault_injection``): an
#: object with ``on_checkpoint_write(path, payload) -> (payload, complete)``,
#: ``on_torn_write(tmp_path)`` and ``on_checkpoint_written(path)``.
_io_fault_hook = None


def set_io_fault_hook(hook):
    """Install (or clear, with None) the checkpoint-IO fault injector.

    Returns the previously installed hook so callers can restore it —
    ``repro.faults.state.fault_injection`` is the only intended caller.
    """
    global _io_fault_hook  # repro-lint: disable=REPRO-STATE -- scrubbed after fork by repro.parallel.state.reset_inherited_state
    previous = _io_fault_hook
    _io_fault_hook = hook
    return previous


def _resolve_npz_path(path: Path) -> Path:
    """Mirror ``np.savez``'s historical behaviour of appending ``.npz``."""
    if path.suffix != ".npz":
        return path.with_suffix(path.suffix + ".npz")
    return path


def array_crc32(array: np.ndarray) -> int:
    """CRC32 of an array's raw bytes (contiguous, native layout)."""
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` crash-safely.

    The bytes land in a sibling temporary file first (flushed and
    fsynced), then replace ``path`` in one ``os.replace``.  A crash
    mid-write leaves a stray ``*.tmp`` file and the previous ``path``
    contents intact; a crash after the replace leaves the new file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    hook = _io_fault_hook
    complete = True
    if hook is not None:
        payload, complete = hook.on_checkpoint_write(path, payload)
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    if not complete:
        hook.on_torn_write(tmp)  # raises SimulatedCrash; dest untouched
    os.replace(tmp, path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass  # directory fsync is best-effort (not supported everywhere)
    if hook is not None:
        hook.on_checkpoint_written(path)


def save_arrays(
    path: str | Path,
    arrays: Dict[str, np.ndarray],
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Atomically write named arrays (+ JSON metadata) as a checksummed
    ``.npz`` checkpoint.  Returns the resolved path actually written."""
    path = _resolve_npz_path(Path(path))
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    envelope = {
        "format_version": FORMAT_VERSION,
        "meta": meta or {},
        "checksums": {name: array_crc32(value) for name, value in arrays.items()},
    }
    meta_blob = np.frombuffer(json.dumps(envelope).encode("utf-8"), dtype=np.uint8).copy()
    buffer = io.BytesIO()
    np.savez(buffer, **arrays, **{_META_KEY: meta_blob})
    atomic_write_bytes(path, buffer.getvalue())
    return path


def load_arrays(
    path: str | Path, verify: bool = True
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Read a checkpoint written by :func:`save_arrays`.

    Returns ``(arrays, meta)``.  With ``verify`` (the default) every
    array's CRC32 is checked against the save-time record; any mismatch
    raises :class:`CheckpointCorruptionError` before a single byte is
    handed to the caller.
    """
    path = Path(path)
    if not path.exists() and _resolve_npz_path(path).exists():
        path = _resolve_npz_path(path)
    try:
        with np.load(path) as archive:
            raw = {name: archive[name] for name in archive.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, EOFError, KeyError) as exc:
        raise CheckpointCorruptionError(
            f"checkpoint {path} is unreadable ({exc.__class__.__name__}: {exc}); "
            "the file is truncated or not a repro checkpoint — delete it, or "
            "resume from an older checkpoint in the same directory"
        ) from exc

    meta_blob = raw.pop(_META_KEY, None)
    if meta_blob is None:
        envelope: Dict[str, Any] = {"format_version": 1, "meta": {}, "checksums": None}
    else:
        try:
            parsed = json.loads(meta_blob.tobytes().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointCorruptionError(
                f"checkpoint {path} has a corrupt metadata block "
                f"({exc.__class__.__name__}); the file was damaged after writing — "
                "restore from an older checkpoint"
            ) from exc
        if isinstance(parsed, dict) and "format_version" in parsed:
            envelope = parsed
        else:
            # Format v1: the blob is the user metadata itself, no checksums.
            envelope = {"format_version": 1, "meta": parsed, "checksums": None}

    checksums = envelope.get("checksums")
    if verify and checksums is not None:
        missing = sorted(set(checksums) - set(raw))
        if missing:
            raise CheckpointError(
                f"checkpoint {path} is missing arrays {missing} that its manifest "
                "declares; the archive is incomplete — resume from an older checkpoint"
            )
        unexpected = sorted(set(raw) - set(checksums))
        if unexpected:
            raise CheckpointError(
                f"checkpoint {path} contains arrays {unexpected} absent from its "
                "manifest; the file mixes two writes — delete it and re-save"
            )
        for name, expected in checksums.items():
            actual = array_crc32(raw[name])
            if actual != expected:
                raise CheckpointCorruptionError(
                    f"array '{name}' in {path} failed its CRC32 integrity check "
                    f"(expected {expected:#010x}, got {actual:#010x}); the file is "
                    "corrupt (bit rot or a torn write) — restore from an older "
                    "checkpoint"
                )
    return raw, envelope.get("meta", {})


def save_checkpoint(module: Module, path: str | Path, meta: Optional[Dict[str, Any]] = None) -> None:
    """Write a module's parameters (and optional JSON metadata) to ``path``
    atomically, with per-array checksums."""
    save_arrays(path, module.state_dict(), meta=meta)


def load_checkpoint(module: Module, path: str | Path, strict: bool = True) -> Dict[str, Any]:
    """Load parameters into ``module`` and return the stored metadata.

    Integrity is always verified (corruption raises regardless of
    ``strict``); ``strict`` only governs whether missing/unexpected
    parameter names abort the load, as in ``Module.load_state_dict``.
    """
    arrays, meta = load_arrays(path)
    module.load_state_dict(arrays, strict=strict)
    return meta
