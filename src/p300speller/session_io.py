"""On-disk session bundles.

A bundle is a directory of three files:

* ``manifest.json`` -- format version, rate, geometry, channel names, and
  a ``meta`` block (``pipeline.schedule_meta`` plus free-form provenance).
* ``signal.f32`` -- little-endian IEEE-754 float32, sample-major: all
  channels of sample 0, then sample 1, and so on.
* ``events.jsonl`` -- one stimulus-event object per line, streamable.

Writes are atomic (temp file + rename) and byte-deterministic for
identical inputs; reads verify the version and that the signal size
matches the manifest.
"""

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import Recording
from .errors import BundleError
from .scheduler import StimulusEvent

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
SIGNAL_NAME = "signal.f32"
EVENTS_NAME = "events.jsonl"


@dataclass
class SessionBundle:
    path: Path
    manifest: dict


def write_session(rec: Recording, path, meta: dict | None = None) -> SessionBundle:
    """Write a recording as a bundle directory; returns the bundle handle."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "fs_hz": rec.fs_hz,
        "n_samples": rec.n_samples,
        "n_channels": rec.n_channels,
        "channel_names": list(rec.channel_names),
        "meta": meta or {},
    }
    signal = np.ascontiguousarray(rec.samples, dtype="<f4")
    atomic_write(path / SIGNAL_NAME, signal.tobytes())
    atomic_write(path / EVENTS_NAME, events_jsonl(rec.events).encode())
    atomic_write(
        path / MANIFEST_NAME,
        (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode(),
    )
    return SessionBundle(path=path, manifest=manifest)


def events_jsonl(events: list[StimulusEvent]) -> str:
    """One compact, key-sorted JSON object per event and line."""
    return "".join(
        json.dumps(e.to_json(), sort_keys=True, separators=(",", ":")) + "\n" for e in events
    )


def read_manifest(path) -> dict:
    path = Path(path)
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_text())
    except FileNotFoundError:
        raise BundleError(f"no {MANIFEST_NAME} in {path}") from None
    except json.JSONDecodeError as exc:
        raise BundleError(f"{path / MANIFEST_NAME}: invalid JSON at line {exc.lineno}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise BundleError(
            f"{path}: unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    return manifest


def read_session(path) -> Recording:
    """Inverse of write_session."""
    path = Path(path)
    manifest = read_manifest(path)
    try:
        n_samples = int(manifest["n_samples"])
        n_channels = int(manifest["n_channels"])
        fs_hz = float(manifest["fs_hz"])
        channel_names = tuple(manifest["channel_names"])
        if not (n_samples > 0 and n_channels == len(channel_names) > 0 and 0 < fs_hz < np.inf):
            raise ValueError("needs samples, one name per channel and a finite rate > 0")
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"{path / MANIFEST_NAME}: missing or unusable field ({exc})") from exc

    raw = (path / SIGNAL_NAME).read_bytes()
    expected = n_samples * n_channels * 4
    if len(raw) != expected:
        raise BundleError(
            f"{path / SIGNAL_NAME}: {len(raw)} bytes, but the manifest implies {expected} "
            f"({n_samples} samples x {n_channels} channels x 4)"
        )
    samples = np.frombuffer(raw, dtype="<f4").reshape(n_samples, n_channels)

    events = []
    with open(path / EVENTS_NAME) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                events.append(StimulusEvent.from_json(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise BundleError(f"{path / EVENTS_NAME} line {lineno}: {exc}") from exc

    return Recording(fs_hz=fs_hz, samples=samples, channel_names=channel_names, events=events)


def atomic_write(target: Path, data: bytes) -> None:
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, target)
