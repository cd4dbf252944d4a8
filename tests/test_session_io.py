import hashlib
import json

import numpy as np
import pytest

from p300speller.cli import main
from p300speller.dsp import Recording
from p300speller.errors import BundleError
from p300speller.patterns import make_constrained_pattern
from p300speller.scheduler import make_xp300_schedule
from p300speller.session_io import read_manifest, read_session, write_session
from p300speller.synth import synthesize_session


@pytest.fixture()
def recording():
    pat = make_constrained_pattern(6)
    sched = make_xp300_schedule(pat, reps=2, isi_s=0.133, targets=[(1, 1), (3, 4)], seed=7)
    return synthesize_session(sched, seed=42)


class TestWrite:
    def test_signal_file_size(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        size = (tmp_path / "s" / "signal.f32").stat().st_size
        assert size == recording.n_samples * recording.n_channels * 4
        assert read_manifest(tmp_path / "s")["n_samples"] == recording.n_samples

    def test_small_recording_exact_size(self, tmp_path):
        rec = Recording(fs_hz=25.0, samples=np.zeros((100, 8), dtype=np.float32))
        write_session(rec, tmp_path / "s")
        assert (tmp_path / "s" / "signal.f32").stat().st_size == 3200

    def test_byte_determinism(self, tmp_path, recording):
        write_session(recording, tmp_path / "a", meta={"seed": 1})
        write_session(recording, tmp_path / "b", meta={"seed": 1})
        for name in ("manifest.json", "signal.f32", "events.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_meta_echo(self, tmp_path, recording):
        meta = {"paradigm": "xp300", "seed": 3}
        write_session(recording, tmp_path / "s", meta=meta)
        manifest = read_manifest(tmp_path / "s")
        pattern = recording.events.pattern.to_json()
        assert manifest["meta"] == {"paradigm": "xp300", "seed": 3, "pattern": pattern}
        assert meta == {"paradigm": "xp300", "seed": 3}  # the caller's dict is not changed


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        again = read_session(tmp_path / "s")
        assert again.fs_hz == recording.fs_hz
        assert again.channel_names == recording.channel_names
        assert again.samples.dtype == np.float32
        assert np.array_equal(again.samples, recording.samples)
        assert again.events == recording.events

    def test_empty_events(self, tmp_path, recording):
        no_events = recording.events[:0]
        rec = Recording(fs_hz=25.0, samples=np.ones((10, 8), dtype=np.float32), events=no_events)
        write_session(rec, tmp_path / "s")
        again = read_session(tmp_path / "s")
        assert len(again.events) == 0 and again.events == no_events


class TestReadErrors:
    def test_version_mismatch(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        manifest_path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="version"):
            read_session(tmp_path / "s")

    def test_truncated_signal(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        signal_path = tmp_path / "s" / "signal.f32"
        signal_path.write_bytes(signal_path.read_bytes()[:-8])
        with pytest.raises(BundleError, match="bytes"):
            read_session(tmp_path / "s")

    def test_malformed_event_line_number(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        events_path = tmp_path / "s" / "events.jsonl"
        lines = events_path.read_text().splitlines()
        lines[2] = "{not json"
        events_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleError, match="line 3"):
            read_session(tmp_path / "s")

    @pytest.mark.parametrize("field, value, kind", [
        ("slot", "2", "integer"), ("repetition", 0.0, "integer"), ("onset_s", True, "number"),
    ])
    def test_mistyped_number_names_line_and_field(self, tmp_path, recording, field, value, kind):
        write_session(recording, tmp_path / "s")
        events_path = tmp_path / "s" / "events.jsonl"
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        events[2][field] = value
        events_path.write_text("\n" + "".join(json.dumps(e) + "\n" for e in events))
        with pytest.raises(BundleError, match=f"line 4: {field} must be a JSON {kind}, got"):
            read_session(tmp_path / "s")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(BundleError, match="manifest"):
            read_session(tmp_path / "empty")


class TestFormatPinned:
    """The bundles of criterion 10's two ``simulate`` commands, byte for byte
    as the format was written when each event still carried its cells."""

    @pytest.mark.parametrize(
        "argv, events_sha, manifest_sha",
        [
            (["--seed", "5"],
             "1dfaae564c5ff8e2e6a7e7b6e3e2b89c698aff8f8443c258ea773cf0530d5851",
             "e86dc9b2fc1830a7951327a4a74d77a6170c9bacd501aa13ae33db065662e47c"),
            (["--paradigm", "cp300", "--seed", "6"],
             "5c3d96f27641a657ed67e3307f0e58a0c7489032e23508fb3d1b118ce43ef2ca",
             "9ff3dffe5e50da1e9bff88a11f1aa42bf6e7425d67522b02f9f3c86254ed3198"),
        ],
        ids=["xp300", "cp300"],
    )
    def test_sha256(self, tmp_path, argv, events_sha, manifest_sha):
        out = tmp_path / "b"
        assert main(["simulate", "--out", str(out)] + argv + ["--reps", "3", "--targets", "ABCDEF"]) == 0
        for name, sha in (("events.jsonl", events_sha), ("manifest.json", manifest_sha)):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha, name
