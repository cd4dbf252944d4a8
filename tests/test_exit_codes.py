"""Property test of the CLI exit-code contract.

Whatever the config file or the bundle holds, every command exits 0, 2, 3
or 4, no exception escapes ``main``, and the same input run twice gives the
same code and the same message.  Drawn numbers stay in small ranges, so no
example allocates more than a few MB.
"""

import contextlib
import copy
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from p300speller.cli import main

# Hypothesis caches constants from the package's source while pytest collects
# tests; keep that cache out of the working directory
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "p300speller-hypothesis")

CONTRACT = {0, 2, 3, 4}
SMALL = {"reps": 1, "target_text": "AB", "synth": {"fs_hz": 250}}

# JSON values of every type, none of them large
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 20),
    st.floats(-3.0, 20.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text("AZ9x_ ", max_size=3),
    st.lists(st.integers(-2, 7), max_size=2),
    st.dictionaries(st.text("ab", max_size=2), st.integers(-2, 2), max_size=1),
)


def numbers(low, high, *usable):
    """Floats in [low, high], plus the given values that let a run succeed."""
    floats = st.floats(low, high)
    return st.one_of(floats, st.sampled_from(usable)) if usable else floats


# (section, key) -> strategy of in-range and out-of-range values
CONFIG_VALUES = {
    (None, "paradigm"): st.sampled_from(["xp300", "cp300", "qp300", ""]),
    (None, "n"): st.integers(-2, 8),
    (None, "reps"): st.integers(-1, 3),
    (None, "isi_s"): numbers(-0.1, 0.4, 0.1, 0.133),
    (None, "flash_duration_s"): st.one_of(st.none(), numbers(-0.1, 0.4)),
    (None, "inter_char_gap_s"): numbers(-1.0, 1.0, 0.0),
    (None, "target_text"): st.text("AB9Z?a", max_size=3),
    (None, "pattern_kind"): st.sampled_from([None, "rc", "permuted", "constrained", "x"]),
    ("synth", "fs_hz"): numbers(-10.0, 400.0, 50, 125, 250),
    ("synth", "background_sigma_uv"): numbers(-1.0, 3.0),
    ("synth", "ar_coeff"): numbers(-0.5, 1.5),
    ("synth", "alpha_amp_uv"): numbers(-1.0, 3.0),
    ("synth", "alpha_freq_hz"): numbers(-5.0, 200.0),
    ("synth", "template_scale"): numbers(-2.0, 3.0),
    ("synth", "blink_enabled"): st.booleans(),
    ("synth", "blink_floor_s"): numbers(-0.5, 1.0),
    ("synth", "blink_ceiling_s"): numbers(-0.5, 1.0),
    ("synth", "blink_floor_gain"): numbers(-0.5, 1.5),
    ("synth", "onset_jitter_s"): numbers(-0.2, 0.3),
    ("synth", "visual_response_scale"): numbers(-1.0, 2.0),
    ("pipeline", "low_hz"): numbers(-1.0, 20.0),
    ("pipeline", "high_hz"): numbers(-1.0, 200.0),
    ("pipeline", "filter_order"): st.integers(-1, 12),
    ("pipeline", "fs_out_hz"): numbers(-5.0, 60.0, 25, 50),
    ("pipeline", "window_s"): numbers(-0.5, 5.0),
    ("pipeline", "n_f"): st.integers(-1, 10),
    ("pipeline", "blda_tol"): numbers(-1.0, 1.0),
    ("pipeline", "blda_max_iter"): st.integers(-1, 50),
}
SECTION_KEYS = [(None, "synth"), (None, "pipeline"), (None, "unknown"), ("synth", "unknown")]
OVERRIDES = st.lists(
    st.sampled_from(list(CONFIG_VALUES) + SECTION_KEYS).flatmap(
        lambda path: st.tuples(
            st.just(path), st.one_of(CONFIG_VALUES.get(path, st.nothing()), JSON_VALUES)
        )
    ),
    min_size=1,
    max_size=3,
)

MANIFEST_KEYS = ["format_version", "fs_hz", "n_samples", "n_channels", "channel_names", "meta"]
META_KEYS = ["paradigm", "reps", "isi_s", "flash_duration_s", "inter_char_gap_s", "targets",
             "pattern", "seed"]
EVENT_KEYS = ["onset_s", "kind", "block", "flash_id", "cells", "char_index", "repetition",
              "is_target", "slot"]
# a manifest field given another JSON type than it has: each exits 3 naming the
# field, not only with some code of the contract
MANIFEST_TYPE_EDITS = [
    ("n_samples", "string"), ("n_samples", "true"), ("n_samples", "fraction"),
    ("n_channels", "string"), ("n_channels", "true"), ("fs_hz", "string"), ("fs_hz", "true"),
    ("channel_names", "string"), ("channel_names", "integers"),
    ("format_version", "true"), ("format_version", "fraction"),
]
BUNDLE_CHANGES = st.one_of(
    st.tuples(st.just("manifest"), st.sampled_from(MANIFEST_KEYS), JSON_VALUES),
    st.tuples(st.just("manifest-type"), st.sampled_from(MANIFEST_TYPE_EDITS), st.none()),
    st.tuples(st.just("meta"), st.sampled_from(META_KEYS), JSON_VALUES),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True), st.none()),
    st.tuples(st.just("event"), st.integers(0, 10**6), st.one_of(
        st.text("{}\"a:1", max_size=6), st.tuples(st.sampled_from(EVENT_KEYS), JSON_VALUES))),
)
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def run_twice(argv) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``, after checking that a second run agrees."""
    results = []
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code in CONTRACT, err.getvalue()
        assert "Traceback" not in err.getvalue()
        results.append((code, err.getvalue()))
    assert results[0] == results[1]
    return results[0]


def with_overrides(overrides) -> dict:
    config = copy.deepcopy(SMALL)
    for (section, key), value in overrides:
        target = config
        if section is not None:
            if not isinstance(config.get(section), dict):
                config[section] = {}
            target = config[section]
        target[key] = value
    return config


@given(OVERRIDES)
@SETTINGS
def test_any_config(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(with_overrides(overrides)))
        bundle = tmp / "s"
        if run_twice(["simulate", "--out", bundle, "--seed", 1, "--config", cfg])[0] != 0:
            return
        run_twice(["train", "--session", bundle, "--out", tmp / "m", "--config", cfg])
        run_twice(["eval", "--train-session", bundle, "--test-session", bundle,
                   "--out", tmp / "e", "--swap", "--config", cfg])


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(SMALL))
    assert main(["simulate", "--out", str(root / "s"), "--seed", "1", "--config", str(cfg)]) == 0
    return root / "s"


def corrupt(bundle: Path, change) -> None:
    kind, where, value = change
    if kind in ("manifest", "meta", "manifest-type"):
        manifest = json.loads((bundle / "manifest.json").read_text())
        if kind == "manifest-type":
            where, how = where
            old = manifest[where]
            value = {"string": lambda: "".join(old) if isinstance(old, list) else str(old),
                     "true": lambda: True, "fraction": lambda: old + 0.5,
                     "integers": lambda: list(range(len(old)))}[how]()
        (manifest["meta"] if kind == "meta" else manifest)[where] = value
        (bundle / "manifest.json").write_text(json.dumps(manifest))
    elif kind == "truncate":
        data = (bundle / "signal.f32").read_bytes()
        (bundle / "signal.f32").write_bytes(data[: int(where * len(data))])
    else:
        lines = (bundle / "events.jsonl").read_text().splitlines()
        i = where % len(lines)
        if isinstance(value, tuple):
            event = json.loads(lines[i])
            event[value[0]] = value[1]
            # the writer's compact, key-sorted form, so the line reaches the
            # one-pass reader of canonical lines before the per-line one
            value = json.dumps(event, sort_keys=True, separators=(",", ":"))
        lines[i] = value
        (bundle / "events.jsonl").write_text("\n".join(lines) + "\n")


def manifest_type_examples(test):
    for edit in MANIFEST_TYPE_EDITS:
        test = example(change=("manifest-type", edit, None))(test)
    return test


@given(change=BUNDLE_CHANGES)
@manifest_type_examples
@SETTINGS
def test_any_bundle(small_bundle, change):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(small_bundle, tmp / "b")
        corrupt(tmp / "b", change)
        results = [
            run_twice(["train", "--session", tmp / "b", "--out", tmp / "m"]),
            run_twice(["eval", "--train-session", small_bundle, "--test-session", tmp / "b",
                       "--out", tmp / "e", "--swap"]),
        ]
        if change[0] == "manifest-type":
            field = change[1][0]
            for code, err in results:
                assert code == 3 and f"{tmp / 'b' / 'manifest.json'}: " in err and field in err


DEEP = "[" * 10_000 + "]" * 10_000  # past the depth json.loads decodes


@pytest.mark.parametrize("spelling", ["canonical", "spaced"])
def test_deeply_nested_event_line_exits_3(small_bundle, tmp_path, spelling):
    """Nested arrays deeper than ``json.loads`` decodes, as the third line's
    cells, name that line; the canonical spelling passes the line regex."""
    shutil.copytree(small_bundle, tmp_path / "b")
    path = tmp_path / "b" / "events.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = re.sub(r'"cells":\[[][0-9,]*\]', lambda _: '"cells":' + DEEP, lines[2])
    if spelling == "spaced":
        lines[2] = lines[2].replace(",", ", ")
    path.write_text("".join(lines))
    for argv in (["train", "--session", tmp_path / "b", "--out", tmp_path / "m"],
                 ["eval", "--train-session", small_bundle, "--test-session", tmp_path / "b",
                  "--out", tmp_path / "e", "--swap"]):
        code, err = run_twice(argv)
        assert code == 3 and err.startswith(f"i/o error: {path} line 3: maximum recursion depth")


@pytest.mark.parametrize("key", ["fs_hz", "meta"])
def test_deeply_nested_manifest_exits_3(small_bundle, tmp_path, key):
    shutil.copytree(small_bundle, tmp_path / "b")
    path = tmp_path / "b" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[key] = None
    path.write_text(json.dumps(manifest).replace(f'"{key}": null', f'"{key}": {DEEP}'))
    code, err = run_twice(["train", "--session", tmp_path / "b", "--out", tmp_path / "m"])
    assert code == 3 and err.startswith(f"i/o error: {path}: maximum recursion depth")


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_deeply_nested_config_exits_2(small_bundle, tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": ' + DEEP + "}")
    argv = {"simulate": ["simulate", "--out", tmp_path / "s", "--seed", 1],
            "train": ["train", "--session", small_bundle, "--out", tmp_path / "m"]}[command]
    code, err = run_twice(argv + ["--config", cfg])
    assert code == 2 and err.startswith(f"error: {cfg}: maximum recursion depth")
