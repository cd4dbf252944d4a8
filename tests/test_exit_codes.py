"""Property test of the CLI exit-code contract.

Whatever the config file, the bundle, the ``pattern`` flags or the eval
outputs given to ``report`` hold, every command exits 0, 2, 3 or 4, no
exception escapes ``main``, and the same input run twice gives the same code
and the same message.  Drawn numbers stay in small ranges, or past a size
ceiling that is checked before anything is allocated, so no example
allocates more than a few MB.
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
from p300speller.patterns import MAX_N

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
# a meta field of the schedule given another JSON type than it has: each exits
# 3 naming meta.<key>, where a coercion once read "10" or 10.9 as 10 repetitions
# and true as an ISI of 1 s
META_TYPE_EDITS = [
    ("reps", "10"), ("reps", 10.9), ("reps", 10.0), ("reps", True),
    ("isi_s", "0.133"), ("isi_s", True), ("flash_duration_s", "nan"), ("flash_duration_s", None),
    ("inter_char_gap_s", "0"), ("paradigm", 5), ("targets", [[1.0, 1]]),
]
BUNDLE_CHANGES = st.one_of(
    st.tuples(st.just("manifest"), st.sampled_from(MANIFEST_KEYS), JSON_VALUES),
    st.tuples(st.just("manifest-type"), st.sampled_from(MANIFEST_TYPE_EDITS), st.none()),
    st.tuples(st.just("meta-type"), st.sampled_from(META_TYPE_EDITS), st.none()),
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
    if kind == "meta-type":
        kind, (where, value) = "meta", where
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
    for kind, edits in (("manifest-type", MANIFEST_TYPE_EDITS), ("meta-type", META_TYPE_EDITS)):
        for edit in edits:
            test = example(change=(kind, edit, None))(test)
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
        if change[0] in ("manifest-type", "meta-type"):
            # and as the train session of an eval
            results.append(run_twice(["eval", "--train-session", tmp / "b", "--test-session",
                                      small_bundle, "--out", tmp / "e", "--swap"]))
            field = change[1][0] if change[0] == "manifest-type" else f"meta.{change[1][0]}"
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


@given(kind=st.sampled_from(["rc", "permuted", "constrained"]),
       seed=st.one_of(st.none(), st.integers(0, 2**40)),
       n=st.one_of(st.integers(-2, 9), st.integers(MAX_N + 1, 10**15)),
       to_file=st.booleans())
@example(kind="rc", seed=None, n=MAX_N + 1, to_file=False)
@SETTINGS
def test_any_pattern(kind, seed, n, to_file):
    """An --n past the ceiling exits 2 before the n x n matrices exist, so a
    drawn n of up to 10**15 allocates nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["pattern", "--kind", kind, "--n", n]
        argv += [] if seed is None else ["--seed", seed]
        argv += ["--out", Path(tmp) / "p.json"] if to_file else []
        code, err = run_twice(argv)
        if n > MAX_N:
            assert (code, err) == (2, f"error: --n must be at most {MAX_N}, got {n}\n")


@pytest.fixture(scope="module")
def eval_dirs(small_bundle, tmp_path_factory):
    """Three real eval outputs: fitted on the small bundle or on a second
    seed's, and scored on the other or on itself."""
    root = tmp_path_factory.mktemp("evals")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(SMALL))
    other = root / "s2"
    assert main(["simulate", "--out", str(other), "--seed", "2", "--config", str(cfg)]) == 0
    dirs = []
    for name, fit, scored in (("e12", small_bundle, other), ("e21", other, small_bundle),
                              ("e11", small_bundle, small_bundle)):
        dirs.append(root / name)
        assert main(["eval", "--train-session", str(fit), "--test-session", str(scored),
                     "--out", str(dirs[-1]), "--config", str(cfg)]) == 0
    return dirs


EVAL_FILES = ["metrics.csv", "summary.txt"]
NOT_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]
FIELDS = ["", " ", "nan", "NaN", "inf", "-inf", "x", "1e999", "0x1", "0.5", "1,2", "=", "\u00e9"]
REPORT_EDITS = st.one_of(
    st.tuples(st.just("none"), st.none()),
    st.tuples(st.just("missing"), st.sampled_from(EVAL_FILES)),
    st.tuples(st.just("bytes"), st.tuples(st.sampled_from(EVAL_FILES), st.integers(0, 10**6),
                                          st.sampled_from(NOT_UTF8))),
    st.tuples(st.just("field"), st.tuples(st.sampled_from(EVAL_FILES), st.integers(0, 10**6),
                                          st.sampled_from(FIELDS))),
    st.tuples(st.just("blank"), st.tuples(st.sampled_from(EVAL_FILES), st.integers(0, 10**6))),
)
COHORT = st.lists(st.integers(0, 2), min_size=1, max_size=3)


def edit_eval_dir(path: Path, edit) -> None:
    """One edit of an eval output: a file removed, non-UTF-8 bytes or a blank
    line inserted, or a value (an accuracy, or the auc) replaced."""
    kind, how = edit
    if kind == "missing":
        (path / how).unlink()
    elif kind != "none":
        name, where = how[:2]
        data = (path / name).read_bytes()
        lines = data.splitlines(keepends=True)
        i = where % len(lines)
        if kind == "bytes":
            data = data[: where % len(data)] + how[2] + data[where % len(data):]
        elif kind == "blank":
            data = b"".join(lines[:i] + [b"\n"] + lines[i:])
        elif name == "summary.txt":
            data = b"auc=" + how[2].encode() + b"\n"
        else:
            fields = lines[max(i, 1)].split(b",")  # an accuracy, past the header
            fields[1] = how[2].encode()
            data = b"".join(lines[: max(i, 1)] + [b",".join(fields)] + lines[max(i, 1) + 1:])
        (path / name).write_bytes(data)


@given(cp=COHORT, xp=st.one_of(st.none(), COHORT), edit=REPORT_EDITS)
@example(cp=[0, 1], xp=None, edit=("none", None))
@example(cp=[0, 1], xp=[0, 2, 1], edit=("none", None))
@SETTINGS
def test_any_report(eval_dirs, cp, xp, edit):
    """``xp=None`` gives xp300 the cp300 cohort: every paired difference is
    zero, and the t-test has no variance to divide by.  The first cp300
    directory is an edited copy."""
    xp = cp if xp is None else xp
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(eval_dirs[cp[0]], tmp / "edited")
        edit_eval_dir(tmp / "edited", edit)
        cp_dirs = [tmp / "edited"] + [eval_dirs[i] for i in cp[1:]]
        code, err = run_twice(["report", "--cp300", *cp_dirs,
                               "--xp300", *[eval_dirs[i] for i in xp], "--out", tmp / "r"])
        if len(cp) != len(xp):
            assert code == 2 and err.startswith("error: cohort size mismatch")
        elif edit[0] == "none" and cp == xp:
            assert code == (4 if len(cp) > 1 else 2)
