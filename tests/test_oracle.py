"""Oracle scoring: prompt rendering, response parsing, caching, providers."""

import csv
import itertools
import re
import signal
import sys
import threading
import time
import warnings
from collections import Counter
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from scorefusion import (
    CachedOracle,
    HttpOracle,
    HttpOracleConfig,
    LabeledDataset,
    OracleCache,
    OracleError,
    PromptError,
    ScoreParseError,
    SyntheticOracle,
    SyntheticOracleSpec,
    parse_score,
    render_prompt,
    score_batch,
)
from scorefusion import data
from scorefusion import oracle as oracle_mod

DATA = Path(__file__).parent / "data"


def _rows(ids, labels=None):
    """A one-feature dataset of ``ids``, labelled when ``labels`` is given."""
    return LabeledDataset.from_arrays(np.zeros((len(ids), 1)), y=labels, ids=ids)


def _scores(oracle, ids, labels):
    return score_batch(oracle, _rows(ids, labels), column=True)


class TestRenderPrompt:
    def test_substitutes_named_fields(self):
        out = render_prompt("Rate {item} for query {q}.", {"item": "x7", "q": "shoes"})
        assert out == "Rate x7 for query shoes."

    def test_missing_key_is_named_in_the_error(self):
        with pytest.raises(PromptError, match="'doc'"):
            render_prompt("{id} -> {doc}", {"id": "a"})

    def test_non_identifier_braces_are_left_alone(self):
        assert render_prompt("keep {not-a-key} and {2bad}", {}) == "keep {not-a-key} and {2bad}"

    def test_values_are_stringified(self):
        assert render_prompt("n={n}", {"n": 3}) == "n=3"


class TestParseScore:
    def test_json_score_field_wins(self):
        assert parse_score('{"score": 0.8}') == 0.8
        assert parse_score('  {"score": 1} ') == 1.0
        # even when other numbers appear in the body
        assert parse_score('{"score": 0.25, "tokens": 0.9}') == 0.25

    def test_json_score_out_of_range_is_rejected(self):
        with pytest.raises(ScoreParseError):
            parse_score('{"score": 1.5}')

    def test_json_boolean_score_is_not_numeric(self):
        # falls through the ladder; "true" carries no digits or keywords
        with pytest.raises(ScoreParseError):
            parse_score('{"score": true}')

    def test_first_in_range_number_is_used(self):
        assert parse_score("The answer is 1") == 1.0
        assert parse_score("confidence 0.75 (was 0.2)") == 0.75
        assert parse_score("rated 7 out of 10, so 0.7") == 0.7
        assert parse_score("about .5") == 0.5

    def test_keywords_in_priority_order(self):
        assert parse_score("Totally irrelevant.") == 1.0
        assert parse_score("clearly relevant") == 0.0
        assert parse_score("Yes") == 1.0
        assert parse_score("No!") == 0.0

    def test_keywords_respect_word_boundaries(self):
        with pytest.raises(ScoreParseError):
            parse_score("yesterday was nothing")
        with pytest.raises(ScoreParseError):
            parse_score("nominal")

    def test_unparseable_text_raises(self):
        with pytest.raises(ScoreParseError):
            parse_score("beats me")

    def test_custom_keywords(self):
        assert parse_score("ACCEPT", keywords=(("accept", 1.0),)) == 1.0

    def test_fractions_are_read_before_bare_numbers(self):
        assert parse_score("Score: 1/2") == 0.5
        assert parse_score("Score: 7/10") == 0.7
        assert parse_score("rated 3 / 4") == 0.75
        assert parse_score("on a 0-1 scale: 9/10") == 0.9
        assert parse_score("0.5/1") == 0.5

    def test_out_of_range_fractions_are_not_read_as_numbers(self):
        for text in ("Score: 3/2", "Score: 1/0", "Score: -1/2"):
            with pytest.raises(ScoreParseError):
                parse_score(text)
        assert parse_score("3/2, so 0.6") == 0.6

    def test_negated_keywords_flip_their_value(self):
        assert parse_score("not relevant") == 1.0
        assert parse_score("Not  irrelevant.") == 0.0
        assert parse_score("NOT yes") == 0.0
        assert parse_score("relevant, not irrelevant") == 0.0
        assert parse_score("not", keywords=(("not", 1.0),)) == 1.0
        # only the word "not" itself negates
        assert parse_score("nothing relevant") == 0.0


class TestOracleCache:
    def test_round_trips_full_float_precision(self, tmp_path):
        path = tmp_path / "cache.csv"
        cache = OracleCache(path)
        third = 1.0 / 3.0
        cache.update({"a": third, "b": 1.0})
        back = OracleCache(path)
        assert back.get("a") == third
        assert back.get("b") == 1.0

    def test_file_layout(self, tmp_path):
        path = tmp_path / "cache.csv"
        OracleCache(path).update({"b": 0.5, "a": 0.25})
        lines = path.read_text().splitlines()
        assert lines[0] == "id,z"
        assert lines[1].startswith("a,") and lines[2].startswith("b,")

    def test_update_appends_instead_of_rewriting(self, tmp_path):
        path = tmp_path / "cache.csv"
        cache = OracleCache(path)
        cache.update({"a": 0.1})
        cache.update({"b": 0.2})
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert len(OracleCache(path)) == 2

    def test_rejects_bad_header_and_bad_scores(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("key,value\na,0.5\n")
        with pytest.raises(OracleError, match="header"):
            OracleCache(bad)
        worse = tmp_path / "worse.csv"
        worse.write_text("id,z\na,1.5\n")
        with pytest.raises(OracleError, match="outside"):
            OracleCache(worse)
        with pytest.raises(OracleError):
            OracleCache(tmp_path / "new.csv").update({"a": -0.2})

    def test_torn_trailing_score_is_dropped_and_cut_off(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"id,z\r\na,0.5\r\nb,0.")
        with pytest.warns(UserWarning, match=r"c\.csv: line 3: dropping partial last row b'b,0\.'"):
            cache = OracleCache(path)
        assert cache.scores() == {"a": 0.5}
        cache.update({"c": 0.25})
        assert path.read_bytes() == b"id,z\r\na,0.5\r\nc,0.25\r\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert OracleCache(path).scores() == {"a": 0.5, "c": 0.25}

    def test_a_torn_row_whose_id_holds_a_line_break_is_dropped_whole(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b'id,z\na,0.5\n"b\nc",0.')
        warning = f"cache file {path}: line 4: dropping partial last row b'\"b\\nc\",0.'"
        with pytest.warns(UserWarning, match=re.escape(warning)):
            cache = OracleCache(path)
        assert cache.scores() == {"a": 0.5}
        cache.update({"d": 0.25})
        assert path.read_bytes() == b"id,z\na,0.5\nd,0.25\r\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert OracleCache(path).scores() == {"a": 0.5, "d": 0.25}

    def test_a_stray_quote_in_an_earlier_id_leaves_the_whole_rows(self, tmp_path):
        # a quote inside an unquoted id is literal, so the quote count before each line break is odd
        path = tmp_path / "c.csv"
        path.write_bytes(b'id,z\na"b,0.5\nc,0.25\nd,0.')
        with pytest.warns(UserWarning, match=re.escape(f"{path}: line 4: dropping partial last row b'd,0.'")):
            cache = OracleCache(path)
        cache.update({"e": 0.125})
        assert OracleCache(path).scores() == {'a"b': 0.5, "c": 0.25, "e": 0.125}

    def test_a_stray_quote_and_a_torn_quoted_id_with_a_line_break(self, tmp_path):
        # the quote count before a line break cannot tell the literal quote in a"b from a quoting one
        path = tmp_path / "c.csv"
        path.write_bytes(b'id,z\na"b,0.5\n"x\ny",0.')
        warning = f"cache file {path}: line 4: dropping partial last row b'\"x\\ny\",0.'"
        with pytest.warns(UserWarning, match=re.escape(warning)):
            cache = OracleCache(path)
        assert cache.scores() == {'a"b': 0.5}
        cache.update({"e": 0.125})
        assert path.read_bytes() == b'id,z\na"b,0.5\ne,0.125\r\n'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert OracleCache(path).scores() == {'a"b': 0.5, "e": 0.125}

    def test_bare_trailing_id_or_character_is_dropped(self, tmp_path):
        path = tmp_path / "c.csv"
        # a bare id, and an append cut inside a two-byte character
        for content in (b"id,z\na,0.5\nb", b"id,z\na,0.5\n\xc3"):
            path.write_bytes(content)
            with pytest.warns(UserWarning, match="line 3"):
                assert OracleCache(path).scores() == {"a": 0.5}

    def test_malformed_row_ending_in_a_newline_still_raises(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,z\na,0.5\nb\n")
        with pytest.raises(OracleError, match="line 3: expected 2 cells"):
            OracleCache(path)

    def test_empty_or_torn_header_file_gets_a_header(self, tmp_path):
        path = tmp_path / "c.csv"
        for content, expect_warning in ((b"", False), (b"id,", True)):
            path.write_bytes(content)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cache = OracleCache(path)
            assert bool(caught) == expect_warning
            cache.update({"c": 0.25})
            assert path.read_bytes() == b"id,z\r\nc,0.25\r\n"

    def test_a_directory_is_an_oracle_error_naming_it(self, tmp_path):
        with pytest.raises(OracleError, match=re.escape(f"cannot read cache file {tmp_path}")):
            OracleCache(tmp_path)

    def test_undecodable_bytes_are_an_oracle_error_naming_the_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"id,z\na\xff,0.5\nb,0.25\n")
        with pytest.raises(OracleError, match=re.escape(f"cannot read cache file {path} as UTF-8")):
            OracleCache(path)

    def test_contains_and_scores_view(self, tmp_path):
        cache = OracleCache(tmp_path / "c.csv")
        cache.update({"x": 0.7})
        assert "x" in cache and "y" not in cache
        assert cache.scores() == {"x": 0.7}


# files that are not id,z caches, and their error message after the path
_NOT_A_CACHE = [
    ("id,f0,z\na,1.0,0.5\n", "must start with header 'id,z'"),
    ("id,z,y\na,0.5,1\n", "must start with header 'id,z'"),
    ("id,z,stratum\na,0.5,s\n", "must start with header 'id,z'"),
    ("id,z\na,0.5\n\nb,\n", "line 4: no score for id 'b'"),
    ("id\na\n", "line 2: no score for id 'a'"),
    ("id,z\na,0.5\nb,x\n", "line 3: bad z value 'x'"),
]
# bad caches in which an id holds a line break, so lines and rows differ
_LINE_BREAK_IDS = [
    ('id,z\n"a\nb",0.5\nc,1.5\n', "line 4: z=1.5 outside [0, 1]"),
    ('id,z\n"a\nb",0.5\nc,\n', "line 4: no score for id 'c'"),
    ('id,z\n"a\nb",\nc,0.5\n', "line 3: no score for id 'a\\nb'"),
    ('id,z\n"a\nb",0.5\nc,0.5,1\n', "line 4: expected 2 cells, got 3"),
]


def _cache_sidecar(path: Path) -> Path:
    return path.with_name(f".{path.name}.sfcache.npz")


class TestOneRowPerId:
    def test_an_equal_score_is_not_written_again(self, tmp_path):
        path = tmp_path / "c.csv"
        cache = OracleCache(path)
        cache.update({"a": 0.5})
        cache.update({"a": 0.5, "b": 0.25})
        cache.update({"b": 0.25})
        assert path.read_text().splitlines() == ["id,z", "a,0.5", "b,0.25"]
        assert OracleCache(path).scores() == {"a": 0.5, "b": 0.25}

    def test_a_different_score_raises_before_anything_is_written(self, tmp_path):
        path = tmp_path / "c.csv"
        cache = OracleCache(path)
        cache.update({"a": 0.5})
        before = path.read_bytes()
        with pytest.raises(OracleError, match=r"holds score 0\.5 for id 'a'; refusing to replace it with 0\.25"):
            cache.update({"b": 0.75, "a": 0.25})
        assert path.read_bytes() == before
        assert cache.scores() == {"a": 0.5} and OracleCache(path).scores() == {"a": 0.5}

    def test_a_file_with_a_repeated_id_does_not_open(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("id,z\na,0.5\nb,0.25\na,0.5\n")
        with pytest.raises(OracleError, match=re.escape(f"cache file {path}: line 4: duplicate instance id 'a'")):
            OracleCache(path)


class TestCacheFileIsADataset:
    """The cache opens through the dataset loader and its content-keyed sidecar."""

    def test_a_warm_open_never_parses(self, tmp_path, monkeypatch):
        path = tmp_path / "c.csv"
        OracleCache(path).update({"a": 1 / 3, "b": 1.0, "c": 0.0})
        cold = OracleCache(path).scores()
        assert _cache_sidecar(path).is_file()

        def fail(*args):
            raise AssertionError("parsed a cache file despite a valid sidecar")

        monkeypatch.setattr(data, "_load_csv", fail)
        assert OracleCache(path).scores() == cold == {"a": 1 / 3, "b": 1.0, "c": 0.0}

    def test_an_append_makes_the_next_open_reparse(self, tmp_path, monkeypatch):
        path = tmp_path / "c.csv"
        OracleCache(path).update({"a": 0.5})
        cache = OracleCache(path)  # cold: writes the sidecar
        cache.update({"b": 0.25})
        parses, parse = [], data._load_csv
        monkeypatch.setattr(data, "_load_csv", lambda *args, **kw: parses.append(args) or parse(*args, **kw))
        assert OracleCache(path).scores() == {"a": 0.5, "b": 0.25}
        assert OracleCache(path).scores() == {"a": 0.5, "b": 0.25}
        assert parses == [(path,)]

    def test_a_torn_row_warns_despite_a_valid_sidecar_and_is_cut_before_the_append(self, tmp_path):
        path = tmp_path / "c.csv"
        OracleCache(path).update({"a": 0.5})
        with open(path, "ab") as fh:
            fh.write(b"b,0.")
        # a dataset load of the torn file reads b as 0 and stores that under the file's own key
        assert data.load_dataset(path).z.tolist() == [0.5, 0.0]
        assert _cache_sidecar(path).is_file()
        for _ in range(2):
            with pytest.warns(UserWarning, match=r"c\.csv: line 3: dropping partial last row b'b,0\.'"):
                cache = OracleCache(path)
            assert cache.scores() == {"a": 0.5}
        cache.update({"c": 0.25})
        assert path.read_bytes() == b"id,z\r\na,0.5\r\nc,0.25\r\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert OracleCache(path).scores() == {"a": 0.5, "c": 0.25}

    def test_awkward_ids_round_trip_through_a_warm_reopen(self, tmp_path, monkeypatch):
        path = tmp_path / "c.csv"
        scores = {"a,b": 0.5, 'say "hi"': 0.25, "two\nlines": 1 / 3, " edge ": 1.0, "\tx ": 0.0, "café": 0.125}
        OracleCache(path).update(scores)
        assert OracleCache(path).scores() == scores  # cold
        monkeypatch.setattr(data, "_load_csv", None)
        assert OracleCache(path).scores() == scores  # warm

    def test_load_dataset_is_not_called(self, tmp_path, monkeypatch):
        # a wrapper of data.load_dataset (the bench's tracer) counts dataset loads only
        path = tmp_path / "c.csv"
        OracleCache(path).update({"a": 0.5, "b": 0.25})

        def fail(*args, **kwargs):
            raise AssertionError("the cache opened through load_dataset")

        monkeypatch.setattr(data, "load_dataset", fail)
        for _ in range(2):  # cold, then warm
            provider = CachedOracle(OracleCache(path))
            assert score_batch(provider, _rows(["b", "a"])) == [("a", 0.5), ("b", 0.25)]

    @pytest.mark.parametrize("content, message", _NOT_A_CACHE)
    def test_a_file_that_is_not_an_id_z_cache_is_named(self, tmp_path, content, message):
        path = tmp_path / "c.csv"
        path.write_text(content)
        with pytest.raises(OracleError, match=re.escape(message)) as err:
            OracleCache(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("content, message", _LINE_BREAK_IDS)
    def test_an_id_with_a_line_break_moves_the_line_named(self, tmp_path, content, message):
        path = tmp_path / "c.csv"
        path.write_text(content)
        with pytest.raises(OracleError, match=re.escape(f"cache file {path}: {message}")):
            OracleCache(path)

    @pytest.mark.parametrize("tail", ["x,0.", '"t\nu",0.', '"t\n\nu""'], ids=["row", "id-line-break", "open-quote"])
    @pytest.mark.parametrize("content, message", _NOT_A_CACHE + _LINE_BREAK_IDS)
    def test_a_torn_tail_leaves_the_error_as_it_was(self, tmp_path, content, message, tail):
        # the torn file parses from a prefix of its text, the whole one through the loader's sidecar
        path = tmp_path / "c.csv"
        path.write_text(content + tail)
        line = (content + tail).count("\n") + 1
        warning = f"cache file {path}: line {line}: dropping partial last row {tail.encode()!r}"
        with pytest.warns(UserWarning, match=re.escape(warning)):
            with pytest.raises(OracleError, match=re.escape(message)) as err:
                OracleCache(path)
        assert str(err.value).startswith(f"cache file {path}")

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n"])
    def test_a_header_only_file_is_an_empty_cache(self, tmp_path, body):
        path = tmp_path / "c.csv"
        path.write_text("id,z\n" + body)
        cache = OracleCache(path)
        assert len(cache) == 0
        cache.update({"a": 0.5})
        assert OracleCache(path).scores() == {"a": 0.5}


class TestSyntheticOracle:
    def test_score_is_a_pure_function_of_seed_and_id(self):
        oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=0.8, seed=4))
        a = _scores(oracle, ["q1"], [1])
        b = _scores(oracle, ["q1"], [1])
        assert a.tolist() == b.tolist()
        other_seed = SyntheticOracle(SyntheticOracleSpec(accuracy=0.8, seed=5))
        ids = [f"i{k}" for k in range(64)]
        assert _scores(oracle, ids, [1] * 64).tolist() != _scores(other_seed, ids, [1] * 64).tolist()

    def test_perfect_oracle_reproduces_labels(self):
        oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=1.0, seed=0))
        assert _scores(oracle, ["id0", "id1"], [0, 1]).tolist() == [0.0, 1.0]

    def test_binary_accuracy_concentrates_near_q(self):
        q = 0.75
        oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=q, seed=1))
        n = 4000
        hits = np.count_nonzero(_scores(oracle, [f"k{k}" for k in range(n)], [1] * n) == 1.0)
        assert abs(hits / n - q) < 4 * np.sqrt(q * (1 - q) / n)

    def test_soft_mode_is_clamped_and_centered(self):
        spec = SyntheticOracleSpec(accuracy=0.9, mode="soft", noise=0.1, seed=2)
        oracle = SyntheticOracle(spec)
        scores = _scores(oracle, [f"s{k}" for k in range(500)], [1] * 500)
        assert np.all((scores >= 0) & (scores <= 1))
        # clamping at 1 trims the upper tail, so the mean sits slightly below q
        assert 0.84 < np.mean(scores) <= 0.9
        assert np.std(scores) > 0.03

    def test_row_without_a_label_fails(self):
        oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=1.0))
        assert _scores(oracle, ["u"], [0]).tolist() == [0.0]
        with pytest.raises(OracleError) as err:
            score_batch(oracle, _rows(["unknown"]))
        assert err.value.failures == (("unknown", "no true label available"),)

    def test_spec_validation(self):
        with pytest.raises(OracleError):
            SyntheticOracleSpec(accuracy=0.3)
        with pytest.raises(OracleError):
            SyntheticOracleSpec(mode="fuzzy")
        with pytest.raises(OracleError):
            SyntheticOracleSpec(noise=-1.0)

    def test_spec_rejects_a_bad_seed(self):
        for seed in (-1, 1.5, "3", True, None):
            with pytest.raises(OracleError, match="seed"):
                SyntheticOracleSpec(seed=seed)
        assert SyntheticOracleSpec(seed=np.int64(3)).seed == 3
        assert SyntheticOracleSpec(seed=2**64 + 3).seed == 2**64 + 3


def _reference_stream(seed, instance_id):
    """The per-id stream the synthetic oracle's scores are defined by."""
    digest = sha256(instance_id.encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:16], "little")])


def _reference_score(seed, q, instance_id, label):
    return float(label if _reference_stream(seed, instance_id).uniform() < q else 1 - label)


_ODD_IDS = ["", "ünïcødé", "日本語", "x" * 1000, "a,b\n", "\U0001f600"]


class TestVectorizedDraws:
    """The one-pass binary draws equal each id's own ``default_rng`` draw bit for bit."""

    def test_uniforms_equal_default_rng_over_many_ids(self):
        ids = [f"id{k}" for k in range(10_000)] + _ODD_IDS
        raw = oracle_mod._first_draws(1, data.id_keys(ids))
        uniforms = (raw >> 11) * 2.0**-53
        expected = np.array([_reference_stream(1, i).uniform() for i in ids])
        assert uniforms.dtype == np.float64
        assert uniforms.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 5, 2**64 + 3])
    def test_raw_draws_for_every_seed_width(self, seed):
        ids = [f"r{k:06d}" for k in range(300)] + _ODD_IDS
        expected = [_reference_stream(seed, i).bit_generator.random_raw() for i in ids]
        assert oracle_mod._first_draws(seed, data.id_keys(ids)).tolist() == expected

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_every_block_size_gives_the_per_id_draws(self, block, monkeypatch):
        # 55 bytes is the longest id sha256 pads into one 64-byte block; 56 takes two
        ids = [f"r{k}" for k in range(23)] + _ODD_IDS + ["é" * 27, "q" * 55, "q" * 56, "é" * 28, "ß" * 60]
        expected = [_reference_stream(9, i).bit_generator.random_raw() for i in ids]
        monkeypatch.setattr(oracle_mod, "_DRAW_BLOCK", block)
        assert oracle_mod._first_draws(9, data.id_keys(ids)).tolist() == expected

    def test_a_batch_across_the_block_boundary(self):
        block = oracle_mod._DRAW_BLOCK
        ids = [f"b{k:06d}" for k in range(block + 40)]
        ids[block - 2:block + 4] = ["", "ünïcødé", "日本語", "w" * 56, "a,b\n", "\U0001f600"]
        raw = oracle_mod._first_draws(4, data.id_keys(ids))
        assert raw.shape == (len(ids),)
        near = range(block - 30, len(ids))  # the 30 rows before the boundary and every row after it
        assert raw[block - 30:].tolist() == [
            _reference_stream(4, ids[k]).bit_generator.random_raw() for k in near]
        head = oracle_mod._first_draws(4, data.id_keys(ids[:block]))
        assert raw[:block].tolist() == head.tolist()
        assert raw[:100].tolist() == [_reference_stream(4, i).bit_generator.random_raw() for i in ids[:100]]
        assert oracle_mod._first_draws(4, data.id_keys([])).shape == (0,)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
    def test_hashes_with_one_to_four_significant_words(self, seed):
        hashes = [0, 1, 2**32, 2**96 + 1, 2**128 - 1]
        words = np.array([[(h >> 32 * j) & 0xFFFFFFFF for j in range(4)] for h in hashes],
                         dtype=np.uint32)
        expected = [np.random.default_rng([seed, h]).bit_generator.random_raw() for h in hashes]
        assert oracle_mod._seeded_first_draws(seed, words).tolist() == expected

    def test_scores_match_the_reference_and_ignore_batching(self):
        oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=0.7, seed=11))
        ids = [f"b{k:04d}" for k in range(400)]
        labels = [k % 2 for k in range(400)]
        ds = LabeledDataset.from_arrays(np.zeros((400, 1)), y=labels, ids=ids)
        full, failures = oracle.score_uncached(ds)
        assert failures == []
        assert full.tolist() == [_reference_score(11, 0.7, i, y) for i, y in zip(ids, labels)]
        rows = np.random.default_rng(0).permutation(400)[:150]
        part, _ = oracle.score_uncached(ds.take(rows))
        assert part.tolist() == full[rows].tolist()
        listed = score_batch(oracle, ds.take(rows[::-1]), column=True)
        assert listed.tolist() == part[::-1].tolist()
        assert score_batch(oracle, ds, column=True).tolist() == full.tolist()

    def test_score_is_score_uncached_of_one_row(self):
        oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=0.6, seed=3))
        for k in range(50):
            one = _rows([f"one{k}"], [k % 2])
            z, failures = oracle.score_uncached(one)
            assert failures == [] and score_batch(oracle, one, column=True).tolist() == z.tolist()

    def test_soft_mode_matches_the_per_id_streams(self):
        spec = SyntheticOracleSpec(accuracy=0.8, mode="soft", noise=0.3, seed=5)
        ids = [f"s{k}" for k in range(100)]
        results, _ = SyntheticOracle(spec).score_uncached(_rows(ids, [k % 2 for k in range(100)]))
        for k, i in enumerate(ids):
            y = k % 2
            center = y * 0.8 + (1 - y) * (1.0 - 0.8)
            expected = float(np.clip(center + _reference_stream(5, i).normal(0.0, 0.3), 0.0, 1.0))
            assert results[k] == expected

    def test_missing_labels_are_listed(self):
        ds = _rows(["d", "b", "a", "c"], [None, 1, None, None])
        for mode in ("binary", "soft"):
            oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=0.9, mode=mode, noise=0.1, seed=2))
            z, failures = oracle.score_uncached(ds)
            assert np.isnan(z).tolist() == [True, False, True, True]
            assert failures == [("d", "no true label available"), ("a", "no true label available"),
                                ("c", "no true label available")]
            with pytest.raises(OracleError) as err:
                score_batch(oracle, ds)
            assert [i for i, _ in err.value.failures] == ["a", "c", "d"]
        assert z[1] == float(np.clip(0.9 + _reference_stream(2, "b").normal(0.0, 0.1), 0.0, 1.0))
        binary = SyntheticOracle(SyntheticOracleSpec(accuracy=0.9, seed=2)).score_uncached(ds)[0]
        assert binary[1] == _reference_score(2, 0.9, "b", 1)

    def test_golden_scores_written_by_the_per_id_implementation(self):
        # tests/data/synthetic_oracle.csv holds scores at accuracy 0.7 computed
        # by the implementation that built one default_rng per id.
        with open(DATA / "synthetic_oracle.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        for seed in sorted({int(r["seed"]) for r in rows}):
            oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=0.7, seed=seed))
            mine = [r for r in rows if int(r["seed"]) == seed]
            ds = _rows([r["id"] for r in mine], [int(r["label"]) for r in mine])
            batch, _ = oracle.score_uncached(ds)
            one_by_one = [score_batch(oracle, ds.take([k]), column=True)[0] for k in range(ds.n)]
            assert batch.tolist() == one_by_one == [float(r["z"]) for r in mine]


class _CountingProvider:
    """Stand-in provider: deterministic scores, records every uncached call."""

    def __init__(self, value=0.5, cache=None):
        self.value = value
        self.cache = cache
        self.calls = []

    def score_uncached(self, ds):
        self.calls.append(ds.ids())
        return np.full(ds.n, self.value), []


class TestCachedOracle:
    def test_replays_cache_and_reports_misses(self, tmp_path):
        cache = OracleCache(tmp_path / "c.csv")
        cache.update({"a": 0.9})
        oracle = CachedOracle(cache)
        assert score_batch(oracle, _rows(["a"]), column=True).tolist() == [0.9]
        with pytest.raises(OracleError) as err:
            score_batch(oracle, _rows(["a", "b"]))
        assert err.value.failures == (("b", "not in cache"),)

    def test_falls_through_to_the_backing_provider(self, tmp_path):
        # the same cache attached to a synthetic oracle: hits replay, misses are scored
        cache = OracleCache(tmp_path / "c.csv")
        cache.update({"a": 0.9})
        oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=1.0), cache=cache)
        assert score_batch(oracle, _rows(["a", "b"], [0, 0]), column=True).tolist() == [0.9, 0.0]
        assert cache.scores() == {"a": 0.9, "b": 0.0}


class TestScoreBatch:
    def test_results_sorted_by_id(self):
        provider = _CountingProvider()
        pairs = score_batch(provider, _rows(["b", "a", "c"]))
        assert [i for i, _ in pairs] == ["a", "b", "c"]

    def test_cache_consulted_before_the_provider(self, tmp_path):
        cache = OracleCache(tmp_path / "c.csv")
        cache.update({"a": 0.9, "b": 0.8})
        provider = _CountingProvider(value=0.1, cache=cache)
        pairs = score_batch(provider, _rows(["a", "b", "c"]))
        assert dict(pairs) == {"a": 0.9, "b": 0.8, "c": 0.1}
        assert provider.calls == [["c"]]

    def test_fresh_scores_are_written_back(self, tmp_path):
        cache = OracleCache(tmp_path / "c.csv")
        provider = _CountingProvider(value=0.4, cache=cache)
        score_batch(provider, _rows(["x"]))
        assert cache.get("x") == 0.4
        # second batch is served fully from cache
        provider.calls.clear()
        score_batch(provider, _rows(["x"]))
        assert provider.calls == []

    def test_failures_abort_the_whole_batch(self):
        class Flaky:
            cache = None

            def score_uncached(self, ds):
                return np.r_[np.full(ds.n - 1, 0.5), np.nan], [(ds.ids()[-1], "boom")]

        with pytest.raises(OracleError) as err:
            score_batch(Flaky(), _rows(["a", "b"]))
        assert err.value.failures == (("b", "boom"),)

    def test_paid_for_scores_are_cached_before_a_failure_is_raised(self, tmp_path):
        class HalfFailing:
            def __init__(self, cache):
                self.cache = cache

            def score_uncached(self, ds):
                return np.array([0.25, np.nan]), [("b", "boom")]

        path = tmp_path / "c.csv"
        with pytest.raises(OracleError) as err:
            score_batch(HalfFailing(OracleCache(path)), _rows(["a", "b"]))
        assert err.value.failures == (("b", "boom"),)
        reopened = OracleCache(path)
        assert reopened.scores() == {"a": 0.25}

    def test_in_range_scores_are_cached_beside_out_of_range_ones(self, tmp_path):
        class PartlyOutOfRange:
            def __init__(self, cache):
                self.cache = cache

            def score_uncached(self, ds):
                return np.array([0.75, 1.5]), []

        path = tmp_path / "c.csv"
        with pytest.raises(OracleError, match="out-of-range") as err:
            score_batch(PartlyOutOfRange(OracleCache(path)), _rows(["a", "b"]))
        assert [i for i, _ in err.value.failures] == ["b"]
        assert OracleCache(path).scores() == {"a": 0.75}

    def test_dataset_batches_send_only_misses_to_the_provider(self, tmp_path):
        ds = LabeledDataset.from_arrays(
            np.arange(6.0).reshape(3, 2), y=[1, 0, 1], strata=["s", "t", "s"], ids=["c", "a", "b"]
        )
        cache = OracleCache(tmp_path / "c.csv")
        cache.update({"a": 0.9})
        seen = []

        class Recording(_CountingProvider):
            def score_uncached(self, ds):
                seen.append(ds)
                return super().score_uncached(ds)

        provider = Recording(value=0.1, cache=cache)
        pairs = score_batch(provider, ds)
        assert pairs == [("a", 0.9), ("b", 0.1), ("c", 0.1)]
        (sent,) = seen
        assert isinstance(sent, LabeledDataset) and sent.ids() == ["b", "c"]
        assert sent.X.shape == (2, 0) and sent.dim == 0 and len(sent) == 2  # no feature copy
        assert (sent.y[0], sent.strata[0]) == (1, "s")
        assert score_batch(provider, ds.instances) == pairs

    def test_row_aligned_column_matches_the_sorted_pairs(self, tmp_path):
        ids = [f"id{k:03d}" for k in np.random.default_rng(3).permutation(40)]
        ds = LabeledDataset.from_arrays(np.arange(80.0).reshape(40, 2), y=[k % 2 for k in range(40)], ids=ids)
        warm = {i: (k % 7) / 7 for k, i in enumerate(ids[::3])}

        class PerId(_CountingProvider):
            def score_uncached(self, ds):
                self.calls.append(ds.ids())
                return np.array([int(i[2:]) / 100 for i in ds.ids()]), []

        providers = []
        for name in ("pairs", "column", "instances"):
            cache = OracleCache(tmp_path / f"{name}.csv")
            cache.update(warm)
            providers.append(PerId(cache=cache))
        lookup = dict(score_batch(providers[0], ds))
        column = score_batch(providers[1], ds, column=True)
        assert isinstance(column, np.ndarray) and column.dtype == float and column.shape == (40,)
        assert column.tolist() == [lookup[i] for i in ids]
        assert score_batch(providers[2], ds.instances, column=True).tolist() == column.tolist()
        misses = sorted(set(ids) - set(warm))
        assert [p.calls for p in providers] == [[misses]] * 3
        assert providers[1].cache.scores() == lookup
        assert score_batch(providers[1], ds, column=True).tolist() == column.tolist()
        assert providers[1].calls == [misses]

    def test_out_of_range_provider_scores_rejected(self):
        provider = _CountingProvider(value=1.5)
        with pytest.raises(OracleError, match="out-of-range"):
            score_batch(provider, _rows(["a"]))

    def test_empty_batch_rejected(self):
        with pytest.raises(OracleError, match="at least one"):
            score_batch(_CountingProvider(), _rows([]))

    @pytest.mark.parametrize("batch", [[], tuple(_rows(["a"])), "ab"], ids=["list", "row-views", "str"])
    def test_a_batch_that_is_not_a_dataset_is_rejected(self, batch):
        provider = _CountingProvider()
        with pytest.raises(OracleError, match=f"takes a LabeledDataset, got {type(batch).__name__}$"):
            score_batch(provider, batch)
        assert provider.calls == []

    def test_unlisted_nan_is_rejected_and_not_cached(self, tmp_path):
        class SilentNaN:
            def __init__(self, cache):
                self.cache = cache

            def score_uncached(self, ds):
                return np.array([0.5, np.nan]), []

        path = tmp_path / "c.csv"
        with pytest.raises(OracleError, match="out-of-range score nan for id 'b'") as err:
            score_batch(SilentNaN(OracleCache(path)), _rows(["b", "a"]))
        assert [i for i, _ in err.value.failures] == ["b"]
        assert OracleCache(path).scores() == {"a": 0.5}

    def test_column_of_the_wrong_length_rejected(self):
        class Short(_CountingProvider):
            def score_uncached(self, ds):
                return np.full(ds.n - 1, 0.5), []

        with pytest.raises(OracleError, match="shape"):
            score_batch(Short(), _rows(["a", "b"]))


class _FakeResponse:
    def __init__(self, text, status_code=200):
        self.text = text
        self.status_code = status_code


class _FakeSession:
    """Scripted transport: pops the next canned outcome per instance id."""

    def __init__(self, script):
        self.script = {k: list(v) for k, v in script.items()}
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        key = json["prompt"].split()[-1]
        outcome = self.script[key].pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _http(session, **overrides):
    defaults = dict(
        url="http://127.0.0.1:9/score",
        model="judge-1",
        prompt_template="score {id}",
        retries=3,
        backoff=0.0,
    )
    defaults.update(overrides)
    return HttpOracle(HttpOracleConfig(**defaults), session=session)


class TestHttpOracle:
    def test_posts_model_and_rendered_prompt(self):
        session = _FakeSession({"a": [_FakeResponse('{"score": 0.6}')]})
        oracle = _http(session)
        assert score_batch(oracle, _rows(["a"]), column=True).tolist() == [0.6]
        req = session.posts[0]
        assert req["url"] == "http://127.0.0.1:9/score"
        assert req["json"] == {"model": "judge-1", "prompt": "score a"}
        assert req["timeout"] == 30.0
        assert "Authorization" not in req["headers"]

    def test_bearer_token_read_from_environment(self, monkeypatch):
        monkeypatch.setenv("JUDGE_TOKEN", "sekrit")
        session = _FakeSession({"a": [_FakeResponse("0.5")]})
        oracle = _http(session, auth_env="JUDGE_TOKEN")
        score_batch(oracle, _rows(["a"]))
        assert session.posts[0]["headers"]["Authorization"] == "Bearer sekrit"

    def test_missing_token_fails_before_any_request(self, monkeypatch):
        monkeypatch.delenv("JUDGE_TOKEN", raising=False)
        session = _FakeSession({})
        oracle = _http(session, auth_env="JUDGE_TOKEN")
        with pytest.raises(OracleError, match="JUDGE_TOKEN"):
            score_batch(oracle, _rows(["a"]))
        assert session.posts == []

    def test_retries_recover_from_transient_failures(self, fake_clock):
        session = _FakeSession(
            {"a": [_FakeResponse("oops", status_code=500),
                   _FakeResponse("garbage"),
                   _FakeResponse("0.75")]}
        )
        oracle = _http(session, backoff=0.5)
        assert score_batch(oracle, _rows(["a"]), column=True).tolist() == [0.75]
        assert len(session.posts) == 3
        assert fake_clock.slept == [0.5, 1.0]  # backoff * 2^attempt
        assert fake_clock.starts == {"a": [0.0, 0.5, 1.5]}  # no retry starts before it is due

    def test_the_worker_posts_fresh_rows_while_a_retry_waits(self, fake_clock):
        session = _FakeSession({"a": [_FakeResponse("busy", 503), _FakeResponse("0.1")],
                                "b": [_FakeResponse("0.2")], "c": [_FakeResponse("0.3")]})
        oracle = _http(session, backoff=0.05, max_concurrency=1)
        assert score_batch(oracle, _rows(["a", "b", "c"]), column=True).tolist() == [0.1, 0.2, 0.3]
        assert [r["json"]["prompt"] for r in session.posts] == ["score a", "score b", "score c", "score a"]
        assert fake_clock.slept == [0.05]  # only what was left of a's wait
        assert fake_clock.starts == {"a": [0.0, 0.05], "b": [0.0], "c": [0.0]}

    def test_a_waiting_retry_is_not_posted_after_a_halt(self, fake_clock):
        session = _FakeSession({"a": [_FakeResponse("busy", 503), _FakeResponse("0.1")],
                                "b": [RuntimeError("socket closed")], "c": [_FakeResponse("0.3")]})
        oracle = _http(session, backoff=0.05, max_concurrency=1)
        z, failures = oracle.score_uncached(_rows(["a", "b", "c"]))
        assert [r["json"]["prompt"] for r in session.posts] == ["score a", "score b"]
        assert np.isnan(z).all() and fake_clock.slept == []
        assert failures == [("a", "endpoint returned HTTP 503"), ("b", "RuntimeError: socket closed"),
                            ("c", "not attempted")]

    def test_an_interrupt_lets_the_posts_in_flight_finish_and_starts_no_more(self):
        main, posted = threading.main_thread().ident, itertools.count(1)

        class Interrupting(_FakeSession):
            def post(self, url, json=None, headers=None, timeout=None):
                if next(posted) == 20:
                    signal.pthread_kill(main, signal.SIGUSR1)
                time.sleep(0.002)  # a paced endpoint: the main thread runs its handler meanwhile
                return super().post(url, json, headers, timeout)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        ids = [f"i{k:03d}" for k in range(400)]
        session = Interrupting({i: [_FakeResponse("0.5")] for i in ids})
        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(KeyboardInterrupt):
                _http(session, max_concurrency=2).score_uncached(_rows(ids))
        finally:
            signal.signal(signal.SIGUSR1, previous)
        for thread in threading.enumerate():  # any worker still running would go on posting
            if thread.name.startswith("ThreadPoolExecutor"):
                thread.join()
        assert 20 <= len(session.posts) <= 20 + 2

    def test_an_interrupt_ends_a_waiting_retry_at_once(self):
        session = _FakeSession({"a": [_FakeResponse("busy", 503)] * 3})

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous, start = signal.signal(signal.SIGALRM, interrupt), time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.1)  # while a's retry waits out its 2 s backoff
            with pytest.raises(KeyboardInterrupt):
                _http(session, backoff=2.0).score_uncached(_rows(["a"]))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 0.5
        assert [r["json"]["prompt"] for r in session.posts] == ["score a"]

    def test_a_halt_ends_another_workers_waiting_retry_at_once(self):
        b_posted = threading.Event()

        class Paced(_FakeSession):
            def post(self, url, json=None, headers=None, timeout=None):
                if json["prompt"] == "score a":
                    b_posted.wait(5)  # so b's worker holds b while a's retry waits
                else:
                    b_posted.set()
                    time.sleep(0.05)  # a's worker starts its 2 s wait meanwhile
                return super().post(url, json, headers, timeout)

        session = Paced({"a": [_FakeResponse("busy", 503)] * 3, "b": [RuntimeError("socket closed")]})
        start = time.monotonic()
        z, failures = _http(session, backoff=2.0, max_concurrency=2).score_uncached(_rows(["a", "b"]))
        assert time.monotonic() - start < 0.5
        assert np.isnan(z).all()
        assert failures == [("a", "endpoint returned HTTP 503"), ("b", "RuntimeError: socket closed")]
        assert sorted(r["json"]["prompt"] for r in session.posts) == ["score a", "score b"]

    def test_an_interrupted_batch_caches_the_scores_it_paid_for(self, tmp_path):
        main, posted = threading.main_thread().ident, itertools.count(1)

        class Interrupting(_FakeSession):
            def post(self, url, json=None, headers=None, timeout=None):
                if next(posted) == 20:
                    signal.pthread_kill(main, signal.SIGUSR1)
                time.sleep(0.002)
                return super().post(url, json, headers, timeout)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        ids = [f"i{k:03d}" for k in range(400)]
        oracle = _http(Interrupting({i: [_FakeResponse(f"0.{k:03d}")] for k, i in enumerate(ids)}),
                       max_concurrency=2)
        oracle.cache = OracleCache(tmp_path / "cache.csv")
        previous = signal.signal(signal.SIGUSR1, interrupt)
        try:
            with pytest.raises(KeyboardInterrupt):
                score_batch(oracle, _rows(ids))
        finally:
            signal.signal(signal.SIGUSR1, previous)
        answered = [r["json"]["prompt"].split()[-1] for r in oracle.session.posts]
        assert 20 <= len(answered) <= 20 + 2
        assert OracleCache(tmp_path / "cache.csv").scores() == {i: int(i[1:]) / 1000 for i in answered}

    def test_exhausted_retries_surface_as_failures(self):
        session = _FakeSession({"a": [_FakeResponse("nope", 500)] * 3})
        oracle = _http(session)
        results, failures = oracle.score_uncached(_rows(["a"]))
        assert np.isnan(results).tolist() == [True]
        assert len(failures) == 1 and failures[0][0] == "a"
        assert "500" in failures[0][1]
        assert len(session.posts) == 3

    def test_batch_is_ordered_despite_concurrency(self):
        ids = [f"i{k:02d}" for k in range(12)]
        session = _FakeSession({i: [_FakeResponse(f"0.{k:02d}" if k else "0.0")]
                                for k, i in enumerate(ids)})
        oracle = _http(session, max_concurrency=4)
        pairs = score_batch(oracle, _rows(ids[::-1]))
        assert [i for i, _ in pairs] == ids

    def test_network_exceptions_are_caught_per_instance(self):
        session = _FakeSession({"a": [ConnectionError("down")] * 3})
        oracle = _http(session)
        results, failures = oracle.score_uncached(_rows(["a"]))
        assert np.isnan(results).all() and failures[0][0] == "a"

    def test_os_errors_from_an_injected_session_are_retried(self):
        session = _FakeSession({"a": [TimeoutError("timed out"), ConnectionError("down"), OSError("gone")]})
        results, failures = _http(session).score_uncached(_rows(["a"]))
        assert failures == [("a", "gone")] and len(session.posts) == 3

    def test_an_unexpected_transport_exception_is_posted_once(self):
        session = _FakeSession({"a": [KeyError("frame")] * 3})
        results, failures = _http(session).score_uncached(_rows(["a"]))
        assert np.isnan(results).all()
        assert failures == [("a", "KeyError: 'frame'")]
        assert len(session.posts) == 1

    @pytest.mark.parametrize("concurrency", [1, 2, 8])
    def test_a_transport_exception_keeps_the_paid_scores(self, tmp_path, concurrency):
        ids = [f"i{k:02d}" for k in range(20)]
        script = {i: [_FakeResponse(f"0.{k:02d}")] for k, i in enumerate(ids)}
        script["i05"] = [RuntimeError("socket closed")]
        session = _FakeSession(script)
        oracle = _http(session, max_concurrency=concurrency)
        oracle.cache = OracleCache(tmp_path / "cache.csv")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(OracleError, match="RuntimeError: socket closed") as info:
                score_batch(oracle, _rows(ids))
        finally:
            sys.setswitchinterval(interval)
        posted = [r["json"]["prompt"].split()[-1] for r in session.posts]
        failures = dict(info.value.failures)
        assert posted.count("i05") == 1 and len(posted) == len(set(posted))
        scored = set(posted) - {"i05"}
        assert OracleCache(tmp_path / "cache.csv").scores() == {i: int(i[1:]) / 100 for i in scored}
        assert failures == {"i05": "RuntimeError: socket closed",
                            **{i: "not attempted" for i in ids if i not in posted}}
        if concurrency == 1:  # rows go out in id order, and none after the failure
            assert posted == ids[:6]

    def test_each_pool_thread_opens_its_own_session(self, monkeypatch):
        opened = []

        class RecordingSession:
            def __init__(self):
                self.threads = set()
                self.closed = False
                opened.append(self)

            def post(self, url, json=None, headers=None, timeout=None):
                self.threads.add(threading.get_ident())
                time.sleep(0.002)
                return _FakeResponse("0.5")

            def close(self):
                self.closed = True

        monkeypatch.setattr(oracle_mod, "_KeepAliveSession", RecordingSession)
        oracle = _http(None, max_concurrency=2)
        results, failures = oracle.score_uncached(_rows([f"i{k}" for k in range(8)]))
        assert failures == [] and results.tolist() == [0.5] * 8
        assert 1 <= len(opened) <= 2
        assert all(len(session.threads) == 1 for session in opened)
        assert all(session.closed for session in opened)
        assert score_batch(oracle, _rows(["one"]), column=True).tolist() == [0.5]

    @pytest.mark.parametrize("concurrency", [1, 3])
    def test_a_failing_session_close_keeps_every_score(self, tmp_path, monkeypatch, concurrency):
        class ClosesBadly:
            def post(self, url, json=None, headers=None, timeout=None):
                return _FakeResponse(f"0.{json['prompt'][-1]}")

            def close(self):
                raise OSError("connection reset")

        monkeypatch.setattr(oracle_mod, "_KeepAliveSession", ClosesBadly)
        oracle = _http(None, max_concurrency=concurrency)
        oracle.cache = OracleCache(tmp_path / "cache.csv")
        ids = [f"i{k}" for k in range(10)]
        with pytest.warns(UserWarning, match="closing an HTTP session failed: connection reset"):
            pairs = score_batch(oracle, _rows(ids))
        assert pairs == [(i, int(i[1:]) / 10) for i in ids]
        assert OracleCache(tmp_path / "cache.csv").scores() == dict(pairs)

    def test_a_batch_submits_at_most_max_concurrency_tasks(self, monkeypatch):
        from concurrent.futures import ThreadPoolExecutor

        submitted, submit = [], ThreadPoolExecutor.submit
        monkeypatch.setattr(ThreadPoolExecutor, "submit",
                            lambda pool, *a, **kw: submitted.append(a) or submit(pool, *a, **kw))
        ids = [f"i{k:02d}" for k in range(40)]
        session = _FakeSession({i: [_FakeResponse(f"0.{k:02d}")] for k, i in enumerate(ids)})
        z = score_batch(_http(session, max_concurrency=3), _rows(ids), column=True)
        assert z.tolist() == [k / 100 for k in range(40)]
        assert 1 <= len(submitted) <= 3
        assert len(session.posts) == 40

    def test_every_row_is_posted_once_under_frequent_thread_switches(self):
        ids = [f"i{k:03d}" for k in range(400)]
        session = _FakeSession({i: [_FakeResponse(f"0.{k:03d}")] for k, i in enumerate(ids)})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            z, failures = _http(session, max_concurrency=8).score_uncached(_rows(ids))
        finally:
            sys.setswitchinterval(interval)
        assert failures == [] and z.tolist() == [k / 1000 for k in range(400)]
        assert sorted(r["json"]["prompt"] for r in session.posts) == [f"score {i}" for i in ids]

    def test_every_retry_is_posted_once_under_frequent_thread_switches(self):
        ids = [f"i{k:03d}" for k in range(400)]
        flaky = set(ids[::10])  # each answers 503 once, then its score
        session = _FakeSession({i: [_FakeResponse("busy", 503)] * (i in flaky) + [_FakeResponse(f"0.{k:03d}")]
                                for k, i in enumerate(ids)})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            z, failures = _http(session, max_concurrency=8, backoff=0.001).score_uncached(_rows(ids))
        finally:
            sys.setswitchinterval(interval)
        assert failures == [] and z.tolist() == [k / 1000 for k in range(400)]
        posts = Counter(r["json"]["prompt"].split()[-1] for r in session.posts)
        assert posts == {i: 2 if i in flaky else 1 for i in ids}

    def test_instances_and_dataset_batches_agree(self, tmp_path):
        ids = ["c", "a", "e", "b", "d"]
        strata = [None if i == "e" else f"s{k % 2}" for k, i in enumerate(ids)]
        ds = LabeledDataset.from_arrays(np.zeros((5, 1)), strata=strata, ids=ids)
        seen = []
        for name, batch in (("instances", ds.instances), ("dataset", ds)):
            session = _FakeSession({i: [_FakeResponse(f"0.{k + 1}")] for k, i in enumerate(ids)})
            config = HttpOracleConfig(url="http://127.0.0.1:9/score", model="judge-1",
                                      prompt_template="score {stratum} {id}", max_concurrency=2)
            cache = OracleCache(tmp_path / f"{name}.csv")
            z = score_batch(HttpOracle(config, cache=cache, session=session), batch, column=True)
            prompts = sorted(r["json"]["prompt"] for r in session.posts)
            seen.append((z.tolist(), cache.path.read_bytes(), prompts))
        assert seen[0] == seen[1]
        assert seen[0][0] == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert seen[0][2] == ["score  e", "score s0 c", "score s0 d", "score s1 a", "score s1 b"]

    def test_config_validation(self):
        with pytest.raises(OracleError):
            HttpOracleConfig(url="http://x", model="m", retries=0)
        for url in ("htps://x/score", "ftp://x/score", "x/score"):  # never posted as plain HTTP
            with pytest.raises(OracleError, match="url must start with http:// or https://"):
                HttpOracleConfig(url=url, model="m")
        with pytest.raises(OracleError):
            HttpOracleConfig(url="http://x", model="m", max_concurrency=0)

    @pytest.mark.parametrize("template,named", [
        ("rate {item}", "{item}"), ("{id} in {query} of {doc}", "{doc}, {query}"),
    ])
    def test_a_template_placeholder_other_than_id_and_stratum_is_rejected(self, template, named):
        # found when the config is built, not per row after every row's retries and backoff
        with pytest.raises(OracleError, match=re.escape(f"only {{id}} and {{stratum}}, not {named}")):
            HttpOracleConfig(url="http://x", model="m", prompt_template=template)
        HttpOracleConfig(url="http://x", model="m", prompt_template="{stratum}/{id} {not-a-key}")

    @pytest.mark.parametrize("field,value", [
        ("backoff", -0.5), ("backoff", float("nan")),
        ("timeout", 0.0), ("timeout", -1.0), ("timeout", float("nan")),
    ])
    def test_config_rejects_bad_timing(self, field, value):
        # a negative sleep or a non-positive timeout would raise mid-batch and lose paid-for scores
        with pytest.raises(OracleError, match=field):
            HttpOracleConfig(url="http://x", model="m", **{field: value})
