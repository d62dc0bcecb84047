"""
The oracle scoring pipeline: prompts, parsing, caching, batching
================================================================

Oracle scores are expensive, so the pipeline is built around a CSV cache
and a uniform provider interface. This walk-through uses the synthetic
provider (no network) but exercises the same machinery an HTTP judge
would: prompt rendering, free-text answer parsing, cache-first batching,
and failure aggregation.
"""

import tempfile
from pathlib import Path

from scorefusion import (
    CachedOracle,
    LabeledDataset,
    OracleCache,
    OracleError,
    ScoreParseError,
    SyntheticOracle,
    SyntheticOracleSpec,
    parse_score,
    render_prompt,
    score_batch,
)
from scorefusion.data import synthesize
from scorefusion.config import SyntheticSpec

# --- prompt templates substitute named fields; other braces stay literal ---
template = "Rate the relevance of document {id} (group {stratum}) from 0 to 1. Reply {\"score\": x}."
print(render_prompt(template, {"id": "doc_042", "stratum": "news"}))

# --- the parser tries JSON first, then bare numbers, then keywords ---
for reply in (
    '{"score": 0.85, "reason": "on topic"}',
    "I would rate this 7 out of 10, so 0.7.",
    "Definitely relevant.",
    "no",
):
    print(f"  {reply!r:45s} -> {parse_score(reply)}")
try:
    parse_score("cannot say")
except ScoreParseError as err:
    print(f"  'cannot say' -> raises: {err}")

# --- a small dataset and a synthetic judge with 80% agreement ---
data = synthesize(SyntheticSpec(d=4, n=12, true_weights=(1.0, -1.0, 0.5, -0.5, 0.0), seed=3))

with tempfile.TemporaryDirectory() as tmp:
    cache_path = Path(tmp) / "scores.csv"
    cache = OracleCache(cache_path)
    # every provider takes its cache the same way: score_batch reads it first
    oracle = SyntheticOracle(SyntheticOracleSpec(accuracy=0.8, seed=9), cache=cache)

    # first batch: every row goes to the judge, results land in the cache
    z = score_batch(oracle, data, column=True)
    first = list(zip(data.ids()[:3], z[:3].tolist()))
    print(f"\nscored {data.n} instances, first three: {first}")
    print(f"cache now holds {len(cache)} rows at {cache_path.name}")

    # replay: a cache-backed provider answers without touching the judge
    replay = CachedOracle(cache)
    again = score_batch(replay, data, column=True)
    print(f"replayed from cache, identical: {again.tolist() == z.tolist()}")

    # a row outside the cache fails loudly, listing every failure
    stranger = LabeledDataset.from_arrays(data.X[:1], ids=["never_scored"])
    try:
        score_batch(replay, stranger)
    except OracleError as err:
        print(f"unknown id -> {err}")
