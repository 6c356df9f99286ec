"""Trigram-pruned pattern search (Cox 2012 Code Search technique):
literal-run extraction, prune-vs-scan equality, the missing-trigram exact
zero, the stop-trigram fallback, and the gate twins."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from web_search_engine_ray.pipelines.grep import (
    _pattern_trigrams,
    _regex_literal_runs,
)


def test_literal_runs():
    assert _regex_literal_runs("spark [a-z]+ join") == ["spark ", " join"]
    assert _regex_literal_runs("customer [a-z]{3} order") == ["customer ", " order"]
    assert _regex_literal_runs("data data data") == ["data data data"]
    # alternation: no globally obligatory run -> conservative scan
    assert _regex_literal_runs("(merge|vector) sort") == []
    # quantifier makes the preceding char optional
    assert _regex_literal_runs("abcd*efg") == ["abc", "efg"]
    # escapes and dot break runs conservatively
    assert _regex_literal_runs(r"foo\d+barx") == ["foo", "barx"]
    assert _regex_literal_runs("a.c") == []


def test_pattern_trigrams():
    codes = _pattern_trigrams("AbCd")
    # lowercased: 'abc', 'bcd'
    want = {ord("a") * 65536 + ord("b") * 256 + ord("c"),
            ord("b") * 65536 + ord("c") * 256 + ord("d")}
    assert set(codes.tolist()) == want
    assert _pattern_trigrams("ab").size == 0


@pytest.fixture(scope="module")
def grep_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("grep_docs")
    texts = [
        "Spark JOIN order",          # matches 'spark join' (case-folded)
        "spark window join",         # regex 'spark [a-z]+ join' only
        "nothing here",
        "spark joinery works",       # contains 'spark join' as substring
        "the spar kjoin trick",      # trigram FP shape: no 'spark join'
    ] + [
        # fillers keep the probe trigrams under the stop-df fraction
        f"assorted filler text number {w}"
        for w in ["one", "two", "three", "four", "five"]
    ]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    return str(d)


def test_substring_and_regex_planted(ray_session, grep_corpus):
    from web_search_engine_ray.pipelines import grep

    got = grep.substring_search(grep_corpus, "Spark Join")
    assert got["docid"].to_pylist() == [0, 3]
    got = grep.regex_search(grep_corpus, "spark [a-z]+ join")
    assert got["docid"].to_pylist() == [1]
    # alternation (no obligatory run): falls back to the verify scan, exact
    got = grep.regex_search(grep_corpus, "(window|order)")
    assert got["docid"].to_pylist() == [0, 1]
    # a literal whose trigrams exist nowhere: exact zero without a scan
    got = grep.substring_search(grep_corpus, "zzzqqq")
    assert got.num_rows == 0


def test_candidates_prune_and_stop(ray_session, grep_corpus):
    from web_search_engine_ray.pipelines import grep

    idx = grep._cached_trigram_index(grep_corpus)
    # 'spark join' candidates: a superset of true matches, pruned below N
    cand = grep._candidates(idx, _pattern_trigrams("spark join"), grep.N_SHARDS)
    assert cand is not None and {0, 3} <= set(cand.tolist()) and len(cand) < 5
    # missing trigram -> exact empty (not None)
    cand = grep._candidates(idx, _pattern_trigrams("zzzqqq"), grep.N_SHARDS)
    assert cand is not None and cand.size == 0
    # below the stop fraction (4/10): prunes to exactly the docs holding
    # every trigram of 'spark' (doc4's 'spar k' lacks 'ark')
    cand = grep._candidates(idx, _pattern_trigrams("spark"), grep.N_SHARDS)
    assert set(cand.tolist()) == {0, 1, 3}


def test_all_stop_trigrams_fall_back(ray_session, tmp_path_factory):
    """A probe whose every trigram exceeds STOP_DF_FRAC: the index refuses
    to prune (None) and the batch operator answers via the verify scan."""
    from web_search_engine_ray.pipelines import grep

    d = tmp_path_factory.mktemp("stop_docs")
    texts = ["spark a", "spark b", "spark c", "spark d", "other"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    idx = grep._cached_trigram_index(str(d))
    # 'spark' in 4/5 docs (> 0.5): every trigram is stop -> None
    assert grep._candidates(idx, _pattern_trigrams("spark"), grep.N_SHARDS) is None
    # the batch operator still answers exactly (distributed verify scan)
    got = grep.substring_search(str(d), "spark")
    assert got["docid"].to_pylist() == [0, 1, 2, 3]


def test_gate_entries_match_oracle(ray_session, oracle_eq):
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    for q in ["substring_search", "regex_search"]:
        got = entrymod.queries()[q](sf).to_pandas()
        want = con.sql(entrymod.oracle_sql()[q]).df()


        oracle_eq(got, want)


def test_trigram_extraction_matches_python(ray_session, grep_corpus):
    """The vectorized buffer-walk extraction == a per-doc Python recount."""
    from web_search_engine_ray.pipelines.grep import _lower_utf8_trigrams

    texts = ["Hello World", "", "ab", "abc", "ABCD éx"]
    arr = pa.array(texts, pa.string())
    docids = np.arange(len(texts), dtype=np.int64)
    codes, dids = _lower_utf8_trigrams(docids, arr)
    got = set(zip(dids.tolist(), codes.tolist()))
    want = set()
    for i, s in enumerate(texts):
        b = s.lower().encode("utf-8")
        for j in range(len(b) - 2):
            want.add((i, b[j] * 65536 + b[j + 1] * 256 + b[j + 2]))
    assert got == want


def test_flask_grep_endpoint(ray_session, grep_corpus, tmp_path_factory):
    from web_search_engine_ray.pipelines import grep
    from web_search_engine_ray.pipelines.build import build_index
    from web_search_engine_ray.serve import create_app

    idx = str(tmp_path_factory.mktemp("grep_bm25"))
    build_index(
        grep_corpus + "/documents.parquet", idx, partition_rows=10, num_shards=2
    )
    tri = grep._cached_trigram_index(grep_corpus)
    client = create_app(
        idx, corpus_dir=grep_corpus + "/documents.parquet", grep_index_dir=tri
    ).test_client()
    r = client.post("/grep", json={"pattern": "Spark Join"})
    assert r.status_code == 200
    body = r.get_json()
    assert body["docids"] == [0, 3] and body["totalResults"] == 2
    r = client.post("/grep", json={"pattern": "spark [a-z]+ join", "regex": True})
    assert r.status_code == 200 and r.get_json()["docids"] == [1]
    # limit: a JSON integer >= 1 (POST /search's topk rule), 100 when null
    r = client.post("/grep", json={"pattern": "Spark Join", "limit": 1})
    assert r.status_code == 200 and r.get_json()["docids"] == [0]
    assert r.get_json()["totalResults"] == 2
    r = client.post("/grep", json={"pattern": "Spark Join", "limit": None})
    assert r.get_json()["docids"] == [0, 3]
    for bad in ("x", -1, 0, True, 1.5):
        r = client.post("/grep", json={"pattern": "Spark Join", "limit": bad})
        assert r.status_code == 400, bad
    # unprunable pattern -> 400 (serving never full-scans)
    r = client.post("/grep", json={"pattern": "(a|b)", "regex": True})
    assert r.status_code == 400
    r = client.post("/grep", json={"pattern": "ab"})
    assert r.status_code == 400
    # bad regex -> 400
    r = client.post("/grep", json={"pattern": "foo(bar", "regex": True})
    assert r.status_code == 400
    # Python-valid but RE2-invalid (backreference): executes past the
    # re.compile validation, must still be a 400 (ArrowInvalid), never a 500
    r = client.post(
        "/grep", json={"pattern": r"(spark) \1 join", "regex": True}
    )
    assert r.status_code == 400
    # no grep index loaded -> 400
    bare = create_app(idx).test_client()
    assert bare.post("/grep", json={"pattern": "spark join"}).status_code == 400
