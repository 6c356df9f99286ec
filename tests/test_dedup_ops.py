"""Dedup-operator internals: vectorized bucket pairing (+ skew guard),
popcount, batch simhash vs scalar definition, and the banded embedding-LSH
recall/subset contract vs the exact block-pair answer."""

import logging

import numpy as np
import pytest

from web_search_engine_ray.pipelines import dedup
from web_search_engine_ray.pipelines.dedup import (
    _intra_bucket_pairs,
    _popcount64,
    _simhash_batch,
    _token_hashes,
)

SF = "/root/testdata/sf0.001"


def _brute_pairs(keys, doc):
    out = set()
    n = doc.size
    for i in range(n):
        for j in range(n):
            if doc[i] < doc[j] and all(k[i] == k[j] for k in keys):
                out.add((int(doc[i]), int(doc[j])))
    return out


def test_intra_bucket_pairs_matches_bruteforce():
    rng = np.random.default_rng(7)
    band = rng.integers(0, 3, 40)
    key = rng.integers(0, 4, 40)
    doc = rng.permutation(40).astype(np.int64)
    a, b = _intra_bucket_pairs((band, key), doc)
    got = set(zip(a.tolist(), b.tolist()))
    assert got == _brute_pairs((band, key), doc)
    assert np.all(a < b)  # docid-ordered within bucket


def test_intra_bucket_pairs_empty_and_singletons():
    e = np.empty(0, dtype=np.int64)
    a, b = _intra_bucket_pairs((e,), e)
    assert a.size == b.size == 0
    # all-singleton buckets -> no pairs
    k = np.arange(5)
    a, b = _intra_bucket_pairs((k,), k.astype(np.int64))
    assert a.size == 0


def test_intra_bucket_pairs_skew_guard_logs(caplog):
    """An oversized bucket is truncated to its max_bucket smallest docids
    and the truncation is LOGGED (never silent)."""
    key = np.zeros(10, dtype=np.int64)
    doc = np.arange(10, dtype=np.int64)[::-1].copy()
    with caplog.at_level(logging.WARNING):
        a, b = _intra_bucket_pairs((key,), doc, max_bucket=4)
    assert any("truncated" in r.message for r in caplog.records)
    # pairs over docids {0,1,2,3} only (4 smallest), all 6 of them
    assert set(zip(a.tolist(), b.tolist())) == {
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    }


def _naive_signature(tokens) -> np.ndarray:
    """Reference minhash: per permutation p, the min over the doc's unique
    shingles s of splitmix(s ^ seed_p); all-max for a doc with no shingle."""
    seeds = dedup._splitmix(np.arange(1, dedup.MINHASH_PERMS + 1, dtype=np.uint64))
    sig = np.full(dedup.MINHASH_PERMS, np.iinfo(np.uint64).max, dtype=np.uint64)
    for s in set(dedup._shingle_hashes(tokens or []).tolist()):
        sig = np.minimum(sig, dedup._splitmix(np.uint64(s) ^ seeds))
    return sig


def test_batch_signatures_match_naive_reference():
    """The chunked, tiled kernel equals the per-doc definition bit for bit:
    one batch over the chunk cap (and one doc over it on its own), docs
    with fewer than 3 tokens, empty and null texts, repeated whole texts."""
    import pyarrow as pa

    from web_search_engine_ray.functions.tokenize import token_lists

    rng = np.random.default_rng(5)
    vocab = np.array([f"w{i}" for i in range(400)])

    def text(n):
        return " ".join(rng.choice(vocab, n))

    texts = [text(int(n)) for n in rng.integers(3, 200, 600)]
    texts += [text(dedup._MINHASH_CHUNK_SHINGLES + 500), "", "one", "two words", texts[0]]
    texts += texts[:40]  # repeated whole texts
    toks = token_lists(pa.array(texts, pa.string())).to_list()
    assert sum(max(0, len(t) - 2) for t in toks) > 2 * dedup._MINHASH_CHUNK_SHINGLES
    want = np.stack([_naive_signature(t) for t in toks])
    assert (want[601:604] == np.iinfo(np.uint64).max).all()  # "", 1-2 tokens
    np.testing.assert_array_equal(dedup._batch_signatures(toks + [None]), np.vstack(
        [want, np.full((1, dedup.MINHASH_PERMS), np.iinfo(np.uint64).max, np.uint64)]
    ))
    # the distinct-text path (no nulls) and the direct path (nulls)
    np.testing.assert_array_equal(
        dedup._text_signatures(pa.chunked_array([pa.array(texts, pa.string())])), want
    )
    with_null = pa.chunked_array([pa.array(texts + [None], pa.string())])
    got = dedup._text_signatures(with_null)
    np.testing.assert_array_equal(got[:-1], want)
    assert (got[-1] == np.iinfo(np.uint64).max).all()


def test_popcount64():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2**63, 100, dtype=np.int64).view(np.uint64)
    want = [bin(int(v)).count("1") for v in x]
    assert _popcount64(x).tolist() == want


def _scalar_simhash(tokens):
    if not tokens:
        return 0
    hs = _token_hashes(tokens)
    out = 0
    for bit in range(64):
        ones = int(((hs >> np.uint64(bit)) & np.uint64(1)).sum())
        if 2 * ones - len(tokens) > 0:
            out |= 1 << bit
    return out


def test_simhash_batch_matches_scalar():
    docs = [
        ["the", "cat", "sat"],
        [],
        ["spark", "spark", "join", "merge"],
        ["a"],
        ["x" * 30, "y", "z", "y"],
    ]
    got = _simhash_batch(docs)
    want = [_scalar_simhash(t) for t in docs]
    assert [int(v) for v in got] == want


def test_token_hash_is_md5_lower64():
    """The token hash must equal DuckDB md5_number_lower (low 8 bytes of
    md5, little-endian) — the simhash SQL oracle depends on it."""
    import duckdb

    got = int(_token_hashes(["hello"])[0])
    want = duckdb.sql("SELECT md5_number_lower('hello')").fetchone()[0]
    assert got == want


def test_embedding_lsh_subset_and_recall(ray_session):
    """Banded hyperplane LSH: always a subset of the exact block-pair
    answer; recall on the fixture is pinned (deterministic planes)."""
    from web_search_engine_ray.pipelines.dedup import (
        embedding_dups,
        embedding_dups_lsh,
    )

    exact = embedding_dups(SF, tau=0.45).to_pandas()
    approx = embedding_dups_lsh(SF, tau=0.45).to_pandas()
    ke = set(zip(exact["vec_id_a"], exact["vec_id_b"]))
    ka = set(zip(approx["vec_id_a"], approx["vec_id_b"]))
    assert ka <= ke
    assert len(ka & ke) / max(1, len(ke)) >= 0.8
    # cos values agree with the exact table on shared pairs
    em = {(a, b): c for a, b, c in exact.itertuples(index=False)}
    for a, b, c in approx.itertuples(index=False):
        assert em[(a, b)] == pytest.approx(c, abs=1e-9)


def test_simhash_dups_banding_exhaustive(ray_session):
    """4x16-bit band blocking is exhaustive for hamming <= 3: the
    distributed answer equals brute-force over the per-doc hashes."""
    from web_search_engine_ray.pipelines.dedup import simhash_dups, simhash_ds

    sh = simhash_ds(SF).to_pandas().sort_values("docid")
    ids = sh["docid"].to_numpy()
    hs = sh["simhash"].to_numpy().view(np.uint64)
    want = set()
    x = hs[:, None] ^ hs[None, :]
    ham = _popcount64(x.reshape(-1)).reshape(x.shape)
    ii, jj = np.nonzero(ham <= 3)
    for i, j in zip(ii, jj):
        if ids[i] < ids[j]:
            want.add((int(ids[i]), int(ids[j]), int(ham[i, j])))
    got = simhash_dups(SF, max_hamming=3).to_pandas()
    assert set(zip(got["docid_a"], got["docid_b"], got["hamming"])) == want


@pytest.fixture(scope="module")
def heavy_dup_corpus(tmp_path_factory):
    """Adversarial corpus: many byte-identical docs (one giant dup cluster),
    a few uniques, and empty docs — the skew case the bucket guard exists
    for."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("dup_heavy")
    texts = (
        ["the quick brown fox jumps over the lazy dog again"] * 40
        + [f"unique doc number {i} with words w{i} x{i} y{i} z{i}" for i in range(10)]
        + ["", ""]
    )
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


def test_simhash_dups_under_heavy_duplication(ray_session, heavy_dup_corpus):
    """40 identical docs -> all C(40,2) pairs at hamming 0; the two empty
    docs pair at hamming 0 too; identical-vs-empty must NOT pair."""
    from web_search_engine_ray.pipelines.dedup import simhash_dups

    got = simhash_dups(heavy_dup_corpus, max_hamming=3).to_pandas()
    pairs = set(zip(got["docid_a"], got["docid_b"]))
    want = {(a, b) for a in range(40) for b in range(a + 1, 40)}
    want.add((50, 51))  # the two empty docs (simhash 0)
    assert want <= pairs
    assert all(h == 0 for _, _, h in got[got.docid_a < 40].itertuples(index=False))
    assert not any((a < 40) != (b < 40) for a, b in pairs if a < 40 or b < 40 if (a, b) != (50, 51))


def test_exact_dedup_under_heavy_duplication(ray_session, heavy_dup_corpus):
    from web_search_engine_ray.pipelines.dedup import exact_dedup_ds

    got = exact_dedup_ds(heavy_dup_corpus).to_pandas()
    # 1 dup-cluster survivor + 10 uniques + 1 empty-text group = 12 groups
    assert len(got) == 12
    by_hash = got.set_index("text_hash")["docid"]
    assert 0 in set(by_hash)  # min docid of the 40-clone cluster survives


def test_minhash_guard_caps_giant_bucket(ray_session, heavy_dup_corpus):
    """With max_bucket set, the 40-clone bucket is truncated (logged) and
    the pair count drops accordingly; without it, all clone pairs emerge."""
    from web_search_engine_ray.pipelines.dedup import minhash_lsh_candidates_ds

    full = minhash_lsh_candidates_ds(heavy_dup_corpus).to_pandas()
    clone_pairs = {(a, b) for a, b in zip(full["docid_a"], full["docid_b"]) if b < 40}
    assert len(clone_pairs) == 40 * 39 // 2
    capped = minhash_lsh_candidates_ds(heavy_dup_corpus, max_bucket=8).to_pandas()
    capped_clone = {
        (a, b) for a, b in zip(capped["docid_a"], capped["docid_b"]) if b < 40
    }
    assert len(capped_clone) == 8 * 7 // 2  # truncated to the 8 smallest docids


def test_fast_hash_path_matches_md5(ray_session, heavy_dup_corpus):
    """hash_fn='fast' (vectorized 64-bit polars hash) must pick the same
    survivors as the oracle-checked md5 path — collisions are a 10^9-doc
    concern, not a fixture concern."""
    from web_search_engine_ray.pipelines.curate import curated_docs_ds
    from web_search_engine_ray.pipelines.dedup import exact_dedup_ds

    md5 = exact_dedup_ds(heavy_dup_corpus).to_pandas()
    fast = exact_dedup_ds(heavy_dup_corpus, hash_fn="fast").to_pandas()
    assert sorted(md5["docid"]) == sorted(fast["docid"])
    assert str(fast["text_hash"].dtype) == "uint64"

    c_md5 = curated_docs_ds(heavy_dup_corpus).to_pandas()
    c_fast = curated_docs_ds(heavy_dup_corpus, hash_fn="fast").to_pandas()
    assert sorted(c_md5["docid"]) == sorted(c_fast["docid"])


def test_text_hash_column_rejects_unknown():
    import pyarrow as pa
    import pytest as _pytest

    from web_search_engine_ray.pipelines.dedup import text_hash_column

    with _pytest.raises(ValueError, match="hash_fn"):
        text_hash_column(pa.array(["x"], pa.string()), "sha1")


def test_null_text_groups_like_sql(ray_session, tmp_path):
    """NULL-text docs form one dedup group, SEPARATE from empty-string
    docs — SQL GROUP BY md5(text) semantics (md5(NULL) IS NULL, NULLs
    group together)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.dedup import exact_dedup_ds

    d = str(tmp_path / "nulls")
    os.makedirs(d)
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array([None, "", None, "", "x"], pa.string()),
        }
    )
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    got = exact_dedup_ds(d).to_pandas()
    # groups: {0,2} nulls, {1,3} empties, {4} -> 3 survivors 0, 1, 4
    assert sorted(got["docid"]) == [0, 1, 4]
    fast = exact_dedup_ds(d, hash_fn="fast").to_pandas()
    assert sorted(fast["docid"]) == [0, 1, 4]


def test_holdout_contamination_matches_bruteforce(ray_session, tmp_path):
    """Engine result == literal-string 8-gram brute force on a synthetic
    corpus with known contamination; docs shorter than n grams never hit."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_search_engine_ray.functions.tokenize import tokenize
    from web_search_engine_ray.pipelines.dedup import holdout_contamination_ds

    base = "alpha beta gamma delta epsilon zeta eta theta"  # exactly 8 tokens
    docs = {
        0: base + " iota kappa",  # holdout
        1: "one two three four five six seven eight nine",  # holdout
        # corpus: contains several of doc 0's grams
        10: "x " + base + " iota y",
        # corpus: shares no 8-gram
        11: "unrelated words entirely different from the holdout set ok",
        # corpus: too short for any 8-gram
        12: "short doc",
        # corpus: exact copy of holdout doc 1 -> all its grams hit
        13: "one two three four five six seven eight nine",
    }
    d = str(tmp_path / "contam")
    os.makedirs(d)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(sorted(docs), pa.int64()),
                "text": pa.array([docs[k] for k in sorted(docs)], pa.string()),
            }
        ),
        os.path.join(d, "documents.parquet"),
    )

    def grams(text, n=8):
        t = tokenize(text)
        return {" ".join(t[i : i + n]) for i in range(len(t) - n + 1)}

    hold = set().union(*(grams(docs[k]) for k in (0, 1)))
    want = {}
    for k in (10, 11, 12, 13):
        hits = len(grams(docs[k]) & hold)
        if hits:
            want[k] = hits

    got = holdout_contamination_ds(d, holdout_max_docid=10, n=8).to_pandas()
    assert dict(zip(got["docid"], got["n_hits"])) == want
    assert 12 not in set(got["docid"])  # too-short doc absent, not 0-row


@pytest.fixture(scope="module")
def span_dir(tmp_path_factory):
    """Planted duplicated spans: a 5-token phrase shared across two docs, a
    doc with internal repetition, plus a no-dup doc and too-short/empty
    docs that must not appear in the output."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("span")
    texts = [
        "alpha beta gamma delta epsilon zeta",        # shares 5-token run with doc 2
        "one two three four five six seven",           # no dups
        "xx alpha beta gamma delta epsilon yy",        # shares run with doc 0
        "a b c d a b c d",                             # internal repeat of "a b c d"
        "",                                            # no k-grams -> excluded
        "p q r",                                       # < k tokens -> excluded
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(t, str(d / "documents.parquet"))
    return str(d)


def test_dup_spans_planted(ray_session, span_dir):
    from web_search_engine_ray.pipelines.dedup import dup_spans_ds

    got = (
        dup_spans_ds(span_dir, k=4)
        .to_pandas()
        .sort_values("docid")
        .reset_index(drop=True)
    )
    rows = {
        int(r.docid): (
            int(r.n_kgrams),
            int(r.n_dup_kgrams),
            int(r.n_spans),
            int(r.max_span_tokens),
        )
        for r in got.itertuples()
    }
    assert rows == {
        0: (3, 2, 1, 5),   # positions 1-2 dup ("alpha beta gamma delta", "beta gamma delta epsilon")
        1: (4, 0, 0, 0),
        2: (4, 2, 1, 5),   # same two k-grams at positions 2-3
        3: (5, 2, 2, 4),   # "a b c d" at positions 1 and 5: two length-1 runs
    }


def test_dup_spans_fast_path_matches_md5(ray_session, span_dir):
    from web_search_engine_ray.pipelines.dedup import dup_spans_ds

    md5 = dup_spans_ds(span_dir, k=4, hash_fn="md5").to_pandas()
    fast = dup_spans_ds(span_dir, k=4, hash_fn="fast").to_pandas()
    md5 = md5.sort_values("docid").reset_index(drop=True)
    fast = fast.sort_values("docid").reset_index(drop=True)
    assert md5.equals(fast)


def test_dup_spans_validation():
    from web_search_engine_ray.pipelines.dedup import dup_spans_ds

    with pytest.raises(ValueError, match="k must be"):
        dup_spans_ds("/tmp/x", k=1)
    with pytest.raises(ValueError, match="hash_fn"):
        dup_spans_ds("/tmp/x", hash_fn="sha1")


def test_dup_span_clean_planted(ray_session, span_dir):
    from web_search_engine_ray.pipelines.dedup import dup_span_clean_ds

    got = (
        dup_span_clean_ds(span_dir, k=4)
        .to_pandas()
        .sort_values("docid")
        .reset_index(drop=True)
    )
    rows = {
        int(r.docid): (int(r.n_tokens), int(r.n_removed), r.kept_text)
        for r in got.itertuples()
    }
    # every doc appears, including the empty and the too-short one
    assert set(rows) == {0, 1, 2, 3, 4, 5}
    # doc 0 holds the winning occurrences -> untouched
    assert rows[0] == (6, 0, "alpha beta gamma delta epsilon zeta")
    assert rows[1] == (7, 0, "one two three four five six seven")
    # doc 2 loses "alpha beta gamma delta"@2 and "beta gamma delta epsilon"@3:
    # covered token positions 2..6 -> keeps "xx" and "yy"
    assert rows[2] == (7, 5, "xx yy")
    # doc 3: "a b c d"@5 loses to @1 -> covered 5..8, keeps the first copy
    assert rows[3] == (8, 4, "a b c d")
    assert rows[4] == (0, 0, "")
    assert rows[5] == (3, 0, "p q r")


def test_dup_span_clean_fast_path_matches_md5(ray_session, span_dir):
    from web_search_engine_ray.pipelines.dedup import dup_span_clean_ds

    md5 = dup_span_clean_ds(span_dir, k=4).to_pandas().sort_values("docid")
    fast = (
        dup_span_clean_ds(span_dir, k=4, hash_fn="fast")
        .to_pandas()
        .sort_values("docid")
    )
    assert md5.reset_index(drop=True).equals(fast.reset_index(drop=True))


def test_incremental_bloom_dedup(ray_session, tmp_path):
    """Exact-dup increments always flag (no false negatives); fresh docs
    pass as novel at this sizing (FP ~ (docs/bits)^k ~ 0)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.dedup import incremental_novel_ds

    d = tmp_path / "inc"
    d.mkdir()
    prior = [f"snapshot doc number {i} stable content" for i in range(50)]
    new = [
        prior[3],                       # 50: exact dup of a prior doc
        prior[17],                      # 51: exact dup
        "a genuinely new document",     # 52: novel
        "another unseen crawl result",  # 53: novel
        prior[3],                       # 54: dup again
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(prior) + len(new)), pa.int64()),
            "text": pa.array(prior + new, pa.string()),
        }
    )
    pq.write_table(t, str(d / "documents.parquet"))
    got = (
        incremental_novel_ds(str(d), prior_max_docid=50)
        .to_pandas()
        .set_index("docid")["novel"]
        .to_dict()
    )
    assert got == {50: False, 51: False, 52: True, 53: True, 54: False}


def test_incremental_bloom_twin_with_dups(ray_session, oracle_eq, tmp_path):
    """The SQL twin replays the Bloom bit layout exactly: on a planted
    corpus where novel=False actually occurs (exact dups across the
    doc_id=100 split the gate twin hardcodes), engine == twin."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from web_search_engine_ray.pipelines.dedup import incremental_novel_ds

    d = tmp_path / "inctwin"
    d.mkdir()
    prior = [f"snapshot doc number {i} stable content" for i in range(100)]
    new = [prior[3], "a genuinely new document", prior[42], None, ""]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(prior) + len(new)), pa.int64()),
            "text": pa.array(prior + new, pa.string()),
        }
    )
    pq.write_table(t, str(d / "documents.parquet"))
    got = incremental_novel_ds(str(d), prior_max_docid=100).to_pandas()
    assert got.set_index("docid")["novel"].to_dict() == {
        100: False, 101: True, 102: False, 103: True, 104: True,
    }
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{d}/documents.parquet')"
    )
    oracle_eq(
        got, con.sql(entrymod.oracle_sql()["incremental_novel"]).df()
    )


def test_bloom_filter_no_false_negatives_bulk(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.dedup import incremental_novel_ds

    d = tmp_path / "incbulk"
    d.mkdir()
    prior = [f"doc {i} " + "x" * (i % 7) for i in range(300)]
    dup_new = prior[::3]  # every one must flag as seen
    t = pa.table(
        {
            "doc_id": pa.array(range(300 + len(dup_new)), pa.int64()),
            "text": pa.array(prior + dup_new, pa.string()),
        }
    )
    pq.write_table(t, str(d / "documents.parquet"))
    got = incremental_novel_ds(str(d), prior_max_docid=300).to_pandas()
    assert (~got["novel"]).all()


# -- containment join (prefix-filter candidates) -------------------------------


def test_containment_catches_subset_dup(ray_session, tmp_path_factory):
    """A short doc pasted inside a long one: containment 1.0, Jaccard far
    below 0.8 — the pair the Jaccard join (and its minhash seeding) misses
    by design."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from web_search_engine_ray.pipelines.dedup import (
        containment_dups,
        ngram_jaccard_dups,
    )

    d = tmp_path_factory.mktemp("contain_docs")
    short = "alpha beta gamma delta epsilon"
    long_ = short + " " + " ".join(f"filler{i}" for i in range(40))
    texts = [short, long_, "totally different words here now"]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        ),
        str(d / "documents.parquet"),
    )
    got = containment_dups(str(d), tau=0.8).to_pandas()
    pairs = set(zip(got.docid_a, got.docid_b))
    assert (0, 1) in pairs
    row = got[(got.docid_a == 0) & (got.docid_b == 1)].iloc[0]
    assert row.containment == 1.0
    assert (0, 2) not in pairs and (1, 2) not in pairs
    # the Jaccard join must NOT report the subset pair at the same tau
    # (an empty result loses its column names through the exchange)
    j = ngram_jaccard_dups(str(d), tau=0.8).to_pandas()
    assert j.empty or (0, 1) not in set(zip(j["docid_a"], j["docid_b"]))


def test_containment_matches_oracle(ray_session, oracle_eq):
    import duckdb
    import pandas as pd

    import __ray_entry__ as entrymod

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    got = entrymod.queries()["containment_dups"](sf).to_pandas()
    want = con.sql(entrymod.oracle_sql()["containment_dups"]).df()


    oracle_eq(got, want)


# -- shared near-dup kernel: one code path for int and string ids -------------


def _kernel_texts():
    """30 seeded texts plus planted clones: 10..14 copy 0..4 with one word
    changed (jaccard near 1), 15..16 copy 5..6 exactly, 17 is 7 with a
    long tail appended (contained in 17, low jaccard)."""
    rng = np.random.default_rng(11)
    vocab = [f"w{i:03d}" for i in range(200)]
    texts = [" ".join(rng.choice(vocab, 24)) for _ in range(30)]
    for i in range(5):
        texts[10 + i] = texts[i].replace(texts[i].split()[3], "changed", 1)
    texts[15], texts[16] = texts[5], texts[6]
    texts[17] = texts[7] + " " + " ".join(rng.choice(vocab, 60))
    return texts


def test_kernel_same_pairs_and_scores_for_int_and_string_ids(ray_session):
    """``_minhash_pairs`` + ``_verified_pairs`` give the same pairs and the
    same jaccard/containment scores whether ids are int64 docids or
    zero-padded string ids (string order == numeric order), and the
    verified pairs equal a brute-force all-pairs answer. The kernel runs on
    block refs."""
    import pyarrow as pa
    import ray

    from web_search_engine_ray.functions.tokenize import token_lists
    from web_search_engine_ray.pipelines.dedup import (
        _minhash_pairs,
        _shingle_hashes,
        _verified_pairs,
    )

    texts = _kernel_texts()
    n = len(texts)
    id_cols = {
        "int": pa.array(range(n), pa.int64()),
        "str": pa.array([f"c{i:05d}" for i in range(n)], pa.string()),
    }
    got = {}
    for kind, ids in id_cols.items():
        t = pa.table({"key": ids, "body": pa.array(texts, pa.string())})
        blocks = [ray.put(t.slice(0, 12)), ray.put(t.slice(12))]
        cand = _minhash_pairs(blocks, "key", "body", ("a", "b"), 8)
        tab = pa.concat_tables(ray.get(cand))
        rows = {"cand": set(zip(tab["a"].to_pylist(), tab["b"].to_pylist()))}
        for metric, tau in (("jaccard", 0.5), ("containment", 0.8)):
            out = _verified_pairs(cand, blocks, "key", "body", ("a", "b"), metric, tau, 8)
            tab = pa.concat_tables(ray.get(out))
            assert tab.schema.field("a").type == ids.type
            rows[metric] = set(
                zip(tab["a"].to_pylist(), tab["b"].to_pylist(), tab[metric].to_pylist())
            )
        got[kind] = rows

    def num(v):
        return v if isinstance(v, int) else int(v[1:])

    for part in ("cand", "jaccard", "containment"):
        as_int = {(num(r[0]), num(r[1])) + tuple(r[2:]) for r in got["str"][part]}
        assert as_int == got["int"][part], part
        assert all(a < b for a, b, *_ in got["int"][part])

    sh = [_shingle_hashes(tl) for tl in token_lists(pa.array(texts)).to_list()]
    want = {"jaccard": set(), "containment": set()}
    for i in range(n):
        for k in range(i + 1, n):
            inter = np.intersect1d(sh[i], sh[k]).size
            jac = inter / (sh[i].size + sh[k].size - inter)
            con = inter / min(sh[i].size, sh[k].size)
            if jac >= 0.5:
                want["jaccard"].add((i, k, round(jac, 6)))
            if con >= 0.8:
                want["containment"].add((i, k, round(con, 6)))
    assert got["int"]["jaccard"] == want["jaccard"]
    # containment is verified over the minhash candidates here, so it is
    # the brute-force answer restricted to them; the contained pair (7, 17)
    # is a candidate of these seeded texts but its jaccard is below 0.5
    assert got["int"]["containment"] == {
        r for r in want["containment"] if r[:2] in got["int"]["cand"]
    }
    assert (7, 17, 1.0) in got["int"]["containment"]
    assert (7, 17) not in {r[:2] for r in got["int"]["jaccard"]}
    planted = {(i, 10 + i) for i in range(5)} | {(5, 15), (6, 16)}
    assert planted <= {r[:2] for r in got["int"]["jaccard"]}


def test_distinct_pairs_one_row_per_pair_across_blocks(ray_session):
    """Duplicate (a, b) rows spread over several input blocks, one of them
    empty, come out once each with their payload, for int and string ids."""
    import pyarrow as pa
    import ray

    from web_search_engine_ray.pipelines.dedup import _distinct_pairs

    def str_ids(xs):
        return pa.array([f"d{x}" for x in xs], pa.string())

    for ids in (lambda xs: pa.array(xs, pa.int64()), str_ids):

        def block(a, b, h):
            return pa.table({"a": ids(a), "b": ids(b), "h": pa.array(h, pa.int64())})

        blocks = [
            block([1, 2, 1], [5, 6, 5], [0, 3, 0]),
            block([], [], []),
            block([2, 1, 7], [6, 5, 8], [3, 0, 1]),
            block([7], [8], [1]),
        ]
        out = _distinct_pairs([ray.put(b) for b in blocks], "a", "b", 4)
        tab = pa.concat_tables(ray.get(out))
        assert tab.schema == blocks[0].schema
        def rows(t):
            return sorted(zip(*(t[c].to_pylist() for c in ("a", "b", "h"))))

        assert rows(tab) == rows(block([1, 2, 7], [5, 6, 8], [0, 3, 1]))
