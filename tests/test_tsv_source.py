"""TSV source: reference MP-path parse semantics + end-to-end index parity
with the oracle built from the same lines."""

import pytest

from web_search_engine_ray.oracle import OracleIndex
from web_search_engine_ray.pipelines.query import Searcher
from web_search_engine_ray.sources.tsv import build_index_from_tsv, tsv_to_corpus

LINES = [
    "0\tthe cat sat on the mat",
    "1\tcol1\tcol2\tthe dog ate the cat",  # multi-tab: LAST field is text
    "noTabLine cat dog",                     # tab-less: whole line is text
    "3\t",                                   # empty text
    "   ",                                   # whitespace-only: dl=0, keeps docid
    "5\tU.S. policy & 3.14",
]


def _expected_texts():
    out = []
    for line in LINES:
        out.append(line.split("\t")[-1] if line.strip() else "")
    return out


@pytest.fixture(scope="module")
def tsv_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("tsv") / "collection.tsv"
    p.write_text("\n".join(LINES) + "\n", encoding="utf-8")
    return str(p)


def test_tsv_to_corpus_positional(tsv_file, tmp_path):
    import pyarrow.parquet as pq

    paths = tsv_to_corpus(tsv_file, str(tmp_path / "c"), rows_per_file=4)
    assert len(paths) == 2  # 6 lines, 4 per file
    rows = []
    for p in paths:
        rows.extend(pq.read_table(p).to_pylist())
    assert [r["text"] for r in rows] == _expected_texts()
    ids = [r["conv_id"] for r in rows]
    assert ids == sorted(ids)
    assert rows[2]["text"] == "noTabLine cat dog"
    assert rows[4]["text"] == ""


def test_blank_line_semantics(tsv_file, tmp_path):
    """Pin the deliberate divergence from the reference MP path
    (build_runs_mp.py:82-84): a whitespace-only line keeps its docid as a
    dl=0 row and COUNTS in N/avgdl here, whereas the reference skips it
    (docid consumed, excluded from doc_lengths)."""
    import pyarrow.parquet as pq

    paths = tsv_to_corpus(tsv_file, str(tmp_path / "c2"))
    rows = []
    for p in paths:
        rows.extend(pq.read_table(p).to_pylist())
    # every input line — including the whitespace-only one — yields a row
    assert len(rows) == len(LINES)
    assert rows[4]["text"] == ""  # the "   " line: dl will be 0, N includes it


def test_tsv_index_matches_oracle(ray_session, tsv_file, tmp_path):
    build = build_index_from_tsv(
        tsv_file, str(tmp_path / "idx"), partition_rows=3, num_shards=2, n_salts=2
    )
    oracle = OracleIndex.build(list(enumerate(_expected_texts())))
    assert build["n_docs"] == oracle.N == 6
    s = Searcher(str(tmp_path / "idx"))
    for term in ["cat", "dog", "the", "u.s", "3.14", "policy"]:
        d, f = s.postings(term)
        want_d, want_f = oracle.postings(term)
        assert d.tolist() == want_d, term
        assert f.tolist() == want_f, term
    assert s.doclens.dense().tolist() == [
        oracle.doc_lengths[i] for i in range(6)
    ]
    got = sorted(s.bm25_topk("cat dog", 10, "OR"), key=lambda x: (-x[1], x[0]))
    want = sorted(oracle.ranked_daat("cat dog", 10, "OR"), key=lambda x: (-x[1], x[0]))
    assert got == want
