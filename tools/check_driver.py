"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf dir, run its oracle_sql twin in DuckDB, compare
row-count / schema / order-insensitive values.

Usage: python tools/check_driver.py [sf_dir] [query_name ...]
(with query names given, only those entries run — the full gate still runs
everything)
"""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(obj, ray.data.Dataset):
            return obj.to_pandas()
    except ImportError:
        pass
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64").round(9)
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main(
    sf_dir: str, only: list[str] | None = None, shutdown: bool = True
) -> int:
    """Run entries against their twins; returns the failure count.

    ``shutdown=False`` leaves the Ray session up — for callers (pytest)
    that own a session-scoped Ray instance."""
    import ray

    if not ray.is_initialized():
        # WSE_GATE_CPUS varies the partition/parallelism regime — every
        # entry must produce identical results at any CPU count (the
        # empty-hash-partition class is parallelism-dependent)
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("WSE_GATE_CPUS", "8")),
            include_dashboard=False,
        )
    sys.path.insert(0, ".")
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events documents embeddings"
    ).split():
        if os.path.exists(f"{sf_dir}/{t}.parquet"):
            con.sql(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
            )

    qs = entrymod.queries()
    if only:
        unknown = [q for q in only if q not in qs]
        if unknown:
            print(f"FAIL  unknown query names: {unknown}")
            return 1
        qs = {k: qs[k] for k in only}
    sqls = entrymod.oracle_sql()
    failures = 0
    scope = None  # (rows, entities) of documents.text outside UNESC's scope
    for name, fn in qs.items():
        if entrymod.UNESC in sqls.get(name, ""):
            if scope is None:
                texts = [r[0] for r in con.sql("SELECT text FROM documents").fetchall()]
                scope = entrymod.unesc_out_of_scope(texts)
            if scope[0]:
                print(
                    f"FAIL  {name}: out of twin scope: {scope[0]} documents rows "
                    f"hold HTML entities the SQL tokenizer does not unescape {scope[1]}"
                )
                failures += 1
                continue
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL  {name}: ray side raised {type(e).__name__}: {e}")
            failures += 1
            continue
        if name not in sqls:
            print(f"ok*   {name}: rows-only ({len(mine)} rows)")
            continue
        try:
            want = canon(con.sql(sqls[name]).df())
        except Exception as e:
            print(f"FAIL  {name}: oracle sql raised {type(e).__name__}: {e}")
            failures += 1
            continue
        if list(mine.columns) != list(want.columns):
            print(f"FAIL  {name}: columns {list(mine.columns)} != {list(want.columns)}")
            failures += 1
            continue
        if len(mine) != len(want):
            print(f"FAIL  {name}: rows {len(mine)} != {len(want)}")
            failures += 1
            continue
        if not mine.equals(want):
            neq = (mine != want) & ~(mine.isna() & want.isna())
            bad = neq.any(axis=1)
            print(f"FAIL  {name}: {int(bad.sum())}/{len(mine)} mismatched rows")
            print("  mine:", mine[bad].head(3).to_dict("records"))
            print("  want:", want[bad].head(3).to_dict("records"))
            failures += 1
            continue
        print(f"ok    {name}: {len(mine)} rows match")
    # smoke entry()
    if only:
        if shutdown:
            ray.shutdown()
        return failures
    try:
        res = to_pandas(entrymod.entry())
        print(f"ok    entry(): {len(res)} rows, cols {list(res.columns)}")
    except Exception as e:
        print(f"FAIL  entry(): {type(e).__name__}: {e}")
        failures += 1
    if shutdown:
        ray.shutdown()
    return failures


if __name__ == "__main__":
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    sys.exit(min(main(sf, sys.argv[2:] or None), 1))
