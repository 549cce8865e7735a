import pyarrow as pa
import pyarrow.compute as pc
import pytest

from pdf_to_text_ray.pipelines.builder import (
    CompiledSegmenter,
    SegmentConfig,
    Stage,
    build_pipeline,
)
from pdf_to_text_ray.stages.segment import extract_blocks, parse_block_records


def test_default_config_matches_reference_segmenter():
    seg = SegmentConfig().compile()
    text = ("noise\nSucursal 7 - X\n8412345678905 2 24.95\n"
            "* Total importe en la sucursal: 49.90\nSucursal 8 - Y\ntail")
    assert seg.extract_blocks(text) == extract_blocks(text)
    blk = seg.extract_blocks(text)[0]
    assert seg.parse_records(blk) == parse_block_records(blk)


def test_custom_markers():
    cfg = SegmentConfig(start_marker="store", end_pattern=r"-- end of store --",
                        record_pattern=r"^(\w+)\s+(\d+)\s+(\d+\.\d+)$")
    seg = cfg.compile()
    text = "Store A\nsku1 2 10.50\n-- END OF STORE --\nignored"
    blocks = seg.extract_blocks(text)
    assert len(blocks) == 1
    assert seg.parse_records(blocks[0]) == [("A", "sku1", 2, 10.5)]


def test_build_pipeline_chains_stages(ray_session):
    import ray.data as rd

    ds = rd.range(100).map_batches(
        lambda t: pa.table({"x": t["id"]}), batch_format="pyarrow")
    stages = [
        Stage("double", lambda t: pa.table({"x": pc.multiply(t["x"], 2)})),
        Stage("filter", lambda t: t.filter(pc.greater(t["x"], 100))),
    ]
    out = build_pipeline(ds, stages).to_pandas()
    assert len(out) == 49 and out["x"].min() == 102


def test_actor_stage_requires_concurrency():
    class C:
        def __call__(self, b):
            return b

    with pytest.raises(ValueError, match="concurrency"):
        Stage("c", C).apply(None)


def test_no_shadowed_module_constants():
    """Guard against the recurring shadowed-constant bug class
    (_pii_sql, NTILE_SQL, BM25_SQL, BM25_TERMS): a later module-level
    assignment silently repoints every earlier query's oracle at the
    wrong SQL. Reject any duplicate top-level Name assignment in
    queries.py."""
    import ast
    import collections
    import pdf_to_text_ray.pipelines.queries as q

    tree = ast.parse(open(q.__file__).read())
    seen = collections.Counter()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    seen[t.id] += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            seen[node.name] += 1
    dupes = [n for n, c in seen.items() if c > 1]
    assert not dupes, f"shadowed module-level names in queries.py: {dupes}"


def test_query_registry_integrity():
    """Registration drift guards: every oracle key has a query, no
    duplicate keys hide inside the QUERIES / ORACLE_SQL dict literals
    (a duplicate silently overrides the earlier entry — the dict
    builds fine), and every registered callable takes one positional
    sf_dir argument."""
    import ast
    import inspect

    import pdf_to_text_ray.pipelines.queries as Q

    assert set(Q.ORACLE_SQL) <= set(Q.QUERIES), \
        sorted(set(Q.ORACLE_SQL) - set(Q.QUERIES))

    src = inspect.getsource(Q)
    tree = ast.parse(src)
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                getattr(node.targets[0], "id", "") in ("QUERIES",
                                                       "ORACLE_SQL"):
            keys = [k.value for k in node.value.keys]
            dupes = {k for k in keys if keys.count(k) > 1}
            assert not dupes, (node.targets[0].id, sorted(dupes))

    for name, fn in Q.QUERIES.items():
        params = [p for p in inspect.signature(fn).parameters.values()
                  if p.default is inspect.Parameter.empty
                  and p.kind in (p.POSITIONAL_ONLY,
                                 p.POSITIONAL_OR_KEYWORD)]
        assert len(params) == 1, (name, params)


def test_empty_partition_bundles_adopt_declared_schema(ray_session):
    """Aggregates whose output partitions outnumber their keys emit
    zero-column empty blocks; the _raypatch shim must normalize those
    bundles to the operator's declared schema (no RefBundle-divergence
    warning), while leaving GENUINE schema divergences warned."""
    import logging

    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count

    from pdf_to_text_ray import _raypatch

    assert _raypatch.install()  # idempotent; asserts shim is active

    class Capture(logging.Handler):
        def __init__(self):
            super().__init__(level=logging.WARNING)
            self.records = []

        def emit(self, record):
            self.records.append(record)

    # ray.data's logger has propagate=False, so caplog can't see it —
    # attach a handler directly
    cap = Capture()
    lg = logging.getLogger("ray.data")
    lg.addHandler(cap)
    try:
        t = pa.table({"host": ["h" + str(i % 3) for i in range(600)]})
        out = (rd.from_arrow(t).repartition(16)
               .groupby("host").aggregate(Count(alias_name="c"))
               .map_batches(lambda tt: tt.append_column(
                   "_b", pa.array(np.zeros(tt.num_rows), pa.int64())),
                   batch_format="pyarrow")
               .to_pandas())
        assert len(out) == 3
        assert not [r for r in cap.records
                    if "different schema" in r.getMessage()]

        # a genuine divergence (two non-empty schemas) must still warn
        cap.records.clear()

        def two_schemas(tt: pa.Table) -> pa.Table:
            if tt["i"][0].as_py() < 50:
                return pa.table({"a": pa.array([1], pa.int64())})
            return pa.table({"b": pa.array(["x"])})

        rd.from_arrow(pa.table({"i": list(range(100))})) \
            .repartition(4) \
            .map_batches(two_schemas, batch_format="pyarrow") \
            .materialize()
        assert [r for r in cap.records
                if "different schema" in r.getMessage()]
    finally:
        lg.removeHandler(cap)


def _py_files(*roots):
    """(path, top-level dir or file name) of each Python file under the
    repo-relative ``roots``."""
    import pathlib

    base = pathlib.Path(__file__).resolve().parent.parent
    for r in roots:
        p = base / r
        for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p]):
            yield f, r


def test_no_unreferenced_top_level_definitions():
    """Dead-code guard: every top-level function or class in the
    package is referenced somewhere other than its own body, by a name,
    an attribute, an import or an identifier-shaped string (tools and
    benchmarks patch and look up names by string)."""
    import ast

    defs = []  # (file, name)
    refs = set()  # (file, enclosing top-level def or None, name)
    for path, root in _py_files("pdf_to_text_ray", "tests", "tools",
                                "perfbench", "bench.py", "__ray_entry__.py"):
        tree = ast.parse(path.read_text(), str(path))
        in_pkg = root == "pdf_to_text_ray"
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                owner = top.name
                if in_pkg:
                    defs.append((path, top.name))
            for n in ast.walk(top):
                if isinstance(n, ast.Name):
                    refs.add((path, owner, n.id))
                elif isinstance(n, ast.Attribute):
                    refs.add((path, owner, n.attr))
                elif isinstance(n, ast.alias):
                    refs.add((path, owner, n.name.rsplit(".", 1)[-1]))
                elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                      and n.value.isidentifier()):
                    refs.add((path, owner, n.value))
    used = {}
    for path, owner, name in refs:
        used.setdefault(name, set()).add((path, owner))
    dead = sorted(name for path, name in defs
                  if not used.get(name, set()) - {(path, name)})
    assert not dead, f"unreferenced top-level definitions: {dead}"


def test_queries_round_through_round6():
    """One rounding policy: 6-digit roundings in queries.py go through
    round6 (DuckDB's half-away-from-zero), never the half-to-even
    builtin round, np.round or pandas .round."""
    import ast

    import pdf_to_text_ray.pipelines.queries as Q

    def six(a):
        return isinstance(a, ast.Constant) and a.value == 6

    left = []
    for n in ast.walk(ast.parse(open(Q.__file__).read())):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        if (isinstance(f, ast.Name) and f.id == "round"
                and len(n.args) == 2 and six(n.args[1])):
            left.append(n.lineno)
        elif isinstance(f, ast.Attribute) and f.attr == "round" and (
                (len(n.args) == 2 and six(n.args[1]))
                or (len(n.args) == 1 and six(n.args[0]))):
            left.append(n.lineno)
    assert not left, f"6-digit roundings not through round6 at lines {left}"
    # a binary tie: half-away-from-zero rounds up where the builtin
    # rounds to even
    assert Q.round6(0.0078125) == 0.007813
    assert round(0.0078125, 6) == 0.007812
    assert Q.round6(-0.0078125) == -0.007813
