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


# Definitions that only tests call, each kept on purpose.
_TEST_ONLY_KEPT = {
    # main.ts ports: the block scan, the 10-block chunker, the CSV
    # string and the GET /file/:key lookup
    "extract_blocks": "main.ts:70-109 port; the pipeline uses its spans form",
    "chunk_blocks": "main.ts:116-124 port; batch_size does this in Ray",
    "records_to_csv": "main.ts:39-56 port; write_artifacts streams the rows",
    "lookup_artifact": "GET /file/:key port (main.ts:266-287)",
    # reference implementations the distributed versions are tested on
    "connected_components": "reference for the distributed components",
    "pca_fit": "reference for the distributed PCA",
    # fixture generators
    "make_pages_table": "pages fixture generator",
    "make_incremental_pdf": "incremental-update PDF fixture generator",
    # deleted once the dedup tie fix lands (ROADMAP #5)
    "dedup_pages_latest": "shuffle dedup, pending the winners tie fix",
}


def test_no_unreferenced_top_level_definitions():
    """Dead-code guard: every top-level function or class in the
    package is referenced from program code (the package, tools,
    benchmarks, ``bench.py``, ``__ray_entry__.py``) somewhere other than
    its own body, by a name, an attribute, an import or an
    identifier-shaped string (tools and benchmarks patch and look up
    names by string). A reference from tests alone does not count;
    ``_TEST_ONLY_KEPT`` names the exceptions."""
    import ast
    import pathlib

    base = pathlib.Path(__file__).resolve().parent.parent
    defs = []  # (file, name)
    refs = set()  # (file, enclosing top-level def or None, name)
    for path, root in _py_files("pdf_to_text_ray", "tools", "perfbench",
                                "bench.py", "__ray_entry__.py"):
        if "tests" in path.relative_to(base).parts:
            continue  # perfbench/tests
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
                  if not used.get(name, set()) - {(path, name)}
                  and name not in _TEST_ONLY_KEPT)
    assert not dead, f"unreferenced top-level definitions: {dead}"
    stale = sorted(set(_TEST_ONLY_KEPT) - {name for _, name in defs})
    assert not stale, f"allowlisted names no longer defined: {stale}"


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


def test_no_pandas_map_feeds_an_exchange():
    """A map declared ``batch_format="pandas"`` chained straight into
    ``.groupby(``, ``.aggregate(`` or ``.sort(`` puts the exchange on
    Ray's per-row pandas slow path (see ``groups.arrow_out``). Declare
    such maps pyarrow and convert inside the UDF."""
    import ast

    bad = []
    for path, _ in _py_files("pdf_to_text_ray"):
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("groupby", "aggregate", "sort")):
                continue
            up = n.func.value
            if (isinstance(up, ast.Call) and isinstance(up.func, ast.Attribute)
                    and up.func.attr == "map_batches"
                    and any(k.arg == "batch_format"
                            and isinstance(k.value, ast.Constant)
                            and k.value.value == "pandas"
                            for k in up.keywords)):
                bad.append(f"{path.name}:{n.lineno}")
    assert not bad, f"pandas-declared maps feeding an exchange: {bad}"


def test_no_hand_rolled_partial_merges():
    """Per-batch partials merged on the driver go through
    ``groups.grouped_partials``, which orders them by content before
    one grouped merge. Reject a ``map_batches(...).to_pandas()`` (or
    ``bucketed_group_apply(...).to_pandas()``) frame that a query then
    merges with a pandas ``groupby(...)`` sum, min, max or agg, inline
    or through a name bound in the same function."""
    import ast

    import pdf_to_text_ray.pipelines.queries as Q

    def call_to(n, attr):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == attr)

    def partials_frame(n):
        if not call_to(n, "to_pandas"):
            return False
        src = n.func.value
        return isinstance(src, ast.Call) and (
            call_to(src, "map_batches")
            or (isinstance(src.func, ast.Name)
                and src.func.id == "bucketed_group_apply"))

    def base(n):
        # innermost receiver of an attribute/call/subscript chain
        while isinstance(n, (ast.Call, ast.Attribute, ast.Subscript)):
            if partials_frame(n):
                return n
            n = n.func if isinstance(n, ast.Call) else n.value
        return n

    def own_nodes(fn):
        # the function's own statements, not those of nested defs
        todo = [fn]
        while todo:
            n = todo.pop()
            yield n
            todo.extend(c for c in ast.iter_child_nodes(n)
                        if not isinstance(c, (ast.FunctionDef, ast.Lambda)))

    bad = []
    for fn in ast.parse(open(Q.__file__).read()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(own_nodes(fn))
        frames = {t.id for n in nodes if isinstance(n, ast.Assign)
                  and partials_frame(n.value)
                  for t in n.targets if isinstance(t, ast.Name)}
        for n in nodes:
            if not (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("sum", "min", "max", "agg")):
                continue
            g = n.func.value
            while isinstance(g, ast.Subscript):
                g = g.value
            if not call_to(g, "groupby"):
                continue
            b = base(g.func.value)
            if partials_frame(b) or (isinstance(b, ast.Name)
                                     and b.id in frames):
                bad.append(f"{fn.name}:{n.lineno}")
    assert not bad, f"hand-rolled partial merges (use grouped_partials): {bad}"


def test_no_hand_rolled_probes():
    """Membership in a sorted key set goes through
    ``joins.probe_sorted``, the one empty-safe probe. Reject a
    ``K[i] == x`` or ``K[i] != x`` comparison whose index holds
    ``searchsorted(K, ...)``, inline or through names bound in the same
    function."""
    import ast

    def is_searchsorted(n):
        f = getattr(n, "func", None)
        return (isinstance(n, ast.Call) and n.args
                and getattr(f, "attr", getattr(f, "id", None))
                == "searchsorted")

    def own_nodes(fn):
        # the function's own statements, not those of nested defs
        todo = [fn]
        while todo:
            n = todo.pop()
            yield n
            todo.extend(c for c in ast.iter_child_nodes(n)
                        if not isinstance(c, (ast.FunctionDef, ast.Lambda)))

    def probed(expr, held):
        # the key sets ``expr`` holds a searchsorted position into
        out = set()
        for n in ast.walk(expr):
            if is_searchsorted(n):
                out.add(ast.dump(n.args[0]))
            elif isinstance(n, ast.Name):
                out |= held.get(n.id, set())
        return out

    bad = set()  # file:line sites
    for path, _ in _py_files("pdf_to_text_ray"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "probe_sorted":
                continue
            nodes = list(own_nodes(fn))
            held: dict[str, set] = {}
            for _ in range(3):  # names bound through names
                for n in nodes:
                    if isinstance(n, ast.Assign):
                        ks = probed(n.value, held)
                        for t in n.targets:
                            if isinstance(t, ast.Name) and ks:
                                held.setdefault(t.id, set()).update(ks)
            for n in nodes:
                if not (isinstance(n, ast.Compare) and len(n.ops) == 1
                        and isinstance(n.ops[0], (ast.Eq, ast.NotEq))):
                    continue
                if any(isinstance(side, ast.Subscript)
                       and ast.dump(side.value) in probed(side.slice, held)
                       for side in (n.left, n.comparators[0])):
                    bad.add(f"{path.name}:{n.lineno}")
    assert not bad, (
        f"hand-rolled sorted-key probes (use probe_sorted): {sorted(bad)}")


def test_no_hand_rolled_two_sided_exchange():
    """Co-locating two datasets goes through ``groups.cogroup``, the one
    two-sided exchange. Reject a function that ``.union(``s datasets
    and shuffles the union on a bucket by hand: it runs
    ``groupby("_bucket")`` or tags its rows with a ``"_side"`` column."""
    import ast

    def attr_calls(fn, name):
        return [n for n in ast.walk(fn) if isinstance(n, ast.Call)
                and getattr(n.func, "attr", None) == name]

    bad = set()
    for path, _ in _py_files("pdf_to_text_ray"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "cogroup" \
                    or not attr_calls(fn, "union"):
                continue
            by_bucket = any(
                n.args and getattr(n.args[0], "value", None) == "_bucket"
                for n in attr_calls(fn, "groupby"))
            side_tag = any(isinstance(n, ast.Constant) and n.value == "_side"
                           for n in ast.walk(fn))
            if by_bucket or side_tag:
                bad.add(f"{path.name}:{fn.name}")
    assert not bad, (
        f"hand-rolled two-sided exchanges (use groups.cogroup): "
        f"{sorted(bad)}")
