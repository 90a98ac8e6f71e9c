"""Call-graph and raise-flow edge cases: recursion, methods, dispatch, opacity.

Each test writes a miniature project into ``tmp_path``, parses it through
the same :class:`Module`/:func:`collect_classes` pipeline the linter uses,
and checks the graph/analysis behaviour directly — the corpus self-test in
``test_recheck_lint.py`` covers the end-to-end exact-line behaviour.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from . import hotpath, raises
from .callgraph import build_call_graph, parse_may_raise
from .common import Module, collect_classes


def project(tmp_path: Path, **files: str):
    modules = []
    for name, source in files.items():
        path = tmp_path / f"{name}.py"
        path.write_text(textwrap.dedent(source))
        modules.append(Module.parse(path))
    classes = collect_classes(modules)
    return modules, classes, build_call_graph(modules, classes)


# Indented to match the test-body literals so the combined source dedents
# to a flush module (a mismatch would nest the code inside the last class).
TAXONOMY = """
        class ReCacheError(Exception):
            pass

        class TransientScanError(ReCacheError):
            pass
"""


def escapes_by_display(modules, classes, graph):
    taxonomy = raises.error_taxonomy(classes)
    escapes = raises.compute_escapes(graph, taxonomy)
    return {graph.functions[fid].display: set(names) for fid, names in escapes.items()}


def test_recursive_call_chain_converges(tmp_path):
    modules, classes, graph = project(
        tmp_path,
        rec=TAXONOMY
        + """
        def ping(n):
            if n <= 0:
                raise TransientScanError("bottom")
            return pong(n - 1)

        def pong(n):
            return ping(n - 1)

        def entry(n):
            return ping(n)
        """,
    )
    escapes = escapes_by_display(modules, classes, graph)
    # The mutual recursion reaches a fixed point and propagates to the root.
    assert escapes["ping"] == {"TransientScanError"}
    assert escapes["pong"] == {"TransientScanError"}
    assert escapes["entry"] == {"TransientScanError"}


def test_method_resolution_through_base_chain(tmp_path):
    modules, classes, graph = project(
        tmp_path,
        meth=TAXONOMY
        + """
        class Base:
            def scan(self):
                raise TransientScanError("base impl")

        class Child(Base):
            def run(self):
                return self.scan()

        def drive(child):
            return Child().run()
        """,
    )
    (base_scan,) = graph.by_display("Base.scan")
    (child_run,) = graph.by_display("Child.run")
    # self.scan() on Child resolves through the inherited Base.scan.
    assert graph.resolve_method("Child", "scan") == base_scan
    assert base_scan in graph.edges[child_run]
    escapes = escapes_by_display(modules, classes, graph)
    assert escapes["Child.run"] == {"TransientScanError"}
    assert escapes["drive"] == {"TransientScanError"}


def test_dynamic_call_annotation_adds_dispatch_edges(tmp_path):
    modules, classes, graph = project(
        tmp_path,
        disp=TAXONOMY
        + """
        def handler_a(entry):
            raise TransientScanError("a")

        def handler_b(entry):
            return entry

        def dispatch(table, entry):
            fn = table[entry.kind]
            return fn(entry)  # dynamic-call: handler_a, handler_b
        """,
    )
    (dispatch,) = graph.by_display("dispatch")
    targets = {graph.functions[fid].display for fid in graph.edges[dispatch]}
    assert targets == {"handler_a", "handler_b"}
    escapes = escapes_by_display(modules, classes, graph)
    assert escapes["dispatch"] == {"TransientScanError"}
    # The annotated site is not an opaque hole: no warning for it.
    assert graph.warnings == []


def test_unresolvable_call_degrades_to_warning_not_silence(tmp_path):
    modules, classes, graph = project(
        tmp_path,
        opaque=TAXONOMY
        + """
        def run(callback, entry):
            return callback(entry)
        """,
    )
    assert len(graph.warnings) == 1
    assert "callback() is statically opaque" in graph.warnings[0]
    # Opaque calls contribute nothing to the escape sets (no false negative
    # hidden silently — the warning is the audit trail)...
    escapes = escapes_by_display(modules, classes, graph)
    assert escapes["run"] == set()
    # ...and never produce a violation by themselves.
    assert raises.check(modules, classes, graph) == []


def test_unknown_dynamic_call_target_warns(tmp_path):
    modules, classes, graph = project(
        tmp_path,
        typo="""
        def run(callback, entry):
            return callback(entry)  # dynamic-call: no_such_function
        """,
    )
    assert any("matches no project function" in w for w in graph.warnings)


def test_may_raise_seeds_escape_sets(tmp_path):
    assert parse_may_raise("# may-raise: A, B") == frozenset({"A", "B"})
    assert parse_may_raise("# plain comment") == frozenset()
    modules, classes, graph = project(
        tmp_path,
        seeded=TAXONOMY
        + """
        def poll(client):
            return client.fetch()  # may-raise: TransientScanError
        """,
    )
    escapes = escapes_by_display(modules, classes, graph)
    assert escapes["poll"] == {"TransientScanError"}


def test_module_contract_violation_and_handler_narrowing(tmp_path):
    modules, classes, graph = project(
        tmp_path,
        contract=TAXONOMY
        + """
        RECHECK_RAISE_CONTRACTS = {"leaky": [], "contained": []}

        def scan_entry(entry):
            raise TransientScanError("bad read")

        def leaky(entry):
            return scan_entry(entry)

        def contained(entry):
            try:
                return scan_entry(entry)
            except TransientScanError:
                return None
        """,
    )
    violations = raises.check(modules, classes, graph)
    assert [(v.rule, v.line) for v in violations] == [("raise-flow", 13)]
    assert "leaky may raise TransientScanError" in violations[0].message


def test_hotpath_reachability_prunes_fallback_subtrees(tmp_path):
    modules, classes, graph = project(
        tmp_path,
        hot="""
        RECHECK_HOTPATH_ROOTS = ["root"]

        def root(batches):
            return audited(batches) + helper(batches)

        def audited(batches):  # rowwise-fallback: audited exit
            return only_via_audited(batches)

        def only_via_audited(batches):
            return sum(len(b.to_rows()) for b in batches)

        def helper(batches):
            return len(batches)

        def unreachable(batches):
            return [b.to_rows() for b in batches]
        """,
    )
    origin = hotpath.reachable_functions(graph, modules)
    displays = {graph.functions[fid].display for fid in origin}
    # The pruned audited() hides itself and its exclusive callee; the
    # unreachable row-walker never enters the walk at all.
    assert displays == {"root", "helper"}
    assert hotpath.check(modules, classes, graph) == []
