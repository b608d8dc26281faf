"""repro audit: import-graph layering, schema lock, API lock, exit codes.

The fixture corpus under ``tests/data/audit_fixtures/`` exercises each
finding class on miniature trees; the mutation tests copy the real
``src/repro`` into a tmpdir and flip one locked fact at a time; and the
meta-test asserts the live tree itself is audit-clean, mirroring
``test_reprolint.py``'s.
"""

import dataclasses
import json
import shutil
from pathlib import Path

from repro.devtools.audit.apilock import extract_api
from repro.devtools.audit.driver import (
    AUDIT_RULES,
    DEFAULT_AUDIT_CONFIG,
    load_audit_config,
    main as audit_main,
    run_audit,
)
from repro.devtools.audit.importgraph import (
    build_graph,
    check_layering,
    find_cycles,
    layer_of,
)
from repro.devtools.audit.schemalock import (
    canonical_json,
    diff_locked,
    extract_schemas,
)
from repro.devtools.report import render_text
from repro.devtools.reprolint import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "audit_fixtures"

#: Layer table for the three-layer fixture tree.
_FIXTURE_LAYERS = {
    "low": ("pkg.low",),
    "mid": ("pkg.mid",),
    "high": ("pkg.high",),
    "root": ("pkg",),
}
_FIXTURE_MAY_IMPORT = {
    "low": (),
    "mid": ("low",),
    "high": ("mid",),
    "root": ("high", "mid", "low"),
}


def _codes(findings):
    return sorted(f.code for f in findings)


# --- import graph: cycles ----------------------------------------------


def test_runtime_cycle_is_arc001():
    graph = build_graph(str(FIXTURES / "cycle_tree"), "src/pkg")
    cycles = find_cycles(graph)
    assert cycles == [("pkg.a", "pkg.b")]
    findings = check_layering(
        graph, {"all": ("pkg",)}, {"all": ()}
    )
    assert _codes(findings) == ["ARC001"]
    assert "pkg.a -> pkg.b -> pkg.a" in findings[0].message


def test_type_checking_edge_breaks_no_cycle():
    graph = build_graph(str(FIXTURES / "cycle_tree"), "src/pkg")
    kinds = {(e.src, e.dst): e.kind for e in graph.edges}
    assert kinds[("pkg.c", "pkg.a")] == "type"
    assert all(
        "pkg.c" not in cycle for cycle in find_cycles(graph)
    )


# --- import graph: layering --------------------------------------------


def test_layering_findings_on_fixture_tree():
    graph = build_graph(str(FIXTURES / "layers_tree"), "src/pkg")
    findings = check_layering(graph, _FIXTURE_LAYERS, _FIXTURE_MAY_IMPORT)
    by_code = {}
    for f in findings:
        by_code.setdefault(f.code, []).append(f)
    # high -> low skips the declared high -> mid -> low chain.
    assert len(by_code["ARC003"]) == 1
    assert "pkg.high.top" in by_code["ARC003"][0].message
    # low -> high is forbidden outright (upward), and so is the
    # unjustified-allow edge low -> mid in excused.py.
    assert len(by_code["ARC002"]) == 2
    # The bare `# reproaudit: allow-edge` is its own finding.
    assert len(by_code["AUD000"]) == 1
    assert by_code["AUD000"][0].path.endswith("excused.py")
    # The justified allow-edge suppressed the low -> high edge there.
    assert not any(
        f.code == "ARC002" and "excused" in f.path and f.line == 3
        for f in findings
    )


def test_unassigned_module_is_arc004():
    graph = build_graph(str(FIXTURES / "layers_tree"), "src/pkg")
    # Without the "root" catch-all and "mid", pkg itself and the two
    # pkg.mid modules belong to no layer.
    layers = {"low": ("pkg.low",), "high": ("pkg.high",)}
    may = {"low": (), "high": ("low",)}
    findings = check_layering(graph, layers, may)
    arc004 = sorted(
        f.message for f in findings if f.code == "ARC004"
    )
    assert len(arc004) == 3
    assert any("pkg.mid.middle" in m for m in arc004)


def test_layer_of_longest_prefix_wins():
    assert layer_of("pkg.low.base", _FIXTURE_LAYERS) == "low"
    assert layer_of("pkg", _FIXTURE_LAYERS) == "root"
    assert layer_of("other.module", _FIXTURE_LAYERS) is None


# --- parse failures: exit 2, never a traceback -------------------------


def test_broken_file_is_fatal_finding():
    graph = build_graph(str(FIXTURES / "broken_tree"), "src/pkg")
    assert len(graph.parse_failures) == 1
    failure = graph.parse_failures[0]
    assert failure.code == "AUD001"
    assert failure.fatal
    # The healthy sibling still parsed.
    assert "pkg.fine" in graph.modules


def test_audit_cli_exits_2_on_broken_source(tmp_path):
    root = _copy_live_tree(tmp_path)
    (root / "src" / "repro" / "broken.py").write_text("def broken(:\n")
    assert audit_main(["--config", str(root / "pyproject.toml")]) == 2


def test_lint_cli_exits_2_on_broken_source(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert lint_main([str(broken)]) == 2


def test_lint_cli_exits_2_on_nul_bytes(tmp_path):
    # ast.parse raises ValueError (not SyntaxError) on NUL bytes; both
    # CLIs must report it as a finding, not a traceback.
    broken = tmp_path / "nul.py"
    broken.write_text("x = 1\n\x00\n")
    assert lint_main([str(broken)]) == 2


# --- schema extraction -------------------------------------------------


def test_live_schema_extraction_covers_all_surfaces():
    schemas, findings = extract_schemas(str(REPO_ROOT))
    assert findings == []
    assert sorted(schemas) == [
        "bench_report",
        "campaign_checkpoint",
        "shard_wire",
        "span_record",
        "stage_store",
        "version",
    ]
    store = schemas["stage_store"]
    assert store["format_version"] == 1
    assert store["stage_order"][0] == "validate"
    assert len(store["registered_dataclasses"]) == 24
    assert schemas["shard_wire"]["span_row_index"] == 4
    assert schemas["bench_report"]["schema"] == "repro-bench-v1"
    span_fields = [f["name"] for f in schemas["span_record"]["fields"]]
    assert span_fields == [
        "span_id",
        "parent_id",
        "name",
        "category",
        "start",
        "duration",
        "counters",
    ]


def test_live_api_extraction_records_slim_sink_surface():
    api, findings = extract_api(str(REPO_ROOT))
    assert findings == []
    exported = api["measure"]["all"]
    assert "EventSink" in exported
    for gone in ("ProbeSink", "as_event_sink", "as_sink", "FanoutSink"):
        assert gone not in exported


def test_diff_locked_reports_per_surface():
    locked = {"a": {"x": 1, "y": 2}, "b": {"z": 3}}
    live = {"a": {"x": 1, "y": 9}, "b": {"z": 3}}
    findings = diff_locked(
        locked,
        live,
        "lock.json",
        code="SCH002",
        surface_paths={"a": "src/a.py"},
        update_hint="update",
    )
    assert _codes(findings) == ["SCH002"]
    assert findings[0].path == "src/a.py"
    assert "a.y" in findings[0].message


# --- lockfile round trips on a copied live tree ------------------------


def _copy_live_tree(tmp_path):
    """The real src tree + pyproject + lockfiles, safe to mutate."""
    root = tmp_path / "repo"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        root / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for name in ("pyproject.toml", "schemas.lock.json", "api.lock.json"):
        shutil.copy(REPO_ROOT / name, root / name)
    return root


def _audit(root, *args):
    return audit_main(["--config", str(root / "pyproject.toml"), *args])


def test_copied_live_tree_is_clean(tmp_path):
    assert _audit(_copy_live_tree(tmp_path)) == 0


def test_schema_field_mutation_flips_exit_1(tmp_path):
    root = _copy_live_tree(tmp_path)
    span = root / "src" / "repro" / "obs" / "span.py"
    text = span.read_text().replace(
        "    duration: float\n",
        "    duration: float\n    jitter: float = 0.0\n",
        1,
    )
    span.write_text(text)
    assert _audit(root) == 1
    config = load_audit_config(str(root / "pyproject.toml"))
    findings, _ = run_audit(config)
    sch = [f for f in findings if f.code == "SCH002"]
    assert any("span_record" in f.message for f in sch)


def test_stage_order_mutation_flips_exit_1(tmp_path):
    root = _copy_live_tree(tmp_path)
    stages = root / "src" / "repro" / "core" / "stages.py"
    stages.write_text(
        stages.read_text().replace('"round1",', '"round1b",', 1)
    )
    assert _audit(root) == 1


def test_api_mutation_flips_exit_1(tmp_path):
    root = _copy_live_tree(tmp_path)
    span = root / "src" / "repro" / "obs" / "span.py"
    span.write_text(
        span.read_text() + "\n\ndef sneaky_new_api():\n    return None\n"
    )
    assert _audit(root) == 1
    config = load_audit_config(str(root / "pyproject.toml"))
    findings, _ = run_audit(config)
    assert any(f.code == "API002" for f in findings)


def test_forbidden_edge_mutation_flips_exit_1(tmp_path):
    root = _copy_live_tree(tmp_path)
    asn = root / "src" / "repro" / "net" / "asn.py"
    asn.write_text(
        asn.read_text() + "\nfrom repro.core import anchors  # noqa\n"
    )
    assert _audit(root) == 1
    config = load_audit_config(str(root / "pyproject.toml"))
    findings, _ = run_audit(config)
    arc = [f for f in findings if f.code == "ARC002"]
    assert any("repro.net.asn" in f.message for f in arc)


def test_update_locks_round_trip(tmp_path):
    root = _copy_live_tree(tmp_path)
    span = root / "src" / "repro" / "obs" / "span.py"
    span.write_text(
        span.read_text().replace(
            "    duration: float\n",
            "    duration: float\n    jitter: float = 0.0\n",
            1,
        )
    )
    assert _audit(root) == 1
    assert _audit(root, "--update-locks") == 0
    assert _audit(root) == 0
    locked = json.loads((root / "schemas.lock.json").read_text())
    names = [f["name"] for f in locked["span_record"]["fields"]]
    assert "jitter" in names


def test_update_locks_does_not_launder_forbidden_edges(tmp_path):
    root = _copy_live_tree(tmp_path)
    asn = root / "src" / "repro" / "net" / "asn.py"
    asn.write_text(asn.read_text() + "\nfrom repro.core import anchors\n")
    assert _audit(root, "--update-locks") == 1


def test_missing_lockfiles_are_findings(tmp_path):
    root = _copy_live_tree(tmp_path)
    (root / "schemas.lock.json").unlink()
    (root / "api.lock.json").unlink()
    config = load_audit_config(str(root / "pyproject.toml"))
    findings, _ = run_audit(config)
    assert _codes(findings) == ["API001", "SCH001"]
    assert _audit(root) == 1


def test_lockfiles_are_canonical_json():
    for name in ("schemas.lock.json", "api.lock.json"):
        text = (REPO_ROOT / name).read_text()
        assert text == canonical_json(json.loads(text)), name


# --- config ------------------------------------------------------------


def test_pyproject_config_matches_builtin_defaults():
    """[tool.reproaudit] and DEFAULT_AUDIT_CONFIG must never drift."""
    config = load_audit_config(str(REPO_ROOT / "pyproject.toml"))
    assert config.package_root == DEFAULT_AUDIT_CONFIG.package_root
    assert config.schema_lock == DEFAULT_AUDIT_CONFIG.schema_lock
    assert config.api_lock == DEFAULT_AUDIT_CONFIG.api_lock
    assert config.api_packages == DEFAULT_AUDIT_CONFIG.api_packages
    assert dict(config.layer_modules) == dict(
        DEFAULT_AUDIT_CONFIG.layer_modules
    )
    assert dict(config.may_import) == dict(DEFAULT_AUDIT_CONFIG.may_import)


def test_rule_catalog_covers_every_emitted_code():
    assert sorted(AUDIT_RULES) == [
        "API001",
        "API002",
        "ARC001",
        "ARC002",
        "ARC003",
        "ARC004",
        "AUD000",
        "AUD001",
        "SCH001",
        "SCH002",
        "SCH003",
    ]


def test_list_rules_exits_0(capsys):
    assert audit_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "ARC002" in out and "SCH002" in out


# --- the meta-test: the live tree is clean -----------------------------


def test_live_tree_is_audit_clean():
    config = dataclasses.replace(DEFAULT_AUDIT_CONFIG, root=str(REPO_ROOT))
    findings, files_checked = run_audit(config)
    assert files_checked > 50, "scan missed most of src/repro"
    assert findings == [], "\n" + render_text(
        findings, files_checked=files_checked, tool="reproaudit"
    )


def test_live_tree_with_lint_is_clean(capsys):
    # The CI audit job runs exactly this: one artifact for both tools.
    status = audit_main(
        ["--config", str(REPO_ROOT / "pyproject.toml"), "--with-lint"]
    )
    out = capsys.readouterr().out
    assert status == 0, out
    payload_status = audit_main(
        [
            "--config",
            str(REPO_ROOT / "pyproject.toml"),
            "--with-lint",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload_status == 0
    assert payload["tool"] == "reproaudit"
    assert payload["findings"] == []


def test_unknown_config_path_exits_2(tmp_path):
    missing = tmp_path / "nope" / "pyproject.toml"
    assert audit_main(["--config", str(missing)]) == 2
