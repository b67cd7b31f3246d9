"""Tests for the analysis layer: surfaces, reports, comparisons."""

import pytest

from repro.analysis.compare import PolicyComparison, PolicyOutcome
from repro.analysis.report import (
    format_curve,
    format_curve_family,
    format_surface,
    format_table,
)
from repro.analysis.surface import PercentileSurface
from repro.errors import AnalysisError
from repro.loc.analyzer import analyze_trace

from conftest import make_event


def dist_of(values, mode="below", low=0, high=10, step=1):
    events = [make_event("e", cycle=v) for v in values]
    return analyze_trace(f"cycle(e[i]) {mode} <{low}, {high}, {step}>", events)


class TestPercentileSurface:
    def _filled(self):
        surface = PercentileSurface([800, 1000], [20_000, 40_000], level=0.8)
        surface.add(800, 20_000, dist_of([1, 2, 3, 4, 5]))
        surface.add(800, 40_000, dist_of([2, 3, 4, 5, 6]))
        surface.add(1000, 20_000, dist_of([5, 6, 7, 8, 9]))
        surface.add(1000, 40_000, dist_of([0, 1, 1, 2, 2]))
        return surface

    def test_grid_values(self):
        surface = self._filled()
        assert surface.is_complete()
        grid = surface.grid()
        # 80th percentile of {1..5} at integer edges is 4.
        assert grid[0][0] == 4
        assert grid[1][0] == 8

    def test_argmin_argmax(self):
        from repro.experiments.fig08_power_surface import surface_optimum

        surface = self._filled()
        assert surface_optimum(surface, "min") == (1000, 40_000, 2)
        assert surface_optimum(surface, "max") == (1000, 20_000, 8)

    def test_off_axis_rejected(self):
        surface = PercentileSurface([1], [2])
        with pytest.raises(AnalysisError):
            surface.add(9, 2, dist_of([1]))

    def test_missing_cell_rejected(self):
        surface = PercentileSurface([1], [2])
        assert not surface.is_complete()
        with pytest.raises(AnalysisError):
            surface.value_at(1, 2)

    def test_bad_level_rejected(self):
        with pytest.raises(AnalysisError):
            PercentileSurface([1], [2], level=0.0)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 22), (333, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_width_mismatch(self):
        with pytest.raises(AnalysisError):
            format_table(("a",), [(1, 2)])

    def test_format_curve_thins_rows(self):
        points = [(float(k), k / 100.0) for k in range(100)]
        text = format_curve(points, max_rows=10)
        assert len(text.splitlines()) == 12  # header + divider + 10 rows

    def test_format_curve_family_shared_axis(self):
        a = [(0.0, 0.1), (1.0, 0.5)]
        b = [(0.0, 0.2), (1.0, 0.9)]
        text = format_curve_family([("20K", a), ("noDVS", b)], x_label="W")
        assert "20K" in text and "noDVS" in text

    def test_format_curve_family_mismatched_axis_rejected(self):
        a = [(0.0, 0.1)]
        b = [(5.0, 0.2)]
        with pytest.raises(AnalysisError):
            format_curve_family([("a", a), ("b", b)])

    def test_format_surface(self):
        text = format_surface([1, 2], [10, 20], [[0.5, 0.6], [0.7, 0.8]],
                              row_label="thr", col_label="win")
        assert "thr \\ win" in text
        assert "0.5" in text and "0.8" in text


class TestPolicyComparison:
    def _filled(self):
        comparison = PolicyComparison(["ipfwdr"], ["low", "high"])
        for level, base, edvs, tdvs in (
            ("low", 1.5, 1.5, 0.8),
            ("high", 1.3, 1.1, 1.0),
        ):
            comparison.add("ipfwdr", level,
                           PolicyOutcome("none", base, 1000.0, 0.0))
            comparison.add("ipfwdr", level,
                           PolicyOutcome("edvs", edvs, 995.0, 0.005))
            comparison.add("ipfwdr", level,
                           PolicyOutcome("tdvs", tdvs, 970.0, 0.03))
        return comparison

    def test_power_saving(self):
        comparison = self._filled()
        assert comparison.power_saving("ipfwdr", "low", "tdvs") == pytest.approx(
            1 - 0.8 / 1.5
        )
        assert comparison.power_saving("ipfwdr", "low", "edvs") == pytest.approx(0.0)

    def test_savings_by_level_ordering(self):
        comparison = self._filled()
        tdvs = comparison.tdvs_savings_by_level("ipfwdr")
        assert tdvs[0] > tdvs[1]  # TDVS savings shrink with traffic

    def test_throughput_delta(self):
        comparison = self._filled()
        assert comparison.throughput_delta("ipfwdr", "low", "tdvs") == pytest.approx(
            -0.03
        )

    def test_render_contains_all_cells(self):
        text = self._filled().render()
        assert "ipfwdr" in text
        assert "low" in text and "high" in text
        assert "%" in text

    def test_missing_outcome_rejected(self):
        comparison = PolicyComparison(["ipfwdr"], ["low"])
        with pytest.raises(AnalysisError):
            comparison.outcome("ipfwdr", "low", "none")

    def test_unknown_policy_rejected(self):
        comparison = PolicyComparison(["ipfwdr"], ["low"])
        with pytest.raises(AnalysisError):
            comparison.add("ipfwdr", "low", PolicyOutcome("magic", 1.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# Static invariant checker (repro lint)
# ---------------------------------------------------------------------------

import json as _json
from pathlib import Path

from repro.analysis.lint import (
    ModuleCache,
    build_channel_registry,
    check_determinism,
    catalog_formulas,
    check_wire,
    render,
    run_lint,
)
from repro.analysis.lint.channels import ChannelRegistry
from repro.analysis.lint.formulas import analyze_bounds, check_events
from repro.cli import main as cli_main
from repro.loc.builtin import (
    forwarding_latency_formula,
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.monitor import build_monitor
from repro.scenarios import get_scenario, list_scenarios
from repro.studies.spec import StudySpec

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root, files):
    """Create a minimal src/repro fixture tree: {relpath: source}."""
    for rel, source in files.items():
        path = root / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def det_codes(root, files):
    write_tree(root, files)
    cache = ModuleCache(root)
    return [(f.code, f.suppressed) for f in check_determinism(cache)]


class TestDeterminismRules:
    def test_det101_unseeded_random_bad_and_clean(self, tmp_path):
        bad = det_codes(tmp_path, {
            "sim/thing.py": "import random\nx = random.randint(0, 3)\n",
        })
        assert ("DET101", False) in bad
        clean = det_codes(tmp_path / "c", {
            "sim/thing.py": "import random\nrng = random.Random(42)\nx = rng.randint(0, 3)\n",
        })
        assert all(code != "DET101" for code, _ in clean)

    def test_det101_numpy_and_from_import(self, tmp_path):
        bad = det_codes(tmp_path, {
            "sim/a.py": "import numpy as np\nv = np.random.uniform()\n",
            "sim/b.py": "from random import shuffle\n",
        })
        assert sum(1 for code, _ in bad if code == "DET101") == 2

    def test_det101_covers_model_packages(self, tmp_path):
        # The packages that draw every arrival and set every V/F level
        # are walked too, and so are the experiments.
        layers = ("traffic", "scenarios", "dvs", "power", "apps", "experiments")
        bad = det_codes(tmp_path, {
            f"{layer}/thing.py": "import random\nx = random.random()\n"
            for layer in layers
        })
        assert sum(1 for code, _ in bad if code == "DET101") == len(layers)

    def test_det101_rng_module_exempt(self, tmp_path):
        clean = det_codes(tmp_path, {
            "sim/rng.py": "import random\nseeded = random.Random\n",
        })
        assert clean == []

    def test_det102_wall_clock_bad_clean_and_allowlist(self, tmp_path):
        bad = det_codes(tmp_path, {
            "sim/clocked.py": "import time\nstamp = time.time()\n",
        })
        assert ("DET102", False) in bad
        clean = det_codes(tmp_path / "c", {
            "sim/clocked.py": "import time\ndelay = time.sleep\n",
        })
        assert all(code != "DET102" for code, _ in clean)
        allow = det_codes(tmp_path / "a", {
            "backends/local.py": "import time\nstamp = time.perf_counter()\n",
        })
        assert all(code != "DET102" for code, _ in allow)

    def test_det103_set_iteration_bad_and_sorted_clean(self, tmp_path):
        bad = det_codes(tmp_path, {
            "npu/pool.py": (
                "def drain(items):\n"
                "    live = set(items)\n"
                "    out = []\n"
                "    for item in live:\n"
                "        out.append(item)\n"
                "    return out\n"
            ),
        })
        assert ("DET103", False) in bad
        clean = det_codes(tmp_path / "c", {
            "npu/pool.py": (
                "def drain(items):\n"
                "    live = set(items)\n"
                "    out = []\n"
                "    for item in sorted(live):\n"
                "        out.append(item)\n"
                "    return out\n"
            ),
        })
        assert all(code != "DET103" for code, _ in clean)

    def test_det103_dict_view_feeding_json(self, tmp_path):
        bad = det_codes(tmp_path, {
            "obs/dump.py": (
                "import json\n"
                "def dump(table, fh):\n"
                "    for key, value in table.items():\n"
                "        fh.write(json.dumps([key, value]))\n"
            ),
        })
        assert ("DET103", False) in bad
        clean = det_codes(tmp_path / "c", {
            "obs/dump.py": (
                "import json\n"
                "def dump(table, fh):\n"
                "    for key, value in sorted(table.items()):\n"
                "        fh.write(json.dumps([key, value]))\n"
            ),
        })
        assert all(code != "DET103" for code, _ in clean)

    def test_det104_float_accumulation_bad_and_clean(self, tmp_path):
        bad = det_codes(tmp_path, {
            "sweep/acc.py": (
                "def total(values):\n"
                "    pending = set(values)\n"
                "    acc = 0.0\n"
                "    for v in pending:\n"
                "        acc += v\n"
                "    return acc\n"
            ),
        })
        assert ("DET104", False) in bad
        clean = det_codes(tmp_path / "c", {
            "sweep/acc.py": (
                "def total(values):\n"
                "    acc = 0.0\n"
                "    for v in sorted(set(values)):\n"
                "        acc += v\n"
                "    return acc\n"
            ),
        })
        assert all(code != "DET104" for code, _ in clean)

    def test_det104_sum_over_set(self, tmp_path):
        bad = det_codes(tmp_path, {
            "sweep/acc.py": "def total(values):\n    return sum(set(values))\n",
        })
        assert ("DET104", False) in bad

    def test_det105_id_ordering_bad_and_clean(self, tmp_path):
        bad = det_codes(tmp_path, {
            "trace/order.py": (
                "def key_of(handlers):\n"
                "    return sorted(handlers, key=id)\n"
            ),
        })
        # ``key=id`` is a bare Name, not a call; use an id() call form.
        bad = det_codes(tmp_path / "b", {
            "trace/order.py": (
                "def key_of(handler):\n"
                "    return id(handler)\n"
            ),
        })
        assert ("DET105", False) in bad
        clean = det_codes(tmp_path / "c", {
            "trace/order.py": (
                "def key_of(handler):\n"
                "    return handler.name\n"
            ),
        })
        assert all(code != "DET105" for code, _ in clean)

    def test_det100_syntax_error(self, tmp_path):
        bad = det_codes(tmp_path, {"sim/broken.py": "def nope(:\n"})
        assert ("DET100", False) in bad

    def test_det106_env_read_in_model_core(self, tmp_path):
        # Literal, constant-indirected, os.getenv and subscript forms
        # all resolve; every read is one finding.
        bad = det_codes(tmp_path, {
            "npu/engine.py": (
                "import os\n"
                'VAR = "REPRO_MYSTERY"\n'
                'a = os.environ.get("REPRO_UNDECLARED", "")\n'
                "b = os.environ.get(VAR)\n"
                'c = os.getenv("REPRO_THIRD")\n'
                'd = os.environ["REPRO_FOURTH"]\n'
            ),
        })
        assert sum(1 for code, _ in bad if code == "DET106") == 4

    def test_det106_covers_orchestration_layers(self, tmp_path):
        # Execution is configured through arguments only, so an env
        # read is a finding in every layer the pass walks, not only in
        # the model core.
        bad = det_codes(tmp_path, {
            "obs/mode.py": 'import os\nv = os.environ.get("REPRO_ANY")\n',
            "sweep/workers.py": 'import os\nw = os.getenv("REPRO_OTHER")\n',
            "api/policy.py": 'import os\nb = os.environ["REPRO_THIRD"]\n',
        })
        assert sum(1 for code, _ in bad if code == "DET106") == 3

    def test_concurrent_futures_wait_unpack_is_set_typed(self, tmp_path):
        bad = det_codes(tmp_path, {
            "sweep/drain.py": (
                "from concurrent.futures import wait\n"
                "def drain(futures):\n"
                "    out = []\n"
                "    while futures:\n"
                "        done, futures = wait(futures)\n"
                "        for f in done:\n"
                "            out.append(f.result())\n"
                "    return out\n"
            ),
        })
        assert ("DET103", False) in bad


class TestSuppressions:
    def test_noqa_with_code_suppresses(self, tmp_path):
        found = det_codes(tmp_path, {
            "sim/clocked.py": (
                "import time\n"
                "stamp = time.time()  # repro: noqa(DET102)\n"
            ),
        })
        assert ("DET102", True) in found
        assert ("DET102", False) not in found

    def test_bare_noqa_suppresses_all(self, tmp_path):
        found = det_codes(tmp_path, {
            "sim/clocked.py": (
                "import time\n"
                "stamp = time.time()  # repro: noqa\n"
            ),
        })
        assert ("DET102", True) in found

    def test_noqa_with_other_code_does_not_suppress(self, tmp_path):
        found = det_codes(tmp_path, {
            "sim/clocked.py": (
                "import time\n"
                "stamp = time.time()  # repro: noqa(DET101)\n"
            ),
        })
        assert ("DET102", False) in found

    def test_noqa_inside_string_literal_is_inert(self, tmp_path):
        found = det_codes(tmp_path, {
            "sim/clocked.py": (
                "import time\n"
                'docs = "# repro: noqa(DET102)"\n'
                "stamp = time.time()\n"
            ),
        })
        assert ("DET102", False) in found



def loose_registry():
    registry = ChannelRegistry()
    registry.exact.update({"forward", "arrival", "fifo", "mem_ixbus"})
    registry.prefixes.update({"mem_*", "m<k>_pipeline"})
    return registry


class TestLocRules:
    def test_loc202_unsatisfiable_and_vacuous_bounds(self):
        unsat = analyze_bounds("time(forward[i+10]) - time(forward[i]) <= -1")
        assert any(f.code == "LOC202" and "unsatisfiable" in f.message
                   for f in unsat)
        vacuous = analyze_bounds("time(forward[i+10]) - time(forward[i]) >= 0")
        assert any(f.code == "LOC202" and "vacuous" in f.message
                   for f in vacuous)
        const = analyze_bounds("3 <= 2")
        assert any(f.code == "LOC202" for f in const)
        # The parser refuses degenerate triples, but AST-built formulas
        # bypass it — the analyzer must still catch them.
        from repro.loc.ast_nodes import DistributionFormula
        from repro.loc.parser import parse_formula
        expr = parse_formula("cycle(forward[i]) in <0, 10, 1>").expr
        degenerate = analyze_bounds(
            DistributionFormula(expr, "in", 10.0, 5.0, 1.0)
        )
        assert any(f.code == "LOC202" for f in degenerate)
        clean = analyze_bounds(
            "time(forward[i+10]) - time(forward[i]) <= 120"
        )
        assert clean == []

    def test_loc202_flipped_sides(self):
        unsat = analyze_bounds("-2 >= time(forward[i+5]) - time(forward[i])")
        assert any(f.code == "LOC202" and "unsatisfiable" in f.message
                   for f in unsat)

    def test_loc203_unknown_event_bad_and_clean(self):
        registry = loose_registry()
        bad = check_events("cycle(fwd[i+1]) - cycle(fwd[i]) <= 10", registry)
        assert any(f.code == "LOC203" for f in bad)
        for name in ("forward", "mem_sram", "m3_pipeline", "fifo"):
            clean = check_events(
                f"cycle({name}[i+1]) - cycle({name}[i]) <= 10", registry
            )
            assert clean == [], name

    def test_loc204_parse_error(self):
        registry = loose_registry()
        bad = check_events("cycle(forward[i+1]) - - <= ", registry)
        assert any(f.code == "LOC204" for f in bad)

    def test_registry_extraction_from_fixture_emitters(self, tmp_path):
        write_tree(tmp_path, {
            "npu/chip.py": (
                "def wire(bus, resource, me_index):\n"
                "    fwd = bus.emitter('forward')\n"
                "    arr = bus.emitter('arrival', to_sinks=False)\n"
                "    resource.bind_trace(bus, f'mem_{resource.name}')\n"
                "    pipe = bus.emitter(prefixed_event_name('pipeline', me_index))\n"
            ),
        })
        registry = build_channel_registry(ModuleCache(tmp_path))
        assert registry.knows("forward")
        assert registry.knows("arrival")
        assert registry.knows("mem_sdram")
        assert registry.knows("m7_pipeline")
        assert not registry.knows("bogus")
        assert not registry.knows("mem_")  # bare prefix is not a channel

    def test_shipped_registry_drops_the_retired_arrival_channel(self):
        # The chip publishes no per-arrival event, so a formula over
        # ``arrival`` is an unknown-event finding, not a vacuous check.
        registry = build_channel_registry(ModuleCache(REPO_ROOT))
        assert not registry.knows("arrival")
        findings = check_events(
            "cycle(arrival[i+1]) - cycle(arrival[i]) <= 10", registry
        )
        assert any(f.code == "LOC203" for f in findings)

    def test_shipped_registry_covers_study_gate_events(self):
        cache = ModuleCache(REPO_ROOT)
        registry = build_channel_registry(cache)
        for name in ("forward", "fifo", "mem_sram", "mem_sdram",
                     "mem_ixbus", "m0_pipeline", "m5_pipeline"):
            assert registry.knows(name), name


class TestCatalogCoverage:
    """The catalog pass reads every builtin and every study gate."""

    def test_catalog_covers_builtins_and_every_study_gate(self):
        expected = {
            "builtin:forwarding_latency": forwarding_latency_formula().unparse(),
            "builtin:power_distribution": power_distribution_formula().unparse(),
            "builtin:throughput_distribution": (
                throughput_distribution_formula().unparse()
            ),
        }
        for mem_gates in (False, True):
            spec = StudySpec(mem_gates=mem_gates)
            for name in list_scenarios():
                for assertion in spec.assertions_for(get_scenario(name)):
                    expected[f"study:{name}:{assertion.name}"] = assertion.formula
        covered = {
            source: formula if isinstance(formula, str) else formula.unparse()
            for source, formula in catalog_formulas()
        }
        assert covered == expected
        assert any("(mem_" in text for text in covered.values())

    def test_catalog_pass_reads_catalog_formulas(self, monkeypatch):
        import repro.analysis.lint.formulas as formulas

        monkeypatch.setattr(
            formulas, "catalog_formulas", lambda: [("study:planted", "time(( <=")]
        )
        findings = formulas.analyze_catalog(loose_registry())
        assert [(f.code, f.path) for f in findings] == [("LOC204", "study:planted")]

    def test_every_catalog_formula_builds_a_monitor(self):
        for source, formula in catalog_formulas():
            assert build_monitor(formula).finish() is not None, source


GOOD_SCHEMA_MD = (
    "**Schema version:** 7\n\n**Span schema version:** 4\n"
)
GOOD_METRICS = "METRICS_SCHEMA_VERSION = 7\n"
GOOD_SPANS = "SPAN_SCHEMA_VERSION = 4\n"
GOOD_WORKER = (
    "from repro.backends.protocol import recv_message, send_message\n"
    "def serve(sock):\n"
    "    send_message(sock, {'type': 'hello', 'worker': 'w',"
    " 'protocol': 1})\n"
    "    welcome = recv_message(sock)\n"
    "    lease = welcome.get('lease_s')\n"
    "    message = {\n"
    "        'type': 'outcome', 'job_id': 'j', 'outcome': {},\n"
    "        'telemetry': {'jobs_run': 1, 'heartbeats_sent': 2},\n"
    "    }\n"
    "    message['spans'] = []\n"
    "    send_message(sock, message)\n"
)
GOOD_COORDINATOR = (
    "from repro.backends.protocol import recv_message, send_message\n"
    "KEYS = ('jobs_run', 'heartbeats_sent')\n"
    "def handle(conn):\n"
    "    message = recv_message(conn)\n"
    "    kind = message.get('type')\n"
    "    payload = message.get('telemetry')\n"
    "    spans = message.get('spans')\n"
    "    send_message(conn, {'type': 'welcome', 'lease_s': 15.0})\n"
)


def wire_fixture(root, **overrides):
    files = {
        "obs/SCHEMA.md": GOOD_SCHEMA_MD,
        "obs/metrics.py": GOOD_METRICS,
        "obs/spans.py": GOOD_SPANS,
        "backends/worker.py": GOOD_WORKER,
        "backends/distributed.py": GOOD_COORDINATOR,
    }
    files.update(overrides)
    # SCHEMA.md is not a .py; write it outside write_tree's tree walk.
    write_tree(root, {k: v for k, v in files.items() if k.endswith(".py")})
    md = root / "src" / "repro" / "obs" / "SCHEMA.md"
    md.parent.mkdir(parents=True, exist_ok=True)
    md.write_text(files["obs/SCHEMA.md"], encoding="utf-8")
    return ModuleCache(root)


class TestWireRules:
    def test_clean_fixture_has_no_wire_findings(self, tmp_path):
        findings = check_wire(wire_fixture(tmp_path))
        assert findings == []

    def test_wire301_version_drift(self, tmp_path):
        findings = check_wire(wire_fixture(
            tmp_path, **{"obs/metrics.py": "METRICS_SCHEMA_VERSION = 8\n"}
        ))
        assert any(f.code == "WIRE301" and "SCHEMA.md" in f.message
                   for f in findings)

    def test_wire301_int_literal_version(self, tmp_path):
        findings = check_wire(wire_fixture(
            tmp_path,
            **{"obs/spans.py":
               "SPAN_SCHEMA_VERSION = 4\nheader = {'version': 4}\n"},
        ))
        assert any(f.code == "WIRE301" and "literal" in f.message
                   for f in findings)

    def test_wire302_read_of_unsent_key(self, tmp_path):
        coordinator = GOOD_COORDINATOR + (
            "def extra(conn):\n"
            "    message = recv_message(conn)\n"
            "    ghost = message.get('ghost_key')\n"
        )
        findings = check_wire(wire_fixture(
            tmp_path, **{"backends/distributed.py": coordinator}
        ))
        assert any(f.code == "WIRE302" and "ghost_key" in f.message
                   for f in findings)

    def test_wire303_undeclared_telemetry_key(self, tmp_path):
        worker = GOOD_WORKER.replace(
            "'heartbeats_sent': 2", "'heartbeats_sent': 2, 'rogue': 3"
        )
        findings = check_wire(wire_fixture(
            tmp_path, **{"backends/worker.py": worker}
        ))
        assert any(f.code == "WIRE303" and "rogue" in f.message
                   for f in findings)

    def test_wire303_key_never_absorbed(self, tmp_path):
        coordinator = GOOD_COORDINATOR.replace(
            "KEYS = ('jobs_run', 'heartbeats_sent')", "KEYS = ('jobs_run',)"
        )
        findings = check_wire(wire_fixture(
            tmp_path, **{"backends/distributed.py": coordinator}
        ))
        assert any(f.code == "WIRE303" and "heartbeats_sent" in f.message
                   for f in findings)


class TestLintCliAndOutput:
    def test_json_output_schema(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "sim/clocked.py": "import time\nstamp = time.time()\n",
        })
        code = cli_main([
            "lint", "--format", "json", "--root", str(tmp_path),
            "--no-catalog",
        ])
        assert code == 0  # non-strict always exits 0
        payload = _json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings", "summary"}
        assert payload["summary"]["active"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {
            "code", "message", "file", "line", "col", "hint", "suppressed",
        }
        assert finding["code"] == "DET102"
        assert finding["file"].endswith("sim/clocked.py")
        assert finding["line"] == 2

    def test_strict_exits_1_on_finding(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "sim/clocked.py": "import time\nstamp = time.time()\n",
        })
        code = cli_main([
            "lint", "--strict", "--root", str(tmp_path), "--no-catalog",
        ])
        capsys.readouterr()
        assert code == 1

    def test_github_format_annotations(self, tmp_path, capsys):
        write_tree(tmp_path, {
            "sim/clocked.py": "import time\nstamp = time.time()\n",
        })
        cli_main([
            "lint", "--format", "github", "--root", str(tmp_path),
            "--no-catalog",
        ])
        out = capsys.readouterr().out
        assert "::error file=" in out and "line=2" in out

    def test_single_parse_per_file(self, tmp_path):
        write_tree(tmp_path, {
            "sim/a.py": "x = 1\n",
            "obs/b.py": "y = 2\n",
        })
        cache = ModuleCache(tmp_path)
        check_determinism(cache)
        check_wire(cache)
        first = cache.parsed_count()
        check_determinism(cache)
        check_wire(cache)
        assert cache.parsed_count() == first


class TestShippedTreeIsClean:
    def test_repro_lint_strict_clean_on_shipped_tree(self, capsys):
        code = cli_main(["lint", "--strict", "--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 finding(s)" in out
