"""Tests for the dataflow analysis framework and the semantic rule
families: CFG construction, the fixpoint engine, the taint lattice, the
per-module symbol table, golden findings on the vendored corpus, the
old-vs-new REPRO-F64 comparison, unused suppressions, JSON export, and the CLI
surface (--explain/--list-rules/...)."""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.cfg import build_cfg
from repro.lint.dataflow import Definition, ReachingDefinitions
from repro.lint.engine import main, run_lint
from repro.lint.findings import Finding
from repro.lint.rules import REGISTRY, ModuleInfo, SyntacticFloat64Rule
from repro.lint.rules_semantic import DtypeTaintRule
from repro.lint.symbols import index_module, module_dotted_name
from repro.lint.taint import CLEAN, F64, ModuleTaint, Taint

CORPUS = Path(__file__).parent / "lint_corpus"


def _parse_fn(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in source")


def write_project(tmp_path: Path, files: dict) -> Path:
    """A scratch project: ``files`` maps relative path to source."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------


class TestCfg:
    def test_straight_line(self):
        fn = _parse_fn("def f(x):\n    y = x\n    return y\n")
        cfg = build_cfg(fn)
        # entry, exit, assign, return
        assert len(cfg.nodes) == 4
        order = cfg.reverse_postorder()
        assert order[0] == cfg.entry
        assert order[-1] == cfg.exit

    def test_branch_edges(self):
        fn = _parse_fn(
            """
            def f(x):
                if x:
                    y = 1
                else:
                    y = 2
                return y
            """
        )
        cfg = build_cfg(fn)
        branch = next(n for n in cfg.nodes if n.kind == "branch")
        assert len(branch.succs) == 2
        ret = next(
            n for n in cfg.nodes if isinstance(n.stmt, ast.Return)
        )
        assert len(ret.preds) == 2  # both arms join at the return

    def test_loop_back_edge(self):
        fn = _parse_fn(
            """
            def f(n):
                total = 0
                while n:
                    n = n - 1
                return total
            """
        )
        cfg = build_cfg(fn)
        header = next(n for n in cfg.nodes if isinstance(n.stmt, ast.While))
        body = next(
            n for n in cfg.nodes if n.stmt is not None and n.stmt.lineno == 5
        )
        assert header.index in body.succs  # back edge to the loop test

    def test_every_node_reachable_in_rpo(self):
        fn = _parse_fn(
            """
            def f(xs):
                try:
                    for x in xs:
                        if x:
                            continue
                        break
                except ValueError:
                    return -1
                finally:
                    pass
                return 0
            """
        )
        cfg = build_cfg(fn)
        assert set(cfg.reverse_postorder()) == {n.index for n in cfg.nodes}


# ---------------------------------------------------------------------------
# Dataflow engine
# ---------------------------------------------------------------------------


class TestReachingDefinitions:
    def test_branch_join_keeps_both_defs(self):
        fn = _parse_fn(
            """
            def f(c):
                if c:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        rd = ReachingDefinitions()
        result = rd.analyse(fn)
        ret = next(
            n for n in result.cfg.nodes if isinstance(n.stmt, ast.Return)
        )
        defs = result.in_states[ret.index]["x"]
        assert {d.lineno for d in defs} == {4, 6}

    def test_rebind_kills_old_def(self):
        fn = _parse_fn("def f():\n    x = 1\n    x = 2\n    return x\n")
        rd = ReachingDefinitions()
        result = rd.analyse(fn)
        ret = next(
            n for n in result.cfg.nodes if isinstance(n.stmt, ast.Return)
        )
        defs = result.in_states[ret.index]["x"]
        assert {d.lineno for d in defs} == {3}

    def test_augassign_preserves_old_defs(self):
        fn = _parse_fn("def f():\n    x = 1\n    x += 2\n    return x\n")
        rd = ReachingDefinitions()
        result = rd.analyse(fn)
        ret = next(
            n for n in result.cfg.nodes if isinstance(n.stmt, ast.Return)
        )
        defs = result.in_states[ret.index]["x"]
        assert {d.lineno for d in defs} == {2, 3}

    def test_loop_fixpoint_converges(self):
        fn = _parse_fn(
            """
            def f(n):
                x = 0
                while n:
                    x = x + 1
                return x
            """
        )
        rd = ReachingDefinitions()
        result = rd.analyse(fn)
        ret = next(
            n for n in result.cfg.nodes if isinstance(n.stmt, ast.Return)
        )
        # both the init and the loop-body definition reach the return
        assert {d.lineno for d in result.in_states[ret.index]["x"]} == {3, 5}

    def test_definition_repr(self):
        assert repr(Definition(1, 7, "assign")) == "Def(@7:assign)"


# ---------------------------------------------------------------------------
# Taint lattice
# ---------------------------------------------------------------------------


def _module_taint(source: str) -> ModuleTaint:
    tree = ast.parse(textwrap.dedent(source))
    syms = index_module(tree, Path("src/repro/nn/scratch.py"))
    return ModuleTaint(tree, syms.resolve)


def _exit_env(source: str, fn_name: str):
    mt = _module_taint(source)
    for fn, result in mt.iter_function_results():
        if fn.name == fn_name:
            return result.out_states[result.cfg.exit]
    raise AssertionError(f"function {fn_name} not analysed")


class TestTaint:
    def test_join_takes_max_level(self):
        a = CLEAN
        b = Taint(F64.level, reason="x", lineno=3)
        assert a.join(b).is_f64
        assert b.join(a).reason == "x"

    def test_python_float_scalar_stays_weak(self):
        env = _exit_env(
            """
            import numpy as np
            def f(x):
                y = x * 0.5
                return y
            """,
            "f",
        )
        assert not env["y"].is_f64

    def test_rng_draw_is_f64_until_dtype_pinned(self):
        env = _exit_env(
            """
            def f(rng):
                a = rng.standard_normal(4)
                import numpy as np
                b = rng.standard_normal(4, dtype=np.float32)
                return a, b
            """,
            "f",
        )
        assert env["a"].is_f64
        assert not env["b"].is_f64

    def test_astype_sanitizes(self):
        env = _exit_env(
            """
            import numpy as np
            def f(n):
                x = np.linspace(0, 1, n)
                y = x.astype(np.float32)
                return y
            """,
            "f",
        )
        assert env["x"].is_f64
        assert not env["y"].is_f64

    def test_intra_module_call_summary(self):
        env = _exit_env(
            """
            import numpy as np
            def helper(n):
                return np.linspace(0, 1, n)
            def f(n):
                z = helper(n)
                return z
            """,
            "f",
        )
        assert env["z"].is_f64

    def test_branch_join_propagates_f64(self):
        env = _exit_env(
            """
            import numpy as np
            def f(n, wide):
                if wide:
                    x = np.linspace(0, 1, n)
                else:
                    x = np.zeros(n, dtype=np.float32)
                return x
            """,
            "f",
        )
        assert env["x"].is_f64


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


class TestSymbols:
    def test_module_dotted_name(self):
        assert module_dotted_name(Path("src/repro/nn/tensor.py")) == "repro.nn.tensor"
        assert module_dotted_name(Path("src/repro/nn/__init__.py")) == "repro.nn"
        assert module_dotted_name(Path("scratch/loose.py")) is None

    def test_import_resolution(self):
        tree = ast.parse(
            "import numpy as np\nfrom repro.nn.tensor import Tensor\n"
        )
        syms = index_module(tree, Path("src/repro/core/model.py"))
        assert syms.resolve("np.zeros") == "numpy.zeros"
        assert syms.resolve("Tensor") == "repro.nn.tensor.Tensor"

    def test_relative_import_resolution(self):
        tree = ast.parse("from .tensor import Tensor\nfrom ..obs import span\n")
        syms = index_module(tree, Path("src/repro/nn/layers.py"))
        assert syms.resolve("Tensor") == "repro.nn.tensor.Tensor"
        assert syms.resolve("span") == "repro.obs.span"

    def test_mutable_global_classification(self):
        tree = ast.parse("A = {}\nB = 4\nC = []\n")
        syms = index_module(tree, Path("src/repro/data/reg.py"))
        assert syms.globals["A"].mutable
        assert not syms.globals["B"].mutable
        assert syms.globals["C"].mutable


# ---------------------------------------------------------------------------
# Golden corpus
# ---------------------------------------------------------------------------


class TestCorpusGolden:
    def test_expected_findings_exact(self):
        expected = json.loads((CORPUS / "expected.json").read_text())
        run = run_lint([CORPUS])
        actual: dict = {rel: [] for rel in expected}
        for f in run.findings:
            rel = Path(f.path).resolve().relative_to(CORPUS.resolve()).as_posix()
            actual.setdefault(rel, []).append([f.line, f.rule_id])
        actual = {k: sorted(v) for k, v in actual.items()}
        assert actual == expected

    def test_clean_file_has_no_findings(self):
        findings = lint_paths([CORPUS / "src/repro/nn/clean_pinned.py"])
        assert findings == []


class TestOldVsNewF64:
    """The dataflow REPRO-F64 must catch leaks the syntactic pass
    provably misses — both implementations run on the same corpus."""

    FLOW_ONLY = [
        "flow_dtype_var.py",
        "flow_astype_var.py",
        "flow_rng_sink.py",
        "flow_linspace_sink.py",
        "flow_branch_join.py",
    ]

    @staticmethod
    def _f64(rule, name: str):
        module = ModuleInfo.parse(CORPUS / "src/repro/nn" / name)
        return [f for f in rule.check(module) if f.rule_id == "REPRO-F64"]

    @pytest.mark.parametrize("name", FLOW_ONLY)
    def test_syntactic_misses_flow_catches(self, name):
        assert self._f64(SyntacticFloat64Rule(), name) == []
        assert len(self._f64(DtypeTaintRule(), name)) >= 1

    def test_at_least_three_distinct_misses(self):
        misses = [
            name
            for name in self.FLOW_ONLY
            if not self._f64(SyntacticFloat64Rule(), name)
            and self._f64(DtypeTaintRule(), name)
        ]
        assert len(misses) >= 3

    def test_flow_rule_keeps_syntactic_coverage(self):
        old = self._f64(SyntacticFloat64Rule(), "syntactic_overlap.py")
        new = self._f64(DtypeTaintRule(), "syntactic_overlap.py")
        assert [(f.line, f.message) for f in old] == [
            (f.line, f.message) for f in new
        ]

    def test_neither_flags_clean_code(self):
        assert self._f64(SyntacticFloat64Rule(), "clean_pinned.py") == []
        assert self._f64(DtypeTaintRule(), "clean_pinned.py") == []


# ---------------------------------------------------------------------------
# Unused suppressions
# ---------------------------------------------------------------------------


NN_LEAKY = """
    import numpy as np

    def f(n):
        rng = np.random.default_rng()
        return rng.random(n)
"""

SUPPRESSED = "np.random.default_rng()  # repro-lint: disable=REPRO-DET-SEED -- fixture"


class TestUnusedSuppression:
    def test_suppression_that_silences_a_finding_passes(self, tmp_path):
        root = write_project(
            tmp_path,
            {"src/repro/data/mod.py": NN_LEAKY.replace("np.random.default_rng()", SUPPRESSED)},
        )
        assert lint_paths([root / "src"]) == []
        assert main([str(root / "src")]) == 0

    def test_suppression_that_silences_nothing_fails(self, tmp_path, capsys):
        """Fixing the violation leaves the comment behind; it goes stale
        loudly instead of hiding the next violation on that line."""
        fixed = NN_LEAKY.replace(
            "np.random.default_rng()", SUPPRESSED.replace("default_rng()", "default_rng(7)")
        )
        root = write_project(tmp_path, {"src/repro/data/mod.py": fixed})
        findings = lint_paths([root / "src"])
        assert [(f.line, f.rule_id) for f in findings] == [(5, "REPRO-SUP")]
        assert "silences no finding" in findings[0].message
        assert main([str(root / "src"), "--quiet"]) == 1
        assert "REPRO-SUP" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------


class TestSarif:
    def test_cli_exports_agree(self, tmp_path):
        root = write_project(tmp_path, {"src/repro/data/mod.py": NN_LEAKY})
        json_out = root / "out.json"
        rc = main([str(root / "src"), "--json", str(json_out), "--quiet"])
        assert rc == 1
        records = json.loads(json_out.read_text())
        assert len(records) == 1
        finding = Finding.from_dict(records[0])
        assert finding.rule_id == "REPRO-DET-SEED"
        assert finding.to_dict() == records[0]


class TestNoSideEffects:
    def test_lint_run_creates_no_file(self, tmp_path):
        root = write_project(tmp_path, {"src/repro/data/mod.py": NN_LEAKY})
        before = sorted(p for p in root.rglob("*"))
        assert main([str(root / "src"), "--quiet"]) == 1
        assert sorted(p for p in root.rglob("*")) == before


# ---------------------------------------------------------------------------
# CLI: --explain, --list-rules
# ---------------------------------------------------------------------------


class TestCliSurface:
    def test_list_rules_has_metadata_columns(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "SEV" in out and "FAMILY" in out and "KIND" in out
        assert "REPRO-F64" in out and "semantic" in out and "syntactic" in out
        for rule in REGISTRY:
            assert rule.rule_id in out

    def test_explain_known_rule(self, capsys):
        assert main(["--explain", "REPRO-F64"]) == 0
        out = capsys.readouterr().out
        assert "dtype-taint" in out or "float64" in out
        assert "Example:" in out

    def test_explain_unknown_rule_fails(self, capsys):
        assert main(["--explain", "REPRO-NOPE"]) == 2

    def test_every_rule_has_metadata(self):
        for rule in REGISTRY:
            assert getattr(rule, "severity") in ("error", "warning", "info"), rule.rule_id
            assert getattr(rule, "family"), rule.rule_id
            assert isinstance(getattr(rule, "semantic"), bool), rule.rule_id
            assert getattr(rule, "example"), rule.rule_id


# ---------------------------------------------------------------------------
# Semantic rule unit tests (beyond the corpus)
# ---------------------------------------------------------------------------


def _lint_snippet(tmp_path, rel: str, source: str):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([path])


class TestDeterminismRules:
    def test_sorted_set_iteration_is_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/data/mod.py",
            """
            def f(pois):
                total = 0.0
                for poi in sorted(set(pois)):
                    total += poi
                return total
            """,
        )
        assert findings == []

    def test_membership_loop_over_set_is_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/data/mod.py",
            """
            def f(pois, needle):
                found = False
                for poi in set(pois):
                    if poi == needle:
                        found = True
                return found
            """,
        )
        assert findings == []

    def test_sum_over_set_comprehension_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/data/mod.py",
            """
            def f(weights):
                keys = set(weights)
                return sum(weights[k] for k in keys)
            """,
        )
        assert [f.rule_id for f in findings] == ["REPRO-DET-ITER"]

    def test_seeded_rng_is_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/data/mod.py",
            """
            import numpy as np

            def f():
                return np.random.default_rng(7)
            """,
        )
        assert findings == []


class TestSharedStateRule:
    def test_sanctioned_state_module_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/obs/state.py",
            """
            _STATE = {}

            def put(k, v):
                _STATE[k] = v
            """,
        )
        assert findings == []

    def test_local_shadow_not_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/data/mod.py",
            """
            _CACHE = {}

            def f(k, v):
                _CACHE = {}
                _CACHE[k] = v
                return _CACHE
            """,
        )
        assert [f.rule_id for f in findings] == []


class TestBackwardCaptureRule:
    def test_no_rebind_is_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/nn/mod.py",
            """
            import numpy as np

            def _op(x, scale):
                frozen = np.float32(scale)
                out = x.data * frozen

                def backward(grad):
                    x._accumulate(grad * frozen)

                return out, backward
            """,
        )
        assert findings == []

    def test_mutation_after_capture_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/nn/mod.py",
            """
            def _op(x, scratch):
                def backward(grad):
                    x._accumulate(grad * scratch["w"])

                scratch["w"] = 2.0
                return backward
            """,
        )
        assert [f.rule_id for f in findings] == ["REPRO-GRAD-CAPTURE"]
        assert "mutated" in findings[0].message
