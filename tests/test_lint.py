"""Unit tests for the ``repro.lint`` static analysis pass.

Covers every rule with deliberately-injected violations in scratch
files, the suppression syntax (including the justification
requirement), the CLI exit codes, and — crucially — the self-gate:
linting the repo's own ``src/`` tree must produce zero findings.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import REGISTRY, ModuleInfo, lint_paths, op_inventory
from repro.lint.engine import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

ALL_RULE_IDS = {rule.rule_id for rule in REGISTRY}


def write_scratch(tmp_path: Path, source: str, rel: str = "src/repro/nn/scratch.py") -> Path:
    """Write a scratch module inside a synthetic nn/ package dir."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def rule_ids(findings):
    return {f.rule_id for f in findings}


class TestSelfGate:
    def test_repo_src_is_clean(self):
        """The gate self-enforces: the shipped tree has zero findings."""
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_every_rule_has_id_and_description(self):
        for rule in REGISTRY:
            assert rule.rule_id.startswith("REPRO-")
            assert len(rule.description) > 10


class TestFrameworkImports:
    def test_import_torch_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "import torch\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-IMPORT"}

    def test_from_import_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "from tensorflow.keras import layers\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-IMPORT"}

    def test_numpy_allowed(self, tmp_path):
        path = write_scratch(tmp_path, "import numpy as np\n")
        assert lint_paths([path]) == []


class TestGlobalRng:
    def test_legacy_call_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "import numpy as np\nx = np.random.rand(3)\n")
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-RNG"}
        assert "np.random.rand" in findings[0].message

    def test_seed_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "import numpy as np\nnp.random.seed(0)\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-RNG"}

    def test_legacy_import_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "from numpy.random import randint\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-RNG"}

    def test_default_rng_allowed(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.random(3)\n",
        )
        assert lint_paths([path]) == []

    def test_applies_outside_nn_too(self, tmp_path):
        path = write_scratch(
            tmp_path, "import numpy as np\nnp.random.shuffle(x)\n", rel="src/repro/data/mod.py"
        )
        assert rule_ids(lint_paths([path])) == {"REPRO-RNG"}


class TestFloat64Leaks:
    def test_dtype_keyword_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "import numpy as np\nx = np.zeros(3, dtype=np.float64)\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-F64"}

    def test_astype_float_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "def f(x):\n    return x.astype(float)\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-F64"}

    def test_float64_constructor_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "import numpy as np\nv = np.float64(1.0)\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-F64"}

    def test_bare_asarray_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "import numpy as np\ndef f(v):\n    return np.asarray(v)\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-F64"}

    def test_asarray_with_dtype_allowed(self, tmp_path):
        path = write_scratch(
            tmp_path, "import numpy as np\ndef f(v):\n    return np.asarray(v, dtype=np.float32)\n"
        )
        assert lint_paths([path]) == []

    def test_scoped_to_nn(self, tmp_path):
        """float64 is fine outside the differentiable substrate (geo, data, ...)."""
        path = write_scratch(
            tmp_path,
            "import numpy as np\nx = np.zeros(3, dtype=np.float64)\n",
            rel="src/repro/geo/mod.py",
        )
        assert lint_paths([path]) == []

    @pytest.mark.parametrize("call", [
        "np.zeros(3)",
        "np.ones((2, 2))",
        "np.empty(n)",
        "np.full((2, 2), 0.5)",
        "np.arange(n)",
    ])
    def test_dtypeless_constructor_flagged(self, tmp_path, call):
        """Closure-captured scratch arrays from dtype-less allocators
        default to float64; an explicit dtype is required."""
        source = f"import numpy as np\n\ndef op(n, i, w):\n    return {call}\n"
        path = write_scratch(tmp_path, source)
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-F64"}
        assert "dtype-less" in findings[0].message

    def test_weighted_bincount_flagged(self, tmp_path):
        """bincount takes no dtype argument and accumulates weights in
        float64; each use must cast on store and justify a suppression."""
        source = "import numpy as np\n\ndef op(i, w):\n    return np.bincount(i, weights=w)\n"
        path = write_scratch(tmp_path, source)
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-F64"}
        assert "weights" in findings[0].message

    def test_constructor_with_dtype_allowed(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "import numpy as np\n"
            "x = np.zeros(3, dtype=np.float32)\n"
            "y = np.arange(4, dtype=np.int64)\n"
            "z = np.bincount(y, minlength=8)\n",  # pure counts: int64, no leak
        )
        assert lint_paths([path]) == []

    def test_dtypeless_constructor_in_closure_flagged(self, tmp_path):
        """The motivating case: a backward closure capturing a float64
        scratch array allocated at forward time."""
        source = (
            "import numpy as np\n"
            "from repro.nn.tensor import Tensor\n\n"
            "def op(x):\n"
            "    scratch = np.zeros(x.data.shape)\n\n"
            "    def backward(grad):\n"
            "        x._accumulate(grad * scratch)\n\n"
            "    return Tensor._make(x.data, (x,), backward)\n"
        )
        path = write_scratch(tmp_path, source)
        assert "REPRO-F64" in rule_ids(lint_paths([path]))


class TestTensorDataMutation:
    def test_subscript_store_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "def f(t):\n    t.data[0] = 1.0\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-MUT"}

    def test_augassign_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "def f(t):\n    t.data += 1.0\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-MUT"}

    def test_attribute_store_flagged(self, tmp_path):
        path = write_scratch(tmp_path, "def f(t, arr):\n    t.data = arr\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-MUT"}

    def test_scatter_mutation_flagged(self, tmp_path):
        path = write_scratch(
            tmp_path, "import numpy as np\ndef f(t, i, g):\n    np.add.at(t.data, i, g)\n"
        )
        assert rule_ids(lint_paths([path])) == {"REPRO-MUT"}

    def test_self_data_allowed(self, tmp_path):
        """The Tensor class managing its own storage is not a violation."""
        path = write_scratch(
            tmp_path,
            "class Tensor:\n    def __init__(self, arr):\n        self.data = arr\n",
        )
        assert lint_paths([path]) == []

    def test_fresh_array_scatter_allowed(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "import numpy as np\ndef f(shape, i, g):\n"
            "    full = np.zeros(shape, dtype=np.float32)\n"
            "    np.add.at(full, i, g)\n    return full\n",
        )
        assert lint_paths([path]) == []


OP_WITHOUT_BACKWARD = """\
from repro.nn.tensor import Tensor

def my_op(x):
    out = x.data * 2.0
    return Tensor._make(out, (x,), None)
"""

OP_WITH_BACKWARD = """\
from repro.nn.tensor import Tensor

def doubled(x):
    out = x.data * 2.0

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * 2.0)

    return Tensor._make(out, (x,), backward)
"""


class TestOpAttachesBackward:
    def test_missing_backward_flagged(self, tmp_path):
        path = write_scratch(tmp_path, OP_WITHOUT_BACKWARD)
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-OP-BACKWARD"}
        assert "my_op" in findings[0].message

    def test_attached_backward_clean(self, tmp_path):
        path = write_scratch(tmp_path, OP_WITH_BACKWARD)
        assert lint_paths([path]) == []

    def test_foreign_closure_flagged(self, tmp_path):
        source = OP_WITH_BACKWARD.replace(
            "return Tensor._make(out, (x,), backward)",
            "return Tensor._make(out, (x,), lambda g: None)",
        )
        path = write_scratch(tmp_path, source)
        assert rule_ids(lint_paths([path])) == {"REPRO-OP-BACKWARD"}


class TestGradcheckCoverage:
    def _write_gradcheck(self, tmp_path, body):
        test_file = tmp_path / "tests" / "test_nn_gradcheck.py"
        test_file.parent.mkdir(parents=True, exist_ok=True)
        test_file.write_text(body)
        return test_file

    def test_uncovered_op_flagged(self, tmp_path):
        self._write_gradcheck(tmp_path, "def test_covered():\n    doubled(1)\n")
        source = OP_WITH_BACKWARD + OP_WITH_BACKWARD.replace("doubled", "tripled").split(
            "from repro.nn.tensor import Tensor\n"
        )[1]
        path = write_scratch(tmp_path, source)
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-GRADCHECK"}
        assert "tripled" in findings[0].message

    def test_covered_op_clean(self, tmp_path):
        self._write_gradcheck(tmp_path, "def test_covered():\n    doubled(1)\n")
        path = write_scratch(tmp_path, OP_WITH_BACKWARD)
        assert lint_paths([path]) == []

    def test_no_gradcheck_file_skips_rule(self, tmp_path):
        path = write_scratch(tmp_path, OP_WITH_BACKWARD.replace("doubled", "unheard_of"))
        assert lint_paths([path]) == []

    def test_dunder_ops_exempt(self, tmp_path):
        self._write_gradcheck(tmp_path, "def test_nothing():\n    pass\n")
        path = write_scratch(
            tmp_path,
            OP_WITH_BACKWARD.replace("def doubled(x):", "def __add__(x):"),
        )
        assert lint_paths([path]) == []


class TestHotPathImports:
    def test_function_body_import_flagged(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "def hot():\n    import os\n    return os.getpid()\n",
            rel="src/repro/core/scratch.py",
        )
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-HOTIMPORT"}
        assert findings[0].line == 2

    def test_from_import_in_method_flagged(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "class S:\n    def go(self):\n        from math import sqrt\n        return sqrt(2)\n",
            rel="src/repro/baselines/scratch.py",
        )
        assert rule_ids(lint_paths([path])) == {"REPRO-HOTIMPORT"}

    def test_module_scope_import_allowed(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "import os\n\ndef hot():\n    return os.getpid()\n",
            rel="src/repro/core/scratch.py",
        )
        assert lint_paths([path]) == []

    def test_cold_paths_exempt(self, tmp_path):
        source = "def cold():\n    import os\n    return os.getpid()\n"
        for rel in ("src/repro/analysis/scratch.py", "src/repro/lint/scratch.py"):
            path = write_scratch(tmp_path, source, rel=rel)
            assert lint_paths([path]) == [], rel

    def test_justified_cycle_break_suppressed(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "def hot():\n"
            "    from math import sqrt  # repro-lint: disable=REPRO-HOTIMPORT -- cycle\n"
            "    return sqrt(2)\n",
            rel="src/repro/core/scratch.py",
        )
        assert lint_paths([path]) == []


class TestRawPerfCounter:
    def test_time_perf_counter_call_flagged_in_core(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "import time\n\ndef f():\n    return time.perf_counter()\n",
            rel="src/repro/core/scratch.py",
        )
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-OBS"}
        assert "perf_counter" in findings[0].message

    def test_aliased_module_call_flagged_in_eval(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "import time as clock\nx = clock.perf_counter()\n",
            rel="src/repro/eval/scratch.py",
        )
        assert rule_ids(lint_paths([path])) == {"REPRO-OBS"}

    def test_from_import_flagged(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "from time import perf_counter\n",
            rel="src/repro/core/scratch.py",
        )
        assert rule_ids(lint_paths([path])) == {"REPRO-OBS"}

    def test_obs_package_exempt(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "from time import perf_counter\n",
            rel="src/repro/obs/scratch.py",
        )
        assert lint_paths([path]) == []

    def test_nn_and_tooling_exempt(self, tmp_path):
        source = "import time\nx = time.perf_counter()\n"
        for rel in ("src/repro/nn/scratch.py", "src/repro/analysis/scratch.py"):
            path = write_scratch(tmp_path, source, rel=rel)
            assert lint_paths([path]) == [], rel

    def test_time_time_not_obs_flagged(self, tmp_path):
        """Only perf_counter is claimed by the obs layer; wall-clock
        time.time() in core now belongs to the determinism family
        (REPRO-DET-CLOCK, warning), not REPRO-OBS."""
        path = write_scratch(
            tmp_path,
            "import time\nx = time.time()\n",
            rel="src/repro/core/scratch.py",
        )
        findings = lint_paths([path])
        assert {f.rule_id for f in findings} == {"REPRO-DET-CLOCK"}
        assert all(f.severity == "warning" for f in findings)

    def test_justified_suppression_honored(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "import time\n"
            "x = time.perf_counter()  # repro-lint: disable=REPRO-OBS -- calibration fixture\n",
            rel="src/repro/eval/scratch.py",
        )
        assert lint_paths([path]) == []


class TestAtomicCheckpointIo:
    def test_write_mode_open_flagged_in_core(self, tmp_path):
        path = write_scratch(
            tmp_path,
            'def f(p):\n    with open(p, "w") as fh:\n        fh.write("x")\n',
            rel="src/repro/core/scratch.py",
        )
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-ATOMICIO"}
        assert "atomic_write_bytes" in findings[0].message

    @pytest.mark.parametrize("mode", ['"wb"', '"a"', '"x"', '"r+"', "mode_var"])
    def test_every_write_mode_flagged(self, tmp_path, mode):
        """All write-capable modes are caught; a dynamic (unprovable)
        mode is treated as suspect too."""
        source = f'def f(p, mode_var):\n    return open(p, {mode})\n'
        path = write_scratch(tmp_path, source, rel="src/repro/nn/scratch.py")
        assert rule_ids(lint_paths([path])) == {"REPRO-ATOMICIO"}

    def test_mode_keyword_flagged(self, tmp_path):
        path = write_scratch(
            tmp_path,
            'def f(p):\n    return open(p, mode="w")\n',
            rel="src/repro/core/scratch.py",
        )
        assert rule_ids(lint_paths([path])) == {"REPRO-ATOMICIO"}

    def test_read_mode_open_allowed(self, tmp_path):
        source = 'def f(p):\n    return open(p), open(p, "rb"), open(p, mode="r")\n'
        path = write_scratch(tmp_path, source, rel="src/repro/core/scratch.py")
        assert lint_paths([path]) == []

    @pytest.mark.parametrize("call", [
        "np.savez(p, w=w)",
        "np.savez_compressed(p, w=w)",
        "np.save(p, w)",
    ])
    def test_numpy_writers_flagged(self, tmp_path, call):
        source = f"import numpy as np\n\ndef f(p, w):\n    {call}\n"
        path = write_scratch(tmp_path, source, rel="src/repro/core/scratch.py")
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-ATOMICIO"}
        assert "save_arrays" in findings[0].message

    def test_path_write_methods_flagged(self, tmp_path):
        source = (
            "def f(p):\n"
            '    p.write_bytes(b"x")\n'
            '    p.write_text("x")\n'
        )
        path = write_scratch(tmp_path, source, rel="src/repro/core/scratch.py")
        findings = lint_paths([path])
        assert len(findings) == 2
        assert rule_ids(findings) == {"REPRO-ATOMICIO"}

    def test_serialization_module_is_the_sanctioned_writer(self, tmp_path):
        """The atomic helper itself is allowlisted — it is the one
        place allowed to touch checkpoint bytes directly."""
        source = 'def f(p):\n    return open(p, "wb")\n'
        path = write_scratch(tmp_path, source, rel="src/repro/nn/serialization.py")
        assert lint_paths([path]) == []

    def test_layers_outside_core_and_nn_exempt(self, tmp_path):
        source = 'import numpy as np\n\ndef f(p, w):\n    np.save(p, w)\n'
        for rel in ("src/repro/data/scratch.py", "src/repro/obs/scratch.py"):
            path = write_scratch(tmp_path, source, rel=rel)
            assert lint_paths([path]) == [], rel

    def test_np_load_not_flagged(self, tmp_path):
        source = "import numpy as np\n\ndef f(p):\n    return np.load(p)\n"
        path = write_scratch(tmp_path, source, rel="src/repro/core/scratch.py")
        assert lint_paths([path]) == []


class TestFusedAttentionRouting:
    SCORE_CHAIN = (
        "import numpy as np\n\n"
        "def attend(q, k, v, d):\n"
        "    scores = (q @ k.transpose()) * (1.0 / np.sqrt(d))\n"
        "    return scores @ v\n"
    )

    def test_score_chain_flagged_in_core(self, tmp_path):
        path = write_scratch(tmp_path, self.SCORE_CHAIN, rel="src/repro/core/scratch.py")
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-FUSED"}
        assert "fused_causal_attention" in findings[0].message

    def test_swapaxes_operand_flagged(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "import numpy as np\n\ndef f(q, k):\n    return q @ np.swapaxes(k, -1, -2)\n",
            rel="src/repro/core/scratch.py",
        )
        assert rule_ids(lint_paths([path])) == {"REPRO-FUSED"}

    def test_transpose_of_result_allowed(self, tmp_path):
        """Transposing the matmul *output* (head merge) is not a score chain."""
        path = write_scratch(
            tmp_path,
            "def f(w, v, b, n, d):\n"
            "    return (w @ v).transpose(0, 2, 1, 3).reshape(b, n, d)\n",
            rel="src/repro/core/scratch.py",
        )
        assert lint_paths([path]) == []

    def test_plain_matmul_allowed(self, tmp_path):
        path = write_scratch(
            tmp_path, "def f(a, b):\n    return a @ b\n", rel="src/repro/core/scratch.py"
        )
        assert lint_paths([path]) == []

    def test_nn_reference_impl_exempt(self, tmp_path):
        """nn/ owns both legs of the fused/reference contract."""
        path = write_scratch(tmp_path, self.SCORE_CHAIN, rel="src/repro/nn/scratch.py")
        assert lint_paths([path]) == []

    def test_baselines_exempt(self, tmp_path):
        """Baselines are standalone reference models, not core call-sites."""
        path = write_scratch(
            tmp_path, self.SCORE_CHAIN, rel="src/repro/baselines/scratch.py"
        )
        assert lint_paths([path]) == []

    def test_reference_leg_suppression_honored(self, tmp_path):
        source = self.SCORE_CHAIN.replace(
            "* (1.0 / np.sqrt(d))",
            "* (1.0 / np.sqrt(d))  # repro-lint: disable=REPRO-FUSED -- reference leg",
        )
        path = write_scratch(tmp_path, source, rel="src/repro/core/scratch.py")
        assert lint_paths([path]) == []


class TestSuppressions:
    def test_justified_suppression_silences(self, tmp_path):
        path = write_scratch(
            tmp_path, "import torch  # repro-lint: disable=REPRO-IMPORT -- scratch fixture\n"
        )
        assert lint_paths([path]) == []

    def test_unjustified_suppression_is_a_finding(self, tmp_path):
        path = write_scratch(tmp_path, "import torch  # repro-lint: disable=REPRO-IMPORT\n")
        assert rule_ids(lint_paths([path])) == {"REPRO-SUP"}

    def test_sup_rule_cannot_be_suppressed(self, tmp_path):
        path = write_scratch(
            tmp_path, "import torch  # repro-lint: disable=REPRO-IMPORT,REPRO-SUP\n"
        )
        assert "REPRO-SUP" in rule_ids(lint_paths([path]))

    def test_suppression_is_line_scoped(self, tmp_path):
        path = write_scratch(
            tmp_path,
            "import jax  # repro-lint: disable=REPRO-IMPORT -- fixture\nimport torch\n",
        )
        findings = lint_paths([path])
        assert rule_ids(findings) == {"REPRO-IMPORT"}
        assert findings[0].line == 2

    def test_disable_all(self, tmp_path):
        path = write_scratch(
            tmp_path, "import torch  # repro-lint: disable=all -- fixture\n"
        )
        assert lint_paths([path]) == []


class TestEngineAndCli:
    def test_exit_zero_on_clean(self, tmp_path, capsys):
        path = write_scratch(tmp_path, "import numpy as np\n")
        assert lint_main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_exit_one_with_formatted_finding(self, tmp_path, capsys):
        path = write_scratch(tmp_path, "import torch\n")
        assert lint_main([str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:1: REPRO-IMPORT" in out or ":1: REPRO-IMPORT" in out

    def test_exit_two_on_missing_path(self, tmp_path):
        assert lint_main([str(tmp_path / "nope.py")]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_syntax_error_reported(self, tmp_path, capsys):
        path = write_scratch(tmp_path, "def broken(:\n")
        assert lint_main([str(path)]) == 1
        assert "REPRO-SYNTAX" in capsys.readouterr().out

    def test_repro_check_subcommand(self, tmp_path):
        bad = write_scratch(tmp_path, "import torch\n")
        clean = write_scratch(tmp_path, "import numpy as np\n", rel="src/repro/nn/ok.py")
        assert cli_main(["check", str(bad), "--quiet"]) == 1
        assert cli_main(["check", str(clean), "--quiet"]) == 0
        # a leading option reaches repro.lint's parser too
        assert cli_main(["check", "--list-rules"]) == 0

    def test_repro_check_forwards_json_and_gradcheck_flags(self, tmp_path, capsys):
        op = write_scratch(tmp_path, OP_WITH_BACKWARD)
        gradcheck = tmp_path / "elsewhere.py"
        gradcheck.write_text("def test_nothing():\n    pass\n")
        out = tmp_path / "findings.json"
        # no gradcheck module is discoverable from tmp_path, so 'doubled'
        # is reported uncovered only through the forwarded flag
        assert cli_main(["check", str(op), "--quiet"]) == 0
        flags = ["--gradcheck-file", str(gradcheck), "--json", str(out)]
        assert cli_main(["check", str(op), "--quiet", *flags]) == 1
        records = json.loads(out.read_text())
        assert [r["rule_id"] for r in records] == ["REPRO-GRADCHECK"]
        assert "doubled" in records[0]["message"]

    @pytest.mark.slow  # spawns a fresh python -m repro.lint subprocess
    def test_module_invocation_all_violation_classes(self, tmp_path):
        """Acceptance: every violation class injected into one scratch file
        makes ``python -m repro.lint`` exit non-zero with the right IDs."""
        source = "\n".join(
            [
                "import torch",
                "import numpy as np",
                "from repro.nn.tensor import Tensor",
                "x = np.random.rand(3)",
                "y = np.zeros(3, dtype=np.float64)",
                "def bad_op(t):",
                "    t.data[0] = 1.0",
                "    return Tensor._make(t.data, (t,), None)",
            ]
        )
        path = write_scratch(tmp_path, source + "\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(path)],
            capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 1
        for rule_id in ("REPRO-IMPORT", "REPRO-RNG", "REPRO-F64", "REPRO-MUT", "REPRO-OP-BACKWARD"):
            assert rule_id in proc.stdout, f"{rule_id} missing in:\n{proc.stdout}"


class TestOpInventory:
    def test_functional_inventory(self):
        module = ModuleInfo.parse(SRC / "repro" / "nn" / "functional.py")
        inventory = op_inventory(module)
        for expected in ("softmax", "log_softmax", "softplus", "log_sigmoid",
                         "embedding_lookup", "abs_tensor"):
            assert expected in inventory

    def test_tensor_inventory_includes_methods(self):
        module = ModuleInfo.parse(SRC / "repro" / "nn" / "tensor.py")
        inventory = op_inventory(module)
        for expected in ("sum", "max", "exp", "matmul", "where", "masked_fill"):
            assert expected in inventory


class TestRuffConfig:
    def test_ruff_clean_when_available(self):
        """Mirror the CI ruff job; skipped where ruff is not installed."""
        ruff = shutil.which("ruff")
        if ruff is None:
            pytest.skip("ruff not installed in this environment; CI runs it")
        proc = subprocess.run(
            [ruff, "check", "src", "tests"], cwd=REPO_ROOT, capture_output=True
        )
        assert proc.returncode == 0, proc.stdout.decode()
