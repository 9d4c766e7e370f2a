"""Tests for the per-module rules of ``repro check``.

Determinism (``rng-ambient``, ``rng-constant-seed``, ``wallclock``), unit
hygiene (``magic-unit``), output hygiene (``no-print``), the scheduler
contract (``scheduler-*``, ``ctx-mutation``) and the closed reason
vocabularies (``vocab-unknown``), plus the ``lint-ok`` waiver parser,
configuration and CLI coverage.  Every rule gets at least one positive
fixture (the rule fires on the hazard it documents) and one negative
fixture (the idiomatic replacement passes).  The in-memory
``check_sources`` entry point keeps the fixtures self-contained: each is a
``(display_path, scope_path, source)`` triple, where the scope path decides
whether the file counts as simulation-critical.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.check import (
    RULES,
    CheckConfig,
    Finding,
    check_paths,
    check_sources,
)
from repro.analysis.check.config import DEFAULT_DETERMINISTIC_DIRS
from repro.analysis.check.findings import suppressions, unknown_waiver_rules
from repro.analysis.check.runner import main as check_main
from repro.trace import events

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: scope inside a deterministic sub-package — the wallclock rule applies.
ENGINE = Path("repro/engine/mod.py")
#: scope outside the deterministic sub-packages — it does not.
DRIVER = Path("repro/analysis/mod.py")


def run_lint(source, scope=ENGINE, config=None):
    return check_sources([("mod.py", scope, source)], config)


def rules(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# rng-ambient: global random state
# ----------------------------------------------------------------------
class TestGlobalRng:
    def test_stdlib_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert rules(run_lint(src)) == ["rng-ambient"]

    def test_numpy_global_state_flagged(self):
        src = "import numpy as np\nnp.random.seed(42)\ny = np.random.rand(3)\n"
        assert [f.rule for f in run_lint(src)] == ["rng-ambient", "rng-ambient"]

    def test_from_import_alias_flagged(self):
        src = "from numpy.random import shuffle as sh\nsh([1, 2])\n"
        assert rules(run_lint(src)) == ["rng-ambient"]

    def test_numpy_random_module_alias_flagged(self):
        src = "from numpy import random as npr\nx = npr.normal()\n"
        assert rules(run_lint(src)) == ["rng-ambient"]

    def test_injected_generator_ok(self):
        src = (
            "import numpy as np\n"
            "def f(rng: np.random.Generator):\n"
            "    return rng.random()\n"
        )
        assert run_lint(src) == []

    def test_flagged_outside_deterministic_scope_too(self):
        src = "import random\nx = random.random()\n"
        assert rules(run_lint(src, scope=DRIVER)) == ["rng-ambient"]


# ----------------------------------------------------------------------
# wallclock
# ----------------------------------------------------------------------
class TestWallclock:
    def test_time_time_flagged(self):
        src = "import time\nt = time.time()\n"
        assert rules(run_lint(src)) == ["wallclock"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert rules(run_lint(src)) == ["wallclock"]

    def test_perf_counter_from_import_flagged(self):
        src = "from time import perf_counter\nt = perf_counter()\n"
        assert rules(run_lint(src)) == ["wallclock"]

    def test_simulated_clock_ok(self):
        src = "def f(sim):\n    return sim.now\n"
        assert run_lint(src) == []

    def test_outside_deterministic_scope_ok(self):
        src = "import time\nt = time.time()\n"
        assert run_lint(src, scope=DRIVER) == []


# ----------------------------------------------------------------------
# rng-ambient / rng-constant-seed: generator construction
# ----------------------------------------------------------------------
class TestRngConstruction:
    def test_unseeded_default_rng_flagged_even_outside_scope(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules(run_lint(src, scope=DRIVER)) == ["rng-ambient"]

    def test_aliased_unseeded_default_rng_flagged(self):
        src = "from numpy.random import default_rng as mk\nrng = mk()\n"
        assert rules(run_lint(src)) == ["rng-ambient"]

    def test_constant_seed_flagged_in_library_code(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert rules(run_lint(src)) == ["rng-constant-seed"]

    def test_constant_seed_seedsequence_flagged(self):
        src = "from numpy.random import SeedSequence\nss = SeedSequence(7)\n"
        assert rules(run_lint(src)) == ["rng-constant-seed"]

    def test_injected_seed_ok(self):
        src = (
            "import numpy as np\n"
            "def build(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert run_lint(src) == []

    def test_constant_seed_flagged_outside_library_scope_too(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert rules(run_lint(src, scope=DRIVER)) == ["rng-constant-seed"]


# ----------------------------------------------------------------------
# magic-unit
# ----------------------------------------------------------------------
class TestMagicUnit:
    def test_decimal_factor_flagged(self):
        assert rules(run_lint("x = b / 1e9\n")) == ["magic-unit"]

    def test_binary_size_arithmetic_flagged(self):
        assert rules(run_lint("cap = 128 * 1024 * 1024\n")) == ["magic-unit"]

    def test_power_and_shift_forms_flagged(self):
        vs = run_lint("a = 2 ** 30\nb = 1 << 20\nc = 1024 ** 3\n")
        assert [f.rule for f in vs] == ["magic-unit"] * 3

    def test_applies_outside_deterministic_scope_too(self):
        assert rules(run_lint("x = 4 * 1e6\n", scope=DRIVER)) == ["magic-unit"]

    def test_named_constants_ok(self):
        src = "from repro.units import GB\nx = 5 * GB\n"
        assert run_lint(src) == []

    def test_unrelated_arithmetic_ok(self):
        assert run_lint("x = 3 * 7\ny = 10 ** 2\nz = 1 << 4\n") == []


# ----------------------------------------------------------------------
# scheduler contracts (whole-project rules)
# ----------------------------------------------------------------------
INIT_SCOPE = Path("repro/schedulers/__init__.py")
SCHED_SCOPE = Path("repro/schedulers/mine.py")

GOOD_SCHEDULER = (
    "class MyScheduler(TaskScheduler):\n"
    '    name = "mine"\n'
    "\n"
    "    def select_map(self, node, job, ctx):\n"
    "        return None\n"
    "\n"
    "    def select_reduce(self, node, job, ctx):\n"
    "        return None\n"
)


def run_contract(sched_source, exported=()):
    init_src = "__all__ = [" + ", ".join(repr(e) for e in exported) + "]\n"
    return check_sources(
        [
            ("schedulers/__init__.py", INIT_SCOPE, init_src),
            ("schedulers/mine.py", SCHED_SCOPE, sched_source),
        ]
    )


class TestSchedulerContracts:
    def test_conforming_scheduler_clean(self):
        assert run_contract(GOOD_SCHEDULER, exported=("MyScheduler",)) == []

    def test_missing_hooks_flagged(self):
        src = 'class MyScheduler(TaskScheduler):\n    name = "mine"\n'
        vs = run_contract(src, exported=("MyScheduler",))
        assert [f.rule for f in vs] == ["scheduler-hooks", "scheduler-hooks"]
        assert "select_map" in vs[0].message
        assert "select_reduce" in vs[1].message

    def test_hooks_inherited_through_chain_ok(self):
        src = GOOD_SCHEDULER + (
            "\n\nclass Derived(MyScheduler):\n    name = \"derived\"\n"
        )
        assert run_contract(src, exported=("MyScheduler", "Derived")) == []

    def test_missing_name_flagged(self):
        src = (
            "class MyScheduler(TaskScheduler):\n"
            "    def select_map(self, node, job, ctx):\n"
            "        return None\n"
            "\n"
            "    def select_reduce(self, node, job, ctx):\n"
            "        return None\n"
        )
        vs = run_contract(src, exported=("MyScheduler",))
        assert rules(vs) == ["scheduler-name"]

    def test_missing_export_flagged(self):
        vs = run_contract(GOOD_SCHEDULER, exported=())
        assert rules(vs) == ["scheduler-export"]

    def test_private_subclass_needs_no_export(self):
        src = GOOD_SCHEDULER.replace("MyScheduler", "_Hidden")
        assert run_contract(src) == []

    def test_ctx_mutation_flagged(self):
        src = (
            "class MyScheduler(TaskScheduler):\n"
            '    name = "mine"\n'
            "\n"
            "    def select_map(self, node, job, ctx):\n"
            "        ctx.rng = None\n"
            "        return None\n"
            "\n"
            "    def select_reduce(self, node, job, ctx):\n"
            "        return None\n"
        )
        vs = run_contract(src, exported=("MyScheduler",))
        assert rules(vs) == ["ctx-mutation"]
        assert "ctx.rng" in vs[0].message

    def test_ctx_mutation_by_annotation_flagged(self):
        src = (
            "class MyScheduler(TaskScheduler):\n"
            '    name = "mine"\n'
            "\n"
            "    def select_map(self, node, job, context: SchedulerContext):\n"
            "        context.tracker = None\n"
            "        return None\n"
            "\n"
            "    def select_reduce(self, node, job, ctx):\n"
            "        return None\n"
        )
        vs = run_contract(src, exported=("MyScheduler",))
        assert rules(vs) == ["ctx-mutation"]

    def test_ctx_reads_ok(self):
        src = (
            "class MyScheduler(TaskScheduler):\n"
            '    name = "mine"\n'
            "\n"
            "    def select_map(self, node, job, ctx):\n"
            "        free = ctx.free_map_nodes()\n"
            "        return None if not free else None\n"
            "\n"
            "    def select_reduce(self, node, job, ctx):\n"
            "        return None\n"
        )
        assert run_contract(src, exported=("MyScheduler",)) == []


# ----------------------------------------------------------------------
# no-print
# ----------------------------------------------------------------------
class TestNoPrint:
    def test_print_call_flagged(self):
        assert rules(run_lint('print("hello")\n')) == ["no-print"]

    def test_flagged_anywhere_in_the_tree(self):
        src = "def report(x):\n    print(x)\n"
        assert rules(run_lint(src, scope=DRIVER)) == ["no-print"]

    def test_excluded_entry_points_may_print(self):
        src = 'print("usage: ...")\n'
        cli = Path("repro/cli.py")
        assert run_lint(src, scope=cli) == []

    def test_exclusion_is_configurable(self):
        config = CheckConfig(no_print_exclude=("repro/analysis/mod.py",))
        assert run_lint('print("x")\n', scope=DRIVER, config=config) == []
        assert rules(run_lint('print("x")\n', config=config)) == ["no-print"]

    def test_shadowed_print_is_not_flagged(self):
        src = "def emit(print):\n    print('x')\n"
        assert run_lint(src) == []

    def test_method_named_print_is_not_flagged(self):
        assert run_lint("dev.print('x')\n") == []

    def test_marker_waives(self):
        src = 'print("dbg")  # repro: lint-ok[no-print]\n'
        assert run_lint(src) == []

    def test_pyproject_key_parsed(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.check]\n"
            'no-print-exclude = ["repro/tools/dump.py"]\n',
            encoding="utf-8",
        )
        config = CheckConfig.load(tmp_path)
        assert config.no_print_exclude == ("repro/tools/dump.py",)


# ----------------------------------------------------------------------
# vocab-unknown: closed decline/failure vocabularies
# ----------------------------------------------------------------------
#: the live reason vocabularies, defined as the analyzed tree defines them
#: (the analyzer discovers vocabularies from source, never by import).
REASONS = "".join(
    f"{name} = {getattr(events, name)!r}\n"
    for name in ("DECLINE_REASONS", "FAILURE_REASONS", "NODE_DOWN_REASONS")
)


def run_reasons(source, scope=ENGINE, config=None):
    """Analyze ``source`` next to the vocabularies; drop the unused-member
    findings a fixture that uses only a few members would otherwise raise."""
    config = config or CheckConfig()
    config = dataclasses.replace(config, ignore=config.ignore + ("vocab-unused",))
    return check_sources(
        [
            ("events.py", Path("repro/trace/events.py"), REASONS),
            ("mod.py", scope, source),
        ],
        config,
    )


class TestUnknownReason:
    def test_vocabulary_literals_pass(self):
        src = (
            'ctx.note_decline("below_pmin")\n'
            'collector.offer_declined("map", "blacklisted")\n'
            'Decline(t=0.0, node="n", kind="map", reason="node_dead", job_id="")\n'
            'job.fail("attempts_exhausted")\n'
            'NodeDown(t=0.0, node="n", reason="expired", killed_attempts=0, '
            "lost_maps=0)\n"
        )
        assert run_reasons(src) == []

    def test_typo_in_decline_reason_flagged(self):
        vs = run_reasons('ctx.note_decline("below_pmim")\n')
        assert rules(vs) == ["vocab-unknown"]
        assert "DECLINE_REASONS" in vs[0].message

    def test_offer_declined_positional_reason_checked(self):
        vs = run_reasons('collector.offer_declined("map", "blacklistd")\n')
        assert rules(vs) == ["vocab-unknown"]

    def test_event_keyword_reasons_checked(self):
        src = (
            'AttemptFailed(t=0.0, node="n", kind="map", job_id="j", '
            'task_index=0, reason="task_eror", failures=1)\n'
            'JobFail(t=0.0, job_id="j", reason="gave_up")\n'
            'NodeDown(t=0.0, node="n", reason="vanished", killed_attempts=0, '
            "lost_maps=0)\n"
        )
        vs = run_reasons(src)
        assert [f.rule for f in vs] == ["vocab-unknown"] * 3

    def test_job_fail_string_literal_checked(self):
        vs = run_reasons('job.fail("out_of_retries")\n')
        assert rules(vs) == ["vocab-unknown"]
        # fail() with a non-string (or no) argument is someone else's fail()
        assert run_reasons("attempt.fail()\n") == []
        assert run_reasons("thing.fail(5)\n") == []

    def test_dynamic_reasons_out_of_scope(self):
        assert run_reasons("ctx.note_decline(reason_var)\n") == []
        assert run_reasons("ctx.note_decline(BELOW_PMIN)\n") == []

    def test_applies_outside_deterministic_scope(self):
        # the vocabulary is global: drivers and exporters must honour it too
        vs = run_reasons('ctx.note_decline("nonsense")\n', scope=DRIVER)
        assert rules(vs) == ["vocab-unknown"]

    def test_waiver_and_ignore(self):
        waived = 'ctx.note_decline("custom")  # repro: lint-ok[vocab-unknown]\n'
        assert run_reasons(waived) == []
        config = CheckConfig(ignore=("vocab-unknown",))
        assert run_reasons('ctx.note_decline("custom")\n', config=config) == []


# ----------------------------------------------------------------------
# suppression markers
# ----------------------------------------------------------------------
class TestSuppression:
    def test_marker_waives_matching_rule(self):
        src = "x = b / 1e9  # repro: lint-ok[magic-unit]\n"
        assert run_lint(src) == []

    def test_marker_is_rule_specific(self):
        src = "import time\nt = time.time()  # repro: lint-ok[magic-unit]\n"
        assert rules(run_lint(src)) == ["wallclock"]

    def test_wildcard_marker_waives_everything(self):
        src = "import time\nt = time.time()  # repro: lint-ok[*]\n"
        assert run_lint(src) == []


# ----------------------------------------------------------------------
# the suppression parser, property-tested
# ----------------------------------------------------------------------
RULE_NAME = st.sampled_from(sorted(RULES))
WS = st.text(alphabet=" \t", max_size=3)


class TestSuppressionParser:
    @given(rules=st.lists(RULE_NAME, min_size=1, max_size=5, unique=True),
           before=WS, after=WS, sep=WS)
    def test_multiple_rules_and_whitespace_all_parse(
        self, rules, before, after, sep
    ):
        marker = (
            f"x = 1  #{before}repro:{sep}lint-ok["
            + f" ,{after}".join(rules)
            + "]"
        )
        waived = suppressions(marker + "\n")
        assert waived == {1: frozenset(rules)}

    @given(rules=st.lists(RULE_NAME, min_size=1, max_size=4, unique=True),
           trailer=st.text(
               alphabet=st.characters(
                   blacklist_characters="[]\n\r", max_codepoint=0x7E
               ),
               max_size=20,
           ))
    def test_trailing_comment_text_ignored(self, rules, trailer):
        marker = "x = 1  # repro: lint-ok[" + ",".join(rules) + "] " + trailer
        waived = suppressions(marker + "\n")
        assert waived[1] == frozenset(rules)

    @given(lineno=st.integers(min_value=1, max_value=50),
           rule=RULE_NAME)
    def test_marker_line_number_tracked(self, lineno, rule):
        src = "\n" * (lineno - 1) + f"y = 2  # repro: lint-ok[{rule}]\n"
        assert suppressions(src) == {lineno: frozenset([rule])}

    @given(junk=st.text(
        alphabet=st.characters(blacklist_characters="[]\n\r#"),
        max_size=30,
    ))
    def test_lines_without_marker_yield_nothing(self, junk):
        assert suppressions(junk + "\n") == {}

    def test_empty_bracket_is_not_a_waiver(self):
        assert suppressions("x = 1  # repro: lint-ok[]\n") == {}
        assert suppressions("x = 1  # repro: lint-ok[ , ]\n") == {}

    @given(known=st.lists(RULE_NAME, max_size=3, unique=True),
           unknown=st.text(
               alphabet="abcdefghijklmnopqrstuvwxyz-",
               min_size=1, max_size=12,
           ).filter(lambda s: s not in RULES))
    def test_unknown_rule_is_reported_known_are_not(self, known, unknown):
        waived = {1: frozenset(known + [unknown])}
        flagged = unknown_waiver_rules(waived, RULES)
        assert flagged == [(1, unknown)]

    @given(prefix=st.sampled_from(["cache-", "rng-", "vocab-"]),
           tail=st.text(alphabet="abcdefghijklmnopqrstuvwxyz",
                        min_size=1, max_size=8))
    def test_unknown_ids_in_every_rule_family_reported(self, prefix, tail):
        rule = prefix + tail
        waived = {1: frozenset([rule])}
        expected = [] if rule in RULES else [(1, rule)]
        assert unknown_waiver_rules(waived, RULES) == expected

    def test_unknown_rule_warning_via_lint(self):
        vs = run_lint("x = 1  # repro: lint-ok[magic-unti]\n")
        assert rules(vs) == ["unknown-waiver"]
        assert "magic-unti" in vs[0].message

    def test_check_family_waivers_not_flagged_by_lint(self):
        src = "x = 1  # repro: lint-ok[cache-missing-bump,rng-ambient]\n"
        assert run_lint(src) == []

    def test_marker_mentioned_in_docstring_not_validated(self):
        src = '"""Use # repro: lint-ok[whatever-rule] to waive."""\n'
        assert run_lint(src) == []


def test_syntax_error_reported_as_parse_error():
    vs = run_lint("def broken(:\n")
    assert [f.rule for f in vs] == ["parse-error"]


def test_violation_format_and_ordering():
    a = Finding(path="a.py", line=3, col=7, rule="magic-unit", message="m")
    b = Finding(path="a.py", line=9, col=1, rule="wallclock", message="w")
    assert a.format() == "a.py:3:7: [magic-unit] m"
    assert sorted([b, a]) == [a, b]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
class TestConfig:
    def test_select_restricts_rules(self):
        config = CheckConfig(select=("magic-unit",))
        src = "import time\nt = time.time()\nx = b / 1e9\n"
        assert rules(run_lint(src, config=config)) == ["magic-unit"]

    def test_ignore_drops_rule(self):
        config = CheckConfig(ignore=("magic-unit",))
        assert run_lint("x = b / 1e9\n", config=config) == []

    def test_deterministic_dirs_configurable(self):
        config = CheckConfig(deterministic_dirs=("analysis",))
        src = "import time\nt = time.time()\n"
        assert rules(run_lint(src, scope=DRIVER, config=config)) == ["wallclock"]
        assert run_lint(src, scope=ENGINE, config=config) == []

    def test_pyproject_table_parsed(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.check]\n"
            'deterministic-dirs = ["engine"]\n'
            'ignore = ["magic-unit"]\n',
            encoding="utf-8",
        )
        config = CheckConfig.load(tmp_path)
        assert config.deterministic_dirs == ("engine",)
        assert config.ignore == ("magic-unit",)
        assert config.source == str(tmp_path / "pyproject.toml")

    def test_repo_pyproject_defines_the_table(self):
        config = CheckConfig.load(SRC)
        assert config.source.endswith("pyproject.toml")
        assert config.deterministic_dirs == DEFAULT_DETERMINISTIC_DIRS
        assert config.root == REPO


# ----------------------------------------------------------------------
# CLI/pyproject symmetry: excludes and deterministic scope are resolved
# against the project root, not the invocation directory (regression)
# ----------------------------------------------------------------------
class TestConfigPathSymmetry:
    @pytest.fixture
    def project(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro.check]\n"
            'deterministic-dirs = ["engine"]\n'
            'exclude = ["pkg/engine/generated.py"]\n',
            encoding="utf-8",
        )
        pkg = tmp_path / "pkg" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "clock.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        (pkg / "generated.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        return tmp_path

    def test_deterministic_scope_same_from_any_invocation_dir(self, project):
        config = CheckConfig.load(project)
        from_root = check_paths([project / "pkg"], config)
        from_subdir = check_paths([project / "pkg" / "engine"], config)
        from_file = check_paths([project / "pkg" / "engine" / "clock.py"], config)
        assert rules(from_root) == ["wallclock"]
        assert rules(from_subdir) == ["wallclock"]
        assert rules(from_file) == ["wallclock"]

    def test_root_relative_exclude_same_from_any_invocation_dir(self, project):
        config = CheckConfig.load(project)
        for target in (
            project / "pkg",
            project / "pkg" / "engine",
            project / "pkg" / "engine" / "generated.py",
        ):
            assert not any(
                "generated.py" in f.path for f in check_paths([target], config)
            )

    def test_absolute_exclude_pattern_matches(self, project):
        config = CheckConfig.load(project)
        config = dataclasses.replace(
            config,
            exclude=(str(project / "pkg" / "engine" / "generated.py"),),
        )
        assert not any(
            "generated.py" in f.path
            for f in check_paths([project / "pkg"], config)
        )

    def test_scope_falls_back_outside_the_root(self, tmp_path):
        # a file outside the configured root keeps invocation-relative scope
        config = CheckConfig(
            deterministic_dirs=("engine",), root=tmp_path / "elsewhere"
        )
        scoped = config.scope_path(
            tmp_path / "repro" / "engine" / "mod.py",
            Path("repro/engine/mod.py"),
        )
        assert scoped == Path("repro/engine/mod.py")


# ----------------------------------------------------------------------
# whole tree + CLI
# ----------------------------------------------------------------------
class TestWholeTree:
    def test_src_tree_is_clean(self):
        # code defaults alone: a host without tomllib reads no pyproject
        assert check_paths([SRC], CheckConfig()) == []

    def test_cli_exit_zero_on_clean_tree(self, capsys):
        assert check_main([str(SRC)]) == 0

    def test_cli_exit_one_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "engine"
        bad.mkdir(parents=True)
        (bad / "mod.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        assert check_main(["--no-baseline", str(tmp_path)]) == 1
        assert "wallclock" in capsys.readouterr().out

    def test_cli_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_cli_rejects_unknown_rule(self, capsys):
        assert check_main(["--select", "bogus", str(SRC)]) == 2

    def test_cli_missing_path(self, capsys):
        assert check_main([str(SRC / "no-such-dir")]) == 2

    def test_cli_exit_two_on_parse_error(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text("def broken(:\n", encoding="utf-8")
        assert check_main(["--no-baseline", str(tmp_path)]) == 2
        assert "parse-error" in capsys.readouterr().out

    def test_cli_json_format(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "engine"
        bad.mkdir(parents=True)
        (bad / "mod.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        argv = ["--no-baseline", "--format", "json", str(tmp_path)]
        assert check_main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "repro-check"
        assert doc["summary"]["total"] == 1
        assert doc["summary"]["by_rule"] == {"wallclock": 1}
        assert doc["findings"][0]["rule"] == "wallclock"

    def test_cli_json_format_clean_tree(self, capsys):
        assert check_main(["--format", "json", str(SRC)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"] == []

    def test_python_dash_m_entry_point(self):
        # the CI step every matrix Python runs
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", str(SRC)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
