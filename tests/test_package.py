"""The package surface: re-exported names and the README's Library example."""

import ast
import contextlib
import dataclasses
import io
import re
from pathlib import Path

import pytest

import centering
from centering import engine
from centering.corpus import corpus_text, parse_discourse

README = Path(__file__).resolve().parents[1] / "README.md"
TESTS = Path(__file__).resolve().parent


def test_every_exported_name_resolves():
    assert centering.__all__
    for name in centering.__all__:
        assert getattr(centering, name) is not None, name


def test_readme_library_snippet_runs():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [
        "0",
        "{<GrammaticalRole.SUBJ: 0>: 'taroo', <GrammaticalRole.OBJ: 2>: 'ziroo'}",
        "taroo",
        "('taroo', 'ziroo')",
    ]


def test_exports_match_the_readme_entry_points():
    """__all__ holds exactly the calls README's Entry points bullets make,
    and the exceptions the sentence above them names."""
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1].split("\n## ", 1)[0]
    sentence, bullets = library.split("Entry points", 1)[1].split("\n\n- ", 1)
    named_errors = re.findall(r"`(\w+)`", re.search(r"\(([^)]*)\)", sentence).group(1))
    assert len(named_errors) == 4
    errors = {
        name for name in centering.__all__
        if isinstance(getattr(centering, name), type)
        and issubclass(getattr(centering, name), Exception)
    }
    assert errors == set(named_errors)
    assert set(centering.__all__) - errors == set(re.findall(r"`(\w+)\(", "- " + bullets))


def test_resolve_is_the_engines_one_entry_point():
    assert not hasattr(centering, "step")
    fields = [f.name for f in dataclasses.fields(engine.ResolveResult)]
    assert fields == ["hypotheses", "rejections"]
    discourse, _golds = parse_discourse(corpus_text("cont_ret_ex.json"))
    parent = centering.resolve(discourse).top
    with pytest.raises(TypeError):
        engine.step(parent, discourse.utterances[1], discourse, engine.EngineConfig())


def step_uses(tree):
    """Where a module imports, calls, patches or reads engine.step, or reads `.ranked`.

    Each is a (line, what) pair: `from centering.engine import step`, an
    `engine.step` attribute, a setattr-style call naming engine and "step"
    (monkeypatch.setattr included), the dotted "centering.engine.step",
    and any `.ranked` or `._StepResult` attribute.
    """
    def is_engine(node):
        return ast.unparse(node) in ("engine", "centering.engine")

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "centering.engine":
            if any(alias.name in ("step", "_StepResult") for alias in node.names):
                yield node.lineno, "imports step"
        elif isinstance(node, ast.Attribute):
            step = node.attr == "step" and is_engine(node.value)
            if step or node.attr in ("ranked", "_StepResult"):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Call) and len(node.args) >= 2 and is_engine(node.args[0]):
            if isinstance(node.args[1], ast.Constant) and node.args[1].value == "step":
                yield node.lineno, "patches step"
        elif isinstance(node, ast.Constant) and node.value == "centering.engine.step":
            yield node.lineno, "names centering.engine.step"


def test_no_test_but_the_tracers_holds_the_engine_to_step():
    # The tests hold resolve's beams to the beam's properties, so step can
    # go once the benchmark's tracer stops wrapping it.  Only the tracer's
    # test and the not-an-API check above may reach it.
    uses = {
        path.name: list(step_uses(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted(TESTS.glob("*.py"))
        if path.name not in ("test_bench.py", "test_package.py")
    }
    assert "test_engine.py" in uses and "helpers.py" in uses
    assert {name: found for name, found in uses.items() if found} == {}
    caught = step_uses(ast.parse(
        "from centering.engine import step\n"
        "engine.step(parent, utterance, discourse, config, plan=plan)\n"
        "monkeypatch.setattr(engine, 'step', recording_step)\n"
        "monkeypatch.setattr('centering.engine.step', recording_step)\n"
        "children = result.ranked\n"
    ))
    assert sorted(line for line, _what in caught) == [1, 2, 3, 4, 5]


def test_readme_engine_config_signature_lists_every_field():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    signature = re.search(r"^- `EngineConfig\((.*?)\)`", library, re.M).group(1)
    documented = [tuple(param.split("=")) for param in signature.split(", ")]
    fields = [(f.name, repr(f.default)) for f in dataclasses.fields(engine.EngineConfig)]
    assert documented == fields
