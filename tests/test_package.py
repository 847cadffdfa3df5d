"""The package surface: re-exported names and the README's Library example."""

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


def test_readme_engine_config_signature_lists_every_field():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    signature = re.search(r"^- `EngineConfig\((.*?)\)`", library, re.M).group(1)
    documented = [tuple(param.split("=")) for param in signature.split(", ")]
    fields = [(f.name, repr(f.default)) for f in dataclasses.fields(engine.EngineConfig)]
    assert documented == fields
