"""Smoke tests: every shipped example script runs to completion."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name", ["quickstart", "blame_tracking", "coercion_playground", "vm_pipeline"]
)
def test_example_scripts_run(name, capsys):
    module = _load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} produced no output"


def test_space_efficiency_example_runs_scaled_down(capsys, monkeypatch):
    module = _load_example("space_efficiency")
    monkeypatch.setattr(module, "SIZES", (10, 50))
    module.main()
    out = capsys.readouterr().out
    assert "Space profile" in out
    assert "51" in out  # λB pending casts for n = 50


def test_quickstart_reports_agreement(capsys):
    module = _load_example("quickstart")
    module.main()
    out = capsys.readouterr().out
    assert "calculi agree     : yes" in out
    assert "NO" not in out


def test_blame_tracking_reports_both_polarities(capsys):
    module = _load_example("blame_tracking")
    module.main()
    out = capsys.readouterr().out
    assert "positive blame" in out
    assert "negative blame" in out
    assert "no fault" in out


def test_example_programs_directory_is_complete():
    programs = {path.name for path in (EXAMPLES_DIR / "programs").glob("*.grad")}
    assert {
        "square.grad", "boundary_blame.grad", "tail_loop.grad",
        # The compile-bound batch-corpus programs (the compile cache's win).
        "stats_pipeline.grad", "vector_mesh.grad", "text_metrics.grad",
    } <= programs


def test_corpus_programs_agree_across_engines_and_images():
    """Every shipped program: VM (-O0/-O2, both mediators) agrees with the
    machine, and a serialized image reproduces the run exactly."""
    from repro.compiler import compile_term, deserialize_image, run_code, serialize_image
    from repro.machine import run_on_machine
    from repro.surface.interp import compile_source

    for path in sorted((EXAMPLES_DIR / "programs").glob("*.grad")):
        term, ty = compile_source(path.read_text())
        oracle = run_on_machine(term, "S")
        for mediator in ("coercion", "threesome"):
            for opt_level in (0, 2):
                code = compile_term(term, mediator=mediator, opt_level=opt_level)
                outcome = run_code(code)
                assert outcome.kind == oracle.kind, (path.name, mediator, opt_level)
                if oracle.is_value:
                    assert outcome.python_value() == oracle.python_value()
                elif oracle.is_blame:
                    assert outcome.label == oracle.label
                reloaded = run_code(deserialize_image(serialize_image(code)).code)
                assert reloaded.kind == outcome.kind
                assert reloaded.stats == outcome.stats


_EXPECTED = re.compile(r"Expected (value|outcome): (#t|#f|\"[^\"]*\"|-?\d+|blame)")


def _expected_comments():
    """``(program, kind, literal)`` for every ``;; Expected …:`` comment."""
    for path in sorted((EXAMPLES_DIR / "programs").glob("*.grad")):
        comments = "\n".join(line for line in path.read_text().splitlines()
                             if line.lstrip().startswith(";;"))
        for kind, literal in _EXPECTED.findall(comments):
            yield path, kind, literal


def test_every_example_program_documents_its_outcome():
    documented = {path.name for path, _, _ in _expected_comments()}
    assert documented == {path.name for path in (EXAMPLES_DIR / "programs").glob("*.grad")}


@pytest.mark.parametrize("path, kind, literal", list(_expected_comments()),
                         ids=lambda value: value.name if isinstance(value, Path) else None)
def test_expected_comments_match_the_machine(path, kind, literal):
    """The documented outcome of each shipped program is what the CEK
    machine computes, so the comments cannot drift from the semantics."""
    from repro.api import run

    result = run(path.read_text(), engine="machine")
    if literal == "blame":
        assert kind == "outcome" and result.is_blame
        return
    assert result.is_value
    expected = {"#t": True, "#f": False}.get(literal)
    if expected is None:
        expected = literal[1:-1] if literal.startswith('"') else int(literal)
    assert result.value == expected and type(result.value) is type(expected)
