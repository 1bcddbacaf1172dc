"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "grpfield")
                 .glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so checks must raise GrpError subclasses.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at {path.name} lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_branch_on_counter(path):
    # Op counts are closed-form tallies: a counter never picks the code
    # that runs, so no branch may test it.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.If, ast.IfExp, ast.While))
             and any(isinstance(name, ast.Name) and name.id == "counter"
                     for name in ast.walk(node.test))]
    assert lines == [], f"branches on counter at {path.name} lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unseeded_random(path):
    # An argument-free Random() seeds from the OS, so its results cannot
    # be reproduced; seed it from the caller's seed or from the input.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and not node.args and not node.keywords
             and (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "Random"
                  or isinstance(node.func, ast.Name)
                  and node.func.id == "Random")]
    assert lines == [], f"unseeded Random() at {path.name} lines {lines}"
