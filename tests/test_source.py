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


def test_unproven_fields_and_unchecked_residues_confined():
    # require_prime=False skips the proof of p: only the scans, which
    # prove p themselves, may pass it.  _unchecked_residue skips the
    # Residue checks: only params and arith may use it, for outputs that
    # are in range by construction.
    unproven, unchecked = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.keyword) and node.arg == "require_prime":
                if not (isinstance(node.value, ast.Constant)
                        and node.value.value is True):
                    unproven.add(path.name)
            # A Name or Attribute use, an import (alias) or the def itself.
            if "_unchecked_residue" in (getattr(node, "id", None),
                                        getattr(node, "attr", None),
                                        getattr(node, "name", None)):
                unchecked.add(path.name)
    assert unproven <= {"tables.py"}, unproven
    assert unchecked <= {"arith.py", "params.py"}, unchecked
