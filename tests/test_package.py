"""The package's export list and layering."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nervetower
from nervetower.words import _Record


def test_every_exported_name_resolves():
    missing = [name for name in nervetower.__all__ if not hasattr(nervetower, name)]
    assert missing == []
    assert len(set(nervetower.__all__)) == len(nervetower.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from nervetower import *", namespace)
    assert set(nervetower.__all__) <= set(namespace)


def test_readers_only_the_tests_use_are_not_exported():
    """block_subcomplex, the Euler characteristic, the edge sets and the word
    sets of a level live in tests/support/complexes.py, `truncate` in
    tests/support/pu_nerve.py, the per-vertex component labels in
    tests/support/full_tower.py and `scaling`, `limit_point` and
    `intersection_cycle` in tests/support/points.py; the other names are
    gone."""
    for name in ("block_subcomplex", "concat", "constant_address", "reverse", "truncate"):
        assert name not in nervetower.__all__
    assert not hasattr(nervetower.nerve, "block_subcomplex")
    for name in ("concat", "constant_address", "reverse", "truncate"):
        assert not hasattr(nervetower.words, name)
    for name in ("edge_sets", "euler_characteristic", "simplex_word_sets"):
        assert not hasattr(nervetower.SimplicialComplex, name)
    assert not hasattr(nervetower.ComponentsLevel, "labels")
    assert not hasattr(nervetower.PUReport, "pair_status")
    assert not hasattr(nervetower.RationalAffineMap, "determinant")
    assert not hasattr(nervetower.oracles, "_tail_triples")
    assert "source" not in nervetower.Verdict._fields
    assert not hasattr(nervetower.RationalAffineMap, "scaling")
    assert not hasattr(nervetower.oracles, "limit_point")
    assert not hasattr(nervetower.exactgeom, "intersection_cycle")


def test_records_state_their_fields_once():
    """A record takes `_Record`'s one constructor unless it validates or
    normalises its arguments, or is `Verdict`, built once per oracle query.
    The fields with `_defaults` end `_fields`, so positional calls keep
    their meaning."""
    records, below = [], [_Record]
    while below:
        for cls in below.pop().__subclasses__():
            below.append(cls)
            if cls.__module__.startswith("nervetower."):
                records.append(cls)
    assert {cls.__name__ for cls in records if "__init__" in vars(cls)} == {
        "Word", "Address", "Point2", "RationalAffineMap", "ConvexPolygon", "Budget",
        "FieldKind", "Verdict"}
    for cls in records:
        optional = cls._fields[len(cls._fields) - len(cls._defaults):]
        assert set(cls._defaults) <= set(cls._fields), cls
        assert set(optional) == set(cls._defaults), cls


def test_import_generates_no_classes():
    """The value classes are plain classes over `_Record`'s one constructor,
    so importing the CLI loads neither `dataclasses` nor the `inspect` it
    pulls in (about a fifth of the package's start-up when both were
    loaded)."""
    src = str(Path(nervetower.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys; before = set(sys.modules); import nervetower.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_oracles_import_no_layer_above_them():
    """The oracle answers geometric queries from geometry alone: it imports
    none of the layers built on it."""
    source = Path(nervetower.oracles.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert not imported & {"nerve", "homology", "components", "classify", "cli"}


def test_modules_use_every_name_they_import():
    """A module of the package imports no name that it never reads (a name
    in `__all__` is read by star imports).  The one exception is
    `classify.common_point_exists`: perfbench's tracer rebinds every module
    global bound to a traced function, and its tests patch that binding."""
    unused = []
    for path in sorted(Path(nervetower.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.stem == "__init__":
            read.update(nervetower.__all__)
        unused += [f"{path.stem}.{name}" for name in imported if name not in read]
    assert unused == ["classify.common_point_exists"]


def test_only_the_nerve_reads_interval_ends():
    """The integer interval ends of a swept level (`nerve.IntervalCover`)
    are built and read in `nerve` alone: the other modules read a level's
    counts, simplices and components, never the interval format."""
    readers = set()
    for path in sorted(Path(nervetower.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("ends", "IntervalCover")
                    or isinstance(node, ast.Name) and node.id == "IntervalCover"
                    or isinstance(node, ast.alias) and node.name == "IntervalCover"):
                readers.add(path.stem)
    assert readers == {"nerve"}
