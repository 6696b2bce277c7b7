"""Command-line surface and the on-disk system-spec format.

Spec files are JSON with every rational written as a string like "1/3" or an
integer; float literals are rejected outright.  Three backend kinds:

    {"kind": "geometric", "maps": [{"matrix": [["1/2","0"],["0","1/2"]],
                                    "translation": ["0","0"]}, ...],
     "envelope": [["0","0"], ["1","0"], ["0","1"]]}
    {"kind": "table", "levels": {"1": [["1","2"], ...], "2": [...]}}
    {"kind": "symbolicPU", "n1": [[1,2], ...],
     "addresses": {"1,2": {"pre": [], "per": [2]}, ...}}

Words appear as digit strings for alphabets up to 9 symbols, or as lists of
integers.  An optional "flags" object carries hypotheses the file's author
asserts rather than the tool proving them ("assert_lx_connected",
"assert_injective", each true or false) and a default "pivot" symbol for the
rank-growth check.

Exit codes: 0 ok, 2 bad input, 3 some intersection query stayed undecided
(classify: or the postunbranched check is unknown), 4 resource cap hit.
All outputs are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional

from . import classify as classify_mod
from .components import ComponentTower, component_tower
from .exactgeom import ConvexPolygon, Point2, RationalAffineMap
from .homology import BettiTable, FieldKind, tower_analysis
from .nerve import (SimplicialComplex, TowerData, build_iterate_or_subsystem, build_nerve,
                    iterate_system, tower_complexes)
from .oracles import (Budget, GeometricBackend, SpecError, SymbolicPUBackend,
                      SystemSpec, TableBackend)
from .words import Address, Word, _Frozen, word_from_string

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNCERTAIN = 3
EXIT_RESOURCE = 4


# ---------------------------------------------------------------------------
# spec files


class SpecFlags(_Frozen):
    """Author-asserted hypotheses and defaults carried by a spec file."""

    __slots__ = _fields = ("lx_connected", "injective", "pivot")
    _defaults = {"lx_connected": False, "injective": False, "pivot": None}
    lx_connected: bool
    injective: bool
    pivot: Optional[int]


class LoadedSpec(_Frozen):
    __slots__ = _fields = ("spec", "flags", "doc")
    spec: SystemSpec
    flags: SpecFlags
    doc: dict


def _reject_float(text: str) -> None:
    raise SpecError(f"float literal {text} in spec file; write rationals as \"p/q\" strings")


def _rat(node: Any, where: str) -> Fraction:
    if isinstance(node, bool) or not isinstance(node, (int, str)):
        raise SpecError(f"{where}: expected an integer or a \"p/q\" string, got {node!r}")
    try:
        return Fraction(node)
    except ZeroDivisionError:
        raise SpecError(f"{where}: zero denominator in {json.dumps(node)}") from None
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None


def _point(node: Any, where: str) -> Point2:
    if not isinstance(node, list) or len(node) != 2:
        raise SpecError(f"{where}: expected a [x, y] pair")
    return Point2(_rat(node[0], where + "[0]"), _rat(node[1], where + "[1]"))


def _symbols(node: Any, m: int, where: str) -> tuple[int, ...]:
    try:
        if isinstance(node, str):
            return word_from_string(node, m).symbols
        if isinstance(node, list) and all(isinstance(s, int) and not isinstance(s, bool)
                                          for s in node):
            return Word(tuple(node), m).symbols
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from None
    raise SpecError(f"{where}: expected a digit string or a list of symbols")


def _parse_geometric(node: dict, m: int) -> GeometricBackend:
    maps_node = node.get("maps")
    if not isinstance(maps_node, list) or len(maps_node) != m:
        raise SpecError(f"backend.maps must list exactly m={m} maps")
    maps = []
    for idx, mp in enumerate(maps_node):
        where = f"backend.maps[{idx}]"
        if not isinstance(mp, dict):
            raise SpecError(f"{where}: expected an object")
        matrix, translation = mp.get("matrix"), mp.get("translation")
        if (not isinstance(matrix, list) or len(matrix) != 2
                or any(not isinstance(row, list) or len(row) != 2 for row in matrix)):
            raise SpecError(f"{where}.matrix must be a 2x2 array")
        if not isinstance(translation, list) or len(translation) != 2:
            raise SpecError(f"{where}.translation must be a pair")
        maps.append(RationalAffineMap(
            *(_rat(matrix[r][c], f"{where}.matrix[{r}][{c}]") for r in (0, 1) for c in (0, 1)),
            *(_rat(translation[i], f"{where}.translation[{i}]") for i in (0, 1))))
    env_node = node.get("envelope")
    if not isinstance(env_node, list) or not env_node:
        raise SpecError("backend.envelope must list the envelope's vertices")
    envelope = ConvexPolygon.hull(
        [_point(v, f"backend.envelope[{i}]") for i, v in enumerate(env_node)])
    return GeometricBackend(maps, envelope)


def _parse_table(node: dict, m: int) -> TableBackend:
    levels_node = node.get("levels")
    if not isinstance(levels_node, dict) or not levels_node:
        raise SpecError("backend.levels must map depths to simplex lists")
    levels: dict[int, list[list[tuple[int, ...]]]] = {}
    for key, sims in levels_node.items():
        try:
            level = int(key)
        except ValueError:
            raise SpecError(f"backend.levels key {key!r} is not a depth") from None
        if not isinstance(sims, list):
            raise SpecError(f"backend.levels[{key}] must be a list of simplices")
        levels[level] = [
            [_symbols(wnode, m, f"backend.levels[{key}][{i}]") for wnode in simplex]
            for i, simplex in enumerate(sims)
        ]
    return TableBackend(m, levels)


def _parse_symbolic(node: dict, m: int) -> SymbolicPUBackend:
    n1_node = node.get("n1")
    if not isinstance(n1_node, list):
        raise SpecError("backend.n1 must be a list of depth-1 simplices")
    n1 = [_symbols(simplex, m, f"backend.n1[{i}]") for i, simplex in enumerate(n1_node)]
    addr_node = node.get("addresses")
    if not isinstance(addr_node, dict):
        raise SpecError("backend.addresses must map \"i,j\" pairs to addresses")
    addresses: dict[tuple[int, int], Address] = {}
    for key, val in addr_node.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise SpecError(f"backend.addresses key {key!r} is not an \"i,j\" pair")
        try:
            pair = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise SpecError(f"backend.addresses key {key!r} is not an \"i,j\" pair") from None
        if not isinstance(val, dict) or "per" not in val:
            raise SpecError(f"backend.addresses[{key}] needs \"pre\" and \"per\" lists")
        pre = _symbols(val.get("pre", []), m, f"backend.addresses[{key}].pre")
        per = _symbols(val["per"], m, f"backend.addresses[{key}].per")
        try:
            addresses[pair] = Address(Word(pre, m), Word(per, m))
        except ValueError as exc:
            raise SpecError(f"backend.addresses[{key}]: {exc}") from None
    return SymbolicPUBackend(m, n1, addresses)


_FLAG_KEYS = {"assert_lx_connected", "assert_injective", "pivot"}


def parse_spec(doc: dict) -> LoadedSpec:
    if not isinstance(doc, dict):
        raise SpecError("spec file must hold a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError("spec needs a non-empty \"name\"")
    orientation = doc.get("orientation")
    m = doc.get("m")
    if not isinstance(m, int) or isinstance(m, bool):
        raise SpecError("spec needs an integer \"m\"")
    backend_node = doc.get("backend")
    if not isinstance(backend_node, dict):
        raise SpecError("spec needs a \"backend\" object")
    kind = backend_node.get("kind")
    if kind == "geometric":
        backend = _parse_geometric(backend_node, m)
    elif kind == "table":
        backend = _parse_table(backend_node, m)
    elif kind == "symbolicPU":
        backend = _parse_symbolic(backend_node, m)
    else:
        raise SpecError(f"unknown backend kind {kind!r}")

    flags_node = doc.get("flags", {})
    if not isinstance(flags_node, dict):
        raise SpecError("\"flags\" must be an object")
    unknown = set(flags_node) - _FLAG_KEYS
    if unknown:
        raise SpecError(f"unknown flags: {sorted(unknown)}")
    pivot = flags_node.get("pivot")
    if pivot is not None and (not isinstance(pivot, int) or isinstance(pivot, bool)
                              or not 1 <= pivot <= m):
        raise SpecError(f"flags.pivot must be a symbol in 1..{m}")
    for key in ("assert_lx_connected", "assert_injective"):
        if not isinstance(flags_node.get(key, False), bool):
            raise SpecError(f"flags.{key} must be true or false")
    flags = SpecFlags(
        lx_connected=flags_node.get("assert_lx_connected", False),
        injective=flags_node.get("assert_injective", False),
        pivot=pivot)
    spec = SystemSpec(name, orientation, m, backend)
    return LoadedSpec(spec, flags, doc)


def load_spec_text(text: str) -> LoadedSpec:
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise SpecError(f"not valid JSON: {exc}") from None
    return parse_spec(doc)


def bundled_names() -> list[str]:
    root = resources.files("nervetower").joinpath("specs")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_bundled(name: str) -> LoadedSpec:
    entry = resources.files("nervetower").joinpath("specs").joinpath(name + ".json")
    if not entry.is_file():
        raise SpecError(f"no bundled system named {name!r}; "
                        f"available: {', '.join(bundled_names())}")
    return load_spec_text(entry.read_text(encoding="utf-8"))


def resolve_spec(ref: str) -> LoadedSpec:
    """A path to a spec file, or the name of a bundled system."""
    path = Path(ref)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SpecError(f"spec file {ref} is not UTF-8 text: {exc}") from None
        return load_spec_text(text)
    if "/" not in ref and "\\" not in ref:
        return load_bundled(ref[:-5] if ref.endswith(".json") else ref)
    raise SpecError(f"spec file not found: {ref}")


def _rat_str(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else \
        f"{value.numerator}/{value.denominator}"


def spec_to_doc(spec: SystemSpec) -> dict:
    """Serialize a geometric system back to the spec-file shape."""
    if not spec.is_geometric:
        raise SpecError("only geometric systems serialize back to spec files")
    backend = spec.backend
    return {
        "name": spec.name,
        "orientation": spec.orientation,
        "m": spec.m,
        "backend": {
            "kind": "geometric",
            "maps": [
                {"matrix": [[_rat_str(f.a), _rat_str(f.b)],
                            [_rat_str(f.c), _rat_str(f.d)]],
                 "translation": [_rat_str(f.e), _rat_str(f.f)]}
                for f in backend.maps
            ],
            "envelope": [[_rat_str(v.x), _rat_str(v.y)] for v in backend.envelope.vertices],
        },
    }


# ---------------------------------------------------------------------------
# report documents


def _json_text(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _point_doc(p: Point2) -> list[str]:
    return [_rat_str(p.x), _rat_str(p.y)]


def _address_doc(addr: Address) -> dict:
    return {"pre": list(addr.preperiod.symbols), "per": list(addr.period.symbols)}


def nerve_doc(complex_: SimplicialComplex, name: str) -> dict:
    names = [str(complex_.word(v)) for v in range(complex_.m ** complex_.level)]
    return {
        "name": name,
        "depth": complex_.level,
        "m": complex_.m,
        "dim_cap": complex_.dim_cap,
        "complete": complex_.complete,
        "counts": {str(d): n for d, n in sorted(complex_.simplex_counts().items())},
        "simplices": {
            str(dim): sorted(sorted(names[v] for v in s) for s in sims)
            for dim, sims in sorted(complex_.simplices.items()) if sims
        },
        "uncertain": [
            {"cells": [names[v] for v in s], "note": note}
            for s, note in complex_.uncertain
        ],
    }


def nerve_dot(complex_: SimplicialComplex, name: str) -> str:
    names = [str(complex_.word(v)) for v in range(complex_.m ** complex_.level)]
    lines = [f'graph "{name}-k{complex_.level}" {{']
    lines.extend(f'  "{w}";' for w in names)
    edge_lines = []
    for (i, j) in complex_.simplices_of(1):
        a, b = sorted((names[i], names[j]))
        edge_lines.append(f'  "{a}" -- "{b}";')
    for s, _note in complex_.uncertain:
        if len(s) == 2:
            a, b = sorted(names[v] for v in s)
            edge_lines.append(f'  "{a}" -- "{b}" [style=dashed label="uncertain"];')
    lines.extend(sorted(edge_lines))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _limit_doc(verdict) -> dict:
    return {"status": verdict.status, "value": verdict.value,
            "mechanism": verdict.mechanism, "detail": verdict.detail}


def tower_report_doc(table: BettiTable, ctower: ComponentTower) -> dict:
    return {
        "name": table.name,
        "m": table.m,
        "field": table.field.label,
        "depth": table.depth,
        "dim_cap": table.dim_cap,
        "exact_dims": list(table.exact_dims),
        "a": {str(r): table.sequence(r) for r in table.exact_dims},
        "lambda": {str(k): v for k, v in sorted(table.lam.items())},
        "component_counts": table.component_counts,
        "growth": {
            str(r): [None if g is None else round(g, 6) for g in seq]
            for r, seq in sorted(table.growth.items())
        },
        "flags": dict(table.flags),
        "limit_verdicts": {str(r): _limit_doc(v) for r, v in sorted(table.verdicts.items())},
        "b1_infinity": _limit_doc(table.b1_infinity),
        "component_verdict": {
            "kind": ctower.verdict.kind,
            "count": ctower.verdict.count,
            "mechanism": ctower.verdict.mechanism,
            "detail": ctower.verdict.detail,
            "hypothesis": ctower.hypothesis,
        },
        "uncertain": [
            {"depth": level, "cells": [str(w) for w in ws], "note": note}
            for level, ws, note in table.uncertain
        ],
    }


def tower_csv(table: BettiTable) -> str:
    header = ["k"] + [f"a_{r}" for r in range(table.dim_cap + 1)] + ["lambda", "components"]
    rows = [",".join(header)]
    for k in range(1, table.depth + 1):
        cells = [str(k)]
        for r in range(table.dim_cap + 1):
            cells.append(str(table.a[(r, k)]) if (r, k) in table.a else "")
        cells.append(str(table.lam[k]) if k in table.lam else "")
        cells.append(str(table.component_counts[k - 1]))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def pu_report_doc(report: classify_mod.PUReport) -> dict:
    pairs = {}
    for (i, j), pr in sorted(report.pairs.items()):
        node: dict[str, Any] = {"status": pr.status}
        if pr.points:
            node["points"] = [_point_doc(p) for p in pr.points]
        if pr.address is not None:
            node["address"] = _address_doc(pr.address)
        if pr.detail:
            node["detail"] = pr.detail
        pairs[f"{i},{j}"] = node
    return {"name": report.name, "status": report.status, "mechanism": report.mechanism,
            "witness": report.witness, "pairs": pairs}


def theorem_check_doc(check: classify_mod.TheoremCheck) -> dict:
    return {
        "name": check.name,
        "applicable": check.applicable,
        "passed": check.passed,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in check.checks],
        "predictions": list(check.predictions),
        "note": check.note,
    }


def pivot_report_doc(report: classify_mod.PivotReport) -> dict:
    return {
        "name": report.name,
        "pivot": report.pivot,
        "conditions": {
            key: {"ok": c.ok, "witness": c.witness}
            for key, c in sorted(report.conditions.items())
        },
        "conclusion": report.conclusion,
        "conditional": report.conditional,
        "detail": report.detail,
    }


# ---------------------------------------------------------------------------
# commands


def _emit(text: str, path: Optional[str]) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(refine_depth=args.refine_depth,
                  cert_period_max=args.cert_period,
                  cert_preperiod_max=args.cert_preperiod)


def _too_big(spec: SystemSpec, depth: int, args: argparse.Namespace) -> bool:
    """Whether the depth's m^depth cells, or a geometric spec's tail table of
    about m^(period + preperiod) addresses, would exceed --max-cells."""
    return _refused(spec, depth, args.max_cells) or spec.is_geometric and _refused(
        spec, args.cert_period + args.cert_preperiod, args.max_cells, "tail addresses")


def _refused(spec: SystemSpec, depth: int, cap: int, what: str = "cells") -> bool:
    """Whether m^depth `what` exceed --max-cells, said on standard error.  The
    product is multiplied up only while it stays within the cap, so a huge
    depth is refused at once."""
    cells = 1
    for _ in range(depth):
        cells *= spec.m
        if cells > cap:
            print(f"error: {spec.m}^{depth} {what} exceed --max-cells {cap}", file=sys.stderr)
            return True
    return False


def _analysed_tower(loaded: LoadedSpec, args: argparse.Namespace,
                    depth: int) -> tuple[tuple, TowerData, BettiTable]:
    """The postunbranched, singleton and pivot reports (None for a checker
    the backend or flags rule out), the tower to `depth`, and its Betti table
    under what the reports established."""
    spec = loaded.spec
    budget = _budget(args)
    fieldkind = FieldKind.parse(args.field)
    pu = singleton = pivot = None
    if isinstance(spec.backend, SymbolicPUBackend) or spec.is_geometric:
        pu = classify_mod.check_postunbranched(spec, budget)
    if spec.is_geometric:
        singleton = classify_mod.check_singleton_overlaps(spec, budget)
    if loaded.flags.pivot is not None:
        pivot = classify_mod.check_h1_infinite_conditions(spec, loaded.flags.pivot, budget)
    tower = tower_complexes(spec, depth, args.dim_cap, budget)
    table = tower_analysis(tower, fieldkind,
                           postunbranched=None if pu is None or pu.status == "unknown"
                           else pu.status == "postunbranched",
                           singleton_overlaps=True if singleton and singleton.all_small else None,
                           assert_injective=loaded.flags.injective,
                           pivot_conditions=True if pivot and pivot.conclusion else None)
    return (pu, singleton, pivot), tower, table


def cmd_list(_args: argparse.Namespace) -> int:
    for name in bundled_names():
        loaded = load_bundled(name)
        spec = loaded.spec
        print(f"{name}: {spec.orientation}, m={spec.m}, {spec.backend.kind}")
    return EXIT_OK


def cmd_nerve(args: argparse.Namespace) -> int:
    loaded = resolve_spec(args.spec)
    if _too_big(loaded.spec, args.depth, args):
        return EXIT_RESOURCE
    complex_ = build_nerve(loaded.spec, args.depth, dim_cap=args.dim_cap,
                           budget=_budget(args))
    _emit(_json_text(nerve_doc(complex_, loaded.spec.name)), args.out_json)
    if args.out_dot:
        _emit(nerve_dot(complex_, loaded.spec.name), args.out_dot)
    return EXIT_UNCERTAIN if complex_.uncertain else EXIT_OK


def cmd_tower(args: argparse.Namespace) -> int:
    loaded = resolve_spec(args.spec)
    if _too_big(loaded.spec, args.max_depth, args):
        return EXIT_RESOURCE
    _, tower, table = _analysed_tower(loaded, args, args.max_depth)
    ctower = component_tower(tower, table.facts,
                             assert_lx_connected=loaded.flags.lx_connected)
    _emit(tower_csv(table), args.out_csv)
    report = tower_report_doc(table, ctower)
    if args.out_report:
        _emit(_json_text(report), args.out_report)
    elif args.out_csv not in (None, "-"):
        # CSV went to a file; the report is still wanted on standard output.
        sys.stdout.write(_json_text(report))
    return EXIT_UNCERTAIN if table.uncertain else EXIT_OK


def _stored_depth(backend: TableBackend) -> int:
    """The deepest k such that the table stores every depth 1..k."""
    depth = 1
    while depth + 1 in backend.levels:
        depth += 1
    return depth


def cmd_classify(args: argparse.Namespace) -> int:
    loaded = resolve_spec(args.spec)
    spec = loaded.spec
    max_depth = args.max_depth
    if max_depth is None:
        max_depth = 3
        if isinstance(spec.backend, TableBackend):
            max_depth = min(max_depth, _stored_depth(spec.backend))
    if _too_big(spec, max_depth, args):
        return EXIT_RESOURCE
    if args.pivot is not None:
        loaded = LoadedSpec(spec, SpecFlags(loaded.flags.lx_connected,
                                            loaded.flags.injective, args.pivot),
                            loaded.doc)
    (pu_report, sreport, preport), _, table = _analysed_tower(loaded, args, max_depth)
    thm = classify_mod.verify_puthm(table)

    bundle: dict[str, Any] = {"name": spec.name, "orientation": spec.orientation,
                              "m": spec.m}
    lines = [f"system: {spec.name} ({spec.orientation}, m={spec.m})"]
    if pu_report is not None:
        bundle["postunbranched"] = pu_report_doc(pu_report)
        lines.append({
            "postunbranched": f"postunbranched at every depth ({pu_report.mechanism})",
            "not-postunbranched": f"not postunbranched: {pu_report.witness}",
            "unknown": f"postunbranched: unknown: {pu_report.witness}" if pu_report.witness
                       else "postunbranched: unknown within budget",
        }[pu_report.status])
    else:
        lines.append("postunbranched: no geometry or addresses to check")
    if sreport is not None:
        bundle["singleton_overlaps"] = {
            "all_small": sreport.all_small,
            "pairs": {f"{i},{j}": status for (i, j), status in sorted(sreport.pairs.items())},
        }
        if sreport.witnesses:
            bundle["singleton_overlaps"]["witnesses"] = {
                f"{i},{j}": [_point_doc(p) for p in points]
                for (i, j), points in sorted(sreport.witnesses.items())}
        lines.append("overlaps: every touching pair meets in a single point"
                     if sreport.all_small else
                     "overlaps: not all pairs certified to be single points")
    bundle["theorem_check"] = theorem_check_doc(thm)
    if thm.applicable:
        good = sum(1 for c in thm.checks if c.ok)
        lines.append(f"recurrence replay: {good}/{len(thm.checks)} identities hold")
        if thm.note:
            lines.append(f"  warning: {thm.note}")
        for p in thm.predictions:
            lines.append(f"  prediction: {p}")
    else:
        lines.append(f"recurrence replay: skipped ({thm.note})")
    if preport is not None:
        bundle["pivot_conditions"] = pivot_report_doc(preport)
        for key, cond in sorted(preport.conditions.items()):
            mark = "yes" if cond.ok else "NO"
            lines.append(f"pivot {preport.pivot} condition {key}: {mark} ({cond.witness})")
        lines.append("conclusion: " + (
            "the limit's first cohomology has infinite rank; depth counts a_1 grow strictly"
            if preport.conclusion else "rank growth not established by the pivot conditions"))
    print("\n".join(lines))
    if args.out_report:
        _emit(_json_text(bundle), args.out_report)
    uncertain = bool(table.uncertain) or (pu_report is not None
                                          and pu_report.status == "unknown")
    return EXIT_UNCERTAIN if uncertain else EXIT_OK


def cmd_derive(args: argparse.Namespace) -> int:
    loaded = resolve_spec(args.spec)
    spec = loaded.spec
    if not spec.is_geometric:
        raise SpecError("derive needs a geometric system")
    if args.subsystem is not None:
        try:
            words = [word_from_string(part.strip(), spec.m)
                     for part in args.subsystem.split(",") if part.strip()]
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        if not words:
            raise SpecError("--subsystem needs at least one word")
        derived = build_iterate_or_subsystem(spec, words, name=args.name)
    else:
        if _refused(spec, args.iterate, args.max_cells, "generators"):
            return EXIT_RESOURCE
        derived = iterate_system(spec, args.iterate, name=args.name)
    _emit(_json_text(spec_to_doc(derived)), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(lowest: int, what: str) -> Callable[[str], int]:
    """An argparse type for ints of at least `lowest`; `what` names the rule
    in the error message."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a non-negative integer")


def _add_spec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("spec", help="path to a spec file, or a bundled system name")
    parser.add_argument("--max-cells", type=_positive_int, default=250_000,
                        help="refuse computations with more cells than this")


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The spec and cap, plus the dim cap and oracle budget that the nerve
    commands read."""
    _add_spec(parser)
    parser.add_argument("--dim-cap", type=_positive_int, default=2,
                        help="largest simplex dimension to compute (default 2)")
    parser.add_argument("--refine-depth", type=_nonnegative_int, default=8,
                        help="subdivision rounds before answering unknown")
    parser.add_argument("--cert-period", type=_positive_int, default=2,
                        help="longest address period tried for intersection certificates;"
                             " the m^(period + preperiod) tail addresses count against"
                             " --max-cells")
    parser.add_argument("--cert-preperiod", type=_nonnegative_int, default=1,
                        help="longest address preperiod tried for certificates")


def _add_nerve(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--depth", type=_positive_int, required=True, help="word length k")
    parser.add_argument("--out-json", help="write the simplex list here (default stdout)")
    parser.add_argument("--out-dot", help="write the 1-skeleton in DOT form here")


def _add_tower(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--max-depth", type=_positive_int, required=True,
                        help="deepest level K")
    parser.add_argument("--field", default="q",
                        help="q, or gfP for a prime P < 10^24 (default q)")
    parser.add_argument("--out-csv", help="write the CSV table here (default stdout)")
    parser.add_argument("--out-report", help="write the JSON verdict report here")


def _add_classify(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--max-depth", type=_positive_int,
                        help="tower depth for the recurrence replay (default 3, or the"
                             " deepest depth a table system stores, if less)")
    parser.add_argument("--field", default="q",
                        help="q, or gfP for a prime P < 10^24 (default q)")
    parser.add_argument("--pivot", type=int, help="symbol for the rank-growth conditions")
    parser.add_argument("--out-report", help="write the JSON bundle here")


def _add_derive(parser: argparse.ArgumentParser) -> None:
    _add_spec(parser)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--iterate", type=_positive_int,
                       help="replace generators by all n-fold words")
    group.add_argument("--subsystem", help="comma-separated generator words, e.g. \"11,13\"")
    parser.add_argument("--name", help="name for the derived system")
    parser.add_argument("--out", help="write the derived spec here (default stdout)")


# Each subcommand: its help line, the function that adds its arguments, and
# its handler, in the order `--help` lists them.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None],
                           Callable[[argparse.Namespace], int]]] = {
    "list": ("list the bundled systems", lambda parser: None, cmd_list),
    "nerve": ("build one nerve and export JSON/DOT", _add_nerve, cmd_nerve),
    "tower": ("Betti table, lambda ranks, components, verdicts", _add_tower, cmd_tower),
    "classify": ("overlap certificates, decided at every depth, and recurrence replay",
                 _add_classify, cmd_classify),
    "derive": ("write the spec of an iterate or a subsystem", _add_derive, cmd_derive),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command-line parser: every subcommand, or only `command`.

    Building all five subparsers takes about half of `main`'s time on a
    small system, so `main` builds only the subparser that its first
    argument names.  That parser reads the same arguments the same way.  Its top-level usage
    line, printed on an "unrecognized arguments" error, still lists every
    subcommand, because the subparsers' metavar is pinned to that list.  The
    full parser leaves the metavar unset: argparse names the subcommand
    argument by its metavar, and the errors of a missing or unknown command
    read "argument command"."""
    parser = argparse.ArgumentParser(
        prog="nervetower",
        description="nerve towers and interaction (co)homology of self-similar systems")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, add_arguments, handler) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line (default `sys.argv[1:]`) and return its exit code.

    A line that starts with a subcommand is parsed by the parser of that
    subcommand alone (see `build_parser`); help, a missing command and an
    unknown one go to the full parser, which lists every subcommand.  Both
    give the same output, byte for byte."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, OSError) as exc:  # bad input, or a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
