"""Command line front end.

Subcommands cover group inspection, calculus enumeration, braid
operators, connections, invariant tensors, metrics, and group actions
on finite sets.  Output is deterministic: JSON payloads carry a schema
marker, dictionary keys are sorted, and rational numbers render as
"p/q" strings that the parsers accept back.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import braid as braid_mod
from . import calculus as calculus_mod
from . import connection as connection_mod
from . import dual as dual_mod
from . import groups as groups_mod
from . import gset as gset_mod
from . import invariants as invariants_mod
from .errors import FiniteGeoError, UsageError
from .funcs import GroupFunction, from_values


def _max_order():
    raw = os.environ.get("FINITEGEO_MAX_ORDER")
    if raw is None:
        return groups_mod.DEFAULT_MAX_ORDER
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"FINITEGEO_MAX_ORDER must be an integer, got {raw!r}")


def parse_group(spec):
    """Resolve a group specification.

    Accepts Zn, Sn, An, Dn, Dicn, Q8 (= Dic2), products joined with `x`
    (e.g. Z2xZ2), and @file.json for an explicit Cayley table: a JSON
    object with "table" (a list of integer rows) and optional "names"
    (a list of strings) and "label" (a string).  Families and products
    are bounded by FINITEGEO_MAX_ORDER.
    """
    bound = _max_order()
    if spec is None:
        raise UsageError("a group specification is required")
    spec = spec.strip()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise UsageError("a group file must hold a JSON object")
        table = doc["table"]
        if not (isinstance(table, list) and all(isinstance(row, list) for row in table)):
            raise UsageError("a group table must be a list of lists of integers")
        names, label = doc.get("names"), doc.get("label")
        if names is not None and not (
            isinstance(names, list) and all(isinstance(n, str) for n in names)
        ):
            raise UsageError("group names must be a list of distinct strings")
        if label is not None and not isinstance(label, str):
            raise UsageError("a group label must be a string")
        try:
            return groups_mod.from_cayley_table(table, names=names, label=label)
        except ValueError as exc:
            raise UsageError(f"bad group table: {exc}")
    parts = spec.split("x")
    built = [_parse_atom(p, bound) for p in parts]
    group = built[0]
    for extra in built[1:]:
        group = groups_mod.direct_product(group, extra, max_order=bound)
    return group


def _parse_atom(token, bound):
    token = token.strip()
    families = {
        "Z": groups_mod.cyclic,
        "S": groups_mod.symmetric,
        "A": groups_mod.alternating,
        "D": groups_mod.dihedral,
    }
    if token == "Q8":
        return groups_mod.dicyclic(2, max_order=bound)
    if token.startswith("Dic"):
        digits = token[3:]
        maker = groups_mod.dicyclic
    elif token and token[0] in families and token[1:].isdigit():
        digits = token[1:]
        maker = families[token[0]]
    else:
        raise UsageError(f"cannot parse group token {token!r}")
    if not digits.isdigit():
        raise UsageError(f"cannot parse group token {token!r}")
    if int(digits) < 1:
        raise UsageError(f"group token {token!r} needs a positive index")
    return maker(int(digits), max_order=bound)


def parse_permutation(text, set_size=None):
    """Parse cycle notation like (12) or (1 2 3)(4 5) into one-line form.

    Points are 1-based in the notation.  With set_size the permutation
    acts on that many points, and a larger point is refused before the
    one-line list is built.
    """
    text = text.strip()
    if not text:
        raise UsageError("empty permutation")
    cycles = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            if depth:
                raise UsageError(f"nested cycle in {text!r}")
            depth = 1
            current = []
        elif ch == ")":
            if not depth:
                raise UsageError(f"unbalanced cycle in {text!r}")
            depth = 0
            cycles.append(current)
            current = []
        elif depth:
            current.append(ch)
        elif not ch.isspace():
            raise UsageError(f"unexpected character {ch!r} in {text!r}")
    if depth:
        raise UsageError(f"unbalanced cycle in {text!r}")
    parsed = []
    for raw in cycles:
        joined = "".join(raw)
        if "," in joined or " " in joined:
            points = [p for p in joined.replace(",", " ").split() if p]
        else:
            points = list(joined)
        try:
            cyc = [int(p) - 1 for p in points]
        except ValueError:
            raise UsageError(f"cannot parse cycle points in {text!r}")
        if len(set(cyc)) != len(cyc) or any(p < 0 for p in cyc):
            raise UsageError(f"bad cycle {joined!r}")
        parsed.append(cyc)
    top = max((max(c) for c in parsed if c), default=-1) + 1
    if set_size is not None and top > set_size:
        raise UsageError(f"permutation moves point {top} beyond the set size {set_size}")
    degree = max(top, set_size or 0)
    if degree == 0:
        raise UsageError(f"empty permutation {text!r}")
    onel = list(range(degree))
    for cyc in parsed:
        for i, p in enumerate(cyc):
            onel[p] = cyc[(i + 1) % len(cyc)]
    return tuple(onel)


def parse_hatg(group, spec):
    """Resolve a reduced-set specification.

    `all` selects every non-identity element; otherwise a comma list
    whose items are element names or class:NAME selectors for whole
    conjugacy classes.
    """
    if spec is None or spec.strip() == "all":
        return sorted(g for g in range(1, group.order))
    chosen = set()
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if item.startswith("class:"):
            rep = group.element_index(item[len("class:"):])
            chosen.update(group.conjugacy_classes()[group._class_of[rep]])
        else:
            chosen.add(group.element_index(item))
    if 0 in chosen:
        raise UsageError("the identity cannot belong to the reduced set")
    if not chosen:
        raise UsageError(f"empty reduced set from {spec!r}")
    return sorted(chosen)


def _fraction_str(x):
    return str(Fraction(x))


def _parse_fraction(text):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse rational {text!r}")


def _coefficient_to_json(c):
    """A scalar as one string, a GroupFunction as its value list."""
    if isinstance(c, GroupFunction):
        return [_fraction_str(v) for v in c.values]
    return _fraction_str(c)


def _function_from_json(group, doc):
    if isinstance(doc, list):
        if len(doc) != group.order:
            raise UsageError(
                f"function value list must have length {group.order}"
            )
        return from_values(group, [_parse_fraction(v) for v in doc])
    return _parse_fraction(doc)


def connection_to_json(conn):
    cal = conn.calculus
    group = cal.group
    gamma = {}
    for (h, g, gp), c in sorted(conn.terms.items()):
        key = f"{group.name(h)}|{group.name(g)}|{group.name(gp)}"
        gamma[key] = _coefficient_to_json(c)
    return {
        "schema": 1,
        "group": group.label,
        "hatG": [group.name(g) for g in cal.hatG],
        "gamma": gamma,
    }


def _document_entries(calculus, doc, field):
    """The (key, value) pairs of a connection or metric document's
    coefficient object, field "gamma" or "coeffs".

    A document written for another calculus is refused: the schema,
    group and hatG fields are optional, and when present they must match
    the calculus the document is applied to.
    """
    if not isinstance(doc, dict):
        raise UsageError("a connection or metric document must be a JSON object")
    group = calculus.group
    if "schema" in doc and doc["schema"] != 1:
        raise UsageError(f"unsupported document schema {doc['schema']!r}")
    if "group" in doc and doc["group"] != group.label:
        raise UsageError(
            f"document is for group {doc['group']!r}, not {group.label!r}"
        )
    if "hatG" in doc:
        names = doc["hatG"]
        want = [group.name(g) for g in calculus.hatG]
        if not isinstance(names, list) or set(map(str, names)) != set(want):
            raise UsageError(
                f"document hatG {names!r} differs from the reduced set {want}"
            )
    entries = doc.get(field, {})
    if not isinstance(entries, dict):
        raise UsageError(f"the document's {field!r} must be a JSON object")
    return entries.items()


def connection_from_json(calculus, doc):
    group = calculus.group
    gamma = {}
    for key, value in _document_entries(calculus, doc, "gamma"):
        parts = key.split("|")
        if len(parts) != 3:
            raise UsageError(f"bad coefficient key {key!r}")
        h, g, gp = (group.element_index(p) for p in parts)
        gamma[(h, g, gp)] = _function_from_json(group, value)
    return connection_mod.Connection(calculus, gamma)


def metric_from_json(calculus, doc):
    group = calculus.group
    coeffs = {}
    for key, value in _document_entries(calculus, doc, "coeffs"):
        parts = key.split("|")
        if len(parts) != 2:
            raise UsageError(f"bad metric key {key!r}")
        g, gp = (group.element_index(p) for p in parts)
        coeffs[(g, gp)] = _function_from_json(group, value)
    return dual_mod.Metric(calculus, coeffs)


class CommandResult:
    """Status, JSON payload and optional DOT documents of one run."""

    def __init__(self, status=0, payload=None, dots=None):
        self.status = status
        self.payload = payload if payload is not None else {}
        self.dots = dots if dots is not None else {}


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _named_connection(calculus, name, lambdas=None):
    if name == "c":
        return connection_mod.c_connection(calculus)
    if name == "sigma":
        return connection_mod.nabla_sigma(calculus)
    if name == "sigma-inverse":
        return connection_mod.nabla_sigma_inverse(calculus)
    if name == "transport":
        return connection_mod.canonical_connection(calculus)
    if name == "family":
        if lambdas is None:
            raise UsageError("--lambdas is required for the family")
        lams = [_parse_fraction(tok) for tok in lambdas.split(",")]
        return connection_mod.sigma_family(calculus, lams)
    raise UsageError(f"unknown connection name {name!r}")


def _resolve_connection(calculus, args):
    doc = getattr(args, "connection", None)
    name = getattr(args, "name", None)
    if doc is not None:
        return connection_from_json(calculus, _load_json(doc))
    if name is not None:
        return _named_connection(calculus, name, getattr(args, "lambdas", None))
    raise UsageError("provide --connection FILE or --name NAME")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise UsageError, so that run
    can report them as JSON; its subparsers are of the same class.  The
    exception's usage holds the text argparse would print on stderr."""

    def error(self, message):
        exc = UsageError(f"{self.prog}: {message}")
        exc.usage = f"{self.format_usage()}{self.prog}: error: {message}\n"
        raise exc


def _build_parser():
    parser = _Parser(
        prog="finitegeo",
        description="Exact differential geometry on finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dot=False):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--quiet", action="store_true", help="suppress output")
        if dot:
            p.add_argument("--dot", metavar="FILE", help="write DOT graph")

    def add_group(p, hatg=True):
        p.add_argument("--group", help="group spec (Z3, S3, Z2xZ2, @file.json)")
        if hatg:
            p.add_argument(
                "--hatg",
                help="reduced set: all, name list, or class:NAME selectors",
            )

    p = sub.add_parser("group", help="inspect groups")
    gsub = p.add_subparsers(dest="action", required=True)
    gi = gsub.add_parser("info", help="order, classes, center")
    gi.add_argument("spec", help="group spec")
    add_common(gi)

    p = sub.add_parser("calculi", help="enumerate calculi on a group")
    csub = p.add_subparsers(dest="action", required=True)
    cl = csub.add_parser("list", help="list covariant calculi")
    add_group(cl, hatg=False)
    cl.add_argument(
        "--bicovariant", action="store_true", help="only bicovariant ones"
    )
    add_common(cl)

    p = sub.add_parser("calculus", help="inspect one calculus")
    ksub = p.add_subparsers(dest="action", required=True)
    ks = ksub.add_parser("show", help="reduced set, edges, covariance")
    add_group(ks)
    add_common(ks, dot=True)

    p = sub.add_parser("braid", help="braid operator of a calculus")
    bsub = p.add_subparsers(dest="action", required=True)
    for act, desc in (
        ("order", "order of the braid operator"),
        ("check", "verify the braid equation"),
        ("decompose", "kernel and image dimensions"),
    ):
        bp = bsub.add_parser(act, help=desc)
        add_group(bp)
        add_common(bp)

    p = sub.add_parser("connection", help="linear connections")
    nsub = p.add_subparsers(dest="action", required=True)
    ns = nsub.add_parser("solve", help="solve invariance + torsion conditions")
    add_group(ns)
    ns.add_argument("--torsion-free", action="store_true")
    group_mode = ns.add_mutually_exclusive_group()
    group_mode.add_argument("--bi-invariant", action="store_true")
    group_mode.add_argument("--left-invariant", action="store_true")
    ns.add_argument("--params", help="emit the member at these parameters")
    add_common(ns)
    na = nsub.add_parser("analyze", help="torsion, curvature, extensibility")
    add_group(na)
    na.add_argument("--connection", metavar="FILE", help="connection JSON")
    na.add_argument("--name", help="named connection (c, sigma, ...)")
    na.add_argument("--lambdas", help="family parameters")
    add_common(na)
    nn = nsub.add_parser("named", help="emit a named connection")
    add_group(nn)
    nn.add_argument("--name", required=True,
                    help="c, sigma, sigma-inverse, transport, family")
    nn.add_argument("--lambdas", help="family parameters")
    add_common(nn)

    p = sub.add_parser("tensors", help="invariant tensor spaces")
    tsub = p.add_subparsers(dest="action", required=True)
    ti = tsub.add_parser("invariant", help="solve a symmetry condition")
    add_group(ti)
    ti.add_argument(
        "--kind",
        default="bi",
        help="bi, s-sym, s-antisym, w-sym, w-antisym",
    )
    ti.add_argument("--pattern", action="store_true", help="show pattern matrix")
    ti.add_argument("--order", help="element order for the pattern rows")
    add_common(ti)

    p = sub.add_parser("metric", help="metrics and compatibility")
    msub = p.add_subparsers(dest="action", required=True)
    mc = msub.add_parser("check", help="compatibility along a connection")
    add_group(mc)
    mc.add_argument("--metric", required=True, metavar="FILE")
    mc.add_argument("--connection", metavar="FILE")
    mc.add_argument("--name", help="named connection")
    mc.add_argument("--lambdas", help="family parameters")
    add_common(mc)

    p = sub.add_parser("action", help="group actions on finite sets")
    asub = p.add_subparsers(dest="action", required=True)
    ao = asub.add_parser("orbits", help="orbits on off-diagonal pairs")
    ao.add_argument("--set", type=int, required=True, metavar="N")
    ao.add_argument(
        "--group-generators", required=True,
        help="comma list of cycles, e.g. (12),(13)",
    )
    add_common(ao)
    ac = asub.add_parser("calculi", help="covariant calculi on the set")
    ac.add_argument("--set", type=int, required=True, metavar="N")
    ac.add_argument("--group-generators", required=True)
    ac.add_argument("--irreducible", action="store_true")
    add_common(ac, dot=True)
    return parser


def _make_calculus(args):
    group = parse_group(args.group)
    hatg = parse_hatg(group, getattr(args, "hatg", None))
    return calculus_mod.from_hatG(group, hatg)


def _cmd_group_info(args):
    group = parse_group(args.spec)
    payload = {
        "schema": 1,
        "label": group.label,
        "order": group.order,
        "abelian": group.is_abelian(),
        "names": [group.name(g) for g in range(group.order)],
        "classes": [
            [group.name(g) for g in cls] for cls in group.conjugacy_classes()
        ],
        "center": [group.name(g) for g in group.center()],
    }
    return CommandResult(0, payload)


def _cmd_calculi_list(args):
    group = parse_group(args.group)
    if args.bicovariant:
        found = calculus_mod.enumerate_bicovariant(group)
    else:
        found = calculus_mod.enumerate_left_covariant(group)
    payload = {
        "schema": 1,
        "group": group.label,
        "count": len(found),
        "calculi": [
            {
                "hatG": [group.name(g) for g in cal.hatG],
                "bicovariant": cal.bicovariant,
            }
            for cal in found
        ],
    }
    return CommandResult(0, payload)


def _cmd_calculus_show(args):
    cal = _make_calculus(args)
    group = cal.group
    payload = {
        "schema": 1,
        "group": group.label,
        "hatG": [group.name(g) for g in cal.hatG],
        "edges": sorted(
            [group.name(x), group.name(y)] for (x, y) in cal.edges
        ),
        "left_covariant": cal.left_covariant,
        "bicovariant": cal.bicovariant,
    }
    dots = {}
    if getattr(args, "dot", None):
        dots[args.dot] = calculus_mod.export_dot(cal)
    return CommandResult(0, payload, dots)


def _cmd_braid(args):
    cal = _make_calculus(args)
    sig = connection_mod.sigma_for(cal)
    if args.action == "order":
        payload = {"schema": 1, "order": sig.order()}
    elif args.action == "check":
        payload = {"schema": 1, "braid_equation": braid_mod.braid_check(sig)}
    else:
        dims = sig.decompose().dims
        payload = {"schema": 1, "dims": dims}
    return CommandResult(0, payload)


def _cmd_connection_solve(args):
    cal = _make_calculus(args)
    if not args.torsion_free:
        raise UsageError("only --torsion-free solving is available")
    mode = "left" if args.left_invariant else "bi"
    family = connection_mod.solve_torsion_free(cal, mode=mode)
    group = cal.group
    payload = {
        "schema": 1,
        "group": group.label,
        "hatG": [group.name(g) for g in cal.hatG],
        "mode": mode,
        "free_parameters": family.dimension,
        "orbit_count": len(family.orbits),
    }
    if args.params is not None:
        params = [_parse_fraction(p) for p in args.params.split(",")]
        member = family.member(params)
        payload["member"] = connection_to_json(member)
    return CommandResult(0, payload)


def _cmd_connection_analyze(args):
    cal = _make_calculus(args)
    conn = _resolve_connection(cal, args)
    report = connection_mod.extensibility_analysis(conn)
    payload = {
        "schema": 1,
        "left_invariant": conn.is_left_invariant(),
        "torsion_free": conn.is_torsion_free(),
        "curvature_zero": conn.curvature_is_zero(),
        "extensible": report.extensible,
        "pointwise_extensible": report.psi_representable,
    }
    if conn.is_left_invariant() and cal.bicovariant:
        info = connection_mod.invariance_constraints(cal, "bi")
        payload["bi_invariant"] = info["satisfies"](conn)
    return CommandResult(0, payload)


def _cmd_connection_named(args):
    cal = _make_calculus(args)
    conn = _named_connection(cal, args.name, args.lambdas)
    return CommandResult(0, connection_to_json(conn))


_KIND_ALIASES = {
    "bi": "bi_invariant",
    "s-sym": "s_sym",
    "s-antisym": "s_antisym",
    "w-sym": "w_sym",
    "w-antisym": "w_antisym",
}


def _cmd_tensors_invariant(args):
    cal = _make_calculus(args)
    kind = _KIND_ALIASES.get(args.kind, args.kind)
    if kind not in _KIND_ALIASES.values():
        raise UsageError(f"unknown kind {args.kind!r}")
    if kind == "bi_invariant":
        space = invariants_mod.solve_bi_invariant(cal)
    else:
        space = invariants_mod.solve_symmetry(cal, kind)
    payload = {
        "schema": 1,
        "kind": space.kind,
        "dimension": space.dimension,
    }
    if args.pattern:
        order = None
        if args.order:
            order = [
                cal.group.element_index(tok.strip())
                for tok in args.order.split(",")
            ]
        pat = invariants_mod.pattern_matrix(space, order=order)
        payload["pattern"] = {
            "order": [cal.group.name(g) for g in pat["order"]],
            "matrix": pat["strings"],
        }
    return CommandResult(0, payload)


def _cmd_metric_check(args):
    cal = _make_calculus(args)
    metric = metric_from_json(cal, _load_json(args.metric))
    if getattr(args, "connection", None) or getattr(args, "name", None):
        conn = _resolve_connection(cal, args)
    else:
        conn = None
    report = dual_mod.metric_compatibility(metric, "both", conn)
    flags = dual_mod.metric_symmetry(metric)
    payload = {
        "schema": 1,
        "compatible": report["compatible"],
        "routes_agree": report["routes_agree"],
        "s_symmetric": flags["s_symmetric"],
        "left_invariant": flags["left_invariant"],
    }
    return CommandResult(0, payload)


def _action_gset(args):
    bound = _max_order()
    if not 1 <= args.set <= bound:
        raise UsageError(f"--set must lie between 1 and the bound {bound}, got {args.set}")
    tokens = [t for t in args.group_generators.split(",") if t.strip()]
    perms = [parse_permutation(tok, args.set) for tok in tokens]
    return gset_mod.gset_from_permutations(perms, size=args.set, max_order=bound)


def _cmd_action_orbits(args):
    gs = _action_gset(args)
    orbs = gset_mod.pair_orbits(gs)
    payload = {
        "schema": 1,
        "set": gs.size,
        "group_order": gs.group.order,
        "orbits": [
            [[x + 1, y + 1] for (x, y) in orb] for orb in orbs
        ],
    }
    return CommandResult(0, payload)


def _cmd_action_calculi(args):
    gs = _action_gset(args)
    if args.irreducible:
        found = gset_mod.irreducible_calculi(gs)
    else:
        found = gset_mod.covariant_calculi(gs)
    payload = {
        "schema": 1,
        "set": gs.size,
        "count": len(found),
        "calculi": [
            [[x + 1, y + 1] for (x, y) in edges] for edges in found
        ],
    }
    dots = {}
    if getattr(args, "dot", None):
        parts = [gset_mod.gset_dot(gs, edges) for edges in found]
        dots[args.dot] = "\n".join(parts)
    return CommandResult(0, payload, dots)


_DISPATCH = {
    ("group", "info"): _cmd_group_info,
    ("calculi", "list"): _cmd_calculi_list,
    ("calculus", "show"): _cmd_calculus_show,
    ("braid", "order"): _cmd_braid,
    ("braid", "check"): _cmd_braid,
    ("braid", "decompose"): _cmd_braid,
    ("connection", "solve"): _cmd_connection_solve,
    ("connection", "analyze"): _cmd_connection_analyze,
    ("connection", "named"): _cmd_connection_named,
    ("tensors", "invariant"): _cmd_tensors_invariant,
    ("metric", "check"): _cmd_metric_check,
    ("action", "orbits"): _cmd_action_orbits,
    ("action", "calculi"): _cmd_action_calculi,
}


def _glue_list_values(argv):
    """Write `--lambdas -1,2` as `--lambdas=-1,2`.

    argparse reads a separate value such as -1,2 as an option name, since
    only a plain negative number escapes that, and then refuses the option
    for lacking its value.
    """
    out = []
    for tok in argv:
        if out and out[-1] in ("--lambdas", "--params") and re.match(r"-\.?\d", tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def run(argv):
    """Parse arguments and execute; returns a CommandResult."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_list_values(argv))
    except SystemExit as exc:
        return CommandResult(exc.code if exc.code else 0)
    except UsageError as exc:
        if "--json" not in argv:
            sys.stderr.write(exc.usage)
            return CommandResult(2)
        result = CommandResult(2, {"error": str(exc)})
        result.as_json = True
        return result
    handler = _DISPATCH.get((args.command, args.action))
    if handler is None:
        return CommandResult(2, {"error": "unknown command"})
    try:
        result = handler(args)
    except UsageError as exc:
        result = CommandResult(2, {"error": str(exc)})
    except FiniteGeoError as exc:
        result = CommandResult(1, {"error": str(exc)})
    except (FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        result = CommandResult(2, {"error": str(exc)})
    result.quiet = getattr(args, "quiet", False)
    result.as_json = getattr(args, "json", False)
    return result


def _render_plain(payload, indent=0):
    lines = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_plain(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, list) and all(
                not isinstance(v, (dict, list)) for v in value
            ):
                lines.append(pad + "- " + "  ".join(str(v) for v in value))
            elif isinstance(value, (dict, list)):
                lines.extend(_render_plain(value, indent))
            else:
                lines.append(f"{pad}- {value}")
    else:
        lines.append(f"{pad}{payload}")
    return lines


def main(argv=None):
    """Run one command and print its payload: an error goes to stderr as
    `error: ...`, or to stdout as JSON with --json; --quiet hides only
    the payload of a command that succeeded."""
    result = run(sys.argv[1:] if argv is None else argv)
    quiet = getattr(result, "quiet", False)
    as_json = getattr(result, "as_json", False)
    failed = result.status != 0 and "error" in result.payload
    if failed and not as_json:
        print(f"error: {result.payload['error']}", file=sys.stderr)
    elif result.payload and (failed or not quiet):
        if as_json:
            print(json.dumps(result.payload, sort_keys=True, indent=2))
        else:
            print("\n".join(_render_plain(result.payload)))
    for path, content in result.dots.items():
        if path == "-":
            print(content)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
