"""Command line front end.

Subcommands cover group inspection, calculus enumeration, braid
operators, connections, invariant tensors, metrics, and group actions
on finite sets.  _build_parser declares each subcommand once, in one
table: a leaf call gives its name, help, options and handler, bound with
set_defaults, so run calls args.handler(args).  A handler returns its
payload, or (payload, DOT text) on a leaf with --dot; run adds the
schema marker, writes DOT files and maps errors to exit statuses.
Output is deterministic: dictionary keys are sorted, and rational
numbers render as "p/q" strings that the parsers accept back.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import factorial

from . import braid as braid_mod
from . import calculus as calculus_mod
from . import connection as connection_mod
from . import dual as dual_mod
from . import groups as groups_mod
from . import gset as gset_mod
from . import invariants as invariants_mod
from .errors import FiniteGeoError, TooLarge, UsageError
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
        doc = _load_json(spec[1:])
        if not isinstance(doc, dict) or "table" not in doc:
            raise UsageError('a group file must hold a JSON object with a "table"')
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
    atoms = [_parse_atom(p, bound) for p in spec.split("x")]
    order = 1
    for *_, size in atoms:  # the orders direct_product checks, before any factor is built
        order *= size
        if order > bound:
            raise TooLarge(f"order {order} exceeds the bound {bound}")
    group, *rest = [maker(n, max_order=bound) for maker, n, _ in atoms]
    for extra in rest:
        group = groups_mod.direct_product(group, extra, max_order=bound)
    return group


def _parse_atom(token, bound):
    """A token's builder, index and order.  An order above the bound is
    refused here with its builder's message, before anything is built;
    n! is computed only for a degree n within the bound."""
    token = "Dic2" if token.strip() == "Q8" else token.strip()
    match = re.fullmatch(r"(Dic|[ZSAD])(\d+)", token)
    if match is None:
        raise UsageError(f"cannot parse group token {token!r}")
    kind, n = match[1], int(match[2])
    if n < 1:
        raise UsageError(f"group token {token!r} needs a positive index")
    if kind in ("S", "A"):
        half = kind == "A" and n > 1
        order = factorial(n) // (1 + half) if n <= bound + 1 else None  # else order >= n - 1
        if order is None or order > bound:
            raise TooLarge(f"{n}!{'/2' if half else ''} exceeds the bound {bound}")
    else:
        order = n * {"Z": 1, "D": 2, "Dic": 4}[kind]
        if order > bound:
            raise TooLarge(f"order {order} exceeds the bound {bound}")
    maker = {"Z": groups_mod.cyclic, "S": groups_mod.symmetric, "A": groups_mod.alternating,
             "D": groups_mod.dihedral, "Dic": groups_mod.dicyclic}[kind]
    return maker, n, order


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
            chosen.update(group.conjugacy_classes()[group.class_of(rep)])
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
    """An integer, p/q or plain decimal; exponent notation is refused,
    since Fraction would build the full power of ten of 1e999999999."""
    text = str(text)
    if re.search(r"[0-9.][eE]", text):
        raise UsageError(f"rational {text!r} is in exponent notation; write it as p/q or a decimal")
    try:
        return Fraction(text)
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


def _document_terms(calculus, doc, field, rank):
    """The coefficients of a connection document (field "gamma", rank 3)
    or a metric document ("coeffs", rank 2), keyed by tuples of elements.

    Each key names rank elements of hatG joined by "|".  The field is
    required, and no other key is accepted.  A document written for
    another calculus is refused: the schema, group and hatG fields are
    optional, and when present they must match the calculus the document
    is applied to.
    """
    if not isinstance(doc, dict):
        raise UsageError("a connection or metric document must be a JSON object")
    if field not in doc or not {"schema", "group", "hatG", field}.issuperset(doc):
        raise UsageError(f"a document needs a {field!r} field and no other than schema, "
                         f"group and hatG; it has {sorted(doc)}")
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
    entries = doc[field]
    if not isinstance(entries, dict):
        raise UsageError(f"the document's {field!r} must be a JSON object")
    hat, terms = set(calculus.hatG), {}
    for key, value in entries.items():
        parts = key.split("|")
        if len(parts) != rank:
            raise UsageError(f"bad coefficient key {key!r}: expected {rank} names joined by |")
        legs = tuple(group.element_index(p) for p in parts)
        if not hat.issuperset(legs):
            raise UsageError(f"coefficient key {key!r} names an element outside hatG")
        terms[legs] = _function_from_json(group, value)
    return terms


def connection_from_json(calculus, doc):
    return connection_mod.Connection(calculus, _document_terms(calculus, doc, "gamma", 3))


def metric_from_json(calculus, doc):
    return dual_mod.Metric(calculus, _document_terms(calculus, doc, "coeffs", 2))


class CommandResult:
    """Status, JSON payload and optional DOT documents of one run, keyed by
    path, with the run's --quiet and --json flags; run writes the files,
    so only the one for "-" is left to print."""

    def __init__(self, status=0, payload=None, dots=None, quiet=False, as_json=False):
        self.status = status
        self.payload = payload if payload is not None else {}
        self.dots = dots if dots is not None else {}
        self.quiet = quiet
        self.as_json = as_json


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
    if args.connection is not None:
        return connection_from_json(calculus, _load_json(args.connection))
    if args.name is not None:
        return _named_connection(calculus, args.name, args.lambdas)
    raise UsageError("provide --connection FILE or --name NAME")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise UsageError, so that run
    can report them as JSON; its subparsers are of the same class.  The
    exception's usage holds the text argparse would print on stderr."""

    def error(self, message):
        exc = UsageError(f"{self.prog}: {message}")
        exc.usage = f"{self.format_usage()}{self.prog}: error: {message}\n"
        raise exc


_COMMANDS = {
    "group": "inspect groups",
    "calculi": "enumerate calculi on a group",
    "calculus": "inspect one calculus",
    "braid": "braid operator of a calculus",
    "connection": "linear connections",
    "tensors": "invariant tensor spaces",
    "metric": "metrics and compatibility",
    "action": "group actions on finite sets",
}


def _build_parser():
    """The argparse tree, one leaf call per subcommand.  leaf adds the
    command's parser on first use, --group and --hatg as the subcommand
    takes them, and binds the handler; the subcommand's own options
    follow, and --json, --quiet and, where the leaf writes DOT, --dot
    come last, so every help text lists them in that order."""
    parser = _Parser(
        prog="finitegeo",
        description="Exact differential geometry on finite groups.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    actions, leaves = {}, []

    def leaf(path, help, handler, group=True, hatg=True, dot=False):
        command, action = path.split()
        if command not in actions:
            p = commands.add_parser(command, help=_COMMANDS[command])
            actions[command] = p.add_subparsers(dest="action", required=True)
        p = actions[command].add_parser(action, help=help)
        p.set_defaults(handler=handler)
        if group:
            p.add_argument("--group", help="group spec (Z3, S3, Z2xZ2, @file.json)")
        if group and hatg:
            p.add_argument("--hatg", help="reduced set: all, name list, or class:NAME selectors")
        leaves.append((p, dot))
        return p

    leaf("group info", "order, classes, center", _cmd_group_info, group=False).add_argument(
        "spec", help="group spec"
    )
    leaf("calculi list", "list covariant calculi", _cmd_calculi_list, hatg=False).add_argument(
        "--bicovariant", action="store_true", help="only bicovariant ones"
    )
    leaf("calculus show", "reduced set, edges, covariance", _cmd_calculus_show, dot=True)
    leaf("braid order", "order of the braid operator", _cmd_braid)
    leaf("braid check", "verify the braid equation", _cmd_braid)
    leaf("braid decompose", "kernel and image dimensions", _cmd_braid)

    p = leaf("connection solve", "solve invariance + torsion conditions", _cmd_connection_solve)
    p.add_argument("--torsion-free", action="store_true")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--bi-invariant", action="store_true")
    mode.add_argument("--left-invariant", action="store_true")
    p.add_argument("--params", help="emit the member at these parameters")
    p = leaf("connection analyze", "torsion, curvature, extensibility", _cmd_connection_analyze)
    p.add_argument("--connection", metavar="FILE", help="connection JSON")
    p.add_argument("--name", help="named connection (c, sigma, ...)")
    p.add_argument("--lambdas", help="family parameters")
    p = leaf("connection named", "emit a named connection", _cmd_connection_named)
    p.add_argument("--name", required=True, help="c, sigma, sigma-inverse, transport, family")
    p.add_argument("--lambdas", help="family parameters")

    p = leaf("tensors invariant", "solve a symmetry condition", _cmd_tensors_invariant)
    p.add_argument("--kind", default="bi", help="bi, s-sym, s-antisym, w-sym, w-antisym")
    p.add_argument("--pattern", action="store_true", help="show pattern matrix")
    p.add_argument("--order", help="element order for the pattern rows")

    p = leaf("metric check", "compatibility along a connection", _cmd_metric_check)
    p.add_argument("--metric", required=True, metavar="FILE")
    p.add_argument("--connection", metavar="FILE")
    p.add_argument("--name", help="named connection")
    p.add_argument("--lambdas", help="family parameters")

    p = leaf("action orbits", "orbits on off-diagonal pairs", _cmd_action_orbits, group=False)
    p.add_argument("--set", type=int, required=True, metavar="N")
    p.add_argument(
        "--group-generators", required=True, help="comma list of cycles, e.g. (12),(13)"
    )
    p = leaf("action calculi", "covariant calculi on the set", _cmd_action_calculi, group=False,
             dot=True)
    p.add_argument("--set", type=int, required=True, metavar="N")
    p.add_argument("--group-generators", required=True)
    p.add_argument("--irreducible", action="store_true")

    for p, dot in leaves:
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--quiet", action="store_true", help="suppress output")
        if dot:
            p.add_argument("--dot", metavar="FILE", help="write DOT graph")
    return parser


def _make_calculus(args):
    group = parse_group(args.group)
    hatg = parse_hatg(group, args.hatg)
    return calculus_mod.from_hatG(group, hatg)


def _cmd_group_info(args):
    group = parse_group(args.spec)
    return {
        "label": group.label,
        "order": group.order,
        "abelian": group.is_abelian(),
        "names": [group.name(g) for g in range(group.order)],
        "classes": [
            [group.name(g) for g in cls] for cls in group.conjugacy_classes()
        ],
        "center": [group.name(g) for g in group.center()],
    }


def _cmd_calculi_list(args):
    group = parse_group(args.group)
    if args.bicovariant:
        found = calculus_mod.enumerate_bicovariant(group)
    else:
        found = calculus_mod.enumerate_left_covariant(group)
    return {
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


def _cmd_calculus_show(args):
    cal = _make_calculus(args)
    group = cal.group
    payload = {
        "group": group.label,
        "hatG": [group.name(g) for g in cal.hatG],
        "edges": sorted(
            [group.name(x), group.name(y)] for (x, y) in cal.edges
        ),
        "left_covariant": cal.left_covariant,
        "bicovariant": cal.bicovariant,
    }
    return payload, calculus_mod.export_dot(cal) if args.dot is not None else None


def _cmd_braid(args):
    cal = _make_calculus(args)
    sig = connection_mod.sigma_for(cal)
    if args.action == "order":
        return {"order": sig.order()}
    if args.action == "check":
        return {"braid_equation": braid_mod.braid_check(sig)}
    return {"dims": sig.decompose().dims}


def _cmd_connection_solve(args):
    cal = _make_calculus(args)
    if not args.torsion_free:
        raise UsageError("only --torsion-free solving is available")
    mode = "left" if args.left_invariant else "bi"
    family = connection_mod.solve_torsion_free(cal, mode=mode)
    group = cal.group
    payload = {
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
    return payload


def _cmd_connection_analyze(args):
    cal = _make_calculus(args)
    conn = _resolve_connection(cal, args)
    report = connection_mod.extensibility_analysis(conn)
    payload = {
        "left_invariant": conn.is_left_invariant(),
        "torsion_free": conn.is_torsion_free(),
        "curvature_zero": conn.curvature_is_zero(),
        "extensible": report.extensible,
        "pointwise_extensible": report.psi_representable,
    }
    if conn.is_left_invariant() and cal.bicovariant:
        info = connection_mod.invariance_constraints(cal, "bi")
        payload["bi_invariant"] = info["satisfies"](conn)
    return payload


def _cmd_connection_named(args):
    cal = _make_calculus(args)
    conn = _named_connection(cal, args.name, args.lambdas)
    return connection_to_json(conn)


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
        "kind": space.kind,
        "dimension": space.dimension,
    }
    if args.pattern:
        order = args.order and [cal.group.element_index(t.strip()) for t in args.order.split(",")]
        try:
            pat = invariants_mod.pattern_matrix(space, order=order)
        except ValueError as exc:  # an order that is not a permutation of hatG
            raise UsageError(str(exc)) from None
        payload["pattern"] = {
            "order": [cal.group.name(g) for g in pat["order"]],
            "matrix": pat["strings"],
        }
    return payload


def _cmd_metric_check(args):
    cal = _make_calculus(args)
    metric = metric_from_json(cal, _load_json(args.metric))
    conn = _resolve_connection(cal, args) if args.connection or args.name else None
    report = dual_mod.metric_compatibility(metric, "both", conn)
    flags = dual_mod.metric_symmetry(metric)
    return {
        "compatible": report["compatible"],
        "routes_agree": report["routes_agree"],
        "s_symmetric": flags["s_symmetric"],
        "left_invariant": flags["left_invariant"],
    }


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
    return {
        "set": gs.size,
        "group_order": gs.group.order,
        "orbits": [
            [[x + 1, y + 1] for (x, y) in orb] for orb in orbs
        ],
    }


def _cmd_action_calculi(args):
    gs = _action_gset(args)
    if args.irreducible:
        found = gset_mod.irreducible_calculi(gs)
    else:
        found = gset_mod.covariant_calculi(gs)
    payload = {
        "set": gs.size,
        "count": len(found),
        "calculi": [
            [[x + 1, y + 1] for (x, y) in edges] for edges in found
        ],
    }
    if args.dot is None:
        return payload
    return payload, "\n".join(gset_mod.gset_dot(gs, edges) for edges in found)


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
    """Parse arguments, execute and write DOT files; returns a CommandResult."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_list_values(argv))
    except SystemExit as exc:
        return CommandResult(exc.code if exc.code else 0)
    except UsageError as exc:
        if "--json" not in argv:
            sys.stderr.write(exc.usage)
            return CommandResult(2)
        return CommandResult(2, {"error": str(exc)}, as_json=True)
    flags = {"quiet": args.quiet, "as_json": args.json}
    try:
        out = args.handler(args)
        payload, dot = out if isinstance(out, tuple) else (out, None)
        dots = {} if dot is None else {args.dot: dot}
        for path in [p for p in dots if p != "-"]:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(dots.pop(path))
        return CommandResult(0, {"schema": 1, **payload}, dots, **flags)
    except (UsageError, OSError, UnicodeDecodeError, KeyError, json.JSONDecodeError) as exc:
        # str() of a KeyError quotes its message
        error = str(exc.args[0] if isinstance(exc, KeyError) else exc)
        return CommandResult(2, {"error": error}, **flags)
    except FiniteGeoError as exc:
        return CommandResult(1, {"error": str(exc)}, **flags)


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
    failed = result.status != 0 and "error" in result.payload
    if failed and not result.as_json:
        print(f"error: {result.payload['error']}", file=sys.stderr)
    elif result.payload and (failed or not result.quiet):
        if result.as_json:
            print(json.dumps(result.payload, sort_keys=True, indent=2))
        else:
            print("\n".join(_render_plain(result.payload)))
    if "-" in result.dots:
        print(result.dots["-"])
    return result.status


if __name__ == "__main__":
    sys.exit(main())
