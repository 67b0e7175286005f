"""The cli workload: a fixed list of ``finitegeo ... --json`` subprocesses.

Each operation starts a fresh interpreter running ``finitegeo.cli``, so
it pays start-up, import, argument parsing and JSON rendering.  Expected
payload values come from ``oracles`` on the groups' Cayley tables and
from the orders, class counts and centres of the groups as listed in the
literature (LITERATURE below).
"""

import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import oracles

from finitegeo import calculus, cli, connection

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
PLAIN = [sys.executable, "-m", "finitegeo.cli"]
TRACED = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py")]
SPAWN_SAMPLES = 5

# order, number of conjugacy classes, abelian, |centre|
LITERATURE = {
    "Z3": (3, 3, True, 3), "Z4": (4, 4, True, 4), "Z6": (6, 6, True, 6),
    "Z8": (8, 8, True, 8), "Z12": (12, 12, True, 12), "Z2xZ2": (4, 4, True, 4),
    "Z2xZ4": (8, 8, True, 8), "Z2xZ6": (12, 12, True, 12), "S3": (6, 3, False, 1),
    "D4": (8, 5, False, 2), "Dic2": (8, 5, False, 2), "A4": (12, 4, False, 1),
    "D5": (10, 4, False, 1), "D6": (12, 6, False, 2), "Dic3": (12, 6, False, 2),
    "S4": (24, 5, False, 1),
}
INFO_GROUPS = ("Z3", "Z4", "Z6", "Z8", "Z2xZ2", "S3", "D4", "Dic2", "A4", "S4")
BICOVARIANT_LISTS = ("Z6", "Z8", "Z2xZ4", "S3", "D4", "Dic2", "A4", "D6", "Dic3")

# (group, reduced-set spec) pairs the braid, tensor and connection commands use.
CALCULI = [
    ("S3", "all"), ("S3", "class:ab"), ("Z4", "all"), ("Z6", "a,a5"),
    ("D4", "class:s,class:rs"), ("Dic2", "class:a,class:x"),
    ("A4", "class:(12)(34)"), ("Dic3", "class:x"),
]

# Commands with 0.2-0.9 s of computation on top of start-up.  About a
# sixth of the list, they put latency_p90_s inside a band of real work
# rather than on the tail of start-up jitter.
HEAVY = [
    ("list", "Z12", None), ("list", "Z2xZ6", None),
    ("list", "Z12", "bicovariant"), ("list", "Z2xZ6", "bicovariant"),
    ("decompose", "A4", "all"), ("decompose", "Dic3", "all"), ("decompose", "D5", "all"),
    ("tensors", "A4", "all", "s-sym"), ("tensors", "D5", "all", "s-sym"),
    ("tensors", "D5", "all", "w-sym"), ("tensors", "D5", "all", "s-antisym"),
    ("tensors", "D5", "all", "w-antisym"),
    ("solve", "D4", "all"), ("solve", "Dic2", "all"), ("solve", "Z6", "all"),
    ("solve", "S4", "class:(123)"),
    ("analyze", "D4", "all"), ("analyze", "Dic2", "all"),
]

# (set size, generators in cycle notation, the same in 0-based one-line form)
ACTIONS = [
    (3, "(12),(123)", [(1, 0, 2), (1, 2, 0)]),
    (4, "(1234),(13)", [(1, 2, 3, 0), (2, 1, 0, 3)]),
    (5, "(12345)", [(1, 2, 3, 4, 0)]),
]


class CommandResult:
    def __init__(self, returncode, stdout, stderr, rusage):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.rusage = rusage
        self.output_bytes = len(stdout)

    def __repr__(self):
        return f"CommandResult(status={self.returncode}, stderr={self.stderr[-200:]!r})"


def spawn(argv, cwd, env):
    """Run a command to its end; return its output and its own rusage."""
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out, err = _drain(proc)
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(proc.returncode, out, err.decode(errors="replace"), rusage)


def _drain(proc):
    """Read both pipes to EOF without reaping, so wait4 sees the child."""
    chunks = {proc.stdout: [], proc.stderr: []}
    sel = selectors.DefaultSelector()
    for stream in chunks:
        sel.register(stream, selectors.EVENT_READ)
    while sel.get_map():
        for key, _ in sel.select():
            data = os.read(key.fd, 65536)
            if data:
                chunks[key.fileobj].append(data)
            else:
                sel.unregister(key.fileobj)
                key.fileobj.close()
    sel.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def _names(group, elems):
    return [group.name(x) for x in elems]


class Cli:
    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.prefix = PLAIN
        self.sink = None
        self.trace_file = os.path.join(workdir, "child-trace.json")
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
                        PERFBENCH_TRACE_FILE=self.trace_file)
        self.groups = {spec: cli.parse_group(spec) for spec in LITERATURE}
        self.commands = []  # (argv, check(payload), files to check)
        self._group_commands(rng)
        self._calculus_commands(rng)
        self._connection_commands(rng)
        self._metric_commands(rng)
        self._action_commands()
        self._heavy_commands()

    # -- building the list -------------------------------------------------

    def add(self, argv, check, written=None):
        self.commands.append((argv, check, written))

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write(self, name, doc):
        with open(self.path(name), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return self.path(name)

    def _group_commands(self, rng):
        for spec in INFO_GROUPS:
            self.add(["group", "info", spec], _group_check(*LITERATURE[spec]))
        for n in (6, 8):
            # Z_n with its elements shuffled, identity included.
            perm = list(range(n))
            rng.shuffle(perm)
            table = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    table[perm[i]][perm[j]] = perm[(i + j) % n]
            path = self.write(f"cyclic{n}.json", {"table": table, "label": f"C{n}"})
            self.add(["group", "info", "@" + path], _group_check(n, n, True, n))
        for spec in BICOVARIANT_LISTS:
            self.list_command(spec, bicovariant=True)
        self.list_command("D4", bicovariant=False)

    def _heavy_commands(self):
        for kind, spec, hspec, *extra in HEAVY:
            if kind == "list":
                self.list_command(spec, bicovariant=hspec == "bicovariant")
            elif kind == "decompose":
                self.decompose_command(spec, hspec)
            elif kind == "tensors":
                self.tensors_command(spec, hspec, extra[0])
            elif kind == "solve":
                self.solve_command(spec, hspec)
            else:
                self.analyze_c_command(spec, hspec)

    def resolve(self, spec, hatg_spec):
        group = self.groups[spec]
        return group, tuple(cli.parse_hatg(group, hatg_spec))

    def list_command(self, spec, bicovariant):
        order, ncls = LITERATURE[spec][:2]
        want = 2 ** (ncls - 1) if bicovariant else 2 ** (order - 1)
        flag = ["--bicovariant"] if bicovariant else []
        self.add(["calculi", "list", "--group", spec, *flag],
                 lambda p: p["count"] == want == len(p["calculi"]))

    def decompose_command(self, spec, hspec):
        group, hatg = self.resolve(spec, hspec)
        dims = oracles.sigma_facts(group.table, hatg)["dims"]
        self.add(["braid", "decompose", "--group", spec, "--hatg", hspec],
                 lambda p: tuple(p["dims"]) == dims)

    def tensors_command(self, spec, hspec, kind, pattern=False):
        group, hatg = self.resolve(spec, hspec)
        if kind == "bi":
            want = oracles.burnside(group.table, hatg, 2)
        else:
            dims = oracles.sigma_facts(group.table, hatg)["dims"]
            want = dims[oracles.SYMMETRY_DIM_SLOT[kind.replace("-", "_")]]
        extra = ["--pattern"] if pattern else []
        self.add(["tensors", "invariant", "--group", spec, "--hatg", hspec,
                  "--kind", kind, *extra],
                 lambda p: p["dimension"] == want)

    def solve_command(self, spec, hspec, left=False):
        group, hatg = self.resolve(spec, hspec)
        orbits = len(hatg) ** 3 if left else oracles.burnside(group.table, hatg, 3)
        mode = ["--left-invariant"] if left else []
        self.add(["connection", "solve", "--group", spec, "--hatg", hspec,
                  "--torsion-free", *mode],
                 lambda p: p["orbit_count"] == orbits and p["free_parameters"] >= 1)

    def analyze_c_command(self, spec, hspec):
        group, hatg = self.resolve(spec, hspec)
        c_gamma = oracles.c_coefficients(group.table, hatg)
        viol = oracles.extensibility_violations(group.table, hatg, list(c_gamma))
        self.add(
            ["connection", "analyze", "--group", spec, "--hatg", hspec, "--name", "c"],
            lambda p: p["torsion_free"] is True and p["bi_invariant"] is True
            and p["extensible"] == (not viol),
        )

    def _calculus_commands(self, rng):
        for k, (spec, hspec) in enumerate(CALCULI):
            group, hatg = self.resolve(spec, hspec)
            args = ["--group", spec, "--hatg", hspec]
            facts = oracles.sigma_facts(group.table, hatg)
            if k % 2 == 0:
                dot = self.path(f"calculus{k}.dot")
                self.add(["calculus", "show", *args, "--dot", dot],
                         _show_check(group.order, len(hatg)), (dot, group.order))
            self.add(["braid", "order", *args], lambda p, f=facts: p["order"] == f["order"])
            if k % 2 == 1:
                self.add(["braid", "check", *args], lambda p: p["braid_equation"] is True)
            self.decompose_command(spec, hspec)
            kind = ("bi", "s-sym", "s-antisym", "w-sym", "w-antisym")[k % 5]
            self.tensors_command(spec, hspec, kind, pattern=k % 3 == 0)

    def _connection_commands(self, rng):
        for k, (spec, hspec) in enumerate(CALCULI[:3]):
            group, hatg = self.resolve(spec, hspec)
            table = group.table
            args = ["--group", spec, "--hatg", hspec]
            self.solve_command(spec, hspec, left=k == 2)
            if k % 2 == 0:
                self._member_command(args, table, hatg, group, rng)
            c_gamma = oracles.c_coefficients(table, hatg)
            named = ("c", "transport", "sigma-inverse")[k]
            self.add(["connection", "named", *args, "--name", named],
                     _named_check(named, group, hatg, c_gamma))
            self.analyze_c_command(spec, hspec)
            self.add(
                ["connection", "analyze", *args, "--name", "sigma"],
                lambda p: p["curvature_zero"] is True and p["left_invariant"] is True,
            )
            # Connection documents: the C-connection and a seeded one.
            doc = self.write(f"c{k}.json", _connection_doc(group, hatg, c_gamma))
            self.add(["connection", "analyze", *args, "--connection", doc],
                     lambda p: p["torsion_free"] is True and p["left_invariant"] is True)
            gamma = {
                t: Fraction(rng.randint(-2, 2))
                for t in rng.sample(sorted(c_gamma) or [(hatg[0],) * 3], 2)
            }
            varying = k % 2 == 1
            if varying:
                t0 = next(iter(gamma))
                values = [rng.randint(1, 3) for _ in range(group.order)]
                values[1] = values[0] % 3 + 1  # never constant
                gamma[t0] = tuple(Fraction(v) for v in values)
            doc = self.write(f"gamma{k}.json", _connection_doc(group, hatg, gamma))
            const = {t: v for t, v in gamma.items() if not isinstance(v, tuple)}
            torsion_free = not varying and not oracles.torsion_free_residual(table, hatg, const)
            viol = oracles.extensibility_violations(
                table, hatg, [t for t, v in gamma.items() if v != 0]
            )
            self.add(
                ["connection", "analyze", *args, "--connection", doc],
                lambda p, tf=torsion_free, v=viol, lv=not varying: p["left_invariant"] is lv
                and (not lv or p["torsion_free"] is tf) and p["extensible"] == (not v),
            )
        family_spec = ("S3", "class:a")
        group, hatg = self.resolve(*family_spec)
        order = oracles.sigma_facts(group.table, hatg)["order"]
        lams = ",".join(str(rng.randint(-2, 2)) for _ in range(order))
        self.add(
            ["connection", "named", "--group", family_spec[0], "--hatg", family_spec[1],
             "--name", "family", f"--lambdas={lams}"],
            lambda p: p["schema"] == 1 and p["group"] == "S3",
        )

    def _member_command(self, args, table, hatg, group, rng):
        # The member's parameter count comes from the program; the member
        # it prints is then checked against the torsion equation.
        cal = calculus.from_hatG(group, hatg)
        dim = connection.solve_torsion_free(cal, mode="bi").dimension
        params = ",".join(str(rng.randint(-3, 3)) for _ in range(dim))

        def check(p):
            gamma = _gamma_from_doc(group, p["member"])
            return all(isinstance(v, Fraction) for v in gamma.values()) and not (
                oracles.torsion_free_residual(table, hatg, gamma)
            )

        self.add(["connection", "solve", *args, "--torsion-free", f"--params={params}"], check)

    def _metric_commands(self, rng):
        for k, (spec, hspec) in enumerate(
            [("S3", "class:ab"), ("Z4", "a,a3"), ("D4", "class:s"), ("Z6", "a,a5")]
        ):
            group, hatg = self.resolve(spec, hspec)
            n = group.order
            ps = oracles.pairs(hatg)
            constant = k % 2 == 0
            coeffs = {}
            for p in rng.sample(ps, max(2, len(ps) // 2)):
                vals = [Fraction(rng.randint(1, 3))] * n if constant else [
                    Fraction(rng.randint(-3, 3)) for _ in range(n)
                ]
                coeffs[p] = tuple(vals)
            path = self.write(f"metric{k}.json", _metric_doc(group, hatg, coeffs))
            const_all = all(oracles.is_const(c) for c in coeffs.values())
            sym = oracles.sigma_x_symmetric(group.table, hatg, coeffs)
            self.add(
                ["metric", "check", "--group", spec, "--hatg", hspec, "--metric", path],
                lambda p, c=const_all, s=sym: p["compatible"] is c
                and p["routes_agree"] is True and p["left_invariant"] is c
                and p["s_symmetric"] is s,
            )

    def _action_commands(self):
        for k, (size, gens, perms) in enumerate(ACTIONS):
            orbits = oracles.pair_orbit_count(perms, size)
            args = ["--set", str(size), "--group-generators", gens]
            self.add(["action", "orbits", *args], lambda p, o=orbits: len(p["orbits"]) == o)
            self.add(["action", "calculi", *args],
                     lambda p, o=orbits: p["count"] == 2 ** o == len(p["calculi"]))
            dot = self.path(f"action{k}.dot")
            self.add(["action", "calculi", *args, "--irreducible", "--dot", dot],
                     lambda p, o=orbits: p["count"] == o, (dot, None))

    # -- one pass ----------------------------------------------------------

    def argv(self, args):
        return [*self.prefix, *args, "--json"]

    def run(self, args):
        res = spawn(self.argv(args), self.workdir, self.env)
        if self.sink is not None:
            with open(self.trace_file, encoding="utf-8") as handle:
                self.sink.merge(json.load(handle))
        return res

    def ops(self):
        for args, check, written in self.commands:
            if written and os.path.exists(written[0]):
                os.remove(written[0])
            yield (
                " ".join(args[:2]),
                lambda a=args: self.run(a),
                lambda res, c=check, w=written: _check_result(res, c, w),
            )

    # -- tracing -------------------------------------------------------------

    def traced(self, tracer):
        """Run the commands under the tracer in each child; merge its totals."""
        self.prefix, self.sink = TRACED, tracer

    def untraced(self):
        self.prefix, self.sink = PLAIN, None

    def cli_layer(self):
        """(median start-up-only command, in-process time of the whole list)."""
        spawns = []
        for _ in range(SPAWN_SAMPLES):
            t0 = time.perf_counter()
            spawn(self.argv(["group", "info", "Z1"]), self.workdir, self.env)
            spawns.append(time.perf_counter() - t0)
        in_process = 0.0
        for args, _, _ in self.commands:
            t0 = time.perf_counter()
            result = cli.run([*args, "--json"])
            json.dumps(result.payload, sort_keys=True, indent=2)
            in_process += time.perf_counter() - t0
        return statistics.median(spawns), in_process


def _check_result(res, check, written):
    if res.returncode != 0:
        return False
    payload = json.loads(res.stdout)
    if payload.get("schema") != 1 or not check(payload):
        return False
    if written:
        path, order = written
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if not text.startswith("digraph"):
            return False
        if order is not None and text.count(";") < order:
            return False
    return True


def _group_check(order, ncls, abelian, center):
    return lambda p: (
        p["order"] == order and len(p["classes"]) == ncls
        and p["abelian"] is abelian and len(p["center"]) == center
    )


def _show_check(order, nhat):
    return lambda p: (
        len(p["edges"]) == order * nhat and p["bicovariant"] is True
        and p["left_covariant"] is True
    )


def _named_check(name, group, hatg, c_gamma):
    def check(p):
        if p["hatG"] != _names(group, hatg):
            return False
        gamma = _gamma_from_doc(group, p)
        if name == "c":
            return gamma == c_gamma
        if name == "transport":
            return gamma == {(g, g, gp): -1 for g in hatg for gp in hatg}
        return all(isinstance(v, Fraction) for v in gamma.values())

    return check


def _gamma_from_doc(group, doc):
    out = {}
    for key, value in doc["gamma"].items():
        t = tuple(group.names.index(x) for x in key.split("|"))
        out[t] = (
            tuple(Fraction(v) for v in value) if isinstance(value, list) else Fraction(value)
        )
    return out


def _connection_doc(group, hatg, gamma):
    def enc(v):
        return [str(x) for x in v] if isinstance(v, tuple) else str(v)

    return {
        "schema": 1,
        "group": group.label,
        "hatG": _names(group, hatg),
        "gamma": {"|".join(_names(group, t)): enc(v) for t, v in gamma.items()},
    }


def _metric_doc(group, hatg, coeffs):
    return {
        "schema": 1,
        "group": group.label,
        "hatG": _names(group, hatg),
        "coeffs": {
            "|".join(_names(group, p)): [str(x) for x in v] for p, v in coeffs.items()
        },
    }
