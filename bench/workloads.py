"""The benchmark's workloads.

Each workload has four steps:

* ``generate(seed, root)`` makes plain-data inputs (ints, strings, lists,
  dicts) from the seed.  The seed varies values only: every size that drives
  cost (orders, degrees, cell counts, job counts) is fixed.
* ``build(z, root, inputs)`` turns them into z2beta objects.  This is program
  work done before the first job (loading resolutions, building complexes),
  so it counts as set-up.
* ``run(z, spec, built)`` does one job through the public API and returns its
  output as plain data, canonical text where the library renders one.
* ``checker(z, inputs)`` returns ``check(spec, output)``, which judges a
  job's output by an independent route (``oracles``) and returns a bool.

``z`` is a namespace holding the z2beta modules.  ``set_up`` imports the
package afresh and runs the first two steps; nothing else here imports
z2beta.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

import oracles

DATA_RESOLUTION = "data/x2y4_resolution.json"
#: The z2beta modules a set-up imports, as ``z.<module>``.
MODULES = ("algebra", "arcs", "calculus", "cli", "complexes", "dsl",
           "homology", "verify", "zeta")


def import_z2beta():
    """Import z2beta afresh from the first ``src`` on sys.path."""
    for name in [n for n in sys.modules
                 if n == "z2beta" or n.startswith("z2beta.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"z2beta.{m}")
                              for m in MODULES})


def set_up(workload, seed, root):
    """Everything before the first job: import z2beta, read data, generate
    the inputs from the seed and build them; returns (z, inputs, built)."""
    z = import_z2beta()
    inputs = workload.generate(seed, root)
    return z, inputs, workload.build(z, root, inputs)


def _as_dict(coeffs):
    return {e: c for e, c in enumerate(coeffs) if c}


# ---------------------------------------------------------------------------
# zeta_series: closed forms, their T-expansions and the arc oracle

class ZetaSeries:
    """T-expansions of signed and naive zeta closed forms, the arc oracle,
    the sign identity and semantic equality.

    Why: the zeta layer's heavy case; cost grows faster than quadratically in
    the order and is dominated by normalising fractions with sparse u^-k and
    (u - 1)^j denominators.  The synthetic resolutions keep a fixed (N, nu)
    list, because random multiplicities made the cost vary many-fold from
    seed to seed; the seed draws covering classes, base classes and which
    strata intersect."""

    name = "zeta_series"
    ORDERS = (32, 64, 96)
    SIGNS = ("+", "-", "naive")
    COMPARE_ORDER = 48
    IDENTITY_ORDER = 24
    MONOMIALS = tuple(range(1, 9))
    SYNTHETIC_ORDER = 32
    # (N, nu) per divisor, number of intersecting pairs, nonnegative data
    SYNTHETIC = (
        (((2, 2), (3, 2), (4, 3)), 2, True),
        (((2, 3), (4, 5), (6, 7), (8, 9)), 3, True),
        (((2, 1), (3, 2), (5, 4)), 2, False),
    )

    def generate(self, seed, root):
        rng = random.Random(seed)
        with open(root / DATA_RESOLUTION, encoding="utf-8") as handle:
            resolutions = {"x2y4": json.load(handle)}
        jobs = [["expand", "x2y4", sign, order]
                for order in self.ORDERS for sign in self.SIGNS]
        for index, (divisors, pairs, nonnegative) in enumerate(self.SYNTHETIC):
            name = f"synthetic{index}"
            resolutions[name] = _synthetic_resolution(rng, divisors, pairs,
                                                      nonnegative)
            jobs += [["expand", name, sign, self.SYNTHETIC_ORDER]
                     for sign in self.SIGNS]
            if nonnegative:
                jobs.append(["zeta_equal", name])
        for N in self.MONOMIALS:
            jobs.append(["compare", N, self.COMPARE_ORDER])
            jobs.append(["sign_identity", N, self.IDENTITY_ORDER])
            jobs.append(["constraints", N, 12])
        return {"resolutions": resolutions, "jobs": jobs}

    def build(self, z, root, inputs):
        loaded = {"x2y4": z.zeta.load_resolution(root / DATA_RESOLUTION)}
        for name, data in inputs["resolutions"].items():
            if name != "x2y4":
                loaded[name] = z.zeta.load_resolution(data)
        return [loaded.get(spec[1]) if spec[0] in ("expand", "zeta_equal")
                else None for spec in inputs["jobs"]]

    def run(self, z, spec, built):
        kind = spec[0]
        if kind == "expand":
            form = (z.zeta.dl_zeta_naive(built) if spec[2] == "naive"
                    else z.zeta.dl_zeta_signed(built, spec[2]))
            return [str(c) for _, c in z.zeta.expand_zeta(form, spec[3])]
        if kind == "zeta_equal":
            u_minus_one = z.algebra.RationalU(z.algebra.IntPoly.u() - 1)
            signed = z.zeta.dl_zeta_signed(built, "+").scaled(u_minus_one)
            return z.zeta.zeta_equal(z.zeta.dl_zeta_naive(built), signed)
        if kind == "compare":
            report = z.arcs.compare_with_dl(z.arcs.MonomialGerm(spec[1]), spec[2])
            return [report.all_consistent,
                    [[e.n, e.kind, str(e.oracle), str(e.formula)]
                     for e in report.entries]]
        if kind == "sign_identity":
            report = z.zeta.check_sign_identity(
                z.zeta.monomial_resolution(spec[1]), order=spec[2])
            mismatch = report.first_mismatch
            return [report.passed, mismatch[0] if mismatch else None]
        germ = z.arcs.MonomialGerm(spec[1])
        rows = []
        for n in range(1, spec[2] + 1):
            report = z.arcs.symbolic_constraint_check(germ, n)
            rows.append([n, report.base_index, list(report.forced_zero)])
        return rows

    def checker(self, z, inputs):
        resolutions = inputs["resolutions"]

        def check(spec, output):
            kind = spec[0]
            if kind == "expand":
                return _check_expansion(resolutions[spec[1]], spec[2], spec[3],
                                        output)
            if kind == "zeta_equal":
                return output is True
            if kind == "compare":
                return _check_compare(spec[1], spec[2], output)
            if kind == "sign_identity":
                N = spec[1]
                # the identity holds exactly for the nonnegative germs x^N,
                # N even; for odd N it first fails at T^N
                return output == ([True, None] if N % 2 == 0 else [False, N])
            return _check_constraints(spec[1], spec[2], output)

        return check


def _synthetic_resolution(rng, divisors, pairs, nonnegative):
    ids = [f"E{i + 1}" for i in range(len(divisors))]
    all_pairs = [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:]]
    chosen = sorted(rng.sample(range(len(all_pairs)), pairs))
    strata = []
    for divisor_set in [[i] for i in ids] + [all_pairs[k] for k in chosen]:
        if len(divisor_set) == 1:
            base = oracles.render_poly({1: rng.randint(1, 3),
                                        0: rng.randint(0, 2)})
        else:
            base = str(rng.randint(1, 3))
        if nonnegative:
            plus = {"poly": base, "tail": 0}
            minus = {"poly": "0", "tail": 0}
        else:
            plus = {"poly": oracles.render_poly({1: rng.randint(0, 2),
                                                 0: rng.randint(1, 2)}),
                    "tail": rng.randint(0, 2)}
            minus = {"poly": str(rng.randint(0, 2)), "tail": rng.randint(1, 2)}
        strata.append({"I": divisor_set, "base": base, "cov_plus": plus,
                       "cov_minus": minus})
    return {"ambient_dim": 2,
            "divisors": [{"id": i, "N": N, "nu": nu}
                         for i, (N, nu) in zip(ids, divisors)],
            "strata": strata}


def _check_expansion(resolution, sign, order, output):
    if len(output) != order:
        return False
    for t in (3, 7):
        want = oracles.zeta_series_at(resolution, sign, order, t)
        for text, value in zip(output, want):
            if oracles.text_at(text, t) != value:
                return False
    return True


def _check_compare(N, order, output):
    consistent, rows = output
    if consistent is not True or len(rows) != 3 * order:
        return False
    if sorted((n, kind) for n, kind, _, _ in rows) != sorted(
            (n, kind) for kind in ("+", "-", "naive")
            for n in range(1, order + 1)):
        return False
    for n, kind, oracle_text, formula_text in rows:
        def closed_form(t, n=n, kind=kind):
            return oracles.monomial_coefficient_at(N, n, kind, t)
        if closed_form(3) is None:
            continue  # the known divergence: judged by all_consistent only
        if not (oracles.agree_at_points(oracle_text, closed_form)
                and oracles.agree_at_points(formula_text, closed_form)):
            return False
    return True


def _check_constraints(N, top, output):
    # order-n arcs force a_j = 0 for every j with jN < n; a_m^N = +-1 is
    # the base equation when n = mN, and there is none otherwise
    want = []
    for n in range(1, top + 1):
        divides = n % N == 0
        forced = list(range(1, (n - 1) // N + 1))
        want.append([n, n // N if divides else None, forced])
    return output == want


# ---------------------------------------------------------------------------
# homology_ladder: F2 ranks and chain data

class HomologyLadder:
    """Antipodal spheres and product towers.

    Why: the F2 rank and chain-data layer with the algebra layer almost
    idle.  Every per-degree call rebuilds and revalidates the chain data, and
    homology and cohomology are called side by side, so merging their
    builders cannot speed one up while the other slows down unseen.  The
    seed relabels cells, which permutes every basis and so every matrix."""

    name = "homology_ladder"
    SPHERES = (32, 64, 128)
    TOWER_LEVELS = (5, 6, 7)  # 256, 512, 1024 cells

    def generate(self, seed, root):
        rng = random.Random(seed)
        names = set()

        def fresh():
            while True:
                label = f"c{rng.getrandbits(40):010x}"
                if label not in names:
                    names.add(label)
                    return label

        def antipodal(d):
            cells, boundary, sigma = [], {}, {}
            below = None
            for q in range(d + 1):
                plus, minus = fresh(), fresh()
                cells += [[plus, q], [minus, q]]
                sigma[plus], sigma[minus] = minus, plus
                if below:
                    boundary[plus] = boundary[minus] = below
                below = [plus, minus]
            return {"cells": cells, "boundary": boundary, "sigma": sigma}

        vertex, edge = fresh(), fresh()
        circle = {"cells": [[vertex, 0], [edge, 1]], "boundary": {},
                  "sigma": {}}
        spheres = {str(d): antipodal(d) for d in self.SPHERES}
        jobs = []
        for d in self.SPHERES:
            jobs.append(["sphere_table", d])
            jobs += [["sphere_duality", d, n] for n in range(-2, d + 2)]
        for k in self.TOWER_LEVELS:
            jobs.append(["tower_series", k])
            jobs += [["tower_degree", k, n] for n in range(-2, 3 + k + 2)]
        return {"spheres": spheres, "s3": antipodal(3), "circle": circle,
                "jobs": jobs}

    def build(self, z, root, inputs):
        h = z.homology

        def complex_of(data):
            return h.GCWComplex([tuple(c) for c in data["cells"]],
                                data["boundary"], data["sigma"],
                                fixed_is_geometric=True)

        spheres = {int(d): complex_of(data)
                   for d, data in inputs["spheres"].items()}
        circle = complex_of(inputs["circle"])
        towers = {}
        tower = complex_of(inputs["s3"])
        for k in range(1, max(self.TOWER_LEVELS) + 1):
            tower = h.product_with_trivial(tower, circle)
            if k in self.TOWER_LEVELS:
                towers[k] = tower
        return [spheres[spec[1]] if spec[0].startswith("sphere")
                else towers[spec[1]] for spec in inputs["jobs"]]

    def run(self, z, spec, built):
        h = z.homology
        kind = spec[0]
        if kind == "sphere_table":
            table = h.homology_table(built, -5, spec[1] + 1)
            return [[[n, dim] for n, dim in sorted(table.group_dims.items())],
                    table.stable_negative_dim]
        if kind == "sphere_duality":
            d, n = spec[1], spec[2]
            return [h.equivariant_cohomology(built, n),
                    h.equivariant_homology(built, d - n)]
        if kind == "tower_series":
            return str(h.equivariant_betti_series(built))
        n = spec[2]
        return [h.equivariant_homology(built, n), h.plain_homology(built, n)]

    def checker(self, z, inputs):
        return self._check

    @staticmethod
    def _check(spec, output):
        kind = spec[0]
        if kind == "sphere_table":
            d = spec[1]
            return output == [
                [[n, oracles.antipodal_sphere_dim(d, n)]
                 for n in range(-5, d + 2)], 0]
        if kind == "sphere_duality":
            d, n = spec[1], spec[2]
            want = oracles.antipodal_sphere_dim(d, n)
            return output == [want, want]
        k = spec[1]
        if kind == "tower_series":
            def series(t):
                return sum(oracles.tower_equivariant_dim(k, n) * Fraction(t) ** n
                           for n in range(0, 3 + k + 1))
            return oracles.agree_at_points(output, series)
        n = spec[2]
        return output == [oracles.tower_equivariant_dim(k, n),
                          oracles.tower_plain_dim(k, n)]


# ---------------------------------------------------------------------------
# cli_session: short interactive calls of the command line front end

class CliSession:
    """About 150 in-process ``cli.main(argv)`` calls with captured output.

    Why: the only workload through the expression language and the command
    line, on many tiny values where per-call overhead outweighs asymptotic
    cost; a change that helps large inputs but adds per-call cost shows
    here."""

    name = "cli_session"
    EVALS = 100
    EXPAND_DEPTHS = (5, 10, 20, 40)
    HOMOLOGY = (
        ("s1_antipodal.json", None, False), ("s1_antipodal.json", None, True),
        ("s1_antipodal.json", "-4..3", False),
        ("s1_antipodal.json", "-6..4", True),
        ("s2_trivial.json", None, False), ("s2_trivial.json", None, True),
        ("s2_trivial.json", "-4..3", False), ("s2_trivial.json", "-6..4", True),
    ) * 2
    ZETA = tuple((sign, depth) for sign in ("+", "-", "naive")
                 for depth in (None, 4, 8, 16, 24)) + (("+", 32),)
    ORACLE = tuple((N, 12 + 2 * N) for N in range(1, 9)) \
        + tuple((N, 24) for N in range(1, 9))
    COMPARE = ((2, 12), (3, 16), (4, 24), (5, 12))

    def generate(self, seed, root):
        rng = random.Random(seed)
        jobs = []
        for i in range(self.EVALS):
            tree = _expression(rng, i % 8)
            depth = None
            if i % 3 == 0 and tree[0] != "quotient":
                depth = self.EXPAND_DEPTHS[(i // 3) % len(self.EXPAND_DEPTHS)]
            argv = ["eval", _dsl_text(tree)]
            if depth is not None:
                argv += ["--expand", str(depth)]
            jobs.append({"argv": argv, "tree": tree, "depth": depth})
        for name, span, series in self.HOMOLOGY:
            argv = ["homology", f"data/{name}"]
            if span:
                argv.append(f"--range={span}")
            if series:
                argv.append("--series")
            jobs.append({"argv": argv})
        for sign, depth in self.ZETA:
            argv = ["zeta", DATA_RESOLUTION, "--sign", sign]
            if depth is not None:
                argv += ["--expand", str(depth)]
            jobs.append({"argv": argv})
        for N, order in self.ORACLE:
            jobs.append({"argv": ["oracle", str(N), "--sign",
                                  rng.choice("+-"), "--order", str(order)]})
        for N, order in self.COMPARE:
            jobs.append({"argv": ["oracle", str(N), "--order", str(order),
                                  "--compare-dl"]})
        jobs.append({"argv": ["verify", "--suite", "paper"]})
        rng.shuffle(jobs)
        with open(root / DATA_RESOLUTION, encoding="utf-8") as handle:
            resolution = json.load(handle)
        return {"resolution": resolution, "jobs": jobs}

    def build(self, z, root, inputs):
        # file arguments resolve against the checkout, whatever the cwd
        return [[str(root / a) if a.startswith("data/") else a
                 for a in spec["argv"]] for spec in inputs["jobs"]]

    def run(self, z, spec, built):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = z.cli.main(built)
        return [code, out.getvalue()]

    def checker(self, z, inputs):
        resolution = inputs["resolution"]

        def check(spec, output):
            code, text = output
            if code != 0:
                return False
            verb = spec["argv"][0]
            if verb == "eval":
                return _check_eval(z, spec, text)
            if verb == "homology":
                return _check_homology_text(spec["argv"], text)
            if verb == "zeta":
                return _check_zeta_text(resolution, spec["argv"], text)
            if verb == "oracle":
                return _check_oracle_text(spec["argv"], text)
            results = _lines(text)
            return (all(line.startswith("[PASS] ") for line in results[:-1])
                    and results[-1] == f"{len(results) - 1} checks, 0 failed")

        return check


_LEAVES = ("point", "pair", "sphere", "affine", "curve", "lift")
_SPHERE_ACTIONS = {"free": "free", "fixed": "with_fixed_point",
                   "trivial": "trivial"}
_CURVES = ("both_negated", "y_negated", "x_negated")


def _leaf(rng):
    kind = rng.choice(_LEAVES)
    if kind == "sphere":
        return ["sphere", rng.randint(1, 4), rng.choice(sorted(_SPHERE_ACTIONS))]
    if kind == "affine":
        return ["affine", rng.randint(0, 4)]
    if kind == "curve":
        return ["curve", rng.choice(_CURVES)]
    if kind == "lift":
        return ["lift", [rng.randint(1, 3)] + [rng.randint(0, 3)
                                                for _ in range(2)]]
    return [kind]


def _free(rng):
    """A class with a free action, so ``quotient`` accepts it."""
    sphere = ["sphere", rng.randint(1, 4), "free"]
    return rng.choice([["pair"], sphere, ["union", ["pair"], sphere],
                       ["affprod", ["pair"], rng.randint(1, 3)]])


def _expression(rng, template):
    if template == 0:
        return _leaf(rng)
    if template == 1:
        return ["union", _leaf(rng), _leaf(rng)]
    if template == 2:
        return ["diff", _leaf(rng), _leaf(rng)]
    if template == 3:
        return ["affprod", _leaf(rng), rng.randint(1, 5)]
    if template == 4:
        return ["blowup", _leaf(rng), _leaf(rng), _leaf(rng)]
    if template == 5:
        return ["union", ["diff", _leaf(rng), _leaf(rng)],
                ["affprod", _leaf(rng), rng.randint(1, 5)]]
    if template == 6:
        return ["quotient", _free(rng)]
    return ["diff", ["union", _leaf(rng), _leaf(rng)], _leaf(rng)]


def _dsl_text(tree):
    head, args = tree[0], tree[1:]
    if head == "lift":
        return f"lift({oracles.render_poly(_as_dict(args[0]))})"
    parts = [_dsl_text(a) if isinstance(a, list) else str(a) for a in args]
    return f"{head}({', '.join(parts)})"


def _library_value(z, tree):
    """The value of an expression tree by direct calculus calls."""
    c = z.calculus
    head, args = tree[0], tree[1:]
    if head == "point":
        return c.atom_class(c.Atom.point())
    if head == "pair":
        return c.atom_class(c.Atom.pair())
    if head == "sphere":
        return c.atom_class(c.Atom.sphere(args[0], _SPHERE_ACTIONS[args[1]]))
    if head == "affine":
        return c.atom_class(c.Atom.affine(args[0]))
    if head == "curve":
        return c.curve_example(args[0])
    if head == "lift":
        return c.trivial_lift(z.algebra.IntPoly(_as_dict(args[0])))
    if head == "affprod":
        return c.affine_product(_library_value(z, args[0]), args[1])
    if head == "quotient":
        return c.free_quotient(_library_value(z, args[0]), asserted_free=True)
    values = [_library_value(z, a) for a in args]
    if head == "union":
        return c.union_disjoint(*values)
    if head == "diff":
        return c.difference(*values)
    return c.blowup_class(*values)


def _check_eval(z, spec, text):
    expected = _library_value(z, spec["tree"])
    depth = spec["depth"]
    if depth is None:
        canonical = str(expected.value) if hasattr(expected, "value") \
            else str(expected)
        return text.split("\n")[0] == canonical
    value = expected.value
    num = dict(value.numerator.coefficients)
    den = dict(value.denominator.coefficients)
    top = max(num) - max(den) if num else 0
    _, want = oracles.laurent_window(num, den, max(1, top + depth + 1))
    terms, tail = oracles.parse_window(text)
    expect = {top - k: int(c) for k, c in enumerate(want) if c}
    return terms == expect and tail == expected.fixed_tail


def _lines(text):
    return [line for line in text.split("\n") if line]


def _check_homology_text(argv, text):
    name = argv[1]
    span = next((a.split("=", 1)[1] for a in argv if a.startswith("--range=")),
                None)
    free = "antipodal" in name
    top = 1 if free else 2
    low, high = (int(x) for x in span.split("..")) if span else (-5, top + 1)

    def dim(n):
        if free:
            return 1 if 0 <= n <= 1 else 0
        return 2 if n <= 0 else (1 if n <= 2 else 0)

    want = [f"H_{n} : {dim(n)}" for n in range(high, low - 1, -1)]
    if low <= -2:
        want.append(f"below : {dim(low)}")
    lines = _lines(text)
    if "--series" not in argv:
        return lines == want
    if lines[:len(want)] != want or not lines[len(want)].startswith("series: "):
        return False
    series = lines[len(want)][len("series: "):]

    def value(t):
        t = Fraction(t)
        if free:
            return 1 + t
        return t + t * t + 2 * t / (t - 1)

    return oracles.agree_at_points(series, value)


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_zeta_text(resolution, argv, text):
    sign = _option(argv, "--sign", "+")
    depth = int(_option(argv, "--expand", 0))
    lines = _lines(text)
    form = lines[0]
    for t, s in ((3, Fraction(1, 2)), (7, Fraction(1, 3))):
        if oracles.closed_form_text_at(form, t, s) \
                != oracles.closed_form_at(resolution, sign, t, s):
            return False
    if len(lines) != 1 + depth:
        return False
    for t in (3, 7):
        want = oracles.zeta_series_at(resolution, sign, depth, t)
        for n, (line, value) in enumerate(zip(lines[1:], want), start=1):
            label, _, coeff = line.partition(" : ")
            if label != f"T^{n}" or oracles.text_at(coeff, t) != value:
                return False
    return True


_COMPARE_ROW = re.compile(
    r"T\^(\d+) \[(.+)\] oracle: (.+) \| formula: (.+) \| \w+")


def _check_oracle_text(argv, text):
    N = int(argv[1])
    order = int(_option(argv, "--order"))
    lines = _lines(text)
    if "--compare-dl" in argv:
        # exit status 0 is all_consistent; divergent rows are not pinned
        matches = [_COMPARE_ROW.fullmatch(line) for line in lines]
        if None in matches:
            return False
        rows = [[int(m[1]), m[2], m[3], m[4]] for m in matches]
        return _check_compare(N, order, [True, rows])
    if len(lines) != order:
        return False
    sign = _option(argv, "--sign", "+")
    for n, line in enumerate(lines, start=1):
        label, _, coeff = line.partition(" : ")
        if label != f"T^{n}":
            return False
        if oracles.monomial_coefficient_at(N, n, sign, 3) is None:
            continue  # the known divergence is not pinned
        if not oracles.agree_at_points(
                coeff, lambda t: oracles.monomial_coefficient_at(N, n, sign, t)):
            return False
    return True


WORKLOADS = {w.name: w for w in (ZetaSeries(), HomologyLadder(), CliSession())}
