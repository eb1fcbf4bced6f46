"""Command-line verification harness.

Subcommands: verify, classify, gram, map-irreps, spectrum.  Exit codes:
0 all checks pass, 1 a mathematical check failed (counterexample in the
payload), 2 usage or configuration error, including a context too small
for the request.  All output is deterministic; there is no randomness
anywhere (--seed-free is accepted and is a no-op, recording that fact).
"""

from __future__ import annotations

import re
import sys
from itertools import combinations_with_replacement
from types import SimpleNamespace

from . import algebra, fock, linalg, young
from .algebra import (
    ImageTable,
    MonomialIndex,
    Xstar,
    apply_generator,
    canonical_hamiltonian,
    commutator_scan,
    dagger_label,
    fill_for,
    generating_set_suffices,
    generator_images,
    generators,
    lie_generating_set,
    verify_structure_constants,
)
from .fock import (
    COMPLEX,
    REAL,
    ContextViolation,
    FockContext,
    TruncationError,
    gram_matrix,
    monomial_self_overlap,
    monomial_str,
    vacuum,
)
from .serialize import dumps, jsonable, parse_rational
from .young import YoungDiagram, complex_sector, real_sector

DEFAULT_LIMITS = {"N": 4, "M": 4, "P": 6}


class UsageError(Exception):
    pass


def _context(args) -> FockContext:
    if args.N < 0 or args.M < 1 or args.P < 0:
        raise UsageError("require N >= 0, M >= 1, P >= 0")
    if not args.unsafe_large:
        for name in ("N", "M", "P"):
            if getattr(args, name) > DEFAULT_LIMITS[name]:
                raise UsageError(
                    f"{name} = {getattr(args, name)} exceeds the guard {DEFAULT_LIMITS[name]}; "
                    "pass --unsafe-large to override"
                )
    return FockContext(args.kind, args.N, args.M, args.P).validate()


def _parse_rows(text: str) -> YoungDiagram:
    text = text.strip()
    if not text:
        return YoungDiagram(())
    try:
        return YoungDiagram(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad diagram {text!r}: {exc}") from exc


def _emit(args, payload) -> None:
    if args.format == "json":
        print(dumps(payload))
    else:
        _print_table(payload)


def _print_table(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_table(v, indent + 1)
            else:
                print(f"{pad}{k}: {jsonable(v)}")
    elif isinstance(payload, list):
        for item in payload:
            _print_table(item, indent)
            if isinstance(item, dict):
                print(f"{pad}-")
    else:
        print(f"{pad}{jsonable(payload)}")


# ---------------------------------------------------------------------------
# verify
#
# The checks build their tables and vectors from the operators' builders,
# each a fock.Operator read off its module at call time
# (fock.creation_terms, algebra.generator_terms, algebra.charge_terms,
# young.gauge_terms, ...): apply_generator and the ladders call the same
# names, so a replaced builder reaches a table and the vector-level action
# alike.


def _commutator_report(index, margin, left, right, identities) -> dict:
    """``algebra.commutator_scan`` of the identities (label, a, b, c), a
    label a dict, on the monomials ``margin`` particles below P of
    ``index``: the first five failures, each with its first failing monomial."""
    failures, _ = commutator_scan(left, right, identities, index.basis(margin), 5)
    return {"ok": not failures,
            "failures": [dict(label, monomial=monomial_str(m)) for label, (m, _, _) in failures]}


def _check_ccr(ctx, margin=2) -> dict:
    """[a(s), a*(t)] = delta_st on the ladder tables of every slot pair, on
    an index of their own."""
    slots = ctx.slots()
    index = MonomialIndex(ctx)
    down = {s: ImageTable(index, fock.annihilation_terms(ctx, s)) for s in slots}
    up = {s: ImageTable(index, fock.creation_terms(ctx, s)) for s in slots}
    return _commutator_report(index, margin, down.values(), up.values(), (
        ({"slots": [str(s), str(t)]}, down[s], up[t], ((), 1) if s == t else None)
        for s in slots for t in slots))


def _check_adjointness(ctx, images, margin=2) -> dict:
    """<g m, n> = <m, g† n> for all basis monomials m, n.  The metric
    w(m) = <m|m> is diagonal, so this reads G[n,m] w(n) = G†[m,n] w(m) off
    the generator tables ``images`` of g and g†; a pair where both sides
    vanish passes.  A scalar part adds the same c w(m) to both sides, so
    the tables leave it out."""
    index = next(iter(images.values())).index
    basis = index.basis(margin)
    fill_for(images.values(), (), basis)
    weight = {m: monomial_self_overlap(index.monomials[m]) for m in basis}
    failures, verdicts = [], {}
    for g in generators(ctx):
        tables = images[g], images[dagger_label(g)]
        # the verdict reads only the two tables, and labels of equal
        # operators share one, so each pair of tables is decided once
        pair = frozenset(map(id, tables))
        if pair not in verdicts:
            verdicts[pair] = (_adjoint_mismatch(*tables, basis, weight) or (
                len(pair) == 2 and _adjoint_mismatch(*tables[::-1], basis, weight)))
        if verdicts[pair]:
            failures.append({"generator": str(g)})
            if len(failures) == 5:
                break
    return {"ok": not failures, "failures": failures}


def _adjoint_mismatch(table_g, table_h, basis, weight) -> bool:
    """Whether G[n,m] w(n) != G†[m,n] w(m) for some basis monomials m, n,
    with G read off ``table_g`` and G† off ``table_h``."""
    return any(c * weight[n] != table_h[n].get(m, 0) * weight[m]
               for m in basis for n, c in table_g[m].items() if n in weight)


def _check_vacuum_cartan(ctx) -> dict:
    """The E generators, the charge and the canonical Hamiltonian on the
    vacuum, by vector-level action, N/2 shift included."""
    vac = vacuum(ctx)
    failures = []
    half_n = linalg.quotient(ctx.N, 2)
    e_kinds = ctx.kind.e_kinds
    for g in generators(ctx):
        if g.kind in e_kinds:
            img = apply_generator(ctx, g, vac)
            want = vac * (half_n if g.i == g.j else 0)
            if img != want:
                failures.append({"generator": str(g), "got": repr(img), "expected": repr(want)})
    if ctx.field_kind == COMPLEX and not algebra.charge_terms(ctx).apply(vac).is_zero():
        failures.append({"charge_on_vacuum": "nonzero"})
    if not algebra.hamiltonian_terms(ctx, canonical_hamiltonian(ctx)).apply(vac).is_zero():
        failures.append({"canonical_energy_on_vacuum": "nonzero"})
    return {"ok": not failures, "failures": failures}


def _commutant_report(ctx, images, margin, labels, fixed) -> dict:
    """[F, g] = 0 for each (label, Operator F) in ``fixed`` and generator g
    in ``labels`` (default: all), on a table per F on the index of the
    generator tables ``images`` (a scalar part commutes)."""
    labels = list(generators(ctx)) if labels is None else labels
    index = next(iter(images.values())).index
    tables = [(label, ImageTable(index, op)) for label, op in fixed]
    return _commutator_report(index, margin, [t for _, t in tables], [images[g] for g in labels], (
        (dict(label, generator=str(g)), table, images[g], None) for label, table in tables for g in labels))


def _check_charge_commutes(ctx, images, margin=2, labels=None) -> dict:
    """[Q, g] = 0 for every generator g in ``labels`` (default: all)."""
    if ctx.field_kind != COMPLEX:
        return {"ok": True, "skipped": "no charge operator in the real case"}
    return _commutant_report(ctx, images, margin, labels, [({}, algebra.charge_terms(ctx))])


def _check_gauge_commutant(ctx, images, margin=2, labels=None) -> dict:
    """[E^{pq}, g] = 0 for every generator g in ``labels`` (default: all)
    and gauge basis element: all E^{pq} of u(N) (complex), the M^{pq},
    p < q, of o(N) (real; M^{pp} = 0 and M^{qp} = -M^{pq})."""
    flavors = range(1, ctx.N + 1)
    return _commutant_report(ctx, images, margin, labels, [
        ({"gauge": [p, q]}, young.gauge_terms(ctx, p, q))
        for p in flavors for q in flavors if p < q or ctx.field_kind == COMPLEX])


def cmd_verify(args) -> int:
    ctx = _context(args)
    if not 2 <= args.margin <= ctx.P:
        raise UsageError(f"margin must lie in 2..P = {ctx.P}")
    # One set of generator tables for every check.  drop-e-shift changes
    # only the scalars, which only structure constants reads.  Structure
    # constants runs after the first charge and gauge scans, whose tables
    # are freed before it fills the generator tables past P - margin
    # particles.  The payload sorts its keys.
    images = generator_images(ctx, shift=args.inject_fault != "drop-e-shift")
    # The operators that commute with a fixed one form a Lie algebra
    # (Jacobi), so where the generating set suffices (P - margin >= 2, and
    # real tables respect X(i,j) = X(j,i)) the charge and gauge checks scan
    # the bilocal side on a Lie generating set.  Such a report stands only
    # when it passed and structure constants passed, which proves the
    # realization a Lie homomorphism; otherwise the check scans every
    # generator, so every payload is the full scan's.
    reduced = lie_generating_set(ctx) if generating_set_suffices(ctx, images, args.margin) else None
    commutants = {"charge_commutes": _check_charge_commutes, "gauge_commutant": _check_gauge_commutant}
    checks = {
        "ccr": _check_ccr(ctx, args.margin),
        "adjointness": _check_adjointness(ctx, images, args.margin),
        "vacuum_cartan": _check_vacuum_cartan(ctx),
        **{name: check(ctx, images, args.margin, reduced) for name, check in commutants.items()},
        "structure_constants": verify_structure_constants(ctx, images, args.margin),
    }
    for name, check in commutants.items():
        if reduced and not (checks[name]["ok"] and checks["structure_constants"]["ok"]):
            checks[name] = check(ctx, images, args.margin)
    ok = all(c.get("ok") for c in checks.values())
    payload = {"context": {"kind": ctx.field_kind, "N": ctx.N, "M": ctx.M, "P": ctx.P},
               "ok": ok, "checks": checks}
    _emit(args, payload)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    from . import modes, sectors

    ctx = _context(args)
    try:
        cutoff = parse_rational(args.cutoff)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad cutoff {args.cutoff!r}: {exc}") from exc
    try:
        spec = modes.appendix_spectrum(ctx, args.D) if args.D else None
    except modes.ModeError as exc:
        raise UsageError(str(exc)) from exc
    results = sectors.classify_spectrum(ctx, cutoff, spec)
    rows, failures = [], []
    ok = True
    for entry in results:
        s = entry["sector"]
        w = entry["weight"]
        row = {
            "tail": w.tail,
            "multiplicity": entry["multiplicity"],
            "energy": entry["energy"],
            "in_bound": s is not None,
        }
        if ctx.field_kind == COMPLEX:
            row["weight_head_plus"] = list(w.head_plus)
            row["weight_head_minus"] = list(w.head_minus)
        else:
            row["weight_head"] = list(w.head_plus)
        if s is None:
            ok = False
        else:
            row.update(young.sector_to_json(s))
            if ctx.field_kind == COMPLEX:
                irr = young.sector_to_irrep_U(s)
                row["gauge_irrep"] = irr.to_json()
                row["gauge_dimension"] = young.weyl_dimension_U(irr, ctx.N)
                # the duality: the sector's multiplicity is its irrep's dimension
                if row["multiplicity"] != row["gauge_dimension"]:
                    failures.append({"row": len(rows), "sector": young.sector_to_json(s),
                                     "multiplicity": row["multiplicity"],
                                     "gauge_dimension": row["gauge_dimension"]})
            else:
                row["gauge_irrep"] = young.sector_to_irrep_O(s.y, ctx.N).canonical.to_json()
        rows.append(row)
    payload = {"ok": ok and not failures, "cutoff": cutoff, "sectors": rows, "count": len(rows)}
    if failures:
        payload["failures"] = failures
    _emit(args, payload)
    return 0 if payload["ok"] else 1


# ---------------------------------------------------------------------------
# gram


def cmd_gram(args) -> int:
    from . import sectors

    ctx = _context(args)
    if args.level < 0:
        raise UsageError("level must be >= 0")
    if ctx.field_kind == COMPLEX:
        s, foreign = complex_sector(_parse_rows(args.yplus), _parse_rows(args.yminus), ctx.N), ("y",)
    else:
        s, foreign = real_sector(_parse_rows(args.y), ctx.N), ("yplus", "yminus")
    for flag in foreign:
        if getattr(args, flag).strip():
            raise UsageError(f"--{flag} does not apply to a {ctx.field_kind} sector")
    violation = s.bound_violation()
    if violation:
        _emit(args, {"ok": False, "error": f"sector out of bound: {violation}"})
        return 1
    if s.total_boxes() + 2 * args.level > ctx.P:
        raise UsageError(f"level {args.level} over {s} needs P >= {s.total_boxes() + 2 * args.level}")
    ground = sectors.build_ground_state(ctx, s)
    words = list(
        combinations_with_replacement(
            [(i, j) for i in range(1, ctx.M + 1) for j in range(1, ctx.M + 1)], args.level
        )
    )
    vectors = []
    for word in words:
        v = ground
        for i, j in word:
            v = apply_generator(ctx, Xstar(i, j), v)
        vectors.append(v)
    matrix = gram_matrix(vectors)
    minors = linalg.leading_principal_minors(matrix)
    psd = linalg.positive_semidefinite(matrix)
    payload = {
        "ok": psd,
        "sector": young.sector_to_json(s),
        "level": args.level,
        "basis": [str(list(w)) for w in words],
        "gram": matrix,
        "leading_principal_minors": minors,
        "positive_semidefinite": psd,
    }
    _emit(args, payload)
    return 0 if psd else 1


# ---------------------------------------------------------------------------
# map-irreps and spectrum


def cmd_map_irreps(args) -> int:
    if args.N < 0:
        raise UsageError("N must be >= 0")
    if args.cap < 0:
        raise UsageError("cap must be >= 0")
    report = young.bijection_roundtrip_check(args.group, args.N, args.cap)
    payload = {
        "ok": report["ok"],
        "group": args.group,
        "N": args.N,
        "cap": args.cap,
        "entries": report["entries"],
        "failures": report["failures"],
    }
    _emit(args, payload)
    return 0 if report["ok"] else 1


def cmd_spectrum(args) -> int:
    from . import modes

    if args.count < 0:
        raise UsageError("count must be >= 0")
    try:
        rows = modes.spectrum_table(args.D, args.count)
    except modes.ModeError as exc:
        raise UsageError(str(exc)) from exc
    _emit(args, {"D": args.D, "count": args.count, "levels": rows})
    return 0


# ---------------------------------------------------------------------------
# options
#
# COMMANDS declares each subcommand: its help, its options and the name of
# its cmd_* function.  The function is looked up in this module's globals
# when an argv is parsed, so a cmd_* replaced on the module is the one that
# runs.  Parser reads an argv as argparse read the same declarations
# (tests/test_cli.py keeps that argparse parser and compares the two):
# --flag value and --flag=value, a unique prefix of a flag, the last of a
# repeated flag, values such as -1, and -h/--help at the top level or after
# a command, which prints help to stdout and exits 0.  Any other malformed
# argv prints a usage line and an error to stderr and exits 2.


class Option(linalg.Record):
    """One option: its flag, the converter of its value (``int`` or
    ``str``; None makes a switch, which takes no value and is True when
    given), its default and choices, whether it is required, and its help."""

    def __init__(self, flag, convert=str, default=None, choices=(), required=False, help=""):
        self._set(flag=flag, convert=convert, default=default, choices=choices, required=required,
                  help=help)

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    def usage(self) -> str:
        if self.convert is None:
            return self.flag
        metavar = "{" + ",".join(self.choices) + "}" if self.choices else self.dest.upper()
        return f"{self.flag} {metavar}"

    def describe(self) -> str:
        if self.required:
            return f"{self.help} (required)".lstrip()
        if self.convert is None:
            return self.help
        return f"{self.help} (default: {self.default!r})".lstrip()

    def read(self, text: str, command: str):
        """The value ``text`` gives this option in ``command``."""
        try:
            value = self.convert(text)
        except ValueError:
            _fail(command, f"argument {self.flag}: invalid {self.convert.__name__} value: {text!r}")
        if self.choices and value not in self.choices:
            _fail(command, f"argument {self.flag}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, self.choices))})")
        return value


class Command(linalg.Record):
    """A subcommand: its help, the name of its cmd_* function and its
    options."""

    def __init__(self, help, func, options):
        self._set(help=help, func=func, options=options)


HELP = Option("--help", None, help="show this help message and exit")
COMMON_OPTIONS = (
    Option("--format", default="json", choices=("json", "table")),
    Option("--seed-free", None, False,
           help="accepted for interface stability; computations are always deterministic"),
)
CONTEXT_OPTIONS = (
    Option("--kind", default=COMPLEX, choices=(COMPLEX, REAL)),
    Option("--N", int, required=True),
    Option("--M", int, 2),
    Option("--P", int, 4),
    Option("--unsafe-large", None, False, help="lift the default N/M/P guards"),
)

COMMANDS = {
    "verify": Command(
        "run the algebraic invariant suite", "cmd_verify",
        COMMON_OPTIONS + CONTEXT_OPTIONS + (
            Option("--margin", int, 2),
            Option("--inject-fault", default="none", choices=("none", "drop-e-shift"),
                   help="negative control: drop the N/2 shift of the E generators and expect failure"),
        )),
    "classify": Command(
        "enumerate sectors below an energy cutoff", "cmd_classify",
        COMMON_OPTIONS + CONTEXT_OPTIONS + (
            Option("--cutoff", required=True, help="energy cutoff, integer or p/q"),
            Option("--D", int, 0, help="use the conformal mode energies for this spacetime dimension"),
        )),
    "gram": Command(
        "Gram matrix of level-raised vectors over a ground state", "cmd_gram",
        COMMON_OPTIONS + CONTEXT_OPTIONS + (
            Option("--level", int, 1),
            Option("--yplus", default="", help="comma-separated row lengths, e.g. 2,1"),
            Option("--yminus", default=""),
            Option("--y", default="", help="diagram for real sectors"),
        )),
    "map-irreps": Command(
        "sector <-> gauge irrep dictionary", "cmd_map_irreps",
        COMMON_OPTIONS + (
            Option("--group", choices=("U", "O"), required=True),
            Option("--N", int, required=True),
            Option("--cap", int, 3),
        )),
    "spectrum": Command(
        "conformal one-particle spectrum table", "cmd_spectrum",
        COMMON_OPTIONS + (
            Option("--D", int, required=True),
            Option("--count", int, required=True),
        )),
}

DESCRIPTION = "Exact verification harness for bilocal field algebras on truncated Fock spaces."

# a token starting with "-" that is a value all the same
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _prog(command) -> str:
    return "bilocal" if command is None else f"bilocal {command}"


def _usage(command) -> str:
    if command is None:
        return f"usage: bilocal [-h] {{{','.join(COMMANDS)}}} ..."
    options = (o.usage() if o.required else f"[{o.usage()}]" for o in COMMANDS[command].options)
    return " ".join((f"usage: {_prog(command)} [-h]", *options))


def _help(command) -> str:
    """The help of the top level (command None) or of ``command``."""
    if command is None:
        title, heading, tail = DESCRIPTION, "commands:", [
            "", f"Run '{_prog(None)} COMMAND --help' for the options of a command."]
        rows = [(name, c.help) for name, c in COMMANDS.items()]
    else:
        title, heading, tail = COMMANDS[command].help, "options:", []
        rows = [("-h, --help", HELP.help)] + [(o.usage(), o.describe()) for o in COMMANDS[command].options]
    width = max(len(left) for left, _ in rows)
    return "\n".join([_usage(command), "", title, "", heading,
                      *(f"  {left:<{width}}  {right}".rstrip() for left, right in rows), *tail])


def _fail(command, message):
    """A malformed argv: usage and ``message`` to stderr, exit 2."""
    print(_usage(command), file=sys.stderr)
    print(f"{_prog(command)}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _flags(command) -> dict:
    """The options a token may name at the top level (command None) or in
    ``command``, by flag."""
    options = COMMANDS[command].options if command else ()
    return {"-h": HELP, "--help": HELP, **{o.flag: o for o in options}}


def _read(token, flags, command):
    """argparse's reading of a token before any bare "--": None for a
    value, else (flag, the value joined to it or None), flag "" where no
    option is named.  A prefix of two flags is an error."""
    if not token.startswith("-") or token == "-":
        return None
    if token in flags:
        return token, None
    flag, joined, value = token.partition("=")
    if joined and flag in flags:
        return flag, value
    if token.startswith("--"):
        matches = [(f, value if joined else None) for f in flags if f.startswith(flag)]
    else:  # a one-letter flag and the value joined to it, as -hh
        matches = [(token[:2], token[2:])] if token[:2] in flags else []
    if len(matches) > 1:
        _fail(command, f"ambiguous option: {token} could match {', '.join(f for f, _ in matches)}")
    if matches:
        return matches[0]
    if NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return "", None


def _switch(command, flag, value) -> None:
    """A switch given as ``flag``: -h/--help prints help and exits 0.  A
    value joined to a switch is an error, except more h's after -h, which
    argparse reads as -h repeated."""
    if value is not None and not (flag == "-h" and value and not value.strip("h")):
        _fail(command, f"argument {flag}: ignored explicit argument {value!r}")
    if flag in ("-h", "--help"):
        print(_help(command))
        raise SystemExit(0)


def _parse_command(command, tokens, extras) -> dict:
    """Each option's value in ``command`` from ``tokens``, read left to
    right; a token no option takes goes to ``extras``."""
    options, flags = COMMANDS[command].options, _flags(command)
    readings = []
    for k, token in enumerate(tokens):
        if token == "--":  # it names no option, and every token after it is a value
            readings += [("", None)] + [None] * (len(tokens) - k - 1)
            break
        readings.append(_read(token, flags, command))
    values = {o.dest: o.default for o in options}
    i = 0
    while i < len(tokens):
        token, reading = tokens[i], readings[i]
        i += 1
        if reading is None or not reading[0]:
            extras.append(token)
            continue
        flag, value = reading
        option = flags[flag]
        if option.convert is None:
            _switch(command, flag, value)
            values[option.dest] = True
        else:
            if value is None:
                if i == len(tokens) or readings[i] is not None:
                    _fail(command, f"argument {flag}: expected one argument")
                value, i = tokens[i], i + 1
            values[option.dest] = option.read(value, command)
    missing = [o.flag for o in options if o.required and values[o.dest] is None]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return values


class Parser:
    """What ``build_parser`` returns: ``parse_args(argv)`` reads argv over
    COMMANDS into a namespace of ``command``, ``func`` and each option's
    dest."""

    def parse_args(self, argv=None) -> SimpleNamespace:
        argv = sys.argv[1:] if argv is None else list(argv)
        extras, flags = [], _flags(None)
        for i, token in enumerate(argv):
            reading = None if token == "--" else _read(token, flags, None)
            if reading is None:  # the command's name
                break
            if reading[0]:
                _switch(None, *reading)
            else:
                extras.append(token)
        else:
            _fail(None, "the following arguments are required: command")
        command = argv[i]
        if command not in COMMANDS:
            _fail(None, f"argument command: invalid choice: {command!r} "
                        f"(choose from {', '.join(map(repr, COMMANDS))})")
        values = _parse_command(command, argv[i + 1:], extras)
        if extras:
            _fail(None, f"unrecognized arguments: {' '.join(extras)}")
        return SimpleNamespace(command=command, **values, func=globals()[COMMANDS[command].func])


def build_parser() -> Parser:
    return Parser()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, TruncationError, ContextViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
