"""Command-line verification harness.

Subcommands: verify, classify, gram, map-irreps, spectrum.  Each cmd_*
returns its payload and writes nothing; ``main`` writes it once and reads
the exit code off its ``ok``: 0 all checks pass (or no ``ok``, as in the
spectrum table), 1 a mathematical check failed (counterexample in the
payload), 2 usage or configuration error, including a context too small
for the request.  All output is deterministic; there is no randomness
anywhere (--seed-free is accepted and is a no-op, recording that fact).
"""

from __future__ import annotations

import sys
from itertools import combinations_with_replacement
from math import comb
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
from .young import YoungDiagram

DEFAULT_LIMITS = {"N": 4, "M": 4, "P": 6}
# The most image-table entries verify may predict without --unsafe-large.
# Measured peaks stay under 22 bytes per predicted entry: complex (4, 3, 5)
# predicts 11.9 million and peaks at 183 MiB, (4, 4, 5) 62.8 million and
# 769 MiB, (4, 3, 6) 59.4 million and 1,109 MiB, (3, 4, 6) 71.8 million and
# 1,477 MiB, the largest context below (4, 4, 6) inside DEFAULT_LIMITS.
# Complex (4, 4, 6) predicts 397.5 million and fills tables until memory
# runs out.  The limit, about 2 GiB at that rate, is a guess between them.
VERIFY_ENTRY_LIMIT = 100_000_000


class UsageError(Exception):
    pass


def _context(args) -> FockContext:
    if not args.unsafe_large:
        for name in ("N", "M", "P"):
            if getattr(args, name) > DEFAULT_LIMITS[name]:
                raise UsageError(
                    f"{name} = {getattr(args, name)} exceeds the guard {DEFAULT_LIMITS[name]}; "
                    "pass --unsafe-large to override"
                )
    return FockContext(args.kind, args.N, args.M, args.P).validate()


def _verify_work(ctx) -> tuple:
    """(entries, tables, monomials): the image-table entries a verify run
    may fill, estimated as its tables (one per generator label, two per
    slot for the ladders of CCR and one per gauge basis element; the
    charge's one table is left out) times the monomials up to P, the most
    entries one table can hold."""
    slots = len(ctx.slots())
    tables = len(ctx.kind.generator_kinds) * ctx.M ** 2 + 2 * slots + len(young.gauge_basis(ctx))
    monomials = comb(slots + ctx.P, ctx.P)
    return tables * monomials, tables, monomials


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
        _print_table(jsonable(payload))


def _print_table(payload, indent=0):
    """Print a JSON-native ``payload``, keys sorted, one leaf a line."""
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_table(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for item in payload:
            _print_table(item, indent)
            if isinstance(item, dict):
                print(f"{pad}-")
    else:
        print(f"{pad}{payload}")


# ---------------------------------------------------------------------------
# verify
#
# The checks build their tables and vectors from the operators' builders,
# each a fock.Operator read off its module at call time
# (fock.creation_terms, algebra.generator_terms, algebra.charge_terms,
# young.gauge_terms, ...): apply_generator and the ladders call the same
# names, so a replaced builder reaches a table and the vector-level action
# alike.


def _commutator_report(index, left, right, identities) -> dict:
    """``algebra.commutator_scan`` of the identities (label, a, b, c), a
    label a dict, on ``index.basis()``: the first five failures, each with
    its first failing monomial."""
    failures, _ = commutator_scan(left, right, identities, index.basis(), 5)
    return {"ok": not failures,
            "failures": [dict(label, monomial=monomial_str(m)) for label, (m, _, _) in failures]}


def _check_ccr(ctx) -> dict:
    """[a(s), a*(t)] = delta_st on the ladder tables of every slot pair, on
    an index of their own."""
    slots = ctx.slots()
    index = MonomialIndex(ctx)
    down = {s: ImageTable(index, fock.annihilation_terms(ctx, s)) for s in slots}
    up = {s: ImageTable(index, fock.creation_terms(ctx, s)) for s in slots}
    return _commutator_report(index, down.values(), up.values(), (
        ({"slots": [str(s), str(t)]}, down[s], up[t], ((), 1) if s == t else None)
        for s in slots for t in slots))


def _check_adjointness(ctx, images) -> dict:
    """<g m, n> = <m, g† n> for all basis monomials m, n.  The metric
    w(m) = <m|m> is diagonal, so this reads G[n,m] w(n) = G†[m,n] w(m) off
    the generator tables ``images`` of g and g†; a pair where both sides
    vanish passes.  A scalar part adds the same c w(m) to both sides, so
    the tables leave it out."""
    index = next(iter(images.values())).index
    basis = index.basis()
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
    if ctx.field_kind == COMPLEX:
        img = algebra.charge_terms(ctx).apply(vac)
        if not img.is_zero():
            failures.append({"charge_on_vacuum": "nonzero", "got": repr(img)})
    img = algebra.hamiltonian_terms(ctx, canonical_hamiltonian(ctx)).apply(vac)
    if not img.is_zero():
        failures.append({"canonical_energy_on_vacuum": "nonzero", "got": repr(img)})
    return {"ok": not failures, "failures": failures}


def _commutant_report(ctx, images, labels, fixed) -> dict:
    """[F, g] = 0 for each (label, Operator F) in ``fixed`` and generator g
    in ``labels`` (default: all), on a table per F on the index of the
    generator tables ``images`` (a scalar part commutes)."""
    labels = list(generators(ctx)) if labels is None else labels
    index = next(iter(images.values())).index
    tables = [(label, ImageTable(index, op)) for label, op in fixed]
    return _commutator_report(index, [t for _, t in tables], [images[g] for g in labels], (
        (dict(label, generator=str(g)), table, images[g], None) for label, table in tables for g in labels))


def _check_charge_commutes(ctx, images, labels=None) -> dict:
    """[Q, g] = 0 for every generator g in ``labels`` (default: all)."""
    if ctx.field_kind != COMPLEX:
        return {"ok": True, "skipped": "no charge operator in the real case"}
    return _commutant_report(ctx, images, labels, [({}, algebra.charge_terms(ctx))])


def _check_gauge_commutant(ctx, images, labels=None) -> dict:
    """[E^{pq}, g] = 0 for every generator g in ``labels`` (default: all)
    and element (p, q) of ``young.gauge_basis``."""
    return _commutant_report(ctx, images, labels, [
        ({"gauge": [p, q]}, young.gauge_terms(ctx, p, q)) for p, q in young.gauge_basis(ctx)])


def cmd_verify(args) -> dict:
    ctx = _context(args)
    entries, tables, monomials = _verify_work(ctx)
    if entries > VERIFY_ENTRY_LIMIT and not args.unsafe_large:
        raise UsageError(
            f"verify predicts {entries:,} image-table entries ({tables} tables x {monomials:,} monomials "
            f"up to P = {ctx.P}), over the guard {VERIFY_ENTRY_LIMIT:,}; pass --unsafe-large to override")
    # One set of generator tables for every check.  drop-e-shift changes
    # only the scalars, which only structure constants reads.  Structure
    # constants runs after the first charge and gauge scans, whose tables
    # are freed before it fills the generator tables past P - 2 particles.
    # The payload sorts its keys.
    images = generator_images(ctx, shift=args.inject_fault != "drop-e-shift")
    # The operators that commute with a fixed one form a Lie algebra
    # (Jacobi), so where the generating set suffices (P >= 4, and real
    # tables respect X(i,j) = X(j,i)) the charge and gauge checks scan the
    # bilocal side on a Lie generating set.  Such a report stands only
    # when it passed and structure constants passed, which proves the
    # realization a Lie homomorphism; otherwise the check scans every
    # generator, so every payload is the full scan's.
    reduced = lie_generating_set(ctx) if generating_set_suffices(ctx, images) else None
    commutants = {"charge_commutes": _check_charge_commutes, "gauge_commutant": _check_gauge_commutant}
    checks = {
        "ccr": _check_ccr(ctx),
        "adjointness": _check_adjointness(ctx, images),
        "vacuum_cartan": _check_vacuum_cartan(ctx),
        **{name: check(ctx, images, reduced) for name, check in commutants.items()},
        "structure_constants": verify_structure_constants(ctx, images),
    }
    for name, check in commutants.items():
        if reduced and not (checks[name]["ok"] and checks["structure_constants"]["ok"]):
            checks[name] = check(ctx, images)
    return {"context": {"kind": ctx.field_kind, "N": ctx.N, "M": ctx.M, "P": ctx.P},
            "ok": all(c.get("ok") for c in checks.values()), "checks": checks}


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> dict:
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
    for entry in results:
        s = entry["sector"]
        w = entry["weight"]
        row = {
            "tail": w.tail,
            "multiplicity": entry["multiplicity"],
            "energy": entry["energy"],
            "in_bound": s is not None,
        }
        for side, head in zip(ctx.kind.sides, w.heads):
            row["weight_head" + side] = list(head)
        if s is not None:
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
                row["gauge_irrep"] = young.sector_to_irrep_O(s.y_plus, ctx.N).canonical.to_json()
        rows.append(row)
    ok = not failures and all(row["in_bound"] for row in rows)
    payload = {"ok": ok, "cutoff": cutoff, "sectors": rows, "count": len(rows)}
    if failures:
        payload["failures"] = failures
    return payload


# ---------------------------------------------------------------------------
# gram


def cmd_gram(args) -> dict:
    from . import sectors

    ctx = _context(args)
    if args.level < 0:
        raise UsageError("level must be >= 0")
    own = ["y" + side[1:] for side in ctx.kind.sides]  # --yplus and --yminus, or --y
    s = young.SectorLabel(ctx.field_kind, ctx.N, *(_parse_rows(getattr(args, flag)) for flag in own))
    for flag in ("yplus", "yminus", "y"):
        if flag not in own and getattr(args, flag).strip():
            raise UsageError(f"--{flag} does not apply to a {ctx.field_kind} sector")
    violation = s.bound_violation()
    if violation:
        return {"ok": False, "error": f"sector out of bound: {violation}"}
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
    return {
        "ok": psd,
        "sector": young.sector_to_json(s),
        "level": args.level,
        "basis": [str(list(w)) for w in words],
        "gram": matrix,
        "leading_principal_minors": minors,
        "positive_semidefinite": psd,
    }


# ---------------------------------------------------------------------------
# map-irreps and spectrum


def cmd_map_irreps(args) -> dict:
    if args.N < 0:
        raise UsageError("N must be >= 0")
    if args.cap < 0:
        raise UsageError("cap must be >= 0")
    return young.bijection_roundtrip_check(args.group, args.N, args.cap)


def cmd_spectrum(args) -> dict:
    from . import modes

    if args.count < 0:
        raise UsageError("count must be >= 0")
    try:
        rows = modes.spectrum_table(args.D, args.count)
    except modes.ModeError as exc:
        raise UsageError(str(exc)) from exc
    return {"D": args.D, "count": args.count, "levels": rows}


# ---------------------------------------------------------------------------
# options
#
# COMMANDS declares each subcommand: its help, the name of its cmd_*
# function and its options, each a flag with its argparse keywords.  The
# function is looked up in this module's globals when an argv is parsed,
# so a cmd_* replaced on the module is the one that runs.  argparse, built
# from the table, reads every argv _read_exact declines: help, prefixes of
# flags, values starting with "-" and every malformed argv, with
# argparse's own messages and exit codes.  _read_exact reads the
# well-formed rest, so the commands as usually written never import it.


COMMON_OPTIONS = {
    "--format": dict(choices=("json", "table"), default="json", help="output format (default: %(default)r)"),
    "--seed-free": dict(action="store_true", default=False,
                        help="accepted for interface stability; computations are always deterministic"),
}
CONTEXT_OPTIONS = {
    "--kind": dict(choices=(COMPLEX, REAL), default=COMPLEX, help="field kind (default: %(default)r)"),
    "--N": dict(type=int, required=True, help="multiplet size N (required)"),
    "--M": dict(type=int, default=2, help="mode cutoff M (default: %(default)r)"),
    "--P": dict(type=int, default=4, help="particle cutoff P (default: %(default)r)"),
    "--unsafe-large": dict(action="store_true", default=False,
                           help="lift the default size guards: N, M, P and verify's predicted work"),
}

COMMANDS = {
    "verify": ("run the algebraic invariant suite", "cmd_verify", {
        **COMMON_OPTIONS, **CONTEXT_OPTIONS,
        "--inject-fault": dict(choices=("none", "drop-e-shift"), default="none",
                               help="negative control: drop the N/2 shift of the E generators and "
                                    "expect failure (default: %(default)r)"),
    }),
    "classify": ("enumerate sectors below an energy cutoff", "cmd_classify", {
        **COMMON_OPTIONS, **CONTEXT_OPTIONS,
        "--cutoff": dict(required=True, help="energy cutoff, integer or p/q (required)"),
        "--D": dict(type=int, default=0,
                    help="use the conformal mode energies for this spacetime dimension; 0 for "
                         "none (default: %(default)r)"),
    }),
    "gram": ("Gram matrix of level-raised vectors over a ground state", "cmd_gram", {
        **COMMON_OPTIONS, **CONTEXT_OPTIONS,
        "--level": dict(type=int, default=1, help="number of X* applied to the ground state "
                                                  "(default: %(default)r)"),
        "--yplus": dict(default="", help="Y+ of a complex sector: comma-separated row lengths, "
                                         "e.g. 2,1 (default: %(default)r)"),
        "--yminus": dict(default="", help="Y- of a complex sector (default: %(default)r)"),
        "--y": dict(default="", help="diagram for real sectors (default: %(default)r)"),
    }),
    "map-irreps": ("sector <-> gauge irrep dictionary", "cmd_map_irreps", {
        **COMMON_OPTIONS,
        "--group": dict(choices=("U", "O"), required=True, help="gauge group U(N) or O(N) (required)"),
        "--N": dict(type=int, required=True, help="rank N of the gauge group (required)"),
        "--cap": dict(type=int, default=3, help="largest number of boxes of a diagram "
                                                "(default: %(default)r)"),
    }),
    "spectrum": ("conformal one-particle spectrum table", "cmd_spectrum", {
        **COMMON_OPTIONS,
        "--D": dict(type=int, required=True, help="spacetime dimension, even (required)"),
        "--count": dict(type=int, required=True, help="number of modes to cover (required)"),
    }),
}

DESCRIPTION = "Exact verification harness for bilocal field algebras on truncated Fock spaces."


def _read_exact(argv):
    """The namespace argparse reads from ``argv`` when argv is a command's
    name, then whole flags of that command, each value joined by "=" or in
    the next token, converted and among the choices, no value starting
    with "-", and every required flag given; None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    values = {flag: keywords.get("default") for flag, keywords in options.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, joined, value = token.partition("=")
        keywords = options.get(flag)
        if keywords is None:
            return None
        if "action" in keywords:  # a switch, which takes no value
            if joined:
                return None
            values[flag] = True
            continue
        if not joined:
            value = next(tokens, "-")  # a flag at the end is declined as a dash value
        if value.startswith("-"):
            return None
        try:
            values[flag] = keywords.get("type", str)(value)
        except ValueError:
            return None
        if values[flag] not in keywords.get("choices", (values[flag],)):
            return None
    if None in values.values():  # only a required flag has no default
        return None
    return SimpleNamespace(command=argv[0], func=globals()[func],
                           **{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def _argparse_parser():
    """argparse's parser of COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bilocal", description=DESCRIPTION,
        epilog="Run 'bilocal COMMAND --help' for the options of a command.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, options) in COMMANDS.items():
        command = sub.add_parser(name, help=summary, description=summary)
        for flag, keywords in options.items():
            command.add_argument(flag, **keywords)
        command.set_defaults(func=globals()[func])
    return parser


class Parser:
    """What ``build_parser`` returns: ``parse_args(argv)`` reads argv
    (default ``sys.argv[1:]``) into argparse's namespace of ``command``,
    ``func`` and each option's dest."""

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _read_exact(argv)
        return _argparse_parser().parse_args(argv) if args is None else args


def build_parser() -> Parser:
    return Parser()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload = args.func(args)
    except (UsageError, TruncationError, ContextViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller context", file=sys.stderr)
        return 2
    _emit(args, payload)
    return 0 if payload.get("ok", True) else 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
