"""Outside-in layer tracing for the bilocal modules.

``install`` replaces the public functions of each module with timing
wrappers, from the benchmark's side: no program file changes.  A name
that another module imported with ``from .x import y``, or that a
function holds as a default argument, is rebound to the same wrapper,
so every call path is seen.

Every wrapped call records its count, its duration and its self time
(duration minus the time of wrapped calls made inside it).  Nothing is
kept per call except the durations of classify shards, so the hot fock
and algebra leaves cost one stack push and two clock reads each.
"""

from __future__ import annotations

import inspect
import time


class Tracer:
    def __init__(self):
        self.stats = {}      # span name -> [calls, total seconds, self seconds]
        self.counters = {}   # counter name -> number
        self.samples = {}    # sample name -> list of durations
        # Open spans as [name, seconds in wrapped children, size]; the root
        # frame collects the time spent inside any top-level span.
        self._stack = [["", 0.0, 0]]

    def count(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
            if after is not None:
                after(self, frame, args, kwargs, result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def report(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "samples": self.samples, "covered_s": self._stack[0][1]}


# ---------------------------------------------------------------------------
# size hooks: run after the wrapped call returns, outside its timing


def _terms_in(tr, frame, args, kwargs, result, dt):
    tr.count("algebra.apply_generator.terms_in", len(args[2]))


def _nullspace_sizes(tr, frame, args, kwargs, result, dt):
    rows = args[0]
    ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    tr.count("linalg.nullspace.rows", len(rows))
    tr.count("linalg.nullspace.rank", ncols - len(result))
    tr.counters["linalg.nullspace.rows_max"] = max(
        tr.counters.get("linalg.nullspace.rows_max", 0), len(rows))
    tr.counters["linalg.nullspace.cols_max"] = max(
        tr.counters.get("linalg.nullspace.cols_max", 0), ncols)


def _rowspan_accept(tr, frame, args, kwargs, result, dt):
    if result:
        tr.count("linalg.rowspan.accepted")


def _profile_size(tr, frame, args, kwargs, result, dt):
    tr._stack[-1][2] = len(result)


def _shard(tr, frame, args, kwargs, result, dt):
    if tr._stack[-1][0] != "sectors.classify":
        return
    tr.count("sectors.shards")
    tr.count("sectors.shard_hits", 1 if result else 0)
    tr.count("sectors.shard_monomials_sum", frame[2])
    tr.counters["sectors.shard_monomials_max"] = max(
        tr.counters.get("sectors.shard_monomials_max", 0), frame[2])
    tr.samples.setdefault("sectors.shard_s", []).append(dt)


def _module_vectors(tr, frame, args, kwargs, result, dt):
    tr.count("casimir.compact_module.vectors", sum(len(vs) for vs in result.values()))


def _gamma_case(tr, frame, args, kwargs, result, dt):
    if result.get("case") == "no_vector_found":
        tr.count("casimir.gamma.no_vector")


def _roundtrip_entries(tr, frame, args, kwargs, result, dt):
    tr.count("young.entries", len(result["entries"]))


def _dumps_bytes(tr, frame, args, kwargs, result, dt):
    tr.count("serialize.bytes", len(result))


def _targets():
    """(span name, owner, attribute, size hook) for every traced function."""
    from bilocal import algebra, casimir, cli, fock, linalg, modes, sectors, serialize, young

    return [
        ("fock.apply_creation", fock, "apply_creation", None),
        ("fock.apply_annihilation", fock, "apply_annihilation", None),
        ("fock.inner_product", fock, "inner_product", None),
        ("algebra.apply_generator", algebra, "apply_generator", _terms_in),
        ("algebra.operator_apply", algebra.OperatorExpr, "apply", None),
        ("algebra.abstract_commutator", algebra, "abstract_commutator", None),
        ("algebra.structure_constants", algebra, "verify_structure_constants", None),
        ("linalg.nullspace", linalg, "nullspace", _nullspace_sizes),
        ("linalg.solve", linalg, "solve", None),
        ("linalg.rowspan", linalg.RowSpan, "add", _rowspan_accept),
        ("sectors.classify", sectors, "classify_spectrum", None),
        ("sectors.hw_kernel", sectors, "hw_kernel_in_profile", _shard),
        ("sectors.profile_monomials", sectors, "profile_monomials", _profile_size),
        ("sectors.ground_state", sectors, "build_ground_state", None),
        ("sectors.hw_conditions", sectors, "verify_hw_conditions", None),
        ("sectors.det_recursion", sectors, "determinant_recursion_check", None),
        ("casimir.compact_module", casimir, "compact_module", _module_vectors),
        ("casimir.hw_vectors", casimir, "hw_vectors_at_weight", None),
        ("casimir.gamma", casimir, "verify_gamma_identity", _gamma_case),
        ("casimir.cg_oracle", casimir, "cg_eigenvalue_oracle", None),
        ("young.roundtrip", young, "bijection_roundtrip_check", _roundtrip_entries),
        ("young.irrep_U_to_sector", young, "irrep_U_to_sector", None),
        ("young.irrep_O_to_sector", young, "irrep_O_to_sector", None),
        ("young.weyl_dimension", young, "weyl_dimension_U", None),
        ("modes.appendix_spectrum", modes, "appendix_spectrum", None),
        ("modes.enumerate_modes", modes, "enumerate_modes", None),
        ("modes.harmonic_count", modes, "harmonic_count", None),
        ("modes.spectrum_table", modes, "spectrum_table", None),
        ("serialize.dumps", serialize, "dumps", _dumps_bytes),
        ("cli.ccr", cli, "_check_ccr", None),
        ("cli.adjointness", cli, "_check_adjointness", None),
        ("cli.vacuum_cartan", cli, "_check_vacuum_cartan", None),
        ("cli.charge_commutes", cli, "_check_charge_commutes", None),
        ("cli.gauge_commutant", cli, "_check_gauge_commutant", None),
        ("cli.verify", cli, "cmd_verify", None),
        ("cli.classify", cli, "cmd_classify", None),
        ("cli.gram", cli, "cmd_gram", None),
        ("cli.map_irreps", cli, "cmd_map_irreps", None),
    ]


def install(tracer: Tracer) -> None:
    import bilocal
    from bilocal import algebra, casimir, cli, fock, linalg, modes, sectors, serialize, young

    modules = [bilocal, fock, algebra, linalg, sectors, casimir, young, modes, serialize, cli]
    swap = {}  # id of an original -> its wrapper, which keeps the original alive
    for name, owner, attr, after in _targets():
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, after)
        setattr(owner, attr, wrapped)
        swap[id(original)] = wrapped

    def swapped(value):
        return swap.get(id(value), value)

    functions = []
    for mod in modules:
        for key, value in list(vars(mod).items()):
            new = swapped(value)
            if new is not value:
                setattr(mod, key, new)
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                functions += [v for v in vars(value).values() if inspect.isfunction(v)]
            elif inspect.isfunction(value):
                functions.append(value)
    for fn in functions:
        fn = getattr(fn, "__wrapped__", fn)
        if fn.__defaults__:
            fn.__defaults__ = tuple(swapped(d) for d in fn.__defaults__)
