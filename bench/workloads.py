"""The benchmark's workloads: which operations each one runs, and the
closed-form work model that the verify outputs are checked against.

Every operation has a fixed expected output, so a run can tell a wrong
answer from a slow one.  CLI operations are pinned by the SHA-256 of
their stdout and their exit code (gates.json); library operations are
checked in job.py against independent closed forms.
"""

from __future__ import annotations

from math import comb

# Algebraic invariant suite: generator action on single basis monomials
# and O(basis^2) inner products.  The last operation is a negative
# control that must exit 1.
VERIFY = [
    ["verify", "--kind", "complex", "--N", "2", "--M", "2", "--P", "4"],
    ["verify", "--kind", "complex", "--N", "1", "--M", "3", "--P", "4"],
    ["verify", "--kind", "real", "--N", "2", "--M", "3", "--P", "4"],
    ["verify", "--kind", "complex", "--N", "1", "--M", "2", "--P", "4",
     "--inject-fault", "drop-e-shift"],
]

# Sector census and gauge dictionary: profile sharding, dense kernels and
# the Young-label scans; no inner products.
CLASSIFY = [
    ["classify", "--kind", "complex", "--N", "3", "--M", "4", "--P", "6", "--cutoff", "5"],
    ["classify", "--kind", "real", "--N", "3", "--M", "4", "--P", "6", "--cutoff", "6",
     "--D", "4"],
    ["map-irreps", "--group", "U", "--N", "4", "--cap", "5"],
    ["map-irreps", "--group", "O", "--N", "4", "--cap", "6"],
]

# Gram matrices of level-2 raised vectors, run beside the library job.
HW_GRAM = [
    ["gram", "--kind", "complex", "--N", "2", "--M", "2", "--P", "6", "--level", "2"],
    ["gram", "--kind", "complex", "--N", "2", "--M", "2", "--P", "6", "--level", "2",
     "--yplus", "1"],
    ["gram", "--kind", "complex", "--N", "2", "--M", "2", "--P", "6", "--level", "2",
     "--yplus", "1", "--yminus", "1"],
    ["gram", "--kind", "real", "--N", "2", "--M", "2", "--P", "6", "--level", "2"],
    ["gram", "--kind", "real", "--N", "2", "--M", "2", "--P", "6", "--level", "2",
     "--y", "2"],
    ["gram", "--kind", "real", "--N", "3", "--M", "2", "--P", "6", "--level", "2",
     "--y", "1"],
]

CLI_OPS = {"verify": VERIFY, "classify": CLASSIFY, "hw": HW_GRAM}

# hw library job: every in-bound sector with at most HW_MAX_BOXES boxes
# in total, for these (field kind, N).
HW_KINDS = [("complex", 2), ("complex", 3), ("real", 2), ("real", 3)]
HW_MAX_BOXES = 4


def op_name(argv) -> str:
    return " ".join(argv)


def option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def hw_cases():
    """(sector, rank n, context, determinant-check context) for the hw job.

    n = rows + 1, M = max(n, 2), P = boxes + 4; the determinant recursion
    runs at M = max(rows, 2).
    """
    from bilocal.fock import FockContext
    from bilocal.young import enumerate_sectors

    for kind, N in HW_KINDS:
        for s in enumerate_sectors(kind, N, HW_MAX_BOXES):
            boxes = s.total_boxes()
            if boxes > HW_MAX_BOXES:
                continue
            rows = max(s.y_plus.num_rows, s.y_minus.num_rows if s.y_minus else 0)
            n = rows + 1
            P = boxes + 4
            yield (s, n, FockContext(kind, N, max(n, 2), P).validate(),
                   FockContext(kind, N, max(rows, 2), P).validate())


def predicted_basis_size(kind: str, N: int, M: int, P: int, margin: int = 2) -> int:
    """Monomials with at most P - margin particles over S = species*N*M slots."""
    slots = (2 if kind == "complex" else 1) * N * M
    return sum(comb(slots + k - 1, k) for k in range(P - margin + 1))


def predicted_pairs(kind: str, M: int) -> int:
    """Unordered generator pairs G(G+1)/2 with G = kinds * M^2."""
    g = (4 if kind == "complex" else 3) * M * M
    return g * (g + 1) // 2


def work_model(argv):
    """(predicted basis size, predicted pairs) of a verify operation, or
    None for operations the model does not cover (the fault injection
    stops at its first failing pair)."""
    if argv[0] != "verify" or "--inject-fault" in argv:
        return None
    kind = option(argv, "--kind", "complex")
    N, M, P = (int(option(argv, f)) for f in ("--N", "--M", "--P"))
    return predicted_basis_size(kind, N, M, P), predicted_pairs(kind, M)
