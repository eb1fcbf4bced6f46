"""Short spellings the tests build their inputs with.  The library spells
each one out; these are test conveniences, not library names."""

from bilocal.fock import SPECIES_A, SPECIES_B, ModeSlot
from bilocal.young import EMPTY, SectorLabel, YoungDiagram


def a_slot(mode: int, flavor: int) -> ModeSlot:
    return ModeSlot(SPECIES_A, mode, flavor)


def b_slot(mode: int, flavor: int) -> ModeSlot:
    return ModeSlot(SPECIES_B, mode, flavor)


def diagram(*rows) -> YoungDiagram:
    return YoungDiagram(tuple(rows))


def vacuum_sector(field_kind: str, N: int) -> SectorLabel:
    return SectorLabel(field_kind, N, EMPTY)
