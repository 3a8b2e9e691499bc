"""Exact-arithmetic constructions and verifications of congruent numbers."""

__version__ = "0.1.0"

# The footprint classes of congruent.footprints, which re-exports them as
# CLASSES.  They live here so the CLI can offer them as choices without
# importing that module.
FOOTPRINT_CLASSES = ("T0a", "T0b", "TI", "TII", "TIII", "TIV")
