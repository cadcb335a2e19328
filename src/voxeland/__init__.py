"""Incremental probabilistic instance-aware semantic voxel mapping.

Per-frame 2D instance predictions are lifted to 3D as subjective opinions,
associated with map instances by volumetric overlap, and accumulated as
sparse evidence: per-voxel instance point counts and per-instance category
confidence sums.  Expected and Shannon entropies over that evidence yield
geometric and semantic uncertainty layers, and ambiguous instances can be
resolved through a pluggable external decision client.

Each public name is imported from the module that defines it, such as
``voxeland.fusion.Pipeline``; the package itself holds only ``__version__``.
"""

__version__ = "0.1.0"
