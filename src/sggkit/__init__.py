"""Desk-scale scene graph generation toolkit.

Submodules:
    autodiff        dense float64 matrices + tape reverse-mode differentiation
    local_attention per-relation attention over subject/object/union instances
    fusion          direction-sensitive edge encoding and its baselines
    propagation     joint node/edge message passing on the candidate graph
    attract_repel   reference-bank contrastive loss on edge embeddings
    data            scene records, planted-rule generator, feature synthesis
    model           full model assembly, losses and the training loop
    metrics         triplet ranking, recall family, bidirectional diagnostics
    analysis        co-occurrence statistics and guessing curves
    cli             command line entry points
"""

__version__ = "0.1.0"
