"""Multi-label query intent classification via multi-granularity matching.

Modules:

* :mod:`intentmatch.autodiff` — dense tensor engine with reverse-mode
  differentiation (the substrate every model equation runs on);
* :mod:`intentmatch.textdata` — tokenization, vocab, dataset file formats
  and click-CDF label filtering;
* :mod:`intentmatch.synthetic` — the seeded synthetic dataset generator;
* :mod:`intentmatch.encoder` — the shared query/category token encoder;
* :mod:`intentmatch.model` — the model config, self-matching, char-level
  matching, semantic matching, fusion head and the multi-label loss;
* :mod:`intentmatch.training` — Adam, the training loop and checkpoints;
* :mod:`intentmatch.evaluation` — thresholded decisions, micro/macro
  metrics and the ablation harness;
* :mod:`intentmatch.errors` — the named exceptions the CLI maps to exit
  codes;
* :mod:`intentmatch.cli` — `gen | train | eval | predict` command line.
"""

__version__ = "0.1.0"
