"""Slow references that the package's fast paths are checked against.

* `allpairs_nerve`: every pair of depth-k cells asked of the oracle, then
  cliques, and the reference sweep `sweep_certificates`, which sweeps
  certificates into every level; checks the block-copy generator
  `nerve._levels` on geometric systems and the sweep that
  `nerve.truncation_map` makes into levels with uncertain tuples.
* `full_tower`: the truncation pass over every simplex, the union-find
  over every edge and the parent map read off every vertex; check the
  crossing-only pass of `nerve.truncation_map`, the block-aware
  `components.components` and the per-component parents of
  `components.dim0_facts` on copy-built levels.  `reference_numbers`
  reduces the expanded boundaries of every level, against the counts and
  rank recurrences of `homology.tower_analysis`.  `truncation` writes
  v -> v // m^d as the `nerve.SimplicialMap` that `homology.induced_rank`
  takes, since `truncation_map` returns a level, and `labels` reads the
  component of every vertex down a chain of `ComponentsLevel`s.
* `complexes`: readers of every simplex that only tests use
  (`block_subcomplex`, `euler_characteristic`, `simplex_word_sets`).
* `pu_nerve`: symbolic nerves as sets of word sets; checks the index
  generator `nerve._lifted_level` and its address-consistency errors.
  `truncate` takes the first symbols of a word or an address.
* `linalg_oracle`: dense Gaussian elimination and cochain pullback; checks
  the sparse reduction `homology._reduce`, `homology.betti`, the
  mapping-cone `homology.induced_rank`, the crossing-edge pass
  `homology.lambda_ranks`, and the component counts that give
  `homology.tower_analysis` its rank d_1 = m^k - a_0.
* `cohomology`: Betti numbers through transposed boundaries (`cobetti`);
  checks `homology.betti` on a second path through the same reduction.
* `finite_oracle`: cells of finite point systems as point sets; checks the
  hand-worked table levels of the bundled finite-cycle and finite-trivial.
* `singleton_refine`: the singleton-overlap check by refinement alone;
  checks the two-point refutation in `classify.check_singleton_overlaps`.
* `fraction_geometry`: points and maps as dataclasses of `Fraction`s, plane
  geometry in `Fraction`s (map images, compositions, inverses, fixed points,
  half-plane containment, convexity, bounding boxes, clipping, re-hulled
  envelope images) and certificate points as sets of `Fraction` points;
  checks equality, hashing and printing of the integer-valued `Point2` and
  `RationalAffineMap`, the integer kernel of `exactgeom`, the integer-triple
  point sets of `oracles._word_points`, and `oracles.certificate_points`.
* `certificate_sets`: common certified points as the intersection of every
  word's whole point set; checks the one-point pull-back of
  `oracles._common_keys` and `oracles.certificate_points`.
* `unpruned`: all m^2 children of every parent pair as nerve candidates,
  and the point walk that tests each word's own envelope and pulls the point
  back through each whole word map; check the one-point pruning of
  `nerve._candidate_pairs` and the pull-back walk behind
  `oracles.cells_containing_point`.
* `tail_names`: the tail table built by normalizing every in-budget address
  and skipping the normalized pairs already seen; checks the direct
  enumeration of normalized pairs in `oracles._tail_table` and its names.
"""
