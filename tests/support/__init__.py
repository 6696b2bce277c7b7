"""Slow references that the package's fast paths are checked against.

* `allpairs_nerve`: every pair of depth-k cells asked of the oracle, then
  cliques, and the reference sweep `sweep_certificates`, which sweeps
  certificates into every level; checks the block-copy generator
  `nerve._levels` on geometric systems and the sweep that
  `nerve.truncation_map` makes into levels with uncertain tuples.
* `full_tower`: the truncation pass over every simplex, the union-find
  over every edge and the parent map read off every vertex; check
  `nerve.truncation_map`, which reads only what each level stores (and
  only the nesting of the intervals on a pair of levels with covers), the
  block-aware and coverage paths of `components.components` and the
  per-component parents of `components.dim0_facts`, which a level with a
  block source takes from the block-copy licence of
  `nerve.SimplicialComplex`.  `reference_numbers`
  reduces the expanded boundaries of every level, against the counts and
  rank recurrences of `homology.tower_analysis`.  `truncation` writes
  v -> v // m^d as the `nerve.SimplicialMap` that `homology.induced_rank`
  takes, since `truncation_map` returns a level, and `labels` reads the
  component of every vertex down a chain of `ComponentsLevel`s.
* `complexes`: readers of every simplex that only tests use
  (`block_subcomplex`, `euler_characteristic`, `edge_sets`,
  `simplex_word_sets`).
* `points`: points and maps that only tests build (`scaling` about a
  centre, the `limit_point` of an address, and `intersection_cycle`, the
  vertices of `exactgeom.common_region` as `Point2`s).
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
  `RationalAffineMap`, the integer kernel of `exactgeom` (whose
  `common_region` clips every meet, segments included), the integer-triple
  point sets of `oracles._word_points`, and `oracles.certificate_points`,
  whose segment meets come from integer intervals.
* `certificate_sets`: common certified points as the intersection of every
  word's whole point set; checks the one-point pull-back of
  `oracles._common_keys` and `oracles.certificate_points`.
* `unpruned`: all m^2 children of every parent pair as nerve candidates,
  and the point walk that tests each word's own envelope and pulls the point
  back through each whole word map; check the one-point pruning of
  `nerve._candidate_pairs` (with `oracles.envelope_exact` patched off, so
  that licensed systems reach it too) and the pull-back walk behind
  `oracles.cells_containing_point`.
* `segment_cover`: the interval-cover licence in `Fraction`s, each cell
  map's image read as a parameter interval of the envelope segment; checks
  `oracles.envelope_exact` and the integer depth-1 ends it reads from
  `oracles.interval_ends`.  `collinear_region` meets segments and points on
  one line in the line's coordinate, read off the polygons' vertices
  (`span`), and `envelope_meet` applies it to the cell envelopes of a
  segment spec; they check the integer interval meets of
  `oracles._segment_meet`, and through it `_envelope_meet` and
  `cells_intersect`, against the clip; `refine` refines on the envelopes,
  against the integer interval test of `oracles._refine`.  The interval
  sweep `nerve._swept_level` has no module here: its reference is the
  oracle generator itself, run with `oracles.envelope_exact` patched off,
  `oracles._segment_meet` patched to `envelope_meet` and `oracles._refine`
  to `refine`, so that it reads nothing of `oracles._line_maps`
  (`_licensed_and_queried` in `tests/test_nerve.py`, which refuses any
  read).  Level by level at dim caps 1, 2 and 3, a level with a cover
  must give the reference's counts, its simplices of every dimension
  (listed by the sweep) and its answer to `in`, and its components by
  coverage must be those of `full_tower`'s union-find, with its crossing
  pairs, as pairs of blocks each listed once, the distinct ones of the
  union-find's crossing edges.
* `pu_walk`: the postunbranched check asked at every depth 1..d; checks
  the orbit walk of `classify.check_postunbranched`, as a whole `PUReport`,
  at the depth `pu_walk.every_depth(budget)` where it decides every depth.
* `tail_names`: the tail table built by normalizing every in-budget address
  and skipping the normalized pairs already seen; checks the direct
  enumeration of normalized pairs in `oracles._tail_table` and its names.
"""
