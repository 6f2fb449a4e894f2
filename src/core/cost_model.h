// Executable rendition of the paper's §5.1 analytic cost model.
//
// Under the simplifying assumptions — uniform grid (every node degree 4, all
// edge weights 1), objects uniformly distributed with density p, query
// spreadings uniform over [0, SP] — the paper derives the expected I/O cost
// of query processing as a function of the partition parameters (T, c)
// (Equations 1–4) and minimizes it to obtain c* = e, T* = sqrt(SP/e).
//
// This module implements the model by direct evaluation of the sums
// (Equations 1 and 2) rather than trusting the closed-form approximation.
//
// Reproduction finding (see EXPERIMENTS.md): direct evaluation CONFIRMS the
// paper's qualitative claims — cost is linear in density, so the optimal
// (T, c) is density-independent, and mis-parameterized partitions degrade
// gracefully — but does NOT reproduce the closed form c* = e,
// T* = sqrt(SP/e): the sums' numeric argmin sits at smaller c and larger T.
// The paper's own Fig 6.7 measurements (best c = 3, spread under 2x) are
// closer to its closed form than this model is, suggesting the empirical
// optimum is driven by page-granularity effects outside the §5.1 model.
#ifndef DSIG_CORE_COST_MODEL_H_
#define DSIG_CORE_COST_MODEL_H_

#include <cstddef>

namespace dsig {

// Number of grid nodes within network radius `i` of a node on an unbounded
// uniform grid: 2i² + i (paper Fig 5.3; excludes the node itself).
double GridNodesWithinRadius(double i);

struct GridCostModel {
  double density = 0.01;    // object density p
  double spreading = 1000;  // SP: spreadings uniform on [0, SP]

  // Expected refinement cost (Equation 2, up to the constant factor |D|·bits
  // that does not affect the optimum) for queries whose spreading falls in
  // the category containing `sp`, under partition (t, c).
  double QueryCost(double t, double c, double sp) const;

  // Average cost over spreadings 1..SP (Equation 1). Smaller is better.
  double AverageCost(double t, double c) const;

  struct Optimum {
    double t = 0;
    double c = 0;
    double cost = 0;
  };

  // Numerically minimizes AverageCost over a (t, c) grid.
  Optimum FindOptimum() const;

  // The paper's closed-form optimum for reference: c = e, T = sqrt(SP/e).
  Optimum PaperOptimum() const;
};

}  // namespace dsig

#endif  // DSIG_CORE_COST_MODEL_H_
