/**
 * @file
 * Radial basis function network (paper Eq 1):
 *
 *   f(x) = sum_j w_j h_j(x)
 *
 * A hidden layer of Gaussian bases feeding a linear output unit. The
 * weights are fit by least squares against the simulated responses.
 *
 * Construction compiles the network once into a BatchPlan (see
 * rbf_batch.hh): a structure-of-arrays, SIMD-dispatched evaluation
 * plan that both the single-point and the batched predict route
 * through, so predictions are bit-identical at every batch size and
 * `PPM_SIMD=off` reproduces the legacy scalar loop bit-exactly.
 */

#ifndef PPM_RBF_NETWORK_HH
#define PPM_RBF_NETWORK_HH

#include <memory>
#include <span>
#include <vector>

#include "dspace/design_space.hh"
#include "math/matrix.hh"
#include "rbf/basis.hh"
#include "rbf/rbf_batch.hh"

namespace ppm::rbf {

/**
 * A trained RBF network: m Gaussian bases plus output weights.
 * Copies share the immutable compiled evaluation plan.
 */
class RbfNetwork
{
  public:
    RbfNetwork() = default;

    /**
     * @param bases Hidden-layer basis functions (all one
     *              dimensionality, at least one).
     * @param weights Output weights, one per basis.
     * @throws std::invalid_argument on an empty basis set, mixed
     *         basis dimensionalities, or a weight-count mismatch —
     *         checked unconditionally so release builds fail at the
     *         construction site instead of predicting garbage.
     */
    RbfNetwork(std::vector<GaussianBasis> bases,
               std::vector<double> weights);

    /**
     * Network response f(x) at a unit-space point.
     * @throws std::logic_error on an empty network and
     *         std::invalid_argument on a dimensionality mismatch
     *         (typed errors the serve path turns into protocol Error
     *         replies; release builds previously hit UB here).
     */
    double predict(const dspace::UnitPoint &x) const;

    /**
     * Batch prediction through the compiled plan; element i is
     * bit-identical to predict(xs[i]).
     */
    std::vector<double> predict(
        const std::vector<dspace::UnitPoint> &xs) const;

    /**
     * The same over points of @p dims coordinates stored back to back
     * in @p rows (see BatchPlan::predictRows).
     */
    std::vector<double> predictRows(std::span<const double> rows,
                                    std::size_t dims) const;

    /** Number of hidden units m. */
    std::size_t numBases() const { return bases_.size(); }

    /** Input dimensionality n (0 for an empty network). */
    std::size_t dimensions() const;

    const std::vector<GaussianBasis> &bases() const { return bases_; }
    const std::vector<double> &weights() const { return weights_; }

    /** The compiled evaluation plan (null for an empty network). */
    const std::shared_ptr<const BatchPlan> &plan() const
    {
        return plan_;
    }

    /** True iff the network has no bases (default constructed). */
    bool empty() const { return bases_.empty(); }

  private:
    std::vector<GaussianBasis> bases_;
    std::vector<double> weights_;
    std::shared_ptr<const BatchPlan> plan_;
};

/**
 * Hidden-layer design matrix H with H(i, j) = h_j(xs[i]) for a set of
 * candidate bases. Column j corresponds to bases[j]. Evaluated
 * through a batched SoA plan; bit-identical to the per-element loop
 * under PPM_SIMD=off.
 *
 * Compiles a fresh BatchPlan per call — an O(m * d) transpose,
 * negligible next to the O(n * m * d) evaluation when every point is
 * scored once (the trainer builds H once and scores candidate subsets
 * off the Gram matrix). A caller that evaluates the *same* basis set
 * against many batches should compile a BatchPlan once and use its
 * designMatrix member instead.
 */
math::Matrix designMatrix(const std::vector<GaussianBasis> &bases,
                          const std::vector<dspace::UnitPoint> &xs);

/**
 * Fit output weights for @p bases against responses @p ys by least
 * squares and return the resulting network.
 */
RbfNetwork fitWeights(std::vector<GaussianBasis> bases,
                      const std::vector<dspace::UnitPoint> &xs,
                      const std::vector<double> &ys);

} // namespace ppm::rbf

#endif // PPM_RBF_NETWORK_HH
