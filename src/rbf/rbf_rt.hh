/**
 * @file
 * RBF network construction from a regression tree — a clean-room C++
 * implementation of the scheme in Orr et al. (2000) / Orr's MATLAB
 * rbf_rt_1, updated (as in the paper, Sec 2.6) to select the center
 * subset with AIC_c.
 *
 * Every tree node contributes one candidate Gaussian basis whose center
 * is the node's hyper-rectangle center and whose radii are the
 * rectangle's edge lengths scaled by alpha (paper Eq 8). Centers are
 * then admitted with tree-ordered selection: starting at the root,
 * each internal node's {parent, left child, right child} inclusion
 * flags are jointly re-chosen among the 8 possibilities to minimize the
 * model-selection criterion (paper Sec 2.5).
 */

#ifndef PPM_RBF_RBF_RT_HH
#define PPM_RBF_RBF_RT_HH

#include <cstddef>
#include <vector>

#include "dspace/design_space.hh"
#include "math/matrix.hh"
#include "rbf/criteria.hh"
#include "rbf/network.hh"
#include "tree/regression_tree.hh"

namespace ppm::rbf {

/** How candidate centers are admitted into the network. */
enum class Selection
{
    /** Orr's tree-ordered 8-way local search (the paper's method). */
    TreeOrdered,
    /** Greedy forward selection over all candidates (ablation). */
    GreedyForward,
};

/** Name of a Selection value. */
std::string selectionName(Selection s);

/** Options for buildRbfFromTree(). */
struct RbfRtOptions
{
    /** Radius scale alpha in r = alpha * s (paper Eq 8). */
    double alpha = 7.0;
    /** Criterion minimized during subset selection. */
    Criterion criterion = Criterion::AICc;
    /** Selection strategy. */
    Selection selection = Selection::TreeOrdered;
    /**
     * Floor on any radius component. Deep tree nodes can be very thin
     * along a repeatedly-split dimension; a zero-width radius would
     * make the basis a spike that cannot generalize.
     */
    double min_radius = 1e-3;
    /**
     * Optional cap on the number of selected centers (0 = no cap
     * beyond what the criterion itself imposes).
     */
    std::size_t max_centers = 0;
};

/** Result of RBF construction. */
struct RbfRtResult
{
    /** The selected and weighted network. */
    RbfNetwork network;
    /** Criterion value of the selected subset. */
    double criterion_value = 0.0;
    /** Training sum of squared errors of the final fit. */
    double train_sse = 0.0;
    /** Number of candidate centers considered (tree nodes). */
    std::size_t num_candidates = 0;
};

/**
 * Build an RBF network from a fitted regression tree and its training
 * data: buildRbfFromGram() over the tree's own candidates.
 *
 * @param tree Regression tree fitted to (xs, ys).
 * @param xs Training inputs (unit space).
 * @param ys Training responses.
 * @param options Construction options.
 */
RbfRtResult buildRbfFromTree(const tree::RegressionTree &tree,
                             const std::vector<dspace::UnitPoint> &xs,
                             const std::vector<double> &ys,
                             const RbfRtOptions &options = {});

/**
 * A tree's node list together with each node's position in a finer
 * tree's list over the same sample.
 */
struct PrunedNodes
{
    /** Breadth-first node list, as tree::RegressionTree::nodes(). */
    std::vector<tree::NodeInfo> nodes;
    /** nodes[k] is node fine_index[k] of the finer list (ascending). */
    std::vector<std::size_t> fine_index;
};

/**
 * The node list RegressionTree(xs, ys, p_min).nodes() would give, cut
 * from the list @p fine of a tree grown on the same (xs, ys) with a
 * p_min no larger. A node's points, split and statistics do not depend
 * on p_min; only the stop rule (count <= p_min) does, so the coarser
 * tree is the finer one with every node of <= p_min points made a
 * leaf. Breadth-first order restricted to the kept nodes is the
 * coarser tree's breadth-first order, so fine_index ascends.
 */
PrunedNodes pruneNodes(const std::vector<tree::NodeInfo> &fine,
                       int p_min);

/**
 * Everything subset selection reads about one alpha's candidate bases
 * over a node list (candidateBases()): the candidate-major design
 * matrix H^T, the packed lower triangle of G = H^T H, H^T y, y^T y and
 * the weight cap. Every entry is summed over the points in ascending
 * order, so an entry depends only on its own two candidates: the data
 * of a pruned list's candidates are read from the finer list's, bit
 * for bit. Immutable after construction, and shared read-only by every
 * p_min cell of the grid search.
 */
class CandidateGram
{
  public:
    /**
     * @param nodes Candidate node list (a tree's finest list).
     * @param xs Training inputs (unit space).
     * @param ys Training responses.
     * @param alpha Radius scale (RbfRtOptions::alpha).
     * @param min_radius Radius floor (RbfRtOptions::min_radius).
     */
    CandidateGram(const std::vector<tree::NodeInfo> &nodes,
                  const std::vector<dspace::UnitPoint> &xs,
                  const std::vector<double> &ys, double alpha,
                  double min_radius);

    /** Radius scale of the candidates. */
    double alpha() const { return alpha_; }
    /** Radius floor of the candidates. */
    double minRadius() const { return min_radius_; }
    /** Number of training points. */
    std::size_t points() const { return ys_.size(); }
    /** Training responses. */
    const std::vector<double> &responses() const { return ys_; }
    /** H^T: row i holds candidate i's response at every point. */
    const math::Matrix &designT() const { return ht_; }
    /** Row i of G's packed lower triangle: G(i, j) for j <= i. */
    const double *gramRow(std::size_t i) const;
    /** H^T y. */
    const std::vector<double> &hty() const { return hty_; }
    /** y^T y. */
    double yty() const { return yty_; }
    /**
     * Largest |w| of a usable fit: subsets whose fit needs absurdly
     * large (cancelling) weights are numerically degenerate.
     */
    double weightCap() const { return weight_cap_; }

  private:
    double alpha_;
    double min_radius_;
    std::vector<double> ys_;
    math::Matrix ht_;
    std::vector<double> gram_;
    std::vector<double> hty_;
    double yty_ = 0.0;
    double weight_cap_ = 1e12;
};

/**
 * Select and fit one grid cell's network over shared candidate data.
 * Subset selection walks @p cell.nodes; candidate k is @p gram's
 * candidate cell.fine_index[k]. The result is bit-identical to
 * buildRbfFromTree() on the tree @p cell.nodes came from, with
 * @p gram's alpha.
 *
 * @param gram Candidate data over the finer node list.
 * @param cell The cell's nodes (pruneNodes(), or an identity map).
 * @param options criterion, selection and max_centers are read; alpha
 *        and min_radius are @p gram's.
 */
RbfRtResult buildRbfFromGram(const CandidateGram &gram,
                             const PrunedNodes &cell,
                             const RbfRtOptions &options);

/**
 * Turn tree nodes into candidate bases (centers at hyper-rectangle
 * centers, radii alpha * size, floored at min_radius). Exposed for
 * testing and for the greedy ablation path.
 */
std::vector<GaussianBasis> candidateBases(
    const std::vector<tree::NodeInfo> &nodes, double alpha,
    double min_radius);

} // namespace ppm::rbf

#endif // PPM_RBF_RBF_RT_HH
