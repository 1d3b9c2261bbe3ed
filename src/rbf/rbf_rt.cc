#include "rbf/rbf_rt.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "rbf/rbf_batch.hh"
#include "rbf/train_kernels.hh"

namespace ppm::rbf {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Sorted candidate indices of a center subset. */
using Indices = std::vector<std::size_t>;

/**
 * Training points per design-matrix block in CandidateGram. The block
 * is transient and point-major (~200 KB at 399 candidates); G
 * continues across blocks from its stored partial sums, so the block
 * size changes no bit. 256-point blocks measured ~1.3 MiB more peak
 * RSS in the warm Table 3 build benchmark.
 */
constexpr std::size_t kDesignBlock = 64;

/**
 * Scores center subsets of one grid cell against the training data.
 *
 * The Gram matrix G = H^T H and correlation vector H^T y come from a
 * CandidateGram shared with the other cells of the same alpha; the
 * cell's candidate k is the shared candidate fine_index[k]. The map
 * ascends, so a sorted subset maps to a sorted subset and every
 * G(s_i, s_j) read (j <= i) lies in the packed lower triangle. Scoring
 * a subset S solves the normal equations G[S,S] w = (H^T y)[S] by
 * Cholesky and takes the SSE from the actual residuals y - H[:,S] w,
 * never from the shortcut y^T y - w^T (H^T y)[S], which cancels
 * catastrophically when G[S,S] is near singular.
 *
 * Every score reuses the incumbent subset's factor. math::cholesky is
 * left-looking, so row i of L depends only on the leading
 * (i+1) x (i+1) block of G, in the same operation order: a subset
 * whose first q sorted indices equal the incumbent's has the
 * incumbent's first q rows of L and of z = L^-1 (H^T y)[S], bit for
 * bit. Only rows q..m-1 are computed, one at a time, reading G
 * straight from the shared Gram matrix. The back substitution, the
 * ridge fallback and the residual pass run from scratch in
 * math::choleskySolve's summation order, so every weight and SSE
 * equals a from-scratch fit's.
 *
 * The subset scored last can be held as a round's best and then
 * promoted to incumbent; both are buffer swaps. Buffers are sized at
 * construction, so a score allocates nothing. A scorer serves one
 * grid cell.
 */
class SubsetScorer
{
  public:
    SubsetScorer(const CandidateGram &gram,
                 const std::vector<std::size_t> &fine_index,
                 const RbfRtOptions &options)
        : gram_(gram), fine_index_(fine_index), p_(gram.points()),
          criterion_(options.criterion),
          max_centers_(options.max_centers), kind_(activeSimd())
    {
        pred_.resize(p_);
        // score() admits at most p - 3 centers (and max_centers); the
        // final fit may fall back to the root alone.
        std::size_t cap = std::min(fine_index.size(),
                                   p_ >= 3 ? p_ - 3 : 0);
        if (max_centers_)
            cap = std::min(cap, max_centers_);
        reserve(std::max<std::size_t>(cap, 1));
    }

    /** Sorted indices of the incumbent subset (empty at first). */
    const Indices &incumbent() const { return inc_.idx; }

    /**
     * Criterion value of subset @p s, or +inf when @p s has too many
     * centers for the sample or a degenerate fit.
     */
    double
    score(const Indices &s)
    {
        const std::size_t m = s.size();
        if (max_centers_ && m > max_centers_)
            return kInf;
        if (m + 2 >= p_)
            return kInf;
        if (solve(s) > gram_.weightCap())
            return kInf;
        return evaluateCriterion(criterion_, p_, m, residualSse(m));
    }

    /** Keep the subset scored last as the round's best so far. */
    void hold() { std::swap(cand_, held_); }

    /** Make the held subset the incumbent. */
    void
    promote()
    {
        // The held subset's leading rows were read from the incumbent.
        std::copy_n(inc_.rows.begin(), packedRow(held_.shared),
                    held_.rows.begin());
        std::swap(inc_, held_);
    }

    /** Least-squares weights of a subset and their training SSE. */
    struct Fit
    {
        std::span<const double> weights;
        double sse = 0.0;
    };

    /** Fit subset @p s; the weights stay valid until the next call. */
    Fit
    fit(const Indices &s)
    {
        solve(s);
        return {{weights_.data(), s.size()}, residualSse(s.size())};
    }

  private:
    /** A subset's packed Cholesky rows and forward-substituted z. */
    struct Factor
    {
        Indices idx;
        std::vector<double> rows;
        std::vector<double> z;
        /** Leading rows that factored without a ridge. */
        std::size_t clean = 0;
        /** Leading rows taken from the incumbent when scored. */
        std::size_t shared = 0;
    };

    /** Size every buffer for subsets of up to @p m centers. */
    void
    reserve(std::size_t m)
    {
        if (m <= rowp_.size())
            return;
        for (Factor *f : {&inc_, &cand_, &held_, &ridge_}) {
            f->idx.reserve(m);
            f->rows.resize(packedRow(m));
            f->z.resize(m);
        }
        rowp_.resize(m);
        weights_.resize(m);
        fine_.resize(m);
        cols_.resize(m);
    }

    /**
     * Solve G[S,S] w = (H^T y)[S] into weights_, reusing the rows the
     * incumbent shares with @p s, and map @p s into fine_.
     *
     * @return max |w|.
     */
    double
    solve(const Indices &s)
    {
        const std::size_t m = s.size();
        reserve(m);
        for (std::size_t i = 0; i < m; ++i) {
            fine_[i] = fine_index_[s[i]];
            assert(i == 0 || fine_[i - 1] < fine_[i]);
        }
        const std::size_t limit =
            std::min({m, inc_.idx.size(), inc_.clean});
        std::size_t q = 0;
        while (q < limit && s[q] == inc_.idx[q])
            ++q;
        for (std::size_t i = 0; i < q; ++i)
            rowp_[i] = inc_.rows.data() + packedRow(i);
        std::copy_n(inc_.z.begin(), q, cand_.z.begin());
        cand_.idx.assign(s.begin(), s.end());
        cand_.shared = q;
        cand_.clean = factor(s, q, cand_, 0.0);
        if (cand_.clean == m) {
            backSubstitute(m, cand_.z);
        } else {
            // Nearly collinear bases (e.g. a node and a child covering
            // the same points); regularize slightly and retry from
            // scratch. The unridged attempt is known to fail.
            bool solved = false;
            for (double ridge = 1e-8; ridge <= 1e-2; ridge *= 100.0) {
                if (factor(s, 0, ridge_, ridge) == m) {
                    backSubstitute(m, ridge_.z);
                    solved = true;
                    break;
                }
            }
            if (!solved)
                std::fill_n(weights_.begin(), m, 0.0);
        }
        double weight_max = 0.0;
        for (std::size_t j = 0; j < m; ++j)
            weight_max = std::max(weight_max, std::fabs(weights_[j]));
        return weight_max;
    }

    /**
     * Compute rows q..m-1 of the Cholesky factor of G[S,S] (plus
     * ridge * (1 + G(i,i)) on the diagonal) and the matching entries
     * of z into @p out, in math::cholesky's operation order:
     * l(i,j) = (G(i,j) - sum_{k<j} l(i,k) l(j,k)) / l(j,j), k
     * ascending. Rows below q are read through rowp_; G and H^T y
     * through fine_.
     *
     * @return m, or the first row whose diagonal is not positive.
     */
    std::size_t
    factor(const Indices &s, std::size_t q, Factor &out, double ridge)
    {
        const std::size_t m = s.size();
        const std::vector<double> &hty = gram_.hty();
        for (std::size_t i = q; i < m; ++i) {
            double *li = out.rows.data() + packedRow(i);
            const double *gi = gram_.gramRow(fine_[i]);
            for (std::size_t j = 0; j < i; ++j) {
                const double *lj = rowp_[j];
                double acc = gi[fine_[j]];
                for (std::size_t k = 0; k < j; ++k)
                    acc -= li[k] * lj[k];
                li[j] = acc / lj[j];
            }
            double diag = gi[fine_[i]];
            if (ridge > 0.0)
                diag += ridge * (1.0 + diag);
            for (std::size_t k = 0; k < i; ++k)
                diag -= li[k] * li[k];
            if (diag <= 0.0 || !std::isfinite(diag))
                return i;
            li[i] = std::sqrt(diag);
            rowp_[i] = li;
            double acc = hty[fine_[i]];
            for (std::size_t k = 0; k < i; ++k)
                acc -= li[k] * out.z[k];
            out.z[i] = acc / li[i];
        }
        return m;
    }

    /** Solve L^T w = z into weights_ with the rows in rowp_. */
    void
    backSubstitute(std::size_t m, const std::vector<double> &z)
    {
        for (std::size_t ii = m; ii-- > 0;) {
            double acc = z[ii];
            for (std::size_t k = ii + 1; k < m; ++k)
                acc -= rowp_[k][ii] * weights_[k];
            weights_[ii] = acc / rowp_[ii][ii];
        }
    }

    /**
     * Residual SSE of weights_ on the m centers in fine_: per point,
     * the sum over centers in order; then the squared errors in point
     * order.
     */
    double
    residualSse(std::size_t m)
    {
        if (m == 0)
            return gram_.yty();
        for (std::size_t j = 0; j < m; ++j)
            cols_[j] = gram_.designT().rowPtr(fine_[j]);
        residualPredict(kind_, cols_.data(), weights_.data(), m, p_,
                        pred_.data());
        const std::vector<double> &ys = gram_.responses();
        double sse = 0.0;
        for (std::size_t i = 0; i < p_; ++i) {
            const double e = ys[i] - pred_[i];
            sse += e * e;
        }
        return sse;
    }

    const CandidateGram &gram_;
    const std::vector<std::size_t> &fine_index_;
    std::size_t p_;
    Criterion criterion_;
    std::size_t max_centers_;
    SimdKind kind_;

    Factor inc_;
    Factor cand_;
    Factor held_;
    /** Scratch for the from-scratch ridge attempts. */
    Factor ridge_;
    /** Row i of the factor being solved. */
    std::vector<const double *> rowp_;
    std::vector<double> weights_;
    /** The subset solved last, as shared candidate indices. */
    Indices fine_;
    /** Its H^T rows, for the residual pass. */
    std::vector<const double *> cols_;
    std::vector<double> pred_;
};

/**
 * The paper's tree-ordered selection: walk internal nodes breadth
 * first; at each, jointly re-decide the inclusion of the node and its
 * two children among all 8 combinations. Leaves the selection as the
 * scorer's incumbent.
 */
void
treeOrderedSelect(SubsetScorer &scorer,
                  const std::vector<tree::NodeInfo> &nodes)
{
    // Start from the root center (paper Sec 2.5).
    Indices trial{0};
    double best = scorer.score(trial);
    if (!std::isfinite(best)) {
        // Sample too small for even a one-center model under the
        // criterion guard; the caller keeps just the root.
        return;
    }
    scorer.hold();
    scorer.promote();

    // The incumbent without the node and its children.
    Indices rest;
    rest.reserve(nodes.size());
    trial.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto &node = nodes[i];
        if (node.is_leaf)
            continue;
        const std::size_t picks[3] = {i, node.left_child,
                                      node.right_child};
        // Breadth-first order: children follow every selected index,
        // so combinations that keep the node's flag share all but the
        // trailing rows of the incumbent's factor.
        assert(picks[0] < picks[1] && picks[1] < picks[2] &&
               picks[2] < nodes.size());

        std::uint8_t own = 0;
        rest.clear();
        for (std::size_t k : scorer.incumbent()) {
            const auto at = std::find(picks, picks + 3, k) - picks;
            if (at < 3)
                own |= 1 << at;
            else
                rest.push_back(k);
        }

        bool improved = false;
        double combo_best = best;
        for (std::uint8_t combo = 0; combo < 8; ++combo) {
            // The incumbent's own combination scores exactly `best`,
            // which never beats combo_best.
            if (combo == own)
                continue;
            trial.clear();
            auto from = rest.cbegin();
            for (int b = 0; b < 3; ++b) {
                if (!(combo >> b & 1))
                    continue;
                const auto to =
                    std::lower_bound(from, rest.cend(), picks[b]);
                trial.insert(trial.end(), from, to);
                trial.push_back(picks[b]);
                from = to;
            }
            trial.insert(trial.end(), from, rest.cend());
            const double score = scorer.score(trial);
            if (score < combo_best) {
                combo_best = score;
                improved = true;
                scorer.hold();
            }
        }
        if (improved) {
            scorer.promote();
            best = combo_best;
        }
    }
}

/**
 * Greedy forward selection over all candidates (ablation). Leaves the
 * selection as the scorer's incumbent.
 */
void
greedySelect(SubsetScorer &scorer, std::size_t candidates)
{
    Indices trial;
    trial.reserve(candidates);
    double best = kInf;
    for (;;) {
        const Indices &inc = scorer.incumbent();
        bool improved = false;
        double round_best = best;
        auto at = inc.cbegin();
        for (std::size_t i = 0; i < candidates; ++i) {
            // `at` is i's sorted position in the incumbent.
            while (at != inc.cend() && *at < i)
                ++at;
            if (at != inc.cend() && *at == i)
                continue;
            trial.assign(inc.cbegin(), at);
            trial.push_back(i);
            trial.insert(trial.end(), at, inc.cend());
            const double score = scorer.score(trial);
            if (score < round_best) {
                round_best = score;
                improved = true;
                scorer.hold();
            }
        }
        if (!improved)
            break;
        scorer.promote();
        best = round_best;
    }
}

} // namespace

std::string
selectionName(Selection s)
{
    return s == Selection::TreeOrdered ? "tree-ordered"
                                       : "greedy-forward";
}

std::vector<GaussianBasis>
candidateBases(const std::vector<tree::NodeInfo> &nodes, double alpha,
               double min_radius)
{
    assert(alpha > 0.0);
    std::vector<GaussianBasis> bases;
    bases.reserve(nodes.size());
    for (const auto &node : nodes) {
        std::vector<double> radius(node.size.size());
        for (std::size_t k = 0; k < node.size.size(); ++k)
            radius[k] = std::max(alpha * node.size[k], min_radius);
        bases.emplace_back(node.center, std::move(radius));
    }
    return bases;
}

PrunedNodes
pruneNodes(const std::vector<tree::NodeInfo> &fine, int p_min)
{
    assert(!fine.empty() && p_min >= 1);
    const auto cut = static_cast<std::size_t>(p_min);
    PrunedNodes out;
    // Walking the finer list in order visits the kept nodes in the
    // coarser tree's breadth-first order, so children are numbered
    // as RegressionTree::nodes() numbers them.
    std::vector<bool> kept(fine.size(), false);
    kept[0] = true;
    std::size_t next_index = 1;
    for (std::size_t f = 0; f < fine.size(); ++f) {
        if (!kept[f])
            continue;
        tree::NodeInfo node = fine[f];
        if (!node.is_leaf && node.count > cut) {
            kept[node.left_child] = true;
            kept[node.right_child] = true;
            node.left_child = next_index++;
            node.right_child = next_index++;
        } else {
            node.is_leaf = true;
            node.left_child = tree::NodeInfo::npos;
            node.right_child = tree::NodeInfo::npos;
        }
        out.nodes.push_back(std::move(node));
        out.fine_index.push_back(f);
    }
    return out;
}

CandidateGram::CandidateGram(const std::vector<tree::NodeInfo> &nodes,
                             const std::vector<dspace::UnitPoint> &xs,
                             const std::vector<double> &ys, double alpha,
                             double min_radius)
    : alpha_(alpha), min_radius_(min_radius), ys_(ys)
{
    assert(xs.size() == ys.size());
    assert(!xs.empty());
    // H is evaluated a block of points at a time and kept only
    // candidate-major, so the residual pass reads whole columns and
    // H is never held in both layouts. G and H^T y accumulate point
    // by point in Matrix::gram()'s and Matrix::transposeTimes()'s
    // order; the Gram tiles continue across blocks from their stored
    // partial sums.
    const std::size_t n = nodes.size();
    const std::size_t p = xs.size();
    const SimdKind kind = activeSimd();
    const BatchPlan plan(candidateBases(nodes, alpha, min_radius), {});
    for (std::size_t r0 = 0; r0 < p; r0 += kDesignBlock) {
        const std::size_t r1 = std::min(p, r0 + kDesignBlock);
        const math::Matrix h =
            plan.designMatrix({xs.begin() + r0, xs.begin() + r1});
        if (r0 == 0) {
            // Allocated after the first block on purpose: allocated
            // before it, these raised the peak RSS of the Table 3
            // build benchmark by ~5% (glibc malloc, 4 threads).
            gram_.assign(packedRow(n), 0.0);
            hty_.assign(n, 0.0);
            ht_ = math::Matrix(n, p);
        }
        for (std::size_t r = r0; r < r1; ++r) {
            const double *a = h.rowPtr(r - r0);
            const double yr = ys[r];
            for (std::size_t i = 0; i < n; ++i)
                hty_[i] += a[i] * yr;
        }
        gramAccumulate(kind, h.rowPtr(0), r1 - r0, n, gram_.data());
        for (std::size_t i = 0; i < n; ++i) {
            double *t = ht_.rowPtr(i);
            for (std::size_t r = r0; r < r1; ++r)
                t[r] = h.rowPtr(r - r0)[i];
        }
    }
    double y_abs_max = 0.0;
    for (double y : ys) {
        yty_ += y * y;
        y_abs_max = std::max(y_abs_max, std::fabs(y));
    }
    weight_cap_ = 1e4 * (y_abs_max + 1.0);
}

const double *
CandidateGram::gramRow(std::size_t i) const
{
    assert(i < hty_.size());
    return gram_.data() + packedRow(i);
}

RbfRtResult
buildRbfFromGram(const CandidateGram &gram, const PrunedNodes &cell,
                 const RbfRtOptions &options)
{
    assert(cell.nodes.size() == cell.fine_index.size());
    SubsetScorer scorer(gram, cell.fine_index, options);
    if (options.selection == Selection::TreeOrdered)
        treeOrderedSelect(scorer, cell.nodes);
    else
        greedySelect(scorer, cell.nodes.size());

    Indices selected = scorer.incumbent();
    if (selected.empty())
        selected.push_back(0);
    std::vector<tree::NodeInfo> chosen;
    chosen.reserve(selected.size());
    for (std::size_t i : selected)
        chosen.push_back(cell.nodes[i]);

    RbfRtResult result;
    result.num_candidates = cell.nodes.size();
    const auto fit = scorer.fit(selected);
    result.network = RbfNetwork(
        candidateBases(chosen, gram.alpha(), gram.minRadius()),
        {fit.weights.begin(), fit.weights.end()});
    result.train_sse = fit.sse;
    result.criterion_value = evaluateCriterion(
        options.criterion, gram.points(), selected.size(), result.train_sse);
    return result;
}

RbfRtResult
buildRbfFromTree(const tree::RegressionTree &tree,
                 const std::vector<dspace::UnitPoint> &xs,
                 const std::vector<double> &ys,
                 const RbfRtOptions &options)
{
    PrunedNodes all;
    all.nodes = tree.nodes();
    all.fine_index.resize(all.nodes.size());
    std::iota(all.fine_index.begin(), all.fine_index.end(), 0);
    const CandidateGram gram(all.nodes, xs, ys, options.alpha,
                             options.min_radius);
    return buildRbfFromGram(gram, all, options);
}

} // namespace ppm::rbf
