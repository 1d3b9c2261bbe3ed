/**
 * @file
 * Bitwise reference test for RBF subset selection.
 *
 * buildRbfFromTree() scores center subsets by reusing the incumbent
 * subset's Cholesky rows. This file states the selection from scratch:
 * every score copies G[S,S], solves it with math::choleskySolve
 * (ridge ladder on failure) and sums the residuals point by point,
 * inside the plain tree-ordered and greedy loops. Over random problems
 * the two must agree bit for bit: criterion, training SSE, centers
 * and every weight.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "math/linalg.hh"
#include "math/rng.hh"
#include "rbf/network.hh"
#include "rbf/rbf_rt.hh"
#include "tree/regression_tree.hh"

namespace {

using namespace ppm;
using namespace ppm::rbf;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** From-scratch subset scorer: one G[S,S] copy and solve per fit. */
class ReferenceScorer
{
  public:
    ReferenceScorer(const std::vector<GaussianBasis> &candidates,
                    const std::vector<dspace::UnitPoint> &xs,
                    const std::vector<double> &ys)
        : p_(xs.size()), h_(designMatrix(candidates, xs)), ys_(ys)
    {
        gram_ = h_.gram();
        hty_ = h_.transposeTimes(ys);
        double y_abs_max = 0.0;
        for (double y : ys) {
            yty_ += y * y;
            y_abs_max = std::max(y_abs_max, std::fabs(y));
        }
        weight_cap_ = 1e4 * (y_abs_max + 1.0);
    }

    std::size_t sampleSize() const { return p_; }

    struct Fit
    {
        math::Vector weights;
        double sse = 0.0;
        double weight_max = 0.0;
    };

    Fit
    fitSubset(const std::vector<std::size_t> &s)
    {
        Fit fit;
        if (s.empty()) {
            fit.sse = yty_;
            return fit;
        }
        fit.weights = solveSubset(s);
        for (double w : fit.weights)
            fit.weight_max = std::max(fit.weight_max, std::fabs(w));
        for (std::size_t i = 0; i < p_; ++i) {
            double pred = 0.0;
            const double *row = h_.rowPtr(i);
            for (std::size_t j = 0; j < s.size(); ++j)
                pred += fit.weights[j] * row[s[j]];
            const double e = ys_[i] - pred;
            fit.sse += e * e;
        }
        return fit;
    }

    bool degenerate(const Fit &fit) const
    {
        return fit.weight_max > weight_cap_;
    }

    math::Vector
    solveSubset(const std::vector<std::size_t> &s)
    {
        const std::size_t m = s.size();
        math::Matrix g(m, m);
        math::Vector b(m);
        for (std::size_t i = 0; i < m; ++i) {
            b[i] = hty_[s[i]];
            for (std::size_t j = 0; j < m; ++j)
                g(i, j) = gram_(s[i], s[j]);
        }
        auto w = math::choleskySolve(g, b);
        last_ridged = !w;
        if (w)
            return *w;
        ++counts.ridge_fallbacks;
        for (double ridge = 1e-8; ridge <= 1e-2; ridge *= 100.0) {
            math::Matrix gr = g;
            for (std::size_t i = 0; i < m; ++i)
                gr(i, i) += ridge * (1.0 + g(i, i));
            auto wr = math::choleskySolve(gr, b);
            if (wr)
                return *wr;
        }
        return math::Vector(m, 0.0);
    }

    /** Paths the selection took, so the test can assert coverage. */
    struct Counts
    {
        /** Subsets whose unridged Cholesky failed. */
        std::size_t ridge_fallbacks = 0;
        /** Winning subsets that needed the ridge. */
        std::size_t ridged_incumbents = 0;
    };
    Counts counts;
    /** Whether the last solveSubset() needed the ridge. */
    bool last_ridged = false;

  private:
    std::size_t p_;
    math::Matrix h_;
    std::vector<double> ys_;
    math::Matrix gram_;
    math::Vector hty_;
    double yty_ = 0.0;
    double weight_cap_ = 1e12;
};

std::vector<std::size_t>
selectedIndices(const std::vector<bool> &flags)
{
    std::vector<std::size_t> s;
    for (std::size_t i = 0; i < flags.size(); ++i)
        if (flags[i])
            s.push_back(i);
    return s;
}

double
scoreFlags(ReferenceScorer &scorer, const std::vector<bool> &flags,
           const RbfRtOptions &options)
{
    const auto s = selectedIndices(flags);
    if (options.max_centers && s.size() > options.max_centers)
        return kInf;
    if (s.size() + 2 >= scorer.sampleSize())
        return kInf;
    const auto fit = scorer.fitSubset(s);
    if (scorer.degenerate(fit))
        return kInf;
    return evaluateCriterion(options.criterion, scorer.sampleSize(),
                             s.size(), fit.sse);
}

std::vector<bool>
treeOrderedSelect(ReferenceScorer &scorer,
                  const std::vector<tree::NodeInfo> &nodes,
                  const RbfRtOptions &options)
{
    std::vector<bool> flags(nodes.size(), false);
    flags[0] = true;
    double best = scoreFlags(scorer, flags, options);
    if (!std::isfinite(best))
        return flags;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].is_leaf)
            continue;
        const std::size_t l = nodes[i].left_child;
        const std::size_t r = nodes[i].right_child;
        const bool orig_i = flags[i];
        const bool orig_l = flags[l];
        const bool orig_r = flags[r];
        int best_combo = -1;
        double combo_best = best;
        bool best_ridged = false;
        for (int combo = 0; combo < 8; ++combo) {
            flags[i] = combo & 1;
            flags[l] = combo & 2;
            flags[r] = combo & 4;
            const double score = scoreFlags(scorer, flags, options);
            if (score < combo_best) {
                combo_best = score;
                best_combo = combo;
                best_ridged = scorer.last_ridged;
            }
        }
        if (best_combo < 0) {
            flags[i] = orig_i;
            flags[l] = orig_l;
            flags[r] = orig_r;
        } else {
            flags[i] = best_combo & 1;
            flags[l] = best_combo & 2;
            flags[r] = best_combo & 4;
            best = combo_best;
            scorer.counts.ridged_incumbents += best_ridged;
        }
    }
    if (selectedIndices(flags).empty())
        flags[0] = true;
    return flags;
}

std::vector<bool>
greedySelect(ReferenceScorer &scorer,
             const std::vector<tree::NodeInfo> &nodes,
             const RbfRtOptions &options)
{
    std::vector<bool> flags(nodes.size(), false);
    double best = kInf;
    for (;;) {
        std::size_t best_add = tree::NodeInfo::npos;
        double round_best = best;
        bool best_ridged = false;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (flags[i])
                continue;
            flags[i] = true;
            const double score = scoreFlags(scorer, flags, options);
            flags[i] = false;
            if (score < round_best) {
                round_best = score;
                best_add = i;
                best_ridged = scorer.last_ridged;
            }
        }
        if (best_add == tree::NodeInfo::npos)
            break;
        flags[best_add] = true;
        best = round_best;
        scorer.counts.ridged_incumbents += best_ridged;
    }
    if (selectedIndices(flags).empty())
        flags[0] = true;
    return flags;
}

RbfRtResult
referenceBuild(const tree::RegressionTree &tree,
               const std::vector<dspace::UnitPoint> &xs,
               const std::vector<double> &ys,
               const RbfRtOptions &options, ReferenceScorer::Counts &counts)
{
    const auto nodes = tree.nodes();
    const auto candidates =
        candidateBases(nodes, options.alpha, options.min_radius);
    ReferenceScorer scorer(candidates, xs, ys);
    const auto flags = options.selection == Selection::TreeOrdered
        ? treeOrderedSelect(scorer, nodes, options)
        : greedySelect(scorer, nodes, options);
    const auto selected = selectedIndices(flags);
    std::vector<GaussianBasis> bases;
    for (std::size_t i : selected)
        bases.push_back(candidates[i]);
    RbfRtResult result;
    result.num_candidates = candidates.size();
    const auto weights = scorer.solveSubset(selected);
    result.network = RbfNetwork(std::move(bases),
                                {weights.begin(), weights.end()});
    result.train_sse = scorer.fitSubset(selected).sse;
    result.criterion_value = evaluateCriterion(
        options.criterion, xs.size(), selected.size(), result.train_sse);
    counts.ridge_fallbacks += scorer.counts.ridge_fallbacks;
    counts.ridged_incumbents += scorer.counts.ridged_incumbents;
    return result;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** One random selection problem. */
struct Problem
{
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    int p_min = 1;
    RbfRtOptions options;
};

/**
 * Random problem: p in {30, 60, 100, 200} (odds 16:8:4:1), p_min 1 or
 * 2, any criterion, sometimes a center cap, greedy selection at
 * p <= 60. Three in four are 9-D with some duplicated points
 * (collinear bases that need the ridge fallback) and alpha in [2, 12].
 * The rest are smooth and noise-free, y = sin(6 x_0) in 1 to 9
 * dimensions with alpha in [8, 40]: ill-conditioned enough that
 * subsets which needed the ridge win and become the incumbent.
 */
Problem
randomProblem(math::Rng &rng)
{
    static constexpr std::size_t kSizes[] = {30, 60, 100, 200};
    static constexpr std::uint64_t kOdds[] = {16, 8, 4, 1};
    Problem pb;
    std::uint64_t draw = rng.uniformInt(std::uint64_t{29});
    std::size_t size = 0;
    while (draw >= kOdds[size])
        draw -= kOdds[size++];
    const std::size_t p = kSizes[size];
    const bool smooth = rng.uniform() < 0.25;
    const std::size_t dims =
        smooth ? 1 + rng.uniformInt(std::uint64_t{9}) : 9;
    const double dup_frac = rng.uniform() < 0.5 ? 0.0 : 0.3;
    const double a = rng.uniform(-2.0, 2.0);
    const double noise = rng.uniform() < 0.3 ? 0.0 : 0.05;
    for (std::size_t i = 0; i < p; ++i) {
        dspace::UnitPoint x(dims);
        if (!smooth && i > 0 && rng.uniform() < dup_frac) {
            x = pb.xs[rng.uniformInt(std::uint64_t{i})];
        } else {
            for (auto &v : x)
                v = rng.uniform();
        }
        pb.ys.push_back(smooth ? std::sin(6.0 * x[0])
                               : 1.0 + a * x[0] + 2.0 * x[1] * x[4] +
                                     1.0 / (0.2 + x[5]) +
                                     noise * rng.gaussian());
        pb.xs.push_back(std::move(x));
    }
    pb.p_min = rng.uniform() < 0.5 ? 1 : 2;
    pb.options.alpha =
        smooth ? rng.uniform(8.0, 40.0) : rng.uniform(2.0, 12.0);
    static constexpr Criterion kCriteria[] = {
        Criterion::AICc, Criterion::BIC, Criterion::GCV};
    pb.options.criterion = kCriteria[rng.uniformInt(std::uint64_t{3})];
    static constexpr std::size_t kCaps[] = {0, 0, 3, 12};
    pb.options.max_centers = kCaps[rng.uniformInt(std::uint64_t{4})];
    if (p <= 60 && rng.uniform() < 0.3)
        pb.options.selection = Selection::GreedyForward;
    return pb;
}

void
expectBitIdentical(const RbfRtResult &got, const RbfRtResult &want,
                   int problem)
{
    SCOPED_TRACE(::testing::Message() << "problem " << problem);
    EXPECT_EQ(bits(got.criterion_value), bits(want.criterion_value));
    EXPECT_EQ(bits(got.train_sse), bits(want.train_sse));
    EXPECT_EQ(got.num_candidates, want.num_candidates);
    const auto &gb = got.network.bases();
    const auto &wb = want.network.bases();
    ASSERT_EQ(gb.size(), wb.size());
    for (std::size_t j = 0; j < gb.size(); ++j) {
        EXPECT_EQ(gb[j].center(), wb[j].center());
        EXPECT_EQ(gb[j].radius(), wb[j].radius());
        EXPECT_EQ(bits(got.network.weights()[j]),
                  bits(want.network.weights()[j]));
    }
}

TEST(RbfSelectReference, MatchesFromScratchSelectionBitForBit)
{
    math::Rng rng(20061209);
    ReferenceScorer::Counts counts;
    std::size_t greedy = 0;
    std::size_t capped = 0;
    constexpr int kProblems = 1000;
    for (int k = 0; k < kProblems; ++k) {
        const Problem pb = randomProblem(rng);
        const tree::RegressionTree tree(pb.xs, pb.ys, pb.p_min);
        const RbfRtResult got =
            buildRbfFromTree(tree, pb.xs, pb.ys, pb.options);
        const RbfRtResult want = referenceBuild(
            tree, pb.xs, pb.ys, pb.options, counts);
        expectBitIdentical(got, want, k);
        greedy += pb.options.selection == Selection::GreedyForward;
        capped += pb.options.max_centers != 0;
        if (HasFailure())
            return;
    }
    // The mix reached every path: greedy, capped, the ridge ladder, and
    // an incumbent whose factor holds rows that needed the ridge.
    EXPECT_GT(greedy, 0u);
    EXPECT_GT(capped, 0u);
    EXPECT_GT(counts.ridge_fallbacks, 0u);
    EXPECT_GT(counts.ridged_incumbents, 0u);
}

TEST(RbfSelectReference, MatchesOnSamplesSpanningDesignBlocks)
{
    // The scorer evaluates the design matrix 64 points at a time;
    // 600 points make nine full blocks and a partial one.
    math::Rng rng(600);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 600; ++i) {
        dspace::UnitPoint x(9);
        for (auto &v : x)
            v = rng.uniform();
        ys.push_back(1.0 + x[0] + 2.0 * x[1] * x[4] + 1.0 / (0.2 + x[5]) +
                     0.05 * rng.gaussian());
        xs.push_back(std::move(x));
    }
    const tree::RegressionTree tree(xs, ys, 8);
    for (Criterion criterion :
         {Criterion::AICc, Criterion::BIC, Criterion::GCV}) {
        RbfRtOptions options;
        options.alpha = 6.0;
        options.criterion = criterion;
        ReferenceScorer::Counts counts;
        const RbfRtResult got = buildRbfFromTree(tree, xs, ys, options);
        const RbfRtResult want =
            referenceBuild(tree, xs, ys, options, counts);
        EXPECT_GT(got.network.numBases(), 1u);
        expectBitIdentical(got, want, static_cast<int>(criterion));
    }
}

TEST(RbfSelectReference, TinySampleKeepsRootLikeReference)
{
    // p = 3: no subset passes the m + 2 < p guard, so both keep the
    // root alone and fit it without the guard.
    std::vector<dspace::UnitPoint> xs = {
        {0.1, 0.2}, {0.7, 0.4}, {0.5, 0.9}};
    std::vector<double> ys = {1.0, 2.0, 1.5};
    const tree::RegressionTree tree(xs, ys, 1);
    for (Selection sel :
         {Selection::TreeOrdered, Selection::GreedyForward}) {
        RbfRtOptions options;
        options.selection = sel;
        ReferenceScorer::Counts counts;
        const RbfRtResult got = buildRbfFromTree(tree, xs, ys, options);
        const RbfRtResult want =
            referenceBuild(tree, xs, ys, options, counts);
        EXPECT_EQ(got.network.numBases(), 1u);
        expectBitIdentical(got, want, 0);
    }
}

} // namespace
