/**
 * @file
 * Batched structure-of-arrays evaluation of trained RBF networks.
 *
 * The naive inference path walks an array-of-structures — one heap
 * vector per basis for the center and another for the radii — and
 * calls std::exp once per (query, basis) pair. BatchPlan restructures
 * a trained network once into dimension-major arrays (centers and
 * inverse-squared radii laid out per dimension, 64-byte aligned,
 * padded to the SIMD lane width) and evaluates the Gaussian basis
 * (paper Eq 2) four bases at a time with AVX2+FMA kernels (two on
 * NEON), including a vectorized exp. Kernel selection is a runtime
 * CPUID dispatch with the scalar reference kept bit-compatible with
 * the legacy GaussianBasis path.
 *
 * Numerical contract
 * ------------------
 *  - The scalar kernel (SimdKind::Scalar) reproduces the legacy
 *    AoS loop bit-for-bit: same subtraction/multiply/add order, same
 *    std::exp. `PPM_SIMD=off` forces it process-wide, so any run can
 *    be reproduced bit-exactly.
 *  - The SIMD kernels evaluate each query independently of its batch
 *    position: predictions are bit-identical for a point whether it
 *    is evaluated alone, in any batch, at any batch size. This keeps
 *    the serve plane's shard-count bit-equality intact.
 *  - SIMD vs scalar: the exponent e_j = sum_k (x_k-c_k)^2/r_k^2
 *    accumulates through FMAs, so it can differ from the scalar value
 *    by a few ulps *of e_j*; exp() turns an argument perturbation
 *    delta into a relative response change of ~delta, so the error of
 *    h_j is proportional to e_j itself, not just to machine epsilon.
 *    Together with the vector exp's own rounding (Cody-Waite +
 *    degree-12 polynomial, kExpUlpBound ulps) each basis satisfies
 *      |h_simd - h_scalar| <= ((d + 2) e_j + kExpUlpBound) eps h_j
 *    with d the dimensionality (responses below DBL_MIN flush to
 *    exactly zero). The weighted sum reduces lane-wise, so a full
 *    prediction obeys
 *      |f_simd - f_scalar|
 *        <= eps sum_j |w_j| h_j ((d + 2) e_j + kExpUlpBound + m + 4)
 *           + DBL_MIN,
 *    with m the basis count and eps = DBL_EPSILON (the DBL_MIN floor
 *    admits the flush-to-zero of denormal responses).
 *    tests/test_rbf_batch.cc asserts this bound over 10k random
 *    networks and batches.
 *
 * Dispatch policy: the strongest kernel the build and the CPU both
 * support (AVX-512 > AVX2 on x86), overridable through PPM_SIMD
 * (off|scalar|avx2|avx512|neon|auto). The resolved kind is exported
 * as the `rbf.simd_dispatch` gauge (0 scalar, 1 AVX2, 2 NEON,
 * 3 AVX-512); batch predictions run under `span.rbf.batch`, design
 * matrices under `span.rbf.design_matrix`. Building with
 * -DPPM_SIMD=OFF compiles the vector kernels out entirely
 * (PPM_SIMD_DISABLED).
 */

#ifndef PPM_RBF_RBF_BATCH_HH
#define PPM_RBF_RBF_BATCH_HH

#include <cstddef>
#include <string>
#include <vector>

#include "dspace/design_space.hh"
#include "math/matrix.hh"
#include "rbf/basis.hh"

namespace ppm::rbf {

/** Which basis-evaluation kernel a plan runs. */
enum class SimdKind
{
    Scalar, //!< bit-compatible reference path (legacy AoS semantics)
    Avx2,   //!< AVX2 + FMA, 4 bases per lane step
    Neon,   //!< aarch64 NEON, 2 bases per lane step
    Avx512, //!< AVX-512F/DQ, 8 bases per lane step
};

/** "scalar" / "avx2" / "neon" / "avx512". */
std::string simdKindName(SimdKind kind);

/** Per-basis ulp bound of the vectorized exp versus std::exp. */
inline constexpr double kExpUlpBound = 4.0;

/**
 * Strongest kernel compiled into this binary that the running CPU
 * supports (CPUID probe on x86; NEON is architectural on aarch64).
 */
SimdKind detectSimd();

/**
 * Dispatch decision for an explicit PPM_SIMD value against a detected
 * capability. Pure (exposed for tests): nullptr/"auto"/"on" pick
 * @p detected; "off"/"scalar"/"0" force Scalar;
 * "avx512"/"avx2"/"neon" request that kernel and fall back to Scalar
 * when it is not available ("avx2" on an AVX-512 machine is
 * available — it requests the narrower kernel).
 */
SimdKind resolveSimd(const char *env_value, SimdKind detected);

/**
 * The process-wide kernel: resolveSimd(getenv("PPM_SIMD"),
 * detectSimd()), resolved once on first use and exported as the
 * `rbf.simd_dispatch` gauge.
 */
SimdKind activeSimd();

/**
 * A trained network (or candidate basis set) compiled for batched
 * evaluation: dimension-major centers and inverse-squared radii,
 * 64-byte aligned and zero-padded to a lane-width multiple, plus the
 * output weights. Immutable after construction; safe to share across
 * threads.
 */
class BatchPlan
{
  public:
    /**
     * Compile @p bases (all of one dimensionality, at least one) and
     * optional output @p weights (empty, or one per basis) into an
     * evaluation plan running the @p kind kernel.
     *
     * @throws std::invalid_argument on an empty basis set, mixed
     *         dimensionalities, or a weight-count mismatch.
     */
    BatchPlan(const std::vector<GaussianBasis> &bases,
              const std::vector<double> &weights,
              SimdKind kind = activeSimd());

    BatchPlan(const BatchPlan &) = delete;
    BatchPlan &operator=(const BatchPlan &) = delete;
    ~BatchPlan();

    std::size_t numBases() const { return bases_; }
    std::size_t dimensions() const { return dims_; }
    /** Basis count padded to the lane-width multiple. */
    std::size_t paddedBases() const { return padded_; }
    /** The kernel this plan runs. */
    SimdKind kind() const { return kind_; }
    /** True iff output weights were supplied at compile time. */
    bool hasWeights() const { return has_weights_; }

    /**
     * Network response sum_j w_j h_j(x) at one unit point
     * (bit-identical to the same point inside any batch).
     * Requires hasWeights(); x.size() must equal dimensions().
     */
    double predictOne(const dspace::UnitPoint &x) const;

    /** Batched predictOne over @p xs (span.rbf.batch). */
    std::vector<double> predict(
        const std::vector<dspace::UnitPoint> &xs) const;

    /**
     * Basis responses h_j(x) for all j into @p row (numBases()
     * doubles). Works with or without weights.
     */
    void basisRow(const dspace::UnitPoint &x, double *row) const;

    /**
     * Design matrix H with H(i, j) = h_j(xs[i]), evaluated batched
     * (span.rbf.design_matrix).
     */
    math::Matrix designMatrix(
        const std::vector<dspace::UnitPoint> &xs) const;

  private:
    double predictOneImpl(const double *x) const;
    void basisRowImpl(const double *x, double *h) const;

    std::size_t bases_ = 0;
    std::size_t dims_ = 0;
    std::size_t padded_ = 0;
    bool has_weights_ = false;
    SimdKind kind_ = SimdKind::Scalar;

    /**
     * One 64-byte-aligned block: dims_ rows of padded_ centers,
     * dims_ rows of padded_ inverse-squared radii, then padded_
     * weights (zero-filled padding throughout, so padded lanes
     * evaluate to h = exp(0) = 1 with weight 0).
     */
    double *storage_ = nullptr;
    const double *centers_ = nullptr;    //!< centers_[k * padded_ + j]
    const double *inv_r_sq_ = nullptr;   //!< inv_r_sq_[k * padded_ + j]
    const double *weights_ = nullptr;    //!< weights_[j]
};

} // namespace ppm::rbf

#endif // PPM_RBF_RBF_BATCH_HH
