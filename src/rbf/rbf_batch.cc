#include "rbf/rbf_batch.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "obs/event_log.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"

#if defined(__x86_64__) || defined(__i386__)
#define PPM_SIMD_X86 1
#if !defined(PPM_SIMD_DISABLED)
#include <immintrin.h>
#define PPM_SIMD_HAVE_AVX2 1
#define PPM_SIMD_HAVE_AVX512 1
#endif
#elif defined(__aarch64__)
#if !defined(PPM_SIMD_DISABLED)
#include <arm_neon.h>
#define PPM_SIMD_HAVE_NEON 1
#endif
#endif

namespace ppm::rbf {

namespace {

/**
 * Pad to 16 bases: four AVX2 blocks (or eight NEON blocks) per
 * unrolled iteration. The unroll is what buys the throughput — a
 * single block is latency-bound on the exponent accumulation and the
 * Horner chain inside exp, while four independent blocks let the
 * out-of-order core overlap those chains.
 */
constexpr std::size_t kPadBases = 16;

/** exp() argument below which the result flushes to zero (< DBL_MIN). */
constexpr double kExpUnderflow = -708.39641853226408;

// --- vectorized exp ---------------------------------------------------
//
// Cody-Waite range reduction (x = n ln2 + r, |r| <= ln2/2) followed by
// a degree-12 Taylor polynomial for exp(r); the truncation error
// r^13/13! is < 2e-16 relative at |r| = 0.347, so together with the
// polynomial rounding the result stays within kExpUlpBound ulps of
// std::exp. 2^n is assembled directly in the exponent bits. Arguments
// are clamped to [-745, 709]; anything below kExpUnderflow returns 0
// (std::exp would return a denormal there).

#if defined(PPM_SIMD_HAVE_AVX2)

__attribute__((target("avx2,fma"))) inline __m256d
exp4pd(__m256d x)
{
    const __m256d log2e = _mm256_set1_pd(1.4426950408889634074);
    const __m256d ln2_hi = _mm256_set1_pd(6.93145751953125e-1);
    const __m256d ln2_lo = _mm256_set1_pd(1.42860682030941723212e-6);

    x = _mm256_max_pd(x, _mm256_set1_pd(-745.0));
    x = _mm256_min_pd(x, _mm256_set1_pd(709.0));

    const __m256d n = _mm256_round_pd(
        _mm256_mul_pd(x, log2e),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256d r = _mm256_fnmadd_pd(n, ln2_hi, x);
    r = _mm256_fnmadd_pd(n, ln2_lo, r);

    __m256d p = _mm256_set1_pd(1.0 / 479001600.0); // 1/12!
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 39916800.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 3628800.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 362880.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 40320.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 5040.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 720.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 120.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 24.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 6.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.5));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));

    // 2^n via the exponent field; n is integral in [-1075, 1024].
    const __m128i n32 = _mm256_cvtpd_epi32(n);
    const __m256i n64 = _mm256_cvtepi32_epi64(n32);
    const __m256i bits = _mm256_slli_epi64(
        _mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
    const __m256d pow2n = _mm256_castsi256_pd(bits);

    __m256d result = _mm256_mul_pd(p, pow2n);
    const __m256d underflow = _mm256_cmp_pd(
        x, _mm256_set1_pd(kExpUnderflow), _CMP_LT_OS);
    return _mm256_andnot_pd(underflow, result);
}

#endif // PPM_SIMD_HAVE_AVX2

#if defined(PPM_SIMD_HAVE_AVX512)

/**
 * 8-lane exp, same reduction and coefficients as exp4pd, minus the
 * range clamps: the argument here is always a negated sum of squares
 * (x <= 0, or NaN on an overflowed exponent), so the overflow clamp
 * can never fire, and arguments below kExpUnderflow — where the
 * unclamped pipeline may produce garbage or NaN — are flushed to
 * exactly zero by the trailing mask, which only keeps lanes in
 * [kExpUnderflow, 0]. 2^n is applied with vscalefpd, a single
 * correctly-rounded scaling that matches the AVX2 kernel's
 * exponent-field multiply bit-for-bit on every kept lane.
 */
__attribute__((target("avx512f,avx512dq"))) inline __m512d
exp8pd(__m512d x)
{
    const __m512d log2e = _mm512_set1_pd(1.4426950408889634074);
    const __m512d ln2_hi = _mm512_set1_pd(6.93145751953125e-1);
    const __m512d ln2_lo = _mm512_set1_pd(1.42860682030941723212e-6);

    const __m512d n = _mm512_roundscale_pd(
        _mm512_mul_pd(x, log2e),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m512d r = _mm512_fnmadd_pd(n, ln2_hi, x);
    r = _mm512_fnmadd_pd(n, ln2_lo, r);

    __m512d p = _mm512_set1_pd(1.0 / 479001600.0); // 1/12!
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 39916800.0));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 3628800.0));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 362880.0));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 40320.0));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 5040.0));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 720.0));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 120.0));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 24.0));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0 / 6.0));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(0.5));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0));
    p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(1.0));

    const __m512d result = _mm512_scalef_pd(p, n);
    const __mmask8 keep = _mm512_cmp_pd_mask(
        x, _mm512_set1_pd(kExpUnderflow), _CMP_GE_OS);
    return _mm512_maskz_mov_pd(keep, result);
}

#endif // PPM_SIMD_HAVE_AVX512

#if defined(PPM_SIMD_HAVE_NEON)

inline float64x2_t
exp2pd(float64x2_t x)
{
    const float64x2_t log2e = vdupq_n_f64(1.4426950408889634074);
    const float64x2_t ln2_hi = vdupq_n_f64(6.93145751953125e-1);
    const float64x2_t ln2_lo =
        vdupq_n_f64(1.42860682030941723212e-6);

    x = vmaxq_f64(x, vdupq_n_f64(-745.0));
    x = vminq_f64(x, vdupq_n_f64(709.0));

    const float64x2_t n = vrndnq_f64(vmulq_f64(x, log2e));
    // vfmsq(a, b, c) = a - b * c
    float64x2_t r = vfmsq_f64(x, n, ln2_hi);
    r = vfmsq_f64(r, n, ln2_lo);

    float64x2_t p = vdupq_n_f64(1.0 / 479001600.0);
    // vfmaq(a, b, c) = a + b * c
    p = vfmaq_f64(vdupq_n_f64(1.0 / 39916800.0), p, r);
    p = vfmaq_f64(vdupq_n_f64(1.0 / 3628800.0), p, r);
    p = vfmaq_f64(vdupq_n_f64(1.0 / 362880.0), p, r);
    p = vfmaq_f64(vdupq_n_f64(1.0 / 40320.0), p, r);
    p = vfmaq_f64(vdupq_n_f64(1.0 / 5040.0), p, r);
    p = vfmaq_f64(vdupq_n_f64(1.0 / 720.0), p, r);
    p = vfmaq_f64(vdupq_n_f64(1.0 / 120.0), p, r);
    p = vfmaq_f64(vdupq_n_f64(1.0 / 24.0), p, r);
    p = vfmaq_f64(vdupq_n_f64(1.0 / 6.0), p, r);
    p = vfmaq_f64(vdupq_n_f64(0.5), p, r);
    p = vfmaq_f64(vdupq_n_f64(1.0), p, r);
    p = vfmaq_f64(vdupq_n_f64(1.0), p, r);

    const int64x2_t n64 = vcvtq_s64_f64(n);
    const int64x2_t bits =
        vshlq_n_s64(vaddq_s64(n64, vdupq_n_s64(1023)), 52);
    const float64x2_t pow2n = vreinterpretq_f64_s64(bits);

    float64x2_t result = vmulq_f64(p, pow2n);
    const uint64x2_t underflow =
        vcltq_f64(x, vdupq_n_f64(kExpUnderflow));
    return vbslq_f64(underflow, vdupq_n_f64(0.0), result);
}

#endif // PPM_SIMD_HAVE_NEON

double *
alignedAlloc(std::size_t doubles)
{
    return static_cast<double *>(::operator new(
        doubles * sizeof(double), std::align_val_t{64}));
}

void
alignedFree(double *p)
{
    ::operator delete(p, std::align_val_t{64});
}

} // namespace

std::string
simdKindName(SimdKind kind)
{
    switch (kind) {
      case SimdKind::Scalar:
        return "scalar";
      case SimdKind::Avx2:
        return "avx2";
      case SimdKind::Neon:
        return "neon";
      case SimdKind::Avx512:
        return "avx512";
    }
    return "unknown";
}

SimdKind
detectSimd()
{
#if defined(PPM_SIMD_HAVE_AVX512)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq"))
        return SimdKind::Avx512;
#endif
#if defined(PPM_SIMD_HAVE_AVX2)
    if (__builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("fma"))
        return SimdKind::Avx2;
#elif defined(PPM_SIMD_HAVE_NEON)
    return SimdKind::Neon; // architectural on aarch64
#endif
    return SimdKind::Scalar;
}

SimdKind
resolveSimd(const char *env_value, SimdKind detected)
{
    if (!env_value || !*env_value)
        return detected;
    const std::string v(env_value);
    if (v == "auto" || v == "on" || v == "1")
        return detected;
    if (v == "off" || v == "scalar" || v == "0")
        return SimdKind::Scalar;
    if (v == "avx512")
        return detected == SimdKind::Avx512 ? detected
                                            : SimdKind::Scalar;
    if (v == "avx2")
        // An AVX-512 machine supports the AVX2 kernel too; the
        // request asks for the narrower one explicitly.
        return detected == SimdKind::Avx2 ||
                       detected == SimdKind::Avx512
                   ? SimdKind::Avx2
                   : SimdKind::Scalar;
    if (v == "neon")
        return detected == SimdKind::Neon ? detected
                                          : SimdKind::Scalar;
    // Unknown value: fail safe to the reference path.
    return SimdKind::Scalar;
}

SimdKind
activeSimd()
{
    static const SimdKind kind = [] {
        const SimdKind detected = detectSimd();
        const SimdKind resolved =
            resolveSimd(std::getenv("PPM_SIMD"), detected);
#if !defined(PPM_OBS_DISABLED)
        obs::Registry::instance()
            .gauge("rbf.simd_dispatch")
            .set(static_cast<std::int64_t>(resolved));
        obs::logEvent(obs::LogLevel::Info, "rbf", "simd_dispatch",
                      {{"kind", simdKindName(resolved)},
                       {"detected", simdKindName(detected)}});
#endif
        return resolved;
    }();
    return kind;
}

BatchPlan::BatchPlan(const std::vector<GaussianBasis> &bases,
                     const std::vector<double> &weights, SimdKind kind)
    : bases_(bases.size()), kind_(kind)
{
    if (bases.empty())
        throw std::invalid_argument(
            "rbf::BatchPlan: empty basis set");
    dims_ = bases.front().dimensions();
    for (const GaussianBasis &b : bases)
        if (b.dimensions() != dims_)
            throw std::invalid_argument(
                "rbf::BatchPlan: mixed basis dimensionalities");
    if (!weights.empty() && weights.size() != bases.size())
        throw std::invalid_argument(
            "rbf::BatchPlan: weight count does not match basis count");
    has_weights_ = !weights.empty();

    padded_ = (bases_ + kPadBases - 1) / kPadBases * kPadBases;
    const std::size_t total = (2 * dims_ + 1) * padded_;
    storage_ = alignedAlloc(total);
    std::memset(storage_, 0, total * sizeof(double));

    double *centers = storage_;
    double *inv_r_sq = storage_ + dims_ * padded_;
    double *w = storage_ + 2 * dims_ * padded_;
    for (std::size_t j = 0; j < bases_; ++j) {
        const GaussianBasis &b = bases[j];
        for (std::size_t k = 0; k < dims_; ++k) {
            centers[k * padded_ + j] = b.center()[k];
            inv_r_sq[k * padded_ + j] = b.invRadiusSq()[k];
        }
        w[j] = has_weights_ ? weights[j] : 0.0;
    }
    centers_ = centers;
    inv_r_sq_ = inv_r_sq;
    weights_ = w;
}

BatchPlan::~BatchPlan()
{
    alignedFree(storage_);
}

namespace {

/**
 * Exponent e_j = sum_k (x_k - c_k)^2 / r_k^2 of basis j, in the exact
 * operation order of the legacy GaussianBasis::evaluate AoS loop, read
 * from the dimension-major layout. Both scalar kernels call it, so the
 * scalar path stays bit-compatible with that loop.
 */
inline double
exponentScalar(const double *x, const double *centers,
               const double *inv_r_sq, std::size_t j, std::size_t dims,
               std::size_t padded)
{
    double exponent = 0.0;
    for (std::size_t k = 0; k < dims; ++k) {
        const double d = x[k] - centers[k * padded + j];
        exponent += d * d * inv_r_sq[k * padded + j];
    }
    return exponent;
}

double
predictOneScalar(const double *x, const double *centers,
                 const double *inv_r_sq, const double *weights,
                 std::size_t m, std::size_t dims, std::size_t padded)
{
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j)
        acc += weights[j] * std::exp(-exponentScalar(
                                x, centers, inv_r_sq, j, dims, padded));
    return acc;
}

void
basisRowScalar(const double *x, double *h, const double *centers,
               const double *inv_r_sq, std::size_t m,
               std::size_t dims, std::size_t padded)
{
    for (std::size_t j = 0; j < m; ++j)
        h[j] = std::exp(
            -exponentScalar(x, centers, inv_r_sq, j, dims, padded));
}

#if defined(PPM_SIMD_HAVE_AVX2)

/**
 * Exponents -e of the 16-basis block at @p jb, as four independent
 * 4-lane blocks (padded is a multiple of 16): the exponent
 * accumulations and the exp Horner chains of the blocks carry no
 * dependencies on each other, so the out-of-order core overlaps their
 * latency. The sum accumulates as +e by fmadd and is negated as 0 - e.
 */
__attribute__((target("avx2,fma"))) inline void
exponentsAvx2(const double *x, const double *centers,
              const double *inv_r_sq, std::size_t dims,
              std::size_t padded, std::size_t jb, __m256d e[4])
{
    for (int b = 0; b < 4; ++b)
        e[b] = _mm256_setzero_pd();
    for (std::size_t k = 0; k < dims; ++k) {
        const double *c_row = centers + k * padded + jb;
        const double *ir_row = inv_r_sq + k * padded + jb;
        const __m256d xk = _mm256_set1_pd(x[k]);
        for (int b = 0; b < 4; ++b) {
            const __m256d d =
                _mm256_sub_pd(xk, _mm256_load_pd(c_row + 4 * b));
            e[b] = _mm256_fmadd_pd(_mm256_mul_pd(d, d),
                                   _mm256_load_pd(ir_row + 4 * b), e[b]);
        }
    }
    for (int b = 0; b < 4; ++b)
        e[b] = _mm256_sub_pd(_mm256_setzero_pd(), e[b]);
}

__attribute__((target("avx2,fma"))) double
predictOneAvx2(const double *x, const double *centers,
               const double *inv_r_sq, const double *weights,
               std::size_t dims, std::size_t padded)
{
    __m256d acc[4];
    for (int b = 0; b < 4; ++b)
        acc[b] = _mm256_setzero_pd();
    for (std::size_t jb = 0; jb < padded; jb += 16) {
        __m256d e[4];
        exponentsAvx2(x, centers, inv_r_sq, dims, padded, jb, e);
        for (int b = 0; b < 4; ++b)
            acc[b] = _mm256_fmadd_pd(_mm256_load_pd(weights + jb + 4 * b),
                                     exp4pd(e[b]), acc[b]);
    }
    // Deterministic reduction: blocks pairwise, then lanes
    // (a0+a2) + (a1+a3).
    const __m256d sum = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]),
                                      _mm256_add_pd(acc[2], acc[3]));
    const __m128d lo = _mm256_castpd256_pd128(sum);
    const __m128d hi = _mm256_extractf128_pd(sum, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/** Store one 4-lane block of responses, clipping at the real count. */
__attribute__((target("avx2,fma"))) inline void
storeBlock(double *h, std::size_t jb, std::size_t m, __m256d v)
{
    if (jb >= m)
        return;
    if (jb + 4 <= m) {
        _mm256_storeu_pd(h + jb, v);
    } else {
        double tail[4];
        _mm256_storeu_pd(tail, v);
        for (std::size_t j = jb; j < m; ++j)
            h[j] = tail[j - jb];
    }
}

__attribute__((target("avx2,fma"))) void
basisRowAvx2(const double *x, double *h, const double *centers,
             const double *inv_r_sq, std::size_t m, std::size_t dims,
             std::size_t padded)
{
    for (std::size_t jb = 0; jb < padded; jb += 16) {
        __m256d e[4];
        exponentsAvx2(x, centers, inv_r_sq, dims, padded, jb, e);
        for (int b = 0; b < 4; ++b)
            storeBlock(h, jb + 4 * b, m, exp4pd(e[b]));
    }
}

#endif // PPM_SIMD_HAVE_AVX2

#if defined(PPM_SIMD_HAVE_AVX512)

/**
 * Exponents -e of the 16-basis block at @p jb for each of @p Q
 * queries, as two 8-lane blocks per query (e0: bases jb..jb+7, e1:
 * jb+8..jb+15), so the exponent and Horner chains overlap. Each center
 * and radius vector is loaded once for all Q queries; a query's
 * operation sequence is the same for every Q, so its bits do not
 * depend on the queries beside it. fnmadd accumulates -sum directly:
 * round-to-nearest is sign-symmetric, so this is bit-identical to
 * negating the fmadd-accumulated sum afterwards.
 */
template <int Q>
__attribute__((target("avx512f,avx512dq"))) inline void
exponentsAvx512(const double *const x[Q], const double *centers,
                const double *inv_r_sq, std::size_t dims,
                std::size_t padded, std::size_t jb, __m512d e0[Q],
                __m512d e1[Q])
{
    for (int q = 0; q < Q; ++q) {
        e0[q] = _mm512_setzero_pd();
        e1[q] = _mm512_setzero_pd();
    }
    for (std::size_t k = 0; k < dims; ++k) {
        const double *c_row = centers + k * padded + jb;
        const double *ir_row = inv_r_sq + k * padded + jb;
        const __m512d c0 = _mm512_load_pd(c_row + 0);
        const __m512d c1 = _mm512_load_pd(c_row + 8);
        const __m512d ir0 = _mm512_load_pd(ir_row + 0);
        const __m512d ir1 = _mm512_load_pd(ir_row + 8);
        for (int q = 0; q < Q; ++q) {
            const __m512d xk = _mm512_set1_pd(x[q][k]);
            const __m512d d0 = _mm512_sub_pd(xk, c0);
            const __m512d d1 = _mm512_sub_pd(xk, c1);
            e0[q] = _mm512_fnmadd_pd(_mm512_mul_pd(d0, d0), ir0, e0[q]);
            e1[q] = _mm512_fnmadd_pd(_mm512_mul_pd(d1, d1), ir1, e1[q]);
        }
    }
}

/**
 * Predictions of @p Q queries into out[0..Q). Q = 4 keeps eight exp
 * chains in flight and amortizes the center/radius loads over four
 * queries; Q = 1 serves single points and batch tails with the same
 * per-query operations, so a point's bits never depend on its batch.
 */
template <int Q>
__attribute__((target("avx512f,avx512dq"))) void
predictAvx512(const double *const x[Q], const double *centers,
              const double *inv_r_sq, const double *weights,
              std::size_t dims, std::size_t padded, double *out)
{
    __m512d acc0[Q], acc1[Q];
    for (int q = 0; q < Q; ++q) {
        acc0[q] = _mm512_setzero_pd();
        acc1[q] = _mm512_setzero_pd();
    }
    for (std::size_t jb = 0; jb < padded; jb += 16) {
        __m512d e0[Q], e1[Q];
        exponentsAvx512<Q>(x, centers, inv_r_sq, dims, padded, jb, e0,
                           e1);
        const __m512d w0 = _mm512_load_pd(weights + jb + 0);
        const __m512d w1 = _mm512_load_pd(weights + jb + 8);
        for (int q = 0; q < Q; ++q) {
            acc0[q] = _mm512_fmadd_pd(w0, exp8pd(e0[q]), acc0[q]);
            acc1[q] = _mm512_fmadd_pd(w1, exp8pd(e1[q]), acc1[q]);
        }
    }
    // Deterministic reduction: blocks, then 256-bit halves, then the
    // AVX2 lane pattern (a0+a2) + (a1+a3).
    for (int q = 0; q < Q; ++q) {
        const __m512d s = _mm512_add_pd(acc0[q], acc1[q]);
        const __m256d r =
            _mm256_add_pd(_mm512_castpd512_pd256(s),
                          _mm512_extractf64x4_pd(s, 1));
        const __m128d p = _mm_add_pd(_mm256_castpd256_pd128(r),
                                     _mm256_extractf128_pd(r, 1));
        out[q] =
            _mm_cvtsd_f64(_mm_add_sd(p, _mm_unpackhi_pd(p, p)));
    }
}

/** Store one 8-lane block of responses, clipping at the real count. */
__attribute__((target("avx512f,avx512dq"))) inline void
storeBlock8(double *h, std::size_t jb, std::size_t m, __m512d v)
{
    if (jb >= m)
        return;
    if (jb + 8 <= m) {
        _mm512_storeu_pd(h + jb, v);
    } else {
        double tail[8];
        _mm512_storeu_pd(tail, v);
        for (std::size_t j = jb; j < m; ++j)
            h[j] = tail[j - jb];
    }
}

__attribute__((target("avx512f,avx512dq"))) void
basisRowAvx512(const double *x, double *h, const double *centers,
               const double *inv_r_sq, std::size_t m,
               std::size_t dims, std::size_t padded)
{
    for (std::size_t jb = 0; jb < padded; jb += 16) {
        __m512d e0, e1;
        exponentsAvx512<1>(&x, centers, inv_r_sq, dims, padded, jb, &e0,
                           &e1);
        storeBlock8(h, jb + 0, m, exp8pd(e0));
        storeBlock8(h, jb + 8, m, exp8pd(e1));
    }
}

#endif // PPM_SIMD_HAVE_AVX512

#if defined(PPM_SIMD_HAVE_NEON)

double
predictOneNeon(const double *x, const double *centers,
               const double *inv_r_sq, const double *weights,
               std::size_t dims, std::size_t padded)
{
    float64x2_t acc = vdupq_n_f64(0.0);
    for (std::size_t jb = 0; jb < padded; jb += 2) {
        float64x2_t e = vdupq_n_f64(0.0);
        for (std::size_t k = 0; k < dims; ++k) {
            const float64x2_t c = vld1q_f64(centers + k * padded + jb);
            const float64x2_t ir =
                vld1q_f64(inv_r_sq + k * padded + jb);
            const float64x2_t d = vsubq_f64(vdupq_n_f64(x[k]), c);
            e = vfmaq_f64(e, vmulq_f64(d, d), ir);
        }
        const float64x2_t h = exp2pd(vnegq_f64(e));
        const float64x2_t w = vld1q_f64(weights + jb);
        acc = vfmaq_f64(acc, w, h);
    }
    return vaddvq_f64(acc);
}

void
basisRowNeon(const double *x, double *h, const double *centers,
             const double *inv_r_sq, std::size_t m, std::size_t dims,
             std::size_t padded)
{
    // Stop at m, not padded: the caller's row holds exactly m
    // doubles, so padding blocks must never be stored (the x86
    // kernels guard the same way inside storeBlock/storeBlock8).
    for (std::size_t jb = 0; jb < m; jb += 2) {
        float64x2_t e = vdupq_n_f64(0.0);
        for (std::size_t k = 0; k < dims; ++k) {
            const float64x2_t c = vld1q_f64(centers + k * padded + jb);
            const float64x2_t ir =
                vld1q_f64(inv_r_sq + k * padded + jb);
            const float64x2_t d = vsubq_f64(vdupq_n_f64(x[k]), c);
            e = vfmaq_f64(e, vmulq_f64(d, d), ir);
        }
        const float64x2_t v = exp2pd(vnegq_f64(e));
        if (jb + 2 <= m) {
            vst1q_f64(h + jb, v);
        } else {
            double tail[2];
            vst1q_f64(tail, v);
            h[jb] = tail[0];
        }
    }
}

#endif // PPM_SIMD_HAVE_NEON

} // namespace

double
BatchPlan::predictOneImpl(const double *x) const
{
    switch (kind_) {
#if defined(PPM_SIMD_HAVE_AVX2)
      case SimdKind::Avx2:
        return predictOneAvx2(x, centers_, inv_r_sq_, weights_, dims_,
                              padded_);
#endif
#if defined(PPM_SIMD_HAVE_AVX512)
      case SimdKind::Avx512: {
        double y;
        predictAvx512<1>(&x, centers_, inv_r_sq_, weights_, dims_,
                         padded_, &y);
        return y;
      }
#endif
#if defined(PPM_SIMD_HAVE_NEON)
      case SimdKind::Neon:
        return predictOneNeon(x, centers_, inv_r_sq_, weights_, dims_,
                              padded_);
#endif
      default:
        return predictOneScalar(x, centers_, inv_r_sq_, weights_,
                                bases_, dims_, padded_);
    }
}

void
BatchPlan::basisRowImpl(const double *x, double *h) const
{
    switch (kind_) {
#if defined(PPM_SIMD_HAVE_AVX2)
      case SimdKind::Avx2:
        basisRowAvx2(x, h, centers_, inv_r_sq_, bases_, dims_,
                     padded_);
        return;
#endif
#if defined(PPM_SIMD_HAVE_AVX512)
      case SimdKind::Avx512:
        basisRowAvx512(x, h, centers_, inv_r_sq_, bases_, dims_,
                       padded_);
        return;
#endif
#if defined(PPM_SIMD_HAVE_NEON)
      case SimdKind::Neon:
        basisRowNeon(x, h, centers_, inv_r_sq_, bases_, dims_,
                     padded_);
        return;
#endif
      default:
        basisRowScalar(x, h, centers_, inv_r_sq_, bases_, dims_,
                       padded_);
    }
}

double
BatchPlan::predictOne(const dspace::UnitPoint &x) const
{
    if (!has_weights_)
        throw std::logic_error(
            "rbf::BatchPlan::predictOne: plan compiled without "
            "weights");
    if (x.size() != dims_)
        throw std::invalid_argument(
            "rbf::BatchPlan::predictOne: point has " +
            std::to_string(x.size()) + " dimensions, plan has " +
            std::to_string(dims_));
    return predictOneImpl(x.data());
}

template <typename Row>
std::vector<double>
BatchPlan::predictEach(std::size_t n, Row row) const
{
    OBS_SPAN("rbf.batch");
    OBS_STATIC_COUNTER(batch_calls, "rbf.batch.calls");
    OBS_ADD(batch_calls, 1);
    OBS_STATIC_COUNTER(batch_points, "rbf.batch.points");
    OBS_ADD(batch_points, n);
    if (n > 0 && !has_weights_)
        throw std::logic_error(
            "rbf::BatchPlan::predictOne: plan compiled without "
            "weights");
    std::vector<double> out(n);
    std::size_t i = 0;
#if defined(PPM_SIMD_HAVE_AVX512)
    // Four queries per call on AVX-512; the 1-3-point tail runs one
    // at a time (bit-identical either way; see predictAvx512).
    if (kind_ == SimdKind::Avx512)
        for (; i + 4 <= n; i += 4) {
            const double *quad[4] = {row(i), row(i + 1), row(i + 2),
                                     row(i + 3)};
            predictAvx512<4>(quad, centers_, inv_r_sq_, weights_, dims_,
                             padded_, &out[i]);
        }
#endif
    for (; i < n; ++i)
        out[i] = predictOneImpl(row(i));
    return out;
}

std::vector<double>
BatchPlan::predict(const std::vector<dspace::UnitPoint> &xs) const
{
    for (const dspace::UnitPoint &x : xs)
        if (x.size() != dims_)
            throw std::invalid_argument(
                "rbf::BatchPlan::predictOne: point has " +
                std::to_string(x.size()) + " dimensions, plan has " +
                std::to_string(dims_));
    return predictEach(xs.size(),
                       [&](std::size_t i) { return xs[i].data(); });
}

std::vector<double>
BatchPlan::predictRows(std::span<const double> rows,
                       std::size_t dims) const
{
    if (dims != dims_ || rows.size() % dims != 0)
        throw std::invalid_argument(
            "rbf::BatchPlan::predictRows: " +
            std::to_string(rows.size()) + " coordinates of " +
            std::to_string(dims) + "-dimension points, plan has " +
            std::to_string(dims_));
    return predictEach(rows.size() / dims_, [&](std::size_t i) {
        return rows.data() + i * dims_;
    });
}

void
BatchPlan::basisRow(const dspace::UnitPoint &x, double *row) const
{
    if (x.size() != dims_)
        throw std::invalid_argument(
            "rbf::BatchPlan::basisRow: point has " +
            std::to_string(x.size()) + " dimensions, plan has " +
            std::to_string(dims_));
    basisRowImpl(x.data(), row);
}

math::Matrix
BatchPlan::designMatrix(const std::vector<dspace::UnitPoint> &xs) const
{
    OBS_SPAN("rbf.design_matrix");
    OBS_STATIC_COUNTER(batch_calls, "rbf.batch.calls");
    OBS_ADD(batch_calls, 1);
    OBS_STATIC_COUNTER(batch_points, "rbf.batch.points");
    OBS_ADD(batch_points, xs.size());
    math::Matrix h(xs.size(), bases_);
    for (std::size_t i = 0; i < xs.size(); ++i)
        basisRow(xs[i], h.rowPtr(i));
    return h;
}

} // namespace ppm::rbf
