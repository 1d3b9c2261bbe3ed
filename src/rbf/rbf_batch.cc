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
 * Bit-compatible reference: the exact operation order of the legacy
 * GaussianBasis::evaluate / RbfNetwork::predict AoS loop, read from
 * the dimension-major layout.
 */
double
predictOneScalar(const double *x, const double *centers,
                 const double *inv_r_sq, const double *weights,
                 std::size_t m, std::size_t dims, std::size_t padded)
{
    double acc = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
        double exponent = 0.0;
        for (std::size_t k = 0; k < dims; ++k) {
            const double d = x[k] - centers[k * padded + j];
            exponent += d * d * inv_r_sq[k * padded + j];
        }
        acc += weights[j] * std::exp(-exponent);
    }
    return acc;
}

void
basisRowScalar(const double *x, double *h, const double *centers,
               const double *inv_r_sq, std::size_t m,
               std::size_t dims, std::size_t padded)
{
    for (std::size_t j = 0; j < m; ++j) {
        double exponent = 0.0;
        for (std::size_t k = 0; k < dims; ++k) {
            const double d = x[k] - centers[k * padded + j];
            exponent += d * d * inv_r_sq[k * padded + j];
        }
        h[j] = std::exp(-exponent);
    }
}

#if defined(PPM_SIMD_HAVE_AVX2)

__attribute__((target("avx2,fma"))) double
predictOneAvx2(const double *x, const double *centers,
               const double *inv_r_sq, const double *weights,
               std::size_t dims, std::size_t padded)
{
    // Four independent 4-lane blocks per iteration (padded is a
    // multiple of 16): the exponent accumulations and the exp Horner
    // chains of the blocks carry no dependencies on each other, so
    // the out-of-order core overlaps their latency.
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (std::size_t jb = 0; jb < padded; jb += 16) {
        __m256d e0 = _mm256_setzero_pd();
        __m256d e1 = _mm256_setzero_pd();
        __m256d e2 = _mm256_setzero_pd();
        __m256d e3 = _mm256_setzero_pd();
        for (std::size_t k = 0; k < dims; ++k) {
            const double *c_row = centers + k * padded + jb;
            const double *ir_row = inv_r_sq + k * padded + jb;
            const __m256d xk = _mm256_set1_pd(x[k]);
            const __m256d d0 =
                _mm256_sub_pd(xk, _mm256_load_pd(c_row + 0));
            const __m256d d1 =
                _mm256_sub_pd(xk, _mm256_load_pd(c_row + 4));
            const __m256d d2 =
                _mm256_sub_pd(xk, _mm256_load_pd(c_row + 8));
            const __m256d d3 =
                _mm256_sub_pd(xk, _mm256_load_pd(c_row + 12));
            e0 = _mm256_fmadd_pd(_mm256_mul_pd(d0, d0),
                                 _mm256_load_pd(ir_row + 0), e0);
            e1 = _mm256_fmadd_pd(_mm256_mul_pd(d1, d1),
                                 _mm256_load_pd(ir_row + 4), e1);
            e2 = _mm256_fmadd_pd(_mm256_mul_pd(d2, d2),
                                 _mm256_load_pd(ir_row + 8), e2);
            e3 = _mm256_fmadd_pd(_mm256_mul_pd(d3, d3),
                                 _mm256_load_pd(ir_row + 12), e3);
        }
        const __m256d z = _mm256_setzero_pd();
        const __m256d h0 = exp4pd(_mm256_sub_pd(z, e0));
        const __m256d h1 = exp4pd(_mm256_sub_pd(z, e1));
        const __m256d h2 = exp4pd(_mm256_sub_pd(z, e2));
        const __m256d h3 = exp4pd(_mm256_sub_pd(z, e3));
        acc0 = _mm256_fmadd_pd(_mm256_load_pd(weights + jb + 0),
                               h0, acc0);
        acc1 = _mm256_fmadd_pd(_mm256_load_pd(weights + jb + 4),
                               h1, acc1);
        acc2 = _mm256_fmadd_pd(_mm256_load_pd(weights + jb + 8),
                               h2, acc2);
        acc3 = _mm256_fmadd_pd(_mm256_load_pd(weights + jb + 12),
                               h3, acc3);
    }
    // Deterministic reduction: blocks pairwise, then lanes
    // (a0+a2) + (a1+a3).
    const __m256d acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                      _mm256_add_pd(acc2, acc3));
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
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
    // Same four-block unroll as predictOneAvx2 (see there for why).
    for (std::size_t jb = 0; jb < padded; jb += 16) {
        __m256d e0 = _mm256_setzero_pd();
        __m256d e1 = _mm256_setzero_pd();
        __m256d e2 = _mm256_setzero_pd();
        __m256d e3 = _mm256_setzero_pd();
        for (std::size_t k = 0; k < dims; ++k) {
            const double *c_row = centers + k * padded + jb;
            const double *ir_row = inv_r_sq + k * padded + jb;
            const __m256d xk = _mm256_set1_pd(x[k]);
            const __m256d d0 =
                _mm256_sub_pd(xk, _mm256_load_pd(c_row + 0));
            const __m256d d1 =
                _mm256_sub_pd(xk, _mm256_load_pd(c_row + 4));
            const __m256d d2 =
                _mm256_sub_pd(xk, _mm256_load_pd(c_row + 8));
            const __m256d d3 =
                _mm256_sub_pd(xk, _mm256_load_pd(c_row + 12));
            e0 = _mm256_fmadd_pd(_mm256_mul_pd(d0, d0),
                                 _mm256_load_pd(ir_row + 0), e0);
            e1 = _mm256_fmadd_pd(_mm256_mul_pd(d1, d1),
                                 _mm256_load_pd(ir_row + 4), e1);
            e2 = _mm256_fmadd_pd(_mm256_mul_pd(d2, d2),
                                 _mm256_load_pd(ir_row + 8), e2);
            e3 = _mm256_fmadd_pd(_mm256_mul_pd(d3, d3),
                                 _mm256_load_pd(ir_row + 12), e3);
        }
        const __m256d z = _mm256_setzero_pd();
        storeBlock(h, jb + 0, m, exp4pd(_mm256_sub_pd(z, e0)));
        storeBlock(h, jb + 4, m, exp4pd(_mm256_sub_pd(z, e1)));
        storeBlock(h, jb + 8, m, exp4pd(_mm256_sub_pd(z, e2)));
        storeBlock(h, jb + 12, m, exp4pd(_mm256_sub_pd(z, e3)));
    }
}

#endif // PPM_SIMD_HAVE_AVX2

#if defined(PPM_SIMD_HAVE_AVX512)

__attribute__((target("avx512f,avx512dq"))) double
predictOneAvx512(const double *x, const double *centers,
                 const double *inv_r_sq, const double *weights,
                 std::size_t dims, std::size_t padded)
{
    // Two independent 8-lane blocks per iteration (padded is a
    // multiple of 16) so the exponent and Horner chains overlap.
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    for (std::size_t jb = 0; jb < padded; jb += 16) {
        __m512d e0 = _mm512_setzero_pd();
        __m512d e1 = _mm512_setzero_pd();
        for (std::size_t k = 0; k < dims; ++k) {
            const double *c_row = centers + k * padded + jb;
            const double *ir_row = inv_r_sq + k * padded + jb;
            const __m512d xk = _mm512_set1_pd(x[k]);
            const __m512d d0 =
                _mm512_sub_pd(xk, _mm512_load_pd(c_row + 0));
            const __m512d d1 =
                _mm512_sub_pd(xk, _mm512_load_pd(c_row + 8));
            // fnmadd accumulates -sum directly; round-to-nearest is
            // sign-symmetric, so this is bit-identical to negating
            // the fmadd-accumulated sum afterwards.
            e0 = _mm512_fnmadd_pd(_mm512_mul_pd(d0, d0),
                                  _mm512_load_pd(ir_row + 0), e0);
            e1 = _mm512_fnmadd_pd(_mm512_mul_pd(d1, d1),
                                  _mm512_load_pd(ir_row + 8), e1);
        }
        const __m512d h0 = exp8pd(e0);
        const __m512d h1 = exp8pd(e1);
        acc0 = _mm512_fmadd_pd(_mm512_load_pd(weights + jb + 0),
                               h0, acc0);
        acc1 = _mm512_fmadd_pd(_mm512_load_pd(weights + jb + 8),
                               h1, acc1);
    }
    // Deterministic reduction: blocks, then 256-bit halves, then the
    // AVX2 lane pattern (a0+a2) + (a1+a3).
    const __m512d acc512 = _mm512_add_pd(acc0, acc1);
    const __m256d acc =
        _mm256_add_pd(_mm512_castpd512_pd256(acc512),
                      _mm512_extractf64x4_pd(acc512, 1));
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
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
    // Same two-block unroll as predictOneAvx512 (see there for why).
    for (std::size_t jb = 0; jb < padded; jb += 16) {
        __m512d e0 = _mm512_setzero_pd();
        __m512d e1 = _mm512_setzero_pd();
        for (std::size_t k = 0; k < dims; ++k) {
            const double *c_row = centers + k * padded + jb;
            const double *ir_row = inv_r_sq + k * padded + jb;
            const __m512d xk = _mm512_set1_pd(x[k]);
            const __m512d d0 =
                _mm512_sub_pd(xk, _mm512_load_pd(c_row + 0));
            const __m512d d1 =
                _mm512_sub_pd(xk, _mm512_load_pd(c_row + 8));
            // -sum via fnmadd: bit-identical, see predictOneAvx512.
            e0 = _mm512_fnmadd_pd(_mm512_mul_pd(d0, d0),
                                  _mm512_load_pd(ir_row + 0), e0);
            e1 = _mm512_fnmadd_pd(_mm512_mul_pd(d1, d1),
                                  _mm512_load_pd(ir_row + 8), e1);
        }
        storeBlock8(h, jb + 0, m, exp8pd(e0));
        storeBlock8(h, jb + 8, m, exp8pd(e1));
    }
}

/**
 * Two queries per call for the batch path. Each query runs exactly
 * the operation sequence of predictOneAvx512 — interleaving the two
 * instruction streams changes scheduling, not values, so results stay
 * bit-identical to the single-query kernel. The point is latency: one
 * query only has two independent exp Horner chains in flight, which
 * leaves the FMA ports half idle; a pair keeps four chains going.
 */
__attribute__((target("avx512f,avx512dq"))) void
predictPairAvx512(const double *x0, const double *x1,
                  const double *centers, const double *inv_r_sq,
                  const double *weights, std::size_t dims,
                  std::size_t padded, double *out)
{
    __m512d acc0a = _mm512_setzero_pd();
    __m512d acc1a = _mm512_setzero_pd();
    __m512d acc0b = _mm512_setzero_pd();
    __m512d acc1b = _mm512_setzero_pd();
    for (std::size_t jb = 0; jb < padded; jb += 16) {
        __m512d e0a = _mm512_setzero_pd();
        __m512d e1a = _mm512_setzero_pd();
        __m512d e0b = _mm512_setzero_pd();
        __m512d e1b = _mm512_setzero_pd();
        for (std::size_t k = 0; k < dims; ++k) {
            const double *c_row = centers + k * padded + jb;
            const double *ir_row = inv_r_sq + k * padded + jb;
            const __m512d c0 = _mm512_load_pd(c_row + 0);
            const __m512d c1 = _mm512_load_pd(c_row + 8);
            const __m512d ir0 = _mm512_load_pd(ir_row + 0);
            const __m512d ir1 = _mm512_load_pd(ir_row + 8);
            const __m512d xka = _mm512_set1_pd(x0[k]);
            const __m512d xkb = _mm512_set1_pd(x1[k]);
            const __m512d d0a = _mm512_sub_pd(xka, c0);
            const __m512d d1a = _mm512_sub_pd(xka, c1);
            const __m512d d0b = _mm512_sub_pd(xkb, c0);
            const __m512d d1b = _mm512_sub_pd(xkb, c1);
            // -sum via fnmadd: bit-identical, see predictOneAvx512.
            e0a = _mm512_fnmadd_pd(_mm512_mul_pd(d0a, d0a), ir0, e0a);
            e1a = _mm512_fnmadd_pd(_mm512_mul_pd(d1a, d1a), ir1, e1a);
            e0b = _mm512_fnmadd_pd(_mm512_mul_pd(d0b, d0b), ir0, e0b);
            e1b = _mm512_fnmadd_pd(_mm512_mul_pd(d1b, d1b), ir1, e1b);
        }
        const __m512d h0a = exp8pd(e0a);
        const __m512d h1a = exp8pd(e1a);
        const __m512d h0b = exp8pd(e0b);
        const __m512d h1b = exp8pd(e1b);
        const __m512d w0 = _mm512_load_pd(weights + jb + 0);
        const __m512d w1 = _mm512_load_pd(weights + jb + 8);
        acc0a = _mm512_fmadd_pd(w0, h0a, acc0a);
        acc1a = _mm512_fmadd_pd(w1, h1a, acc1a);
        acc0b = _mm512_fmadd_pd(w0, h0b, acc0b);
        acc1b = _mm512_fmadd_pd(w1, h1b, acc1b);
    }
    const __m512d sa = _mm512_add_pd(acc0a, acc1a);
    const __m512d sb = _mm512_add_pd(acc0b, acc1b);
    const __m256d ra =
        _mm256_add_pd(_mm512_castpd512_pd256(sa),
                      _mm512_extractf64x4_pd(sa, 1));
    const __m256d rb =
        _mm256_add_pd(_mm512_castpd512_pd256(sb),
                      _mm512_extractf64x4_pd(sb, 1));
    const __m128d qa = _mm_add_pd(_mm256_castpd256_pd128(ra),
                                  _mm256_extractf128_pd(ra, 1));
    const __m128d qb = _mm_add_pd(_mm256_castpd256_pd128(rb),
                                  _mm256_extractf128_pd(rb, 1));
    out[0] = _mm_cvtsd_f64(_mm_add_sd(qa, _mm_unpackhi_pd(qa, qa)));
    out[1] = _mm_cvtsd_f64(_mm_add_sd(qb, _mm_unpackhi_pd(qb, qb)));
}

/**
 * Four queries per call: same per-query operation sequence again
 * (bit-identical to predictOneAvx512), eight exp chains in flight,
 * and the center/radius loads amortized over four queries.
 */
__attribute__((target("avx512f,avx512dq"))) void
predictQuadAvx512(const double *const x[4], const double *centers,
                  const double *inv_r_sq, const double *weights,
                  std::size_t dims, std::size_t padded, double *out)
{
    __m512d acc0[4], acc1[4];
    for (int q = 0; q < 4; ++q) {
        acc0[q] = _mm512_setzero_pd();
        acc1[q] = _mm512_setzero_pd();
    }
    for (std::size_t jb = 0; jb < padded; jb += 16) {
        __m512d e0[4], e1[4];
        for (int q = 0; q < 4; ++q) {
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
            for (int q = 0; q < 4; ++q) {
                const __m512d xk = _mm512_set1_pd(x[q][k]);
                const __m512d d0 = _mm512_sub_pd(xk, c0);
                const __m512d d1 = _mm512_sub_pd(xk, c1);
                // -sum via fnmadd: bit-identical, see
                // predictOneAvx512.
                e0[q] = _mm512_fnmadd_pd(_mm512_mul_pd(d0, d0), ir0,
                                         e0[q]);
                e1[q] = _mm512_fnmadd_pd(_mm512_mul_pd(d1, d1), ir1,
                                         e1[q]);
            }
        }
        const __m512d w0 = _mm512_load_pd(weights + jb + 0);
        const __m512d w1 = _mm512_load_pd(weights + jb + 8);
        for (int q = 0; q < 4; ++q) {
            acc0[q] = _mm512_fmadd_pd(w0, exp8pd(e0[q]), acc0[q]);
            acc1[q] = _mm512_fmadd_pd(w1, exp8pd(e1[q]), acc1[q]);
        }
    }
    for (int q = 0; q < 4; ++q) {
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
      case SimdKind::Avx512:
        return predictOneAvx512(x, centers_, inv_r_sq_, weights_,
                                dims_, padded_);
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
    // Pair queries on AVX-512 to keep four exp chains in flight
    // (bit-identical to predictOne; see predictPairAvx512).
    if (kind_ == SimdKind::Avx512) {
        for (; i + 4 <= n; i += 4) {
            const double *quad[4] = {row(i), row(i + 1), row(i + 2),
                                     row(i + 3)};
            predictQuadAvx512(quad, centers_, inv_r_sq_, weights_,
                              dims_, padded_, &out[i]);
        }
        for (; i + 2 <= n; i += 2)
            predictPairAvx512(row(i), row(i + 1), centers_, inv_r_sq_,
                              weights_, dims_, padded_, &out[i]);
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
