#include "rbf/train_kernels.hh"

#include <algorithm>

#if (defined(__x86_64__) || defined(__i386__)) && !defined(PPM_SIMD_DISABLED)
#include <immintrin.h>
#define PPM_TRAIN_HAVE_X86 1
#endif

namespace ppm::rbf {

namespace {

// Every tier computes each element as the scalar loops below do; see
// the numerical contract in train_kernels.hh.

void
gramScalar(const double *h, std::size_t rows, std::size_t n, double *g)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const double *a = h + r * n;
        for (std::size_t i = 0; i < n; ++i) {
            const double ai = a[i];
            if (ai == 0.0)
                continue;
            double *gi = g + packedRow(i);
            for (std::size_t j = 0; j <= i; ++j)
                gi[j] += ai * a[j];
        }
    }
}

void
residualScalar(const double *const *cols, const double *w, std::size_t m,
               std::size_t p, double *pred)
{
    std::fill_n(pred, p, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
        const double wj = w[j];
        const double *col = cols[j];
        for (std::size_t i = 0; i < p; ++i)
            pred[i] += wj * col[i];
    }
}

#if defined(PPM_TRAIN_HAVE_X86)

/**
 * The Gram tiles cover rows i0..i0+3 and a run of columns from j0.
 * Row i keeps the columns j0 <= j <= i (packed lower storage); rows
 * past n repeat the last row and keep nothing.
 */
struct GramRows
{
    const double *h;
    std::size_t rows;
    std::size_t n;
    /** Column of h broadcast for tile row t. */
    std::size_t col[4];
    /** Packed row of tile row t. */
    double *g[4];
    /** Tile rows that exist (1..4). */
    std::size_t live;

    GramRows(const double *h_, std::size_t rows_, std::size_t n_,
             double *gram, std::size_t i0)
        : h(h_), rows(rows_), n(n_), live(std::min<std::size_t>(4, n_ - i0))
    {
        for (std::size_t t = 0; t < 4; ++t) {
            col[t] = i0 + std::min(t, live - 1);
            g[t] = gram + packedRow(col[t]);
        }
    }

    /** Columns of [j0, j0 + width) that tile row t keeps. */
    std::size_t
    keep(std::size_t t, std::size_t j0, std::size_t width) const
    {
        if (t >= live || col[t] < j0)
            return 0;
        return std::min(width, col[t] - j0 + 1);
    }
};

/** AVX2 lane mask of the first @p count (<= 4) lanes. */
__attribute__((target("avx2"))) inline __m256i
firstLanes(std::size_t count)
{
    return _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(count)),
        _mm256_setr_epi64x(0, 1, 2, 3));
}

/** Four doubles at @p p; an edge tile loads only the lanes it keeps. */
template <bool kEdge>
__attribute__((target("avx2"))) inline __m256d
load4(const double *p, __m256i keep)
{
    if constexpr (kEdge)
        return _mm256_maskload_pd(p, keep);
    else
        return _mm256_loadu_pd(p);
}

/** Store four doubles; an edge tile stores only the lanes it keeps. */
template <bool kEdge>
__attribute__((target("avx2"))) inline void
store4(double *p, __m256i keep, __m256d v)
{
    if constexpr (kEdge)
        _mm256_maskstore_pd(p, keep, v);
    else
        _mm256_storeu_pd(p, v);
}

/**
 * 4 x 8 AVX2 Gram tile at columns j0; an edge tile (at the diagonal
 * or past the last row) masks its loads and stores.
 */
template <bool kEdge>
__attribute__((target("avx2"))) void
gramTileAvx2(const GramRows &t, std::size_t j0)
{
    // The last live row keeps the most columns; no row reads more of h.
    const std::size_t wide = t.keep(t.live - 1, j0, 8);
    const __m256i load0 = firstLanes(std::min<std::size_t>(wide, 4));
    const __m256i load1 = firstLanes(wide > 4 ? wide - 4 : 0);
    __m256i keep[4][2];
    __m256d c[4][2];
    for (std::size_t r = 0; r < 4; ++r) {
        const std::size_t k = t.keep(r, j0, 8);
        keep[r][0] = firstLanes(std::min<std::size_t>(k, 4));
        keep[r][1] = firstLanes(k > 4 ? k - 4 : 0);
        c[r][0] = load4<kEdge>(t.g[r] + j0, keep[r][0]);
        c[r][1] = load4<kEdge>(t.g[r] + j0 + 4, keep[r][1]);
    }
    for (std::size_t p = 0; p < t.rows; ++p) {
        const double *a = t.h + p * t.n;
        const __m256d b0 = load4<kEdge>(a + j0, load0);
        const __m256d b1 = load4<kEdge>(a + j0 + 4, load1);
#pragma GCC unroll 4
        for (std::size_t r = 0; r < 4; ++r) {
            const __m256d x = _mm256_set1_pd(a[t.col[r]]);
            c[r][0] = _mm256_add_pd(c[r][0], _mm256_mul_pd(x, b0));
            c[r][1] = _mm256_add_pd(c[r][1], _mm256_mul_pd(x, b1));
        }
    }
    for (std::size_t r = 0; r < 4; ++r) {
        store4<kEdge>(t.g[r] + j0, keep[r][0], c[r][0]);
        store4<kEdge>(t.g[r] + j0 + 4, keep[r][1], c[r][1]);
    }
}

__attribute__((target("avx2"))) void
gramAvx2(const double *h, std::size_t rows, std::size_t n, double *g)
{
    for (std::size_t i0 = 0; i0 < n; i0 += 4) {
        const GramRows t(h, rows, n, g, i0);
        for (std::size_t j0 = 0; j0 < i0 + t.live; j0 += 8) {
            if (t.live == 4 && j0 + 8 <= i0 + 1)
                gramTileAvx2<false>(t, j0);
            else
                gramTileAvx2<true>(t, j0);
        }
    }
}

/** AVX-512 mask of the first @p count (<= 8) lanes. */
inline __mmask8
firstLanes8(std::size_t count)
{
    return static_cast<__mmask8>((1u << count) - 1);
}

/** 4 x 16 AVX-512 Gram tiles; masks cover the diagonal tiles. */
__attribute__((target("avx512f"))) void
gramAvx512(const double *h, std::size_t rows, std::size_t n, double *g)
{
    for (std::size_t i0 = 0; i0 < n; i0 += 4) {
        const GramRows t(h, rows, n, g, i0);
        for (std::size_t j0 = 0; j0 < i0 + t.live; j0 += 16) {
            __mmask8 keep[4][2];
            __m512d c[4][2];
            for (std::size_t r = 0; r < 4; ++r) {
                const std::size_t k = t.keep(r, j0, 16);
                keep[r][0] = firstLanes8(std::min<std::size_t>(k, 8));
                keep[r][1] = firstLanes8(k > 8 ? k - 8 : 0);
                c[r][0] = _mm512_maskz_loadu_pd(keep[r][0], t.g[r] + j0);
                c[r][1] =
                    _mm512_maskz_loadu_pd(keep[r][1], t.g[r] + j0 + 8);
            }
            const std::size_t wide = t.keep(t.live - 1, j0, 16);
            const __mmask8 load0 = firstLanes8(std::min<std::size_t>(wide, 8));
            const __mmask8 load1 = firstLanes8(wide > 8 ? wide - 8 : 0);
            for (std::size_t p = 0; p < rows; ++p) {
                const double *a = h + p * n;
                const __m512d b0 = _mm512_maskz_loadu_pd(load0, a + j0);
                const __m512d b1 =
                    _mm512_maskz_loadu_pd(load1, a + j0 + 8);
#pragma GCC unroll 4
                for (std::size_t r = 0; r < 4; ++r) {
                    const __m512d x = _mm512_set1_pd(a[t.col[r]]);
                    c[r][0] = _mm512_add_pd(c[r][0], _mm512_mul_pd(x, b0));
                    c[r][1] = _mm512_add_pd(c[r][1], _mm512_mul_pd(x, b1));
                }
            }
            for (std::size_t r = 0; r < 4; ++r) {
                _mm512_mask_storeu_pd(t.g[r] + j0, keep[r][0], c[r][0]);
                _mm512_mask_storeu_pd(t.g[r] + j0 + 8, keep[r][1],
                                      c[r][1]);
            }
        }
    }
}

/** 32 points (8 AVX2 vectors) per tile; the last tile is masked. */
template <bool kEdge>
__attribute__((target("avx2"))) void
residualTileAvx2(const double *const *cols, const double *w,
                 std::size_t m, std::size_t i0, std::size_t count,
                 double *pred)
{
    __m256i keep[8];
    __m256d acc[8];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < 8; ++v) {
        const std::size_t from = 4 * v;
        keep[v] = firstLanes(
            count > from ? std::min<std::size_t>(count - from, 4) : 0);
        acc[v] = _mm256_setzero_pd();
    }
    for (std::size_t j = 0; j < m; ++j) {
        const __m256d wj = _mm256_set1_pd(w[j]);
        const double *col = cols[j] + i0;
#pragma GCC unroll 8
        for (std::size_t v = 0; v < 8; ++v)
            acc[v] = _mm256_add_pd(
                acc[v], _mm256_mul_pd(wj, load4<kEdge>(col + 4 * v, keep[v])));
    }
#pragma GCC unroll 8
    for (std::size_t v = 0; v < 8; ++v)
        store4<kEdge>(pred + i0 + 4 * v, keep[v], acc[v]);
}

__attribute__((target("avx2"))) void
residualAvx2(const double *const *cols, const double *w, std::size_t m,
             std::size_t p, double *pred)
{
    std::size_t i0 = 0;
    for (; i0 + 32 <= p; i0 += 32)
        residualTileAvx2<false>(cols, w, m, i0, 32, pred);
    if (i0 < p)
        residualTileAvx2<true>(cols, w, m, i0, p - i0, pred);
}

#endif // PPM_TRAIN_HAVE_X86

} // namespace

void
gramAccumulate(SimdKind kind, const double *h, std::size_t rows,
               std::size_t n, double *g)
{
    switch (kind) {
#if defined(PPM_TRAIN_HAVE_X86)
      case SimdKind::Avx512:
        gramAvx512(h, rows, n, g);
        return;
      case SimdKind::Avx2:
        gramAvx2(h, rows, n, g);
        return;
#endif
      default:
        gramScalar(h, rows, n, g);
    }
}

void
residualPredict(SimdKind kind, const double *const *cols, const double *w,
                std::size_t m, std::size_t p, double *pred)
{
    switch (kind) {
#if defined(PPM_TRAIN_HAVE_X86)
      // The pass streams m columns from L2: 512-bit lanes measured no
      // faster than 256-bit ones, so AVX-512 runs the AVX2 tile.
      case SimdKind::Avx512:
      case SimdKind::Avx2:
        residualAvx2(cols, w, m, p, pred);
        return;
#endif
      default:
        residualScalar(cols, w, m, p, pred);
    }
}

} // namespace ppm::rbf
