/**
 * @file
 * Differential test of the best-pattern scan (PatternAssigner) against
 * a brute-force reference written here, on every available SIMD
 * backend — pattern counts past one scan block and past 8-bit ids
 * included — and of decomposeLayer's tiles across backends and thread
 * counts.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/decompose.hh"
#include "numeric/simd.hh"

namespace phi
{
namespace
{

/**
 * The matching rule, spelled out: minimum Hamming distance, first
 * minimum on ties, and no pattern unless it is strictly better than
 * the row's own popcount.
 */
RowAssignment
bruteForce(const PatternSet& ps, uint64_t row)
{
    RowAssignment best;
    best.posMask = row;
    int bestCount = popcount64(row);
    for (size_t i = 0; i < ps.size(); ++i) {
        const uint64_t p = ps.patterns()[i];
        const int d = popcount64(row ^ p);
        if (d < bestCount) {
            bestCount = d;
            best.patternId = static_cast<uint16_t>(i + 1);
            best.posMask = row & ~p;
            best.negMask = p & ~row;
        }
    }
    return best;
}

/** Unfiltered random patterns: zeros, one-hots and duplicates (ties)
 *  are all legal inputs to the matcher. */
PatternSet
randomPatterns(int k, size_t q, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> pats(q);
    for (auto& p : pats)
        p = rng.next() & lowMask(k);
    return PatternSet(k, pats);
}

const size_t kPatternCounts[] = {0, 1, 128, 300};
const int kWidths[] = {8, 16};

/** Rows to match at width k: every value at k=8, a sample plus the
 *  extremes at k=16. */
std::vector<uint64_t>
probeRows(int k, uint64_t seed)
{
    std::vector<uint64_t> rows;
    if (k <= 8) {
        for (uint64_t v = 0; v < (uint64_t{1} << k); ++v)
            rows.push_back(v);
        return rows;
    }
    Rng rng(seed);
    rows = {0, lowMask(k)};
    for (int i = 0; i < 3000; ++i)
        rows.push_back(rng.next() & lowMask(k));
    return rows;
}

TEST(Matcher, AssignEqualsBruteForceOnEveryBackend)
{
    for (int k : kWidths) {
        for (size_t q : kPatternCounts) {
            const PatternSet ps = randomPatterns(k, q, 100 + q + k);
            const std::vector<uint64_t> rows = probeRows(k, 7 + q);
            for (SimdIsa isa : simd::availableIsas()) {
                const PatternAssigner assigner(ps, isa);
                for (uint64_t row : rows) {
                    const RowAssignment want = bruteForce(ps, row);
                    const RowAssignment got = assigner.assign(row);
                    ASSERT_EQ(got.patternId, want.patternId)
                        << simdIsaName(isa) << " k=" << k << " q=" << q
                        << " row=" << row;
                    ASSERT_EQ(got.posMask, want.posMask);
                    ASSERT_EQ(got.negMask, want.negMask);
                }
            }
        }
    }
}

TEST(Matcher, DecompositionIsIdenticalAcrossBackendsAndThreads)
{
    for (int k : kWidths) {
        for (size_t q : kPatternCounts) {
            // 300 rows span two decomposition chunks; 40 columns leave
            // a ragged final partition at both widths.
            Rng rng(31 + q + k);
            const BinaryMatrix acts =
                BinaryMatrix::random(300, 40, 0.3, rng);
            const size_t parts = ceilDiv(acts.cols(), size_t(k));
            std::vector<PatternSet> sets;
            for (size_t p = 0; p < parts; ++p)
                sets.push_back(randomPatterns(k, q, 500 + p * 7 + q));
            const PatternTable table(k, sets);

            for (SimdIsa isa : simd::availableIsas()) {
                for (int threads : {1, 2, 8}) {
                    ExecutionConfig exec;
                    exec.isa = isa;
                    exec.threads = threads;
                    const LayerDecomposition dec =
                        decomposeLayer(acts, table, exec);
                    ASSERT_EQ(dec.tiles.size(), parts);
                    for (size_t p = 0; p < parts; ++p) {
                        const TileDecomposition& tile = dec.tiles[p];
                        ASSERT_EQ(tile.numRows(), acts.rows());
                        for (size_t r = 0; r < acts.rows(); ++r) {
                            const RowAssignment want = bruteForce(
                                sets[p],
                                acts.extract(r, p * size_t(k), k));
                            // Rebuild the row's masks from its L2 CSR
                            // slice, which must be column-ascending.
                            uint64_t pos = 0, neg = 0;
                            int lastCol = -1;
                            auto [lo, hi] = tile.rowRange(r);
                            for (uint32_t e = lo; e < hi; ++e) {
                                const L2Entry& l2 = tile.l2Entries[e];
                                ASSERT_GT(int(l2.col), lastCol);
                                lastCol = l2.col;
                                (l2.sign > 0 ? pos : neg) |=
                                    uint64_t{1} << l2.col;
                            }
                            ASSERT_EQ(tile.patternIds[r], want.patternId)
                                << simdIsaName(isa) << " threads="
                                << threads << " k=" << k << " q=" << q
                                << " tile " << p << " row " << r;
                            ASSERT_EQ(pos, want.posMask);
                            ASSERT_EQ(neg, want.negMask);
                        }
                    }
                }
            }
        }
    }
}

TEST(Matcher, DifferencePopcountIsMinimal)
{
    const PatternSet ps = randomPatterns(16, 64, 4);
    const PatternAssigner assigner(ps);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t row = rng.next() & 0xffff;
        const int chosen = assigner.assign(row).nnz();
        // No pattern (or baseline) may beat the chosen count.
        EXPECT_LE(chosen, popcount64(row));
        for (uint64_t p : ps.patterns())
            EXPECT_LE(chosen, hammingDistance(row, p));
    }
}

} // namespace
} // namespace phi
