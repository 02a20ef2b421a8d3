/**
 * @file
 * Tests for the Phi hierarchical decomposition: assignment rules,
 * bidirectional correction, and the losslessness invariant swept over
 * densities, tile widths and pattern counts.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "core/calibration.hh"
#include "core/decompose.hh"

namespace phi
{
namespace
{

TEST(PatternAssigner, ExactMatchHasEmptyL2)
{
    PatternSet ps(4, {0b0110, 0b1101});
    PatternAssigner a(ps);
    const RowAssignment& r = a.assign(0b0110);
    EXPECT_EQ(r.patternId, 1);
    EXPECT_EQ(r.posMask, 0u);
    EXPECT_EQ(r.negMask, 0u);
    EXPECT_EQ(r.nnz(), 0);
}

TEST(PatternAssigner, PaperFigure2Examples)
{
    // Fig. 2(b): patterns 1=0110, 2=1101 (ids per our 1-based order).
    PatternSet ps(4, {0b0110, 0b1101});
    PatternAssigner a(ps);

    // Row 2 = 1110 matches pattern 0110 with one +1 correction at the
    // bit where the row has 1 and the pattern 0 (paper: "1000").
    const RowAssignment& row2 = a.assign(0b1110);
    EXPECT_EQ(row2.patternId, 1);
    EXPECT_EQ(row2.posMask, 0b1000u);
    EXPECT_EQ(row2.negMask, 0u);

    // Row 1 = 1100 matches pattern 1101 with one -1 correction
    // (paper: "000-1" at the pattern's extra bit).
    const RowAssignment& row1 = a.assign(0b1100);
    EXPECT_EQ(row1.patternId, 2);
    EXPECT_EQ(row1.negMask, 0b0001u);
    EXPECT_EQ(row1.posMask, 0u);
}

TEST(PatternAssigner, KeepsBitSparsityWhenPatternsDontHelp)
{
    // Row 3 in Fig. 2: original bit sparsity beats every pattern, so
    // no pattern is assigned and L2 carries the raw bits.
    PatternSet ps(4, {0b0110, 0b1101});
    PatternAssigner a(ps);
    const RowAssignment& r = a.assign(0b0001);
    EXPECT_EQ(r.patternId, 0);
    EXPECT_EQ(r.posMask, 0b0001u);
    EXPECT_EQ(r.negMask, 0u);
}

TEST(PatternAssigner, TieGoesToNoPattern)
{
    // Row popcount 1; best pattern distance also 1: assigning would
    // add an L1 op without reducing L2 -> keep no pattern.
    PatternSet ps(4, {0b0011});
    PatternAssigner a(ps);
    const RowAssignment& r = a.assign(0b0010);
    EXPECT_EQ(r.patternId, 0);
}

TEST(PatternAssigner, ZeroRowNeedsNothing)
{
    PatternSet ps(4, {0b0110});
    PatternAssigner a(ps);
    const RowAssignment& r = a.assign(0);
    EXPECT_EQ(r.patternId, 0);
    EXPECT_EQ(r.nnz(), 0);
}

TEST(PatternAssigner, PicksMinimumHammingPattern)
{
    PatternSet ps(8, {0b11110000, 0b00001111, 0b10101010});
    PatternAssigner a(ps);
    const RowAssignment& r = a.assign(0b11110001);
    EXPECT_EQ(r.patternId, 1);
    EXPECT_EQ(r.nnz(), 1);
}

TEST(Decompose, TileCsrLayoutIsConsistent)
{
    Rng rng(3);
    BinaryMatrix acts = BinaryMatrix::random(64, 16, 0.3, rng);
    PatternSet ps(16, {0xFF00, 0x00FF, 0xF0F0});
    PatternAssigner assigner(ps);
    TileDecomposition tile = decomposeTile(acts, 0, assigner);
    EXPECT_EQ(tile.numRows(), 64u);
    EXPECT_EQ(tile.l2Offsets.size(), 65u);
    EXPECT_EQ(tile.l2Offsets.back(), tile.l2Entries.size());
    for (size_t r = 0; r < 64; ++r) {
        auto [lo, hi] = tile.rowRange(r);
        EXPECT_LE(lo, hi);
        for (uint32_t e = lo; e < hi; ++e) {
            EXPECT_LT(tile.l2Entries[e].col, 16);
            EXPECT_TRUE(tile.l2Entries[e].sign == 1 ||
                        tile.l2Entries[e].sign == -1);
            if (e + 1 < hi) {
                EXPECT_LT(tile.l2Entries[e].col,
                          tile.l2Entries[e + 1].col)
                    << "entries must be column-sorted";
            }
        }
    }
}

TEST(Decompose, CachedTileMaximaMatchTheTiles)
{
    Rng rng(31);
    BinaryMatrix acts = BinaryMatrix::random(60, 33, 0.25, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 8;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);
    ASSERT_TRUE(dec.hasTileMaxima());
    for (size_t t = 0; t < dec.tiles.size(); ++t) {
        uint16_t maxId = 0, maxCol = 0;
        for (uint16_t id : dec.tiles[t].patternIds)
            maxId = std::max(maxId, id);
        for (const L2Entry& e : dec.tiles[t].l2Entries)
            maxCol = std::max(maxCol, e.col);
        EXPECT_EQ(dec.tileMaxPatternId[t], maxId) << "tile " << t;
        EXPECT_EQ(dec.tileMaxL2Col[t], maxCol) << "tile " << t;
    }
}

TEST(Decompose, ReconstructionIsExact)
{
    Rng rng(5);
    BinaryMatrix acts = BinaryMatrix::random(128, 64, 0.25, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 32;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);
    BinaryMatrix rebuilt = reconstructActivations(dec, table);
    EXPECT_TRUE(rebuilt == acts);
}

TEST(Decompose, RaggedFinalPartition)
{
    // K not a multiple of k: the final tile is narrower.
    Rng rng(7);
    BinaryMatrix acts = BinaryMatrix::random(50, 27, 0.4, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 16;
    PatternTable table = calibrateLayer(acts, cfg);
    EXPECT_EQ(table.numPartitions(), 2u);
    LayerDecomposition dec = decomposeLayer(acts, table);
    EXPECT_TRUE(reconstructActivations(dec, table) == acts);
}

TEST(Decompose, CountersAreConsistent)
{
    Rng rng(9);
    BinaryMatrix acts = BinaryMatrix::random(100, 48, 0.2, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 16;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);

    size_t nnz = 0;
    size_t assigned = 0;
    for (const auto& t : dec.tiles) {
        nnz += t.l2Nnz();
        for (uint16_t id : t.patternIds)
            if (id)
                ++assigned;
    }
    EXPECT_EQ(dec.totalL2Nnz(), nnz);
    EXPECT_EQ(dec.totalAssigned(), assigned);
}

TEST(Decompose, L2NeverExceedsBitNnz)
{
    // The assignment rule guarantees per-row-tile L2 nnz <= popcount,
    // so Phi's online work never exceeds bit sparsity.
    Rng rng(11);
    BinaryMatrix acts = BinaryMatrix::random(200, 64, 0.3, rng);
    CalibrationConfig cfg;
    cfg.k = 16;
    cfg.q = 64;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);
    for (const auto& tile : dec.tiles) {
        for (size_t r = 0; r < tile.numRows(); ++r) {
            auto [lo, hi] = tile.rowRange(r);
            const size_t start =
                tile.partition * static_cast<size_t>(dec.k);
            const uint64_t row = acts.extract(r, start, dec.k);
            EXPECT_LE(hi - lo,
                      static_cast<uint32_t>(popcount64(row)));
        }
    }
}

/** Property sweep: losslessness across densities x k x q. */
struct SweepParam
{
    double density;
    int k;
    int q;
};

class DecomposeSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(DecomposeSweep, LosslessReconstruction)
{
    const auto [density, k, q] = GetParam();
    Rng rng(static_cast<uint64_t>(density * 1000) + k * 31 + q);
    BinaryMatrix acts = BinaryMatrix::random(96, 80, density, rng);
    CalibrationConfig cfg;
    cfg.k = k;
    cfg.q = q;
    PatternTable table = calibrateLayer(acts, cfg);
    LayerDecomposition dec = decomposeLayer(acts, table);
    EXPECT_TRUE(reconstructActivations(dec, table) == acts)
        << "density=" << density << " k=" << k << " q=" << q;
}

INSTANTIATE_TEST_SUITE_P(
    DensityKq, DecomposeSweep,
    ::testing::Values(SweepParam{0.02, 16, 32}, SweepParam{0.05, 16, 32},
                      SweepParam{0.10, 16, 128}, SweepParam{0.20, 16, 64},
                      SweepParam{0.50, 16, 128}, SweepParam{0.90, 16, 32},
                      SweepParam{0.10, 4, 8}, SweepParam{0.10, 8, 16},
                      SweepParam{0.10, 32, 64}, SweepParam{0.10, 64, 64},
                      SweepParam{0.30, 8, 128}, SweepParam{0.70, 32, 32}));

} // namespace
} // namespace phi
