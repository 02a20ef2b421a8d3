/**
 * @file
 * Execution engine tests: ThreadPool / parallelFor semantics, the
 * determinism contract (bit-identical results at any thread count and
 * tiling), and equivalence of the parallel kernels against naive
 * references.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/calibration.hh"
#include "core/pipeline.hh"
#include "core/pwp.hh"
#include "sim/phi_sim.hh"
#include "snn/activation_gen.hh"
#include "snn/trace.hh"

namespace phi
{
namespace
{

// Size the shared pool for real concurrency even on single-core CI
// machines: the determinism contract must hold (and is only genuinely
// exercised) when chunks actually interleave across threads.
const bool kPoolSized = [] {
    setenv("PHI_THREADS", "8", /*overwrite=*/0);
    return true;
}();

ExecutionConfig
withThreads(int threads)
{
    ExecutionConfig exec;
    exec.threads = threads;
    return exec;
}

BinaryMatrix
clusteredActs(size_t rows, size_t cols, uint64_t seed)
{
    ClusterGenConfig cfg;
    cfg.bitDensity = 0.12;
    cfg.l2DensityTarget = 0.03;
    ClusteredSpikeGenerator gen(cfg, cols, seed);
    Rng rng(seed + 1);
    return gen.generate(rows, rng);
}

Matrix<int16_t>
randomWeights(size_t k, size_t n, uint64_t seed)
{
    Rng rng(seed);
    Matrix<int16_t> w(k, n);
    for (size_t r = 0; r < k; ++r)
        for (size_t c = 0; c < n; ++c)
            w(r, c) = static_cast<int16_t>(rng.uniformInt(-50, 50));
    return w;
}

Matrix<int32_t>
naiveSpikeGemm(const BinaryMatrix& a, const Matrix<int16_t>& w)
{
    Matrix<int32_t> out(a.rows(), w.cols(), 0);
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t k = 0; k < a.cols(); ++k)
            if (a.get(r, k))
                for (size_t c = 0; c < w.cols(); ++c)
                    out(r, c) += w(k, c);
    return out;
}

/** Seed-order (K-ascending) float reference; must match bitwise. */
Matrix<float>
naiveSpikeGemmF(const BinaryMatrix& a, const Matrix<float>& w)
{
    Matrix<float> out(a.rows(), w.cols(), 0.0f);
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t k = 0; k < a.cols(); ++k)
            if (a.get(r, k))
                for (size_t c = 0; c < w.cols(); ++c)
                    out(r, c) += w(k, c);
    return out;
}

void
expectSameDecomposition(const LayerDecomposition& a,
                        const LayerDecomposition& b)
{
    ASSERT_EQ(a.numPartitions(), b.numPartitions());
    for (size_t p = 0; p < a.numPartitions(); ++p) {
        EXPECT_EQ(a.tiles[p].patternIds, b.tiles[p].patternIds);
        EXPECT_EQ(a.tiles[p].l2Offsets, b.tiles[p].l2Offsets);
        ASSERT_EQ(a.tiles[p].l2Entries.size(),
                  b.tiles[p].l2Entries.size());
        for (size_t e = 0; e < a.tiles[p].l2Entries.size(); ++e) {
            EXPECT_EQ(a.tiles[p].l2Entries[e].col,
                      b.tiles[p].l2Entries[e].col);
            EXPECT_EQ(a.tiles[p].l2Entries[e].sign,
                      b.tiles[p].l2Entries[e].sign);
        }
    }
}

void
expectSameTable(const PatternTable& a, const PatternTable& b)
{
    ASSERT_EQ(a.numPartitions(), b.numPartitions());
    for (size_t p = 0; p < a.numPartitions(); ++p)
        EXPECT_EQ(a.partition(p).patterns(), b.partition(p).patterns());
}

// ---------------------------------------------------------------------
// Engine semantics
// ---------------------------------------------------------------------

TEST(ExecutionConfig, ResolvesExplicitThreadCounts)
{
    EXPECT_EQ(withThreads(1).resolvedThreads(), 1);
    EXPECT_EQ(withThreads(6).resolvedThreads(), 6);
    EXPECT_GE(withThreads(0).resolvedThreads(), 1);
}

TEST(ExecutionConfig, TileKRoundsToWholeWords)
{
    ExecutionConfig exec;
    exec.tileK = 1;
    EXPECT_EQ(exec.tileKWords(), 1u);
    exec.tileK = 64;
    EXPECT_EQ(exec.tileKWords(), 1u);
    exec.tileK = 65;
    EXPECT_EQ(exec.tileKWords(), 2u);
    exec.tileK = 4096;
    EXPECT_EQ(exec.tileKWords(), 64u);
}

TEST(Parallel, NumChunksCoversRange)
{
    EXPECT_EQ(numChunks(0, 0, 8), 0u);
    EXPECT_EQ(numChunks(0, 1, 8), 1u);
    EXPECT_EQ(numChunks(0, 8, 8), 1u);
    EXPECT_EQ(numChunks(0, 9, 8), 2u);
    EXPECT_EQ(numChunks(3, 9, 2), 3u);
}

TEST(Parallel, ForVisitsEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        std::vector<int> hits(1000, 0);
        parallelFor(withThreads(threads), 0, hits.size(), 17,
                    [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i)
                ++hits[i];
        });
        for (size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "index " << i << " at " << threads
                                  << " threads";
    }
}

TEST(Parallel, ChunkBoundariesIndependentOfThreadCount)
{
    auto boundaries = [](int threads) {
        std::vector<std::pair<size_t, size_t>> out(numChunks(5, 103, 13));
        parallelForChunks(withThreads(threads), 5, 103, 13,
                          [&](size_t chunk, size_t b, size_t e) {
            out[chunk] = {b, e};
        });
        return out;
    };
    const auto seq = boundaries(1);
    ASSERT_EQ(seq.size(), numChunks(5, 103, 13));
    EXPECT_EQ(seq.front().first, 5u);
    EXPECT_EQ(seq.back().second, 103u);
    for (size_t c = 1; c < seq.size(); ++c)
        EXPECT_EQ(seq[c].first, seq[c - 1].second);
    EXPECT_EQ(boundaries(2), seq);
    EXPECT_EQ(boundaries(8), seq);
}

TEST(Parallel, ExceptionsPropagateAndPoolSurvives)
{
    auto throwing = [&](int threads) {
        parallelFor(withThreads(threads), 0, 64, 1,
                    [&](size_t b, size_t) {
            if (b == 31)
                throw std::runtime_error("chunk failure");
        });
    };
    EXPECT_THROW(throwing(1), std::runtime_error);
    EXPECT_THROW(throwing(8), std::runtime_error);

    // The pool must stay usable after a failed job.
    std::atomic<int> count{0};
    parallelFor(withThreads(8), 0, 64, 1,
                [&](size_t, size_t) { ++count; });
    EXPECT_EQ(count.load(), 64);
}

TEST(Parallel, NestedLoopsRunInlineWithoutDeadlock)
{
    std::atomic<int> count{0};
    parallelFor(withThreads(8), 0, 8, 1, [&](size_t, size_t) {
        parallelFor(withThreads(8), 0, 100, 7,
                    [&](size_t b, size_t e) {
            count += static_cast<int>(e - b);
        });
    });
    EXPECT_EQ(count.load(), 800);
}

TEST(Parallel, PoolActuallyRunsChunksConcurrently)
{
    if (ThreadPool::global().maxParallelism() < 2)
        GTEST_SKIP() << "no helper threads available";

    std::mutex mtx;
    std::condition_variable cv;
    std::set<std::thread::id> ids;
    parallelFor(withThreads(8), 0, 8, 1, [&](size_t, size_t) {
        std::unique_lock<std::mutex> lock(mtx);
        ids.insert(std::this_thread::get_id());
        cv.notify_all();
        // Hold this chunk until a second thread shows up (or time out
        // and let the assertion below report the failure).
        cv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return ids.size() >= 2; });
    });
    EXPECT_GE(ids.size(), 2u);
}

TEST(Parallel, ConcurrentTopLevelSubmittersAreSerialised)
{
    std::atomic<int> a{0};
    std::atomic<int> b{0};
    std::thread other([&] {
        parallelFor(withThreads(8), 0, 500, 3,
                    [&](size_t lo, size_t hi) {
            b += static_cast<int>(hi - lo);
        });
    });
    parallelFor(withThreads(8), 0, 500, 3, [&](size_t lo, size_t hi) {
        a += static_cast<int>(hi - lo);
    });
    other.join();
    EXPECT_EQ(a.load(), 500);
    EXPECT_EQ(b.load(), 500);
}

TEST(ThreadPool, LocalPoolRespectsWorkerCount)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.maxParallelism(), 4);
    std::atomic<int> count{0};
    pool.run(16, 4, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 16);
}

// ---------------------------------------------------------------------
// BinaryMatrix tail-bit invariant
// ---------------------------------------------------------------------

TEST(BinaryMatrixTail, MaskMatchesColumnCount)
{
    Rng rng(11);
    BinaryMatrix a = BinaryMatrix::random(4, 70, 0.5, rng);
    EXPECT_EQ(a.tailMask(), lowMask(6));
    BinaryMatrix b = BinaryMatrix::random(4, 128, 0.5, rng);
    EXPECT_EQ(b.tailMask(), ~0ull);
}

TEST(BinaryMatrixTail, MutatorsKeepTailBitsClear)
{
    Rng rng(12);
    BinaryMatrix a = BinaryMatrix::random(9, 130, 0.6, rng);
    EXPECT_TRUE(a.tailBitsClear());
    a.deposit(3, 120, 16, ~0ull); // straddles the matrix edge
    EXPECT_TRUE(a.tailBitsClear());
    for (size_t c = 120; c < 130; ++c)
        EXPECT_TRUE(a.get(3, c));
    BinaryMatrix d = BinaryMatrix::fromDense(a.toDense());
    EXPECT_TRUE(d.tailBitsClear());
    EXPECT_EQ(a, d);
}

// ---------------------------------------------------------------------
// Kernel equivalence + thread-count invariance
// ---------------------------------------------------------------------

TEST(ParallelKernels, SpikeGemmMatchesDenseReference)
{
    // 250 columns: the last activation word carries tail bits.
    BinaryMatrix acts = clusteredActs(123, 250, 21);
    Matrix<int16_t> w = randomWeights(250, 37, 22);
    const Matrix<int32_t> ref = naiveSpikeGemm(acts, w);
    for (int threads : {1, 2, 8})
        EXPECT_EQ(spikeGemm(acts, w, withThreads(threads)), ref);
}

TEST(ParallelKernels, SpikeGemmInvariantUnderTiling)
{
    BinaryMatrix acts = clusteredActs(96, 320, 23);
    Matrix<int16_t> w = randomWeights(320, 96, 24);
    const Matrix<int32_t> ref = naiveSpikeGemm(acts, w);
    for (size_t tileN : {size_t{7}, size_t{64}, size_t{4096}}) {
        for (size_t tileK : {size_t{64}, size_t{130}, size_t{4096}}) {
            ExecutionConfig exec = withThreads(8);
            exec.tileN = tileN;
            exec.tileK = tileK;
            EXPECT_EQ(spikeGemm(acts, w, exec), ref)
                << "tileN=" << tileN << " tileK=" << tileK;
        }
    }
}

TEST(ParallelKernels, SpikeGemmFBitIdenticalAcrossThreads)
{
    BinaryMatrix acts = clusteredActs(77, 200, 25);
    Rng rng(26);
    Matrix<float> w(200, 33);
    for (size_t r = 0; r < w.rows(); ++r)
        for (size_t c = 0; c < w.cols(); ++c)
            w(r, c) = static_cast<float>(rng.uniform()) - 0.5f;

    const Matrix<float> ref = naiveSpikeGemmF(acts, w);
    for (int threads : {1, 2, 8}) {
        Matrix<float> out = spikeGemmF(acts, w, withThreads(threads));
        ASSERT_EQ(out.rows(), ref.rows());
        for (size_t r = 0; r < ref.rows(); ++r)
            for (size_t c = 0; c < ref.cols(); ++c)
                ASSERT_EQ(out(r, c), ref(r, c))
                    << "float drift at " << threads << " threads";
    }
}

TEST(ParallelKernels, CalibrationDecompositionPhiGemmInvariant)
{
    BinaryMatrix acts = clusteredActs(300, 256, 31);
    Matrix<int16_t> w = randomWeights(256, 48, 32);

    CalibrationConfig calib;
    calib.k = 16;
    calib.q = 64;
    calib.kmeans.maxIters = 10;
    calib.exec = withThreads(1);
    const PatternTable refTable = calibrateLayer(acts, calib);
    const LayerDecomposition refDec =
        decomposeLayer(acts, refTable, withThreads(1));
    const Matrix<int32_t> refOut =
        phiGemm(refDec, refTable, w, withThreads(1));

    // The hierarchical product must equal the plain binary GEMM.
    EXPECT_EQ(refOut, naiveSpikeGemm(acts, w));

    for (int threads : {2, 8}) {
        calib.exec = withThreads(threads);
        PatternTable table = calibrateLayer(acts, calib);
        expectSameTable(table, refTable);
        LayerDecomposition dec =
            decomposeLayer(acts, table, withThreads(threads));
        expectSameDecomposition(dec, refDec);
        EXPECT_EQ(phiGemm(dec, table, w, withThreads(threads)), refOut);
    }
}

TEST(ParallelKernels, KMeansFitInvariantAcrossThreads)
{
    Rng rng(41);
    std::vector<uint64_t> rows;
    for (int i = 0; i < 4000; ++i)
        rows.push_back(rng.next() & 0xffff);
    auto hist = BinaryKMeans::histogram(rows);

    KMeansConfig cfg;
    cfg.numClusters = 32;
    cfg.init = KMeansConfig::Init::PlusPlus;
    cfg.exec = withThreads(1);
    const PatternSet ref = BinaryKMeans(cfg).fit(hist, 16);
    ASSERT_FALSE(ref.empty());
    for (int threads : {2, 8}) {
        cfg.exec = withThreads(threads);
        EXPECT_EQ(BinaryKMeans(cfg).fit(hist, 16).patterns(),
                  ref.patterns());
    }
}

TEST(ParallelKernels, PipelineComputeMatchesReferenceAtAnyThreadCount)
{
    BinaryMatrix acts = clusteredActs(180, 192, 61);
    Matrix<int16_t> w = randomWeights(192, 40, 62);

    CalibrationConfig calib;
    calib.k = 16;
    calib.q = 48;
    calib.kmeans.maxIters = 8;

    const Matrix<int32_t> ref = naiveSpikeGemm(acts, w);
    for (int threads : {1, 8}) {
        Pipeline pipe(calib, withThreads(threads));
        pipe.addLayer("l0", {&acts}).bindWeights(w);
        const CompiledModel model = pipe.compile();
        const CompiledLayer& layer = model.layer(0);
        EXPECT_EQ(layer.compute(layer.decompose(acts, withThreads(threads)),
                                withThreads(threads)),
                  ref);
    }
}

TEST(ParallelKernels, SimulatorRunInvariantAcrossThreads)
{
    ModelSpec spec = makeModel(ModelId::ResNet18, DatasetId::CIFAR10);
    TraceOptions opt;
    opt.seed = 7;
    opt.calib.q = 32;
    opt.calib.kmeans.maxIters = 6;
    opt.calib.kmeans.maxDistinct = 512;
    opt.exec = withThreads(1);
    ModelTrace trace = buildModelTrace(spec, opt);

    SimResult ref =
        PhiSimulator({}, defaultOpEnergies(), withThreads(1)).run(trace);
    for (int threads : {2, 8}) {
        SimResult out = PhiSimulator({}, defaultOpEnergies(),
                                     withThreads(threads))
                            .run(trace);
        EXPECT_EQ(out.cycles, ref.cycles);
        EXPECT_EQ(out.energy.total(), ref.energy.total());
        EXPECT_EQ(out.traffic.totalBytes(), ref.traffic.totalBytes());
    }

    // Trace construction itself must also be thread-count invariant.
    opt.exec = withThreads(8);
    ModelTrace trace8 = buildModelTrace(spec, opt);
    ASSERT_EQ(trace8.layers.size(), trace.layers.size());
    for (size_t i = 0; i < trace.layers.size(); ++i) {
        EXPECT_EQ(trace8.layers[i].acts, trace.layers[i].acts);
        expectSameTable(trace8.layers[i].table, trace.layers[i].table);
        expectSameDecomposition(trace8.layers[i].dec,
                                trace.layers[i].dec);
    }
}

} // namespace
} // namespace phi
