/**
 * @file
 * Shared machinery of the repository benchmark: options, metric
 * reporting, the span tracer, the open/closed-loop load generator, the
 * fixed serving models, and the serial per-layer replays.
 *
 * The benchmark drives the phi stack only through its public
 * functions. Every workload makes its inputs and their references from
 * the --seed argument before any timed interval starts; the program
 * under test only ever sees the generated activations.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiled_model.hh"
#include "core/stats.hh"
#include "io/serialize.hh"
#include "numeric/binary_matrix.hh"
#include "numeric/matrix.hh"
#include "runtime/registry.hh"

namespace perfbench
{

using phi::BinaryMatrix;
using phi::Matrix;
using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Command-line options. Each workload holds its own frozen
 *  parameters (paced rate, saturated window). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for the .phim round trip and the span file. */
    std::string workdir = ".bench_build/run";
    std::string commit = "unknown";
    /** Self-check hook: flip one expected bit so the correctness gate
     *  must fire. */
    bool corrupt = false;
};

/** Ordered name -> {value, unit} list printed as the result line. */
class Report
{
  public:
    void add(const std::string& name, double value, const std::string& unit)
    {
        items.push_back({name, {value, unit}});
    }
    const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
    entries() const
    {
        return items;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;
};

/** Linear-interpolated percentile, p in [0, 100]; 0 when empty. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/**
 * Tail latency of a paced phase: the @p p percentile of each
 * consecutive window of @p window samples (in issue order; a short
 * last window joins the one before), then the median across windows.
 * Every window keeps at least window * (1 - p/100) samples beyond its
 * percentile, and one stall episode moves one window, not the run's
 * figure. With fewer than two windows' worth, the plain percentile.
 */
double windowedPercentile(const std::vector<double>& samples, double p,
                          size_t window);

// ---- tracing --------------------------------------------------------

/** One recorded span: a layer boundary around a call into the stack. */
struct SpanRecord
{
    const char* name = "";
    uint64_t id = 0;
    uint64_t parent = 0; // 0 = root
    uint64_t request = 0;
    Clock::time_point begin;
    Clock::time_point end;
};

/**
 * Process-wide span store. Spans stay in memory and are written out
 * once, when the run ends; recording is a no-op while disabled, so
 * the untraced runs that give the end-to-end metrics pay one branch.
 */
class Tracer
{
  public:
    static Tracer& instance();

    void setEnabled(bool on) { enabledFlag.store(on); }
    bool enabled() const { return enabledFlag.load(); }

    uint64_t newId() { return nextId.fetch_add(1); }

    void record(const char* name, uint64_t id, uint64_t parent,
                uint64_t request, Clock::time_point begin,
                Clock::time_point end);

    /**
     * Self time per layer (the name's prefix before the first '.'):
     * each span's duration minus the union of its children's
     * intervals, summed per layer, milliseconds.
     */
    std::vector<std::pair<std::string, double>> selfTimeByLayer() const;

    /** Write every span as JSON lines to @p path. */
    void write(const std::string& path) const;

  private:
    std::atomic<bool> enabledFlag{false};
    std::atomic<uint64_t> nextId{1};
    mutable std::mutex mutex;
    std::vector<SpanRecord> spans;
    Clock::time_point origin = Clock::now();
};

/** RAII span; records on destruction when tracing is on. */
class Span
{
  public:
    explicit Span(const char* name, uint64_t parent = 0,
                  uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    uint64_t id() const { return spanId; }

  private:
    const char* spanName;
    uint64_t spanId;
    uint64_t parentId;
    uint64_t requestId;
    Clock::time_point begin;
};

// ---- load generator -------------------------------------------------

/** Outcome of one or more timed phases of the same kind. */
struct PhaseResult
{
    /** Paced phases only: due time -> completion, and (traced runs
     *  only) how late the generator issued, per operation in issue
     *  order. */
    std::vector<double> latencyMs;
    std::vector<double> lateMs;
    /** Per phase: completions before the phase's end, per second from
     *  the phase's start to the last of them. */
    std::vector<double> phaseRates;
    size_t attempted = 0;
    size_t completed = 0;
    size_t failed = 0;
    size_t mismatched = 0;

    /** Completions per second: the median over the phases, so a host
     *  stall during one of several phases does not move it. */
    double throughput() const { return median(phaseRates); }
};

/** What a completion check found. */
enum class Outcome
{
    Ok,
    Failed,   // refused, errored or lost
    Mismatch, // served, but not bit-exact against the reference
};

/**
 * Drives one phase with two client threads: a sender that issues
 * operations (on a fixed absolute schedule when @p paced, else
 * whenever fewer than @p window are outstanding) and a collector that
 * waits for them in issue order. Operation indices continue from
 * @p firstIndex, so a workload's input stream runs on across phases.
 * The phase's samples and counts are added to @p res, so several
 * phases can make up one result.
 *
 * @p submit(index, spanId) issues operation @p index and returns its
 * ticket (throwing counts the operation failed); @p complete(index,
 * ticket, spanId, finished) waits for it, stamps @p finished as soon
 * as the reply is in hand, and only then checks the output, so the
 * reference comparison stays out of the measured latency.
 */
template <class Ticket>
void
runPhase(PhaseResult& res, bool paced, double rate, size_t window,
         double seconds, size_t firstIndex,
         const std::function<Ticket(size_t, uint64_t)>& submit,
         const std::function<Outcome(size_t, Ticket&, uint64_t,
                                      Clock::time_point&)>& complete)
{
    struct Item
    {
        size_t index;
        Clock::time_point due;
        uint64_t span;
        Ticket ticket;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Item> queue;
    bool done = false;
    std::counting_semaphore<> permits(
        static_cast<std::ptrdiff_t>(paced ? 1 : window));
    size_t completedInTime = 0;
    Clock::time_point lastInTime{};
    Tracer& tracer = Tracer::instance();
    // Lateness is a traced-run read-out; untraced runs keep only what
    // their metrics need, so little of the measured memory is ours.
    const bool recordLate = paced && tracer.enabled();
    if (paced) {
        const size_t expected = static_cast<size_t>(rate * seconds) + 16;
        res.latencyMs.reserve(res.latencyMs.size() + expected);
        if (recordLate)
            res.lateMs.reserve(res.lateMs.size() + expected);
    }
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));

    std::thread collector([&] {
        for (;;) {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return done || !queue.empty(); });
            if (queue.empty())
                return;
            Item item = std::move(queue.front());
            queue.pop_front();
            lock.unlock();
            Outcome outcome = Outcome::Failed;
            Clock::time_point finished{};
            try {
                outcome =
                    complete(item.index, item.ticket, item.span, finished);
            } catch (const std::exception&) {
            }
            if (finished == Clock::time_point{})
                finished = Clock::now();
            if (outcome == Outcome::Ok) {
                ++res.completed;
                if (finished < stop) {
                    ++completedInTime;
                    lastInTime = finished;
                }
                if (paced)
                    res.latencyMs.push_back(msBetween(item.due, finished));
                tracer.record("loadgen.request", item.span, 0, item.index,
                              item.due, finished);
            } else if (outcome == Outcome::Mismatch) {
                ++res.mismatched;
                ++res.failed;
            } else {
                ++res.failed;
            }
            if (!paced)
                permits.release();
        }
    });

    size_t submitFailed = 0; // sender-side; the collector owns res.failed
    size_t index = firstIndex;
    for (size_t n = 0;; ++n, ++index) {
        Clock::time_point due;
        if (paced) {
            due = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(n) / rate));
            if (due >= stop)
                break;
            std::this_thread::sleep_until(due);
        } else {
            permits.acquire();
            due = Clock::now();
            if (due >= stop) {
                permits.release();
                break;
            }
        }
        if (recordLate)
            res.lateMs.push_back(msBetween(due, Clock::now()));
        ++res.attempted;
        const uint64_t span = tracer.newId();
        try {
            Ticket ticket = submit(index, span);
            std::lock_guard<std::mutex> lock(mu);
            queue.push_back({index, due, span, std::move(ticket)});
            cv.notify_one();
        } catch (const std::exception&) {
            ++submitFailed; // the collector never sees this one
            if (!paced)
                permits.release();
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        done = true;
        cv.notify_one();
    }
    collector.join();
    res.failed += submitFailed;
    // Timed to the last completion rather than to the phase's end, so
    // the rate is not quantised by operations that complete together.
    res.phaseRates.push_back(
        completedInTime == 0
            ? 0.0
            : static_cast<double>(completedInTime) /
                  (msBetween(start, lastInTime) / 1e3));
}

// ---- models and traffic ---------------------------------------------

/** The serving model's shape (bench/serving_throughput.cc's). */
inline constexpr size_t kServeK = 256;
inline constexpr size_t kServeN = 256;
inline constexpr int kServeQ = 128;
/** The temporal chain K -> 128 -> 64 served by sessions. */
inline constexpr size_t kChainN0 = 128;
inline constexpr size_t kChainN1 = 64;
inline constexpr int kChainQ = 64;

/** Calibration and request traffic: one clustered generator per
 *  model input, so requests match the calibration distribution. */
BinaryMatrix servingTraffic(size_t rows, uint64_t rngSeed);
BinaryMatrix chainTraffic(size_t rows, uint64_t rngSeed);

/** Fixed (seed-independent) weights of the two models. */
Matrix<int16_t> servingWeights();
std::vector<Matrix<int16_t>> chainWeights();

/**
 * Offline temporal reference: T frames through spikeGemm +
 * LifPopulation (default LIF params, fresh state), layer by layer.
 * Returns the spikes of every layer, [0] = layer-0 output.
 */
std::vector<BinaryMatrix> referenceChain(
    const BinaryMatrix& frames, const std::vector<Matrix<int16_t>>& weights);

/** Untimed model inputs: calibration samples plus weights. */
struct ModelInputs
{
    std::vector<BinaryMatrix> calibration; // one per layer
    std::vector<Matrix<int16_t>> weights;
    int q = 0;
};
ModelInputs servingModelInputs();
ModelInputs chainModelInputs();

// ---- set-up ---------------------------------------------------------

/** Timings of one full set-up, start to first validated response. */
struct SetupTiming
{
    double totalS = 0;
    double compileMs = 0;
    double loadMs = 0;
    size_t phimBytes = 0;
};

/**
 * The compile half of a set-up: Pipeline::compile over @p inputs,
 * then the .phim saveModel -> loadModel round trip through @p path,
 * then ModelRegistry::load under @p name. Spans: core.compile,
 * io.save, io.load, runtime.registry_load.
 */
std::shared_ptr<phi::ModelRegistry> compileAndLoad(
    const ModelInputs& inputs, const std::string& name,
    const std::string& path, SetupTiming& timing, uint64_t parentSpan);

// ---- per-layer replays (traced run only) ---------------------------

/** Serial (threads=1) replay totals over a sample of activations. */
struct CoreReplay
{
    std::vector<double> decomposeUs, gatherUs, spikeGemmUs, lifStepUs;
    double rows = 0, l1Adds = 0, l2Nnz = 0, denseAdds = 0;
    size_t mismatches = 0;

    /** Replay one activation matrix through @p layer: decompose,
     *  computeInto, spikeGemm (checked equal), then one LIF step per
     *  row over the result. */
    void run(const phi::CompiledLayer& layer, const phi::BinaryMatrix& acts,
             uint64_t request);
    void report(Report& out) const;
};

/** Serial codec replay of one request/reply frame pair. */
struct CodecReplay
{
    std::vector<double> encodeUs, parseUs;
    double bytes = 0;
    size_t samples = 0;
    size_t mismatches = 0;

    /** Encode both frames, then parse and decode them back; the
     *  decoders return whether the payload survived bit-exact. */
    void run(const std::function<std::vector<uint8_t>()>& encodeRequest,
             const std::function<bool(phi::io::ByteReader&)>& decodeRequest,
             const std::function<std::vector<uint8_t>()>& encodeReply,
             const std::function<bool(phi::io::ByteReader&)>& decodeReply,
             uint64_t request);
    void report(Report& out) const;
};

/** Paired serial replay: the same operations in process and over
 *  loopback, alternating; wire p50 minus in-process p50. */
struct WireOverhead
{
    std::vector<double> inprocMs, wireMs;
    size_t mismatches = 0;
    double overheadMs() const { return median(wireMs) - median(inprocMs); }
};

/** Runtime-layer read-outs of one engine over one phase. */
void reportRuntime(Report& out, const phi::ServingStats& stats,
                   double serviceP50Ms, double queueWaitMs);

/**
 * Session-layer read-outs: per-round latency percentiles from the
 * SessionManager's counters and rows per layer submit from its
 * engine's counters.
 */
void reportSessionLayer(Report& out, const phi::ServingStats& sessionStats,
                        const phi::ServingStats& engineStats);

/**
 * The session layer replayed over a non-session workload's model and
 * rows: 64 sessions stepping 8-row chunks of @p rows for @p seconds,
 * closed loop. Fills the session.* metrics.
 */
void replaySessionLayer(Report& out,
                        const std::shared_ptr<phi::ModelRegistry>& registry,
                        const std::string& model,
                        const std::vector<phi::BinaryMatrix>& chunks,
                        int engineThreads, double seconds);

/**
 * Reset this process's peak resident set to its current resident set
 * (Linux /proc/self/clear_refs) after handing freed heap back to the
 * system; returns that resident set, MiB.
 */
double resetPeakRss();

/** Peak resident set of this process since resetPeakRss(), MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
