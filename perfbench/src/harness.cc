#include "harness.hh"

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>

#include "core/pipeline.hh"
#include "io/model_io.hh"
#include "net/protocol.hh"
#include "numeric/gemm.hh"
#include "runtime/async_engine.hh"
#include "runtime/session.hh"
#include "snn/activation_gen.hh"
#include "snn/lif.hh"

namespace perfbench
{

using namespace phi;

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

double
windowedPercentile(const std::vector<double>& samples, double p,
                   size_t window)
{
    const size_t windows = samples.size() / window;
    if (windows < 2)
        return percentile(samples, p);
    std::vector<double> perWindow;
    for (size_t w = 0; w < windows; ++w) {
        const auto begin = samples.begin() + static_cast<ptrdiff_t>(w * window);
        const auto end = w + 1 == windows
                             ? samples.end()
                             : begin + static_cast<ptrdiff_t>(window);
        perWindow.push_back(percentile({begin, end}, p));
    }
    return median(perWindow);
}

// ---- tracing --------------------------------------------------------

Tracer&
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::record(const char* name, uint64_t id, uint64_t parent,
               uint64_t request, Clock::time_point begin,
               Clock::time_point end)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex);
    spans.push_back({name, id, parent, request, begin, end});
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimeByLayer() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::map<uint64_t, std::vector<const SpanRecord*>> children;
    for (const SpanRecord& s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> perLayer;
    for (const SpanRecord& s : spans) {
        double covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
            for (const SpanRecord* c : it->second)
                iv.push_back({std::max(c->begin, s.begin),
                              std::min(c->end, s.end)});
            std::sort(iv.begin(), iv.end());
            Clock::time_point curB{}, curE{};
            bool open = false;
            for (const auto& [b, e] : iv) {
                if (e <= b)
                    continue;
                if (open && b <= curE) {
                    curE = std::max(curE, e);
                    continue;
                }
                if (open)
                    covered += msBetween(curB, curE);
                curB = b;
                curE = e;
                open = true;
            }
            if (open)
                covered += msBetween(curB, curE);
        }
        const std::string name(s.name);
        const std::string layer = name.substr(0, name.find('.'));
        perLayer[layer] += msBetween(s.begin, s.end) - covered;
    }
    return {perLayer.begin(), perLayer.end()};
}

void
Tracer::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::ofstream out(path);
    for (const SpanRecord& s : spans)
        out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"request\": "
            << s.request << ", \"start_us\": "
            << msBetween(origin, s.begin) * 1e3
            << ", \"end_us\": " << msBetween(origin, s.end) * 1e3
            << "}\n";
}

Span::Span(const char* name, uint64_t parent, uint64_t request)
    : spanName(name), spanId(Tracer::instance().newId()), parentId(parent),
      requestId(request), begin(Clock::now())
{
}

Span::~Span()
{
    Tracer::instance().record(spanName, spanId, parentId, requestId, begin,
                              Clock::now());
}

// ---- models and traffic ---------------------------------------------

namespace
{

ClusterGenConfig
trafficConfig()
{
    ClusterGenConfig cfg;
    cfg.bitDensity = 0.10;
    cfg.l2DensityTarget = 0.02;
    return cfg;
}

Matrix<int16_t>
randomWeights(size_t rows, size_t cols, Rng& rng)
{
    Matrix<int16_t> w(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            w(r, c) = static_cast<int16_t>(rng.uniformInt(-64, 63));
    return w;
}

} // namespace

BinaryMatrix
servingTraffic(size_t rows, uint64_t rngSeed)
{
    // Prototype seed 7 and calibration stream 1 are the serving
    // bench's; requests draw from the same prototypes.
    static const ClusteredSpikeGenerator gen(trafficConfig(), kServeK, 7);
    Rng rng(rngSeed);
    return gen.generate(rows, rng);
}

BinaryMatrix
chainTraffic(size_t rows, uint64_t rngSeed)
{
    static const ClusteredSpikeGenerator gen(trafficConfig(), kServeK, 21);
    Rng rng(rngSeed);
    return gen.generate(rows, rng);
}

Matrix<int16_t>
servingWeights()
{
    Rng rng(2);
    return randomWeights(kServeK, kServeN, rng);
}

std::vector<Matrix<int16_t>>
chainWeights()
{
    Rng rng(24);
    std::vector<Matrix<int16_t>> w;
    w.push_back(randomWeights(kServeK, kChainN0, rng));
    w.push_back(randomWeights(kChainN0, kChainN1, rng));
    return w;
}

std::vector<BinaryMatrix>
referenceChain(const BinaryMatrix& frames,
               const std::vector<Matrix<int16_t>>& weights)
{
    std::vector<BinaryMatrix> out;
    const BinaryMatrix* cur = &frames;
    for (const Matrix<int16_t>& w : weights) {
        const Matrix<int32_t> acc = spikeGemm(*cur, w);
        LifPopulation pop(w.cols());
        BinaryMatrix spikes(cur->rows(), w.cols());
        for (size_t t = 0; t < cur->rows(); ++t)
            pop.stepInto(acc.rowPtr(t), spikes, t);
        out.push_back(std::move(spikes));
        cur = &out.back();
    }
    return out;
}

ModelInputs
servingModelInputs()
{
    ModelInputs in;
    in.calibration.push_back(servingTraffic(2048, 1));
    in.weights.push_back(servingWeights());
    in.q = kServeQ;
    return in;
}

ModelInputs
chainModelInputs()
{
    // Layer 1 is calibrated on what it will actually see: layer 0's
    // LIF spikes over the calibration frames.
    ModelInputs in;
    in.weights = chainWeights();
    in.calibration.push_back(chainTraffic(1024, 23));
    in.calibration.push_back(
        referenceChain(in.calibration[0], {in.weights[0]})[0]);
    in.q = kChainQ;
    return in;
}

// ---- set-up ---------------------------------------------------------

std::shared_ptr<ModelRegistry>
compileAndLoad(const ModelInputs& inputs, const std::string& name,
               const std::string& path, SetupTiming& timing,
               uint64_t parentSpan)
{
    CompiledModel model;
    {
        Span span("core.compile", parentSpan);
        const Clock::time_point t0 = Clock::now();
        CalibrationConfig cfg;
        cfg.k = 16;
        cfg.q = inputs.q;
        Pipeline pipe(cfg);
        for (size_t l = 0; l < inputs.weights.size(); ++l)
            pipe.addLayer("layer" + std::to_string(l),
                          {&inputs.calibration[l]})
                .bindWeights(inputs.weights[l]);
        model = pipe.compile();
        timing.compileMs = msBetween(t0, Clock::now());
    }
    {
        Span span("io.save", parentSpan);
        io::saveModel(model, path);
    }
    timing.phimBytes = std::filesystem::file_size(path);
    CompiledModel loaded;
    {
        Span span("io.load", parentSpan);
        const Clock::time_point t0 = Clock::now();
        loaded = io::loadModel(path);
        timing.loadMs = msBetween(t0, Clock::now());
    }
    std::filesystem::remove(path);
    Span span("runtime.registry_load", parentSpan);
    auto registry = std::make_shared<ModelRegistry>();
    registry->load(name, std::move(loaded));
    return registry;
}

// ---- per-layer replays ----------------------------------------------

namespace
{

void
recordChild(const char* name, uint64_t parent, uint64_t request,
            Clock::time_point b, Clock::time_point e)
{
    Tracer& t = Tracer::instance();
    t.record(name, t.newId(), parent, request, b, e);
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return msBetween(a, b) * 1e3;
}

double
sum(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

} // namespace

void
CoreReplay::run(const CompiledLayer& layer, const BinaryMatrix& acts,
                uint64_t request)
{
    ExecutionConfig serial;
    serial.threads = 1;
    Span root("replay.core", 0, request);

    const Clock::time_point t0 = Clock::now();
    const LayerDecomposition dec = layer.decompose(acts, serial);
    const Clock::time_point t1 = Clock::now();
    Matrix<int32_t> out(dec.m, layer.weights().cols());
    const Clock::time_point t2 = Clock::now();
    layer.computeInto(out, dec, serial);
    const Clock::time_point t3 = Clock::now();
    const Matrix<int32_t> ref = spikeGemm(acts, layer.weights(), serial);
    const Clock::time_point t4 = Clock::now();
    if (!(out == ref))
        ++mismatches;

    LifPopulation pop(out.cols());
    BinaryMatrix spikes(out.rows(), out.cols());
    const Clock::time_point t5 = Clock::now();
    for (size_t r = 0; r < out.rows(); ++r)
        pop.stepInto(out.rowPtr(r), spikes, r);
    const Clock::time_point t6 = Clock::now();

    recordChild("core.decompose", root.id(), request, t0, t1);
    recordChild("core.gather", root.id(), request, t2, t3);
    recordChild("numeric.spikegemm", root.id(), request, t3, t4);
    recordChild("snn.lif", root.id(), request, t5, t6);
    decomposeUs.push_back(usBetween(t0, t1));
    gatherUs.push_back(usBetween(t2, t3));
    spikeGemmUs.push_back(usBetween(t3, t4));
    lifStepUs.push_back(usBetween(t5, t6) /
                        static_cast<double>(out.rows()));

    rows += static_cast<double>(acts.rows());
    l1Adds += static_cast<double>(dec.totalAssigned());
    l2Nnz += static_cast<double>(dec.totalL2Nnz());
    denseAdds += static_cast<double>(acts.popcount());
}

void
CoreReplay::report(Report& out) const
{
    out.add("core.decompose_us", median(decomposeUs), "us");
    out.add("core.gather_us", median(gatherUs), "us");
    out.add("core.l1_adds_per_row", l1Adds / rows, "adds/row");
    out.add("core.l2_nnz_per_row", l2Nnz / rows, "nnz/row");
    out.add("core.phi_over_dense",
            (sum(decomposeUs) + sum(gatherUs)) / sum(spikeGemmUs), "ratio");
    out.add("numeric.spikegemm_us", median(spikeGemmUs), "us");
    out.add("numeric.dense_adds_per_row", denseAdds / rows, "adds/row");
    out.add("snn.lif_step_us", median(lifStepUs), "us");
}

void
CodecReplay::run(const std::function<std::vector<uint8_t>()>& encodeRequest,
                 const std::function<bool(io::ByteReader&)>& decodeRequest,
                 const std::function<std::vector<uint8_t>()>& encodeReply,
                 const std::function<bool(io::ByteReader&)>& decodeReply,
                 uint64_t request)
{
    Span root("replay.net", 0, request);
    const Clock::time_point t0 = Clock::now();
    const std::vector<uint8_t> req = encodeRequest();
    const std::vector<uint8_t> rep = encodeReply();
    const Clock::time_point t1 = Clock::now();

    auto parse = [](const std::vector<uint8_t>& frame,
                    const std::function<bool(io::ByteReader&)>& decode) {
        net::ParsedFrame parsed;
        net::WireErrorCode code{};
        std::string msg;
        if (net::tryParseFrame(frame.data(), frame.size(),
                               net::kDefaultMaxFrameBytes, parsed, code,
                               msg) != net::ParseStatus::Frame)
            return false;
        io::ByteReader r(parsed.body, parsed.bodyLen);
        return decode(r);
    };
    const bool ok = parse(req, decodeRequest) && parse(rep, decodeReply);
    const Clock::time_point t2 = Clock::now();
    if (!ok)
        ++mismatches;

    recordChild("net.encode", root.id(), request, t0, t1);
    recordChild("net.parse", root.id(), request, t1, t2);
    encodeUs.push_back(usBetween(t0, t1));
    parseUs.push_back(usBetween(t1, t2));
    bytes += static_cast<double>(req.size() + rep.size());
    ++samples;
}

void
CodecReplay::report(Report& out) const
{
    out.add("net.encode_us", median(encodeUs), "us");
    out.add("net.parse_us", median(parseUs), "us");
    out.add("net.bytes_per_req", bytes / static_cast<double>(samples),
            "bytes");
}

void
reportRuntime(Report& out, const ServingStats& stats, double serviceP50Ms,
              double queueWaitMs)
{
    out.add("runtime.service_ms_p50", serviceP50Ms, "ms");
    out.add("runtime.queue_wait_ms_p50", queueWaitMs, "ms");
    out.add("runtime.batch_size_mean",
            static_cast<double>(stats.requests) /
                static_cast<double>(std::max<uint64_t>(stats.dispatches, 1)),
            "requests");
    out.add("runtime.linger_us_mean", stats.meanLingerMicros(), "us");
    out.add("runtime.busy_frac", stats.busyFraction(), "frac");
}

void
reportSessionLayer(Report& out, const ServingStats& sessionStats,
                   const ServingStats& engineStats)
{
    out.add("session.round_ms_p50", sessionStats.latencyPercentileMs(50),
            "ms");
    out.add("session.round_ms_p99", sessionStats.latencyPercentileMs(99),
            "ms");
    out.add("session.rows_per_round",
            static_cast<double>(engineStats.rows) /
                static_cast<double>(
                    std::max<uint64_t>(engineStats.requests, 1)),
            "rows");
}

void
replaySessionLayer(Report& out, const std::shared_ptr<ModelRegistry>& registry,
                   const std::string& model,
                   const std::vector<BinaryMatrix>& chunks, int engineThreads,
                   double seconds)
{
    constexpr size_t kSessions = 64;
    Tracer& tracer = Tracer::instance();
    const bool traced = tracer.enabled();
    tracer.setEnabled(false);

    ExecutionConfig exec;
    exec.threads = engineThreads;
    AsyncPhiEngine engine(registry, exec);
    SessionManager mgr(engine);
    std::vector<uint64_t> sids;
    for (size_t s = 0; s < kSessions; ++s)
        sids.push_back(mgr.open(model));
    using Ticket = std::future<SessionStepResult>;
    PhaseResult unused;
    runPhase<Ticket>(
        unused, false, 0, kSessions, seconds, 0,
        [&](size_t i, uint64_t) {
            return mgr.step(sids[i % kSessions], chunks[i % chunks.size()]);
        },
        [&](size_t, Ticket& f, uint64_t, Clock::time_point& done) {
            f.get();
            done = Clock::now();
            return Outcome::Ok;
        });
    reportSessionLayer(out, mgr.stats(), engine.stats());
    mgr.shutdown();
    tracer.setEnabled(traced);
}

namespace
{

/** A "<key>: <n> kB" field of /proc/self/status in MiB, or -1. */
double
statusMiB(const std::string& key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size() + 1, key + ":") == 0)
            return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
    return -1.0;
}

} // namespace

double
resetPeakRss()
{
#ifdef __GLIBC__
    malloc_trim(0); // return freed heap, so it is not reused unseen
#endif
    std::ofstream("/proc/self/clear_refs") << "5";
    return statusMiB("VmRSS");
}

double
peakRssMb()
{
    const double hwm = statusMiB("VmHWM");
    if (hwm >= 0)
        return hwm;
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

} // namespace perfbench
