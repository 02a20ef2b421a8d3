#include "workloads.hh"

#include <filesystem>
#include <future>
#include <unordered_map>

#include "net/client.hh"
#include "net/protocol.hh"
#include "net/server.hh"
#include "numeric/gemm.hh"
#include "runtime/async_engine.hh"
#include "runtime/session.hh"

namespace perfbench
{

using namespace phi;

namespace
{

/** Seed of input stream @p stream under benchmark seed @p seed; never
 *  one of the fixed calibration streams. */
uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    return 0x9e3779b97f4a7c15ull * (seed + 1) + 1000 + stream;
}

/** Copy row @p src of @p from into row @p dst of @p to. */
void
copyRow(const BinaryMatrix& from, size_t src, BinaryMatrix& to, size_t dst)
{
    for (size_t c = 0; c < from.cols(); c += 64) {
        const int len = static_cast<int>(std::min<size_t>(64, from.cols() - c));
        to.deposit(dst, c, len, from.extract(src, c, len));
    }
}

BinaryMatrix
sliceRows(const BinaryMatrix& m, size_t begin, size_t count)
{
    BinaryMatrix out(count, m.cols());
    for (size_t r = 0; r < count; ++r)
        copyRow(m, begin + r, out, r);
    return out;
}

/** Row @p row of every matrix in @p mats, stacked. */
BinaryMatrix
stackRow(const std::vector<BinaryMatrix>& mats, size_t row)
{
    BinaryMatrix out(mats.size(), mats.front().cols());
    for (size_t i = 0; i < mats.size(); ++i)
        copyRow(mats[i], row, out, i);
    return out;
}

std::vector<uint8_t>
frameOf(net::FrameType type, const io::ByteWriter& w)
{
    return net::encodeFrame(type, w.buffer());
}

/** Stateless request/response codec replay over (acts, expected). */
void
replayStatelessCodec(CodecReplay& codec, const std::string& model,
                     uint64_t version, const BinaryMatrix& acts,
                     const Matrix<int32_t>& expected, uint64_t request)
{
    net::WireRequest req;
    req.id = static_cast<uint32_t>(request + 1);
    req.model = model;
    req.acts = acts;
    net::WireResponse resp;
    resp.id = req.id;
    resp.model = model;
    resp.version = version;
    resp.out = expected;
    codec.run(
        [&] {
            io::ByteWriter w;
            net::encodeRequest(w, req);
            return frameOf(net::FrameType::Request, w);
        },
        [&](io::ByteReader& r) { return net::decodeRequest(r).acts == acts; },
        [&] {
            io::ByteWriter w;
            net::encodeResponse(w, resp);
            return frameOf(net::FrameType::Response, w);
        },
        [&](io::ByteReader& r) {
            return net::decodeResponse(r).out == expected;
        },
        request);
}

void
reportWire(Report& out, const WireOverhead& ov,
           const net::ServerCounters& counters)
{
    out.add("net.wire_overhead_ms_p50", ov.overheadMs(), "ms");
    out.add("net.protocol_errors", static_cast<double>(counters.protocolErrors),
            "count");
    out.add("net.timeouts", static_cast<double>(counters.timeouts), "count");
}

/**
 * Paired serial replay of stateless requests: each one in process
 * (AsyncPhiEngine::submit -> get on the server's own engine) and over
 * the wire (PhiClient::request), alternating.
 */
WireOverhead
statelessWireOverhead(net::PhiServer& server, net::PhiClient& client,
                      const ModelHandle& handle,
                      const std::vector<BinaryMatrix>& pool,
                      const std::vector<Matrix<int32_t>>& refs, size_t n)
{
    WireOverhead ov;
    for (size_t i = 0; i < n; ++i) {
        const BinaryMatrix& acts = pool[i % pool.size()];
        const Matrix<int32_t>& ref = refs[i % refs.size()];
        Span root("replay.wire", 0, i);
        Clock::time_point t0 = Clock::now();
        EngineResponse local;
        {
            Span s("runtime.roundtrip", root.id(), i);
            local = server.engine().submit(handle, 0, acts).get();
        }
        Clock::time_point t1 = Clock::now();
        net::WireResponse remote;
        {
            Span s("net.roundtrip", root.id(), i);
            remote = client.request(handle.name, 0, acts);
        }
        Clock::time_point t2 = Clock::now();
        ov.inprocMs.push_back(msBetween(t0, t1));
        ov.wireMs.push_back(msBetween(t1, t2));
        if (!(local.out == ref) || !(remote.out == ref))
            ++ov.mismatches;
    }
    return ov;
}

} // namespace

Outcome
Workload::setup(SetupTiming& timing, uint64_t span)
{
    const Clock::time_point t0 = Clock::now();
    std::filesystem::create_directories(opt.workdir);
    const std::string path = opt.workdir + "/" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".phim";
    registry = compileAndLoad(inputs, modelName, path, timing, span);
    Clock::time_point firstDone;
    const Outcome first = start(span, firstDone);
    timing.totalS = msBetween(t0, firstDone) / 1e3;
    return first;
}

// ---- batch_1024 and wire_1 ------------------------------------------

/**
 * The two stateless workloads on the serving model: a pool of request
 * activations with their spikeGemm references, cycled by the phases.
 */
class ServingWorkload : public Workload
{
  public:
    using Workload::Workload;

  protected:
    /** Adopt @p requests as the pool and compute their references. */
    void
    preparePool(std::vector<BinaryMatrix> requests)
    {
        inputs = servingModelInputs();
        modelName = "serve";
        pool = std::move(requests);
        for (const BinaryMatrix& acts : pool)
            refs.push_back(spikeGemm(acts, inputs.weights[0]));
        if (opt.corrupt)
            refs[0](0, 0) ^= 1;
    }

    /** Check the output of operation @p i against its reference. */
    Outcome
    check(size_t i, const Matrix<int32_t>& out) const
    {
        return out == refs[i % pool.size()] ? Outcome::Ok
                                            : Outcome::Mismatch;
    }

    /**
     * Per-layer read-outs: @p stats of the engine that served the
     * paced phase, serial core and codec replays of the first
     * @p replay pool entries, the paired wire replay of the same
     * entries on @p server / @p client, and the session layer over
     * the pool's rows.
     */
    void
    servingLayerMetrics(Report& out, const PhaseResult& paced,
                        const ServingStats& stats, net::PhiServer& server,
                        net::PhiClient& client, size_t replay)
    {
        const double service = stats.latencyPercentileMs(50);
        reportRuntime(out, stats, service,
                      median(paced.latencyMs) - service);

        const ModelRegistry::Pinned pin = registry->pin(modelName);
        CoreReplay core;
        CodecReplay codec;
        for (size_t i = 0; i < replay; ++i) {
            core.run(pin->layer(0), pool[i], i);
            replayStatelessCodec(codec, modelName, handle.version, pool[i],
                                 refs[i], i);
        }
        core.report(out);
        codec.report(out);

        const WireOverhead ov =
            statelessWireOverhead(server, client, handle, pool, refs, replay);
        reportWire(out, ov, server.counters());

        replaySessionLayer(out, registry, modelName, sessionChunks(),
                           kEngineThreads, 0.5);
        replayMismatchCount = core.mismatches + codec.mismatches +
                              ov.mismatches;
    }

    std::vector<BinaryMatrix> pool;
    std::vector<Matrix<int32_t>> refs;
    ModelHandle handle;

  private:
    /** The pool's first rows, in order, as 64 chunks of 8 frames. */
    std::vector<BinaryMatrix>
    sessionChunks() const
    {
        std::vector<BinaryMatrix> chunks;
        BinaryMatrix chunk(8, kServeK);
        size_t filled = 0;
        for (const BinaryMatrix& acts : pool) {
            for (size_t r = 0; r < acts.rows() && chunks.size() < 64; ++r) {
                copyRow(acts, r, chunk, filled);
                if (++filled == 8) {
                    chunks.push_back(chunk);
                    filled = 0;
                }
            }
        }
        return chunks;
    }
};

/**
 * In-process AsyncPhiEngine traffic of 1024-row requests: decompose
 * plus gather are nearly all of a request's time.
 */
class BatchWorkload final : public ServingWorkload
{
  public:
    using ServingWorkload::ServingWorkload;

    void
    prepare() override
    {
        std::vector<BinaryMatrix> requests;
        for (size_t i = 0; i < kPool; ++i)
            requests.push_back(
                servingTraffic(kRows, streamSeed(opt.seed, i)));
        preparePool(std::move(requests));
    }

    Outcome
    start(uint64_t span, Clock::time_point& firstDone) override
    {
        engine.reset();
        {
            Span s("runtime.start", span);
            ExecutionConfig exec;
            exec.threads = kEngineThreads;
            engine = std::make_unique<AsyncPhiEngine>(registry, exec);
            handle = *registry->current(modelName);
        }
        EngineResponse first;
        {
            Span s("runtime.first_response", span);
            first = engine->submit(handle, 0, pool[0]).get();
            firstDone = Clock::now();
        }
        return check(0, first.out);
    }

    void
    phase(bool paced, double seconds, PhaseResult& into) override
    {
        using Ticket = std::future<EngineResponse>;
        drive<Ticket>(
            paced, seconds, into,
            [&](size_t i, uint64_t span) {
                Span s("runtime.submit", span, i);
                return engine->submit(handle, 0, pool[i % kPool]);
            },
            [&](size_t i, Ticket& f, uint64_t span, Clock::time_point& done) {
                EngineResponse r;
                {
                    Span s("runtime.wait", span, i);
                    r = f.get();
                    done = Clock::now();
                }
                return check(i, r.out);
            });
    }

    double rowsPerOp() const override { return kRows; }
    double pacedRate() const override { return kPacedRate; }
    size_t saturatedWindow() const override { return kWindow; }

    void
    layerMetrics(Report& out, const PhaseResult& paced) override
    {
        ExecutionConfig exec;
        exec.threads = kEngineThreads;
        net::PhiServer server(registry, exec, AsyncEngineConfig{},
                              net::PhiServerConfig{});
        server.start();
        {
            net::PhiClient client("127.0.0.1", server.port());
            servingLayerMetrics(out, paced, engine->stats(), server, client,
                                kReplay);
        }
        server.requestDrain();
        server.waitUntilStopped();
    }

  private:
    static constexpr size_t kRows = 1024;
    static constexpr size_t kPool = 64;
    static constexpr size_t kReplay = 16;
    /** About 35-40% of the 125-145/s saturated rate on one CPU, so a
     *  host slowdown of a few tens of percent adds little queueing,
     *  while a 30 s run still keeps over three 100-sample windows. */
    static constexpr double kPacedRate = 50;
    static constexpr size_t kWindow = 4;

    std::unique_ptr<AsyncPhiEngine> engine;
};

/**
 * One-row requests through PhiServer on loopback, pipelined over one
 * PhiClient connection: network, queue and dispatch dominate.
 */
class WireWorkload final : public ServingWorkload
{
  public:
    using ServingWorkload::ServingWorkload;

    ~WireWorkload() override { stop(); }

    void
    prepare() override
    {
        const BinaryMatrix rows =
            servingTraffic(kPool, streamSeed(opt.seed, 0));
        std::vector<BinaryMatrix> requests;
        for (size_t i = 0; i < kPool; ++i)
            requests.push_back(sliceRows(rows, i, 1));
        preparePool(std::move(requests));
    }

    Outcome
    start(uint64_t span, Clock::time_point& firstDone) override
    {
        stop();
        {
            Span s("runtime.start", span);
            ExecutionConfig exec;
            exec.threads = kEngineThreads;
            server = std::make_unique<net::PhiServer>(
                registry, exec, AsyncEngineConfig{}, net::PhiServerConfig{});
            server->start();
            client = std::make_unique<net::PhiClient>("127.0.0.1",
                                                      server->port());
            handle = *registry->current(modelName);
        }
        net::WireResponse first;
        {
            Span s("runtime.first_response", span);
            first = client->request(modelName, 0, pool[0]);
            firstDone = Clock::now();
        }
        return check(0, first.out);
    }

    void
    phase(bool paced, double seconds, PhaseResult& into) override
    {
        drive<uint32_t>(
            paced, seconds, into,
            [&](size_t i, uint64_t span) {
                Span s("net.send", span, i);
                net::WireRequest req;
                // High bit set: never collides with the ids request()
                // assigns.
                req.id = 0x80000000u | static_cast<uint32_t>(i & 0x7fffffff);
                req.model = modelName;
                req.acts = pool[i % kPool];
                return client->sendRequest(req);
            },
            [&](size_t i, uint32_t& id, uint64_t span,
                Clock::time_point& done) {
                net::WireReply reply;
                {
                    Span s("net.read", span, i);
                    reply = client->readReply();
                    done = Clock::now();
                }
                if (!reply.ok || reply.response.id != id)
                    return Outcome::Failed;
                return check(i, reply.response.out);
            });
    }

    double rowsPerOp() const override { return 1; }
    double pacedRate() const override { return kPacedRate; }
    size_t saturatedWindow() const override { return kWindow; }

    void
    layerMetrics(Report& out, const PhaseResult& paced) override
    {
        servingLayerMetrics(out, paced, server->engine().stats(), *server,
                            *client, kReplay);
    }

  private:
    static constexpr size_t kPool = 4096;
    static constexpr size_t kReplay = 400;
    static constexpr double kPacedRate = 5000; // about a fifth
    static constexpr size_t kWindow = 32;

    void
    stop()
    {
        client.reset();
        if (server) {
            server->requestDrain();
            server->waitUntilStopped();
            server.reset();
        }
    }

    std::unique_ptr<net::PhiServer> server;
    std::unique_ptr<net::PhiClient> client;
};

// ---- sessions_64 ----------------------------------------------------

/**
 * 64 SessionManager sessions on the K=256 -> 128 -> 64 chain, each
 * stepping 8 frames per call. A session's stream is 512 frames long;
 * after its last call the slot moves on to a freshly opened session,
 * whose LIF state starts anew, so every step checks against one
 * precomputed offline reference. The old session is closed once its
 * last call is in, so no call waits for a reopen: a wait there would
 * stall every slot at once, since slots reach their stream's end
 * together.
 */
class SessionsWorkload final : public Workload
{
  public:
    using Workload::Workload;

    ~SessionsWorkload() override
    {
        mgr.reset();
        engine.reset();
    }

    void
    prepare() override
    {
        inputs = chainModelInputs();
        modelName = "chain";
        for (size_t s = 0; s < kSessions; ++s) {
            streams.push_back(
                chainTraffic(kCalls * kFrames, streamSeed(opt.seed, s)));
            std::vector<BinaryMatrix> ref =
                referenceChain(streams.back(), inputs.weights);
            std::vector<BinaryMatrix> f, e;
            for (size_t c = 0; c < kCalls; ++c) {
                f.push_back(sliceRows(streams.back(), c * kFrames, kFrames));
                e.push_back(sliceRows(ref[1], c * kFrames, kFrames));
            }
            frames.push_back(std::move(f));
            expect.push_back(std::move(e));
            layer0Spikes.push_back(std::move(ref[0]));
        }
        if (opt.corrupt)
            expect[0][0].set(0, 0, !expect[0][0].get(0, 0));
    }

    Outcome
    start(uint64_t span, Clock::time_point& firstDone) override
    {
        mgr.reset();
        engine.reset();
        {
            Span s("runtime.start", span);
            ExecutionConfig exec;
            exec.threads = kEngineThreads;
            engine = std::make_unique<AsyncPhiEngine>(registry, exec);
            mgr = std::make_unique<SessionManager>(*engine);
            sids.clear();
            streamOf.clear();
            for (size_t i = 0; i < kSessions; ++i) {
                sids.push_back(mgr->open(modelName));
                streamOf[sids.back()] = {};
            }
        }
        const uint64_t probe = mgr->open(modelName);
        SessionStepResult first;
        {
            Span s("runtime.first_response", span);
            first = mgr->step(probe, frames[0][0]).get();
            firstDone = Clock::now();
        }
        mgr->close(probe);
        return first.spikes == expect[0][0] ? Outcome::Ok
                                            : Outcome::Mismatch;
    }

    void
    phase(bool paced, double seconds, PhaseResult& into) override
    {
        drive<Ticket>(
            paced, seconds, into,
            [&](size_t i, uint64_t span) { return submit(i, span); },
            [&](size_t i, Ticket& t, uint64_t span, Clock::time_point& done) {
                Outcome o = Outcome::Failed;
                try {
                    SessionStepResult r;
                    {
                        Span s("session.wait", span, i);
                        r = t.future.get();
                        done = Clock::now();
                    }
                    o = r.spikes == expect[t.slot][t.call]
                            ? Outcome::Ok
                            : Outcome::Mismatch;
                } catch (const std::exception&) {
                }
                std::lock_guard<std::mutex> lock(slotMutex);
                ++streamOf[t.sid].completed;
                closeIfDone(t.sid);
                return o;
            });
    }

    double rowsPerOp() const override { return kFrames; }
    double pacedRate() const override { return kPacedRate; }
    size_t saturatedWindow() const override { return kWindow; }

    void
    layerMetrics(Report& out, const PhaseResult& paced) override
    {
        const ServingStats eng = engine->stats();
        const ServingStats sess = mgr->stats();
        // A call is served as kFrames pump rounds; what is left of the
        // client's wait is queueing.
        reportRuntime(out, eng, eng.latencyPercentileMs(50),
                      median(paced.latencyMs) -
                          static_cast<double>(kFrames) *
                              sess.latencyPercentileMs(50));
        reportSessionLayer(out, sess, eng);

        const ModelRegistry::Pinned pin = registry->pin(modelName);
        CoreReplay core;
        CodecReplay codec;
        for (size_t t = 0; t < kReplayRounds; ++t) {
            core.run(pin->layer(0), stackRow(streams, t), t);
            core.run(pin->layer(1), stackRow(layer0Spikes, t), t);
        }
        for (size_t s = 0; s < kSessions; ++s) {
            net::WireStepSession msg;
            msg.id = static_cast<uint32_t>(s + 1);
            msg.sessionId = s + 1;
            msg.frames = frames[s][0];
            net::WireSessionStepped reply;
            reply.id = msg.id;
            reply.sessionId = msg.sessionId;
            reply.spikes = expect[s][0];
            codec.run(
                [&] {
                    io::ByteWriter w;
                    net::encodeStepSession(w, msg);
                    return frameOf(net::FrameType::StepSession, w);
                },
                [&](io::ByteReader& r) {
                    return net::decodeStepSession(r).frames == msg.frames;
                },
                [&] {
                    io::ByteWriter w;
                    net::encodeSessionStepped(w, reply);
                    return frameOf(net::FrameType::SessionStepped, w);
                },
                [&](io::ByteReader& r) {
                    return net::decodeSessionStepped(r).spikes ==
                           reply.spikes;
                },
                s);
        }
        core.report(out);
        codec.report(out);

        const WireOverhead ov = sessionWireOverhead();
        replayMismatchCount = core.mismatches + codec.mismatches +
                              ov.mismatches;
        reportWire(out, ov, lastServerCounters);
    }

  private:
    static constexpr size_t kSessions = 64;
    static constexpr size_t kFrames = 8;
    static constexpr size_t kCalls = 64;
    static constexpr size_t kReplayRounds = 64;
    static constexpr double kPacedRate = 1000; // about a quarter
    static constexpr size_t kWindow = 64;

    /** One session's progress through its slot's stream. */
    struct Stream
    {
        size_t issued = 0;
        size_t completed = 0;
        bool retired = false; // its slot has moved on to a new session
    };

    struct Ticket
    {
        std::future<SessionStepResult> future;
        uint64_t sid = 0;
        size_t slot = 0;
        size_t call = 0;
    };

    Ticket
    submit(size_t i, uint64_t span)
    {
        Ticket t;
        t.slot = i % kSessions;
        {
            std::lock_guard<std::mutex> lock(slotMutex);
            t.sid = sids[t.slot];
            t.call = streamOf[t.sid].issued;
        }
        if (t.call == kCalls) {
            Span s("session.reopen", span, i);
            const uint64_t fresh = mgr->open(modelName);
            std::lock_guard<std::mutex> lock(slotMutex);
            streamOf[t.sid].retired = true;
            closeIfDone(t.sid);
            streamOf[fresh] = {};
            sids[t.slot] = t.sid = fresh;
            t.call = 0;
        }
        {
            std::lock_guard<std::mutex> lock(slotMutex);
            ++streamOf[t.sid].issued;
        }
        Span s("session.submit", span, i);
        t.future = mgr->step(t.sid, frames[t.slot][t.call]);
        return t;
    }

    /** Close @p sid once it is retired and every call on it is in;
     *  the caller holds slotMutex. */
    void
    closeIfDone(uint64_t sid)
    {
        const Stream& st = streamOf[sid];
        if (st.retired && st.completed == st.issued) {
            mgr->close(sid);
            streamOf.erase(sid);
        }
    }

    /** Paired replay of one session stream: in process through the
     *  server's SessionManager, and over the wire. */
    WireOverhead
    sessionWireOverhead()
    {
        ExecutionConfig exec;
        exec.threads = kEngineThreads;
        net::PhiServer server(registry, exec, AsyncEngineConfig{},
                              net::PhiServerConfig{});
        server.start();
        WireOverhead ov;
        {
            net::PhiClient client("127.0.0.1", server.port());
            const uint64_t local = server.sessions().open(modelName);
            const uint64_t remote = client.openSession(modelName).sessionId;
            for (size_t c = 0; c < kCalls; ++c) {
                Span root("replay.wire", 0, c);
                const Clock::time_point t0 = Clock::now();
                SessionStepResult a;
                {
                    Span s("session.roundtrip", root.id(), c);
                    a = server.sessions().step(local, frames[0][c]).get();
                }
                const Clock::time_point t1 = Clock::now();
                net::WireSessionStepped b;
                {
                    Span s("net.roundtrip", root.id(), c);
                    b = client.stepSession(remote, frames[0][c]);
                }
                const Clock::time_point t2 = Clock::now();
                ov.inprocMs.push_back(msBetween(t0, t1));
                ov.wireMs.push_back(msBetween(t1, t2));
                if (!(a.spikes == expect[0][c]) || !(b.spikes == expect[0][c]))
                    ++ov.mismatches;
            }
            server.sessions().close(local);
            client.closeSession(remote);
        }
        server.requestDrain();
        server.waitUntilStopped();
        lastServerCounters = server.counters();
        return ov;
    }

    std::vector<BinaryMatrix> streams;      // per session, kCalls*kFrames x K
    std::vector<BinaryMatrix> layer0Spikes; // reference layer-0 output
    std::vector<std::vector<BinaryMatrix>> frames; // [session][call]
    std::vector<std::vector<BinaryMatrix>> expect; // [session][call]
    net::ServerCounters lastServerCounters;

    std::unique_ptr<AsyncPhiEngine> engine;
    std::unique_ptr<SessionManager> mgr;
    std::mutex slotMutex;
    std::vector<uint64_t> sids; // each slot's current session
    std::unordered_map<uint64_t, Stream> streamOf;
};

std::unique_ptr<Workload>
makeWorkload(const Options& opt)
{
    if (opt.workload == "batch_1024")
        return std::make_unique<BatchWorkload>(opt);
    if (opt.workload == "wire_1")
        return std::make_unique<WireWorkload>(opt);
    if (opt.workload == "sessions_64")
        return std::make_unique<SessionsWorkload>(opt);
    return nullptr;
}

} // namespace perfbench
