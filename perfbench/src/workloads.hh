/**
 * @file
 * The benchmark's workloads. Each one owns its untimed inputs and
 * references, builds its serving stack anew on every set-up,
 * drives the paced and saturated phases, and gives the per-layer
 * read-outs of a traced run.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>

#include "harness.hh"

namespace perfbench
{

class Workload
{
  public:
    explicit Workload(const Options& options) : opt(options) {}
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    /** Make the inputs and their references from the seed (untimed). */
    virtual void prepare() = 0;

    /**
     * One full set-up: compile, .phim round trip, registry load, then
     * start() up to the first response. Returns that response's check;
     * its comparison runs after the clock has stopped.
     */
    Outcome setup(SetupTiming& timing, uint64_t span);

    /**
     * Replace the serving stack (engine, server or session manager)
     * over the loaded registry and serve one checked response, so the
     * stack's counters cover only what follows.
     */
    virtual Outcome start(uint64_t span, Clock::time_point& firstDone) = 0;

    /** One timed phase, added to @p into: paced at pacedRate(), or
     *  saturated at saturatedWindow() outstanding. */
    virtual void phase(bool paced, double seconds, PhaseResult& into) = 0;

    /** Activation rows (timesteps) one operation carries. */
    virtual double rowsPerOp() const = 0;

    /** Frozen paced-phase arrival rate, operations per second. */
    virtual double pacedRate() const = 0;

    /** Frozen number of operations the saturated phase keeps
     *  outstanding. */
    virtual size_t saturatedWindow() const = 0;

    /**
     * Per-layer read-outs after a traced paced phase @p paced: the
     * stack's runtime counters, then serial replays of every layer
     * over this workload's own activations.
     */
    virtual void layerMetrics(Report& out, const PhaseResult& paced) = 0;

    /** Threads of the engine pool serving this workload. */
    int engineThreadCount() const { return kEngineThreads; }

    /** Mismatches found by the replays of layerMetrics(). */
    size_t replayMismatches() const { return replayMismatchCount; }

  protected:
    /**
     * Engine pool threads of every stack the benchmark builds. The run
     * is pinned to one CPU (see main.cc), where more would only take
     * turns; one also makes the figures independent of the host's
     * core count.
     */
    static constexpr int kEngineThreads = 1;

    template <class Ticket>
    void
    drive(bool paced, double seconds, PhaseResult& into,
          const std::function<Ticket(size_t, uint64_t)>& submit,
          const std::function<Outcome(size_t, Ticket&, uint64_t,
                                      Clock::time_point&)>& complete)
    {
        const size_t before = into.attempted;
        runPhase<Ticket>(into, paced, pacedRate(), saturatedWindow(),
                         seconds, nextIndex, submit, complete);
        nextIndex += into.attempted - before;
    }

    const Options& opt;
    ModelInputs inputs;
    std::string modelName;
    std::shared_ptr<phi::ModelRegistry> registry;
    size_t replayMismatchCount = 0;

  private:
    size_t nextIndex = 0;
};

/** The workload named @p opt.workload, or null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const Options& opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
