/**
 * @file
 * phi_perfbench: the repository benchmark's measuring binary.
 *
 *   phi_perfbench --workload <batch_1024|wire_1|sessions_64> --seed <n>
 *                 --seconds <s> --trace <0|1> [--workdir <dir>]
 *                 [--commit <id>] [--corrupt 1]
 *
 * Untraced (--trace 0): the median of several full set-ups, then
 * paced open-loop phases (latency from each operation's due time)
 * alternating with saturated closed-loop phases (throughput), each
 * metric taken from the half of its phases during which the hypervisor
 * stole the least CPU time. Traced
 * (--trace 1): the same set-ups, an untraced and a traced saturated
 * phase (their ratio is the tracing overhead), a traced paced phase on
 * a fresh stack, and serial replays of every layer; prints the
 * per-layer metrics and writes the spans into --workdir.
 *
 * Every response is checked bit-exact against spikeGemm (sessions:
 * spikeGemm + LifPopulation) computed before any timed interval. The
 * last stdout line is one JSON object; any failed or mismatched
 * operation makes the run incorrect and the exit code 1.
 */

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench/bench_util.hh"
#include "common/isa.hh"
#include "harness.hh"
#include "numeric/simd.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/**
 * Paced samples per latency window. lat_p50_ms is the median over
 * consecutive 100-sample windows of the kept phases, so a stall that
 * covers fewer than half of them does not move the figure. The p90
 * (ten samples beyond it in such a window) and the p99 over
 * 1000-sample windows are printed for information only: on a shared
 * host they follow the hypervisor's preemptions, not the program.
 */
constexpr size_t kLatencyWindow = 100;
constexpr size_t kTailWindow = 1000;

/** Full set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 21;

/** Share of --seconds given to the paced phase; the saturated phase
 *  gets the rest. */
constexpr double kPacedShare = 0.5;

/**
 * Untraced runs alternate the two phases in this many rounds, so each
 * metric samples the whole run rather than one stretch of it.
 */
constexpr int kRounds = 20;

/**
 * Share of each kind of phase the end-to-end metrics are taken from:
 * the phases during which the hypervisor took the least CPU time from
 * the run's CPU (steal, /proc/stat). On a shared host, bursts of a few
 * seconds in which other guests take 5-20% of the CPU time stall the
 * serving stack's thread hand-offs: within one run they raised a
 * phase's p90 three- to sevenfold and cut a phase's throughput by a
 * third, while phases without steal agreed within a few percent.
 * Steal is the host's doing, not the program's, so choosing phases by
 * it leaves the effect of a program change in every kept phase. Every
 * phase's operations are still checked and counted.
 */
constexpr double kQuietShare = 0.5;

[[noreturn]] void
usage(const char* why)
{
    std::cerr << "phi_perfbench: " << why
              << "\nusage: phi_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>] "
                 "[--commit <id>] [--corrupt 1]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        try {
            if (key == "--workload")
                o.workload = val;
            else if (key == "--seed")
                o.seed = std::stoull(val);
            else if (key == "--seconds")
                o.seconds = std::stod(val);
            else if (key == "--trace")
                o.trace = std::stoi(val) != 0;
            else if (key == "--workdir")
                o.workdir = val;
            else if (key == "--commit")
                o.commit = val;
            else if (key == "--corrupt")
                o.corrupt = std::stoi(val) != 0;
            else
                usage(("unknown option " + key).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (o.workload.empty() || o.seconds <= 0)
        usage("--workload and --seconds are required");
    return o;
}

double
loadAverage1m()
{
    double l[1] = {0};
    return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

/**
 * Pin this thread, and so every thread it starts, to the last CPU the
 * process may run on; returns that CPU, or -1 when pinning failed.
 * Spread over the host's vCPUs, every hand-off between the stack's
 * threads waits for the vCPU it wakes; on a shared host the hypervisor
 * often has that vCPU off the core for milliseconds. Unpinned, wire_1's
 * throughput spread 23% and its p90 132% over five seeds of which one
 * ran under such contention; on one CPU, five 30 s seeds kept its
 * throughput and p50 within 5%.
 */
int
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return -1;
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpu = c;
    if (cpu < 0)
        return -1;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

/**
 * Keeps the run's CPU from going idle with a thread that spins at the
 * lowest priority (SCHED_IDLE), which gives way to any other runnable
 * thread of the process at once. An idle vCPU halts; the wake-up that
 * ends the halt, such as a timer ending the engine's linger, waits for
 * the hypervisor to put the vCPU back on a core, which on a busy host
 * takes milliseconds and is counted as steal. A vCPU that never halts
 * is only ever time-sliced, so the figures follow the program's work:
 * over four interleaved seeds, sessions_64 ran under 9-29% steal with
 * its throughput spread 38% without the keeper, and under at most 6%
 * with it spread 5%.
 */
class CpuKeeper
{
  public:
    CpuKeeper()
        : thread([this] {
              sched_param none{};
              // At normal priority it would take turns with the program.
              if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &none))
                  return;
              while (!stop.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                  __builtin_ia32_pause();
#endif
              }
          })
    {
    }
    ~CpuKeeper()
    {
        stop.store(true, std::memory_order_relaxed);
        thread.join();
    }
    CpuKeeper(const CpuKeeper&) = delete;
    CpuKeeper& operator=(const CpuKeeper&) = delete;

  private:
    std::atomic<bool> stop{false};
    std::thread thread;
};

/** Ticks stolen by the hypervisor and all ticks so far on @p cpu, or
 *  summed over the CPUs when it is -1 (/proc/stat); zeros where that
 *  is unreadable. */
std::pair<double, double>
stealAndTotalTicks(int cpu)
{
    const std::string label = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
    std::ifstream in("/proc/stat");
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name;
        fields >> name;
        if (name != label)
            continue;
        double total = 0, steal = 0, v = 0;
        // user nice system idle iowait irq softirq steal
        for (int field = 0; field < 8 && fields >> v; ++field) {
            total += v;
            if (field == 7)
                steal = v;
        }
        return {steal, total};
    }
    return {0.0, 0.0};
}

/** Share of the CPU ticks between two stealAndTotalTicks() readings
 *  that the hypervisor stole. */
double
stealShare(const std::pair<double, double>& from,
           const std::pair<double, double>& to)
{
    const double ticks = to.second - from.second;
    return ticks > 0 ? (to.first - from.first) / ticks : 0.0;
}

/** Indices of the kQuietShare of phases with the least steal, in run
 *  order. */
std::vector<size_t>
quietest(const std::vector<double>& steal)
{
    std::vector<size_t> order(steal.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return steal[a] < steal[b]; });
    order.resize(static_cast<size_t>(
        std::ceil(kQuietShare * static_cast<double>(order.size()))));
    std::sort(order.begin(), order.end());
    return order;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);
    if (!phi::bench::kReleaseBuild) {
        std::cerr << "phi_perfbench: refusing to measure a build without "
                     "NDEBUG (non-Release); configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n";
        return 1;
    }
    const unsigned nproc = std::thread::hardware_concurrency();
    const int cpu = pinToOneCpu();
    const double loadStart = loadAverage1m();
    const auto ticksStart = stealAndTotalTicks(cpu);

    std::unique_ptr<Workload> wl = makeWorkload(opt);
    if (!wl)
        usage(("unknown workload " + opt.workload).c_str());
    const CpuKeeper keeper;
    std::cerr << "[perfbench] " << opt.workload << " seed " << opt.seed
              << ": preparing inputs and references\n";
    wl->prepare();
    // Room for every paced latency sample of the run, touched now.
    PhaseResult paced;
    paced.latencyMs.assign(
        static_cast<size_t>(wl->pacedRate() * opt.seconds) + 16, 0.0);
    paced.latencyMs.clear();
    // The peak resident set is reported above this point's, so the
    // inputs, references and sample storage made above are not counted
    // as the program's.
    const double preparedRssMb = resetPeakRss();

    Tracer& tracer = Tracer::instance();
    tracer.setEnabled(opt.trace);
    size_t attempted = 0, failed = 0, mismatched = 0;
    auto account = [&](const PhaseResult& r) {
        attempted += r.attempted;
        failed += r.failed;
        mismatched += r.mismatched;
    };
    auto accountOne = [&](Outcome o) {
        ++attempted;
        failed += o != Outcome::Ok;
        mismatched += o == Outcome::Mismatch;
    };

    std::vector<double> setupS, compileMs, loadMs;
    SetupTiming timing;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Span root("setup", 0, static_cast<uint64_t>(rep));
        accountOne(wl->setup(timing, root.id()));
        setupS.push_back(timing.totalS);
        compileMs.push_back(timing.compileMs);
        loadMs.push_back(timing.loadMs);
    }
    std::cerr << "[perfbench] set-up median " << median(setupS) << " s\n";

    // Warm-up: pool threads, allocator and caches; not reported.
    tracer.setEnabled(false);
    PhaseResult warm;
    wl->phase(false, std::min(1.0, 0.05 * opt.seconds), warm);
    account(warm);

    Report report;
    if (!opt.trace) {
        // The peak resident set covers the measured rounds: the churn of
        // kSetupReps compiles left a peak that moved by a fifth between
        // seeds with the allocator's fragmentation.
        resetPeakRss();
        PhaseResult sat;
        std::vector<double> pacedSteal, satSteal;
        std::vector<size_t> pacedEnd; // latency samples after each phase
        for (int round = 0; round < kRounds; ++round) {
            const auto t0 = stealAndTotalTicks(cpu);
            wl->phase(true, opt.seconds * kPacedShare / kRounds, paced);
            const auto t1 = stealAndTotalTicks(cpu);
            wl->phase(false, opt.seconds * (1 - kPacedShare) / kRounds,
                      sat);
            pacedEnd.push_back(paced.latencyMs.size());
            pacedSteal.push_back(stealShare(t0, t1));
            satSteal.push_back(stealShare(t1, stealAndTotalTicks(cpu)));
        }
        account(paced);
        account(sat);
        // Read before the kept samples below are copied out.
        const double peakMb = peakRssMb() - preparedRssMb;

        std::vector<double> latency, rates, keptSteal;
        for (size_t p : quietest(pacedSteal)) {
            const size_t begin = p == 0 ? 0 : pacedEnd[p - 1];
            latency.insert(latency.end(),
                           paced.latencyMs.begin() +
                               static_cast<ptrdiff_t>(begin),
                           paced.latencyMs.begin() +
                               static_cast<ptrdiff_t>(pacedEnd[p]));
            keptSteal.push_back(pacedSteal[p]);
        }
        for (size_t p : quietest(satSteal)) {
            rates.push_back(sat.phaseRates[p]);
            keptSteal.push_back(satSteal[p]);
        }
        std::cerr << "[perfbench] paced samples " << paced.completed
                  << " (" << latency.size() << " kept), saturated ops "
                  << sat.completed << "\n";
        if (latency.size() < 2 * kLatencyWindow)
            std::cerr << "[perfbench] warning: fewer than two "
                         "100-sample latency windows kept\n";
        report.add("setup_s", median(setupS), "s");
        report.add("req_per_s", median(rates), "1/s");
        report.add("steps_per_s", median(rates) * wl->rowsPerOp(), "1/s");
        report.add("lat_p50_ms",
                   windowedPercentile(latency, 50, kLatencyWindow), "ms");
        std::cout << "# unbounded: lat_p90_ms "
                  << windowedPercentile(latency, 90, kLatencyWindow)
                  << " (kept phases, median of 100-sample windows), "
                  << "lat_p99_ms "
                  << windowedPercentile(latency, 99, kTailWindow)
                  << " (kept phases, median of 1000-sample windows), "
                  << percentile(paced.latencyMs, 99)
                  << " (all paced phases)\n";
        std::cout << "# kept phases: steal at most "
                  << *std::max_element(keptSteal.begin(), keptSteal.end())
                  << " (all phases: at most "
                  << std::max(*std::max_element(pacedSteal.begin(),
                                                pacedSteal.end()),
                              *std::max_element(satSteal.begin(),
                                                satSteal.end()))
                  << ")\n";
        // Unbounded: over ten seeds its spread reached 14% on wire_1
        // and 22% on sessions_64 (6.6-9.8 MB) with the same code, and
        // the resident set trimmed between rounds still crept and
        // varied by seed, so it cannot gate a 25% bound.
        std::cout << "# unbounded: peak_rss_mb " << peakMb << "\n";
    } else {
        PhaseResult plain, traced;
        wl->phase(false, opt.seconds * 0.25, plain);
        tracer.setEnabled(true);
        wl->phase(false, opt.seconds * 0.25, traced);
        Clock::time_point unused;
        accountOne(wl->start(0, unused));
        wl->phase(true, opt.seconds * 0.5, paced);
        account(plain);
        account(traced);
        account(paced);

        report.add("io.load_ms", median(loadMs), "ms");
        report.add("io.phim_bytes", static_cast<double>(timing.phimBytes),
                   "bytes");
        report.add("core.compile_ms", median(compileMs), "ms");
        wl->layerMetrics(report, paced);
        mismatched += wl->replayMismatches();
        failed += wl->replayMismatches();
        report.add("loadgen.late_ms_p99", percentile(paced.lateMs, 99), "ms");
        report.add("trace.overhead_frac",
                   1.0 - traced.throughput() / plain.throughput(), "frac");
        tracer.setEnabled(false);

        const std::string spanPath = opt.workdir + "/trace-" + opt.workload +
                                     "-seed" + std::to_string(opt.seed) +
                                     ".jsonl";
        tracer.write(spanPath);
        std::cout << "# self time by layer (ms), spans in " << spanPath
                  << "\n";
        for (const auto& [layer, ms] : tracer.selfTimeByLayer())
            std::cout << "#   " << layer << " " << ms << "\n";
    }

    const double loadEnd = loadAverage1m();
    const bool overloaded = loadStart > nproc || loadEnd > nproc;
    // CPU time other guests took from the run's CPU: the figures of a
    // run with a high share are suspect even at low load.
    const double stealFrac = stealShare(ticksStart, stealAndTotalTicks(cpu));
    std::cout << "# host {\"nproc\": " << nproc
              << ", \"loadavg_1m_start\": " << jsonNumber(loadStart)
              << ", \"loadavg_1m_end\": " << jsonNumber(loadEnd)
              << ", \"overloaded\": " << (overloaded ? "true" : "false")
              << ", \"cpu\": " << cpu
              << ", \"steal_frac\": " << jsonNumber(stealFrac)
              << ", \"isa\": \"" << phi::simdIsaName(phi::simd::activeIsa())
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"compiler\": \"" << __VERSION__
              << "\", \"commit\": \"" << opt.commit
              << "\", \"engine_threads\": " << wl->engineThreadCount() << "}\n";
    std::cout << "# workload {\"paced_rate_per_s\": "
              << jsonNumber(wl->pacedRate())
              << ", \"saturated_window\": " << wl->saturatedWindow()
              << ", \"paced_share\": " << jsonNumber(kPacedShare)
              << ", \"rounds\": " << kRounds
              << ", \"quiet_share\": " << jsonNumber(kQuietShare)
              << ", \"setup_reps\": " << kSetupReps << "}\n";
    if (overloaded)
        std::cerr << "[perfbench] warning: load average exceeded nproc ("
                  << nproc << ") during the run; figures are suspect\n";
    std::cout << "# fail_frac "
              << (attempted ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0)
              << " (" << failed << " of " << attempted << ", " << mismatched
              << " mismatched)\n";
    for (const auto& [name, vu] : report.entries())
        std::cout << "# " << name << " " << jsonNumber(vu.first) << " "
                  << vu.second << "\n";

    // A mismatch also counts as failed; an operation that errored, was
    // refused or was lost fails the run as well.
    const bool correct = failed == 0;
    std::ostringstream line;
    line << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    bool firstMetric = true;
    for (const auto& [name, vu] : report.entries()) {
        line << (firstMetric ? "" : ", ") << "\"" << name
             << "\": {\"value\": " << jsonNumber(vu.first)
             << ", \"unit\": \"" << vu.second << "\"}";
        firstMetric = false;
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    if (!correct)
        std::cerr << "[perfbench] correctness gate: " << failed
                  << " operation(s) failed, " << mismatched
                  << " of them output(s) that differ from the reference\n";
    return correct ? 0 : 1;
}
