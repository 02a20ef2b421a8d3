#include "analysis/cluster_metrics.hh"

#include <cmath>

#include "core/decompose.hh"

namespace phi
{

ClusterMetrics
computeClusterMetrics(const BinaryMatrix& acts, size_t partition,
                      const PatternSet& ps)
{
    ClusterMetrics m;
    if (ps.empty() || acts.rows() == 0)
        return m;

    PatternAssigner assigner(ps);
    const size_t start = partition * static_cast<size_t>(ps.k());

    size_t assigned = 0;
    double dist_sum = 0;
    double silhouette_sum = 0;
    std::vector<double> usage(ps.size() + 1, 0.0);

    for (size_t r = 0; r < acts.rows(); ++r) {
        const uint64_t row = acts.extract(r, start, ps.k());
        const RowAssignment a = assigner.assign(row);
        usage[a.patternId] += 1.0;
        if (a.patternId == 0)
            continue;
        ++assigned;
        const int own = a.nnz();
        dist_sum += own;

        // Nearest other pattern.
        int other = 65;
        for (size_t i = 0; i < ps.size(); ++i) {
            if (i + 1 == a.patternId)
                continue;
            other = std::min(
                other, hammingDistance(row, ps.patterns()[i]));
        }
        if (other < 65) {
            const double denom =
                std::max(static_cast<double>(std::max(own, other)),
                         1.0);
            silhouette_sum +=
                (static_cast<double>(other) - own) / denom;
        }
    }

    if (assigned > 0) {
        m.meanDistance = dist_sum / static_cast<double>(assigned);
        m.silhouette = silhouette_sum / static_cast<double>(assigned);
    }
    m.assignedFraction =
        static_cast<double>(assigned) / static_cast<double>(acts.rows());

    // Effective cluster count from assigned-pattern usage entropy.
    double total = 0;
    for (size_t i = 1; i < usage.size(); ++i)
        total += usage[i];
    if (total > 0) {
        double entropy = 0;
        for (size_t i = 1; i < usage.size(); ++i) {
            if (usage[i] <= 0)
                continue;
            const double pr = usage[i] / total;
            entropy -= pr * std::log(pr);
        }
        m.effectiveClusters = std::exp(entropy);
    }
    return m;
}

std::vector<double>
patternUsage(const BinaryMatrix& acts, size_t partition,
             const PatternSet& ps)
{
    std::vector<double> usage(ps.size() + 1, 0.0);
    if (acts.rows() == 0)
        return usage;
    PatternAssigner assigner(ps);
    const size_t start = partition * static_cast<size_t>(ps.k());
    for (size_t r = 0; r < acts.rows(); ++r) {
        const uint64_t row = acts.extract(r, start, ps.k());
        usage[assigner.assign(row).patternId] += 1.0;
    }
    const double total = static_cast<double>(acts.rows());
    for (auto& u : usage)
        u /= total;
    return usage;
}

double
totalVariation(const std::vector<double>& a, const std::vector<double>& b)
{
    phi_assert(a.size() == b.size(),
               "usage histograms must have equal size");
    double tv = 0;
    for (size_t i = 0; i < a.size(); ++i)
        tv += std::abs(a[i] - b[i]);
    return tv / 2.0;
}

} // namespace phi
