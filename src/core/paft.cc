#include "core/paft.hh"

#include "common/rng.hh"
#include "core/decompose.hh"

namespace phi
{

PaftResult
applyPaft(BinaryMatrix& acts, const PatternTable& table,
          const PaftConfig& cfg, Rng& rng)
{
    PaftResult res;
    res.elements = acts.rows() * acts.cols();

    const int k = table.k();
    const size_t partitions =
        ceilDiv(acts.cols(), static_cast<size_t>(k));
    phi_assert(table.numPartitions() >= partitions,
               "pattern table too small for activation width");

    for (size_t p = 0; p < partitions; ++p) {
        PatternAssigner assigner(table.partition(p));
        const size_t start = p * static_cast<size_t>(k);
        for (size_t r = 0; r < acts.rows(); ++r) {
            uint64_t row = acts.extract(r, start, k);
            const RowAssignment a = assigner.assign(row);
            if (a.patternId == 0)
                continue;
            uint64_t mismatch = a.posMask | a.negMask;
            res.mismatchBitsBefore +=
                static_cast<size_t>(popcount64(mismatch));
            uint64_t new_row = row;
            while (mismatch) {
                int b = std::countr_zero(mismatch);
                mismatch &= mismatch - 1;
                size_t col = start + static_cast<size_t>(b);
                if (col >= acts.cols())
                    continue;
                if (rng.bernoulli(cfg.alignStrength)) {
                    new_row ^= 1ull << b;
                    ++res.bitsFlipped;
                }
            }
            if (new_row != row)
                acts.deposit(r, start, k, new_row);
        }
    }
    return res;
}

} // namespace phi
