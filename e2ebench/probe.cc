#include "probe.hh"

#include <chrono>
#include <vector>

namespace e2e
{

namespace
{

constexpr uint64_t kSets = uint64_t(1) << 15;
constexpr uint64_t kWays = 8;
constexpr uint64_t kIterations = 5'000'000;
/** What the loop below computes; a mismatch means it did not run as
 *  written (for instance the compiler or the host misbehaved). */
constexpr uint64_t kExpectedChecksum = 0x004c4b40003da55cULL;

} // namespace

ProbeSample
runProbe()
{
    // 256K tags plus their LRU stamps: 4 MB, the size of the simulated
    // caches' tag arrays the simulator walks.
    std::vector<uint64_t> tag(kSets * kWays, ~uint64_t(0));
    std::vector<uint64_t> stamp(kSets * kWays, 0);

    uint64_t x = 0x2545f4914f6cdd1dULL;
    uint64_t hits = 0, clock = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kIterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // A third of the accesses range over 512K lines, the rest over a
        // 64K-line hot set: hits and misses with unpredictable branches.
        const uint64_t line = (x >> 20) & (x % 3 == 0 ? (1u << 19) - 1
                                                       : (1u << 16) - 1);
        uint64_t *t = &tag[(line & (kSets - 1)) * kWays];
        uint64_t *s = &stamp[(line & (kSets - 1)) * kWays];
        uint64_t victim = 0;
        bool hit = false;
        for (uint64_t w = 0; w < kWays; ++w) {
            if (t[w] == line) {
                s[w] = ++clock;
                hit = true;
                break;
            }
            if (s[w] < s[victim])
                victim = w;
        }
        if (hit) {
            ++hits;
        } else {
            t[victim] = line;
            s[victim] = ++clock;
        }
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;

    ProbeSample p;
    p.mops = static_cast<double>(kIterations) / dt.count() / 1e6;
    p.checksumOk = (hits ^ (clock << 32)) == kExpectedChecksum;
    return p;
}

} // namespace e2e
