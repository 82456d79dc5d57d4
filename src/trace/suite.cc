#include "trace/suite.hh"

#include <functional>
#include <map>

#include "common/logging.hh"
#include "trace/kernels/kernels.hh"

namespace catchsim
{

namespace
{

using Factory = std::function<std::unique_ptr<Workload>()>;

template <typename T, typename... Args>
Factory
make(Args... args)
{
    return [=]() { return std::make_unique<T>(args...); };
}

constexpr size_t kKiB = 1024;
constexpr size_t kMiB = 1024 * 1024;

/**
 * The ST suite. Footprints are chosen relative to the baseline hierarchy
 * (32 KB L1, 1 MB L2, 5.5 MB LLC) to land each workload's hot set where
 * its SPEC counterpart's lives. Category geomeans are reported the way
 * the paper reports them.
 */
const std::map<std::string, Factory> &
registry()
{
    static const std::map<std::string, Factory> table = {
        // ------------------------- ISPEC -------------------------
        {"perlbench",
         make<InterpreterLike>("perlbench", 11, 48u, 65536u, 512 * kKiB)},
        {"bzip2", make<CompressLike>("bzip2", 12, 4 * kMiB)},
        {"gcc", make<MixedIntLike>("gcc", 13, 1 * kMiB, 10u)},
        {"mcf", make<McfLike>("mcf", 14, 1u << 20, 1u << 15)},
        {"gobmk", make<BranchyLike>("gobmk", 15, 1 * kMiB, 30u)},
        {"hmmer",
         make<DpTableLike>("hmmer", 16, 2048u, 384 * kKiB, 65536u)},
        {"sjeng", make<BranchyLike>("sjeng", 17, 512 * kKiB, 22u)},
        {"libquantum",
         make<CyclicScanLike>("libquantum", Category::Ispec, 18,
                              7680 * kKiB)},
        {"h264ref",
         make<Window2dLike>("h264ref", Category::Ispec, 19, 720u, 480u,
                            3u)},
        {"omnetpp", make<EventQueueLike>("omnetpp", 20, 8192u, 3u)},
        {"astar", make<GridNeighborLike>("astar", 21, 512u * 1024u, 256u)},
        {"xalancbmk",
         make<TreeWalkLike>("xalancbmk", Category::Ispec, 22, 1u << 17,
                            2u)},

        // ------------------------- FSPEC -------------------------
        {"bwaves",
         make<StreamTriadLike>("bwaves", Category::Fspec, 31, 3u << 20,
                               2u)},
        {"gamess",
         make<ButterflyLike>("gamess", Category::Fspec, 32, 1u << 18)},
        {"milc",
         make<ReductionChainLike>("milc", Category::Fspec, 33, 2u << 20,
                                  512 * kKiB)},
        {"zeusmp",
         make<StencilLike>("zeusmp", Category::Fspec, 34, 2048u, 1024u)},
        {"soplex",
         make<SparseMatVecLike>("soplex", 35, 8192u, 8u, 1u << 20)},
        {"povray",
         make<ManyPcLike>("povray", Category::Fspec, 36, 96u,
                          256 * kKiB)},
        {"calculix",
         make<ButterflyLike>("calculix", Category::Fspec, 37, 1u << 19)},
        {"gemsfdtd",
         make<GatherLike>("gemsfdtd", Category::Fspec, 38, 2u << 20,
                          4u << 20)},
        {"tonto",
         make<BlockedGemmLike>("tonto", Category::Fspec, 39, 96u)},
        {"lbm",
         make<StreamTriadLike>("lbm", Category::Fspec, 40, 6u << 20, 1u)},
        {"wrf", make<StencilLike>("wrf", Category::Fspec, 41, 4096u,
                                  512u)},
        {"sphinx3",
         make<ReductionChainLike>("sphinx3", Category::Fspec, 42,
                                  1u << 20, 256 * kKiB)},
        {"gromacs",
         make<ChaseLocalLike>("gromacs", Category::Fspec, 43, 384 * kKiB,
                              2u)},
        {"cactusADM",
         make<StencilLike>("cactusADM", Category::Fspec, 44, 8192u,
                           256u)},
        {"leslie3d",
         make<StencilLike>("leslie3d", Category::Fspec, 45, 1024u,
                           2048u)},
        {"namd",
         make<ChaseLocalLike>("namd", Category::Fspec, 46, 512 * kKiB,
                              4u)},
        {"dealII",
         make<TreeWalkLike>("dealII", Category::Fspec, 47, 1u << 16, 4u)},

        // -------------------------- HPC --------------------------
        {"blackscholes",
         make<ManyPcLike>("blackscholes", Category::Hpc, 51, 20u,
                          24 * kKiB)},
        {"bioinformatics",
         make<HashProbeLike>("bioinformatics", Category::Hpc, 52,
                             1u << 20, 1u << 16)},
        {"hplinpack",
         make<BlockedGemmLike>("hplinpack", Category::Hpc, 53, 64u)},
        {"hpc.stencil3d",
         make<StencilLike>("hpc.stencil3d", Category::Hpc, 54, 2048u,
                           2048u)},
        {"hpc.fft", make<ButterflyLike>("hpc.fft", Category::Hpc, 55,
                                        1u << 20)},
        {"hpc.stream",
         make<StreamTriadLike>("hpc.stream", Category::Hpc, 56, 8u << 20,
                               0u)},
        {"hpc.spmv",
         make<SparseMatVecLike>("hpc.spmv", 57, 16384u, 12u, 2u << 20)},
        {"hpc.gather",
         make<GatherLike>("hpc.gather", Category::Hpc, 58, 4u << 20,
                          8u << 20)},

        // ------------------------- SERVER ------------------------
        {"tpcc",
         make<OltpLike>("tpcc", 61, 128u, 36u, 64 * kMiB, 4u)},
        {"tpce",
         make<OltpLike>("tpce", 62, 144u, 40u, 128 * kMiB, 4u)},
        {"oracle",
         make<OltpLike>("oracle", 63, 112u, 32u, 96 * kMiB, 3u)},
        {"specjbb", make<JavaServerLike>("specjbb", 64, 24 * kMiB, 104u)},
        {"specjenterprise",
         make<JavaServerLike>("specjenterprise", 65, 48 * kMiB, 120u)},
        {"hadoop", make<MapReduceLike>("hadoop", 66, 1u << 20, 1u << 18)},
        {"specpower",
         make<OltpLike>("specpower", 67, 96u, 28u, 16 * kMiB, 3u)},

        // ------------------------- CLIENT ------------------------
        {"sysmark-excel",
         make<FormulaDagLike>("sysmark-excel", 71, 1u << 19)},
        {"facedetection",
         make<Window2dLike>("facedetection", Category::Client, 72, 4096u,
                            256u, 4u)},
        {"h264enc",
         make<Window2dLike>("h264enc", Category::Client, 73, 3072u, 320u,
                            4u)},
        {"browser", make<DomWalkLike>("browser", 74, 1u << 16, 96u)},
    };
    return table;
}

/**
 * Seeded variants that widen the base list to the paper's 70 ST traces.
 * Each variant re-parameterises a base kernel (different seed and a
 * shifted footprint), standing in for a different input set of the same
 * application, like SPEC's multiple ref inputs.
 */
struct Variant
{
    const char *name;
    Factory factory;
};

const std::vector<Variant> &
variants()
{
    static const std::vector<Variant> list = {
        {"perlbench-2",
         make<InterpreterLike>("perlbench-2", 111, 64u, 32768u,
                               1 * kMiB)},
        {"bzip2-2", make<CompressLike>("bzip2-2", 112, 8 * kMiB)},
        {"gcc-2", make<MixedIntLike>("gcc-2", 113, 2 * kMiB, 16u)},
        {"mcf-2", make<McfLike>("mcf-2", 114, 1u << 19, 1u << 14)},
        {"gobmk-2", make<BranchyLike>("gobmk-2", 115, 2 * kMiB, 35u)},
        {"hmmer-2",
         make<DpTableLike>("hmmer-2", 116, 1024u, 512 * kKiB, 32768u)},
        {"h264ref-2",
         make<Window2dLike>("h264ref-2", Category::Ispec, 119, 1280u,
                            256u, 3u)},
        {"omnetpp-2", make<EventQueueLike>("omnetpp-2", 120, 16384u, 2u)},
        {"astar-2",
         make<GridNeighborLike>("astar-2", 121, 1024u * 1024u, 384u)},
        {"xalancbmk-2",
         make<TreeWalkLike>("xalancbmk-2", Category::Ispec, 122, 1u << 16,
                            3u)},
        {"bwaves-2",
         make<StreamTriadLike>("bwaves-2", Category::Fspec, 131, 2u << 20,
                               3u)},
        {"milc-2",
         make<ReductionChainLike>("milc-2", Category::Fspec, 133,
                                  3u << 20, 768 * kKiB)},
        {"soplex-2",
         make<SparseMatVecLike>("soplex-2", 135, 4096u, 16u, 512u * 1024u)},
        {"povray-2",
         make<ManyPcLike>("povray-2", Category::Fspec, 136, 72u,
                          768 * kKiB)},
        {"gemsfdtd-2",
         make<GatherLike>("gemsfdtd-2", Category::Fspec, 138, 1u << 20,
                          2u << 20)},
        {"sphinx3-2",
         make<ReductionChainLike>("sphinx3-2", Category::Fspec, 142,
                                  1u << 19, 384 * kKiB)},
        {"namd-2",
         make<ChaseLocalLike>("namd-2", Category::Fspec, 146, 768 * kKiB,
                              3u)},
        {"hplinpack-2",
         make<BlockedGemmLike>("hplinpack-2", Category::Hpc, 153, 80u)},
        {"hpc.spmv-2",
         make<SparseMatVecLike>("hpc.spmv-2", 157, 32768u, 6u, 4u << 20)},
        {"tpcc-2",
         make<OltpLike>("tpcc-2", 161, 152u, 44u, 192 * kMiB, 4u)},
        {"specjbb-2",
         make<JavaServerLike>("specjbb-2", 164, 96 * kMiB, 136u)},
        {"sysmark-excel-2",
         make<FormulaDagLike>("sysmark-excel-2", 171, 1u << 20)},
    };
    return list;
}

} // namespace

std::vector<std::string>
stSuiteNames()
{
    std::vector<std::string> names;
    for (const auto &[name, factory] : registry())
        names.push_back(name);
    for (const auto &v : variants())
        names.push_back(v.name);
    return names;
}

std::vector<std::string>
stQuickNames()
{
    return {"mcf", "hmmer", "omnetpp", "libquantum", "milc", "soplex",
            "namd", "povray", "hplinpack", "tpcc", "specjbb",
            "sysmark-excel", "facedetection", "gobmk"};
}

Expected<std::unique_ptr<Workload>>
findWorkload(const std::string &name)
{
    // The registry name is the kernel-image key: every entry is one
    // fixed kernel and parameter set, so its post-setup state is too.
    auto keyed = [&name](std::unique_ptr<Workload> wl) {
        wl->setImageKey(name);
        return wl;
    };
    auto it = registry().find(name);
    if (it != registry().end())
        return keyed(it->second());
    for (const auto &v : variants())
        if (name == v.name)
            return keyed(v.factory());
    // List every valid name so a CLI typo is a one-round-trip fix.
    std::string known;
    for (const auto &n : stSuiteNames()) {
        if (!known.empty())
            known += ", ";
        known += n;
    }
    return simError(ErrorCategory::Config, "unknown workload '", name,
                    "'; valid names: ", known);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    auto wl = findWorkload(name);
    CATCHSIM_ASSERT(wl.ok(), "unknown workload '", name,
                    "' (use findWorkload to handle this recoverably)");
    return std::move(wl).value();
}

std::vector<MpMix>
mpMixes()
{
    std::vector<MpMix> mixes;
    // 30 RATE-4 mixes: four copies of the same application.
    const std::vector<std::string> rate = {
        "perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng",
        "libquantum", "h264ref", "omnetpp", "astar", "xalancbmk",
        "bwaves", "milc", "zeusmp", "soplex", "povray", "gemsfdtd",
        "lbm", "sphinx3", "namd", "leslie3d", "hplinpack", "hpc.spmv",
        "tpcc", "tpce", "specjbb", "hadoop", "sysmark-excel", "browser",
    };
    for (const auto &w : rate)
        mixes.push_back({"rate4." + w, {w, w, w, w}});
    // 30 random mixes drawn deterministically from the ST suite.
    auto names = stSuiteNames();
    Rng rng(2018);
    for (int m = 0; m < 30; ++m) {
        MpMix mix;
        mix.name = "mix" + std::to_string(m);
        for (auto &slot : mix.workloads)
            slot = names[rng.below(names.size())];
        mixes.push_back(mix);
    }
    return mixes;
}

} // namespace catchsim
