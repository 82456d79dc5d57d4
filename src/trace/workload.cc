#include "trace/workload.hh"

#include "common/logging.hh"
#include "trace/kernel_image.hh"

namespace catchsim
{

const char *
categoryName(Category c)
{
    switch (c) {
      case Category::Client: return "client";
      case Category::Fspec: return "FSPEC";
      case Category::Hpc: return "HPC";
      case Category::Ispec: return "ISPEC";
      case Category::Server: return "server";
    }
    return "?";
}

Trace
Workload::generate(size_t n)
{
    Trace trace;
    trace.mem = std::make_shared<FunctionalMemory>();
    trace.ops.resize(n);
    std::vector<MicroOp> spill; // stays empty: the window is the budget
    Emitter em(*trace.mem, spill, n);
    Rng rng = start(*trace.mem);
    emitInto(em, rng, trace.ops.data(), n);
    return trace;
}

void
Workload::emitInto(Emitter &em, Rng &rng, MicroOp *dst, size_t n)
{
    em.openWindow(dst, n);
    while (!em.windowFull()) {
        const size_t before = em.emitted();
        run(em, rng);
        CATCHSIM_ASSERT(em.emitted() > before,
                        "workload kernel made no forward progress");
    }
}

Rng
Workload::start(FunctionalMemory &mem)
{
    auto fresh = [&] {
        mem.restorePages({});
        Rng rng(seed_);
        setup(mem, rng);
        return rng;
    };
    Rng rng;
    if (imageKey_.empty()) {
        rng = fresh();
    } else {
        // The building start snapshots the pages it built as the image
        // and keeps it as its base; every other start restores that
        // image in O(1).
        bool built = false;
        auto img = KernelImageStore::global().findOrBuild(imageKey_, [&] {
            built = true;
            Rng r = fresh();
            return KernelImage{mem.snapshotPages(), r};
        });
        if (!built)
            mem.restorePages(img->pages);
        rng = img->rng;
    }
    restart();
    return rng;
}

} // namespace catchsim
