#include "trace/workload.hh"

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
        // The building start keeps the memory it built, which the
        // snapshot has just made shared with the image; every other
        // start adopts the image's pages.
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
