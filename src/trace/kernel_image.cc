#include "trace/kernel_image.hh"

namespace catchsim
{

KernelImageStore::KernelImageStore() : MemoLru(kBudgetBytes) {}

KernelImageStore::ImagePtr
KernelImageStore::find(const std::string &key)
{
    return std::static_pointer_cast<const KernelImage>(
        MemoLru::find(key));
}

KernelImageStore::ImagePtr
KernelImageStore::findOrBuild(const std::string &key,
                              const std::function<KernelImage()> &build)
{
    if (ImagePtr img = find(key))
        return img;
    std::shared_ptr<std::mutex> gate;
    {
        std::lock_guard<std::mutex> lock(gatesMu_);
        std::shared_ptr<std::mutex> &slot = gates_[key];
        if (!slot)
            slot = std::make_shared<std::mutex>();
        gate = slot;
    }
    std::lock_guard<std::mutex> lock(*gate);
    // A caller that waited on the gate finds the image it was built for.
    if (ImagePtr img = find(key))
        return img;
    auto img = std::make_shared<const KernelImage>(build());
    if (imageBytes(*img) > kBudgetBytes)
        return img;
    return std::static_pointer_cast<const KernelImage>(
        MemoLru::put(key, img));
}

size_t
KernelImageStore::imageBytes(const KernelImage &img)
{
    return img.pages.bytes() +
           img.pages.size() * sizeof(FunctionalMemory::PageMap::value_type);
}

size_t
KernelImageStore::charge(const void *value, const PartFn &) const
{
    return imageBytes(*static_cast<const KernelImage *>(value));
}

KernelImageStore &
KernelImageStore::global()
{
    // Leaked singleton (never destructed), like the other stores: a
    // stream may still start while static destructors run.
    static KernelImageStore *const store = new KernelImageStore(); // catch-analyze: allow(raw-new-delete) intentionally leaked process singleton
    return *store;
}

} // namespace catchsim
