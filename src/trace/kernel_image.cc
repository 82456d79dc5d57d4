#include "trace/kernel_image.hh"

#include "common/error.hh"

namespace catchsim
{

namespace
{

// Images never reach a disk tier, so the record format only names the
// kind in the store's messages.
const ContentStore::Format kImageFormat = {
    {'C', 'K', 'I', 'M', 'G', '\0'}, 1, ".cki", "kernel image",
    FaultKind::TraceCorrupt,          nullptr};

ContentStore::Config
memoryTierOnly()
{
    ContentStore::Config cfg;
    cfg.memBudgetBytes = KernelImageStore::kBudgetBytes;
    return cfg;
}

} // namespace

KernelImageStore::KernelImageStore()
    : ContentStore(kImageFormat, memoryTierOnly())
{
}

KernelImageStore::ImagePtr
KernelImageStore::find(const std::string &key)
{
    return std::static_pointer_cast<const KernelImage>(
        ContentStore::find(key));
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
    if (charge(img.get(), {}) > kBudgetBytes)
        return img;
    return std::static_pointer_cast<const KernelImage>(
        ContentStore::put(key, img));
}

// The codec is unreachable: the store is configured without a disk
// tier, so no record is ever written or read.
void
KernelImageStore::encode(const void *, std::vector<uint8_t> &) const
{
}

Expected<ContentStore::Value>
KernelImageStore::decode(const uint8_t *, size_t) const
{
    return simError(ErrorCategory::Internal,
                    "kernel images have no disk tier");
}

size_t
KernelImageStore::imageBytes(const KernelImage &img)
{
    return img.pages->bytes +
           img.pages->pages.size() *
               sizeof(FunctionalMemory::PageMap::value_type);
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
