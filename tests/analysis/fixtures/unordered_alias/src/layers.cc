#include "layers.hh"

std::uint64_t
Layers::sumAll() const
{
    std::uint64_t sum = 0;
    for (const auto &kv : pages_) // alias-declared member: flagged
        sum += static_cast<std::uint64_t>(kv.second);
    for (const auto &kv : *base_) // dereferenced smart pointer: flagged
        sum += static_cast<std::uint64_t>(kv.second);
    for (const auto &kv : *raw_) // dereferenced raw pointer: flagged
        sum += static_cast<std::uint64_t>(kv.second);
    for (const auto &kv : *ordered_) // fine: std::map is ordered
        sum += static_cast<std::uint64_t>(kv.second);
    for (const auto &kv : layer_->pages) // member of Base: flagged
        sum += static_cast<std::uint64_t>(kv.second);
    Image image;
    for (int p : image.pages) // fine: Image::pages is a vector
        sum += static_cast<std::uint64_t>(p);
    auto visit = [&sum](const Map &m) {
        for (const auto &kv : m) // aliased parameter: flagged
            sum += static_cast<std::uint64_t>(kv.second);
    };
    visit(pages_);
    return sum;
}
