#pragma once
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

/** A page map reached only through aliases and pointers. */
class Layers
{
  public:
    using Map = std::unordered_map<int, int>;
    using MapPtr = std::shared_ptr<const Map>;

    /** Same member name as Image::pages, but unordered. */
    struct Base
    {
        Map pages;
    };

    std::uint64_t sumAll() const;

  private:
    Map pages_;        // declared through an alias
    MapPtr base_;      // a smart pointer to an aliased map
    const Map *raw_ = nullptr;
    std::shared_ptr<const std::map<int, int>> ordered_;
    std::shared_ptr<const Base> layer_;
};

/** Same member name as Layers::Base::pages, but ordered. */
struct Image
{
    std::vector<int> pages;
};
