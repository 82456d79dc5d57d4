#include "widget.hh"
#include <cstdlib>
#include <chrono>
namespace fx {
// Namespace scope: no function body holds it, only the line scan sees it.
const long kBoot = std::chrono::steady_clock::now().time_since_epoch().count();
int widget()
{
    auto t = std::chrono::steady_clock::now();
    (void)t;
    return std::rand() + static_cast<int>(kBoot);
}
}
