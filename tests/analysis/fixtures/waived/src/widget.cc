#include "widget.hh"
#include <cstdlib>
namespace fx {
int widget()
{
    return std::rand(); // catch-analyze: allow(determinism)
}
}
