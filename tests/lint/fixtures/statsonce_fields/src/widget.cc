#include "widget.hh"
struct Io {
    void u64(const char *, int) {}
    template <typename F> void object(const char *, F f) { f(*this); }
};
template <typename IO>
void
widgetFields(IO &io)
{
    io.object("l1", [](auto &o) {
        o.u64("hits", 1);
        o.u64("misses", 2);
        o.u64("hits", 3);
    });
}
namespace fx {
int widget()
{
    Io io;
    widgetFields(io);
    return 0;
}
}
