#include "widget.hh"
struct W {
    void open() {}
    void close() {}
    void object(const char *) {}
    void field(const char *, int) {}
    void u64(const char *, int) {}
    template <typename F> void object(const char *, F f) { f(*this); }
};
namespace fx {
int widget()
{
    W w;
    w.open();
    w.object("l1");
    w.field("hits", 1);
    w.close();
    w.object("l2");
    w.field("hits", 2);
    w.close();
    w.close();
    return 0;
}
}
// Field lists: sibling lambda objects reuse keys, a one-line lambda
// closes its own scope, and each function body starts afresh.
template <typename IO>
void
widgetFields(IO &io)
{
    io.u64("total", 0);
    io.object("l1", [](auto &o) {
        o.u64("hits", 1);
    });
    io.object("l2", [](auto &o) { o.u64("hits", 2); });
    io.object("l3", [](auto &o) {
        o.u64("hits", 3);
    });
}
template <typename IO>
void
otherFields(IO &io)
{
    io.u64("total", 4);
}
