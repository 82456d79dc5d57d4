#ifndef WIDGET_HH_
#define WIDGET_HH_
namespace fx { int widget(); }
#endif
