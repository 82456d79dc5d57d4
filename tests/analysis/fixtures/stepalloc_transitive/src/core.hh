#pragma once
#include <vector>
#include "helper.hh"

class OooCore {
  public:
    OooCore();
    void bind(int n);
    void step();

  private:
    std::vector<int> rob_;
    Helper helper_;
};
