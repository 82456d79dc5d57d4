#pragma once
#include <string>

// A byte sink whose every field write grows a string.
class StateSink {
  public:
    void u64(unsigned long v) { put(v); }

  private:
    void put(unsigned long v) { bytes_.append(8, static_cast<char>(v)); }

    std::string bytes_;
};
