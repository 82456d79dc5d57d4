/**
 * @file
 * StateSink / StateSource: the byte-serialization primitives behind the
 * warmed-state snapshots (sim/warm_state.hh).
 *
 * Encoding contract:
 *   - fixed-width little-endian integers, no padding, no alignment —
 *     the byte stream is identical on every host;
 *   - containers serialize as a u64 count followed by the elements, and
 *     unordered maps are emitted in ascending key order, so save() is a
 *     pure function of logical state (save -> load -> save round-trips
 *     byte-identically, which is what the per-component identity tests
 *     pin);
 *   - every component prefixes its section with a u32 tag, so a
 *     mis-ordered or mis-versioned stream fails loudly at the first
 *     section boundary instead of silently misparsing.
 *
 * Field lists. Each section's layout is written once, as
 *
 *     template <typename IO, typename Self>
 *     static void warmFields(IO &io, Self &s);
 *
 * With a StateSink (Self const) it saves the section; with a
 * StateSource (Self mutable) it loads it. The two classes therefore
 * share one vocabulary, the sink's members taking values and the
 * source's references they assign:
 *   - tag(t): the section tag; a different one fails the load;
 *   - u8 / u32 / u64 / i64 / boolean(field), where u8 and u32 also
 *     take an enum or signed field (a width cast) and u32 a SatCounter
 *     (value() / reset());
 *   - match(v): a size or geometry the instance already has; a
 *     different value fails the load;
 *   - require(cond): load-side validity of a field just read (no-op on
 *     save);
 *   - section(c, args...): a nested component's own saveWarmState() /
 *     loadWarmState(src, args...);
 *   - list(v, fn): a length-prefixed vector, fn(element) per element;
 *   - sortedMap(m, fn): a length-prefixed map of u64 keys, each key
 *     followed by fn(value), keys ascending.
 *
 * Bounded reads. Reads past the end of a source never throw or read out
 * of bounds: they return 0 and latch a failure flag the loader returns
 * once per section (ok()). A container count larger than the bytes
 * left fails before anything is inserted, and insertion stops at the
 * first failed read, so a corrupt count cannot allocate beyond what the
 * record holds. A load that fails may leave the instance partly
 * written; every caller discards it. Snapshot records are checksummed
 * end-to-end before a component ever sees them, so a latched failure
 * indicates a format bug rather than disk corruption — loaders treat it
 * as "snapshot unusable" and fall back to re-warming.
 */

#ifndef CATCHSIM_COMMON_STATE_IO_HH_
#define CATCHSIM_COMMON_STATE_IO_HH_

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/sat_counter.hh"

namespace catchsim
{

/** Fields stored through a width cast: enums and signed integers. */
template <typename T>
concept CastField = std::is_enum_v<T> || std::is_signed_v<T>;

/** Append-only byte buffer with fixed-width little-endian writers. */
class StateSink
{
  public:
    void u8(uint8_t v) { put(v, 1); }
    void u32(uint32_t v) { put(v, 4); }
    void u64(uint64_t v) { put(v, 8); }
    void i64(int64_t v) { put(static_cast<uint64_t>(v), 8); }
    void boolean(bool v) { put(v, 1); }

    // The rest of the field-list vocabulary (see the file comment).
    template <CastField T>
    void
    u8(T v)
    {
        u8(static_cast<uint8_t>(v));
    }

    template <CastField T>
    void
    u32(T v)
    {
        u32(static_cast<uint32_t>(v));
    }

    void u32(const SatCounter &c) { u32(c.value()); }
    void tag(uint32_t t) { u32(t); }
    void match(uint64_t v) { u64(v); }
    void match(uint32_t v) { u32(v); }
    void match(bool v) { boolean(v); }
    void require(bool) {}

    template <typename C, typename... Args>
    void
    section(const C &c, const Args &...)
    {
        c.saveWarmState(*this);
    }

    template <typename V, typename Fn>
    void
    list(const V &v, Fn &&fn)
    {
        u64(v.size());
        for (const auto &e : v)
            fn(e);
    }

    template <typename M, typename Fn>
    void
    sortedMap(const M &m, Fn &&fn)
    {
        std::vector<uint64_t> keys;
        keys.reserve(m.size());
        for (const auto &kv : m)
            keys.push_back(kv.first);
        std::sort(keys.begin(), keys.end());
        u64(keys.size());
        for (uint64_t k : keys) {
            u64(k);
            fn(m.at(k));
        }
    }

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    void
    put(uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    std::string buf_;
};

/** Checked reader over a StateSink-produced byte stream. */
class StateSource
{
  public:
    explicit StateSource(const std::string &bytes)
        : data_(bytes.data()), size_(bytes.size())
    {
    }

    StateSource(const char *data, size_t size) : data_(data), size_(size)
    {
    }

    uint8_t u8() { return static_cast<uint8_t>(get(1)); }
    uint32_t u32() { return static_cast<uint32_t>(get(4)); }
    uint64_t u64() { return get(8); }
    bool boolean() { return get(1) != 0; }

    // Field-list readers: the StateSink writers' names, assigning.
    void u8(uint8_t &v) { v = u8(); }
    void u32(uint32_t &v) { v = u32(); }
    void u64(uint64_t &v) { v = u64(); }
    void i64(int64_t &v) { v = static_cast<int64_t>(u64()); }
    void boolean(bool &v) { v = boolean(); }

    template <CastField T>
    void
    u8(T &v)
    {
        v = static_cast<T>(u8());
    }

    template <CastField T>
    void
    u32(T &v)
    {
        v = static_cast<T>(u32());
    }

    void u32(SatCounter &c) { c.reset(u32()); }
    void tag(uint32_t t) { require(u32() == t); }
    void match(uint64_t v) { require(u64() == v); }
    void match(uint32_t v) { require(u32() == v); }
    void match(bool v) { require(boolean() == v); }

    void
    require(bool cond)
    {
        if (!cond)
            failed_ = true;
    }

    /** Loads a nested section; skipped once the stream has failed. */
    template <typename C, typename... Args>
    void
    section(C &c, const Args &...args)
    {
        if (ok() && !c.loadWarmState(*this, args...))
            failed_ = true;
    }

    template <typename V, typename Fn>
    void
    list(V &v, Fn &&fn)
    {
        const uint64_t n = count();
        v.clear();
        while (v.size() < n && ok())
            fn(v.emplace_back());
    }

    template <typename M, typename Fn>
    void
    sortedMap(M &m, Fn &&fn)
    {
        const uint64_t n = count();
        m.clear();
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t k = u64();
            if (!ok())
                return;
            fn(m[k]);
        }
    }

    /** True while no read over-ran the stream or failed a check. */
    bool ok() const { return !failed_; }

    /** True when every byte was consumed and nothing failed. */
    bool exhausted() const { return ok() && pos_ == size_; }

  private:
    /** The next @p bytes bytes as a little-endian integer; 0, latching
     *  failure, when fewer are left. */
    uint64_t
    get(int bytes)
    {
        if (failed_ || size_ - pos_ < static_cast<size_t>(bytes)) {
            failed_ = true;
            return 0;
        }
        uint64_t v = 0;
        for (int i = 0; i < bytes; ++i)
            v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += bytes;
        return v;
    }

    /** A container count; every element takes at least one byte, so a
     *  count above the bytes left fails (and reads as 0). */
    uint64_t
    count()
    {
        const uint64_t n = u64();
        require(n <= size_ - pos_);
        return ok() ? n : 0;
    }

    const char *data_;
    size_t size_;
    size_t pos_ = 0;
    bool failed_ = false;
};

/** Four-character section tags, e.g. stateTag("CACH"). */
constexpr uint32_t
stateTag(const char (&s)[5])
{
    return static_cast<uint32_t>(static_cast<uint8_t>(s[0])) |
           static_cast<uint32_t>(static_cast<uint8_t>(s[1])) << 8 |
           static_cast<uint32_t>(static_cast<uint8_t>(s[2])) << 16 |
           static_cast<uint32_t>(static_cast<uint8_t>(s[3])) << 24;
}

} // namespace catchsim

#endif // CATCHSIM_COMMON_STATE_IO_HH_
