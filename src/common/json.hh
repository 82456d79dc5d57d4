/**
 * @file
 * Minimal JSON support shared by the results exporter, the worker
 * protocol and the result store: an append-only writer with
 * deterministic field order, a small recursive-descent parser for the
 * subset the writer emits (objects, arrays, strings, numbers, booleans,
 * null), and a checked member reader over the parsed objects.
 *
 * Round-trip contract: u64 counters are written as decimal integers and
 * parsed back exactly; doubles are written with %.17g, which is enough
 * digits to reproduce the bit pattern on read-back. Result-store
 * replays rest on this.
 */

#ifndef CATCHSIM_COMMON_JSON_HH_
#define CATCHSIM_COMMON_JSON_HH_

#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hh"

namespace catchsim
{

/**
 * Tiny append-only JSON builder. Field order is fixed by call order so
 * exports diff cleanly run-to-run; doubles use %.17g (round-trippable).
 */
class JsonWriter
{
  public:
    void
    open()
    {
        out_ += '{';
        first_ = true;
    }

    void
    close()
    {
        out_ += '}';
        first_ = false;
    }

    void
    key(const char *name)
    {
        if (!first_)
            out_ += ',';
        first_ = false;
        out_ += '"';
        out_ += name;
        out_ += "\":";
    }

    void
    field(const char *name, uint64_t v)
    {
        key(name);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
        out_ += buf;
    }

    void
    field(const char *name, double v)
    {
        key(name);
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out_ += buf;
    }

    void
    field(const char *name, const std::string &v)
    {
        key(name);
        out_ += '"';
        for (char c : v) {
            if (c == '"' || c == '\\')
                out_ += '\\';
            out_ += c;
        }
        out_ += '"';
    }

    void
    field(const char *name, bool v)
    {
        key(name);
        out_ += v ? "true" : "false";
    }

    /** Fixed-size counter array, e.g. per-level hit counts. */
    void
    fieldArray(const char *name, const uint64_t *v, size_t n)
    {
        key(name);
        out_ += '[';
        for (size_t i = 0; i < n; ++i) {
            if (i)
                out_ += ',';
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%" PRIu64, v[i]);
            out_ += buf;
        }
        out_ += ']';
    }

    void
    object(const char *name)
    {
        key(name);
        open();
    }

    /** Splices an already-serialised JSON document as a member. */
    void
    rawField(const char *name, const std::string &json)
    {
        key(name);
        out_ += json;
    }

    const std::string &str() const { return out_; }

  private:
    std::string out_;
    bool first_ = true;
};

/**
 * Field-list adapter over a JsonWriter. A record's JSON shape is one
 * `template <typename IO, typename R> void xFields(IO &io, R &r)` that
 * names every field once, in output order; instantiated with this
 * adapter (R const) it writes the record, with a JsonReader (R mutable)
 * it reads it back. The method names therefore match JsonReader's.
 */
class JsonFieldWriter
{
  public:
    explicit JsonFieldWriter(JsonWriter &w) : w_(w) {}

    void u64(const char *name, uint64_t v) { w_.field(name, v); }
    void u32(const char *name, uint32_t v) { w_.field(name, uint64_t(v)); }
    void f64(const char *name, double v) { w_.field(name, v); }
    void str(const char *name, const std::string &v) { w_.field(name, v); }
    void boolean(const char *name, bool v) { w_.field(name, v); }
    /** Written for readers of the document; ignored on read-back. */
    void derived(const char *name, double v) { w_.field(name, v); }

    void
    u64Array(const char *name, const uint64_t *v, size_t n)
    {
        w_.fieldArray(name, v, n);
    }

    template <typename E>
    void
    enumeration(const char *name, E v, uint64_t /*max*/)
    {
        w_.field(name, uint64_t(v));
    }

    /** Enum stored as its wire name. */
    template <typename E, typename NameOf>
    void
    enumeration(const char *name, E v, uint64_t /*max*/, NameOf name_of)
    {
        w_.field(name, std::string(name_of(v)));
    }

    template <typename Fn>
    void
    object(const char *name, Fn &&fn)
    {
        w_.object(name);
        fn(*this);
        w_.close();
    }

    /** Optional member: written only when @p present. */
    template <typename Fn>
    void
    object(const char *name, bool present, Fn &&fn)
    {
        if (present)
            object(name, fn);
    }

  private:
    JsonWriter &w_;
};

/**
 * Parsed JSON value. Integer-looking tokens (no '.', 'e' or sign) are
 * kept as exact u64 alongside the double view, so counters survive the
 * round trip bit-for-bit even above 2^53.
 */
class JsonValue
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return kind_; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }

    bool asBool() const { return b_; }
    uint64_t asU64() const { return u64_; }
    uint32_t asU32() const { return static_cast<uint32_t>(u64_); }
    double asDouble() const { return isInt_ ? static_cast<double>(u64_) : d_; }
    const std::string &asString() const { return str_; }

    /** Object member by name; nullptr when absent or not an object. */
    const JsonValue *member(const std::string &name) const;
    /** Array element by index; nullptr when out of range / not array. */
    const JsonValue *at(size_t i) const;
    size_t size() const { return items_.size(); }

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool b_ = false;
    bool isInt_ = false;
    uint64_t u64_ = 0;
    double d_ = 0;
    std::string str_;
    std::vector<std::pair<std::string, JsonValue>> members_; // objects
    std::vector<JsonValue> items_;                           // arrays
};

/**
 * Parses one complete JSON document. Trailing garbage, truncation and
 * malformed syntax all return a trace-corrupt SimError naming the
 * offset, never UB — a torn record must be rejected cleanly, never
 * half-read.
 */
Expected<JsonValue> parseJson(const std::string &text);

/**
 * Checked member access over one parsed JSON object: the first missing
 * or wrong-kind field records a SimError of the reader's category in
 * the shared @p err slot and every later read no-ops, so parse
 * functions read straight-line and check the slot once. @p doc names
 * the document kind in missing-field messages ("missing field 'x' in
 * <doc> JSON"). Readers from child() share the slot. The read half of
 * a field list (see JsonFieldWriter).
 */
class JsonReader
{
  public:
    JsonReader(const JsonValue *obj, std::optional<SimError> &err,
               ErrorCategory cat, const char *doc)
        : obj_(obj), err_(err), cat_(cat), doc_(doc)
    {
    }

    JsonReader child(const char *name) const;
    bool has(const char *name) const;

    void u64(const char *name, uint64_t &dst) const;
    void u32(const char *name, uint32_t &dst) const;
    void f64(const char *name, double &dst) const;
    void str(const char *name, std::string &dst) const;
    void boolean(const char *name, bool &dst) const;
    /** Fixed-size counter array; a length mismatch is an error. */
    void u64Array(const char *name, uint64_t *dst, size_t n) const;

    /** Enum stored as an integer; values past @p max are an error. */
    template <typename E>
    void
    enumeration(const char *name, E &dst, uint64_t max) const
    {
        const JsonValue *m = fetch(name, JsonValue::Kind::Number);
        if (!m)
            return;
        if (m->asU64() > max)
            fail("field '", name, "' value ", m->asU64(),
                 " exceeds enum range ", max);
        else
            dst = static_cast<E>(m->asU64());
    }

    /** Enum stored as its wire name: the value in [0, @p max] whose
     *  @p name_of matches; an unknown name is an error. */
    template <typename E, typename NameOf>
    void
    enumeration(const char *name, E &dst, uint64_t max,
                NameOf name_of) const
    {
        std::string s;
        str(name, s);
        if (failed())
            return;
        for (uint64_t i = 0; i <= max; ++i) {
            if (s == name_of(static_cast<E>(i))) {
                dst = static_cast<E>(i);
                return;
            }
        }
        fail("field '", name, "' has unknown value '", s, "'");
    }

    /** Computed from other fields: written, ignored on read. */
    void derived(const char *, double) const {}

    template <typename Fn>
    void
    object(const char *name, Fn &&fn) const
    {
        JsonReader c = child(name);
        fn(c);
    }

    /** Optional member: @p present records whether it is there. */
    template <typename Fn>
    void
    object(const char *name, bool &present, Fn &&fn) const
    {
        present = has(name);
        if (present)
            object(name, fn);
    }

    /** Records a semantic defect in the reader's category (the first
     *  error wins). */
    template <typename... Args>
    void
    fail(const Args &...args) const
    {
        if (!err_)
            err_ = simError(cat_, args...);
    }

    bool failed() const { return err_.has_value(); }

    /** The member itself, checked for @p kind (nullptr on error). */
    const JsonValue *
    raw(const char *name, JsonValue::Kind kind) const
    {
        return fetch(name, kind);
    }

  private:
    const JsonValue *fetch(const char *name, JsonValue::Kind kind) const;

    const JsonValue *obj_;
    std::optional<SimError> &err_;
    ErrorCategory cat_;
    const char *doc_;
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_JSON_HH_
