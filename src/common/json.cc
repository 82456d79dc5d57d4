#include "common/json.hh"

#include <cctype>
#include <cstdlib>

namespace catchsim
{

const JsonValue *
JsonValue::member(const std::string &name) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[key, value] : members_)
        if (key == name)
            return &value;
    return nullptr;
}

const JsonValue *
JsonValue::at(size_t i) const
{
    if (kind_ != Kind::Array || i >= items_.size())
        return nullptr;
    return &items_[i];
}

/** Recursive-descent parser over the writer's output subset. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Expected<JsonValue>
    parse()
    {
        JsonValue v;
        if (auto err = parseValue(v); !err.ok())
            return err.error();
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters");
        return v;
    }

  private:
    SimError
    fail(const char *what) const
    {
        return simError(ErrorCategory::TraceCorrupt, "JSON parse error at ",
                        pos_, ": ", what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Expected<void>
    parseValue(JsonValue &out)
    {
        if (depth_ > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"')
            return parseString(out);
        if (c == 't' || c == 'f')
            return parseBool(out);
        if (c == 'n')
            return parseNull(out);
        return parseNumber(out);
    }

    Expected<void>
    parseObject(JsonValue &out)
    {
        ++pos_; // '{'
        ++depth_;
        out.kind_ = JsonValue::Kind::Object;
        skipWs();
        if (consume('}')) {
            --depth_;
            return {};
        }
        for (;;) {
            skipWs();
            JsonValue key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected member name");
            if (auto err = parseString(key); !err.ok())
                return err;
            if (!consume(':'))
                return fail("expected ':' after member name");
            JsonValue value;
            if (auto err = parseValue(value); !err.ok())
                return err;
            out.members_.emplace_back(std::move(key.str_),
                                      std::move(value));
            if (consume(','))
                continue;
            if (consume('}'))
                break;
            return fail("expected ',' or '}' in object");
        }
        --depth_;
        return {};
    }

    Expected<void>
    parseArray(JsonValue &out)
    {
        ++pos_; // '['
        ++depth_;
        out.kind_ = JsonValue::Kind::Array;
        skipWs();
        if (consume(']')) {
            --depth_;
            return {};
        }
        for (;;) {
            JsonValue item;
            if (auto err = parseValue(item); !err.ok())
                return err;
            out.items_.push_back(std::move(item));
            if (consume(','))
                continue;
            if (consume(']'))
                break;
            return fail("expected ',' or ']' in array");
        }
        --depth_;
        return {};
    }

    Expected<void>
    parseString(JsonValue &out)
    {
        ++pos_; // opening quote
        out.kind_ = JsonValue::Kind::String;
        std::string s;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"') {
                out.str_ = std::move(s);
                return {};
            }
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"':  s += '"'; break;
                  case '\\': s += '\\'; break;
                  case '/':  s += '/'; break;
                  case 'n':  s += '\n'; break;
                  case 't':  s += '\t'; break;
                  case 'r':  s += '\r'; break;
                  default:
                    return fail("unsupported escape");
                }
                continue;
            }
            s += c;
        }
        return fail("unterminated string");
    }

    Expected<void>
    parseBool(JsonValue &out)
    {
        out.kind_ = JsonValue::Kind::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            out.b_ = true;
            pos_ += 4;
            return {};
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            out.b_ = false;
            pos_ += 5;
            return {};
        }
        return fail("bad literal");
    }

    Expected<void>
    parseNull(JsonValue &out)
    {
        if (text_.compare(pos_, 4, "null") != 0)
            return fail("bad literal");
        out.kind_ = JsonValue::Kind::Null;
        pos_ += 4;
        return {};
    }

    Expected<void>
    parseNumber(JsonValue &out)
    {
        size_t start = pos_;
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            integral = false;
            ++pos_;
        }
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            return fail("expected a value");
        std::string token = text_.substr(start, pos_ - start);
        out.kind_ = JsonValue::Kind::Number;
        char *end = nullptr;
        if (integral) {
            out.isInt_ = true;
            out.u64_ = std::strtoull(token.c_str(), &end, 10);
        } else {
            out.d_ = std::strtod(token.c_str(), &end);
        }
        if (!end || *end != '\0')
            return fail("malformed number");
        return {};
    }

    static constexpr int kMaxDepth = 64;

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0;
};

Expected<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

JsonReader
JsonReader::child(const char *name) const
{
    return JsonReader(fetch(name, JsonValue::Kind::Object), err_, cat_,
                      doc_);
}

bool
JsonReader::has(const char *name) const
{
    return obj_ && obj_->member(name) != nullptr;
}

void
JsonReader::u64(const char *name, uint64_t &dst) const
{
    if (const JsonValue *m = fetch(name, JsonValue::Kind::Number))
        dst = m->asU64();
}

void
JsonReader::u32(const char *name, uint32_t &dst) const
{
    if (const JsonValue *m = fetch(name, JsonValue::Kind::Number))
        dst = m->asU32();
}

void
JsonReader::f64(const char *name, double &dst) const
{
    if (const JsonValue *m = fetch(name, JsonValue::Kind::Number))
        dst = m->asDouble();
}

void
JsonReader::str(const char *name, std::string &dst) const
{
    if (const JsonValue *m = fetch(name, JsonValue::Kind::String))
        dst = m->asString();
}

void
JsonReader::boolean(const char *name, bool &dst) const
{
    if (const JsonValue *m = fetch(name, JsonValue::Kind::Bool))
        dst = m->asBool();
}

void
JsonReader::u64Array(const char *name, uint64_t *dst, size_t n) const
{
    const JsonValue *m = fetch(name, JsonValue::Kind::Array);
    if (!m)
        return;
    if (m->size() != n)
        return fail("field '", name, "' has ", m->size(),
                    " elements, expected ", n);
    for (size_t i = 0; i < n; ++i) {
        const JsonValue *e = m->at(i);
        if (!e || e->kind() != JsonValue::Kind::Number)
            return fail("field '", name, "' element ", i,
                        " is not a number");
        dst[i] = e->asU64();
    }
}

const JsonValue *
JsonReader::fetch(const char *name, JsonValue::Kind kind) const
{
    if (err_ || !obj_)
        return nullptr;
    const JsonValue *m = obj_->member(name);
    if (!m || m->kind() != kind) {
        fail(m ? "wrong-kind" : "missing", " field '", name, "' in ",
             doc_, " JSON");
        return nullptr;
    }
    return m;
}

} // namespace catchsim
