#include "base/args.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <type_traits>
#include <utility>

#include "base/logging.hh"

namespace lia {

ArgParser::ArgParser(int argc, const char *const *argv, std::string usage)
    : usage_(std::move(usage))
{
    LIA_ASSERT(argc >= 1, "argv must contain the program name");
    program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        const std::string body = arg.substr(2);
        const auto eq = body.find('=');
        if (eq != std::string::npos) {
            options_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // `--key value` when the next token is not another option;
        // otherwise a bare flag.
        if (i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options_[body] = argv[++i];
        } else {
            options_[body] = "";
        }
    }
}

bool
ArgParser::has(const std::string &name) const
{
    return options_.count(name) > 0;
}

std::string
ArgParser::getString(const std::string &name,
                     const std::string &fallback) const
{
    const auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
}

namespace {

/**
 * Parse all of @p text with @p parse (a strtoll/strtod wrapper) into
 * @p out; false when it is not wholly a number of the wanted kind —
 * such a value must never silently become 0.
 */
template <typename T, typename Parse>
bool
parseWhole(const std::string &text, const Parse &parse, T &out)
{
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text.front())))
        return false;
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    out = parse(begin, &end);
    return end != begin && *end == '\0' && errno != ERANGE;
}

bool
parseNumber(const std::string &text, std::int64_t &out)
{
    return parseWhole(text,
                      [](const char *s, char **end) {
                          return std::strtoll(s, end, 10);
                      },
                      out);
}

bool
parseNumber(const std::string &text, double &out)
{
    return parseWhole(text,
                      [](const char *s, char **end) {
                          return std::strtod(s, end);
                      },
                      out);
}

template <typename T>
const char *
numberKind()
{
    return std::is_same_v<T, double> ? "a number" : "an integer";
}

/** An option's value as a T, or LIA_FATAL naming the option. */
template <typename T>
T
optionNumber(const std::string &name, const std::string &text)
{
    T value{};
    if (!parseNumber(text, value)) {
        LIA_FATAL("option --", name, " wants ", numberKind<T>(), ", got \"",
                  text, "\"");
    }
    return value;
}

} // namespace

std::int64_t
ArgParser::getInt(const std::string &name, std::int64_t fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end() || it->second.empty())
        return fallback;
    return optionNumber<std::int64_t>(name, it->second);
}

double
ArgParser::getDouble(const std::string &name, double fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end() || it->second.empty())
        return fallback;
    return optionNumber<double>(name, it->second);
}

template <typename T>
T
ArgParser::positionalNumber(std::size_t index, const std::string &name,
                            T fallback) const
{
    if (index >= positional_.size())
        return fallback;
    const std::string &text = positional_[index];
    T value{};
    if (!parseNumber(text, value)) {
        std::cerr << program_ << ": argument " << name << " wants "
                  << numberKind<T>() << ", got \"" << text << "\"\n"
                  << "usage: " << program_ << " " << usage_ << "\n";
        std::exit(2);
    }
    return value;
}

template std::int64_t ArgParser::positionalNumber(std::size_t,
                                                  const std::string &,
                                                  std::int64_t) const;
template double ArgParser::positionalNumber(std::size_t,
                                            const std::string &,
                                            double) const;

} // namespace lia
