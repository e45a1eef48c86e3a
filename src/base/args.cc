#include "base/args.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "base/logging.hh"

namespace lia {

ArgParser::ArgParser(int argc, const char *const *argv)
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
 * Parse all of @p text with @p parse (a strtoll/strtod wrapper), or
 * exit through LIA_FATAL naming the option: a value that is not
 * wholly a number of the wanted kind must not silently become 0.
 */
template <typename T, typename Parse>
T
parseWhole(const std::string &name, const std::string &text,
           const char *kind, const Parse &parse)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    const T value = parse(begin, &end);
    if (std::isspace(static_cast<unsigned char>(text.front())) ||
        end == begin || *end != '\0' || errno == ERANGE) {
        LIA_FATAL("option --", name, " wants ", kind, ", got \"", text,
                  "\"");
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
    return parseWhole<std::int64_t>(
        name, it->second, "an integer", [](const char *s, char **end) {
            return std::strtoll(s, end, 10);
        });
}

double
ArgParser::getDouble(const std::string &name, double fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end() || it->second.empty())
        return fallback;
    return parseWhole<double>(name, it->second, "a number",
                              [](const char *s, char **end) {
                                  return std::strtod(s, end);
                              });
}

} // namespace lia
