/**
 * @file
 * Minimal command-line argument parsing for the examples and tools.
 *
 * Supports `--flag`, `--key value`, and `--key=value` forms plus
 * positional arguments, with typed accessors and defaults. Small by
 * design — just enough for reproducible tool invocations.
 */

#ifndef LIA_BASE_ARGS_HH
#define LIA_BASE_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lia {

/** Parsed command line. */
class ArgParser
{
  public:
    /**
     * @param usage  the program's arguments as its usage line shows
     *               them (e.g. "[l_in] [l_out]"), printed by
     *               usageError
     */
    ArgParser(int argc, const char *const *argv, std::string usage = "");

    /** Whether `--name` appeared (with or without a value). */
    bool has(const std::string &name) const;

    /** String option value or @p fallback. */
    std::string getString(const std::string &name,
                          const std::string &fallback = "") const;

    /**
     * Integer option value or @p fallback. A value that is not wholly
     * a base-10 integer (`--requests=abc`, `--batch=8x`, `--lin=1.5`)
     * or overflows exits through LIA_FATAL naming the option.
     */
    std::int64_t getInt(const std::string &name,
                        std::int64_t fallback) const;

    /**
     * Floating-point option value or @p fallback; a value strtod
     * cannot parse whole exits through LIA_FATAL naming the option.
     */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Positional argument @p index as a number (T is std::int64_t or
     * double), or @p fallback when there are fewer arguments. A value
     * that is not wholly a number of that kind — the same test as
     * getInt/getDouble — exits through usageError naming argument
     * @p name.
     */
    template <typename T>
    T positionalNumber(std::size_t index, const std::string &name,
                       T fallback) const;

    /**
     * Print "<program>: @p message" and the usage line to stderr and
     * exit with status 2: the one exit for arguments the program
     * cannot take, malformed or out of range.
     */
    [[noreturn]] void usageError(const std::string &message) const;

    /** Positional arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** The program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::string usage_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace lia

#endif // LIA_BASE_ARGS_HH
