#ifndef IMS_SUPPORT_ERROR_HPP
#define IMS_SUPPORT_ERROR_HPP

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace ims::support {

/**
 * Error raised for invalid user input (malformed IR text, inconsistent
 * machine descriptions, impossible scheduling requests).
 *
 * API-misuse conditions (violated preconditions inside the library) use
 * assertions / std::logic_error instead; Error is reserved for conditions a
 * correct program can hit with bad input, mirroring gem5's fatal()/panic()
 * distinction.
 */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string& message) : std::runtime_error(message) {}
};

/**
 * An Error carrying a stable machine-readable failure code alongside the
 * human-readable message — the same code vocabulary the pipeliner's
 * Diagnostic.code and the fuzzing subsystem use ("sched.ii_exhausted",
 * "verify.<kind>", ...; see docs/FUZZING.md). Catch sites that surface
 * errors as structured diagnostics preserve the thrower's code instead of
 * synthesizing a generic "error.<phase>".
 */
class CodedError : public Error
{
  public:
    CodedError(std::string code, const std::string& message)
        : Error(message), code_(std::move(code))
    {
    }

    const std::string& code() const { return code_; }

  private:
    std::string code_;
};

/** Throw ims::support::Error with `message` if `condition` fails. */
inline void
check(bool condition, const char* message)
{
    if (!condition) [[unlikely]]
        throw Error(message);
}

/**
 * Throw ims::support::Error with the text `message()` returns if
 * `condition` fails. The message is built only then, so a check on a hot
 * path costs one branch: pass `[&] { return "..." + name; }` wherever
 * the text is assembled at run time.
 */
template <typename MessageFn>
    requires std::is_invocable_r_v<std::string, MessageFn&>
inline void
check(bool condition, MessageFn&& message)
{
    if (!condition) [[unlikely]]
        throw Error(message());
}

} // namespace ims::support

#endif // IMS_SUPPORT_ERROR_HPP
