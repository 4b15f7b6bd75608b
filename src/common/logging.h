// Assertion and logging macros.
//
// VALIDITY_CHECK is always on (programming-error guard, aborts with context);
// VALIDITY_DCHECK compiles out in NDEBUG builds and is used on hot paths.

#ifndef VALIDITY_COMMON_LOGGING_H_
#define VALIDITY_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>

/// Aborts with file/line context when `cond` is false. The optional printf
/// style message arguments are emitted before aborting.
#define VALIDITY_CHECK(cond, ...)                                        \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "[validity] CHECK failed at %s:%d: %s\n",     \
                   __FILE__, __LINE__, #cond);                           \
      ::validity::internal::LogCheckMessage("" __VA_ARGS__);             \
      std::fflush(stderr);                                               \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

namespace validity {
namespace internal {

inline void LogCheckMessage() {}

template <typename... Args>
inline void LogCheckMessage(const char* fmt, Args... args) {
  if (fmt[0] == '\0') return;
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wformat-security"
#endif
  std::fprintf(stderr, "[validity]   ");
  std::fprintf(stderr, fmt, args...);
  std::fprintf(stderr, "\n");
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
}

}  // namespace internal
}  // namespace validity

#ifdef NDEBUG
#define VALIDITY_DCHECK(cond, ...) \
  do {                             \
  } while (0)
#else
#define VALIDITY_DCHECK(cond, ...) VALIDITY_CHECK(cond, ##__VA_ARGS__)
#endif

#endif  // VALIDITY_COMMON_LOGGING_H_
