#pragma once

namespace cloudmedia::util {

/// Process peak resident set size in MiB (getrusage high-water mark).
/// Monotonic over the process lifetime — phase A's allocations are visible
/// in every later phase's reading, so benches that compare phases must run
/// the small phase first. Returns 0.0 where the platform has no probe.
[[nodiscard]] double peak_rss_mb();

/// True in an AddressSanitizer or ThreadSanitizer build (GCC's
/// __SANITIZE_*__ macros, Clang's __has_feature). Shadow memory distorts
/// RSS and instrumentation slows every loop, so benches skip their RSS and
/// throughput gates there.
inline constexpr bool kSanitizedBuild =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

/// Instantaneous resident set size in MiB (/proc/self/status VmRSS on
/// Linux). Unlike peak_rss_mb() this can go down after memory is released
/// back to the OS. Returns 0.0 where the platform has no probe.
[[nodiscard]] double current_rss_mb();

}  // namespace cloudmedia::util
