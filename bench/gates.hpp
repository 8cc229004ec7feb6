// Acceptance gates of the chrono-gated benches. Every gate is evaluated and
// every failure printed, so one red gate cannot hide the ones after it; the
// process exits 1 when any gate failed.
#pragma once

#include <cstdarg>
#include <cstdio>

namespace shg::bench {

class Gates {
 public:
  /// Records one gate; a failed gate prints "FAIL: <message>" to stderr.
  [[gnu::format(printf, 3, 4)]] void check(bool pass, const char* format,
                                           ...) {
    if (pass) return;
    ++failed_;
    std::va_list args;
    va_start(args, format);
    std::fputs("FAIL: ", stderr);
    std::vfprintf(stderr, format, args);
    std::fputc('\n', stderr);
    va_end(args);
  }

  /// Process exit code: 0 when every gate passed, 1 otherwise (with a
  /// count of the failures on stderr).
  int exit_code() const {
    if (failed_ == 0) return 0;
    std::fprintf(stderr, "%d gate(s) failed\n", failed_);
    return 1;
  }

 private:
  int failed_ = 0;
};

}  // namespace shg::bench
