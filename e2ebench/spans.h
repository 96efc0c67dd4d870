/**
 * @file
 * In-memory span log for the benchmark's traced runs.
 *
 * The harness wraps its own calls into each library layer (runQNode,
 * quantize, im2row, CompressedA/B, ensureClusterPanels, mixGemm,
 * InferenceServer::submit, ...) in spans; nothing inside the library is
 * instrumented. Spans carry the image or request id they belong to and
 * the index of the span that caused them, stay in memory while the
 * workload runs, and are written out once at the end as Chrome trace
 * events (loadable in Perfetto).
 */

#ifndef E2EBENCH_SPANS_H
#define E2EBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench
{

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One closed span. @ref name must be a string literal. */
struct Span
{
    const char *name = "";
    uint64_t id = 0;      ///< image or request id
    int64_t parent = -1;  ///< index of the causing span, -1 for a root
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;

    uint64_t durNs() const { return end_ns - start_ns; }
};

/** Thread-safe append-only span store. */
class SpanLog
{
  public:
    /** Open a span; returns its index for end() and as a parent. */
    int64_t begin(const char *name, uint64_t id, int64_t parent = -1);
    /** Close a span; returns its duration in ns. */
    uint64_t end(int64_t index);

    /** Append an already-measured span (request phases taken from
     * server timestamps); returns its index. */
    int64_t add(const char *name, uint64_t id, int64_t parent,
                uint64_t start_ns, uint64_t end_ns);

    size_t size() const;

    /** Write every span as a Chrome trace event array. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * RAII span: opened on construction; on destruction it closes and adds
 * its duration in ns to @p sink.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, uint64_t id, int64_t parent,
               double &sink)
        : log_(log), sink_(sink), index_(log.begin(name, id, parent))
    {
    }
    ~ScopedSpan() { sink_ += static_cast<double>(log_.end(index_)); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    double &sink_;
    int64_t index_;
};

} // namespace e2ebench

#endif // E2EBENCH_SPANS_H
