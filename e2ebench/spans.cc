#include "spans.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>

namespace e2ebench
{

int64_t
SpanLog::begin(const char *name, uint64_t id, int64_t parent)
{
    const uint64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, id, parent, start, start});
    return static_cast<int64_t>(spans_.size() - 1);
}

uint64_t
SpanLog::end(int64_t index)
{
    const uint64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &span = spans_[static_cast<size_t>(index)];
    span.end_ns = end;
    return span.durNs();
}

int64_t
SpanLog::add(const char *name, uint64_t id, int64_t parent,
             uint64_t start_ns, uint64_t end_ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, id, parent, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size() - 1);
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::unique_ptr<FILE, int (*)(FILE *)> out(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t origin = UINT64_MAX;
    for (const Span &s : spans_)
        origin = std::min(origin, s.start_ns);
    std::fputs("{\"traceEvents\":[\n", out.get());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // One track per image/request id keeps nested spans stacked.
        std::fprintf(out.get(),
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%zu,\"parent\":%lld}}%s\n",
                     s.name, static_cast<unsigned long long>(s.id),
                     static_cast<double>(s.start_ns - origin) / 1e3,
                     static_cast<double>(s.durNs()) / 1e3, i,
                     static_cast<long long>(s.parent),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", out.get());
    return std::ferror(out.get()) == 0;
}

} // namespace e2ebench
