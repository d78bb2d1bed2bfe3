#include "runtime/events.h"

#include <cstdio>

#include "common/strings.h"
#include "runtime/trace.h"

namespace diablo::runtime {

namespace {

std::string FmtUs(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

}  // namespace

EventLog::EventLog() : epoch_us_(SteadyNowUs()) {}

void EventLog::Emit(Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  // Timestamp under the lock: log order and timestamp order coincide,
  // which check_events.py asserts.
  events_.push_back({SteadyNowUs() - epoch_us_, std::move(event)});
}

std::vector<StampedEvent> EventLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

int64_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(events_.size());
}

int64_t EventLog::CountOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& e : events_) {
    if (e.event.name == name) ++n;
  }
  return n;
}

void EventLog::WriteJsonl(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& stamped : events_) {
    const Event& e = stamped.event;
    os << "{\"schema_version\":" << kSchemaVersion << ",\"event\":\""
       << JsonEscape(e.name) << "\",\"ts_us\":" << FmtUs(stamped.ts_us)
       << ",\"stage\":";
    if (e.stage_id >= 0) {
      os << e.stage_id;
    } else {
      os << "null";
    }
    os << ",\"location\":";
    if (e.src_line > 0) {
      os << "{\"file\":\""
         << JsonEscape(e.src_file.empty() ? "<program>" : e.src_file)
         << "\",\"line\":" << e.src_line << ",\"column\":" << e.src_column
         << "}";
    } else {
      os << "null";
    }
    for (const auto& [key, value] : e.ints) {
      os << ",\"" << JsonEscape(key) << "\":" << value;
    }
    for (const auto& [key, value] : e.strs) {
      os << ",\"" << JsonEscape(key) << "\":\"" << JsonEscape(value) << "\"";
    }
    os << "}\n";
  }
}

}  // namespace diablo::runtime
