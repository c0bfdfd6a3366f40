#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common.h"

namespace perfbench {

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      int64_t request) {
  const double now = Now();
  return Add(name, now, now, parent, request);
}

void Tracer::End(int64_t id) { spans_[id].end = Now(); }

int64_t Tracer::Add(const std::string& name, double start, double end,
                    int64_t parent, int64_t request) {
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Merge(const Tracer& other) {
  const int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

std::vector<std::map<std::string, double>> Tracer::SelfTimesPerRoot(
    const std::string& root) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_time[span.parent] += span.end - span.start;
  }
  std::map<int64_t, size_t> slot;  // root span id -> result index
  std::vector<std::map<std::string, double>> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    int64_t top = static_cast<int64_t>(i);
    while (spans_[top].parent >= 0) top = spans_[top].parent;
    if (spans_[top].name != root) continue;
    const auto [it, fresh] = slot.emplace(top, self.size());
    if (fresh) self.emplace_back();
    const double own = spans_[i].end - spans_[i].start - child_time[i];
    self[it->second][spans_[i].parent < 0 ? "unattributed" : spans_[i].name] +=
        own;
  }
  return self;
}

std::map<std::string, double> Tracer::SelfTimes(const std::string& root) const {
  std::map<std::string, double> total;
  for (const auto& one : SelfTimesPerRoot(root)) {
    for (const auto& [name, seconds] : one) total[name] += seconds;
  }
  return total;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start\": " << Num(s.start) << ", \"end\": " << Num(s.end)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

bool Ledger::Closed() const {
  const double slack = wall / 10;
  for (const auto& [name, seconds] : self) {
    if (seconds < -slack) return false;
  }
  return std::fabs(Get("unattributed")) <= slack;
}

double Ledger::Get(const std::string& name) const {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second;
}

std::string Ledger::Render(const std::string& unit, double scale) const {
  std::vector<std::pair<std::string, double>> lines(self.begin(), self.end());
  std::sort(lines.begin(), lines.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::string out = "ledger " + title + " (wall " + Num(wall * scale) + " " +
                    unit + "):\n";
  char buf[160];
  for (const auto& [name, seconds] : lines) {
    std::snprintf(buf, sizeof buf, "  %-24s %12.4f %s %6.1f%%\n", name.c_str(),
                  seconds * scale, unit.c_str(),
                  wall > 0 ? 100.0 * seconds / wall : 0.0);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "  closed: %s (layers cover %.1f%% of wall)\n",
                Closed() ? "yes" : "NO",
                wall > 0 ? 100.0 * (wall - Get("unattributed")) / wall : 0.0);
  return out + buf;
}

Ledger MakeLedger(const Tracer& tracer, const std::string& root,
                  const std::string& title) {
  Ledger ledger;
  ledger.title = title;
  for (const Span& span : tracer.spans()) {
    if (span.parent < 0 && span.name == root) ledger.wall += span.end - span.start;
  }
  ledger.self = tracer.SelfTimes(root);
  return ledger;
}

}  // namespace perfbench
