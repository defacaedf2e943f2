#include "nvme/log_page.h"

#include "common/coding.h"
#include "common/slice.h"

namespace kvcsd::nvme {

namespace {

void PutName(std::string* dst, const std::string& name) {
  PutLengthPrefixedSlice(dst, Slice(name));
}

bool GetName(Slice* input, std::string* name) {
  Slice s;
  if (!GetLengthPrefixedSlice(input, &s)) return false;
  name->assign(s.data(), s.size());
  return true;
}

}  // namespace

std::uint64_t HealthPage::Gauge(const std::string& name) const {
  for (const auto& [key, value] : gauges) {
    if (key == name) return value;
  }
  return 0;
}

std::string EncodeHealthPage(const HealthPage& page) {
  std::string out;
  // Page header: version, page id, tick.
  PutFixed16(&out, kLogPageVersion);
  PutFixed32(&out, static_cast<std::uint32_t>(LogPageId::kHealth));
  PutFixed64(&out, page.tick);
  PutFixed32(&out, static_cast<std::uint32_t>(page.gauges.size()));
  for (const auto& [name, value] : page.gauges) {
    PutName(&out, name);
    PutFixed64(&out, value);
  }
  return out;
}

bool DecodeHealthPage(const std::string& payload, HealthPage* page) {
  Slice input(payload);
  if (input.size() < 2) return false;
  const std::uint16_t version = DecodeFixed16(input.data());
  input.remove_prefix(2);
  std::uint32_t id = 0;
  std::uint64_t tick = 0;
  if (!GetFixed32(&input, &id) || !GetFixed64(&input, &tick)) return false;
  if (version != kLogPageVersion) return false;
  if (id != static_cast<std::uint32_t>(LogPageId::kHealth)) return false;
  page->version = version;
  page->tick = tick;
  std::uint32_t count = 0;
  if (!GetFixed32(&input, &count)) return false;
  page->gauges.clear();
  page->gauges.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (!GetName(&input, &name) || !GetFixed64(&input, &value)) return false;
    page->gauges.emplace_back(std::move(name), value);
  }
  return input.empty();
}

}  // namespace kvcsd::nvme
