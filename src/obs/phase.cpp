#include "obs/phase.h"

namespace sehc {

SpanScope::SpanScope(MetricsRegistry* registry, std::string_view name)
    : registry_(registry) {
  if (registry_ != nullptr) registry_->span_enter(name);
}

SpanScope::~SpanScope() {
  if (registry_ != nullptr) registry_->span_leave();
}

void SpanScope::add_rounds(std::uint64_t n) {
  if (registry_ != nullptr) registry_->span_rounds(n);
}

}  // namespace sehc
