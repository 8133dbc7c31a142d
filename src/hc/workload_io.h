// Plain-text (de)serialization of complete workloads.
//
// Format ("sehc-workload v1"):
//
//   sehc-workload v1
//   machines 2
//   arch 1 SIMD                  # optional, default MIMD
//   <embedded sehc-dag v1 block, terminated by 'end-dag'>
//   exec                          # l rows of k numbers
//   10 20 30 ...
//   ...
//   transfer                      # l(l-1)/2 rows of p numbers (omit if p==0)
//   5 5 5 ...
//
// Numbers are written as printf "%.17g" writes them, which round-trips
// every double, by write_g17 (core/table.h): exact integer arithmetic for
// 1 <= v < 1e17, which holds every time the generator makes, and
// std::to_chars(general, 17) for every other value. workload_to_string's
// output is the canonical form of a workload: the serving layer keys its
// response cache by identity bytes that are equal exactly when this text
// is (workload_identity, serve/protocol.h).
//
// The reader parses numbers with std::from_chars but accepts exactly the
// tokens `std::istream >> double` accepts: a leading '+' is allowed, inf
// and nan are not, and an underflowing value reads as a zero of its sign.
// Numbers may sit anywhere in their section's whitespace; whatever follows
// the last number of a matrix on its line is ignored. Before allocating
// the machine set, the graph or a matrix, the reader checks the declared
// sizes against the bytes that must hold them (every number takes a digit
// and a separator), so a short document cannot make it allocate or scan a
// huge instance.
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "hc/workload.h"

namespace sehc {

void write_workload(std::ostream& os, const Workload& w);
/// Reads the rest of `is` as one document.
Workload read_workload(std::istream& is);

std::string workload_to_string(const Workload& w);
Workload workload_from_string(const std::string& text);

}  // namespace sehc
