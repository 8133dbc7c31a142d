// Shared helpers for the figure-reproduction benches: banner printing,
// trace down-sampling and CSV emission so every bench reports the same way.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "hc/workload.h"
#include "se/se.h"

namespace sehc {

/// Prints the standard bench banner: figure id, description, workload
/// parameters and measured workload metrics.
void print_figure_banner(std::ostream& os, const std::string& figure_id,
                         const std::string& description, const Workload& w,
                         const std::string& params_desc);

/// Down-samples a trace to at most `max_rows` evenly spaced rows (always
/// keeping the first and last).
std::vector<SeIterationStats> downsample(
    const std::vector<SeIterationStats>& trace, std::size_t max_rows);

/// CSV emission of an SE trace: iteration,selected,moved,current,best.
void write_se_trace_csv(std::ostream& os,
                        const std::vector<SeIterationStats>& trace,
                        std::size_t max_rows);

}  // namespace sehc
