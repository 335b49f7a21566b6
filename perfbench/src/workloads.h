#pragma once

#include "bench.h"

namespace perfbench {

void RunOltpWire(const Options &options, Report *report);
void RunAnalyticWire(const Options &options, Report *report);
void RunWhatifPlan(const Options &options, Report *report);

}  // namespace perfbench
