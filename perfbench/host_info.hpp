// Host and build fingerprint attached to every benchmark result, so two
// numbers are only ever compared knowing where and how they were produced.
// Nothing that identifies a person (user or host names) is recorded.
#pragma once

#include <string>

namespace perfbench {

// CPUs this process may run on (the affinity mask, like `nproc`).
unsigned online_cpus();

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// One-line JSON object: nproc, cpu_model, compiler, build_type, git_sha,
// workers.
std::string fingerprint_json(const std::string& git_sha, unsigned workers);

}  // namespace perfbench
