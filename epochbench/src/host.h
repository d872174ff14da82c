// Host fingerprint: wall times are only comparable between like hosts.
#pragma once

#include <string>

namespace epochbench {

// Hardware threads available to the process (at least 1), as `nproc`
// counts them.
int HardwareThreads();

// One-line JSON object: CPU model, nproc, compiler, build type and the
// partitioner's thread count. Printed with every result.
std::string HostFingerprintJson(int partitioner_threads);

}  // namespace epochbench
