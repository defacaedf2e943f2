// The device tests' testbed: harness::CsdTestbed with an 8-core host over
// a test's own device geometry. A test that injects faults owns its
// sim::FaultInjector and declares it before the testbed that wires it.
#pragma once

#include "harness/testbed.h"
#include "kvcsd/device.h"
#include "sim/fault.h"

namespace kvcsd::testutil {

inline harness::TestbedConfig Bed(const device::DeviceConfig& device,
                                  sim::FaultInjector* faults = nullptr) {
  harness::TestbedConfig c;
  c.host_cores = 8;
  c.device = device;
  if (faults != nullptr) c.device.zns.faults = faults;
  return c;
}

}  // namespace kvcsd::testutil
