/// \file calibrate.hpp
/// \brief Host-speed calibration for the end-to-end host times.
///
/// The benchmark's host is shared: its effective speed drifts by tens of
/// percent over minutes as other tenants load the machine, for every kind
/// of code alike. A fixed kernel that belongs to the benchmark (it calls no
/// dqcsim code, so no change to the library can move it) is timed between
/// passes on the thread that issues the driver calls. The run's end-to-end
/// host times are then scaled to a host on which that kernel takes
/// kReferenceCalibrationNs, which cancels most of the drift.

#pragma once

namespace perfbench {

/// Median calibration time on the development host (a 4-vCPU VM), the
/// speed the scaled end-to-end host times refer to.
inline constexpr double kReferenceCalibrationNs = 2.0e6;

/// Host nanoseconds of one run of the calibration kernel (a 256-event
/// binary-heap queue stepped over a 256 KiB table, about 2 ms on the
/// development host) on the calling thread.
double calibration_ns();

}  // namespace perfbench
