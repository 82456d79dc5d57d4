/**
 * @file
 * Binary trace serialisation: save a generated Trace (instruction stream
 * plus the functional-memory pages the feeder reads) to disk and load it
 * back. Lets users capture a workload once and replay it across many
 * configuration sweeps, or ship traces between machines.
 *
 * Format (little-endian, version 2):
 *   magic "CTSIM\0", u32 version,
 *   u64 op count, then per 30-byte op: pc, memAddr-or-target, value
 *     (u64 each; memAddr and target share storage in MicroOp),
 *     cls, dst, src[3], taken (u8 each),
 *   u64 page count, then per page: u64 base address + 4096 raw bytes.
 * Version 1 files (38-byte ops with separate memAddr and target words)
 * are rejected as unsupported.
 *
 * Loading validates everything a hostile or bit-flipped file could get
 * wrong — magic, version, counts bounded by the file's real size, op
 * classes and register indices in range, page alignment, trailing
 * garbage — and reports defects as trace-corrupt SimErrors, never UB.
 */

#ifndef CATCHSIM_TRACE_TRACE_IO_HH_
#define CATCHSIM_TRACE_TRACE_IO_HH_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bitutil.hh"
#include "common/error.hh"
#include "trace/workload.hh"

namespace catchsim
{

/** On-disk trace format version; also part of every result-store key
 *  (sim/result_store.hh). */
constexpr uint32_t kTraceFormatVersion = 2;

/** Writes @p trace to @p path; the error names the path and cause. */
Expected<void> saveTraceChecked(const Trace &trace,
                                const std::string &path);

/** Legacy wrapper: warns and returns false on failure. */
bool saveTrace(const Trace &trace, const std::string &path);

/**
 * Reads and fully validates a trace. An unopenable path is a config
 * error; any content defect (bad magic/version, counts exceeding the
 * file size, truncation, out-of-range op class or register index,
 * misaligned page base, trailing bytes) is trace-corrupt with a
 * message naming the offending record.
 */
Expected<Trace> loadTraceChecked(const std::string &path);

/**
 * Legacy wrapper over loadTraceChecked.
 * @returns an empty trace (no ops, null memory) after warning on any
 * failure
 */
Trace loadTrace(const std::string &path);

} // namespace catchsim

#endif // CATCHSIM_TRACE_TRACE_IO_HH_
