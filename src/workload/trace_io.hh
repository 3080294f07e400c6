/**
 * @file
 * Trace file I/O: load workloads from a portable text format, so the
 * simulator can consume externally captured traces (e.g. from a Pin
 * tool, as the paper's authors did) instead of the built-in synthetic
 * generators. TraceWriter (workload/streaming_trace.hh) writes the
 * format, record by record.
 *
 * Format: one record per line, `#` comments and blank lines ignored.
 *
 *   <core> <L|S> <hex-addr> <hex-pc> <gap>
 *
 * Example:
 *   # core op addr pc gap
 *   0 L 10000000 4d00 16
 *   0 S 80000000 4d08 16
 */

#ifndef PROTOZOA_WORKLOAD_TRACE_IO_HH
#define PROTOZOA_WORKLOAD_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "workload/trace.hh"

namespace protozoa {

/**
 * Parse a workload from a trace stream.
 *
 * @param in         the text stream.
 * @param num_cores  number of cores the workload must cover; records
 *                   naming cores beyond this are a fatal error.
 * @return one VectorTrace per core (possibly empty).
 */
Workload readTrace(std::istream &in, unsigned num_cores);

/** Parse a workload from a trace file; fatal() on open failure. */
Workload readTraceFile(const std::string &path, unsigned num_cores);

} // namespace protozoa

#endif // PROTOZOA_WORKLOAD_TRACE_IO_HH
