/**
 * @file
 * Taint-flow annotations for the observe-never-decide storage
 * contract (read by scripts/sieve_analyze.py --flow).
 *
 * The storage layer puts a real block store behind every analytic
 * SSD charge under a strict contract: backends *observe*, they never
 * *decide*. The dynamic enforcement is test_storage_differential
 * (bit-identity of model-side fields across backends on a replay);
 * these annotations make the same contract provable statically, for
 * every path the analyzer can see rather than just the paths a replay
 * happens to drive.
 *
 * The sieve-flow pass runs a forward interprocedural taint analysis:
 *
 *  - SIEVE_TAINT_SOURCE marks where measured (device-observed) data
 *    enters the program. On a function it taints the return value and
 *    every argument the call can fill (out-params — the latency spans
 *    of storage::Backend::readBlocks/writeBlocks). On a data member
 *    it declares "this field holds measured data": reads of it are
 *    tainted, and writes of measured data INTO it are the explicit,
 *    lintable record of a deliberate measured->report flow (the
 *    storage_* columns of core::DailyReport). Built-in sources need no
 *    annotation: pread/pwrite/io_uring_* returns, rand/random_device,
 *    wall clocks, and getenv are taint origins in the analyzer's
 *    primitive tables.
 *  - SIEVE_TAINT_SINK marks a decision surface. On a function, a
 *    tainted argument is a contract violation (sieve admit paths,
 *    cache mutation entry points). On a data member, assigning
 *    tainted data to it is a violation (the model-side fields of
 *    core::DailyReport). Every violation is reported with the full
 *    source -> assignment -> sink path.
 *  - SIEVE_FLOW_SANITIZE marks the audited boundary, mirroring
 *    SIEVE_MAY_ALLOC: a function through which measured data may
 *    legitimately pass without tainting its result (a report-only
 *    formatter, a divergence gate that feeds no model state). The
 *    analyzer absorbs taint there, stops propagation, and lists every
 *    such boundary in its --report output so each one stays a
 *    reviewed, named exemption. Every use must carry a comment saying
 *    why the laundered value cannot influence a decision.
 *
 * The analyzer tracks explicit data flow only (assignments, call
 * arguments and returns, member fields). Control dependence — a
 * branch on measured data that steers clean values — is out of scope
 * and covered dynamically by the storage differential; see DESIGN.md
 * section 14 for the lattice and this caveat.
 *
 * Under Clang the annotations are attached to the AST (annotate
 * attributes) so the libclang backend sees them without re-lexing;
 * under GCC they compile to nothing, exactly like SIEVE_NOALLOC /
 * SIEVE_MAY_ALLOC in util/check.hpp.
 */

#ifndef SIEVESTORE_UTIL_FLOW_ANNOTATIONS_HPP
#define SIEVESTORE_UTIL_FLOW_ANNOTATIONS_HPP

#if defined(__clang__)
#define SIEVE_TAINT_SOURCE __attribute__((annotate("sieve-taint-source")))
#define SIEVE_TAINT_SINK __attribute__((annotate("sieve-taint-sink")))
#define SIEVE_FLOW_SANITIZE __attribute__((annotate("sieve-flow-sanitize")))
#else
#define SIEVE_TAINT_SOURCE
#define SIEVE_TAINT_SINK
#define SIEVE_FLOW_SANITIZE
#endif

#endif // SIEVESTORE_UTIL_FLOW_ANNOTATIONS_HPP
